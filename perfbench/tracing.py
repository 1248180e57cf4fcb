"""Outside-in tracing of propmod: spans around the public functions of each module.

Nothing here edits the library. ``install`` replaces functions at the module
attribute where the library looks them up (``propmod.train.iter_batches``,
``propmod.networks.softmax_cross_entropy``, ...), wraps a few methods on their
classes, and wraps each tape node's ``grad_fn`` so backward time is split by op
kind and by top-level scope. ``uninstall`` puts every original back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root). Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

SCOPES = ("stem", "stage1", "stage2", "stage3", "head")


class Tracer:
    """Span stack plus named counters, all in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(float)
        self._stack: list = []
        self._forward_depth = 0
        self._forward_mark = 0.0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        return end - span[1]

    def wrap(self, fn, name: str, after=None):
        """fn inside a span; ``after(args, result)`` then records counters."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result
        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list:
    """Self time of every span: its duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap and the part
    of the parent's interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def totals(spans) -> dict:
    """name -> {"self": seconds, "total": seconds, "calls": n}."""
    out: dict = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0})
        row["self"] += own
        row["total"] += end - start
        row["calls"] += 1
    return out


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("name,start,end,parent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")


def _conv_flop(out_or_grad_shape, kernel_shape) -> int:
    n, o, oh, ow = out_or_grad_shape
    _, c, kh, kw = kernel_shape
    return 2 * n * o * oh * ow * c * kh * kw


def _top_scope(scope: str) -> str:
    # The input constant is recorded before any scope opens; it belongs to the stem.
    return scope.split(".", 1)[0] or "stem"


def install(tracer: Tracer):
    """Wrap propmod for tracing; returns a function that undoes every patch."""
    import propmod.autograd as autograd
    import propmod.data as data
    import propmod.kernels as kernels
    import propmod.layers as layers
    import propmod.networks as networks
    import propmod.tensor as tensor
    import propmod.train as train

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, after=None):
        # the library passes these functions' arguments positionally
        patch(owner, attr, tracer.wrap(getattr(owner, attr), name, after))

    counts = tracer.counts

    def add(key, n):
        counts[key] += n

    # kernels: conv lowering and its GEMMs, with FLOPs and patch-matrix bytes from shapes
    span(kernels, "im2col", "kernels.im2col",
         lambda a, cols: add("kernels.im2col.bytes", cols.nbytes))
    span(kernels, "col2im", "kernels.col2im",
         lambda a, img: add("kernels.col2im.bytes", a[0].nbytes))
    span(kernels, "conv2d", "kernels.conv2d",
         lambda a, out: add("kernels.conv2d.flop", _conv_flop(out.shape, a[1].shape)))
    span(kernels, "conv2d_input_grad", "kernels.conv2d_input_grad",
         lambda a, dx: add("kernels.conv2d_input_grad.flop", _conv_flop(a[0].shape, a[1].shape)))
    span(kernels, "conv2d_kernel_grad", "kernels.conv2d_kernel_grad",
         lambda a, dw: add("kernels.conv2d_kernel_grad.flop", _conv_flop(a[0].shape, a[2])))
    span(kernels, "add", "kernels.add")

    # layers: BN math, the BN layer glue around it, and the loss (networks imports it by name)
    for fn in ("batchnorm_train", "batchnorm_train_backward", "batchnorm_eval"):
        span(layers, fn, f"layers.{fn}")
    span(layers.BatchNorm2d, "__call__", "layers.batchnorm")
    span(networks, "softmax_cross_entropy", "layers.softmax_cross_entropy")

    # autograd: tape methods, per-node backward timing, gradcheck evaluations
    span(autograd.Tape, "relu", "autograd.relu")
    span(autograd.Tape, "commit_updates", "autograd.commit_updates")

    def count_backward(args, _):
        add("autograd.backward.calls", 1)
        add("autograd.backward.nodes", len(args[0].nodes))

    span(autograd.Tape, "backward", "autograd.backward", count_backward)

    record = autograd.Tape.record

    def timed_grad(grad_fn, name, scope_key):
        def traced_grad(g):
            idx = tracer.open(name)
            try:
                return grad_fn(g)
            finally:
                counts[scope_key] += tracer.close(idx)
        return traced_grad

    def traced_record(self, kind, inputs, value, grad_fn, meta=None, param_name=None):
        node = record(self, kind, inputs, value, grad_fn, meta=meta, param_name=param_name)
        scope = _top_scope(node.scope)
        if tracer._forward_depth:
            # forward time between two recorded nodes belongs to the op that produced the later one
            now = time.perf_counter()
            counts[f"networks.{scope}.fwd_s"] += now - tracer._forward_mark
            tracer._forward_mark = now
        if grad_fn is not None:
            node.grad_fn = timed_grad(grad_fn, f"autograd.grad.{kind}", f"networks.{scope}.bwd_s")
        return node

    patch(autograd.Tape, "record", traced_record)

    gradcheck = autograd.gradcheck

    def traced_gradcheck(loss_builder, params, *args, **kwargs):
        eval_builder = tracer.wrap(loss_builder, "autograd.gradcheck.eval")
        idx = tracer.open("autograd.gradcheck")
        try:
            result = gradcheck(eval_builder, params, *args, **kwargs)
        finally:
            tracer.close(idx)
        counts["autograd.gradcheck.checked"] += result.checked
        counts["autograd.gradcheck.skipped"] += result.skipped
        return result

    patch(autograd, "gradcheck", traced_gradcheck)

    # tensor: every construction counted; the ones that copy a view get a span
    tensor_init = tensor.Tensor.__init__

    def traced_tensor_init(self, data, dtype=None):
        counts["tensor.wraps"] += 1
        if isinstance(data, np.ndarray) and (dtype is None or np.dtype(dtype) == data.dtype) and (
                not data.flags.c_contiguous or (data.base is not None and not data.flags.owndata)):
            counts["tensor.copies"] += 1
            idx = tracer.open("tensor.copy")
            try:
                return tensor_init(self, data, dtype)
            finally:
                tracer.close(idx)
        return tensor_init(self, data, dtype)

    patch(tensor.Tensor, "__init__", traced_tensor_init)

    # networks: assembly and the forward walk, with per-scope forward attribution
    span(networks, "build_network", "networks.build_network")
    forward_on = networks.Model.forward_on

    def traced_forward_on(self, tape, x):
        idx = tracer.open("networks.forward_on")
        tracer._forward_depth += 1
        tracer._forward_mark = time.perf_counter()
        try:
            return forward_on(self, tape, x)
        finally:
            tracer._forward_depth -= 1
            tracer.close(idx)

    patch(networks.Model, "forward_on", traced_forward_on)

    # data: ingestion, batch assembly, and the time the train loop waits on its iterator
    span(data, "load_cifar", "data.load_cifar")
    span(data, "make_batch", "data.make_batch")
    iter_batches = train.iter_batches

    def traced_iter_batches(*args, **kwargs):
        it = iter_batches(*args, **kwargs)
        while True:
            idx = tracer.open("data.wait")
            try:
                batch = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            yield batch

    patch(train, "iter_batches", traced_iter_batches)

    # train and checkpoint
    span(train, "fit", "train.fit")
    span(train, "evaluate", "train.evaluate")
    span(train.SGD, "step", "train.sgd_step")
    def count_checkpoint(args, _):
        _, model, velocities = args[:3]
        add("checkpoint.bytes", sum(p.value.data.nbytes for _, p in model.store.items())
            + sum(v.nbytes for v in velocities.values()))

    span(train, "save_training_state", "checkpoint.save_training_state", count_checkpoint)

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return uninstall
