"""Reverse-mode differentiation over a per-forward tape.

Each forward pass records a fresh tape: entries are appended in creation
order, which is already a topological order, so the backward sweep is a
single reverse iteration. An op returns a :class:`Node`, the forward's
handle on its output, a read-only ndarray (``node.data``); the tape keeps
an array-free :class:`Entry` per op, whose ``grad_fn`` captures only what
its backward reads (a conv's or linear layer's input, a ReLU's output, BN's
normalized input). So every other output is freed once the forward drops
its last handle, and an eval tape (``training=False``), whose ops pass no
``grad_fn``, keeps no activation: ``backward`` and ``relu_signature`` on
it raise. Outside input enters through ``Tape.constant``, which checks it
as a :class:`Tensor` (precision, rank, non-empty extents) and copies a
view of the caller's memory. ``node.value`` wraps the array in a
``Tensor`` for callers outside the library. Parameters live outside the
tape in a :class:`ParamStore`; ``backward`` returns each read parameter's
gradient and changes no store state. It drops each entry's captures as the
sweep passes it, so a tape runs one backward: after it, ``backward`` and
``relu_signature`` on that tape raise.

``gradcheck`` is the finite-difference referee: central differences on a
seeded sample of coordinates per parameter tensor, run in double precision.
Its perturbed evaluations run on tapes made with ``resume=(base_tape,
param_name)``. A builder that reads it (``Model.forward_on``, so every
``Model.loss_builder``) re-runs only the blocks from the one that owns the
perturbed parameter, starting from that block's input as the base forward
recorded it in ``base_tape.block_inputs``, which only ``gradcheck``'s tapes
fill; a hand-written builder ignores it and runs in full. Either way a
resumed tape stages no batch-norm running statistics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import hashlib
import numpy as np

from . import kernels
from .tensor import PrecisionError, ShapeError, Tensor, check_same_precision, dtype_for


def seeded_rng(seed: int, *labels) -> np.random.Generator:
    """Generator derived deterministically from a seed and string labels."""
    digest = hashlib.sha256(("/".join([str(seed), *map(str, labels)])).encode()).digest()
    return np.random.default_rng(np.frombuffer(digest[:16], dtype=np.uint64))


class Parameter:
    __slots__ = ("value", "trainable")

    def __init__(self, value: Tensor, trainable: bool = True):
        self.value = value
        self.trainable = trainable


class ParamStore:
    """Named parameter registry: value and trainable flag."""

    def __init__(self, precision: str = "single"):
        self.precision = precision
        self.dtype = dtype_for(precision)
        self._entries: dict[str, Parameter] = {}

    def register(self, name: str, value, trainable: bool = True) -> str:
        if name in self._entries:
            raise ValueError(f"parameter {name!r} already registered")
        tensor = value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=self.dtype))
        if tensor.dtype != self.dtype:
            tensor = tensor.astype(self.precision)
        self._entries[name] = Parameter(tensor, trainable)
        return name

    def __contains__(self, name):
        return name in self._entries

    def __getitem__(self, name: str) -> Parameter:
        return self._entries[name]

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def trainable_items(self):
        return [(n, p) for n, p in self._entries.items() if p.trainable]

    def set_value(self, name: str, value) -> None:
        entry = self._entries[name]
        arr = np.asarray(value, dtype=self.dtype)
        if arr.shape != entry.value.shape:
            raise ShapeError(
                f"parameter {name!r}: new value shape {arr.shape} does not match {entry.value.shape}"
            )
        entry.value = Tensor(arr)

    def param_count(self) -> int:
        """Trainable parameter count."""
        return sum(p.value.size for p in self._entries.values() if p.trainable)

    def state_arrays(self) -> dict:
        """All values (trainable and buffers) as plain arrays, for checkpointing."""
        return {name: p.value.data.copy() for name, p in self._entries.items()}


@dataclass(slots=True, eq=False, repr=False)
class Entry:
    """One recorded operation as the tape keeps it, without its output array.

    ``inputs`` are the inputs' entries and ``shape`` the output's. ``meta``
    holds a training ReLU's output, which its ``grad_fn`` reads and
    ``relu_signature`` reports, until ``backward`` drops both.
    """

    idx: int
    kind: str
    inputs: tuple
    grad_fn: Optional[Callable]
    scope: str
    meta: object
    param_name: Optional[str]
    shape: tuple


class Node:
    """The forward's handle on one operation: its read-only output and its tape entry."""

    __slots__ = ("data", "entry")

    def __init__(self, data, entry):
        self.data = data
        self.entry = entry

    @property
    def value(self) -> Tensor:
        """The output as a :class:`Tensor`, for callers outside the library."""
        return Tensor(self.data)

    @property
    def scope(self) -> str:
        return self.entry.scope

    @property
    def grad_fn(self):
        return self.entry.grad_fn

    @grad_fn.setter
    def grad_fn(self, fn):
        self.entry.grad_fn = fn


class Tape:
    """Dynamic computation graph, rebuilt on every forward pass."""

    def __init__(self, params: Optional[ParamStore] = None, training: bool = True,
                 resume: Optional[tuple] = None):
        self.params = params
        self.training = training
        # (base tape, perturbed parameter name): set only by gradcheck
        self.resume = resume
        # gradcheck's tapes only: one dict per Model.forward_on call, stem,
        # block and head name -> its input; None keeps nothing
        self.block_inputs: Optional[list[dict]] = None
        self.nodes: list[Entry] = []
        self.staged_updates: list[tuple[str, np.ndarray]] = []
        self._scope: list[str] = []
        self.current_scope = ""  # the dotted scope path, joined once per push or pop
        self._spent = False  # backward has run and released what it read

    # -- graph construction ------------------------------------------------

    @contextmanager
    def scope(self, name: str):
        self._scope.append(name)
        self.current_scope = ".".join(self._scope)
        try:
            yield
        finally:
            self._scope.pop()
            self.current_scope = ".".join(self._scope)

    def record(self, kind: str, inputs: tuple, value: np.ndarray,
               grad_fn: Optional[Callable], meta=None, param_name=None) -> Node:
        if len(inputs) > 1:
            check_same_precision(*[n.data for n in inputs])
        value.setflags(write=False)
        entry = Entry(len(self.nodes), kind, tuple([n.entry for n in inputs]), grad_fn,
                      self.current_scope, meta, param_name, value.shape)
        self.nodes.append(entry)
        return Node(value, entry)

    def constant(self, data) -> Node:
        """Outside input, checked as a Tensor, which copies a view of the caller's memory."""
        tensor = data if isinstance(data, Tensor) else Tensor(data)
        return self.record("constant", (), tensor.data, None)

    def param(self, name: str) -> Node:
        return self.record("param", (), self.params[name].value.data, None, param_name=name)

    def stage_update(self, name: str, value: np.ndarray) -> None:
        """Queue a buffer update (e.g. BN running stats) for the commit phase."""
        self.staged_updates.append((name, value))

    def commit_updates(self) -> None:
        for name, value in self.staged_updates:
            self.params.set_value(name, value)
        self.staged_updates.clear()

    # -- built-in ops --------------------------------------------------------

    def conv2d(self, x: Node, w: Node, stride: int = 1, padding: int = 0) -> Node:
        xd, wd = x.data, w.data
        out = kernels.conv2d(xd, wd, stride, padding)
        needs_dx = x.entry.kind != "constant"  # backward would discard it

        def grad_fn(g):
            return kernels.conv2d_backward(g, xd, wd, stride, padding, needs_dx)

        return self.record("conv2d", (x, w), out, grad_fn if self.training else None)

    def relu(self, x: Node) -> Node:
        out = kernels.relu(x.data)
        if not self.training:
            return self.record("relu", (x,), out, None)

        def grad_fn(g):
            # Keep g's bits where out > 0 (exactly where x > 0; the
            # subgradient at 0 is 0) and write +0.0 elsewhere. g * mask would
            # give -0.0 or NaN at masked slots; the bit mask cannot.
            uint = np.dtype(f"u{g.itemsize}")
            keep = (out > 0).view(np.uint8).astype(uint)
            np.negative(keep, out=keep)
            return (np.bitwise_and(g.view(uint), keep, out=keep).view(g.dtype),)

        return self.record("relu", (x,), out, grad_fn, meta=out)

    def add(self, a: Node, b: Node) -> Node:
        out = kernels.add(a.data, b.data)

        def grad_fn(g):
            return (g, g)

        return self.record("add", (a, b), out, grad_fn if self.training else None)

    def scale(self, x: Node, c: float) -> Node:
        xd = x.data
        factor = xd.dtype.type(c)
        out = xd * factor

        def grad_fn(g):
            return (g * factor,)

        return self.record("scale", (x,), out, grad_fn if self.training else None)

    def global_avg_pool(self, x: Node) -> Node:
        shape = x.data.shape
        out = kernels.global_avg_pool(x.data)

        def grad_fn(g):
            return (kernels.global_avg_pool_grad(g, shape),)

        return self.record("global_avg_pool", (x,), out, grad_fn if self.training else None)

    def linear(self, x: Node, w: Node, b: Node) -> Node:
        xd, wd, bd = x.data, w.data, b.data
        out = kernels.linear(xd, wd, bd)

        def grad_fn(g):
            return (g @ wd, g.T @ xd, g.sum(axis=0))

        return self.record("linear", (x, w, b), out, grad_fn if self.training else None)

    def sum(self, x: Node) -> Node:
        shape, dtype = x.data.shape, x.data.dtype
        out = np.asarray(x.data.sum())  # sum() returns a numpy scalar, which cannot be frozen

        def grad_fn(g):
            return (np.full(shape, g, dtype=dtype),)

        return self.record("sum", (x,), out, grad_fn if self.training else None)

    # -- backward ------------------------------------------------------------

    def backward(self, loss: Node) -> dict:
        """Gradients of a scalar loss, parameter name -> array, for each parameter
        it reads; changes no store state. The arrays may share memory: never
        write them.

        The sweep drops each entry's ``grad_fn``, and a ReLU entry's output,
        as it passes, so what backward has read is freed before it ends. That
        spends the tape: ``backward`` or ``relu_signature`` on it again raises.
        """
        if not self.training:
            raise ValueError("backward on an eval tape (training=False): it records no backward")
        self._check_unspent("backward")
        if loss.data.shape != ():
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        self._spent = True
        start = loss.entry.idx
        grads: dict[int, np.ndarray] = {start: np.asarray(loss.data.dtype.type(1.0))}
        # grad_fn outputs may alias each other (add hands the same array to
        # both inputs), so accumulate copy-on-write: only arrays this sweep
        # allocated itself are ever mutated in place.
        owned: set[int] = {start}
        param_grads: dict[str, np.ndarray] = {}
        for node in reversed(self.nodes):
            g = grads.pop(node.idx, None)
            owned.discard(node.idx)
            grad_fn, node.grad_fn, node.meta = node.grad_fn, None, None
            if g is None:
                continue
            if node.kind == "param":
                name = node.param_name
                param_grads[name] = param_grads[name] + g if name in param_grads else g
                continue
            if grad_fn is None:
                continue
            input_grads = grad_fn(g)
            for inp, ig in zip(node.inputs, input_grads):
                if ig is None:
                    continue
                if inp.idx not in grads:
                    grads[inp.idx] = ig
                elif inp.idx in owned:
                    grads[inp.idx] += ig
                else:
                    grads[inp.idx] = grads[inp.idx] + ig
                    owned.add(inp.idx)
        return param_grads

    def relu_signature(self) -> list:
        """Sign masks (input > 0) of every ReLU on the tape, in creation order.

        Read from each output, which a training ReLU's entry keeps for its
        backward: ReLU passes exactly the positive inputs, and maps NaN to 0,
        so ``out > 0`` equals ``x > 0`` bit for bit. An eval tape keeps no
        ReLU output, so this raises on one, as ``backward`` does.
        """
        if not self.training:
            raise ValueError("relu_signature on an eval tape (training=False): "
                             "it keeps no ReLU output")
        self._check_unspent("relu_signature")
        return [n.meta > 0 for n in self.nodes if n.kind == "relu"]

    def _check_unspent(self, what: str) -> None:
        if self._spent:
            raise ValueError(f"{what} on a spent tape: backward has run on it "
                             "and released what the forward recorded")


# -- finite-difference checker ----------------------------------------------

GRADCHECK_ATOL = 1e-10


@dataclass
class GradcheckResult:
    max_rel_err: float
    checked: int = 0
    skipped: int = 0

    def passed(self, threshold: float = 1e-6) -> bool:
        return self.max_rel_err < threshold


def _masks_equal(sig_a, sig_b) -> bool:
    if len(sig_a) != len(sig_b):
        return False
    return all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(sig_a, sig_b))


def gradcheck(loss_builder: Callable[[Tape], Node], params: ParamStore,
              eps: float = 1e-5, sample: int = 64, seed: int = 0) -> GradcheckResult:
    """Compare reverse-mode gradients against central finite differences.

    ``loss_builder`` must build the scalar loss on the tape it is handed;
    it is re-invoked for every perturbed evaluation. For each trainable
    tensor a seeded sample of coordinates (all, if the tensor is small) is
    checked. Coordinates whose +/-eps evaluations land on different sides
    of a ReLU kink are skipped: the two-sided difference is meaningless
    across the non-differentiable point.

    Each perturbed evaluation gets a tape with ``resume=(base_tape, name)``.
    ``Model.loss_builder`` then starts the forward at the block that owns
    ``name``, from the input the base forward recorded for it, since the
    blocks before it do not read the parameter; builders that never read
    ``tape.resume`` run the whole forward. The ReLU signatures compared
    are those of the re-run suffix: the skipped prefix holds the same bytes
    at +eps and -eps, so the skip decisions are those of full forwards.

    A coordinate whose two gradients agree within ``GRADCHECK_ATOL``
    absolute counts as passing before the relative comparison: central
    differences of an O(1) loss carry about 1e-12..1e-11 of rounding noise
    at eps=1e-5, so a tiny true gradient (a BN shift feeding a 1x1 conv into
    the next BN has exactly zero) can never clear a purely relative bar,
    while any real backward defect disagrees by many orders more than that.
    """
    if params.precision != "double":
        raise PrecisionError("gradcheck requires a double-precision ParamStore")
    if sample < 1:
        raise ValueError(f"gradcheck sample of {sample} coordinates per tensor: it must be at least 1")

    def make_tape(resume=None):
        tape = Tape(params, training=True, resume=resume)
        # Model.forward_on keeps each block's input here: perturbed tapes resume
        # from the base tape's, and find their call's twin by counting their own
        tape.block_inputs = []
        return tape

    base_tape = make_tape()
    analytic = base_tape.backward(loss_builder(base_tape))

    def eval_loss(name, idx, delta):
        original = params[name].value.data
        perturbed = original.copy()
        perturbed[idx] += delta
        params.set_value(name, perturbed)
        try:
            tape = make_tape(resume=(base_tape, name))
            value = float(loss_builder(tape).data)
            return value, tape.relu_signature()
        finally:
            params.set_value(name, original)

    result = GradcheckResult(max_rel_err=0.0)
    for name, p in params.trainable_items():
        size = p.value.size
        if size <= sample:
            flat_indices = np.arange(size)
        else:
            flat_indices = seeded_rng(seed, "gradcheck", name).choice(size, size=sample, replace=False)
        for flat in flat_indices:
            idx = np.unravel_index(int(flat), p.value.shape)
            plus, sig_plus = eval_loss(name, idx, eps)
            minus, sig_minus = eval_loss(name, idx, -eps)
            if not _masks_equal(sig_plus, sig_minus):
                result.skipped += 1
                continue
            numeric = (plus - minus) / (2 * eps)
            ana = float(analytic[name][idx]) if name in analytic else 0.0
            result.checked += 1
            if abs(ana - numeric) < GRADCHECK_ATOL:
                continue
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-12)
            result.max_rel_err = max(result.max_rel_err, rel)
    return result
