"""One benchmark workload, run in a process of its own by ``run.py``.

Usage: python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
--workdir DIR (with ``src`` on PYTHONPATH and the working directory at the
repository root). The span file of a traced run goes next to DIR.

The process sets up the workload's inputs from the seed, checks the program's
outputs, measures, and prints one JSON object as the last line of its standard
output: metric values, ops attempted and failed, the checks made, errors, and
machine facts. Everything else goes to standard error.

With ``--trace 0`` every timing comes from untraced code. With ``--trace 1``
the workload's main phases run a fixed number of operations, first untraced
and then under the tracer of ``tracing.py``, and the result holds the
per-layer table instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import tracing
from propmod import autograd, checkpoint, data, networks, train
from propmod.networks import NetworkConfig
from propmod.train import NumericalFailure, TrainConfig

# Set-up is repeated and its median reported: at least this many times, and
# more while the repetitions stay within the time budget.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_BUDGET_S = 3.0

# Relative tolerance between the single-precision first-batch loss and the
# same batch through a double-precision rebuild. Both builds draw He init in
# float64, so they differ only by the weight cast and float32 arithmetic,
# which stay below 1e-4 relative at these depths.
FIRST_LOSS_RTOL = 1e-3
GRADCHECK_THRESHOLD = 1e-6

TRAIN_WARMUP_STEPS = 1  # untimed steps before train-step times are taken
MEASURE_CEILING = 1.25  # the timed phases' hard limit, as a multiple of --seconds
TRACE_TRAIN_STEPS = 3  # per traced fit, and again for the untraced baseline
SGEMM_N = 2048
RSS_SAMPLE_S = 0.005

EVAL_BATCH = inspect.signature(train.evaluate).parameters["batch_size"].default
GRADCHECK_SAMPLE = inspect.signature(autograd.gradcheck).parameters["sample"].default


class Ledger:
    """Ops attempted and failed, the output checks made, and the errors seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict = {}
        self.errors: list = []

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, name: str, ok, detail: str = "") -> bool:
        """A check is one op; a failed check is one failed op."""
        ok = bool(ok)
        self.attempted += 1
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed: {detail}")
        return ok

    def guard(self, phase: str, fn, *args, **kwargs):
        """Call fn; a NumericalFailure or MemoryError is one failed op, not a crash."""
        try:
            return fn(*args, **kwargs)
        except (NumericalFailure, MemoryError) as err:
            self.failed += 1
            self.errors.append(f"{phase}: {type(err).__name__}: {err}")
            return None


class RssSampler:
    """Peak resident set size of this process while active, sampled on a thread.

    Used instead of tracemalloc, which made the traced gradient oracle four
    times slower and so distorted the spans it was measured beside.
    """

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def rss() -> int:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    def _loop(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, self.rss())
            self._stop.wait(RSS_SAMPLE_S)

    def __enter__(self):
        self.peak = self.rss()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self.rss())


@dataclasses.dataclass
class Phase:
    """A timed phase: ``unit`` runs one unit of work and returns the seconds of
    each op in it (empty if it failed); ``value`` maps the median op time to
    the reported metric."""

    metric: str
    share: float
    min_samples: int
    unit: Callable[[], list]
    value: Callable[[float], float]


class Run:
    """State of one workload run: its seed, time budget, ledger and results."""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.ledger = Ledger()
        self.metrics: dict = {}
        self.tracer = tracing.Tracer() if trace else None
        self.mem_mb: dict = {}
        self.samples: dict = {}  # metric -> ops timed for it
        self.primary = None  # (untraced, traced) seconds per train step
        self._eval_batches = 0

    @contextmanager
    def traced(self, phase: str):
        """Tracer installed, and peak RSS sampled, for one phase."""
        undo = tracing.install(self.tracer)
        try:
            with RssSampler() as rss:
                yield
        finally:
            undo()
        self.mem_mb[phase] = rss.peak / 1e6

    def setup(self, fn):
        """Time ``fn`` (ingestion, build_network, optimizer init); report the median."""
        if self.trace:
            with self.traced("setup"):
                return fn()
        times, state = [], None
        while True:
            state = None  # release the previous set-up before building the next
            t0 = time.perf_counter()
            state = fn()
            times.append(time.perf_counter() - t0)
            if len(times) >= SETUP_MIN_REPS and (
                    len(times) >= SETUP_MAX_REPS or sum(times) + times[-1] > SETUP_BUDGET_S):
                break
        self.metrics["setup_s"] = statistics.median(times)
        return state

    # -- timed phases ---------------------------------------------------------

    def measure(self, phases: list) -> None:
        """Run the phases' units interleaved until each has used its share of the run.

        The shared host's speed drifts over seconds, so interleaving spreads
        each metric's samples over the whole run instead of one stretch of it.
        A phase stops at its first failed unit. On a host too slow for the
        phases' minimum op counts, a phase with at least one op also stops
        before its next op would pass MEASURE_CEILING times ``--seconds``, so
        the run stays within its time limit.
        """
        budget = [p.share * self.seconds for p in phases]
        used = [0.0] * len(phases)
        samples: list = [[] for _ in phases]
        active = list(range(len(phases)))
        deadline = time.perf_counter() + MEASURE_CEILING * self.seconds
        while active:
            i = min(active, key=lambda j: used[j] / budget[j])
            if samples[i] and time.perf_counter() + used[i] / len(samples[i]) > deadline:
                active.remove(i)
                continue
            t0 = time.perf_counter()
            got = phases[i].unit()
            took = time.perf_counter() - t0
            used[i] += took
            samples[i].extend(got)
            if not got or (len(samples[i]) >= phases[i].min_samples and used[i] + took > budget[i]):
                active.remove(i)
        for phase, times in zip(phases, samples):
            if times:
                self.metrics[phase.metric] = phase.value(statistics.median(times))
                self.samples[phase.metric] = len(times)

    def fit(self, model, handle, cfg: TrainConfig, budget_s: float, min_steps: int,
            out_dir=None) -> list:
        """One epoch through ``train.fit``, cut short once the budget is spent.

        Returns the seconds of each step, batch assembly included, as the
        train loop sees them; an empty list if the epoch failed.
        """
        periods: list = []
        inner = train.iter_batches
        ledger = self.ledger

        def bounded(*args, **kwargs):
            start = last = time.perf_counter()
            for batch in inner(*args, **kwargs):
                ledger.op()
                yield batch
                now = time.perf_counter()
                periods.append(now - last)
                last = now
                if len(periods) >= min_steps and (now - start) + periods[-1] > budget_s:
                    return

        train.iter_batches = bounded
        try:
            record = ledger.guard("train", train.fit, model, handle, None, cfg, out_dir=out_dir)
        finally:
            train.iter_batches = inner
        if record is None:
            return []
        losses = [e.train_loss for e in record.epochs]
        ledger.check("train.loss_finite", losses and all(map(math.isfinite, losses)),
                     f"epoch losses {losses}")
        return periods

    def warm_up(self, model, handle, cfg: TrainConfig, out_dir=None) -> None:
        """Untimed train steps: the first steps of a process run 30-50% slower
        while the allocator's pools grow."""
        self.fit(model, handle, cfg, 0.0, TRAIN_WARMUP_STEPS, out_dir)

    def train_phase(self, model, handle, cfg: TrainConfig, share: float, min_samples: int,
                    out_dir=None) -> Phase:
        """Units of one train step, each a ``fit`` call cut after its first step."""
        return Phase("train_img_per_s", share, min_samples,
                     lambda: self.fit(model, handle, cfg, 0.0, 1, out_dir),
                     lambda step_s: cfg.batch_size / step_s)

    def evaluate(self, model, handle, budget_s: float, min_batches: int) -> list:
        """``train.evaluate`` on successive default-size batches of ``handle``.

        Each call gets exactly one batch, so its time is the time of one
        batch. Returns seconds per call; an empty list if the first failed.
        """
        size = min(EVAL_BATCH, len(handle))
        finite = []
        forward = model.forward

        def checked_forward(x, training=False):
            logits, tape = forward(x, training=training)
            finite.append(bool(np.all(np.isfinite(logits.value.data))))
            return logits, tape

        model.forward = checked_forward
        times, accs = [], []
        start = time.perf_counter()
        try:
            while True:
                lo = (self._eval_batches * size) % len(handle)
                self._eval_batches += 1
                chunk = dataclasses.replace(handle, images=handle.images[lo:lo + size],
                                            labels=handle.labels[lo:lo + size])
                self.ledger.op()
                t0 = time.perf_counter()
                acc = self.ledger.guard("eval", train.evaluate, model, chunk)
                if acc is None:
                    break
                times.append(time.perf_counter() - t0)
                accs.append(acc)
                if len(times) >= min_batches and (time.perf_counter() - start) + times[-1] > budget_s:
                    break
        finally:
            del model.forward
        if times:
            self.ledger.check("eval.logits_finite", all(finite), f"{finite.count(False)} batches")
            self.ledger.check("eval.accuracy_range", all(0.0 <= a <= 1.0 for a in accs), f"{accs}")
        return times

    def eval_phase(self, model, handle, share: float, min_samples: int) -> Phase:
        size = min(EVAL_BATCH, len(handle))
        return Phase("eval_img_per_s", share, min_samples,
                     lambda: self.evaluate(model, handle, 0.0, 1),
                     lambda batch_s: size / batch_s)

    def oracle(self, model, x, labels) -> list:
        """One ``autograd.gradcheck`` call as the acceptance oracle makes it; returns [seconds]."""
        expected = sum(min(p.value.size, GRADCHECK_SAMPLE) for _, p in model.store.trainable_items())
        t0 = time.perf_counter()
        result = self.ledger.guard("gradcheck", autograd.gradcheck, model.loss_builder(x, labels),
                                   model.store, eps=1e-5, seed=0)
        took = time.perf_counter() - t0
        if result is None:
            self.ledger.op()
            return []
        self.ledger.op(result.checked + result.skipped)
        self.ledger.check("gradcheck.passed", result.passed(GRADCHECK_THRESHOLD),
                          f"max_rel_err {result.max_rel_err:.3e}")
        self.ledger.check("gradcheck.coordinates", result.checked + result.skipped == expected,
                          f"checked {result.checked} + skipped {result.skipped} != {expected}")
        return [took]

    def oracle_phase(self, model, x, labels, share: float, min_samples: int) -> Phase:
        return Phase("gradcheck_s", share, min_samples, lambda: self.oracle(model, x, labels),
                     lambda call_s: call_s)

    # -- traced runs: a fixed amount of work, untraced first where it is the main phase

    def trace_train(self, model, handle, cfg: TrainConfig, out_dir=None) -> None:
        base = self.fit(model, handle, cfg, 0.0, TRACE_TRAIN_STEPS, out_dir)
        with self.traced("fit"):
            traced = self.fit(model, handle, cfg, 0.0, TRACE_TRAIN_STEPS, out_dir)
        if base and traced:
            self.primary = (statistics.median(base), statistics.median(traced))

    def trace_eval(self, model, handle) -> None:
        with self.traced("evaluate"):
            self.evaluate(model, handle, 0.0, 1)

    def trace_oracle(self, model, x, labels) -> None:
        with self.traced("gradcheck"):
            self.oracle(model, x, labels)


def first_batch_check(run: Run, net_cfg: NetworkConfig, model, handle, cfg: TrainConfig):
    """The batch fit sees first, through the model and through a float64 rebuild."""
    order = data.epoch_order(handle, cfg.seed, 0)
    images, labels = data.make_batch(handle, order[:cfg.batch_size], cfg.seed, 0, cfg.augment)
    single = float(model.loss(images, labels)[0].value.data)
    reference = networks.build_network(dataclasses.replace(net_cfg, precision="double"))
    double = float(reference.loss(images.astype(np.float64), labels)[0].value.data)
    rel = abs(single - double) / abs(double)
    run.ledger.check("train.first_batch_loss", math.isfinite(single) and rel <= FIRST_LOSS_RTOL,
                     f"single {single!r} vs double {double!r}: rel {rel:.2e} > {FIRST_LOSS_RTOL}")


# -- workloads ------------------------------------------------------------------

PLAIN38_TRAIN_IMAGES = 64 * 32
PLAIN38_EVAL_IMAGES = 256 * 8


def plain38_cifar(run: Run) -> None:
    """plain-38, paired (1:1), single precision, batch 64, on full-layout CIFAR-10 archives."""
    net_cfg = NetworkConfig(family="plain", depth=38, ratio="1:1", seed=run.seed)
    cfg = TrainConfig(epochs=1, batch_size=64, seed=run.seed)
    root = inputs.write_cifar10(run.workdir / "cifar10", run.seed)

    def setup():
        train_h = data.load_cifar(root, "cifar10", "train", subset=(PLAIN38_TRAIN_IMAGES, run.seed))
        test_h = data.load_cifar(root, "cifar10", "test", subset=(PLAIN38_EVAL_IMAGES, run.seed))
        model = networks.build_network(net_cfg)
        train.SGD(model.store, cfg)
        return train_h, test_h, model

    train_h, test_h, model = run.setup(setup)
    run.ledger.guard("check", first_batch_check, run, net_cfg, model, train_h, cfg)
    out_dir = run.workdir / "out"
    run.warm_up(model, train_h, cfg, out_dir)
    if run.trace:
        run.trace_train(model, train_h, cfg, out_dir)
        run.trace_eval(model, test_h)
    else:
        # the paired plain variant of the acceptance gradient oracle
        oracle = networks.build_network(NetworkConfig(family="plain", depth=8, ratio="1:1",
                                                      precision="double", seed=run.seed))
        x, labels = inputs.normal_batch(run.seed, "oracle")
        run.measure([run.train_phase(model, train_h, cfg, 0.34, 4, out_dir),
                     run.eval_phase(model, test_h, 0.3, 3),
                     run.oracle_phase(oracle, x, labels, 0.36, 3)])
    ckpt = out_dir / "ckpt-final.bin"
    run.ledger.check("checkpoint.readable",
                     ckpt.is_file() and int(checkpoint.load_tensors(ckpt)["meta.epoch"]) == 0,
                     f"{ckpt} missing or not from epoch 0")


BNECK164_BATCH = 16
BNECK164_TRAIN_IMAGES = BNECK164_BATCH * 32


def bneck164_deep(run: Run) -> None:
    """resnet-preact-bottleneck-164, removal type 1 (3:2 trunk), single, batch 16, synthetic data."""
    net_cfg = NetworkConfig(family="resnet-preact-bottleneck", depth=164, removal="1", seed=run.seed)
    cfg = TrainConfig(epochs=1, batch_size=BNECK164_BATCH, seed=run.seed)

    def setup():
        train_h = data.make_synthetic(10, BNECK164_TRAIN_IMAGES, seed=run.seed, split="train")
        # evaluate's default batch of 256 does not fit in memory at this depth,
        # so the held-out set is one batch of 16
        test_h = data.make_synthetic(10, BNECK164_BATCH, seed=run.seed, split="test")
        model = networks.build_network(net_cfg)
        train.SGD(model.store, cfg)
        return train_h, test_h, model

    train_h, test_h, model = run.setup(setup)
    run.ledger.guard("check", first_batch_check, run, net_cfg, model, train_h, cfg)
    run.warm_up(model, train_h, cfg)
    # the acceptance gradient oracle's slowest variant: thousands of tiny
    # double-precision forwards, where per-call overhead dominates
    oracle = networks.build_network(dataclasses.replace(net_cfg, depth=11, precision="double"))
    x, labels = inputs.normal_batch(run.seed, "oracle")
    if run.trace:
        run.trace_train(model, train_h, cfg)
        run.trace_oracle(oracle, x, labels)
        return
    # the oracle's calls take 9-12 s each, so it gets the largest share and at
    # least three calls, enough for its median to be steady
    run.measure([run.train_phase(model, train_h, cfg, 0.3, 4),
                 run.eval_phase(model, test_h, 0.1, 5),
                 run.oracle_phase(oracle, x, labels, 0.6, 3)])


WORKLOADS = {
    "plain38-cifar": plain38_cifar,
    "bneck164-deep": bneck164_deep,
}


# -- per-layer table ----------------------------------------------------------------


def root_breakdown(spans, root: str) -> dict:
    """Self seconds by span name, over the spans under roots named ``root``."""
    roots = []
    out: dict = {}
    for (name, _, _, parent), own in zip(spans, tracing.self_times(spans)):
        top = name if parent < 0 else roots[parent]
        roots.append(top)
        if top == root:
            out[name] = out.get(name, 0.0) + own
    return out


def layer_metrics(spans, counts, mem_mb: dict, primary, sgemm_gflops: float) -> dict:
    """The per-layer table from one traced run; absent layers read 0."""
    tot = tracing.totals(spans)

    def own(*names):
        return sum(tot[n]["self"] for n in names if n in tot)

    def total(name):
        return tot[name]["total"] if name in tot else 0.0

    def calls(name):
        return tot[name]["calls"] if name in tot else 0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for k in ("im2col", "col2im"):
        m[f"kernels.{k}.self_s"] = own(f"kernels.{k}")
        m[f"kernels.{k}.mb"] = counts[f"kernels.{k}.bytes"] / 1e6
    for k in ("conv2d", "conv2d_input_grad", "conv2d_kernel_grad"):
        m[f"kernels.{k}.self_s"] = own(f"kernels.{k}")
        m[f"kernels.{k}.gflops"] = ratio(counts[f"kernels.{k}.flop"], own(f"kernels.{k}")) / 1e9
    m["machine.sgemm_gflops"] = sgemm_gflops
    m["kernels.add.self_s"] = own("kernels.add", "autograd.grad.add")
    for k in ("batchnorm_train", "batchnorm_train_backward", "batchnorm_eval"):
        m[f"layers.{k}.self_s"] = own(f"layers.{k}")
    m["layers.batchnorm.self_s"] = own("layers.batchnorm", "autograd.grad.batchnorm")
    m["layers.softmax_cross_entropy.self_s"] = own("layers.softmax_cross_entropy",
                                                   "autograd.grad.softmax_cross_entropy")
    m["autograd.relu.self_s"] = own("autograd.relu", "autograd.grad.relu")
    m["autograd.backward.self_s"] = own("autograd.backward")
    m["autograd.nodes_per_step"] = ratio(counts["autograd.backward.nodes"],
                                         counts["autograd.backward.calls"])
    m["autograd.commit_updates.self_s"] = own("autograd.commit_updates")
    m["autograd.gradcheck.evals"] = ratio(calls("autograd.gradcheck.eval"), calls("autograd.gradcheck"))
    m["autograd.gradcheck.eval_ms"] = 1e3 * ratio(total("autograd.gradcheck.eval"),
                                                  calls("autograd.gradcheck.eval"))
    coords = counts["autograd.gradcheck.checked"] + counts["autograd.gradcheck.skipped"]
    m["autograd.gradcheck.skipped_frac"] = ratio(counts["autograd.gradcheck.skipped"], coords)
    m["tensor.wraps"] = counts["tensor.wraps"]
    m["tensor.copy_frac"] = ratio(counts["tensor.copies"], counts["tensor.wraps"])
    m["tensor.copy.self_s"] = own("tensor.copy")
    m["networks.build_network.s"] = ratio(total("networks.build_network"), calls("networks.build_network"))
    m["networks.forward_on.self_s"] = own("networks.forward_on")
    for scope in tracing.SCOPES:
        m[f"networks.{scope}.fwd_s"] = counts[f"networks.{scope}.fwd_s"]
        m[f"networks.{scope}.bwd_s"] = counts[f"networks.{scope}.bwd_s"]
    m["data.load_cifar.s"] = total("data.load_cifar")
    m["data.make_batch.s"] = total("data.make_batch")
    m["data.wait_frac"] = ratio(total("data.wait"), total("train.fit"))
    m["train.fit.s"] = total("train.fit")
    m["train.sgd_step.self_s"] = own("train.sgd_step")
    m["train.evaluate.s"] = total("train.evaluate")
    m["checkpoint.save_training_state.s"] = total("checkpoint.save_training_state")
    m["checkpoint.mb"] = counts["checkpoint.bytes"] / 1e6
    for phase in ("setup", "fit", "evaluate", "gradcheck"):
        m[f"mem.{phase}.peak_mb"] = mem_mb.get(phase, 0.0)
    m["trace.overhead_frac"] = primary[1] / primary[0] - 1.0 if primary else 0.0
    phases = ("train.fit", "train.evaluate", "autograd.gradcheck")
    m["trace.unattributed_frac"] = ratio(own(*phases), sum(map(total, phases)))
    return m


# -- process -------------------------------------------------------------------------


def cap_address_space() -> int:
    """Cap this process's address space below the memory free for it.

    An overrun then raises MemoryError inside the workload, where it is
    counted, instead of waking the kernel's OOM killer. Returns the cap in bytes.
    """
    free = []
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                free.append(int(line.split()[1]) * 1024)
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = int(Path("/sys/fs/cgroup/memory.current").read_text())
        if limit != "max":
            free.append(int(limit) - used)
    except (OSError, ValueError):
        pass
    with open("/proc/self/status") as fh:
        mapped = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
    cap = mapped + int(0.85 * min(free))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
             "python": platform.python_version(),
             "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    return facts


def sgemm_gflops() -> float:
    """Best of 5 single-precision SGEMM_N x SGEMM_N GEMMs in this process, in GFLOP/s."""
    n = SGEMM_N
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True, help="scratch directory, emptied by the caller")
    args = ap.parse_args(argv)

    cap = cap_address_space()
    facts = machine_facts()
    facts["address_space_cap_mb"] = round(cap / 1e6)
    run = Run(args.seed, args.seconds, bool(args.trace), Path(args.workdir))
    WORKLOADS[args.workload](run)
    result = {"attempted": run.ledger.attempted, "failed": run.ledger.failed,
              "checks": run.ledger.checks, "errors": run.ledger.errors, "facts": facts}
    if run.trace:
        spans = run.tracer.spans
        path = Path(args.workdir).parent / f"{args.workload}-spans.csv"
        tracing.write_spans(path, spans)
        result["spans_file"] = str(path)
        result["metrics"] = layer_metrics(spans, run.tracer.counts, run.mem_mb, run.primary,
                                          sgemm_gflops())
        result["breakdown"] = {root: root_breakdown(spans, root)
                               for root in ("train.fit", "train.evaluate", "autograd.gradcheck")}
    else:
        result["samples"] = run.samples
        result["metrics"] = dict(run.metrics, peak_rss_mb=(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
