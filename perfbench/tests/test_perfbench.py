"""The benchmark's own tests: python3 -m pytest perfbench/tests (from the repository root)."""

import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import tracing
import workload
from propmod import data, kernels, networks, train
from propmod.networks import NetworkConfig
from propmod.train import TrainConfig

REPO = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 5.0, 9.0, 0], ["c", 6.0, 8.0, 2]]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    rows = tracing.totals(spans + [["a", 11.0, 12.0, -1]])
    assert rows["a"] == {"self": 4.0, "total": 4.0, "calls": 2}
    assert workload.root_breakdown(spans, "root") == {"root": 3.0, "a": 3.0, "b": 2.0, "c": 2.0}


def test_nan_input_is_a_counted_failed_op(tmp_path):
    model = networks.build_network(NetworkConfig(family="plain", depth=8, ratio="1:1"))
    images = np.full((4, 3, 8, 8), np.nan, dtype=np.float32)
    handle = data.DatasetHandle("synthetic", "train", images, np.arange(4) % 10, 10,
                                np.zeros(3, np.float32), np.ones(3, np.float32))
    run = workload.Run(seed=0, seconds=1, trace=False, workdir=tmp_path)
    with np.errstate(all="ignore"):
        run.measure([run.train_phase(model, handle, TrainConfig(epochs=1, batch_size=2,
                                                                augment=False), 1.0, 3)])
    assert run.ledger.failed == 1 and run.ledger.attempted == 1
    assert "NumericalFailure" in run.ledger.errors[0]
    assert "train_img_per_s" not in run.metrics


def test_failed_check_is_a_failed_op():
    ledger = workload.Ledger()
    assert ledger.check("ok", True) and not ledger.check("bad", False, "detail")
    assert (ledger.attempted, ledger.failed, ledger.checks) == (2, 1, {"ok": True, "bad": False})


def test_inputs_are_a_pure_function_of_the_seed(tmp_path):
    a = inputs.write_cifar10(tmp_path / "a", seed=3, per_file=20)
    b = inputs.write_cifar10(tmp_path / "b", seed=3, per_file=20)
    c = inputs.write_cifar10(tmp_path / "c", seed=4, per_file=20)
    for name in inputs.CIFAR10_TRAIN_FILES + [inputs.CIFAR10_TEST_FILE]:
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()
        assert len((a / name).read_bytes()) == 20 * inputs.CIFAR10_RECORD
    assert len(data.load_cifar(a, "cifar10", "train")) == 100
    x1, y1 = inputs.normal_batch(3, "oracle")
    x2, y2 = inputs.normal_batch(3, "oracle")
    assert x1.tobytes() == x2.tobytes() and y1.tobytes() == y2.tobytes()
    assert x1.shape == (2, 3, 8, 8) and x1.dtype == np.float64


def test_tracing_records_layers_and_uninstalls():
    model = networks.build_network(NetworkConfig(family="plain", depth=8, ratio="1:1"))
    x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
    originals = (kernels.im2col, train.iter_batches, networks.softmax_cross_entropy)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        loss, _, tape = model.loss(x, np.array([1, 2]))
        tape.backward(loss)
    finally:
        undo()
    assert (kernels.im2col, train.iter_batches, networks.softmax_cross_entropy) == originals
    names = {s[0] for s in tracer.spans}
    assert {"networks.forward_on", "kernels.im2col", "kernels.col2im", "autograd.backward",
            "autograd.grad.conv2d", "layers.batchnorm_train_backward"} <= names
    assert all(t >= 0 for t in tracing.self_times(tracer.spans))
    assert tracer.counts["networks.stage1.fwd_s"] > 0 and tracer.counts["networks.stage1.bwd_s"] > 0


def test_benchmark_json_names_only_metrics_the_harness_emits():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    emitted = workload.layer_metrics([], tracing.Tracer().counts, {}, None, 1.0)
    assert {m["name"] for m in spec["per_layer"]} <= set(emitted)
    assert {w["name"] for w in spec["workloads"]} == set(workload.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "train_img_per_s", "eval_img_per_s", "gradcheck_s", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("argv", [["--workload", "nope", "--seed", "1", "--seconds", "1"]])
def test_run_rejects_unknown_workload(argv):
    import run
    with pytest.raises(SystemExit):
        run.main(argv)
