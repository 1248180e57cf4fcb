"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines. The directional probe runs at a reduced desk scale by default;
set PROPMOD_FULL_PROBE=1 (with real CIFAR-10 under PRPT_DATA_DIR) for the
full-scale version, which takes hours on one CPU.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from propmod import (ConvParams, DataError, NetworkConfig, Tensor, TrainConfig,
                     audit, build_network, collapse_check, fit, gradcheck,
                     load_cifar, make_synthetic, nesterov_step)
from propmod.autograd import seeded_rng
from propmod.cli import main as cli_main
from propmod.data import DATA_DIR_ENV
from propmod.kernels import conv2d, conv2d_naive
from propmod.layers import BatchNormState

from archives import write_cifar10_archives


def report(name):
    print(f"\n[acceptance] {name}: PASS")


@pytest.fixture(scope="session")
def cifar10_fullsize(tmp_path_factory):
    """Real archives when present under PRPT_DATA_DIR, else generated
    archives with the exact binary layout and record counts."""
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        try:
            handle = load_cifar(env, "cifar10", "test")
            if len(handle) == 10000:
                return Path(env), "real"
        except DataError:
            pass
    root = tmp_path_factory.mktemp("cifar10-full")
    write_cifar10_archives(root, train_per_file=10000, test_count=10000, seed=0)
    return root, "generated"


class TestAcceptance:
    def test_gradient_oracle(self):
        """Gradcheck < 1e-6 on small instances of all families and removals."""
        t0 = time.perf_counter()
        variants = [
            ("plain", 8, dict(ratio="1:1")),
            ("plain", 8, dict(ratio="2:1")),
            ("resnet-preact", 8, dict(removal="first")),
            ("resnet-preact", 8, dict(removal="second")),
            ("resnet-preact-bottleneck", 11, dict(removal="1")),
            ("resnet-preact-bottleneck", 11, dict(removal="2")),
            ("resnet-preact-bottleneck", 11, dict(removal="3")),
            ("dfn-mr1", 8, dict(removal="type1")),
            ("dfn-mr1", 8, dict(removal="type2")),
        ]
        worst = 0.0
        for family, depth, kw in variants:
            cfg = NetworkConfig(family=family, depth=depth, precision="double", seed=1, **kw)
            model = build_network(cfg)
            rng = seeded_rng(0, "acc-gradcheck", family)
            x = rng.standard_normal((2, 3, 8, 8))
            labels = rng.integers(0, 10, size=2)
            result = gradcheck(model.loss_builder(x, labels), model.store, eps=1e-5, seed=0)
            assert result.max_rel_err < 1e-6, (family, depth, kw, result.max_rel_err)
            worst = max(worst, result.max_rel_err)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120, f"gradient oracle took {elapsed:.0f}s (budget 120s)"
        report(f"gradient oracle (max rel err {worst:.2e}, {elapsed:.0f}s; "
               f"bottleneck uses depth 11, its smallest valid)")

    def test_convolution_oracle(self):
        """im2col conv vs naive loop: 200 random shapes <= 2x4x8x8, 1e-12 rel."""
        rng = np.random.default_rng(20240)
        checked = 0
        worst = 0.0
        while checked < 200:
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 5))
            o = int(rng.integers(1, 5))
            h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            if h + 2 * pad < k or w + 2 * pad < k:
                continue
            x = rng.standard_normal((n, c, h, w))
            kern = rng.standard_normal((o, c, k, k))
            fast = conv2d(x, kern, stride, pad)
            slow = conv2d_naive(x, kern, stride, pad)
            rel = np.abs(fast - slow).max() / max(np.abs(slow).max(), 1e-30)
            assert rel < 1e-12, (x.shape, kern.shape, stride, pad, rel)
            worst = max(worst, rel)
            checked += 1
        report(f"convolution oracle (200 shapes, worst rel {worst:.2e})")

    def test_collapse_oracle(self):
        """Affine stacks match the composed conv to 1e-10; ReLU breaks it >= 1e-3."""
        rng = seeded_rng(0, "acc-collapse")
        a = ConvParams(Tensor(rng.standard_normal((3, 2, 3, 3))), stride=1, padding=1)
        b = ConvParams(Tensor(rng.standard_normal((4, 3, 3, 3))), stride=1, padding=1)
        plain = collapse_check(a, b, interior=None, probes=10)
        assert plain.max_deviation < 1e-10
        state = BatchNormState(gamma=rng.standard_normal(3) + 2.0,
                               beta=rng.standard_normal(3),
                               running_mean=rng.standard_normal(3),
                               running_var=np.abs(rng.standard_normal(3)) + 0.3)
        affine = collapse_check(a, b, interior=state, probes=10)
        assert affine.max_deviation < 1e-10
        nonlinear = collapse_check(a, b, interior="relu", probes=10)
        assert nonlinear.max_deviation >= 1e-3
        assert not nonlinear.collapsible
        report(f"collapse oracle (affine {max(plain.max_deviation, affine.max_deviation):.2e}, "
               f"relu {nonlinear.max_deviation:.2e})")

    def test_cost_claim(self):
        """Params and conv FLOPs bit-equal across removals; ReLU FLOPs drop."""
        t0 = time.perf_counter()
        groups = {
            ("plain", 38): [dict(ratio="1:1"), dict(ratio="2:1")],
            ("plain", 62): [dict(ratio="1:1"), dict(ratio="2:1")],
            ("resnet-preact", 62): [dict(removal=r) for r in ("none", "first", "second")],
            ("resnet-preact-bottleneck", 110): [dict(removal=str(k)) for k in range(4)],
        }
        for (family, depth), variants in groups.items():
            reports = [audit(build_network(NetworkConfig(family=family, depth=depth,
                                                         seed=0, **kw)),
                             input_shape=(1, 3, 32, 32)) for kw in variants]
            base = reports[0]
            for r in reports[1:]:
                assert r.param_count == base.param_count, (family, depth)
                assert r.flops_conv == base.flops_conv, (family, depth)
                assert r.flops_relu < base.flops_relu, (family, depth)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10, f"cost-claim audit took {elapsed:.1f}s (budget 10s)"
        report(f"cost claim (plain-38/62, resnet-preact-62, bottleneck-110; {elapsed:.1f}s)")

    def test_ratio_accounting(self):
        """Trunk ratios: exactly 2:1 plain proportional, 3:2 bottleneck removals."""
        for depth in (38, 62):
            r = audit(build_network(NetworkConfig(family="plain", depth=depth,
                                                  ratio="2:1", seed=0)))
            assert r.ratio == (2, 1), (depth, r.ratio)
        for removal in ("1", "2", "3"):
            r = audit(build_network(NetworkConfig(family="resnet-preact-bottleneck",
                                                  depth=29, removal=removal, seed=0)))
            assert r.ratio == (3, 2), (removal, r.ratio)
        report("ratio accounting (2:1 plain trunks, 3:2 bottleneck removals)")

    def test_loader_exactness(self, cifar10_fullsize):
        """50,000/10,000 samples, labels in range; corruption rejected with offset."""
        root, kind = cifar10_fullsize
        train = load_cifar(root, "cifar10", "train")
        test = load_cifar(root, "cifar10", "test")
        assert len(train) == 50000 and len(test) == 10000
        for handle in (train, test):
            assert handle.labels.min() >= 0 and handle.labels.max() <= 9
        # corruption check runs on a copy with the exact layout
        corrupt_root = root.parent / "corrupt" if kind == "generated" else None
        if corrupt_root is None:
            corrupt_root = Path(str(root) + "-corrupt")
        write_cifar10_archives(corrupt_root, train_per_file=5, test_count=5, seed=1)
        victim = corrupt_root / "data_batch_2.bin"
        victim.write_bytes(victim.read_bytes()[:-100])
        with pytest.raises(DataError) as err:
            load_cifar(corrupt_root, "cifar10", "train")
        assert str(4 * 3073) in str(err.value)
        report(f"loader exactness ({kind} archives, 50000/10000 records)")

    def test_optimizer_exactness(self):
        """Two-step Nesterov hand trace w: 1 -> 0.81 -> 0.539 to 1e-12."""
        w, v = np.array([1.0]), np.array([0.0])
        w, v = nesterov_step(w, np.array([1.0]), v, lr=0.1, momentum=0.9)
        assert abs(w[0] - 0.81) < 1e-12 and abs(v[0] - (-0.1)) < 1e-12
        w, v = nesterov_step(w, np.array([1.0]), v, lr=0.1, momentum=0.9)
        assert abs(w[0] - 0.539) < 1e-12 and abs(v[0] - (-0.19)) < 1e-12
        report("optimizer exactness (1 -> 0.81 -> 0.539)")

    def test_determinism(self, tmp_path):
        """Same seed: byte-identical artifacts; resume == uninterrupted."""
        data = make_synthetic(10, 64, seed=0)
        test = make_synthetic(10, 32, seed=1)

        def run(out, stop_after=None, resume_from=None, seed_model=2):
            model = build_network(NetworkConfig(family="plain", depth=8,
                                                stage_widths=(8, 8, 16), seed=seed_model))
            cfg = TrainConfig(epochs=3, batch_size=32, seed=7)
            fit(model, data, test, cfg, out_dir=out, stop_after=stop_after,
                resume_from=resume_from)
            return out

        a = run(tmp_path / "a")
        b = run(tmp_path / "b")
        assert (a / "ckpt-final.bin").read_bytes() == (b / "ckpt-final.bin").read_bytes()
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()

        part = run(tmp_path / "part", stop_after=1)
        resumed = run(tmp_path / "resumed", resume_from=part / "ckpt-final.bin")
        assert (resumed / "ckpt-final.bin").read_bytes() == (a / "ckpt-final.bin").read_bytes()
        # resumed in its own directory, the interrupted run ends as the uninterrupted one
        run(part, resume_from=part / "ckpt-final.bin")
        for name in ("ckpt-final.bin", "ckpt-best.bin", "curves.csv"):
            assert (part / name).read_bytes() == (a / name).read_bytes(), name
        report("determinism (byte-identical artifacts; resume == uninterrupted)")

    def test_overfit_sanity(self):
        """Depth-8 plain, paired and 2:1: 100% train acc on 100 synthetic samples
        within 50 epochs; loss falls >= 90% from the first epoch."""
        t0 = time.perf_counter()
        data = make_synthetic(10, 100, seed=0)
        for ratio in ("1:1", "2:1"):
            model = build_network(NetworkConfig(family="plain", depth=8, ratio=ratio, seed=0))
            cfg = TrainConfig(epochs=50, batch_size=25, seed=0, augment=False)
            # the bound is "within 50 epochs"; both conditions hold long before,
            # so the schedule is interrupted once they are provable
            record = fit(model, data, None, cfg, stop_after=12)
            accs = [e.train_acc for e in record.epochs]
            assert max(accs) == 1.0, f"ratio {ratio}: never reached 100% ({max(accs)})"
            drop = 1 - record.epochs[-1].train_loss / record.epochs[0].train_loss
            assert drop >= 0.90, f"ratio {ratio}: loss fell only {drop:.2%}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"overfit sanity took {elapsed:.0f}s (budget 60s)"
        report(f"overfit sanity (both variants 100% train acc; {elapsed:.0f}s)")

    def test_directional_probe(self, tmp_path, capsys):
        """Paired vs 2:1 sweep completes, reports mean +/- std, flags a winner.

        Informational and non-gating on the accuracy ordering. Full scale
        (plain-38, 5000-sample CIFAR-10, 30 epochs, 3 seeds) behind
        PROPMOD_FULL_PROBE=1; the default run is the same machinery desk-scaled.
        """
        full = os.environ.get("PROPMOD_FULL_PROBE") == "1"
        spec_path = tmp_path / "probe.json"
        if full:
            spec = {
                "dataset": "cifar10", "subset": 5000, "epochs": 30,
                "batch_size": 64, "repeats": 3,
                "cells": [
                    {"name": "paired-38", "arch": "plain", "depth": 38, "module": "paired"},
                    {"name": "prop21-38", "arch": "plain", "depth": 38,
                     "module": "proportional", "ratio": "2:1"},
                ],
            }
        else:
            spec = {
                "dataset": "synthetic", "synthetic_count": 60, "epochs": 2,
                "batch_size": 30, "no_augment": True, "repeats": 3,
                "cells": [
                    {"name": "paired-8", "arch": "plain", "depth": 8, "module": "paired"},
                    {"name": "prop21-8", "arch": "plain", "depth": 8,
                     "module": "proportional", "ratio": "2:1"},
                ],
            }
        import json
        spec_path.write_text(json.dumps(spec))
        code = cli_main(["sweep", str(spec_path), "--out", str(tmp_path / "probe-out")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = (tmp_path / "probe-out" / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # header + both cells completed
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == "3"
            float(fields[5]), float(fields[6])  # mean and std parse
        assert "winner:" in captured.out
        scale = "full scale" if full else "reduced desk scale (set PROPMOD_FULL_PROBE=1)"
        report(f"directional probe, informational ({scale}; "
               f"{captured.out.splitlines()[-1].strip()})")
