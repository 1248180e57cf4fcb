"""Optimizer exactness, fit semantics, checkpoints, determinism."""

import weakref

import numpy as np
import pytest

from propmod import (CheckpointError, NetworkConfig, NumericalFailure, TrainConfig,
                     aggregate_runs, build_network, evaluate, fit, make_synthetic,
                     nesterov_step)
from propmod.autograd import Tape
from propmod.checkpoint import (load_tensors, load_training_state, save_tensors,
                                save_training_state)
from propmod.train import SGD


def scalar_nesterov_simulator(grads, lr, momentum, wd, w0=1.0):
    """Independent reference for the update recurrence, scalars only."""
    w, v = w0, 0.0
    for grad in grads:
        g = grad + wd * w
        v = momentum * v - lr * g
        w = w + momentum * v - lr * g
    return w, v


class TestNesterovStep:
    def test_zero_grad_zero_velocity_is_noop(self):
        w = np.array([1.0, -2.0])
        new_w, new_v = nesterov_step(w, np.zeros(2), np.zeros(2), 0.1, 0.9)
        np.testing.assert_array_equal(new_w, w)
        np.testing.assert_array_equal(new_v, np.zeros(2))

    def test_two_step_hand_trace(self):
        # w: 1 -> 0.81 -> 0.539 with grad 1, lr 0.1, momentum 0.9, wd 0
        sim_w1, sim_v1 = scalar_nesterov_simulator([1.0], 0.1, 0.9, 0.0)
        sim_w2, sim_v2 = scalar_nesterov_simulator([1.0, 1.0], 0.1, 0.9, 0.0)
        assert abs(sim_w1 - 0.81) < 1e-15 and abs(sim_v1 - (-0.1)) < 1e-15
        assert abs(sim_w2 - 0.539) < 1e-15 and abs(sim_v2 - (-0.19)) < 1e-15

        w, v = np.array([1.0]), np.array([0.0])
        w, v = nesterov_step(w, np.array([1.0]), v, 0.1, 0.9)
        assert abs(w[0] - 0.81) < 1e-12 and abs(v[0] + 0.1) < 1e-12
        w, v = nesterov_step(w, np.array([1.0]), v, 0.1, 0.9)
        assert abs(w[0] - 0.539) < 1e-12 and abs(v[0] + 0.19) < 1e-12

    def test_matches_simulator_with_decay(self):
        grads = [0.3, -1.2, 0.7, 0.05]
        w, v = np.array([1.0]), np.array([0.0])
        for g in grads:
            w, v = nesterov_step(w, np.array([g]), v, 0.05, 0.8, weight_decay=0.01)
        # the simulator applies decay to the pre-step parameter, as the step does
        w_ref, v_ref = 1.0, 0.0
        for g in grads:
            gd = g + 0.01 * w_ref
            v_ref = 0.8 * v_ref - 0.05 * gd
            w_ref = w_ref + 0.8 * v_ref - 0.05 * gd
        assert abs(w[0] - w_ref) < 1e-14

    def test_zero_momentum_is_vanilla_sgd(self):
        w = np.array([2.0])
        new_w, _ = nesterov_step(w, np.array([0.5]), np.array([0.0]), 0.1, 0.0)
        assert abs(new_w[0] - (2.0 - 0.1 * 0.5)) < 1e-15

    def test_plain_momentum_form(self):
        w, v = np.array([1.0]), np.array([0.0])
        w, v = nesterov_step(w, np.array([1.0]), v, 0.1, 0.9, nesterov=False)
        assert abs(w[0] - 0.9) < 1e-15 and abs(v[0] + 0.1) < 1e-15

    def test_non_finite_gradient_aborts(self):
        with pytest.raises(NumericalFailure):
            nesterov_step(np.array([1.0]), np.array([np.nan]), np.array([0.0]), 0.1, 0.9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nesterov_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_milestones=(0.75, 0.5))
        with pytest.raises(ValueError):
            TrainConfig(lr_milestones=(0.0, 0.5))

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_epochs_below_one_rejected(self, epochs):
        with pytest.raises(ValueError, match=f"epochs must be >= 1, got {epochs}"):
            TrainConfig(epochs=epochs)

    def test_lr_schedule_exact(self):
        cfg = TrainConfig(epochs=100, base_lr=0.4, lr_milestones=(0.5, 0.75), lr_decay=0.1)
        assert cfg.lr_at(0) == 0.4
        assert cfg.lr_at(49) == 0.4
        assert cfg.lr_at(50) == 0.4 * 0.1
        assert cfg.lr_at(75) == 0.4 * 0.1 * 0.1
        assert cfg.lr_at(99) == cfg.base_lr * cfg.lr_decay ** len(cfg.lr_milestones)

    def test_hash_stable(self):
        assert TrainConfig(seed=1).hash() == TrainConfig(seed=1).hash()
        assert TrainConfig(seed=1).hash() != TrainConfig(seed=2).hash()


def tiny_model(seed=0, precision="single"):
    cfg = NetworkConfig(family="plain", stage_blocks=(1, 1, 1), stage_widths=(4, 4, 8),
                        seed=seed, precision=precision)
    return build_network(cfg)


def tiny_data(count=32, seed=0):
    return make_synthetic(10, count, seed=seed)


class TestFit:
    def test_one_epoch_one_batch_is_one_step(self, monkeypatch):
        calls = []
        original = SGD.step

        def counting_step(self, lr):
            calls.append(lr)
            return original(self, lr)

        monkeypatch.setattr(SGD, "step", counting_step)
        model = tiny_model()
        data = tiny_data(64)
        cfg = TrainConfig(epochs=1, batch_size=64, seed=0, augment=False)
        fit(model, data, None, cfg)
        assert len(calls) == 1

    def test_fit_step_equals_manual_update(self):
        # one batch through fit == forward/backward/step done by hand (double)
        data = tiny_data(8)
        cfg = TrainConfig(epochs=1, batch_size=8, base_lr=0.1, momentum=0.9,
                          weight_decay=1e-4, seed=3, augment=False)

        manual = tiny_model(seed=7, precision="double")
        from propmod.data import epoch_order
        order = epoch_order(data, cfg.seed, 0)
        images = data.images[order].astype(np.float64)
        labels = data.labels[order]
        loss, _, tape = manual.loss(images, labels, training=True)
        manual.store.zero_grads()
        tape.backward(loss)
        tape.commit_updates()
        expected = {}
        for name, p in manual.store.trainable_items():
            expected[name], _ = nesterov_step(p.value.data, p.grad,
                                              np.zeros_like(p.grad), cfg.base_lr,
                                              cfg.momentum, cfg.weight_decay)

        trained = tiny_model(seed=7, precision="double")
        fit(trained, data, None, cfg)
        for name, arr in expected.items():
            np.testing.assert_allclose(trained.store[name].value.data, arr,
                                       rtol=1e-10, atol=1e-10)

    def test_class_count_mismatch(self):
        model = tiny_model()
        bad = make_synthetic(10, 16, seed=0)
        object.__setattr__(bad, "num_classes", 100) if False else None
        bad.num_classes = 100
        cfg = TrainConfig(epochs=1, batch_size=16)
        with pytest.raises(ValueError):
            fit(model, bad, None, cfg)

    def test_nan_loss_aborts(self):
        model = tiny_model()
        model.store.set_value("head.fc.weight",
                              np.full(model.store["head.fc.weight"].value.shape, np.nan,
                                      dtype=np.float32))
        cfg = TrainConfig(epochs=1, batch_size=16, augment=False)
        with pytest.raises(NumericalFailure):
            fit(model, tiny_data(16), None, cfg)

    def test_previous_step_graph_released(self):
        # the tape of step k is gone by the time step k + 1 starts its forward
        model = tiny_model()
        loss, tapes, alive = model.loss, [], []

        def tracking(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in tapes))
            out = loss(*args, **kwargs)
            tapes.append(weakref.ref(out[2]))
            return out

        model.loss = tracking
        fit(model, tiny_data(48), None, TrainConfig(epochs=1, batch_size=16, augment=False))
        assert alive == [0, 0, 0]

    def test_curves_csv_schema(self, tmp_path):
        model = tiny_model()
        cfg = TrainConfig(epochs=2, batch_size=16, seed=0, augment=False)
        record = fit(model, tiny_data(16), tiny_data(16, seed=1), cfg, out_dir=tmp_path)
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(lines) == 3
        assert 0.0 <= record.epochs[0].train_acc <= 1.0


class TestEvaluate:
    def test_perfect_logits(self):
        model = tiny_model()
        data = tiny_data(32)

        class Oracle:
            cfg = model.cfg

            def forward(self, x, training=False):
                idx = [np.where((data.images == xi).all(axis=(1, 2, 3)))[0][0] for xi in x]
                logits = np.full((len(x), 10), -10.0, dtype=np.float32)
                for row, i in enumerate(idx):
                    logits[row, data.labels[i]] = 10.0
                tape = Tape(None, training=False)
                from propmod.tensor import Tensor
                return tape.constant(Tensor(logits)), tape

        assert evaluate(Oracle(), data) == 1.0

    def test_uniform_logits_tie_break(self):
        # balanced 10-class set, all-zero logits: argmax -> class 0 -> accuracy 0.1
        data = tiny_data(100)

        class Uniform:
            def forward(self, x, training=False):
                from propmod.tensor import Tensor
                tape = Tape(None, training=False)
                return tape.constant(Tensor(np.zeros((len(x), 10), dtype=np.float32))), tape

        assert evaluate(Uniform(), data) == pytest.approx(0.1)


class TestCheckpoints:
    def test_tensor_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
            "b.count": np.asarray(7, dtype=np.int64),
            "c.stat": rng.standard_normal(5),
        }
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_tensors(p1, tensors)
        save_tensors(p2, load_tensors(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_tensors(p)

    def test_crc_detects_corruption(self, tmp_path):
        p = tmp_path / "x.bin"
        save_tensors(p, {"w": np.ones(4, dtype=np.float32)})
        raw = bytearray(p.read_bytes())
        raw[20] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as err:
            load_tensors(p)
        assert "CRC32" in str(err.value)

    def test_wrong_model_shape_names_tensor(self, tmp_path):
        model8 = tiny_model()
        p = tmp_path / "m.bin"
        save_training_state(p, model8, {}, epoch=0, seed=0)
        bigger = build_network(NetworkConfig(family="plain", stage_blocks=(2, 2, 2),
                                             stage_widths=(4, 4, 8), seed=0))
        with pytest.raises(CheckpointError) as err:
            load_training_state(p, bigger)
        assert "stage" in str(err.value) or "missing" in str(err.value)

    def test_save_load_accuracy_identical(self, tmp_path):
        model = tiny_model(seed=2)
        data = tiny_data(32)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=0, augment=False)
        fit(model, data, data, cfg, out_dir=tmp_path)
        acc_before = evaluate(model, data)
        clone = tiny_model(seed=2)
        load_training_state(tmp_path / "ckpt-final.bin", clone)
        assert evaluate(clone, data) == acc_before


class TestDeterminism:
    def test_same_seed_byte_identical_artifacts(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            model = tiny_model(seed=4)
            cfg = TrainConfig(epochs=2, batch_size=16, seed=5)
            fit(model, tiny_data(32), tiny_data(16, seed=9), cfg, out_dir=tmp_path / run)
            outs.append(tmp_path / run)
        assert (outs[0] / "ckpt-final.bin").read_bytes() == (outs[1] / "ckpt-final.bin").read_bytes()
        assert (outs[0] / "curves.csv").read_bytes() == (outs[1] / "curves.csv").read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        data, test = tiny_data(32), tiny_data(16, seed=9)

        model = tiny_model(seed=4)
        fit(model, data, test, TrainConfig(epochs=4, batch_size=16, seed=5),
            out_dir=tmp_path / "full")

        part = tiny_model(seed=4)
        fit(part, data, test, TrainConfig(epochs=4, batch_size=16, seed=5),
            out_dir=tmp_path / "part", stop_after=2)
        resumed = tiny_model(seed=4)
        fit(resumed, data, test, TrainConfig(epochs=4, batch_size=16, seed=5),
            out_dir=tmp_path / "resumed", resume_from=tmp_path / "part" / "ckpt-final.bin")

        full = (tmp_path / "full" / "ckpt-final.bin").read_bytes()
        res = (tmp_path / "resumed" / "ckpt-final.bin").read_bytes()
        assert full == res

    def test_resume_in_place_byte_identical(self, tmp_path):
        data, test = tiny_data(32), tiny_data(16, seed=9)
        cfg = TrainConfig(epochs=4, batch_size=16, seed=5)
        fit(tiny_model(seed=4), data, test, cfg, out_dir=tmp_path / "full")
        fit(tiny_model(seed=4), data, test, cfg, out_dir=tmp_path / "part", stop_after=2)
        record = fit(tiny_model(seed=4), data, test, cfg, out_dir=tmp_path / "part",
                     resume_from=tmp_path / "part" / "ckpt-final.bin")
        assert [e.epoch for e in record.epochs] == [0, 1, 2, 3]
        for name in ("ckpt-final.bin", "ckpt-best.bin", "curves.csv"):
            assert ((tmp_path / "part" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes()), name

    def test_resume_rejects_other_seed(self, tmp_path):
        data = tiny_data(16)
        fit(tiny_model(), data, None, TrainConfig(epochs=2, batch_size=16, seed=5),
            out_dir=tmp_path, stop_after=1)
        with pytest.raises(ValueError) as err:
            fit(tiny_model(), data, None, TrainConfig(epochs=2, batch_size=16, seed=6),
                resume_from=tmp_path / "ckpt-final.bin")
        assert "seed 5" in str(err.value) and "seed 6" in str(err.value)


class TestAggregation:
    def test_mean_std_recomputation(self):
        finals = [0.61, 0.64, 0.59]
        mean, std = aggregate_runs(finals)
        assert mean == pytest.approx(np.mean(finals))
        assert std == pytest.approx(np.std(finals))

    def test_single_run_zero_std(self):
        assert aggregate_runs([0.5])[1] == 0.0
