"""Batch norm, loss, and initialization behavior."""

import numpy as np
import pytest

from propmod import ParamStore, Tensor
from propmod.autograd import Tape, seeded_rng
from propmod.layers import (BatchNorm2d, BatchNormState, Conv2d, Linear, batchnorm_train,
                            batchnorm_train_backward, he_normal, softmax_cross_entropy)


def bn_fixture(channels=3, precision="double"):
    store = ParamStore(precision)
    bn = BatchNorm2d(store, "bn", channels)
    return store, bn


class TestBatchNorm:
    def test_constant_input_gives_zeros(self):
        store, bn = bn_fixture()
        x = Tensor(np.full((4, 3, 5, 5), 2.5))
        tape = Tape(store, training=True)
        out = bn(tape, tape.constant(x))
        np.testing.assert_allclose(out.value.data, 0.0, atol=1e-12)

    def test_gamma_zero_gives_beta(self):
        store, bn = bn_fixture()
        store.set_value("bn.gamma", np.zeros(3))
        store.set_value("bn.beta", np.array([1.0, -2.0, 0.5]))
        x = Tensor(seeded_rng(0, "bn").standard_normal((2, 3, 4, 4)))
        tape = Tape(store, training=True)
        out = bn(tape, tape.constant(x)).value.data
        for c, expect in enumerate([1.0, -2.0, 0.5]):
            np.testing.assert_allclose(out[:, c], expect, atol=1e-12)

    def test_train_statistics(self):
        store, bn = bn_fixture()
        x = Tensor(seeded_rng(1, "bn").standard_normal((8, 3, 6, 6)) * 3 + 1)
        tape = Tape(store, training=True)
        out = bn(tape, tape.constant(x)).value.data
        for c in range(3):
            assert abs(out[:, c].mean()) < 1e-6
            assert abs(out[:, c].var() - 1.0) < 1e-4

    def test_eval_mode_is_affine(self):
        # f(x1) - f(x2) == A * (x1 - x2) with A the per-channel scale
        store, bn = bn_fixture()
        rng = seeded_rng(2, "bn")
        store.set_value("bn.running_mean", rng.standard_normal(3))
        store.set_value("bn.running_var", np.abs(rng.standard_normal(3)) + 0.5)
        store.set_value("bn.gamma", rng.standard_normal(3))
        store.set_value("bn.beta", rng.standard_normal(3))
        x1 = rng.standard_normal((2, 3, 4, 4))
        x2 = rng.standard_normal((2, 3, 4, 4))
        outs = []
        for x in (x1, x2):
            tape = Tape(store, training=False)
            outs.append(bn(tape, tape.constant(Tensor(x))).value.data)
        scale, _ = bn.state().eval_affine()
        np.testing.assert_allclose(outs[0] - outs[1], (x1 - x2) * scale[None, :, None, None],
                                   rtol=1e-10, atol=1e-12)

    def test_single_slot_batch_rejected(self):
        store, bn = bn_fixture()
        tape = Tape(store, training=True)
        x = tape.constant(Tensor(np.ones((1, 3, 1, 1))))
        with pytest.raises(ValueError):
            bn(tape, x)

    def test_running_stats_update_only_on_commit(self):
        store, bn = bn_fixture()
        x = Tensor(seeded_rng(3, "bn").standard_normal((4, 3, 4, 4)) + 2.0)
        tape = Tape(store, training=True)
        bn(tape, tape.constant(x))
        np.testing.assert_array_equal(store["bn.running_mean"].value.data, np.zeros(3))
        tape.commit_updates()
        rm = store["bn.running_mean"].value.data
        assert np.all(rm != 0)
        # momentum 0.9 on the old value, 0.1 on the batch mean
        np.testing.assert_allclose(rm, 0.1 * x.data.mean(axis=(0, 2, 3)), rtol=1e-12)

    def test_eval_mode_ignores_batch(self):
        store, bn = bn_fixture()
        x = Tensor(seeded_rng(4, "bn").standard_normal((4, 3, 4, 4)) + 7.0)
        tape = Tape(store, training=False)
        bn(tape, tape.constant(x))
        assert not tape.staged_updates

    def test_state_invariants(self):
        with pytest.raises(ValueError):
            BatchNormState(gamma=np.ones(3), beta=np.zeros(3),
                           running_mean=np.zeros(3), running_var=-np.ones(3))


def textbook_batchnorm(x, gamma, beta, grad, eps):
    """Ioffe & Szegedy (2015), Algorithm 1 and its chain rule, term by term."""
    axes = (0, 2, 3)
    m = x.shape[0] * x.shape[2] * x.shape[3]

    def per_channel(v):
        return v[None, :, None, None]

    mu = x.sum(axis=axes) / m
    var = ((x - per_channel(mu)) ** 2).sum(axis=axes) / m
    std = np.sqrt(var + eps)
    xhat = (x - per_channel(mu)) / per_channel(std)
    y = per_channel(gamma) * xhat + per_channel(beta)
    dxhat = grad * per_channel(gamma)
    dvar = (dxhat * (x - per_channel(mu))).sum(axis=axes) * -0.5 * std ** -3
    dmu = -dxhat.sum(axis=axes) / std + dvar * (-2 * (x - per_channel(mu))).sum(axis=axes) / m
    dx = (dxhat / per_channel(std) + per_channel(dvar) * 2 * (x - per_channel(mu)) / m
          + per_channel(dmu) / m)
    return y, mu, var, dx, (grad * xhat).sum(axis=axes), grad.sum(axis=axes)


def max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestBatchNormMath:
    """batchnorm_train and its backward against the textbook formulas."""

    def run(self, x, gamma, beta, grad):
        grad.setflags(write=False)  # add hands one array to both inputs: never write it
        y, cache, mean, var = batchnorm_train(x, gamma, beta, 1e-5)
        dx, dgamma, dbeta = batchnorm_train_backward(grad, cache, gamma)
        return y, mean, var, dx, dgamma, dbeta

    def test_double_matches_textbook_with_a_dead_channel(self):
        rng = seeded_rng(5, "bn-math")
        x = rng.standard_normal((4, 5, 6, 7)) * 3 + 1
        grad = rng.standard_normal(x.shape)
        gamma, beta = rng.standard_normal(5), rng.standard_normal(5)
        gamma[2] = 0.0
        got = self.run(x, gamma, beta, grad)
        want = textbook_batchnorm(x, gamma, beta, grad, 1e-5)
        for name, a, b in zip(("y", "mean", "var", "dx", "dgamma", "dbeta"), got, want):
            assert a.dtype == np.float64 and a.shape == b.shape, name
            assert max_rel(a, b) < 1e-13, name
        assert not got[3][:, 2].any()  # gamma = 0 passes no gradient to x
        np.testing.assert_array_equal(got[0][:, 2], beta[2])

    def test_single_matches_double_rebuild(self):
        # measured worst over five seeds: 5.2e-7 (dgamma); elsewhere <= 3e-7
        rng = seeded_rng(6, "bn-math")
        x = (rng.standard_normal((64, 16, 32, 32)) * 2 + 0.5).astype(np.float32)
        grad = rng.standard_normal(x.shape).astype(np.float32)
        gamma = rng.standard_normal(16).astype(np.float32)
        beta = rng.standard_normal(16).astype(np.float32)
        got = self.run(x, gamma, beta, grad)
        want = textbook_batchnorm(*(a.astype(np.float64) for a in (x, gamma, beta, grad)), 1e-5)
        for name, a, b in zip(("y", "mean", "var", "dx", "dgamma", "dbeta"), got, want):
            assert a.dtype == np.float32 and a.shape == b.shape, name
            assert max_rel(a, b) < 1e-6, name


class TestSoftmaxCrossEntropy:
    def run_loss(self, logits, labels):
        store = ParamStore("double")
        tape = Tape(store)
        node = tape.constant(Tensor(np.asarray(logits, dtype=np.float64)))
        return float(softmax_cross_entropy(tape, node, np.asarray(labels)).value.data)

    def test_uniform_logits(self):
        loss = self.run_loss(np.zeros((4, 10)), [0, 3, 5, 9])
        assert abs(loss - np.log(10)) < 1e-12

    def test_saturated_true_class(self):
        logits = np.zeros((2, 10))
        logits[0, 2] = 1000.0
        logits[1, 7] = 1000.0
        assert self.run_loss(logits, [2, 7]) < 1e-9

    def test_matches_unstabilized_oracle(self):
        rng = seeded_rng(0, "xent")
        logits = rng.standard_normal((4, 10)) * 3
        labels = rng.integers(0, 10, size=4)
        # naive double-precision formula, no max subtraction
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.log(probs[np.arange(4), labels]).mean()
        assert abs(self.run_loss(logits, labels) - expected) < 1e-10

    def test_constant_shift_invariance(self):
        rng = seeded_rng(1, "xent")
        logits = rng.standard_normal((4, 10))
        labels = rng.integers(0, 10, size=4)
        shifted = logits + rng.standard_normal((4, 1)) * 50
        assert abs(self.run_loss(logits, labels) - self.run_loss(shifted, labels)) < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            self.run_loss(np.zeros((2, 10)), [0, 10])

    def test_gradient_sums_to_zero_per_row(self):
        rng = seeded_rng(2, "xent")
        store = ParamStore("double")
        store.register("z", rng.standard_normal((3, 5)))
        tape = Tape(store)
        loss = softmax_cross_entropy(tape, tape.param("z"), np.array([0, 1, 4]))
        tape.backward(loss)
        np.testing.assert_allclose(store["z"].grad.sum(axis=1), 0.0, atol=1e-12)


class TestInit:
    def test_deterministic_per_seed_and_name(self):
        a = he_normal((8, 4, 3, 3), 36, seeded_rng(7, "conv.weight"), np.float32)
        b = he_normal((8, 4, 3, 3), 36, seeded_rng(7, "conv.weight"), np.float32)
        c = he_normal((8, 4, 3, 3), 36, seeded_rng(7, "other.weight"), np.float32)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_he_fan_in_scale(self):
        rng = seeded_rng(0, "he")
        w = he_normal((64, 32, 3, 3), 32 * 9, rng, np.float64)
        assert abs(w.std() - np.sqrt(2.0 / (32 * 9))) < 5e-3

    def test_layers_register_expected_parameters(self):
        store = ParamStore("single")
        Conv2d(store, "c", 3, 8, 3, seed=0)
        BatchNorm2d(store, "b", 8)
        Linear(store, "fc", 8, 10, seed=0)
        names = set(store.names())
        assert names == {"c.weight", "b.gamma", "b.beta", "b.running_mean",
                         "b.running_var", "fc.weight", "fc.bias"}
        assert store["b.running_mean"].trainable is False
        assert store.param_count() == 8 * 3 * 9 + 8 + 8 + 8 * 10 + 10
