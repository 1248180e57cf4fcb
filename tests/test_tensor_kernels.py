"""Tensor container rules and the numeric kernels against their oracles."""

import numpy as np
import pytest

from propmod import ConvParams, PrecisionError, ShapeError, Tensor
from propmod import kernels


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-30)


class TestTensor:
    def test_shape_data_consistency(self):
        t = Tensor(np.zeros((2, 3, 4, 4)))
        assert t.shape == (2, 3, 4, 4)
        assert t.size == 2 * 3 * 4 * 4

    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0, 3)))

    def test_scalar_allowed(self):
        assert Tensor(np.float64(3.0)).shape == ()

    def test_immutable(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_precision_names(self):
        assert Tensor(np.zeros(2, dtype=np.float32)).precision == "single"
        assert Tensor(np.zeros(2, dtype=np.float64)).precision == "double"

    def test_int_input_defaults_to_double(self):
        assert Tensor([1, 2, 3]).precision == "double"

    def test_mixed_precision_rejected(self):
        a = np.zeros(3, dtype=np.float32)
        b = np.zeros(3, dtype=np.float64)
        with pytest.raises(PrecisionError):
            kernels.add(a, b)


class TestConvParams:
    def test_output_extent(self):
        p = ConvParams(Tensor(np.zeros((4, 2, 3, 3))), stride=2, padding=1)
        assert p.out_spatial(8, 8) == (4, 4)

    def test_collapsing_output_rejected(self):
        p = ConvParams(Tensor(np.zeros((4, 2, 5, 5))), stride=1, padding=0)
        with pytest.raises(ShapeError):
            p.out_spatial(3, 3)

    def test_bad_kernel_rank(self):
        with pytest.raises(ShapeError):
            ConvParams(Tensor(np.zeros((4, 2, 3))))


class TestConv2d:
    def test_scalar_product(self):
        x = np.full((1, 1, 1, 1), 2.0)
        k = np.full((1, 1, 1, 1), 3.0)
        assert kernels.conv2d(x, k)[0, 0, 0, 0] == 6.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 1, 6, 6))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = kernels.conv2d(x, k, stride=1, padding=1)
        np.testing.assert_array_equal(out, x)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        fast = kernels.conv2d(x, k, stride=1, padding=1)
        slow = kernels.conv2d_naive(x, k, stride=1, padding=1)
        assert rel_err(fast, slow) < 1e-12

    def test_matches_naive_on_random_shapes(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n, c, o = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
            h, w = rng.integers(3, 9), rng.integers(3, 9)
            k = rng.integers(1, 4)
            stride = rng.integers(1, 3)
            pad = rng.integers(0, 2)
            if (h + 2 * pad - k) < 0 or (w + 2 * pad - k) < 0:
                continue
            x = rng.standard_normal((n, c, h, w))
            kern = rng.standard_normal((o, c, k, k))
            fast = kernels.conv2d(x, kern, stride=int(stride), padding=int(pad))
            slow = kernels.conv2d_naive(x, kern, stride=int(stride), padding=int(pad))
            assert rel_err(fast, slow) < 1e-12

    def test_channel_mismatch_names_both_shapes(self):
        x = np.zeros((1, 2, 4, 4))
        k = np.zeros((1, 3, 3, 3))
        with pytest.raises(ShapeError) as err:
            kernels.conv2d(x, k)
        assert "(1, 2, 4, 4)" in str(err.value) and "(1, 3, 3, 3)" in str(err.value)

    def test_pure_bit_identical_reruns(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        a = kernels.conv2d(x, k, stride=1, padding=1)
        b = kernels.conv2d(x, k, stride=1, padding=1)
        assert np.array_equal(a, b)

    # the four lowering shapes of the published nets, at n=2 so the kernel
    # gradient's sum over images is exercised
    @pytest.mark.parametrize("ksize,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)])
    def test_backward_matches_finite_differences(self, ksize, stride, pad):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 2, 5, 5))
        k = rng.standard_normal((3, 2, ksize, ksize))
        side = kernels.conv_out_extent(5, ksize, stride, pad)
        g = rng.standard_normal((2, 3, side, side))
        gx = kernels.conv2d_input_grad(g, k, x.shape, stride, pad)
        gk = kernels.conv2d_kernel_grad(g, x, k.shape, stride, pad)

        def conv(a, b):
            return kernels.conv2d(a, b, stride, pad)

        eps = 1e-6
        for _ in range(20):
            idx = tuple(rng.integers(0, s) for s in x.shape)
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            num = ((conv(xp, k) - conv(xm, k)) * g).sum() / (2 * eps)
            assert abs(num - gx[idx]) < 1e-8
        for _ in range(20):
            idx = tuple(rng.integers(0, s) for s in k.shape)
            kp, km = k.copy(), k.copy()
            kp[idx] += eps
            km[idx] -= eps
            num = ((conv(x, kp) - conv(x, km)) * g).sum() / (2 * eps)
            assert abs(num - gk[idx]) < 1e-8

    def test_output_is_contiguous_and_owned(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        out = kernels.conv2d(x, k, stride=1, padding=1)
        assert out.flags.c_contiguous and out.flags.owndata
        assert Tensor(out).data is out


class TestElementwise:
    def test_relu_sign_cases(self):
        np.testing.assert_array_equal(kernels.relu(np.array([-1.0, 0.0, 2.0])),
                                      np.array([0.0, 0.0, 2.0]))

    def test_relu_all_negative(self):
        x = -np.abs(np.random.default_rng(0).standard_normal((3, 4)))
        assert (kernels.relu(x - 1e-9) == 0).all()

    def test_relu_idempotent_bitwise(self):
        x = np.random.default_rng(1).standard_normal((4, 4, 4)).astype(np.float32)
        once = kernels.relu(x)
        assert np.array_equal(kernels.relu(once), once)

    def test_relu_abs_identity(self):
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal(100)
            np.testing.assert_array_equal(kernels.relu(x) + kernels.relu(-x), np.abs(x))

    def test_add(self):
        np.testing.assert_array_equal(kernels.add(np.array([1.0, 2.0]), np.array([3.0, 4.0])),
                                      np.array([4.0, 6.0]))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kernels.add(np.zeros(3), np.zeros(4))

    def test_global_avg_pool_constant(self):
        x = np.full((2, 3, 5, 5), 7.5)
        out = kernels.global_avg_pool(x)
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out, 7.5)

    def test_linear_identity(self):
        x = np.random.default_rng(2).standard_normal((4, 6))
        out = kernels.linear(x, np.eye(6), np.zeros(6))
        np.testing.assert_array_equal(out, x)

    def test_linear_shape_checks(self):
        with pytest.raises(ShapeError):
            kernels.linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(4))
