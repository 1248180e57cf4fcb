"""Tensor container rules and the numeric kernels against their oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from propmod import PrecisionError, ShapeError, Tensor
from propmod import kernels

from call_records import record_calls


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-30)


def scatter_input_grad(g, kernel, x_shape, stride, pad):
    """Adjoint of the strided correlation, written as the scatter it is: each
    output pixel adds its kernel-weighted gradient onto the patch it read."""
    n, c, h, w = x_shape
    _, _, kh, kw = kernel.shape
    img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=g.dtype)
    for y in range(g.shape[2]):
        for xx in range(g.shape[3]):
            patch = np.einsum("no,ocij->ncij", g[:, :, y, xx], kernel)
            img[:, :, y * stride:y * stride + kh, xx * stride:xx * stride + kw] += patch
    return img[:, :, pad:pad + h, pad:pad + w]


def per_tap_im2col(x, kh, kw, stride, pad):
    """Reference unfold: one strided copy per kernel tap into (n, c, kh, kw, oh, ow)."""
    n, c, h, w = x.shape
    oh = kernels.conv_out_extent(h, kh, stride, pad)
    ow = kernels.conv_out_extent(w, kw, stride, pad)
    img = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = img[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def im2col_inputs(dtype):
    """A C-contiguous, a transposed, a sliced and a read-only NCHW input."""
    rng = np.random.default_rng(9)
    base = rng.standard_normal((2, 3, 5, 7)).astype(dtype)
    readonly = base.copy()
    readonly.flags.writeable = False
    return {
        "contiguous": base,
        "transposed": rng.standard_normal((2, 3, 7, 5)).astype(dtype).transpose(0, 1, 3, 2),
        "sliced": rng.standard_normal((2, 6, 6, 8)).astype(dtype)[:, ::2, 1:, :7],
        "readonly": readonly,
    }


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

    def test_input_grad_matches_scatter_adjoint(self):
        # every (k, stride, pad) of the random grid above, 1x1 at padding 1 included:
        # col2im's scatter against the per-pixel loop
        rng = np.random.default_rng(8)
        for k, stride, pad in itertools.product((1, 2, 3), (1, 2), (0, 1)):
            for _ in range(2):
                n, c, o = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
                h, w = rng.integers(3, 9), rng.integers(3, 9)
                x_shape = (n, c, h, w)
                kern = rng.standard_normal((o, c, k, k))
                g = rng.standard_normal((n, o, kernels.conv_out_extent(h, k, stride, pad),
                                         kernels.conv_out_extent(w, k, stride, pad)))
                fast = kernels.conv2d_input_grad(g, kern, x_shape, stride, pad)
                slow = scatter_input_grad(g, kern, x_shape, stride, pad)
                assert fast.shape == x_shape
                assert rel_err(fast, slow) < 1e-12, (k, stride, pad, x_shape)

    def test_channel_mismatch_names_both_shapes(self):
        x = np.zeros((1, 2, 4, 4))
        k = np.zeros((1, 3, 3, 3))
        with pytest.raises(ShapeError) as err:
            kernels.conv2d(x, k)
        assert "(1, 2, 4, 4)" in str(err.value) and "(1, 3, 3, 3)" in str(err.value)

    def test_collapsing_output_rejected(self):
        with pytest.raises(ShapeError) as err:
            kernels.conv2d(np.zeros((1, 2, 3, 3)), np.zeros((4, 2, 5, 5)))
        assert "collapses" in str(err.value)

    def test_pure_bit_identical_reruns(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        a = kernels.conv2d(x, k, stride=1, padding=1)
        b = kernels.conv2d(x, k, stride=1, padding=1)
        assert np.array_equal(a, b)

    # the four lowering shapes of the published nets, at n=2 so the kernel
    # gradient's sum over images is exercised, and the stride-1 convs (collapse
    # check's 5x5 too) once more on the row-shift lowering, by a cutoff of 0
    @pytest.mark.parametrize("ksize,stride,pad,cutoff", [
        pytest.param(*case, None, id="-".join(map(str, case)))
        for case in [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0), (5, 1, 2)]
    ] + [pytest.param(3, 1, 1, 0, id="3-1-1-row-shift"), pytest.param(5, 1, 2, 0, id="5-1-2-row-shift")])
    def test_backward_matches_finite_differences(self, ksize, stride, pad, cutoff, monkeypatch):
        if cutoff is not None:
            monkeypatch.setattr(kernels, "ROW_SHIFT_MIN_PIXELS", cutoff)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 2, 5, 5))
        k = rng.standard_normal((3, 2, ksize, ksize))
        side = kernels.conv_out_extent(5, ksize, stride, pad)
        g = rng.standard_normal((2, 3, side, side))
        separate = (kernels.conv2d_input_grad(g, k, x.shape, stride, pad),
                    kernels.conv2d_kernel_grad(g, x, k.shape, stride, pad))
        both = kernels.conv2d_backward(g, x, k, stride, pad, True)

        def conv(a, b):
            return kernels.conv2d(a, b, stride, pad)

        eps = 1e-6
        for gx, gk in (separate, both):
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
        dx = kernels.conv2d_input_grad(out, k, x.shape, stride=1, padding=1)
        assert dx.flags.c_contiguous and dx.flags.owndata

    @pytest.mark.parametrize("k,stride,pad,cutoff", [
        pytest.param(*case, None, id="-".join(map(str, case)))
        for case in [*itertools.product((1, 2, 3), (1, 2), (0, 1)), (5, 1, 2)]
    ] + [pytest.param(3, 1, 1, 0, id="3-1-1-row-shift"), pytest.param(5, 1, 2, 0, id="5-1-2-row-shift")])
    def test_backward_matches_separate_gradients(self, k, stride, pad, cutoff, monkeypatch):
        # the grid of test_input_grad_matches_scatter_adjoint: the stride-1 convs take
        # both gradients from one unfold of g, the others from the separate kernels
        if cutoff is not None:
            monkeypatch.setattr(kernels, "ROW_SHIFT_MIN_PIXELS", cutoff)
        rng = np.random.default_rng(10 + 12 * k + 6 * stride + pad)
        n, c, o = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
        h, w = rng.integers(3, 9), rng.integers(3, 9)
        x = rng.standard_normal((n, c, h, w))
        kern = rng.standard_normal((o, c, k, k))
        g = rng.standard_normal((n, o, kernels.conv_out_extent(h, k, stride, pad),
                                 kernels.conv_out_extent(w, k, stride, pad)))
        dx, dk = kernels.conv2d_backward(g, x, kern, stride, pad, True)
        assert rel_err(dx, kernels.conv2d_input_grad(g, kern, x.shape, stride, pad)) < 1e-12
        assert rel_err(dk, kernels.conv2d_kernel_grad(g, x, kern.shape, stride, pad)) < 1e-12
        assert dx.shape == x.shape and dk.shape == kern.shape
        for out in (dx, dk):
            assert out.flags.c_contiguous and out.flags.owndata
        skipped, dk_alone = kernels.conv2d_backward(g, x, kern, stride, pad, False)
        assert skipped is None and dk_alone.tobytes() == dk.tobytes()


class TestLowering:
    def test_pointwise_patch_matrix_is_the_input(self):
        x = np.random.default_rng(6).standard_normal((2, 3, 4, 5))
        cols = kernels.im2col(x, 1, 1, 1, 0)
        assert cols.shape == (2, 3, 20) and np.shares_memory(cols, x)
        np.testing.assert_array_equal(cols, x.reshape(2, 3, 20))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,stride,pad", list(itertools.product((1, 2, 3), (1, 2), (0, 1, 2))))
    def test_unfold_matches_per_tap_copy_bytewise(self, k, stride, pad, dtype):
        for name, x in im2col_inputs(dtype).items():
            cols = kernels.im2col(x, k, k, stride, pad)
            reference = per_tap_im2col(x, k, k, stride, pad)
            assert cols.shape == reference.shape and cols.dtype == dtype, name
            assert cols.tobytes() == reference.tobytes(), name
            if np.shares_memory(cols, x):
                assert (k, stride, pad) == (1, 1, 0), name  # the pointwise view
            else:
                assert cols.flags.c_contiguous, name

    @pytest.mark.parametrize("stride,pad", [(2, 0), (1, 1)])
    def test_other_pointwise_lowerings_copy(self, stride, pad):
        x = np.random.default_rng(7).standard_normal((2, 3, 4, 5))
        cols = kernels.im2col(x, 1, 1, stride, pad)
        assert not np.shares_memory(cols, x)
        back = kernels.col2im(cols, x.shape, 1, 1, stride, pad)
        assert back.shape == x.shape and not np.shares_memory(back, cols)


class TestChunkedLowering:
    """A batch lowered a few images at a time: one chunk's bytes, no whole-batch patch matrix."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)])
    def test_chunks_match_one_chunk_bytewise(self, k, stride, pad, dtype, monkeypatch):
        rng = np.random.default_rng(30 + 4 * k + 2 * stride + pad)
        n, c, h = 7, 3, 6
        x = rng.standard_normal((n, c, h, h)).astype(dtype)
        kern = rng.standard_normal((c, c, k, k)).astype(dtype)  # o == c: one patch-matrix size
        side = kernels.conv_out_extent(h, k, stride, pad)
        g = rng.standard_normal((n, c, side, side)).astype(dtype)
        calls = {
            "conv2d": lambda: [kernels.conv2d(x, kern, stride, pad)],
            "conv2d_backward": lambda: kernels.conv2d_backward(g, x, kern, stride, pad, True),
            "conv2d_input_grad": lambda: [kernels.conv2d_input_grad(g, kern, x.shape, stride, pad)],
            "conv2d_kernel_grad": lambda: [kernels.conv2d_kernel_grad(g, x, kern.shape, stride, pad)],
        }
        extents = record_calls(monkeypatch, kernels, "im2col", "col2im")

        def run(name):
            for seen in extents.values():
                seen.clear()
            results = [r.tobytes() for r in calls[name]()]
            return results, extents["im2col"] + extents["col2im"]

        whole = {name: run(name) for name in calls}
        # room for two and a half images' patch matrices: chunks of 2, 2, 2 and 1
        monkeypatch.setattr(kernels, "PATCH_BYTES", 5 * c * k * k * side * side * x.itemsize // 2)
        for name in calls:
            results, chunks = run(name)
            assert results == whole[name][0], name
            lowerings = len(whole[name][1])
            assert lowerings and whole[name][1] == [n] * lowerings, name
            assert chunks == [2, 2, 2, 1] * lowerings, name

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_peak_stays_under_four_activations(self, backward):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((64, 16, 32, 32)).astype(np.float32)
        kern = rng.standard_normal((16, 16, 3, 3)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)

        def conv():
            if backward:
                return kernels.conv2d_backward(g, x, kern, 1, 1, True)
            return kernels.conv2d(x, kern, 1, 1)

        conv()  # first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            result = conv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is not None
        # the whole batch's patch matrix alone would be 9 activations
        assert peak < 4 * x.nbytes, peak / x.nbytes


class TestInputGradIsForwardConv:
    """A stride-1 conv's input gradient is the forward conv of ``g`` by the kernel
    flipped in space and transposed in channels, at padding k-1-p, on either lowering."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ragged", [False, True], ids=["one-chunk", "ragged"])
    @pytest.mark.parametrize("cutoff", [None, 0], ids=["default-cutoff", "cutoff-0"])
    @pytest.mark.parametrize("k,pad", [(3, 1), (5, 2), (1, 0), (3, 0), (3, 2)])
    def test_bytes_match(self, k, pad, cutoff, ragged, dtype, monkeypatch):
        rng = np.random.default_rng(50 + 3 * k + pad)
        n, c, o, h, w = 7, 3, 4, 9, 6  # 378 pixels: the default cutoff keeps im2col
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        kern = rng.standard_normal((o, c, k, k)).astype(dtype)
        g = rng.standard_normal((n, o, h + 2 * pad - k + 1, w + 2 * pad - k + 1)).astype(dtype)
        row_shift = cutoff == 0 and k == 2 * pad + 1 > 1
        if cutoff is not None:
            monkeypatch.setattr(kernels, "ROW_SHIFT_MIN_PIXELS", cutoff)
        if ragged:
            # room for two and a half images' unfolds of g: chunks of 2, 2, 2 and 1
            image = o * k * (h + pad) * (w + pad) if row_shift else o * k * k * h * w
            monkeypatch.setattr(kernels, "PATCH_BYTES", 5 * image * x.itemsize // 2)
        extents = record_calls(monkeypatch, kernels, "im2col", "row_unfold")
        dx, _ = kernels.conv2d_backward(g, x, kern, 1, pad, True)
        forward = kernels.conv2d(g, kern.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], 1, k - 1 - pad)
        assert dx.dtype == forward.dtype == dtype
        assert dx.tobytes() == forward.tobytes()
        chunks = [2, 2, 2, 1] if ragged else [n]
        unfolds = {"im2col": [], "row_unfold": chunks * 2} if row_shift else \
            {"im2col": chunks * 2, "row_unfold": []}
        assert extents == unfolds  # the same chunks both ways


class TestRowShiftLowering:
    """Stride-1 k x k convs at padding (k-1)/2 over at least ``ROW_SHIFT_MIN_PIXELS``
    pixels unfold along kernel columns only; every other conv keeps ``im2col``."""

    # x shape, kernel shape, stride, padding, whether the row shift serves it
    DISPATCH = {
        "3x3": ((2, 4, 16, 16), (5, 4, 3, 3), 1, 1, True),
        "5x5": ((2, 4, 16, 16), (5, 4, 5, 5), 1, 2, True),
        "3x3-below-cutoff": ((2, 4, 15, 15), (5, 4, 3, 3), 1, 1, False),
        "3x3-stride-2": ((2, 4, 16, 16), (5, 4, 3, 3), 2, 1, False),
        "3x3-unpadded": ((2, 4, 16, 16), (5, 4, 3, 3), 1, 0, False),
        "1x1": ((2, 4, 16, 16), (5, 4, 1, 1), 1, 0, False),
    }

    @pytest.mark.parametrize("case", list(DISPATCH))
    def test_unfolds_per_conv(self, case, monkeypatch):
        x_shape, k_shape, stride, pad, row_shift = self.DISPATCH[case]
        rng = np.random.default_rng(40)
        x = rng.standard_normal(x_shape).astype(np.float32)
        kern = rng.standard_normal(k_shape).astype(np.float32)
        out = kernels.conv2d(x, kern, stride, pad)
        g = rng.standard_normal(out.shape).astype(np.float32)
        extents = record_calls(monkeypatch, kernels, "im2col", "row_unfold")
        kernels.conv2d(x, kern, stride, pad)
        forward = {name: list(seen) for name, seen in extents.items()}
        for seen in extents.values():
            seen.clear()
        kernels.conv2d_backward(g, x, kern, stride, pad, True)
        one = {"im2col": [], "row_unfold": [2]} if row_shift else {"im2col": [2], "row_unfold": []}
        assert forward == one and extents == one  # one chunk, one unfold each way

    @pytest.mark.parametrize("k", [3, 5])
    def test_ragged_chunks_match_one_chunk(self, k, monkeypatch):
        rng = np.random.default_rng(41 + k)
        n, c, h = 7, 3, 12
        p = (k - 1) // 2
        x = rng.standard_normal((n, c, h, h))
        kern = rng.standard_normal((c, c, k, k))  # o == c: one unfold size both ways
        g = rng.standard_normal(x.shape)

        def run():
            return [kernels.conv2d(x, kern, 1, p), *kernels.conv2d_backward(g, x, kern, 1, p, True)]

        extents = record_calls(monkeypatch, kernels, "im2col", "row_unfold")
        whole = run()
        assert extents == {"im2col": [], "row_unfold": [n, n]}
        extents["row_unfold"].clear()
        # room for two and a half images' unfolds: chunks of 2, 2, 2 and 1
        monkeypatch.setattr(kernels, "PATCH_BYTES", 5 * c * k * (h + p) * (h + p) * x.itemsize // 2)
        chunked = run()
        assert extents["row_unfold"] == [2, 2, 2, 1] * 2
        for a, b in zip(chunked, whole):
            assert a.flags.c_contiguous and a.flags.owndata
            assert rel_err(a, b) < 1e-12

    def test_float32_reruns_are_bytewise_identical(self):
        rng = np.random.default_rng(44)
        x = rng.standard_normal((16, 16, 32, 32)).astype(np.float32)
        kern = rng.standard_normal((16, 16, 3, 3)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)

        def run():
            return [kernels.conv2d(x, kern, 1, 1).tobytes(),
                    *(r.tobytes() for r in kernels.conv2d_backward(g, x, kern, 1, 1, True))]

        assert run() == run()

    @pytest.mark.parametrize("stride,cutoff", [(2, None), (1, None), (1, 0)],
                             ids=["strided", "per-image", "row-shift"])
    def test_backward_rejects_grad_of_another_shape(self, stride, cutoff, monkeypatch):
        if cutoff is not None:
            monkeypatch.setattr(kernels, "ROW_SHIFT_MIN_PIXELS", cutoff)
        x = np.zeros((2, 3, 6, 6))
        kern = np.zeros((4, 3, 3, 3))
        side = kernels.conv_out_extent(6, 3, stride, 1)
        wrong = np.zeros((2, 4, side, side + 1))
        with pytest.raises(ShapeError) as err:
            kernels.conv2d_backward(wrong, x, kern, stride, 1, True)
        assert str(wrong.shape) in str(err.value) and str((2, 4, side, side)) in str(err.value)


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
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, 7.5)

    def test_linear_identity(self):
        x = np.random.default_rng(2).standard_normal((4, 6))
        out = kernels.linear(x, np.eye(6), np.zeros(6))
        np.testing.assert_array_equal(out, x)

    def test_linear_shape_checks(self):
        with pytest.raises(ShapeError):
            kernels.linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(4))
