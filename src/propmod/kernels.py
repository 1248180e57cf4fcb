"""Numeric kernels: convolution, pooling, elementwise ops, reductions.

Everything here is a pure function on numpy arrays with a fixed loop nest,
so outputs are bit-identical across runs. Convolutions take one of two
lowerings, chosen from the shapes of each call.

The row-shift lowering (after MEC, Cho and Brand 2017) serves every stride-1
k x k conv at padding (k-1)/2, k > 1, whose input has at least
``ROW_SHIFT_MIN_PIXELS`` pixels (N*H*W), such as the stride-1 3x3 convs of
every family at training and eval batch sizes. ``row_unfold`` unfolds the
input along kernel columns only, k copies where ``im2col`` writes k*k, and
one GEMM per chunk of images multiplies every kernel row with it. Its output
sums one kernel row at a time and its kernel gradient one chunk at a time,
so its bytes differ in the last bits from the per-image lowering's and
depend on where the chunks fall. Below the cutoff, such as the gradient
oracle's batch-2 maps and ``collapse_check``'s probes, re-laying out the
kernel on each call and the junk slots of small maps cost more than the
chunk-wide GEMM saves.

Every other conv lowers each image to a patch matrix of shape
(C*KH*KW, OH*OW): ``im2col`` fills an (N, C, KH, KW, OH, OW) buffer that is
that stack of matrices without a transpose, in one copy from a strided view
of the (padded) input, so one batched matrix multiply writes the NCHW
output in place and the backward passes reuse the same layout. A 1x1,
stride-1, unpadded conv's patch matrix is its input: ``im2col`` returns a
reshaped view of ``x``, with no copy. Each image's product is a GEMM of its
own, so on this lowering chunking changes no output byte; kernel gradients
add image by image, in order, as the unchunked ``sum(axis=0)`` over images
did.

Each lowering has one chunk loop, in ``_lowered``: it runs over the batch a
chunk of images at a time, as many as keep the chunk's patch matrices within
``PATCH_BYTES``, so no patch matrix of the whole batch is ever built.

A stride-1 ``conv2d_backward`` runs the output gradient ``g`` through that
loop: its input gradient is the forward conv of ``g`` by the kernel flipped
in space and transposed in channels, at padding k-1-p, and its kernel
gradient is read off each chunk's unfold of ``g``, so ``x`` is not unfolded
again. Only strided convs scatter their patch gradient back with ``col2im``
and unfold ``x`` for their kernel gradient. ``conv2d_naive`` keeps the
six-deep reference loop around as the test oracle for both lowerings.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, check_same_precision

# Patch-matrix bytes a conv lowers at once: a few images at the published
# widths, where a whole stage-1 batch of 256 would take 151 MB. At 1 MiB,
# plain-38's stage-shape convs ran as fast as at 2 or 4 MiB, and a row-shift
# backward peaks lower.
PATCH_BYTES = 1 << 20

# Fewest pixels (N*H*W of the input) for which a stride-1 conv takes the
# row-shift lowering. Below it, re-laying out the kernel on each call and the
# junk slots of small maps cost more than the chunk-wide GEMMs save.
ROW_SHIFT_MIN_PIXELS = 512

_WHOLE_BATCH = (slice(None),)


def conv_out_extent(extent: int, k: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - k) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold NCHW input into per-image patch matrices (N, C*KH*KW, OH*OW)."""
    n, c, h, w = x.shape
    if kh == kw == stride == 1 and padding == 0:
        return x.reshape(n, c, h * w)
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    if padding:
        img = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        img[:, :, padding:padding + h, padding:padding + w] = x
    else:
        img = np.ascontiguousarray(x)  # the view below needs img's buffer
    # Patch (i, j) of output pixel (y, z) is img[..., i + stride*y, j + stride*z],
    # so all patches form one strided view of img, copied out in one pass.
    # Built with np.ndarray rather than as_strided, whose Python overhead
    # made 1x1 stride-2 unfolds at the oracle's shapes twice as slow.
    sn, sc, sh, sw = img.strides
    patches = np.ndarray((n, c, kh, kw, oh, ow), img.dtype, img, 0,
                         (sn, sc, sh, sw, sh * stride, sw * stride))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    np.copyto(cols, patches)
    return cols.reshape(n, c * kh * kw, oh * ow)


def col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of ``im2col``: scatter-add patch matrices back onto the input grid."""
    n, c, h, w = x_shape
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    img = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            img[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding == 0:
        return img
    return img[:, :, padding:-padding, padding:-padding]


def _check_conv_shapes(x: np.ndarray, kernel: np.ndarray):
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be NCHW rank 4, got shape {x.shape}")
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d kernel must be OIHW rank 4, got shape {kernel.shape}")
    if x.shape[1] != kernel.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input shape {x.shape} has {x.shape[1]} channels, "
            f"kernel shape {kernel.shape} expects {kernel.shape[1]}"
        )
    check_same_precision(x, kernel)


def _chunks(n: int, image_bytes: int):
    """Slices of a batch of ``n``, each as many images as keep their patch
    matrices (``image_bytes`` each) within ``PATCH_BYTES``, and at least one."""
    step = max(1, PATCH_BYTES // image_bytes)
    if step >= n:
        return _WHOLE_BATCH
    return [slice(i, i + step) for i in range(0, n, step)]


def _add_products(total: np.ndarray, a: np.ndarray, cols: np.ndarray) -> None:
    """``total += a[i] @ cols[i]^T`` for each image i, in image order: the order
    of a ``sum(axis=0)`` over the whole batch's products, which starts from zero."""
    for product in a @ cols.transpose(0, 2, 1):
        total += product


def _row_shifts(x_shape: tuple, kernel_shape: tuple, stride: int, padding: int) -> bool:
    """Whether a conv takes the row-shift lowering: stride 1, an odd square
    kernel wider than 1 at padding (k-1)/2, and at least ``ROW_SHIFT_MIN_PIXELS``."""
    n, _, h, w = x_shape
    _, _, kh, kw = kernel_shape
    return stride == 1 and kh == kw == 2 * padding + 1 > 1 and n * h * w >= ROW_SHIFT_MIN_PIXELS


def _on_grid(x: np.ndarray, p: int, offset: int, length: int) -> np.ndarray:
    """NCHW ``x`` laid channel-major on a zeroed (C, length) grid of rows W+p
    wide, pixel (b, y, z) at offset + (b*(H+p) + y)*(W+p) + z."""
    n, c, h, w = x.shape
    grid = np.zeros((c, length), dtype=x.dtype)
    span = n * (h + p) * (w + p)
    grid[:, offset:offset + span].reshape(c, n, h + p, w + p)[:, :, :h, :w] = x.transpose(1, 0, 2, 3)
    return grid


def _shifted_rows(grid: np.ndarray, k: int, step: int, length: int) -> np.ndarray:
    """(C*k, length) matrix whose row (c, i) is grid[c, i*step:i*step + length],
    in one copy from a strided view of ``grid``."""
    c = len(grid)
    sc, si = grid.strides
    rows = np.empty((c, k, length), dtype=grid.dtype)
    np.copyto(rows, np.ndarray((c, k, length), grid.dtype, grid, 0, (sc, step * si, si)))
    return rows.reshape(c * k, length)


def row_unfold(x: np.ndarray, k: int) -> np.ndarray:
    """Row-shift patch matrix (C*k, L) of NCHW input, for a stride-1 k x k conv
    at padding p = (k-1)/2.

    Image b's pixel (y, z) lies at (b*(H+p) + p + y)*(W+p) + p + z on a
    zeroed channel-major grid, so the p zeros between neighbouring rows and
    images pad both. Row (c, j) of the matrix is channel c of the grid from
    column j on, so tap (i, j) of output slot t sits at column t + i*(W+p):
    each kernel row's patch matrix is a column-offset view, and the unfold is
    k copies of the input, not k*k. Output pixel (b, y, z) is slot
    (b*(H+p) + y)*(W+p) + z; the other slots below N*(H+p)*(W+p) are junk.
    """
    n, _, h, w = x.shape
    p = (k - 1) // 2
    length = n * (h + p) * (w + p) + (k - 1) * (w + p)
    return _shifted_rows(_on_grid(x, p, p * (w + p) + p, length + k - 1), k, 1, length)


def _row_shift_products(rows: np.ndarray, cols: np.ndarray, h: int, w: int) -> np.ndarray:
    """(O, N, H, W) view of the conv of ``cols``, a ``row_unfold``, by ``rows``
    (k, O, C*k), the kernel's rows.

    One GEMM multiplies every kernel row with the whole unfold; row i's
    product, read i grid rows on, adds into the output in order of i."""
    k, o, _ = rows.shape
    p = (k - 1) // 2
    span = cols.shape[1] - (k - 1) * (w + p)  # N*(H+p)*(W+p) slots
    products = (rows.reshape(k * o, -1) @ cols).reshape(k, o, -1)
    wide = products[0, :, :span] + products[1, :, w + p:w + p + span]
    for i in range(2, k):
        wide += products[i, :, i * (w + p):i * (w + p) + span]
    return wide.reshape(o, -1, h + p, w + p)[:, :, :h, :w]


def _lowered(x: np.ndarray, kernel: np.ndarray, stride: int, padding: int,
             on_chunk=None, output: bool = True):
    """Conv of ``x`` by ``kernel`` in the one chunk loop of its lowering, which hands
    each chunk's patch matrix to ``on_chunk(s, cols)`` with the chunk's slice
    ``s``. Returns the output, or None when ``output`` is false."""
    n, _, h, w = x.shape
    o, c, kh, kw = kernel.shape
    if _row_shifts(x.shape, kernel.shape, stride, padding):
        rows = kernel.transpose(2, 0, 1, 3).reshape(kh, o, c * kh)
        out = np.empty((n, o, h, w), dtype=x.dtype) if output else None
        for s in _chunks(n, c * kh * (h + padding) * (w + padding) * x.itemsize):
            cols = row_unfold(x[s], kh)
            if on_chunk is not None:
                on_chunk(s, cols)
            if output:
                # each buffer freed once read: the unfold before the output copy,
                # the product before the next chunk's unfold is built
                wide = _row_shift_products(rows, cols, h, w)
                del cols
                out[s] = wide.transpose(1, 0, 2, 3)
                del wide
        return out
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    weights = kernel.reshape(o, c * kh * kw)
    out = None
    for s in _chunks(n, c * kh * kw * oh * ow * x.itemsize):
        cols = im2col(x[s], kh, kw, stride, padding)
        if output:
            if out is None:
                # allocated after the first unfold, by when its padded input is freed
                out = np.empty((n, o, oh, ow), dtype=x.dtype)
            np.matmul(weights, cols, out=out[s].reshape(len(cols), o, oh * ow))
        if on_chunk is not None:
            on_chunk(s, cols)
    return out


def conv2d(x: np.ndarray, kernel: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlation with zero padding, by the row-shift lowering or im2col + matmul."""
    _check_conv_shapes(x, kernel)
    _, _, h, w = x.shape
    _, _, kh, kw = kernel.shape
    if conv_out_extent(h, kh, stride, padding) < 1 or conv_out_extent(w, kw, stride, padding) < 1:
        raise ShapeError(
            f"conv2d output collapses: input {x.shape}, kernel {kernel.shape}, "
            f"stride {stride}, padding {padding}"
        )
    return _lowered(x, kernel, stride, padding)


def conv2d_input_grad(grad_out: np.ndarray, kernel: np.ndarray, x_shape: tuple,
                      stride: int, padding: int) -> np.ndarray:
    """Input gradient by scattering the patch gradient back with ``col2im``."""
    n, o, oh, ow = grad_out.shape
    _, c, kh, kw = kernel.shape
    weights = kernel.reshape(o, c * kh * kw).T
    dx = None
    for s in _chunks(n, c * kh * kw * oh * ow * grad_out.itemsize):
        g = grad_out[s]
        cols_grad = weights @ g.reshape(len(g), o, oh * ow)
        img = col2im(cols_grad, (len(g), *x_shape[1:]), kh, kw, stride, padding)
        if dx is None:  # allocated after the first scatter, as in conv2d
            dx = np.empty(x_shape, dtype=img.dtype)
        dx[s] = img
    return dx


def conv2d_kernel_grad(grad_out: np.ndarray, x: np.ndarray, kernel_shape: tuple,
                       stride: int, padding: int) -> np.ndarray:
    n, o, oh, ow = grad_out.shape
    _, c, kh, kw = kernel_shape
    total = np.zeros(kernel_shape, dtype=x.dtype)
    for s in _chunks(n, c * kh * kw * oh * ow * x.itemsize):
        cols = im2col(x[s], kh, kw, stride, padding)
        _add_products(total.reshape(o, -1), grad_out[s].reshape(len(cols), o, oh * ow), cols)
    return total


def conv2d_backward(grad_out: np.ndarray, x: np.ndarray, kernel: np.ndarray,
                    stride: int, padding: int, input_grad: bool) -> tuple:
    """(dx or None, dkernel) of ``conv2d(x, kernel, stride, padding)``.

    A stride-1 conv unfolds ``grad_out`` once, as the forward conv that is
    its ``dx``, and takes the kernel gradient from the same unfold, computed
    the same way whether or not ``dx`` is wanted. It takes the row-shift
    lowering when ``conv2d`` does. Other convs call ``conv2d_input_grad`` and
    ``conv2d_kernel_grad``. Both results are C-contiguous arrays of their
    own. A ``grad_out`` of another shape than the forward's output raises
    ``ShapeError``.
    """
    n, _, h, w = x.shape
    o, c, k, kw = kernel.shape
    out_shape = (n, o, conv_out_extent(h, k, stride, padding), conv_out_extent(w, kw, stride, padding))
    if grad_out.shape != out_shape:
        raise ShapeError(
            f"conv2d_backward grad_out shape {grad_out.shape} does not match "
            f"the conv's output shape {out_shape}"
        )
    # The adjoint of a stride-1 correlation is a full correlation of grad_out
    # with the kernel flipped in space and transposed in channels, at padding
    # k-1-p. At padding >= k that would be negative, so those convs scatter
    # like the strided ones.
    if not (stride == 1 and k == kw and padding < k):
        dx = conv2d_input_grad(grad_out, kernel, x.shape, stride, padding) if input_grad else None
        return dx, conv2d_kernel_grad(grad_out, x, kernel.shape, stride, padding)
    if _row_shifts(x.shape, kernel.shape, stride, padding):
        # Row i of ``xrows`` lays ``x`` on the output slots k-1-i grid rows on, so it
        # meets unfold row (o, j) at tap (k-1-i, j): kernel gradient tap (i, k-1-j).
        width = w + padding
        grad = np.zeros((c * k, o * k), dtype=x.dtype)

        def add_kernel_grad(s, gcols):
            length = gcols.shape[1]
            xrows = _shifted_rows(_on_grid(x[s], padding, (k - 1) * width, length + (k - 1) * width),
                                  k, width, length)
            np.add(grad, xrows @ gcols.T, out=grad)

        dkernel = grad.reshape(c, k, o, k)[:, :, :, ::-1].transpose(2, 0, 1, 3)
    else:
        # Row (o, a, b) of image n's unfold holds g[n, o, y+a-q, z+b-q] at pixel
        # (y, z), q = k-1-p: ``x @ gcols^T`` over images is the flipped dkernel.
        grad = np.zeros((c, o * k * k), dtype=x.dtype)

        def add_kernel_grad(s, gcols):
            _add_products(grad, x[s].reshape(len(gcols), c, h * w), gcols)

        dkernel = grad.reshape(c, o, k, k).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    flipped = kernel.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    dx = _lowered(grad_out, flipped, 1, k - 1 - padding, add_kernel_grad, input_grad)
    return dx, dkernel.copy()


def conv2d_naive(x: np.ndarray, kernel: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Reference convolution: explicit six-deep loop, accumulated in order.

    Slow on purpose; exists solely as the oracle the im2col path is checked
    against.
    """
    _check_conv_shapes(x, kernel)
    n, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    img = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, o, oh, ow), dtype=x.dtype)
    for b in range(n):
        for oc in range(o):
            for y in range(oh):
                for xx in range(ow):
                    acc = x.dtype.type(0)
                    for ic in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += kernel[oc, ic, ky, kx] * img[b, ic, y * stride + ky, xx * stride + kx]
                    out[b, oc, y, xx] = acc
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """max(x, 0), with NaN mapped to 0 (``fmax`` ignores a NaN operand)."""
    return np.fmax(x, x.dtype.type(0))


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum. Shapes must match exactly; no broadcasting."""
    if a.shape != b.shape:
        raise ShapeError(f"elementwise add shape mismatch: {a.shape} vs {b.shape}")
    check_same_precision(a, b)
    return a + b


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over H and W; output is (N, C)."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects NCHW rank 4, got shape {x.shape}")
    return x.mean(axis=(2, 3))


def global_avg_pool_grad(grad_out: np.ndarray, x_shape: tuple) -> np.ndarray:
    _, _, h, w = x_shape
    scale = grad_out.dtype.type(1.0 / (h * w))
    return np.broadcast_to((grad_out * scale)[:, :, None, None], x_shape).copy()


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: x (N,F) with weight (K,F) and bias (K,) -> (N,K)."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear shape mismatch: input {x.shape} vs weight {weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear bias shape {bias.shape} does not match weight {weight.shape}")
    check_same_precision(x, weight, bias)
    return x @ weight.T + bias
