"""Numeric kernels: convolution, pooling, elementwise ops, reductions.

Everything here is a pure function on numpy arrays with a fixed loop nest,
so outputs are bit-identical across runs. The production convolution lowers
each image to a patch matrix of shape (C*KH*KW, OH*OW): ``im2col`` fills an
(N, C, KH, KW, OH, OW) buffer that is that stack of matrices without a
transpose, in one copy from a strided view of the (padded) input, so one
batched matrix multiply writes the NCHW output in place and the backward
passes reuse the same layout. A 1x1, stride-1, unpadded conv's patch matrix
is its input: ``im2col`` returns a reshaped view of ``x``, with no copy.

Each production conv kernel lowers its batch a chunk of images at a time, as
many as keep the chunk's patch matrices within ``PATCH_BYTES``, so no patch
matrix of the whole batch is ever built. Each chunk is unfolded (or
scattered) and multiplied, and its products land in that chunk's images of
one output buffer. Each image's product is a GEMM of its own, so chunking
changes no output byte; kernel gradients add image by image, in order, as
the unchunked ``sum(axis=0)`` over images did.

``conv2d_backward`` unfolds the output gradient of a stride-1 conv once and
takes both gradients from it: the input gradient is a forward convolution of
that gradient with the flipped, transposed kernel, and the kernel gradient
is the input times the same matrix, so ``x`` is not unfolded again. Only
strided convs scatter their patch gradient back with ``col2im`` and unfold
``x`` for their kernel gradient. ``conv2d_naive`` keeps the six-deep
reference loop around as the test oracle for that path.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, check_same_precision

# Patch-matrix bytes a conv lowers at once: a few images at the published
# widths, where a whole stage-1 batch of 256 would take 151 MB.
PATCH_BYTES = 4 << 20


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


def _chunks(n: int, image_bytes: int) -> list:
    """Slices of a batch of ``n``, each as many images as keep their patch
    matrices (``image_bytes`` each) within ``PATCH_BYTES``, and at least one."""
    step = max(1, PATCH_BYTES // image_bytes)
    return [slice(i, i + step) for i in range(0, n, step)]


def _add_products(total: np.ndarray, a: np.ndarray, cols: np.ndarray) -> None:
    """``total += a[i] @ cols[i]^T`` for each image i, in image order: the order
    of a ``sum(axis=0)`` over the whole batch's products, which starts from zero."""
    for product in a @ cols.transpose(0, 2, 1):
        total += product


def conv2d(x: np.ndarray, kernel: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlation with zero padding, via im2col + matmul."""
    _check_conv_shapes(x, kernel)
    n, _, h, w = x.shape
    o, c, kh, kw = kernel.shape
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv2d output collapses: input {x.shape}, kernel {kernel.shape}, "
            f"stride {stride}, padding {padding}"
        )
    weights = kernel.reshape(o, c * kh * kw)
    out = None
    for s in _chunks(n, c * kh * kw * oh * ow * x.itemsize):
        cols = im2col(x[s], kh, kw, stride, padding)
        if out is None:
            # allocated once the first patch matrix exists, by when the padded
            # copy of the input it was unfolded from has been freed
            out = np.empty((n, o, oh, ow), dtype=x.dtype)
        np.matmul(weights, cols, out=out[s].reshape(len(cols), o, oh * ow))
    return out


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

    A stride-1 conv unfolds ``grad_out`` once and takes both gradients from
    that matrix, so ``x`` is not unfolded again. Row (o, a, b) of image n's
    matrix, at input pixel (y, z), holds grad_out[n, o, y+a-q, z+b-q] with
    q = k-1-p, so ``x @ gcols^T`` summed over images is the kernel gradient
    flipped in space and transposed in channels. The kernel gradient is
    computed the same way whether or not ``dx`` is wanted. Other convs call
    ``conv2d_input_grad`` and ``conv2d_kernel_grad``. Both results are
    C-contiguous arrays of their own.
    """
    o, c, k, kw = kernel.shape
    # The adjoint of a stride-1 correlation is a full correlation of grad_out
    # with the kernel flipped in space and transposed in channels, at padding
    # k-1-p. At padding >= k that would be negative, so those convs scatter
    # like the strided ones.
    if not (stride == 1 and k == kw and padding < k):
        dx = conv2d_input_grad(grad_out, kernel, x.shape, stride, padding) if input_grad else None
        return dx, conv2d_kernel_grad(grad_out, x, kernel.shape, stride, padding)
    n, _, h, w = x.shape
    # reshaping the flipped view copies it into a contiguous (C, O*K*K) matrix
    flipped = kernel.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(c, o * k * k)
    dx = None
    flipped_grad = np.zeros((c, o * k * k), dtype=x.dtype)
    for s in _chunks(n, o * k * k * h * w * x.itemsize):
        gcols = im2col(grad_out[s], k, k, 1, k - 1 - padding)
        if input_grad:
            if dx is None:  # allocated after the first patch matrix, as in conv2d
                dx = np.empty(x.shape, dtype=x.dtype)
            np.matmul(flipped, gcols, out=dx[s].reshape(len(gcols), c, h * w))
        _add_products(flipped_grad, x[s].reshape(len(gcols), c, h * w), gcols)
    dkernel = flipped_grad.reshape(c, o, k, k).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
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
