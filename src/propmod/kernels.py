"""Numeric kernels: convolution, pooling, elementwise ops, reductions.

Everything here is a pure function on numpy arrays with a fixed loop nest,
so outputs are bit-identical across runs. The production convolution lowers
each image to a patch matrix of shape (C*KH*KW, OH*OW): ``im2col`` fills an
(N, C, KH, KW, OH, OW) buffer that is that stack of matrices without a
transpose, so one batched matrix multiply writes the NCHW output in place and
the backward passes reuse the same layout. ``conv2d_naive`` keeps the
six-deep reference loop around as the test oracle for that path.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, check_same_precision


def conv_out_extent(extent: int, k: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - k) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold NCHW input into per-image patch matrices (N, C*KH*KW, OH*OW)."""
    n, c, h, w = x.shape
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    img = x
    if padding:
        img = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        img[:, :, padding:padding + h, padding:padding + w] = x
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            cols[:, :, i, j, :, :] = img[:, :, i:i_max:stride, j:j_max:stride]
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
    cols = im2col(x, kh, kw, stride, padding)
    out = np.empty((n, o, oh, ow), dtype=x.dtype)
    np.matmul(kernel.reshape(o, c * kh * kw), cols, out=out.reshape(n, o, oh * ow))
    return out


def conv2d_input_grad(grad_out: np.ndarray, kernel: np.ndarray, x_shape: tuple,
                      stride: int, padding: int) -> np.ndarray:
    n, o, oh, ow = grad_out.shape
    _, c, kh, kw = kernel.shape
    cols_grad = kernel.reshape(o, c * kh * kw).T @ grad_out.reshape(n, o, oh * ow)
    return col2im(cols_grad, x_shape, kh, kw, stride, padding)


def conv2d_kernel_grad(grad_out: np.ndarray, x: np.ndarray, kernel_shape: tuple,
                       stride: int, padding: int) -> np.ndarray:
    n, o, oh, ow = grad_out.shape
    _, c, kh, kw = kernel_shape
    cols = im2col(x, kh, kw, stride, padding)
    g = grad_out.reshape(n, o, oh * ow)
    return (g @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel_shape)


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
    return np.maximum(x, x.dtype.type(0))


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum. Shapes must match exactly; no broadcasting."""
    if a.shape != b.shape:
        raise ShapeError(f"elementwise add shape mismatch: {a.shape} vs {b.shape}")
    check_same_precision(a, b)
    return a + b


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over H and W; output is N x C x 1 x 1."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects NCHW rank 4, got shape {x.shape}")
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_grad(grad_out: np.ndarray, x_shape: tuple) -> np.ndarray:
    _, _, h, w = x_shape
    scale = grad_out.dtype.type(1.0 / (h * w))
    return np.broadcast_to(grad_out * scale, x_shape).copy()


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: x (N,F) with weight (K,F) and bias (K,) -> (N,K)."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear shape mismatch: input {x.shape} vs weight {weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear bias shape {bias.shape} does not match weight {weight.shape}")
    check_same_precision(x, weight, bias)
    return x @ weight.T + bias
