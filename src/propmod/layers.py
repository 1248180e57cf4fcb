"""Layer vocabulary: convolution, batch normalization, ReLU, linear head, loss.

Layers register their parameters in a :class:`ParamStore` under dotted
names at construction time and are then pure functions of a tape:
``layer(tape, node) -> node``. Initialization is a deterministic function
of (seed, parameter name), so rebuilding the same architecture with the
same seed reproduces every weight bit for bit. Eval tapes record no
backward: eval-mode batch norm keeps no centred input and passes no
gradient function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Node, ParamStore, Tape, seeded_rng
from .tensor import ShapeError

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9  # coefficient on the old running value


def he_normal(shape: tuple, fan_in: int, rng: np.random.Generator, dtype) -> np.ndarray:
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(dtype)


class Conv2d:
    """3x3 (or 1x1) convolution, no bias; He fan-in normal init."""

    def __init__(self, store: ParamStore, name: str, in_channels: int, out_channels: int,
                 kernel_size: int = 3, stride: int = 1, seed: int = 0):
        self.name = name
        self.stride = stride
        self.padding = kernel_size // 2
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        fan_in = in_channels * kernel_size * kernel_size
        store.register(name + ".weight", he_normal(shape, fan_in, seeded_rng(seed, name + ".weight"), store.dtype))

    def __call__(self, tape: Tape, x: Node) -> Node:
        w = tape.param(self.name + ".weight")
        return tape.conv2d(x, w, stride=self.stride, padding=self.padding)


@dataclass
class BatchNormState:
    """Per-channel normalization state, detached from any store. In eval
    mode it is the per-channel affine map of :func:`bn_affine`."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        c = self.gamma.shape
        if not (self.beta.shape == c and self.running_mean.shape == c and self.running_var.shape == c):
            raise ShapeError("batch norm per-channel tensors must share the channel extent")
        if np.any(self.running_var < 0):
            raise ValueError("running_var must be non-negative")


def bn_affine(gamma, beta, mean, var) -> tuple:
    """Eval-mode batch norm as (scale, shift): scale = gamma / sqrt(var + eps),
    shift = beta - mean * scale, with eps ``BN_EPSILON``."""
    scale = gamma / np.sqrt(var + BN_EPSILON)
    return scale, beta - mean * scale


def batchnorm_train(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Normalize by batch statistics per channel, then scale-shift.

    Returns (y, cache, batch_mean, batch_var); variance is the biased
    (population) estimate over the N*H*W slots of each channel. The work runs
    over ``x`` as (N, C*H*W) rows, each per-channel vector repeated once into
    one such row: the mean sums the rows, then each channel's pixels; ``x`` is
    centred once into the cached buffer ``xc``, the variance is reduced from it
    without a squared temporary, and ``y = xc * (gamma*inv_std) + beta`` is
    written into a second buffer. Two reductions and three elementwise passes.
    """
    n, c, h, w = x.shape
    p, m = h * w, n * h * w
    if m < 2:
        raise ValueError(
            f"train-mode batch norm undefined for a single slot per channel (N*H*W = {m})"
        )
    rows = x.reshape(n, c * p)
    mean = rows.sum(axis=0).reshape(c, p).sum(axis=1) / m
    xc = rows - np.repeat(mean, p)
    planes = xc.reshape(n, c, p)
    var = np.einsum("ncp,ncp->c", planes, planes) / m
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    y = xc * np.repeat(gamma * inv_std, p)
    y += np.repeat(beta, p)
    return y.reshape(x.shape), (xc, inv_std), mean, var


def batchnorm_train_backward(grad: np.ndarray, cache, gamma: np.ndarray):
    """Full backward through the batch statistics, over (N, C*H*W) rows.

    With ``xc`` the centred input, dgamma = sum(grad * xc) * inv_std and
    dx = gamma*inv_std * (grad - dbeta/m - xc * inv_std*dgamma/m), built in
    four passes into one buffer this op owns; ``grad`` is only read (``add``
    hands the same array to both of its inputs).
    """
    xc, inv_std = cache
    n, c, h, w = grad.shape
    p, m = h * w, n * h * w
    g = grad.reshape(n, c * p)
    dbeta = g.sum(axis=0).reshape(c, p).sum(axis=1)
    dgamma = np.einsum("ncp,ncp->c", g.reshape(n, c, p), xc.reshape(n, c, p)) * inv_std
    dx = xc * np.repeat(inv_std * dgamma / m, p)
    dx += np.repeat(dbeta / m, p)
    np.subtract(g, dx, out=dx)
    dx *= np.repeat(gamma * inv_std, p)
    return dx.reshape(grad.shape), dgamma, dbeta


def batchnorm_eval(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                   mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Eval-mode batch norm, the affine map of :func:`bn_affine` over
    (N, C*H*W) rows: ``y = x * scale``, then ``y += shift`` in place."""
    n, c, h, w = x.shape
    scale, shift = bn_affine(gamma, beta, mean, var)
    y = x.reshape(n, c * h * w) * np.repeat(scale, h * w)
    y += np.repeat(shift, h * w)
    return y.reshape(x.shape)


class BatchNorm2d:
    """Per-channel batch normalization with running statistics.

    Training mode normalizes by batch statistics and stages a running-stat
    update on the tape; nothing is written until the trainer commits the
    step, which keeps forward passes pure. A resumed tape (a ``gradcheck``
    evaluation, never committed) stages nothing. Eval mode normalizes by the
    stored running statistics, a fixed per-channel affine map, and records
    no backward.
    """

    def __init__(self, store: ParamStore, name: str, channels: int):
        self.name = name
        self.channels = channels
        self.store = store
        dt = store.dtype
        store.register(name + ".gamma", np.ones(channels, dtype=dt))
        store.register(name + ".beta", np.zeros(channels, dtype=dt))
        store.register(name + ".running_mean", np.zeros(channels, dtype=dt), trainable=False)
        store.register(name + ".running_var", np.ones(channels, dtype=dt), trainable=False)

    def __call__(self, tape: Tape, x: Node) -> Node:
        g = tape.param(self.name + ".gamma")
        b = tape.param(self.name + ".beta")
        xd, gd, bd = x.data, g.data, b.data
        if xd.ndim != 4 or xd.shape[1] != self.channels:
            raise ShapeError(
                f"{self.name}: expected NCHW input with {self.channels} channels, got shape {xd.shape}"
            )
        if tape.training:
            y, cache, mean, var = batchnorm_train(xd, gd, bd)
            if tape.resume is None:
                mom = xd.dtype.type(BN_MOMENTUM)
                m = xd.shape[0] * xd.shape[2] * xd.shape[3]
                unbiased = var * (m / (m - 1))
                rm = self.store[self.name + ".running_mean"].value.data
                rv = self.store[self.name + ".running_var"].value.data
                tape.stage_update(self.name + ".running_mean", mom * rm + (1 - mom) * mean)
                tape.stage_update(self.name + ".running_var", mom * rv + (1 - mom) * unbiased)

            def grad_fn(grad):
                return batchnorm_train_backward(grad, cache, gd)

            return tape.record("batchnorm", (x, g, b), y, grad_fn)

        rm = self.store[self.name + ".running_mean"].value.data
        rv = self.store[self.name + ".running_var"].value.data
        y = batchnorm_eval(xd, gd, bd, rm, rv)
        return tape.record("batchnorm", (x, g, b), y, None)


class Linear:
    """Fully connected classifier head: weight (out, in) plus bias."""

    def __init__(self, store: ParamStore, name: str, in_features: int, out_features: int, seed: int = 0):
        self.name = name
        store.register(name + ".weight",
                       he_normal((out_features, in_features), in_features,
                                 seeded_rng(seed, name + ".weight"), store.dtype))
        store.register(name + ".bias", np.zeros(out_features, dtype=store.dtype))

    def __call__(self, tape: Tape, x: Node) -> Node:
        w = tape.param(self.name + ".weight")
        b = tape.param(self.name + ".bias")
        return tape.linear(x, w, b)


def softmax_cross_entropy(tape: Tape, logits: Node, labels: np.ndarray) -> Node:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got shape {z.shape}")
    n, k = z.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match logits batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise ValueError(f"label {bad} out of range [0, {k})")
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    loss = -log_probs[np.arange(n), labels].mean()
    probs = exp / total
    dtype = z.dtype

    def grad_fn(g):
        dz = probs.copy()
        dz[np.arange(n), labels] -= 1
        dz *= g / n
        return (dz.astype(dtype),)

    return tape.record("softmax_cross_entropy", (logits,), np.asarray(loss, dtype=z.dtype),
                       grad_fn if tape.training else None)
