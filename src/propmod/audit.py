"""Structural oracles: ratio accounting, FLOPs counting, linear collapse.

``audit`` walks an actual recorded tape rather than trusting the declared
configuration, so it certifies what the forward pass really executes. Conv
cost is 2 * k^2 * Cin * Cout * H' * W' per layer (one multiply plus one
add per kernel tap, per output position, batch excluded); a ReLU costs one
operation per element. The conv:ReLU ratio is taken over the trunk (the
staged blocks), which is where the placement policy acts; stem and head are
identical across variants. The counts and conv FLOPs are also grouped by
top-level scope (stem, stageN, head), the rows of a network summary.

``collapse_check`` is the receptive-field composition oracle: two stacked
convolutions, given as bare OIHW kernels and run as the trunk runs them
(stride 1, same-size padding k//2), with nothing (or only a per-channel
affine map, i.e. eval-mode batch norm) between them equal one convolution
with the composed kernel. An interior ReLU breaks the algebra, and the
check reports the deviation instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .autograd import ParamStore, Tape, seeded_rng
from .blocks import BlockSpec, make_block, reduce_ratio
from .layers import BatchNormState
from .tensor import ShapeError, check_same_precision


@dataclass(frozen=True)
class RatioReport:
    n_conv: int                 # trunk conv nodes
    n_relu: int                 # trunk ReLU nodes
    ratio: tuple                # reduced N:M over the trunk
    flops_conv: int             # whole graph, per sample
    flops_relu: int
    param_count: int            # trainable parameters
    total_conv: int             # whole graph node counts
    total_relu: int
    # top-level scope (stem, stageN, head) -> [convs, ReLUs, conv FLOPs]
    regions: dict

    @property
    def ratio_text(self) -> str:
        return f"{self.ratio[0]}:{self.ratio[1]}"


def _walk_tape(tape: Tape):
    n_conv = n_relu = flops_relu = 0
    regions = {}
    for node in tape.nodes:
        if node.kind not in ("conv2d", "relu"):
            continue
        # trunk = module convs/ReLUs inside the staged blocks; projection
        # shortcuts are cost (FLOPs/params) but not part of the N:M policy
        in_trunk = node.scope.startswith("stage") and ".skip" not in node.scope
        region = regions.setdefault(node.scope.split(".")[0], [0, 0, 0])
        if node.kind == "conv2d":
            o, c, kh, kw = node.inputs[1].shape
            _, _, oh, ow = node.shape
            region[0] += 1
            region[2] += 2 * kh * kw * c * o * oh * ow
            n_conv += in_trunk
        else:
            _, ch, h, w = node.shape
            flops_relu += ch * h * w
            region[1] += 1
            n_relu += in_trunk
    total_conv, total_relu, flops_conv = (sum(r[i] for r in regions.values()) for i in range(3))
    return n_conv, n_relu, total_conv, total_relu, flops_conv, flops_relu, regions


def audit(target, input_shape=(1, 3, 32, 32), seed: int = 0) -> RatioReport:
    """Count conv/ReLU nodes, their FLOPs, and parameters for a block or model.

    Accepts a :class:`BlockSpec` (audited standalone on a probe input) or
    any object exposing ``forward(x, training=...)`` and a ``store``.
    """
    if isinstance(target, BlockSpec):
        store = ParamStore("double")
        block = make_block(store, "stage0.block0", target, seed=seed)
        tape = Tape(store, training=False)
        rng = seeded_rng(seed, "audit-probe")
        probe = rng.standard_normal((input_shape[0], target.in_channels) + tuple(input_shape[2:]))
        x = tape.constant(probe)
        if target.family == "dfn-merge-run":
            block(tape, (x, x))
        else:
            block(tape, x)
        param_count = store.param_count()
    else:
        store = target.store
        rng = seeded_rng(seed, "audit-probe")
        probe = rng.standard_normal(input_shape).astype(store.dtype)
        _, tape = target.forward(probe, training=False)
        param_count = store.param_count()
    n_conv, n_relu, total_conv, total_relu, flops_conv, flops_relu, regions = _walk_tape(tape)
    return RatioReport(
        n_conv=n_conv,
        n_relu=n_relu,
        ratio=reduce_ratio(n_conv, n_relu),
        flops_conv=flops_conv,
        flops_relu=flops_relu,
        param_count=param_count,
        total_conv=total_conv,
        total_relu=total_relu,
        regions=regions,
    )


# -- linear collapse -----------------------------------------------------------


@dataclass
class CollapseReport:
    kernel: np.ndarray          # composed kernel, OIHW
    bias: np.ndarray            # per-output-channel constant from an affine interior
    padding: int
    max_deviation: float
    collapsible: bool
    interior: str

    def __str__(self):
        verdict = "collapses" if self.collapsible else "does NOT collapse"
        return (f"stack {verdict}: composed kernel {self.kernel.shape}, pad {self.padding}, "
                f"max |stacked - composed| = {self.max_deviation:.3e} (interior: {self.interior})")


def _full_conv2d(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u * v)[s] = sum_{r+q=s} u[r] v[q]; output extent is sums of extents - 1."""
    uh, uw = u.shape
    vh, vw = v.shape
    out = np.zeros((uh + vh - 1, uw + vw - 1), dtype=u.dtype)
    for r in range(uh):
        for c in range(uw):
            out[r:r + vh, c:c + vw] += u[r, c] * v
    return out


def compose_kernels(a: np.ndarray, b: np.ndarray, mid_scale=None) -> np.ndarray:
    """Kernel of the single convolution equal to (b after a).

    For cross-correlations, stacking composes as a plain 2-D convolution of
    the kernels summed over the shared channel: c[o,i] = sum_m b[o,m] * a[m,i].
    ``mid_scale`` folds a per-channel affine scale sitting between the two.
    """
    ma, ic, ah, aw = a.shape
    oc, mb, bh, bw = b.shape
    if mb != ma:
        raise ValueError(f"channel chain broken: first conv yields {ma}, second expects {mb}")
    check_same_precision(a, b)
    scale = np.ones(ma, dtype=a.dtype) if mid_scale is None else np.asarray(mid_scale, dtype=a.dtype)
    composed = np.zeros((oc, ic, ah + bh - 1, aw + bw - 1), dtype=a.dtype)
    for o in range(oc):
        for i in range(ic):
            for m in range(ma):
                composed[o, i] += scale[m] * _full_conv2d(b[o, m], a[m, i])
    return composed


def collapse_check(a: np.ndarray, b: np.ndarray, interior=None,
                   probes: int = 10, input_hw=(8, 8), batch: int = 2,
                   seed: int = 0, threshold: float = 1e-8) -> CollapseReport:
    """Compare a two-conv stack, OIHW kernels ``a`` then ``b``, against its
    composed single convolution. Each conv runs at stride 1 with padding k//2.

    ``interior`` is what sits between the convolutions: None, an eval-mode
    :class:`BatchNormState` (a per-channel affine map, which still folds
    into the composition), or the string ``"relu"`` (composed as if absent,
    so the reported deviation exposes the non-collapse).
    """
    for kernel in (a, b):
        if kernel.ndim != 4:
            raise ShapeError(f"conv kernel must be OIHW rank 4, got shape {kernel.shape}")
    pad_a, pad_b = a.shape[2] // 2, b.shape[2] // 2
    scale = shift = None
    if isinstance(interior, BatchNormState):
        scale, shift = (v.astype(a.dtype) for v in interior.eval_affine())
        interior_kind = "eval-bn"
    elif interior in (None, "none", "relu"):
        interior_kind = interior or "none"
    else:
        raise ValueError(f"unsupported interior {interior!r}")

    composed = compose_kernels(a, b, mid_scale=scale)  # checks the channel chain
    padding = pad_a + pad_b
    bias = np.zeros(b.shape[0], dtype=a.dtype)
    if shift is not None:
        # a constant interior shift turns into a per-output-channel constant
        bias = (b.sum(axis=(2, 3)) @ shift).astype(a.dtype)

    # The second conv zero-fills its input border, while a single composed
    # conv sees the full receptive field there, so the two agree exactly only
    # where the second kernel window stays inside the intermediate map. The
    # probe therefore compares the centered region, cropping kb//2 pixels.
    crop = pad_b
    h, w = input_hw
    if h - 2 * crop < 1 or w - 2 * crop < 1:
        raise ValueError(f"probe extent {input_hw} too small for border crop {crop}")
    sl = np.s_[:, :, crop:h - crop, crop:w - crop]

    rng = seeded_rng(seed, "collapse-probe")
    worst = 0.0
    for _ in range(probes):
        x = rng.standard_normal((batch, a.shape[1], *input_hw)).astype(a.dtype)
        mid = kernels.conv2d(x, a, stride=1, padding=pad_a)
        if interior_kind == "eval-bn":
            mid = mid * scale[None, :, None, None] + shift[None, :, None, None]
        elif interior_kind == "relu":
            mid = kernels.relu(mid)
        stacked = kernels.conv2d(mid, b, stride=1, padding=pad_b)
        direct = kernels.conv2d(x, composed, stride=1, padding=padding) + bias[None, :, None, None]
        worst = max(worst, float(np.abs(stacked[sl] - direct[sl]).max()))

    return CollapseReport(
        kernel=composed,
        bias=bias,
        padding=padding,
        max_deviation=worst,
        collapsible=worst < threshold,
        interior=interior_kind,
    )
