"""Block construction for every module family, driven by declarative specs.

A :class:`BlockSpec` pins down one block: its family, its shape, and a
boolean mask saying which conv positions keep their ReLU; the mask's length
is the number of convolutions it stacks, and the BN masks follow from it.
A paired block has every mask entry true (1:1 conv:ReLU); clearing entries
yields the proportional variants. Removing a ReLU never touches parameter
shapes, which is what makes the zero-extra-cost audit meaningful; the
optional ``drop_bn_with_relu`` flag additionally removes the batch norm
adjacent to each removed ReLU, the configuration under which two stacked
convolutions legally collapse into one.

Mask position conventions (position i belongs to conv i):
  * post pairing: the ReLU following conv i (for residual post blocks,
    position ``conv_count - 1`` is the ReLU after the skip addition);
  * pre pairing: the BN -> ReLU pair preceding conv i.

One :class:`Block` class runs every family. Its conv branch walks the convs
in pre-activation order (BN -> ReLU -> conv) or post-activation order
(conv -> BN -> ReLU); the two differ only in that order. Residual families
add a skip, an identity or a 1x1 projection (with its own BN for post
pairing), and a post-activation branch applies its last ReLU after that
addition. Merge-and-run blocks carry two such branches whose inputs are
averaged into one shared skip; ``relu_mask`` describes the edited branch
(index 0) and ``relu_mask_b`` the untouched one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

from .autograd import ParamStore, Tape
from .layers import BatchNorm2d, Conv2d

FAMILIES = (
    "plain-stack",
    "resnet-building",
    "resnet-preact-building",
    "resnet-preact-bottleneck",
    "dfn-merge-run",
)

PAIRINGS = ("post", "pre")


class LinearModuleError(ValueError):
    """All ReLUs removed: the stack degenerates to a linear module."""


def parse_ratio(ratio) -> tuple:
    """Accept 'N:M' strings or (N, M) pairs; returns the raw pair."""
    if isinstance(ratio, str):
        parts = ratio.split(":")
        if len(parts) != 2:
            raise ValueError(f"ratio must look like 'N:M', got {ratio!r}")
        return int(parts[0]), int(parts[1])
    n, m = ratio
    return int(n), int(m)


def reduce_ratio(n: int, m: int) -> tuple:
    g = gcd(n, m)
    return (n // g, m // g) if g else (n, m)


def format_mask(mask) -> str:
    return "".join("1" if bit else "0" for bit in mask)


@dataclass(frozen=True)
class BlockSpec:
    family: str
    relu_mask: tuple
    pairing: str
    in_channels: int
    out_channels: int
    stride: int = 1
    mid_channels: int | None = None      # bottleneck 1x1 width
    drop_bn_with_relu: bool = False
    linear_ok: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown block family {self.family!r}")
        if self.pairing not in PAIRINGS:
            raise ValueError(f"unknown pairing {self.pairing!r}")
        expected = {"resnet-building": 2, "resnet-preact-building": 2,
                    "resnet-preact-bottleneck": 3, "dfn-merge-run": 2}
        if self.family in expected and self.conv_count != expected[self.family]:
            raise ValueError(f"{self.family} blocks have {expected[self.family]} convs per stack")
        if not any(self.relu_mask) and not any(self.relu_mask_b or ()) and not self.linear_ok:
            raise LinearModuleError(
                f"{self.family}: all ReLUs removed makes a linear module; "
                "pass linear_ok=True to build it anyway (test use only)"
            )

    @property
    def conv_count(self) -> int:
        return len(self.relu_mask)

    @property
    def bn_mask(self) -> tuple:
        """Each conv's BN stays unless ``drop_bn_with_relu`` removes it with its ReLU."""
        return self.relu_mask if self.drop_bn_with_relu else (True,) * self.conv_count

    @property
    def relu_mask_b(self) -> tuple | None:
        """The merge-and-run second branch, always paired; None for other families."""
        return (True, True) if self.family == "dfn-merge-run" else None

    @property
    def bn_mask_b(self) -> tuple | None:
        return self.relu_mask_b

    def to_line(self) -> str:
        fields = [
            f"family={self.family}",
            f"convs={self.conv_count}",
            f"relu={format_mask(self.relu_mask)}",
            f"bn={format_mask(self.bn_mask)}",
            f"pairing={self.pairing}",
            f"in={self.in_channels}",
            f"out={self.out_channels}",
            f"stride={self.stride}",
        ]
        if self.mid_channels is not None:
            fields.append(f"mid={self.mid_channels}")
        if self.relu_mask_b is not None:
            fields.append(f"relu2={format_mask(self.relu_mask_b)}")
            fields.append(f"bn2={format_mask(self.bn_mask_b)}")
        if self.linear_ok:
            fields.append("linear_ok=1")
        return " ".join(fields)

    def with_shape(self, in_channels: int, out_channels: int, stride: int,
                   mid_channels=None) -> "BlockSpec":
        return replace(self, in_channels=in_channels, out_channels=out_channels,
                       stride=stride, mid_channels=mid_channels or self.mid_channels)


def _spec(family: str, masks: dict, removal, drop_bn_with_relu: bool,
          allowed: str | None = None, **fields) -> BlockSpec:
    """The spec whose ``relu_mask`` is ``masks[removal]``."""
    if removal not in masks:
        raise ValueError(f"{allowed or f'removal must be one of {sorted(masks)}'}, got {removal!r}")
    return BlockSpec(family=family, relu_mask=masks[removal],
                     drop_bn_with_relu=drop_bn_with_relu, **fields)


def build_plain_module(ratio, pairing: str = "post", *, in_channels: int = 16,
                       out_channels: int = 16, stride: int = 1,
                       linear_ok: bool = False, drop_bn_with_relu: bool = False) -> BlockSpec:
    """N:M conv:ReLU stack for plain networks.

    The 2:1 module keeps only the trailing ReLU of each conv pair; in
    general the first N-M positions of the reduced ratio lose theirs. A
    reduced N of 1 is realized as two convs (2:2M): the paired 1:1 module is
    the conventional two-conv stack with both ReLUs present. M = 0 is the
    degenerate all-linear stack and is rejected unless explicitly allowed.
    """
    n, m = parse_ratio(ratio)
    if not (n >= m >= 0):
        raise ValueError(f"ratio requires N >= M >= 0, got {n}:{m}")
    if n > 4:
        raise ValueError(f"ratio N is capped at 4, got {n}")
    if n == 0:
        raise ValueError("ratio N must be positive")
    if m == 0 and not linear_ok:
        raise LinearModuleError(
            f"ratio {n}:0 removes every ReLU: the stack becomes a linear module"
        )
    n, m = reduce_ratio(n, m)
    if n == 1:
        n, m = 2, 2 * m
    mask = (False,) * (n - m) + (True,) * m
    return _spec("plain-stack", {(n, m): mask}, (n, m), drop_bn_with_relu, pairing=pairing,
                 in_channels=in_channels, out_channels=out_channels, stride=stride,
                 linear_ok=linear_ok)


_BUILDING_MASKS = {"none": (True, True), "first": (False, True), "second": (True, False)}


def build_preact_building(removal: str = "none", *, in_channels: int = 16,
                          out_channels: int = 16, stride: int = 1,
                          drop_bn_with_relu: bool = False) -> BlockSpec:
    """Identity-skip building block with BN -> ReLU -> conv twice.

    ``removal='first'`` deletes the ReLU ahead of conv 1 (the 2:1 variant),
    ``'second'`` the one ahead of conv 2.
    """
    return _spec("resnet-preact-building", _BUILDING_MASKS, removal, drop_bn_with_relu,
                 pairing="pre", in_channels=in_channels, out_channels=out_channels,
                 stride=stride)


def build_postact_building(removal: str = "none", *, in_channels: int = 16,
                           out_channels: int = 16, stride: int = 1,
                           drop_bn_with_relu: bool = False) -> BlockSpec:
    """conv -> BN -> ReLU -> conv -> BN residual block with post-add ReLU.

    Position 0 is the mid-block ReLU, position 1 the ReLU after the skip
    addition; either may be removed.
    """
    return _spec("resnet-building", _BUILDING_MASKS, removal, drop_bn_with_relu,
                 pairing="post", in_channels=in_channels, out_channels=out_channels,
                 stride=stride)


_BOTTLENECK_MASKS = {t: tuple(i != t - 1 for i in range(3)) for t in range(4)}


def build_preact_bottleneck(removal_type: int = 0, *, in_channels: int = 16,
                            mid_channels: int = 16, out_channels: int = 64,
                            stride: int = 1, drop_bn_with_relu: bool = False) -> BlockSpec:
    """1x1 / 3x3 / 1x1 pre-activation bottleneck.

    ``removal_type`` 0 keeps all three ReLUs (1:1); types 1-3 remove the
    first, second, or third, giving the 3:2 variants.
    """
    return _spec("resnet-preact-bottleneck", _BOTTLENECK_MASKS, removal_type,
                 drop_bn_with_relu, "removal_type must be 0..3", pairing="pre",
                 in_channels=in_channels, out_channels=out_channels,
                 mid_channels=mid_channels, stride=stride)


_MERGE_RUN_MASKS = {"none": (True, True), "type1": (True, False), "type2": (False, True)}


def build_merge_run(removal: str = "none", *, in_channels: int = 16,
                    out_channels: int = 16, stride: int = 1,
                    drop_bn_with_relu: bool = False) -> BlockSpec:
    """Dual-branch residual block with averaged-and-redistributed skips.

    Each branch runs conv -> BN -> ReLU -> conv -> BN, adds the averaged
    skip, and applies a trailing ReLU. ``type1`` removes the ReLU after the
    elementwise add in branch 0; ``type2`` removes the one before it (the
    mid-branch ReLU). Branch 1 always stays paired.
    """
    return _spec("dfn-merge-run", _MERGE_RUN_MASKS, removal, drop_bn_with_relu,
                 pairing="post", in_channels=in_channels, out_channels=out_channels,
                 stride=stride)


# -- forward assembly ---------------------------------------------------------


class _Branch:
    """One conv chain under one mask, walked in pre- or post-activation order."""

    def __init__(self, store, name, spec: BlockSpec, relu_mask, bn_mask, seed):
        self.pre = spec.pairing == "pre"
        self.relu_mask = relu_mask
        if spec.family == "resnet-preact-bottleneck":
            mid = spec.mid_channels if spec.mid_channels is not None else spec.out_channels // 4
            chain, sizes = (spec.in_channels, mid, mid, spec.out_channels), (1, 3, 1)
        else:
            chain = (spec.in_channels,) + (spec.out_channels,) * spec.conv_count
            sizes = (3,) * spec.conv_count
        self.layers = []
        for i, size in enumerate(sizes):
            # the first 3x3 conv takes the stride: the only one, or the bottleneck's middle
            stride = spec.stride if i == sizes.index(3) else 1
            conv = Conv2d(store, f"{name}.conv{i + 1}", chain[i], chain[i + 1], size,
                          stride=stride, seed=seed)
            # pre-activation normalizes the conv's input, post-activation its output
            bn = (BatchNorm2d(store, f"{name}.bn{i + 1}", chain[i if self.pre else i + 1])
                  if bn_mask[i] else None)
            self.layers.append((conv, bn))

    def __call__(self, tape: Tape, x, skip=None):
        """Walk the convs, then add ``skip()`` if given; a post-activation
        branch applies its last ReLU after that addition."""
        last = len(self.layers) - 1
        deferred = skip is not None and not self.pre
        for i, (conv, bn) in enumerate(self.layers):
            if not self.pre:
                x = conv(tape, x)
            if bn is not None:
                x = bn(tape, x)
            if self.relu_mask[i] and not (deferred and i == last):
                x = tape.relu(x)
            if self.pre:
                x = conv(tape, x)
        if skip is not None:
            x = tape.add(x, skip())
            if deferred and self.relu_mask[last]:
                x = tape.relu(x)
        return x


class Block:
    """Any family: one conv branch (two for merge-and-run), plus a residual skip."""

    def __init__(self, store: ParamStore, name: str, spec: BlockSpec, seed: int = 0):
        self.name = name
        self.spec = spec
        masks = [(spec.relu_mask, spec.bn_mask), (spec.relu_mask_b, spec.bn_mask_b)]
        if spec.family == "dfn-merge-run":
            self.branches = [_Branch(store, f"{name}.branch{k}", spec, *pair, seed)
                             for k, pair in enumerate(masks, 1)]
        else:
            self.branches = [_Branch(store, name, spec, *masks[0], seed)]
        self.residual = spec.family != "plain-stack"
        self.proj = self.proj_bn = None
        if self.residual and (spec.stride != 1 or spec.in_channels != spec.out_channels):
            self.proj = Conv2d(store, f"{name}.proj", spec.in_channels, spec.out_channels,
                               kernel_size=1, stride=spec.stride, seed=seed)
            if spec.pairing == "post":
                self.proj_bn = BatchNorm2d(store, f"{name}.proj_bn", spec.out_channels)

    def _skip(self, tape: Tape, x):
        """Identity, or the 1x1 projection when the shape changes."""
        if self.proj is None:
            return x
        # scoped so ratio accounting can tell skip plumbing from module convs
        with tape.scope("skip"):
            x = self.proj(tape, x)
            return x if self.proj_bn is None else self.proj_bn(tape, x)

    def __call__(self, tape: Tape, x):
        with tape.scope(self.name):
            if len(self.branches) == 2:
                # merge-and-run: the averaged inputs make one skip shared by both branches
                skip = self._skip(tape, tape.scale(tape.add(*x), 0.5))
                return tuple(branch(tape, xi, lambda: skip)
                             for branch, xi in zip(self.branches, x))
            skip = (lambda: self._skip(tape, x)) if self.residual else None
            return self.branches[0](tape, x, skip)


def make_block(store: ParamStore, name: str, spec: BlockSpec, seed: int = 0) -> Block:
    return Block(store, name, spec, seed)
