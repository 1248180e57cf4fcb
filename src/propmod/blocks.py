"""Block construction for every module family, driven by declarative specs.

A :class:`BlockSpec` pins down one block: its family, its shape, and a
boolean mask saying which conv positions keep their ReLU; the mask's length
is the number of convolutions it stacks, and the BN masks follow from it.
A paired block has every mask entry true (1:1 conv:ReLU); clearing entries
yields the proportional variants. :func:`block_spec` makes the spec of a
family and a variant, and ``VARIANTS`` lists the masks of every family but
the plain stack. Removing a ReLU never touches parameter shapes, which is
what makes the zero-extra-cost audit meaningful; the optional
``drop_bn_with_relu`` flag additionally removes the batch norm adjacent to
each removed ReLU, the configuration under which two stacked convolutions
legally collapse into one.

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

PAIRINGS = ("post", "pre")

# Each non-plain block family's pairing and the ReLU mask of each of its
# variants, the paired "none" first. Building blocks' "first" and "second" drop
# the ReLU of mask position 0 or 1: in a post-activation block, position 1 is
# the ReLU after the skip addition. The bottleneck's types 1-3 drop its first,
# second or third ReLU (the 3:2 variants). Merge-and-run's "type1" drops branch
# 0's ReLU after the addition and "type2" the one before it (mid-branch).
VARIANTS = {
    "resnet-building": ("post", {"none": (True, True), "first": (False, True),
                                 "second": (True, False)}),
    "resnet-preact-building": ("pre", {"none": (True, True), "first": (False, True),
                                       "second": (True, False)}),
    "resnet-preact-bottleneck": ("pre", {"none": (True, True, True), "1": (False, True, True),
                                         "2": (True, False, True), "3": (True, True, False)}),
    "dfn-merge-run": ("post", {"none": (True, True), "type1": (True, False),
                               "type2": (False, True)}),
}


class LinearModuleError(ValueError):
    """All ReLUs removed: the stack degenerates to a linear module."""


def parse_ratio(ratio: str) -> tuple:
    """The raw (N, M) pair of an 'N:M' string."""
    parts = ratio.split(":")
    if len(parts) != 2:
        raise ValueError(f"ratio must look like 'N:M', got {ratio!r}")
    return int(parts[0]), int(parts[1])


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
        if self.family != "plain-stack" and self.family not in VARIANTS:
            raise ValueError(f"unknown block family {self.family!r}")
        if self.pairing not in PAIRINGS:
            raise ValueError(f"unknown pairing {self.pairing!r}")
        if self.family in VARIANTS:
            pairing, masks = VARIANTS[self.family]
            if self.pairing != pairing:
                raise ValueError(f"{self.family} blocks take {pairing} pairing, "
                                 f"got {self.pairing!r}")
            if self.conv_count != len(masks["none"]):
                raise ValueError(f"{self.family} blocks have {len(masks['none'])} convs per stack")
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


def block_spec(family: str, variant: str, pairing: str | None = None, *,
               in_channels: int = 16, out_channels: int = 16, stride: int = 1,
               mid_channels: int | None = None, drop_bn_with_relu: bool = False,
               linear_ok: bool = False) -> BlockSpec:
    """The spec of one ``family`` block with the ReLUs that ``variant`` keeps.

    A plain stack's variant is an N:M conv:ReLU ratio: the first N-M positions
    of the reduced ratio lose their ReLU, so 2:1 keeps only the trailing ReLU
    of each conv pair. A reduced N of 1 is realized as two convs (2:2M), so
    the paired 1:1 module is the conventional two-conv stack. M = 0 is the
    degenerate all-linear stack, refused unless ``linear_ok``. The plain stack
    takes either pairing (default post). Any other family's variant names one
    of its ``VARIANTS`` masks, and its pairing is the one listed there: any
    other is refused.
    """
    if family == "plain-stack":
        n, m = parse_ratio(variant)
        if not (4 >= n >= max(m, 1) and m >= 0):
            raise ValueError(f"plain-stack ratio must be N:M with 1 <= N <= 4 and "
                             f"0 <= M <= N, got {variant!r}")
        if m == 0 and not linear_ok:
            raise LinearModuleError(
                f"ratio {n}:0 removes every ReLU: the stack becomes a linear module"
            )
        n, m = reduce_ratio(n, m)
        if n == 1:
            n, m = 2, 2 * m
        relu_mask = (False,) * (n - m) + (True,) * m
        own = "post"
    elif family in VARIANTS:
        own, masks = VARIANTS[family]
        if variant not in masks:
            raise ValueError(f"{family} removal must be one of {', '.join(masks)}; "
                             f"got {variant!r}")
        relu_mask = masks[variant]
    else:
        raise ValueError(f"unknown block family {family!r}")
    return BlockSpec(family, relu_mask, pairing or own, in_channels, out_channels, stride,
                     mid_channels, drop_bn_with_relu, linear_ok)


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
