"""Block construction for every module family, driven by declarative specs.

A :class:`BlockSpec` pins down one block: its family, how many convolutions
it stacks, and a boolean mask saying which conv positions keep their ReLU.
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

Merge-and-run blocks carry two residual branches whose skip connections
are averaged and redistributed; ``relu_mask`` describes the edited branch
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


def parse_mask(text: str) -> tuple:
    return tuple(ch == "1" for ch in text)


@dataclass(frozen=True)
class BlockSpec:
    family: str
    conv_count: int
    relu_mask: tuple
    bn_mask: tuple
    pairing: str
    in_channels: int
    out_channels: int
    stride: int = 1
    mid_channels: int | None = None      # bottleneck 1x1 width
    relu_mask_b: tuple | None = None     # merge-run second branch
    bn_mask_b: tuple | None = None
    linear_ok: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown block family {self.family!r}")
        if self.pairing not in PAIRINGS:
            raise ValueError(f"unknown pairing {self.pairing!r}")
        if len(self.relu_mask) != self.conv_count or len(self.bn_mask) != self.conv_count:
            raise ValueError(
                f"mask length must equal conv_count {self.conv_count}: "
                f"relu {format_mask(self.relu_mask)}, bn {format_mask(self.bn_mask)}"
            )
        expected = {"resnet-building": 2, "resnet-preact-building": 2,
                    "resnet-preact-bottleneck": 3, "dfn-merge-run": 2}
        if self.family in expected and self.conv_count != expected[self.family]:
            raise ValueError(f"{self.family} blocks have {expected[self.family]} convs per stack")
        if not any(self.relu_mask) and not any(self.relu_mask_b or ()) and not self.linear_ok:
            raise LinearModuleError(
                f"{self.family}: all ReLUs removed makes a linear module; "
                "pass linear_ok=True to build it anyway (test use only)"
            )
        if self.family == "dfn-merge-run":
            if self.relu_mask_b is None or self.bn_mask_b is None:
                raise ValueError("merge-run blocks need masks for both branches")
        elif self.relu_mask_b is not None:
            raise ValueError("relu_mask_b is only meaningful for merge-run blocks")

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

    @classmethod
    def from_line(cls, line: str) -> "BlockSpec":
        kv = dict(item.split("=", 1) for item in line.split())
        return cls(
            family=kv["family"],
            conv_count=int(kv["convs"]),
            relu_mask=parse_mask(kv["relu"]),
            bn_mask=parse_mask(kv["bn"]),
            pairing=kv["pairing"],
            in_channels=int(kv["in"]),
            out_channels=int(kv["out"]),
            stride=int(kv["stride"]),
            mid_channels=int(kv["mid"]) if "mid" in kv else None,
            relu_mask_b=parse_mask(kv["relu2"]) if "relu2" in kv else None,
            bn_mask_b=parse_mask(kv["bn2"]) if "bn2" in kv else None,
            linear_ok=kv.get("linear_ok") == "1",
        )

    def with_shape(self, in_channels: int, out_channels: int, stride: int,
                   mid_channels=None) -> "BlockSpec":
        return replace(self, in_channels=in_channels, out_channels=out_channels,
                       stride=stride, mid_channels=mid_channels or self.mid_channels)


def _bn_mask_for(relu_mask, drop_bn_with_relu: bool) -> tuple:
    if drop_bn_with_relu:
        return tuple(relu_mask)
    return tuple(True for _ in relu_mask)


def build_plain_module(ratio, pairing: str = "post", *, in_channels: int = 16,
                       out_channels: int = 16, stride: int = 1,
                       linear_ok: bool = False, drop_bn_with_relu: bool = False) -> BlockSpec:
    """N:M conv:ReLU stack for plain networks.

    The 2:1 module keeps only the trailing ReLU of each conv pair; in
    general the first N-M positions of the reduced ratio lose theirs. The
    paired 1:1 module is realized as the conventional two-conv stack with
    both ReLUs present. M = 0 is the degenerate all-linear stack and is
    rejected unless explicitly allowed.
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
        conv_count, relus = 2, (m == 1) * 2
        mask = (True,) * relus + (False,) * (2 - relus)
    else:
        conv_count = n
        mask = (False,) * (n - m) + (True,) * m
    return BlockSpec(
        family="plain-stack",
        conv_count=conv_count,
        relu_mask=mask,
        bn_mask=_bn_mask_for(mask, drop_bn_with_relu),
        pairing=pairing,
        in_channels=in_channels,
        out_channels=out_channels,
        stride=stride,
        linear_ok=linear_ok,
    )


_BUILDING_MASKS = {"none": (True, True), "first": (False, True), "second": (True, False)}


def build_preact_building(removal: str = "none", *, in_channels: int = 16,
                          out_channels: int = 16, stride: int = 1,
                          drop_bn_with_relu: bool = False) -> BlockSpec:
    """Identity-skip building block with BN -> ReLU -> conv twice.

    ``removal='first'`` deletes the ReLU ahead of conv 1 (the 2:1 variant),
    ``'second'`` the one ahead of conv 2.
    """
    if removal not in _BUILDING_MASKS:
        raise ValueError(f"removal must be one of {sorted(_BUILDING_MASKS)}, got {removal!r}")
    mask = _BUILDING_MASKS[removal]
    return BlockSpec(
        family="resnet-preact-building",
        conv_count=2,
        relu_mask=mask,
        bn_mask=_bn_mask_for(mask, drop_bn_with_relu),
        pairing="pre",
        in_channels=in_channels,
        out_channels=out_channels,
        stride=stride,
    )


def build_postact_building(removal: str = "none", *, in_channels: int = 16,
                           out_channels: int = 16, stride: int = 1,
                           drop_bn_with_relu: bool = False) -> BlockSpec:
    """conv -> BN -> ReLU -> conv -> BN residual block with post-add ReLU.

    Position 0 is the mid-block ReLU, position 1 the ReLU after the skip
    addition; either may be removed.
    """
    if removal not in _BUILDING_MASKS:
        raise ValueError(f"removal must be one of {sorted(_BUILDING_MASKS)}, got {removal!r}")
    mask = _BUILDING_MASKS[removal]
    return BlockSpec(
        family="resnet-building",
        conv_count=2,
        relu_mask=mask,
        bn_mask=_bn_mask_for(mask, drop_bn_with_relu),
        pairing="post",
        in_channels=in_channels,
        out_channels=out_channels,
        stride=stride,
    )


def build_preact_bottleneck(removal_type: int = 0, *, in_channels: int = 16,
                            mid_channels: int = 16, out_channels: int = 64,
                            stride: int = 1, drop_bn_with_relu: bool = False) -> BlockSpec:
    """1x1 / 3x3 / 1x1 pre-activation bottleneck.

    ``removal_type`` 0 keeps all three ReLUs (1:1); types 1-3 remove the
    first, second, or third, giving the 3:2 variants.
    """
    if removal_type not in (0, 1, 2, 3):
        raise ValueError(f"removal_type must be 0..3, got {removal_type}")
    mask = tuple(i != removal_type - 1 for i in range(3))
    return BlockSpec(
        family="resnet-preact-bottleneck",
        conv_count=3,
        relu_mask=mask,
        bn_mask=_bn_mask_for(mask, drop_bn_with_relu),
        pairing="pre",
        in_channels=in_channels,
        out_channels=out_channels,
        mid_channels=mid_channels,
        stride=stride,
    )


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
    if removal not in _MERGE_RUN_MASKS:
        raise ValueError(f"removal must be one of {sorted(_MERGE_RUN_MASKS)}, got {removal!r}")
    mask = _MERGE_RUN_MASKS[removal]
    paired = (True, True)
    return BlockSpec(
        family="dfn-merge-run",
        conv_count=2,
        relu_mask=mask,
        bn_mask=_bn_mask_for(mask, drop_bn_with_relu),
        pairing="post",
        in_channels=in_channels,
        out_channels=out_channels,
        stride=stride,
        relu_mask_b=paired,
        bn_mask_b=_bn_mask_for(paired, drop_bn_with_relu),
    )


# -- forward assembly ---------------------------------------------------------


class _Branch:
    """conv/BN/ReLU chain for one mask, shared by all single-path families."""

    def __init__(self, store, name, spec: BlockSpec, relu_mask, bn_mask, seed,
                 kernel_sizes, channel_chain, stride_position):
        self.name = name
        self.relu_mask = relu_mask
        self.convs = []
        self.bns = []
        for i in range(spec.conv_count):
            stride = spec.stride if i == stride_position else 1
            self.convs.append(Conv2d(store, f"{name}.conv{i + 1}", channel_chain[i],
                                     channel_chain[i + 1], kernel_sizes[i], stride=stride, seed=seed))
            if spec.pairing == "pre":
                bn_channels = channel_chain[i]
            else:
                bn_channels = channel_chain[i + 1]
            self.bns.append(BatchNorm2d(store, f"{name}.bn{i + 1}", bn_channels)
                            if bn_mask[i] else None)

    def pre_step(self, tape, x, i):
        if self.bns[i] is not None:
            x = self.bns[i](tape, x)
        if self.relu_mask[i]:
            x = tape.relu(x)
        return self.convs[i](tape, x)

    def post_step(self, tape, x, i, defer_relu=False):
        x = self.convs[i](tape, x)
        if self.bns[i] is not None:
            x = self.bns[i](tape, x)
        if self.relu_mask[i] and not defer_relu:
            x = tape.relu(x)
        return x


def _channel_chain(spec: BlockSpec):
    if spec.family == "resnet-preact-bottleneck":
        mid = spec.mid_channels if spec.mid_channels is not None else spec.out_channels // 4
        return (spec.in_channels, mid, mid, spec.out_channels)
    chain = [spec.in_channels] + [spec.out_channels] * spec.conv_count
    return tuple(chain)


def _kernel_sizes(spec: BlockSpec):
    if spec.family == "resnet-preact-bottleneck":
        return (1, 3, 1)
    return (3,) * spec.conv_count


class PlainStack:
    """Straight conv stack, no skip; the module the plain networks tile."""

    def __init__(self, store: ParamStore, name: str, spec: BlockSpec, seed: int = 0):
        self.name = name
        self.spec = spec
        self.branch = _Branch(store, name, spec, spec.relu_mask, spec.bn_mask, seed,
                              _kernel_sizes(spec), _channel_chain(spec), stride_position=0)

    def __call__(self, tape: Tape, x):
        with tape.scope(self.name):
            for i in range(self.spec.conv_count):
                if self.spec.pairing == "pre":
                    x = self.branch.pre_step(tape, x, i)
                else:
                    x = self.branch.post_step(tape, x, i)
        return x


class _Shortcut:
    """Identity, or a 1x1 projection conv when shape changes."""

    def __init__(self, store, name, in_channels, out_channels, stride, seed, with_bn):
        self.proj = None
        self.bn = None
        if stride != 1 or in_channels != out_channels:
            self.proj = Conv2d(store, f"{name}.proj", in_channels, out_channels,
                               kernel_size=1, stride=stride, padding=0, seed=seed)
            if with_bn:
                self.bn = BatchNorm2d(store, f"{name}.proj_bn", out_channels)

    def __call__(self, tape, x):
        if self.proj is None:
            return x
        # scoped so ratio accounting can tell skip plumbing from module convs
        with tape.scope("skip"):
            x = self.proj(tape, x)
            if self.bn is not None:
                x = self.bn(tape, x)
        return x


class PreActBuilding:
    stride_position = 0

    def __init__(self, store: ParamStore, name: str, spec: BlockSpec, seed: int = 0):
        self.name = name
        self.spec = spec
        self.branch = _Branch(store, name, spec, spec.relu_mask, spec.bn_mask, seed,
                              _kernel_sizes(spec), _channel_chain(spec),
                              stride_position=self.stride_position)
        self.shortcut = _Shortcut(store, name, spec.in_channels, spec.out_channels,
                                  spec.stride, seed, with_bn=False)

    def __call__(self, tape: Tape, x):
        with tape.scope(self.name):
            h = x
            for i in range(self.spec.conv_count):
                h = self.branch.pre_step(tape, h, i)
            return tape.add(h, self.shortcut(tape, x))


class PreActBottleneck(PreActBuilding):
    """Same pre-activation wiring, three convs with a 1x1/3x3/1x1 chain."""

    stride_position = 1  # stride lives on the 3x3 conv


class PostActBuilding:
    def __init__(self, store: ParamStore, name: str, spec: BlockSpec, seed: int = 0):
        self.name = name
        self.spec = spec
        self.branch = _Branch(store, name, spec, spec.relu_mask, spec.bn_mask, seed,
                              _kernel_sizes(spec), _channel_chain(spec), stride_position=0)
        self.shortcut = _Shortcut(store, name, spec.in_channels, spec.out_channels,
                                  spec.stride, seed, with_bn=True)

    def __call__(self, tape: Tape, x):
        with tape.scope(self.name):
            h = self.branch.post_step(tape, x, 0)
            h = self.branch.post_step(tape, h, 1, defer_relu=True)
            out = tape.add(h, self.shortcut(tape, x))
            if self.spec.relu_mask[1]:
                out = tape.relu(out)
        return out


class MergeRunBlock:
    """Two residual branches; skips are averaged and fed back to both."""

    def __init__(self, store: ParamStore, name: str, spec: BlockSpec, seed: int = 0):
        self.name = name
        self.spec = spec
        chain = _channel_chain(spec)
        sizes = _kernel_sizes(spec)
        self.branch_a = _Branch(store, f"{name}.branch1", spec, spec.relu_mask,
                                spec.bn_mask, seed, sizes, chain, stride_position=0)
        self.branch_b = _Branch(store, f"{name}.branch2", spec, spec.relu_mask_b,
                                spec.bn_mask_b, seed, sizes, chain, stride_position=0)
        self.skip = _Shortcut(store, name, spec.in_channels, spec.out_channels,
                              spec.stride, seed, with_bn=True)

    def _run_branch(self, tape, branch, x, skip):
        h = branch.post_step(tape, x, 0)
        h = branch.post_step(tape, h, 1, defer_relu=True)
        out = tape.add(h, skip)
        if branch.relu_mask[1]:
            out = tape.relu(out)
        return out

    def __call__(self, tape: Tape, pair):
        x_a, x_b = pair
        with tape.scope(self.name):
            merged = tape.scale(tape.add(x_a, x_b), 0.5)
            skip = self.skip(tape, merged)
            y_a = self._run_branch(tape, self.branch_a, x_a, skip)
            y_b = self._run_branch(tape, self.branch_b, x_b, skip)
        return y_a, y_b


_BLOCK_CLASSES = {
    "plain-stack": PlainStack,
    "resnet-building": PostActBuilding,
    "resnet-preact-building": PreActBuilding,
    "resnet-preact-bottleneck": PreActBottleneck,
    "dfn-merge-run": MergeRunBlock,
}


def make_block(store: ParamStore, name: str, spec: BlockSpec, seed: int = 0):
    return _BLOCK_CLASSES[spec.family](store, name, spec, seed)
