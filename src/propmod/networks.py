"""Assembles complete networks from block specs, at any supported depth.

Depth counts weighted layers on a path: the stem conv, every trunk conv
(one branch for merge-and-run blocks), and the classifier. Two-conv-block
families therefore satisfy depth = 6n + 2 for n blocks per stage, and the
three-conv bottleneck depth = 9n + 2. Projection shortcuts at stage
boundaries carry parameters but, per the usual convention, do not count
toward depth.

The plain family at depth 84 does not fit 6n + 2; it is realized as custom
per-stage module counts (14, 14, 13) totaling 82 trunk convs, and the
manifest records that note.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import ParamStore, Tape
from .blocks import Block, BlockSpec, block_spec
from .layers import BatchNorm2d, Conv2d, Linear, softmax_cross_entropy

# the block family each network family stacks
_BLOCK_FAMILIES = {"plain": "plain-stack", "resnet-preact": "resnet-preact-building",
                   "resnet-preact-bottleneck": "resnet-preact-bottleneck",
                   "dfn-mr1": "dfn-merge-run"}
FAMILIES = tuple(_BLOCK_FAMILIES)

_PLAIN_84_STAGES = (14, 14, 13)


class DepthError(ValueError):
    """Requested depth is inconsistent with the family's block size."""


@dataclass(frozen=True)
class NetworkConfig:
    family: str
    depth: int | None = None
    num_classes: int = 10
    stage_widths: tuple = (16, 32, 64)
    stage_blocks: tuple | None = None    # overrides depth when given
    ratio: str = "1:1"                   # plain family only
    removal: str = "none"                # residual/merge families only
    pairing: str = "post"                # plain family only
    drop_bn_with_relu: bool = False
    seed: int = 0
    precision: str = "single"
    # the shape-free spec of every block; building it refuses a variant the family lacks
    template: BlockSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.num_classes not in (10, 100):
            raise ValueError(f"num_classes must be 10 or 100, got {self.num_classes}")
        if len(self.stage_widths) != 3:
            raise ValueError("stage_widths must name three stages")
        if self.depth is None and self.stage_blocks is None:
            raise ValueError("give either a depth or explicit stage_blocks")
        # each family has one ReLU variant field, whose default is its paired
        # module; the other fields must keep their defaults
        plain = self.family == "plain"
        for name in ("removal",) if plain else ("ratio", "pairing"):
            default = getattr(NetworkConfig, name)
            if getattr(self, name) != default:
                raise ValueError(f"the {self.family} family has no {name} setting: "
                                 f"got {getattr(self, name)!r}, expected {default!r}")
        object.__setattr__(self, "template", block_spec(
            _BLOCK_FAMILIES[self.family], self.ratio if plain else self.removal,
            self.pairing if plain else None, drop_bn_with_relu=self.drop_bn_with_relu))

    @property
    def variant(self) -> str | None:
        """The ReLU variant: the plain family's ratio, another's removal; None if
        it is the field's default, the paired module."""
        name = "ratio" if self.family == "plain" else "removal"
        value = getattr(self, name)
        return None if value == getattr(NetworkConfig, name) else value


def resolve_stage_blocks(cfg: NetworkConfig):
    """Per-stage block counts for the requested depth, plus an optional note."""
    if cfg.stage_blocks is not None:
        return tuple(cfg.stage_blocks), None
    convs = cfg.template.conv_count
    span = 3 * convs
    if cfg.family == "plain" and cfg.depth == 84 and convs == 2:
        note = "depth 84 is not 6n+2; realized as stage module counts (14,14,13)"
        return _PLAIN_84_STAGES, note
    trunk = cfg.depth - 2
    if trunk <= 0 or trunk % span != 0:
        lower = max(trunk // span, 1) * span + 2
        raise DepthError(
            f"depth {cfg.depth} invalid for family {cfg.family!r} "
            f"(needs {span}n+2); nearest valid depths are {lower} and {lower + span}"
        )
    n = trunk // span
    return (n, n, n), None


class Model:
    """Built network: layer tree plus its parameter store."""

    def __init__(self, cfg: NetworkConfig, store: ParamStore, stem, stages, head,
                 depth_note=None):
        self.cfg = cfg
        self.store = store
        self.stem = stem            # (conv, bn-or-None)
        self.stages = stages        # list of lists of block objects
        self.head = head            # (bn-or-None, linear)
        self.depth_note = depth_note

    def forward_on(self, tape: Tape, x) -> "Node":
        """Logits of ``x``, recorded on ``tape``.

        On a tape whose ``block_inputs`` is a list (``gradcheck``'s), each
        call appends to it a dict from ``"stem"``, every block's name
        (``stageS.blockB``) and ``"head"`` to the node that entered it, a
        pair for dfn-mr1; any other tape keeps no block input alive beyond
        its last reader. On a tape made with
        ``resume=(base_tape, param_name)`` (``gradcheck``'s perturbed
        evaluations) the walk starts at the block that owns ``param_name``
        (``head.*`` at the head), from that block's input as the same call
        on ``base_tape`` recorded it, held as a constant: the blocks before
        it do not read the parameter. ``stem.*`` and names that match no
        block run the whole forward.
        """
        steps = [("stem", self._stem)]
        steps += [(block.name, block) for stage in self.stages for block in stage]
        steps.append(("head", self._head))
        start = 0
        if tape.resume is not None:
            base, param_name = tape.resume
            start = next((i for i, (name, _) in enumerate(steps)
                          if param_name.startswith(name + ".")), 0)
        if start == 0:
            # a copy: the tape freezes what it holds, and the caller's array stays theirs
            carry = tape.constant(np.array(x, dtype=self.store.dtype))
        else:
            # this call's twin on the base tape has the same ordinal
            cached = base.block_inputs[len(tape.block_inputs)][steps[start][0]]
            carry = (tuple(tape.constant(n.data) for n in cached) if isinstance(cached, tuple)
                     else tape.constant(cached.data))
        kept = tape.block_inputs
        if kept is not None:
            kept.append({})
        for name, step in steps[start:]:
            if kept is not None:
                kept[-1][name] = carry
            carry = step(tape, carry)
        return carry

    def _stem(self, tape: Tape, node):
        stem_conv, stem_bn = self.stem
        with tape.scope("stem"):
            node = stem_conv(tape, node)
            if stem_bn is not None:
                node = stem_bn(tape, node)
                node = tape.relu(node)
        # merge-and-run blocks carry a pair of streams
        return (node, node) if self.cfg.family == "dfn-mr1" else node

    def _head(self, tape: Tape, node):
        head_bn, fc = self.head
        with tape.scope("head"):
            if isinstance(node, tuple):
                node = tape.scale(tape.add(*node), 0.5)
            if head_bn is not None:
                node = head_bn(tape, node)
                node = tape.relu(node)
            return fc(tape, tape.global_avg_pool(node))

    def forward(self, x, training: bool = False):
        tape = Tape(self.store, training=training)
        return self.forward_on(tape, x), tape

    def loss(self, x, labels, training: bool = True):
        tape = Tape(self.store, training=training)
        logits = self.forward_on(tape, x)
        return softmax_cross_entropy(tape, logits, labels), logits, tape

    def loss_builder(self, x, labels):
        """Closure for gradcheck: rebuilds the loss on any given tape."""
        def build(tape: Tape):
            return softmax_cross_entropy(tape, self.forward_on(tape, x), labels)
        return build


def build_network(cfg: NetworkConfig) -> Model:
    template = cfg.template
    stage_blocks, note = resolve_stage_blocks(cfg)
    store = ParamStore(cfg.precision)
    seed = cfg.seed

    is_pre = template.pairing == "pre"
    stem_width = cfg.stage_widths[0]
    stem_conv = Conv2d(store, "stem.conv", 3, stem_width, 3, stride=1, seed=seed)
    stem_bn = None if is_pre else BatchNorm2d(store, "stem.bn", stem_width)

    bottleneck = cfg.family == "resnet-preact-bottleneck"
    stages = []
    in_ch = stem_width
    for s, (width, count) in enumerate(zip(cfg.stage_widths, stage_blocks)):
        out_ch = width * 4 if bottleneck else width
        blocks = []
        for b in range(count):
            stride = 2 if (s > 0 and b == 0) else 1
            spec = template.with_shape(in_ch, out_ch, stride,
                                       mid_channels=width if bottleneck else None)
            blocks.append(Block(store, f"stage{s + 1}.block{b}", spec, seed=seed))
            in_ch = out_ch
        stages.append(blocks)

    head_bn = BatchNorm2d(store, "head.bn", in_ch) if is_pre else None
    fc = Linear(store, "head.fc", in_ch, cfg.num_classes, seed=seed)
    return Model(cfg, store, (stem_conv, stem_bn), stages, (head_bn, fc), note)


# -- manifests -----------------------------------------------------------------


def format_manifest(model: Model) -> str:
    cfg = model.cfg
    header = (
        f"family={cfg.family} depth={cfg.depth if cfg.depth is not None else 'custom'} "
        f"blocks={','.join(str(n) for n in (len(s) for s in model.stages))} "
        f"widths={','.join(map(str, cfg.stage_widths))} "
        f"ratio={cfg.ratio} removal={cfg.removal} pairing={cfg.pairing} "
        f"drop_bn={1 if cfg.drop_bn_with_relu else 0} "
        f"classes={cfg.num_classes} seed={cfg.seed} precision={cfg.precision}"
    )
    lines = [header]
    if model.depth_note:
        lines.append(f"# {model.depth_note}")
    for stage in model.stages:
        lines += [f"block name={block.name} {block.spec.to_line()}" for block in stage]
    return "\n".join(lines) + "\n"


def parse_manifest(text: str) -> dict:
    """The header of a manifest, its first line, as a dict; an item with no
    ``=`` maps to "". The block lines follow from it: ``format_manifest`` of
    the network it builds rewrites them."""
    return dict(item.partition("=")[::2] for item in text.partition("\n")[0].split())


def config_from_manifest_header(header: dict) -> NetworkConfig:
    depth = None if header["depth"] == "custom" else int(header["depth"])
    return NetworkConfig(
        depth=depth,
        stage_blocks=tuple(int(x) for x in header["blocks"].split(",")) if depth is None else None,
        stage_widths=tuple(int(x) for x in header["widths"].split(",")),
        drop_bn_with_relu=header.get("drop_bn") == "1",
        num_classes=int(header["classes"]),
        seed=int(header["seed"]),
        **{k: header[k] for k in ("family", "ratio", "removal", "pairing", "precision")},
    )
