"""Block structure golden: parameter registration order and tape layout.

For every builder variant, ``tests/block_structure.txt`` records the
parameter names in registration order (checkpoints, SGD and gradcheck walk
them in that order) and the (kind, scope) sequence of a training tape
(audit, relu_signature and the per-scope trace read it). The file depends
on no host: names, kinds and scopes only.

Regenerate (only for an intended structural change):
    PYTHONPATH=src python tests/test_block_structure.py > tests/block_structure.txt
"""

from pathlib import Path

import numpy as np

from golden_lines import assert_matches, print_lines
from propmod.autograd import ParamStore, Tape
from propmod.blocks import (Block, build_merge_run, build_plain_module, build_postact_building,
                            build_preact_bottleneck, build_preact_building)

GOLDEN = Path(__file__).parent / "block_structure.txt"

# (in, out, stride): identity skip, then projection skip
_SHAPES = ((16, 16, 1), (8, 16, 2))


def builder_variants():
    """(label, spec) for each family x removal, both plain pairings, with and
    without drop_bn_with_relu, at an identity and a projection shape."""
    for drop in (False, True):
        for pairing in ("post", "pre"):
            for ratio in ("1:1", "2:1", "3:1", "3:2", "4:1", "4:3", "2:0"):
                yield (f"plain {ratio} {pairing} drop={drop:d}",
                       build_plain_module(ratio, pairing, in_channels=8, out_channels=16,
                                          stride=2, linear_ok=ratio == "2:0",
                                          drop_bn_with_relu=drop))
        for cin, cout, stride in _SHAPES:
            shape = dict(in_channels=cin, out_channels=cout, stride=stride,
                         drop_bn_with_relu=drop)
            for removal in ("none", "first", "second"):
                yield (f"preact {removal} {cin}-{cout}/{stride} drop={drop:d}",
                       build_preact_building(removal, **shape))
                yield (f"postact {removal} {cin}-{cout}/{stride} drop={drop:d}",
                       build_postact_building(removal, **shape))
            for removal in ("none", "type1", "type2"):
                yield (f"merge-run {removal} {cin}-{cout}/{stride} drop={drop:d}",
                       build_merge_run(removal, **shape))
            for removal_type in range(4):
                yield (f"bottleneck {removal_type} {cin}-{cout}/{stride} drop={drop:d}",
                       build_preact_bottleneck(removal_type, in_channels=cin, mid_channels=4,
                                               out_channels=cout, stride=stride,
                                               drop_bn_with_relu=drop))


def structure_lines():
    lines = []
    for label, spec in builder_variants():
        store = ParamStore("double")
        block = Block(store, "b", spec, seed=0)
        tape = Tape(store, training=True)
        x = tape.constant(np.ones((2, spec.in_channels, 4, 4)))
        block(tape, (x, x) if spec.family == "dfn-merge-run" else x)
        lines.append(f"[{label}]")
        lines.append("params " + " ".join(store.names()))
        lines.append("nodes " + " ".join(f"{n.kind}@{n.scope}" for n in tape.nodes))
    return lines


def test_block_structure_matches_golden():
    assert_matches(GOLDEN, structure_lines())


if __name__ == "__main__":
    print_lines(structure_lines())
