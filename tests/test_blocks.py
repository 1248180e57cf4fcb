"""Block builders: mask placement, degenerate cases, serialization."""

from dataclasses import fields

import numpy as np
import pytest

from propmod import LinearModuleError
from propmod.autograd import ParamStore, Tape, seeded_rng
from propmod.blocks import (BlockSpec, build_merge_run, build_plain_module,
                            build_postact_building, build_preact_bottleneck,
                            build_preact_building, make_block)
from propmod.tensor import Tensor


class TestPlainModule:
    def test_two_one_removes_first_relu(self):
        spec = build_plain_module("2:1")
        assert spec.relu_mask == (False, True)
        assert spec.bn_mask == (True, True)

    def test_paired_keeps_both(self):
        assert build_plain_module("1:1").relu_mask == (True, True)

    def test_all_removed_is_linear_module(self):
        with pytest.raises(LinearModuleError) as err:
            build_plain_module("2:0")
        assert "linear module" in str(err.value)

    def test_linear_ok_flag_permits_it(self):
        spec = build_plain_module("2:0", linear_ok=True)
        assert spec.relu_mask == (False, False)

    def test_ratio_reduction(self):
        assert build_plain_module("4:2").relu_mask == (False, True)

    def test_general_ratios(self):
        assert build_plain_module("3:1").relu_mask == (False, False, True)
        assert build_plain_module("3:2").relu_mask == (False, True, True)
        assert build_plain_module("4:1").relu_mask == (False, False, False, True)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            build_plain_module("5:1")
        with pytest.raises(ValueError):
            build_plain_module("1:2")

    def test_drop_bn_with_relu(self):
        spec = build_plain_module("2:1", drop_bn_with_relu=True)
        assert spec.bn_mask == (False, True)


class TestResidualBuilders:
    def test_preact_building_removals(self):
        assert build_preact_building("none").relu_mask == (True, True)
        assert build_preact_building("first").relu_mask == (False, True)
        assert build_preact_building("second").relu_mask == (True, False)
        assert build_preact_building("first").pairing == "pre"

    def test_postact_building_removals(self):
        assert build_postact_building("first").relu_mask == (False, True)
        assert build_postact_building("second").relu_mask == (True, False)
        assert build_postact_building("none").pairing == "post"

    def test_bottleneck_types(self):
        assert build_preact_bottleneck(0).relu_mask == (True, True, True)
        assert build_preact_bottleneck(1).relu_mask == (False, True, True)
        assert build_preact_bottleneck(2).relu_mask == (True, False, True)
        assert build_preact_bottleneck(3).relu_mask == (True, True, False)

    def test_bottleneck_bad_type(self):
        with pytest.raises(ValueError):
            build_preact_bottleneck(4)

    def test_merge_run_edits_branch_one_only(self):
        spec = build_merge_run("type1")
        assert spec.relu_mask == (True, False)    # post-add ReLU removed
        assert spec.relu_mask_b == (True, True)
        spec = build_merge_run("type2")
        assert spec.relu_mask == (False, True)    # pre-add (mid) ReLU removed
        assert spec.relu_mask_b == (True, True)

    def test_unknown_removal(self):
        with pytest.raises(ValueError):
            build_preact_building("third")
        with pytest.raises(ValueError):
            build_merge_run("type3")


class TestSerialization:
    def test_spec_stores_only_what_varies(self):
        # conv_count and the BN and second-branch masks derive from relu_mask;
        # tests/manifests.txt pins what they derive to for every variant
        names = {f.name for f in fields(BlockSpec)}
        assert len(names) <= 9
        assert not names & {"conv_count", "bn_mask", "relu_mask_b", "bn_mask_b"}

    def test_masks_encoded_as_bits(self):
        line = build_preact_building("first").to_line()
        assert "relu=01" in line and "bn=11" in line


class TestBlockForward:
    def run_block(self, spec, in_shape=(2, 16, 8, 8), seed=0):
        store = ParamStore("double")
        block = make_block(store, "stage1.block0", spec, seed=seed)
        tape = Tape(store, training=True)
        x = tape.constant(Tensor(seeded_rng(seed, "block-x").standard_normal(in_shape)))
        if spec.family == "dfn-merge-run":
            out = block(tape, (x, x))
            return [o.value.data for o in out], tape
        return block(tape, x).value.data, tape

    def test_output_shapes(self):
        out, _ = self.run_block(build_plain_module("2:1", in_channels=16, out_channels=32, stride=2))
        assert out.shape == (2, 32, 4, 4)
        out, _ = self.run_block(build_preact_building("first", in_channels=16, out_channels=16))
        assert out.shape == (2, 16, 8, 8)
        out, _ = self.run_block(build_preact_bottleneck(1, in_channels=16, mid_channels=8,
                                                        out_channels=32))
        assert out.shape == (2, 32, 8, 8)
        outs, _ = self.run_block(build_merge_run("type1", in_channels=16, out_channels=32, stride=2))
        assert outs[0].shape == outs[1].shape == (2, 32, 4, 4)

    def test_relu_node_counts_follow_mask(self):
        for removal, expected in [("none", 2), ("first", 1), ("second", 1)]:
            _, tape = self.run_block(build_preact_building(removal))
            assert sum(1 for n in tape.nodes if n.kind == "relu") == expected
        for removal, expected in [("none", 4), ("type1", 3), ("type2", 3)]:
            _, tape = self.run_block(build_merge_run(removal))
            assert sum(1 for n in tape.nodes if n.kind == "relu") == expected

    def test_identity_skip_when_shapes_match(self):
        # zero out branch weights: a pre-activation block reduces to identity
        store = ParamStore("double")
        spec = build_preact_building("none")
        block = make_block(store, "stage1.block0", spec, seed=0)
        for name in store.names():
            if name.endswith("conv1.weight") or name.endswith("conv2.weight"):
                store.set_value(name, np.zeros(store[name].value.shape))
        tape = Tape(store, training=True)
        x = seeded_rng(1, "skip").standard_normal((2, 16, 8, 8))
        out = block(tape, tape.constant(Tensor(x)))
        np.testing.assert_array_equal(out.value.data, x)

    def test_dropping_bn_and_relu_leaves_bare_convs(self):
        spec = build_postact_building("first", drop_bn_with_relu=True)
        _, tape = self.run_block(spec)
        kinds = [n.kind for n in tape.nodes if n.kind in ("conv2d", "batchnorm", "relu")]
        # conv1 straight into conv2: no bn/relu between the first two convs
        assert kinds[:2] == ["conv2d", "conv2d"]
