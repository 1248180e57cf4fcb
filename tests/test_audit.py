"""Ratio/FLOPs/parameter accounting and the collapse oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from propmod import NetworkConfig, audit, build_network, collapse_check
from propmod.audit import compose_kernels
from propmod.autograd import ParamStore, Tape, seeded_rng
from propmod.blocks import (Block, build_merge_run, build_plain_module,
                            build_preact_bottleneck, build_preact_building)
from propmod.layers import BatchNormState
from propmod.tensor import ShapeError


class TestAudit:
    def test_plain_two_one_stack_counts(self):
        # a trunk of three 2:1 modules = 6 convs, 3 ReLUs
        store = ParamStore("double")
        blocks = [Block(store, f"stage1.block{i}", build_plain_module("2:1"), seed=i)
                  for i in range(3)]

        def forward(x, training=False):
            tape = Tape(store, training=training)
            node = tape.constant(x)
            for b in blocks:
                node = b(tape, node)
            return node, tape

        report = audit(SimpleNamespace(store=store, forward=forward), input_shape=(1, 16, 8, 8))
        assert (report.n_conv, report.n_relu) == (6, 3)
        assert list(report.regions) == ["stage1"]
        assert report.regions["stage1"][:2] == [6, 3]

    def test_block_audit_ratio(self):
        report = audit(build_plain_module("2:1"), input_shape=(1, 16, 8, 8))
        assert report.ratio == (2, 1)
        report = audit(build_preact_bottleneck(1, in_channels=16, mid_channels=8,
                                               out_channels=32), input_shape=(1, 16, 8, 8))
        assert (report.n_conv, report.n_relu) == (3, 2)
        assert report.ratio == (3, 2)

    def test_param_count_invariant_under_removal(self):
        counts, conv_flops, relu_flops = [], [], []
        for removal in ("none", "first", "second"):
            report = audit(build_preact_building(removal), input_shape=(1, 16, 16, 16))
            counts.append(report.param_count)
            conv_flops.append(report.flops_conv)
            relu_flops.append(report.flops_relu)
        assert counts[0] == counts[1] == counts[2]
        assert conv_flops[0] == conv_flops[1] == conv_flops[2]
        assert relu_flops[1] < relu_flops[0] and relu_flops[2] < relu_flops[0]

    def test_bottleneck_relu_flops_drop(self):
        base = audit(build_preact_bottleneck(0, in_channels=16, mid_channels=8, out_channels=32),
                     input_shape=(1, 16, 8, 8))
        t1 = audit(build_preact_bottleneck(1, in_channels=16, mid_channels=8, out_channels=32),
                   input_shape=(1, 16, 8, 8))
        assert t1.flops_conv == base.flops_conv
        assert t1.flops_relu < base.flops_relu
        assert t1.param_count == base.param_count

    def test_conv_flops_formula(self):
        # one 3x3 conv, 4->8 channels, 8x8 output: 2 * 9 * 4 * 8 * 64
        spec = build_plain_module("1:1", in_channels=4, out_channels=8)
        report = audit(spec, input_shape=(1, 4, 8, 8))
        per_conv = 2 * 9 * 8 * 8 * 64
        first = 2 * 9 * 4 * 8 * 64
        assert report.flops_conv == first + per_conv
        assert report.flops_relu == 2 * 8 * 64

    def test_network_trunk_ratio(self):
        cfg = NetworkConfig(family="plain", depth=14, ratio="2:1", seed=0)
        report = audit(build_network(cfg), input_shape=(1, 3, 16, 16))
        assert report.ratio == (2, 1)
        assert report.n_conv == 12
        cfg = NetworkConfig(family="plain", depth=14, ratio="1:1", seed=0)
        assert audit(build_network(cfg), input_shape=(1, 3, 16, 16)).ratio == (1, 1)

    def test_merge_run_param_parity(self):
        reports = [audit(build_merge_run(r), input_shape=(1, 16, 8, 8))
                   for r in ("none", "type1", "type2")]
        assert len({r.param_count for r in reports}) == 1
        assert len({r.flops_conv for r in reports}) == 1
        assert reports[1].flops_relu < reports[0].flops_relu


def random_kernel(shape, seed):
    return seeded_rng(seed, "ck").standard_normal(shape)


class TestCollapse:
    def test_identity_first_kernel(self):
        # A = center delta: composed kernel is B zero-padded to 5x5
        c = 3
        a = np.zeros((c, c, 3, 3))
        for i in range(c):
            a[i, i, 1, 1] = 1.0
        b = seeded_rng(0, "ck-b").standard_normal((4, c, 3, 3))
        composed = compose_kernels(a, b)
        assert composed.shape == (4, c, 5, 5)
        np.testing.assert_allclose(composed[:, :, 1:4, 1:4], b, atol=1e-15)
        edge = composed.copy()
        edge[:, :, 1:4, 1:4] = 0
        np.testing.assert_allclose(edge, 0, atol=1e-15)

    def test_random_pair_collapses(self):
        report = collapse_check(random_kernel((3, 2, 3, 3), 1), random_kernel((4, 3, 3, 3), 2),
                                probes=10)
        assert report.max_deviation < 1e-10
        assert report.collapsible
        assert report.kernel.shape == (4, 2, 5, 5)
        assert report.padding == 2

    def test_eval_bn_interior_still_collapses(self):
        rng = seeded_rng(3, "ck-bn")
        state = BatchNormState(gamma=rng.standard_normal(3) + 2.0,
                               beta=rng.standard_normal(3),
                               running_mean=rng.standard_normal(3),
                               running_var=np.abs(rng.standard_normal(3)) + 0.25)
        report = collapse_check(random_kernel((3, 2, 3, 3), 4), random_kernel((4, 3, 3, 3), 5),
                                interior=state, probes=10)
        assert report.max_deviation < 1e-10
        assert report.collapsible

    def test_relu_interior_breaks_collapse(self):
        report = collapse_check(random_kernel((3, 2, 3, 3), 6), random_kernel((4, 3, 3, 3), 7),
                                interior="relu", probes=10)
        assert report.max_deviation >= 1e-3
        assert not report.collapsible

    def test_kernel_not_rank_four_rejected(self):
        for a, b in [(np.zeros((3, 2, 3)), random_kernel((4, 3, 3, 3), 9)),
                     (random_kernel((3, 2, 3, 3), 8), np.zeros((4, 3, 3, 3, 1)))]:
            with pytest.raises(ShapeError) as err:
                collapse_check(a, b)
            assert "rank 4" in str(err.value)

    @pytest.mark.parametrize("probes", [0, -1])
    def test_no_probes_rejected(self, probes):
        with pytest.raises(ValueError) as err:
            collapse_check(random_kernel((3, 2, 3, 3), 1), random_kernel((4, 3, 3, 3), 2),
                           probes=probes)
        assert f"probes of {probes}" in str(err.value)

    def test_channel_chain_checked(self):
        with pytest.raises(ValueError):
            collapse_check(random_kernel((3, 2, 3, 3), 1), random_kernel((4, 5, 3, 3), 2))

    def test_one_by_one_second_conv(self):
        report = collapse_check(random_kernel((3, 2, 3, 3), 10), random_kernel((4, 3, 1, 1), 11),
                                probes=5)
        assert report.max_deviation < 1e-10
        assert report.kernel.shape == (4, 2, 3, 3)
