"""Network assembly: depth tables, shapes, manifests, cross-variant parity."""

import numpy as np
import pytest

from propmod import DepthError, NetworkConfig, audit, build_network, summarize
from propmod.networks import (config_from_manifest_header, format_manifest,
                              parse_manifest, resolve_stage_blocks, _template_block)


def small(family, **kw):
    defaults = dict(family=family, depth=8, stage_widths=(8, 8, 16), seed=1)
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestDepths:
    @pytest.mark.parametrize("family,depth,expected", [
        ("plain", 38, (6, 6, 6)),
        ("plain", 62, (10, 10, 10)),
        ("resnet-preact", 62, (10, 10, 10)),
        ("resnet-preact", 110, (18, 18, 18)),
        ("resnet-preact", 164, (27, 27, 27)),
        ("resnet-preact-bottleneck", 110, (12, 12, 12)),
        ("resnet-preact-bottleneck", 164, (18, 18, 18)),
        ("dfn-mr1", 110, (18, 18, 18)),
    ])
    def test_published_depths(self, family, depth, expected):
        cfg = NetworkConfig(family=family, depth=depth)
        blocks, note = resolve_stage_blocks(cfg, _template_block(cfg))
        assert blocks == expected
        assert note is None

    def test_plain_84_is_custom(self):
        cfg = NetworkConfig(family="plain", depth=84)
        blocks, note = resolve_stage_blocks(cfg, _template_block(cfg))
        assert blocks == (14, 14, 13)
        assert "84" in note

    def test_invalid_depth_lists_neighbors(self):
        with pytest.raises(DepthError) as err:
            build_network(NetworkConfig(family="resnet-preact", depth=40))
        assert "38" in str(err.value) and "44" in str(err.value)

    def test_bottleneck_depth_rule(self):
        cfg = NetworkConfig(family="resnet-preact-bottleneck", depth=29)
        blocks, _ = resolve_stage_blocks(cfg, _template_block(cfg))
        assert blocks == (3, 3, 3)
        with pytest.raises(DepthError):
            build_network(NetworkConfig(family="resnet-preact-bottleneck", depth=8))

    def test_custom_stage_blocks(self):
        cfg = NetworkConfig(family="plain", stage_blocks=(1, 2, 1))
        model = build_network(cfg)
        assert [len(s) for s in model.stages] == [1, 2, 1]

    @pytest.mark.parametrize("family,field,value", [
        ("resnet-preact", "ratio", "3:2"),
        ("resnet-preact-bottleneck", "ratio", "2:1"),
        ("dfn-mr1", "pairing", "pre"),
        ("resnet-preact", "pairing", "pre"),
        ("plain", "removal", "first"),
        ("plain", "removal", "0"),
    ])
    def test_setting_family_cannot_build_rejected(self, family, field, value):
        with pytest.raises(ValueError, match=f"{family} family has no {field} setting"):
            NetworkConfig(family=family, depth=8, **{field: value})

    @pytest.mark.parametrize("family,kw,variant", [
        ("plain", {}, None),
        ("plain", {"ratio": "2:1"}, "2:1"),
        ("plain", {"ratio": "3:2", "pairing": "pre"}, "3:2"),
        ("resnet-preact", {}, None),
        ("resnet-preact", {"removal": "first"}, "first"),
        ("resnet-preact-bottleneck", {"removal": "0"}, None),
        ("resnet-preact-bottleneck", {"removal": 0}, None),
        ("resnet-preact-bottleneck", {"removal": 2}, "2"),
        ("dfn-mr1", {"removal": "type2"}, "type2"),
    ])
    def test_variant_is_none_when_paired(self, family, kw, variant):
        assert NetworkConfig(family=family, depth=8, **kw).variant == variant

    def test_classes_validated(self):
        with pytest.raises(ValueError):
            NetworkConfig(family="plain", depth=8, num_classes=7)


class TestForward:
    @pytest.mark.parametrize("family,depth", [
        ("plain", 8), ("resnet-preact", 8), ("resnet-preact-bottleneck", 11), ("dfn-mr1", 8),
    ])
    def test_finite_logits_right_shape(self, family, depth):
        model = build_network(small(family, depth=depth))
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        logits, _ = model.forward(x, training=False)
        assert logits.value.shape == (2, 10)
        assert np.isfinite(logits.value.data).all()

    def test_plain8_custom_shape(self):
        model = build_network(NetworkConfig(family="plain", stage_blocks=(1, 1, 1)))
        x = np.zeros((2, 3, 32, 32), dtype=np.float32)
        logits, _ = model.forward(x)
        assert logits.value.shape == (2, 10)

    def test_value_reads_match_node_arrays(self):
        # the benchmark reads nodes through Node.value; those reads must equal the arrays
        model = build_network(small("plain"))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        labels = rng.integers(0, 10, size=2)
        loss, logits, _ = model.loss(x, labels)
        assert float(model.loss(x, labels)[0].value.data) == float(loss.data)
        assert logits.value.data.tobytes() == logits.data.tobytes()

    def test_forward_leaves_caller_array_alone(self):
        # the stem conv's backward reads the image the tape copied, not the caller's array
        model = build_network(small("plain"))
        x = np.random.default_rng(3).standard_normal((2, 3, 16, 16)).astype(np.float32)
        labels = np.array([1, 7])

        def stem_grad(overwrite):
            model.store.zero_grads()
            images = x.copy()
            loss, _, tape = model.loss(images, labels)
            assert images.flags.writeable
            if overwrite:
                images[...] = 0
            tape.backward(loss)
            return model.store["stem.conv.weight"].grad.tobytes()

        assert stem_grad(overwrite=True) == stem_grad(overwrite=False)

    def test_training_flag_reaches_bn(self):
        model = build_network(small("plain"))
        x = np.random.default_rng(1).standard_normal((4, 3, 16, 16)).astype(np.float32)
        _, tape = model.forward(x, training=True)
        assert tape.staged_updates
        _, tape = model.forward(x, training=False)
        assert not tape.staged_updates


class TestSummaries:
    def test_plain_trunk_ratio(self):
        paired = summarize(build_network(NetworkConfig(family="plain", depth=38, seed=0)),
                           input_shape=(1, 3, 32, 32))
        assert paired.report.ratio == (1, 1)
        prop = summarize(build_network(NetworkConfig(family="plain", depth=38, ratio="2:1",
                                                     seed=0)), input_shape=(1, 3, 32, 32))
        assert prop.report.ratio == (2, 1)
        assert prop.report.n_conv == 36

    def test_dfn_param_parity_across_removals(self):
        counts = []
        for removal in ("none", "type1"):
            cfg = NetworkConfig(family="dfn-mr1", depth=14, removal=removal,
                                stage_widths=(8, 16, 16), seed=0)
            counts.append(audit(build_network(cfg), input_shape=(1, 3, 16, 16)).param_count)
        assert counts[0] == counts[1]

    def test_dfn_110_param_parity(self):
        counts = {removal: build_network(NetworkConfig(family="dfn-mr1", depth=110,
                                                       removal=removal, seed=0)
                                         ).store.param_count()
                  for removal in ("none", "type1")}
        assert counts["none"] == counts["type1"]

    @pytest.mark.parametrize("family,depth", [
        ("plain", 8), ("resnet-preact", 8), ("resnet-preact-bottleneck", 11), ("dfn-mr1", 8),
    ])
    def test_stage_rows_cover_everything(self, family, depth):
        summary = summarize(build_network(small(family, depth=depth)),
                            input_shape=(1, 3, 16, 16))
        rows, report = summary.rows, summary.report
        assert [row.name for row in rows] == ["stem", "stage1", "stage2", "stage3", "head"]
        assert sum(row.convs for row in rows) == report.total_conv
        assert sum(row.relus for row in rows) == report.total_relu
        assert sum(row.params for row in rows) == report.param_count
        assert sum(row.flops_conv for row in rows) == report.flops_conv

    def test_summarize_runs_one_forward(self, monkeypatch):
        model = build_network(small("resnet-preact"))
        calls = []
        forward_on = type(model).forward_on

        def counting(self, tape, x):
            calls.append(x.shape)
            return forward_on(self, tape, x)

        monkeypatch.setattr(type(model), "forward_on", counting)
        summarize(model, input_shape=(1, 3, 16, 16))
        assert calls == [(1, 3, 16, 16)]


class TestManifest:
    def test_round_trip(self):
        cfg = NetworkConfig(family="resnet-preact", depth=14, removal="first",
                            num_classes=100, seed=3)
        model = build_network(cfg)
        text = format_manifest(model)
        assert config_from_manifest_header(parse_manifest(text)) == cfg
        assert text.splitlines()[1].startswith("block name=stage1.block0 ")

    def test_plain_84_manifest_carries_note(self):
        model = build_network(NetworkConfig(family="plain", depth=84, ratio="2:1"))
        assert "84" in format_manifest(model).splitlines()[1]

    def test_rebuilt_model_matches(self):
        cfg = NetworkConfig(family="plain", depth=14, ratio="2:1", seed=5)
        model = build_network(cfg)
        clone = build_network(config_from_manifest_header(parse_manifest(format_manifest(model))))
        x = np.random.default_rng(2).standard_normal((2, 3, 16, 16)).astype(np.float32)
        a, _ = model.forward(x)
        b, _ = clone.forward(x)
        np.testing.assert_array_equal(a.value.data, b.value.data)
