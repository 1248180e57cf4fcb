"""Reverse-mode engine and the finite-difference checker."""

import tracemalloc
import weakref

import numpy as np
import pytest

from propmod import (NetworkConfig, ParamStore, ShapeError, Tensor, TrainConfig, audit,
                     build_network, fit, gradcheck, kernels, layers, make_synthetic)
from propmod.autograd import Node, Tape, _masks_equal, seeded_rng
from propmod.blocks import Block, build_preact_building
from propmod.layers import softmax_cross_entropy

from call_records import record_calls


def make_store(values, precision="double"):
    store = ParamStore(precision)
    for name, v in values.items():
        store.register(name, np.asarray(v, dtype=store.dtype))
    return store


class TestParamStore:
    def test_set_value_of_wrong_shape_names_parameter(self):
        store = make_store({"w": np.zeros((2, 3))})
        with pytest.raises(ShapeError) as err:
            store.set_value("w", np.zeros((3, 2)))
        assert str(err.value) == "parameter 'w': new value shape (3, 2) does not match (2, 3)"
        np.testing.assert_array_equal(store["w"].value.data, np.zeros((2, 3)))


class TestBackward:
    def test_linear_function_gradient(self):
        # loss = sum(w * x) with x fixed -> grad(w) == x
        x = np.array([2.0, -1.0, 4.0])
        store = make_store({"w": [1.0, 1.0, 1.0]})
        tape = Tape(store)
        w = tape.param("w")
        xs = tape.constant(x)
        prod = tape.record("mul", (w, xs), w.data * x,
                           lambda g: (g * x, g * w.value.data))
        np.testing.assert_array_equal(tape.backward(tape.sum(prod))["w"], x)

    def test_dead_relu_zero_gradient(self):
        store = make_store({"w": [-1.0, -2.0, -0.5]})
        tape = Tape(store)
        loss = tape.sum(tape.relu(tape.param("w")))
        np.testing.assert_array_equal(tape.backward(loss)["w"], np.zeros(3))

    @pytest.mark.parametrize("family,depth", [("plain", 8), ("resnet-preact-bottleneck", 11)])
    def test_backward_is_pure(self, family, depth):
        # backward leaves the store as it was, so the sweep of a second forward returns
        # the same bytes; the tape it swept is spent and refuses a second reading
        model = build_network(NetworkConfig(family=family, depth=depth, seed=1))
        batch = training_batch(family)
        before = {name: p.value.data.tobytes() for name, p in model.store.items()}
        loss, _, tape = model.loss(*batch)
        first = tape.backward(loss)
        once = {name: g.tobytes() for name, g in first.items()}
        for spent in (lambda: tape.backward(loss), tape.relu_signature):
            with pytest.raises(ValueError, match="spent tape"):
                spent()
        assert {name: p.value.data.tobytes() for name, p in model.store.items()} == before
        loss, _, tape = model.loss(*batch)
        assert {name: g.tobytes() for name, g in tape.backward(loss).items()} == once
        assert {name: g.tobytes() for name, g in first.items()} == once
        # a network's loss reads every trainable parameter, in the store's dtype and shape
        assert set(first) == {name for name, _ in model.store.trainable_items()}
        for name, g in first.items():
            assert (g.dtype, g.shape) == (model.store.dtype, model.store[name].value.shape), name

    def test_off_path_parameter_gets_no_gradient(self):
        store = make_store({"w": [1.0], "unused": [5.0, 6.0]})
        tape = Tape(store)
        tape.param("unused")
        assert list(tape.backward(tape.sum(tape.param("w")))) == ["w"]

    def test_parameter_read_twice_sums_its_uses(self):
        store = make_store({"w": [3.0, -1.0]})
        tape = Tape(store)
        loss = tape.sum(tape.add(tape.scale(tape.param("w"), 2.0), tape.param("w")))
        np.testing.assert_array_equal(tape.backward(loss)["w"], [3.0, 3.0])

    def test_non_scalar_loss_rejected(self):
        store = make_store({"w": [1.0, 2.0]})
        tape = Tape(store)
        node = tape.param("w")
        with pytest.raises(ShapeError):
            tape.backward(node)

    def test_shared_gradient_paths_accumulate(self):
        # y = w + w: gradient must be 2, and the shared upstream array must
        # not be corrupted by in-place accumulation
        store = make_store({"w": [3.0]})
        tape = Tape(store)
        w = tape.param("w")
        np.testing.assert_array_equal(tape.backward(tape.sum(tape.add(w, w)))["w"], [2.0])

    def test_relu_subgradient_at_zero_is_zero(self):
        store = make_store({"w": [0.0, 1.0]})
        tape = Tape(store)
        np.testing.assert_array_equal(tape.backward(tape.sum(tape.relu(tape.param("w"))))["w"],
                                      [0.0, 1.0])


def tiny_resnet():
    return build_network(NetworkConfig(family="resnet-preact", depth=8, stage_widths=(4, 4, 8),
                                       seed=1))


def test_relu_signatures_of_different_lengths_differ():
    masks = [np.ones((2, 3), dtype=bool)]
    assert _masks_equal(masks, list(masks))
    assert not _masks_equal(masks, masks * 2)
    assert not _masks_equal(masks, [np.ones(6, dtype=bool)])


class TestEvalTape:
    def test_backward_on_eval_tape_raises(self):
        store = make_store({"w": [1.0, -2.0]})
        tape = Tape(store, training=False)
        loss = tape.sum(tape.relu(tape.param("w")))
        assert tape.nodes[1].grad_fn is None  # the ReLU keeps no mask
        with pytest.raises(ValueError):
            tape.backward(loss)

    def test_eval_network_records_no_relu_or_bn_backward(self):
        model = tiny_resnet()
        x = seeded_rng(1, "eval-tape").standard_normal((2, 3, 8, 8)).astype(np.float32)
        _, tape = model.forward(x, training=False)
        kept = [n for n in tape.nodes if n.kind in ("relu", "batchnorm")]
        assert kept and all(n.grad_fn is None for n in kept)

    @pytest.mark.parametrize("family,depth", [("plain", 8), ("resnet-preact", 8),
                                              ("resnet-preact-bottleneck", 11), ("dfn-mr1", 8)])
    def test_eval_tape_nodes_carry_no_grad_fn(self, family, depth):
        model = build_network(NetworkConfig(family=family, depth=depth, seed=1))
        _, _, tape = model.loss(*training_batch(family), training=False)
        assert {"conv2d", "global_avg_pool", "linear",
                "softmax_cross_entropy"} <= {n.kind for n in tape.nodes}
        assert [n.kind for n in tape.nodes if n.grad_fn is not None] == []

    def test_relu_signature_is_input_sign(self, monkeypatch):
        handles = recorded_handles(monkeypatch)
        model = tiny_resnet()
        x = seeded_rng(2, "eval-tape").standard_normal((2, 3, 8, 8)).astype(np.float32)
        _, tape = model.forward(x, training=True)
        relus = [n for n in tape.nodes if n.kind == "relu"]
        signature = tape.relu_signature()
        assert len(signature) == len(relus) > 0
        for entry, mask in zip(relus, signature):
            assert mask.dtype == bool
            np.testing.assert_array_equal(mask, handles[entry.inputs[0].idx].value.data > 0)

    def test_relu_signature_on_eval_tape_raises(self):
        model = tiny_resnet()
        x = seeded_rng(2, "eval-tape").standard_normal((2, 3, 8, 8)).astype(np.float32)
        _, tape = model.forward(x, training=False)
        with pytest.raises(ValueError, match="eval tape"):
            tape.relu_signature()

    def test_relu_signature_at_special_values(self):
        x = np.array([np.nan, 0.0, -0.0, -1.0, 1e-300, np.inf, -np.inf])
        tape = Tape(make_store({}))
        tape.relu(tape.constant(x))
        np.testing.assert_array_equal(tape.relu_signature()[0], x > 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_kernel_and_tape_agree_bytewise(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 2.5, -2.5],
                     dtype=dtype)
        tape = Tape(make_store({}))
        out = tape.relu(tape.constant(x)).value.data
        reference = np.where(x > 0, x, dtype(0))  # NaN and -0.0 both map to +0.0
        assert kernels.relu(x).tobytes() == out.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_is_positive_zero_at_masked_slots(self, dtype):
        x = np.array([-1.0, 0.0, np.nan, -np.nan, 2.0], dtype=dtype)
        g = np.array([-3.0, np.nan, -np.inf, -0.0, 4.0], dtype=dtype)
        tape = Tape(make_store({}))
        (dx,) = tape.relu(tape.constant(x)).grad_fn(g)
        assert dx.tobytes() == np.array([0.0, 0.0, 0.0, 0.0, 4.0], dtype=dtype).tobytes()


class TestGradcheck:
    def test_identity_linear_model(self):
        rng = seeded_rng(0, "gc-linear")
        x = rng.standard_normal((3, 4))
        store = make_store({"w": rng.standard_normal((4, 4)), "b": np.zeros(4)})

        def build(tape):
            out = tape.linear(tape.constant(x), tape.param("w"), tape.param("b"))
            return tape.sum(out)

        result = gradcheck(build, store, eps=1e-5)
        assert result.max_rel_err < 1e-9

    @pytest.mark.parametrize("sample", [0, -3])
    def test_sample_below_one_rejected(self, sample):
        store = make_store({"w": np.ones(3)})
        with pytest.raises(ValueError, match=f"sample of {sample} coordinates"):
            gradcheck(lambda tape: tape.sum(tape.param("w")), store, sample=sample)

    def test_single_conv_layer(self):
        rng = seeded_rng(0, "gc-conv")
        x = rng.standard_normal((2, 2, 6, 6))
        store = make_store({"k": rng.standard_normal((3, 2, 3, 3)) * 0.5})

        def build(tape):
            out = tape.conv2d(tape.constant(x), tape.param("k"), stride=1, padding=1)
            return tape.sum(tape.relu(out))

        result = gradcheck(build, store, eps=1e-5)
        assert result.max_rel_err < 1e-6
        assert result.checked > 0

    def test_full_preact_building_block(self):
        rng = seeded_rng(0, "gc-block")
        x = rng.standard_normal((2, 4, 6, 6))
        labels = np.array([1, 0])
        store = ParamStore("double")
        spec = build_preact_building("first", in_channels=4, out_channels=4)
        block = Block(store, "stage1.block0", spec, seed=3)

        def build(tape):
            out = block(tape, tape.constant(x))
            pooled = tape.global_avg_pool(out)  # (N, 4) logits
            return softmax_cross_entropy(tape, pooled, labels)

        result = gradcheck(build, store, eps=1e-5)
        assert result.max_rel_err < 1e-6

    def test_postact_building_block_both_removals(self):
        rng = seeded_rng(0, "gc-post")
        x = rng.standard_normal((2, 4, 6, 6))
        labels = np.array([1, 0])
        from propmod.blocks import build_postact_building
        for removal in ("first", "second"):
            store = ParamStore("double")
            block = Block(store, "stage1.block0",
                               build_postact_building(removal, in_channels=4, out_channels=4),
                               seed=5)

            def build(tape):
                out = block(tape, tape.constant(x))
                return softmax_cross_entropy(tape, tape.global_avg_pool(out), labels)

            assert gradcheck(build, store, eps=1e-5).max_rel_err < 1e-6

    def test_requires_double_precision(self):
        store = make_store({"w": [1.0]}, precision="single")
        with pytest.raises(Exception):
            gradcheck(lambda tape: tape.sum(tape.param("w")), store)

    def test_detects_wrong_gradient(self):
        # a backward off by 1% must be flagged far above the pass threshold
        rng = seeded_rng(0, "gc-bad")
        x = rng.standard_normal(5)
        store = make_store({"w": rng.standard_normal(5)})

        def build(tape):
            w = tape.param("w")
            bad = tape.record("bad_mul", (w,), w.data * x,
                              lambda g: (g * x * 1.01,))
            return tape.sum(bad)

        result = gradcheck(build, store, eps=1e-5)
        assert result.max_rel_err > 1e-3

    def test_kink_skipping_reports_skipped(self):
        # a weight sitting exactly at the ReLU kink flips sign under +/-eps
        store = make_store({"w": [1e-7, 0.5]})

        def build(tape):
            return tape.sum(tape.relu(tape.param("w")))

        result = gradcheck(build, store, eps=1e-5)
        assert result.skipped >= 1
        assert result.max_rel_err < 1e-9


# the acceptance oracle's nine family/removal variants, at its input shape
ORACLE_VARIANTS = [
    ("plain", 8, dict(ratio="1:1")),
    ("plain", 8, dict(ratio="2:1")),
    ("resnet-preact", 8, dict(removal="first")),
    ("resnet-preact", 8, dict(removal="second")),
    ("resnet-preact-bottleneck", 11, dict(removal="1")),
    ("resnet-preact-bottleneck", 11, dict(removal="2")),
    ("resnet-preact-bottleneck", 11, dict(removal="3")),
    ("dfn-mr1", 8, dict(removal="type1")),
    ("dfn-mr1", 8, dict(removal="type2")),
]


def oracle_case(family, depth, kw):
    model = build_network(NetworkConfig(family=family, depth=depth, precision="double",
                                        seed=1, **kw))
    rng = seeded_rng(0, "acc-gradcheck", family)
    x = rng.standard_normal((2, 3, 8, 8))
    labels = rng.integers(0, 10, size=2)
    return model, x, labels


def store_bytes(store):
    return [(name, p.value.data.tobytes()) for name, p in store.items()]


class TestRowShiftGradcheck:
    """The gradient oracle certifies the row-shift lowering, forced onto its small maps."""

    @pytest.mark.parametrize("family,depth,kw", [ORACLE_VARIANTS[0], ORACLE_VARIANTS[4]],
                             ids=["plain-8", "bottleneck-11"])
    def test_gradcheck_passes(self, family, depth, kw, monkeypatch):
        monkeypatch.setattr(kernels, "ROW_SHIFT_MIN_PIXELS", 0)
        calls = record_calls(monkeypatch, kernels, "im2col", "row_unfold")
        model, x, labels = oracle_case(family, depth, kw)
        result = gradcheck(model.loss_builder(x, labels), model.store, eps=1e-5, seed=0)
        assert calls["row_unfold"] and calls["im2col"]  # 1x1 and strided convs keep im2col
        assert result.max_rel_err < 1e-6, result.max_rel_err


class TestResumedGradcheck:
    """Perturbed evaluations start at the block owning the parameter; results must not move."""

    @pytest.mark.parametrize("family,depth,kw", ORACLE_VARIANTS,
                             ids=[f"{f}-{d}-{next(iter(kw.values()))}" for f, d, kw in ORACLE_VARIANTS])
    def test_matches_full_forwards_bitwise(self, family, depth, kw):
        # sample=4 still reaches every parameter tensor, so every resume point runs
        model, x, labels = oracle_case(family, depth, kw)
        builder = model.loss_builder(x, labels)

        def run(full):
            losses = []

            def build(tape):
                if full:
                    tape.resume = None
                loss = builder(tape)
                losses.append(loss.value.data.tobytes())
                return loss

            return gradcheck(build, model.store, eps=1e-5, sample=4, seed=0), losses

        resumed, resumed_losses = run(full=False)
        full, full_losses = run(full=True)
        assert resumed_losses == full_losses
        assert resumed == full

    @pytest.mark.parametrize("family,depth,kw", [ORACLE_VARIANTS[i] for i in (0, 2, 4, 7)],
                             ids=["plain-8", "resnet-preact-8", "bottleneck-11", "dfn-mr1-8"])
    def test_perturbed_tapes_record_under_070_of_full_forwards(self, family, depth, kw):
        model, x, labels = oracle_case(family, depth, kw)
        builder = model.loss_builder(x, labels)
        counts = []

        def build(tape):
            loss = builder(tape)
            counts.append(len(tape.nodes))
            return loss

        gradcheck(build, model.store, eps=1e-5, sample=4, seed=0)
        base, perturbed = counts[0], counts[1:]
        ratio = sum(perturbed) / (len(perturbed) * base)
        assert ratio < 0.7, f"perturbed tapes record {ratio:.2f}x of full forwards"

    def test_perturbed_evaluations_stage_nothing(self):
        model, x, labels = oracle_case("resnet-preact-bottleneck", 11, dict(removal="1"))
        builder = model.loss_builder(x, labels)
        tapes = []

        def build(tape):
            tapes.append(tape)
            return builder(tape)

        before = store_bytes(model.store)
        gradcheck(build, model.store, eps=1e-5, sample=2, seed=0)
        assert store_bytes(model.store) == before
        base, perturbed = tapes[0], tapes[1:]
        assert base.resume is None and base.staged_updates
        assert all(t.resume is not None and not t.staged_updates for t in perturbed)

    def test_each_forward_call_resumes_from_its_own_inputs(self):
        # a builder may run the model twice on one tape; each call resumes from its own twin
        model, x, labels = oracle_case("resnet-preact", 8, dict(removal="first"))
        first, second = model.loss_builder(x, labels), model.loss_builder(x[::-1], labels[::-1])

        def run(full):
            def build(tape):
                if full:
                    tape.resume = None
                return tape.add(first(tape), second(tape))
            return gradcheck(build, model.store, eps=1e-5, sample=2, seed=0)

        assert run(full=False) == run(full=True)

    def test_dropped_bn_mean_term_is_caught(self, monkeypatch):
        def backward_without_dbeta_term(grad, cache, gamma):
            xc, inv_std = cache  # the centred input as (N, C*H*W) rows
            n, c, h, w = grad.shape
            m = n * h * w
            g, xc = grad.reshape(n, c, h * w), xc.reshape(n, c, h * w)
            dgamma = np.einsum("ncp,ncp->c", g, xc) * inv_std
            dbeta = g.sum(axis=(0, 2))
            dx = g - xc * (inv_std * dgamma / m)[None, :, None]
            return (dx * (gamma * inv_std)[None, :, None]).reshape(grad.shape), dgamma, dbeta

        monkeypatch.setattr(layers, "batchnorm_train_backward", backward_without_dbeta_term)
        model, x, labels = oracle_case("resnet-preact-bottleneck", 11, dict(removal="1"))
        result = gradcheck(model.loss_builder(x, labels), model.store, eps=1e-5, seed=0)
        assert not result.passed(1e-6), result.max_rel_err


def wants_input_grad(grad_out, x, kernel, stride, padding, input_grad):
    """The flag of a ``conv2d_backward`` call that says whether it computes ``dx``."""
    return input_grad


def training_batch(family):
    rng = seeded_rng(0, "conv-backward-work", family)
    return rng.standard_normal((2, 3, 8, 8)).astype(np.float32), rng.integers(0, 10, size=2)


class TestConvBackwardWork:
    """Stride-1 backward passes unfold the output gradient once; the scatter is left to strided convs."""

    @pytest.mark.parametrize("family", ["plain", "resnet-preact"])
    def test_only_strided_convs_scatter(self, family, monkeypatch):
        calls = record_calls(monkeypatch, kernels, "col2im")
        input_grads = record_calls(monkeypatch, kernels, "conv2d_backward",
                                   read=wants_input_grad)["conv2d_backward"]
        model = build_network(NetworkConfig(family=family, depth=8, seed=1))
        loss, _, tape = model.loss(*training_batch(family))
        convs = [n for n in tape.nodes if n.kind == "conv2d"]
        strided = [n for n in convs if n.shape[2] < n.inputs[0].shape[2]]
        tape.backward(loss)
        assert strided and len(calls["col2im"]) == len(strided)
        # every conv but the stem, whose input is the image, computes its input gradient
        assert convs[0].inputs[0].kind == "constant"
        assert (input_grads.count(True), input_grads.count(False)) == (len(convs) - 1, 1)

    @pytest.mark.parametrize("family,depth", [("plain", 8), ("resnet-preact", 8),
                                              ("resnet-preact-bottleneck", 11)])
    @pytest.mark.parametrize("patch_bytes", [None, 1], ids=["one-chunk", "per-image"])
    def test_one_unfold_per_conv_in_backward(self, family, depth, patch_bytes, monkeypatch):
        # counted in images, so a batch lowered in several chunks unfolds each image once too
        if patch_bytes:
            monkeypatch.setattr(kernels, "PATCH_BYTES", patch_bytes)
        model = build_network(NetworkConfig(family=family, depth=depth, seed=1))
        x, labels = training_batch(family)
        loss, _, tape = model.loss(x, labels)
        calls = record_calls(monkeypatch, kernels, "im2col")
        tape.backward(loss)
        unfolded = calls["im2col"]  # the batch extent of each unfold
        assert sum(unfolded) == len(x) * sum(n.kind == "conv2d" for n in tape.nodes)
        assert set(unfolded) == {patch_bytes or len(x)}

    def test_skipped_image_gradient_leaves_parameter_gradients_alone(self, monkeypatch):
        model = build_network(NetworkConfig(family="plain", depth=8, seed=1))
        x, labels = training_batch("plain")

        def param_grads():
            loss, _, tape = model.loss(x, labels)
            return [(name, g.tobytes()) for name, g in tape.backward(loss).items()]

        skipped = param_grads()
        # record the image under another kind, so the stem conv computes its input gradient
        monkeypatch.setattr(Tape, "constant", lambda self, data: self.record("image", (), data, None))
        calls = record_calls(monkeypatch, kernels, "conv2d_backward", read=wants_input_grad)
        forced = param_grads()
        convs = sum(n.kind == "conv2d" for n in model.loss(x, labels)[2].nodes)
        assert calls["conv2d_backward"] == [True] * convs
        assert forced == skipped


NODE_FAMILIES = [("plain", 8), ("resnet-preact", 8), ("resnet-preact-bottleneck", 11), ("dfn-mr1", 8)]
NODE_FAMILY_IDS = ["plain-8", "resnet-preact-8", "bottleneck-11", "dfn-mr1-8"]


def recorded_handles(monkeypatch):
    """Every handle ``Tape.record`` returns from here on, in recording order."""
    handles = []
    record = Tape.record

    def keeping(self, *args, **kwargs):
        node = record(self, *args, **kwargs)
        handles.append(node)
        return node

    monkeypatch.setattr(Tape, "record", keeping)
    return handles


def captured_arrays(entry):
    """The arrays an entry's ``grad_fn`` closure holds, through tuples (a BN cache) and handles."""
    cells = [c.cell_contents for c in (entry.grad_fn.__closure__ or ())] if entry.grad_fn else []
    cells += [v for c in cells if isinstance(c, tuple) for v in c]
    cells += [c.data for c in cells if isinstance(c, Node)]
    return [c for c in cells if isinstance(c, np.ndarray)]


class TestNodeContract:
    """Forward handles hold read-only outputs; tape entries hold no array of their own."""

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("family,depth", NODE_FAMILIES, ids=NODE_FAMILY_IDS)
    def test_handles_frozen_and_entries_array_free(self, family, depth, training, monkeypatch):
        handles = recorded_handles(monkeypatch)
        model = build_network(NetworkConfig(family=family, depth=depth, seed=1))
        _, _, tape = model.loss(*training_batch(family), training=training)
        assert [h.entry for h in handles] == tape.nodes
        for i, (node, entry) in enumerate(zip(handles, tape.nodes)):
            assert entry.idx == i
            assert type(node.data) is np.ndarray and not node.data.flags.writeable, entry.kind
            value = node.value
            assert isinstance(value, Tensor) and value.dtype == node.data.dtype
            assert value.data.tobytes() == node.data.tobytes(), entry.kind
            assert entry.shape == node.data.shape
            assert not hasattr(entry, "data") and not hasattr(entry, "value")
            assert all(inp is tape.nodes[inp.idx] for inp in entry.inputs)
            # no field holds an array, save a training ReLU's output, which its backward reads
            fields = [getattr(entry, name) for name in type(entry).__slots__]
            arrays = [f for f in fields if isinstance(f, np.ndarray)]
            if training and entry.kind == "relu":
                assert len(arrays) == 1 and arrays[0] is node.data
                assert any(a is node.data for a in captured_arrays(entry))
            else:
                assert arrays == [], entry.kind
            assert entry.meta is None or (training and entry.kind == "relu"), entry.kind

    @pytest.mark.parametrize("family,depth", NODE_FAMILIES, ids=NODE_FAMILY_IDS)
    def test_grad_fns_capture_only_what_backward_reads(self, family, depth, monkeypatch):
        handles = recorded_handles(monkeypatch)
        model = build_network(NetworkConfig(family=family, depth=depth, seed=1))
        _, _, tape = model.loss(*training_batch(family))
        for entry in tape.nodes:
            captured = captured_arrays(entry)
            outputs = [h.data for h in handles if any(c is h.data for c in captured)]
            own = handles[entry.idx].data
            inputs = [handles[inp.idx].data for inp in entry.inputs]
            if entry.kind in ("conv2d", "linear"):
                assert any(o is inputs[0] for o in outputs), entry.kind
                assert all(o is inputs[0] or o is inputs[1] for o in outputs), entry.kind
            elif entry.kind == "relu":
                assert len(outputs) == 1 and outputs[0] is own
            elif entry.kind == "batchnorm":
                # its centred input and gamma, never its input or output
                assert all(o is inputs[1] for o in outputs)
                assert not any(c is inputs[0] or c is own for c in captured)
            else:
                assert outputs == [], entry.kind

    def test_constant_checks_and_copies_outside_input(self):
        tape = Tape(make_store({}))
        with pytest.raises(ShapeError):
            tape.constant(np.zeros((2, 0, 3)))
        caller = np.arange(24.0).reshape(2, 3, 4)
        for view in (caller[1:], caller[:, 1:]):  # a contiguous and a strided view
            node = tape.constant(view)
            assert not np.shares_memory(node.data, caller)
            np.testing.assert_array_equal(node.data, view)
        assert caller.flags.writeable

    @pytest.mark.parametrize("family,depth", NODE_FAMILIES, ids=NODE_FAMILY_IDS)
    def test_library_never_reads_node_value(self, family, depth, monkeypatch):
        def refuse(node):
            raise AssertionError(f"the library read Node.value of a {node.kind} node")

        monkeypatch.setattr(Node, "value", property(refuse))
        model = build_network(NetworkConfig(family=family, depth=depth,
                                            stage_widths=(4, 4, 8), seed=1))
        data = make_synthetic(10, 4, seed=0)
        record = fit(model, data, data, TrainConfig(epochs=1, batch_size=4, augment=False))
        assert len(record.epochs) == 1  # the epoch ran, and evaluate with it
        audit(model)
        oracle, x, labels = oracle_case(family, depth, {})
        gradcheck(oracle.loss_builder(x, labels), oracle.store, sample=2)


def capture_refs(tape, store):
    """(weakref, index of the first entry that reads it) for every array an entry
    keeps, parameter values aside: the sweep passes that entry last."""
    params = {id(p.value.data) for _, p in store.items()}
    first_reader = {}
    for entry in tape.nodes:
        kept = captured_arrays(entry) + ([entry.meta] if entry.meta is not None else [])
        for array in kept:
            if id(array) not in params:
                first_reader.setdefault(id(array), (weakref.ref(array), entry.idx))
    return list(first_reader.values())


class TestTapeMemory:
    """Reference counting frees every output no ``grad_fn`` captured once the forward drops it."""

    def test_training_forward_frees_what_no_backward_reads(self, monkeypatch):
        outputs = {}
        record = Tape.record

        def watching(self, *args, **kwargs):
            node = record(self, *args, **kwargs)
            outputs[node.entry.idx] = weakref.ref(node.data)
            return node

        identity_inputs = []
        call = Block.__call__

        def watching_block(self, tape, x):
            if self.proj is None:
                identity_inputs.append(weakref.ref(x.data))
            return call(self, tape, x)

        monkeypatch.setattr(Tape, "record", watching)
        monkeypatch.setattr(Block, "__call__", watching_block)
        # depth 20, not 11: bottleneck-11's one block per stage always projects
        model = build_network(NetworkConfig(family="resnet-preact-bottleneck", depth=20,
                                            stage_widths=(4, 4, 8), seed=1))
        loss, _, tape = model.loss(*training_batch("resnet-preact-bottleneck"))
        bn_into_relu = [e.inputs[0].idx for e in tape.nodes
                        if e.kind == "relu" and e.inputs[0].kind == "batchnorm"]
        conv_inputs = [e.inputs[0].idx for e in tape.nodes if e.kind == "conv2d"]
        assert bn_into_relu and identity_inputs and conv_inputs
        assert all(outputs[i]() is None for i in bn_into_relu)
        assert all(ref() is None for ref in identity_inputs)
        assert all(outputs[i]() is not None for i in conv_inputs)
        tape.backward(loss)  # and backward still has all it reads

    @pytest.mark.parametrize("family,depth", NODE_FAMILIES, ids=NODE_FAMILY_IDS)
    def test_backward_frees_each_capture_once_swept(self, family, depth):
        model = build_network(NetworkConfig(family=family, depth=depth,
                                            stage_widths=(4, 4, 8), seed=1))
        loss, logits, tape = model.loss(*training_batch(family))
        del logits  # the loss is the only handle left
        refs = capture_refs(tape, model.store)
        alive = []  # captures alive, as each grad_fn is called, that only swept entries read

        def counting(entry, grad_fn):
            def counted(g):
                alive.append(sum(ref() is not None for ref, first in refs if first > entry.idx))
                return grad_fn(g)
            return counted

        for entry in tape.nodes:
            if entry.grad_fn is not None:
                entry.grad_fn = counting(entry, entry.grad_fn)
        tape.backward(loss)
        assert refs and len(alive) == sum(e.kind not in ("constant", "param") for e in tape.nodes)
        assert alive == [0] * len(alive)
        assert [ref for ref, _ in refs if ref() is not None] == []
        assert all(e.grad_fn is None and e.meta is None for e in tape.nodes)

    def test_eval_forward_streams(self):
        model = build_network(NetworkConfig(family="plain", depth=8, seed=1))
        x = seeded_rng(0, "eval-stream").standard_normal((4, 3, 32, 32)).astype(np.float32)
        model.forward(x)  # first-call allocations stay out of the measurement
        activation = x.shape[0] * 16 * 32 * 32 * x.itemsize  # one stage-1 output
        tracemalloc.start()
        try:
            logits, tape = model.forward(x)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) > 20
        assert kept < activation, "the eval tape keeps an activation alive"
        # a stage-1 3x3 conv's patch matrix is 9 activations; the rest is its operands
        assert peak < 9 * activation + 4 * activation, peak / activation

    def test_only_gradcheck_tapes_keep_block_inputs(self, monkeypatch):
        tapes = []
        init = Tape.__init__

        def tracking(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tapes.append(self)

        monkeypatch.setattr(Tape, "__init__", tracking)
        model = build_network(NetworkConfig(family="resnet-preact", depth=8,
                                            stage_widths=(4, 4, 8), seed=1))
        data = make_synthetic(10, 8, seed=0)
        fit(model, data, data, TrainConfig(epochs=1, batch_size=4, augment=False))
        assert {t.training for t in tapes} == {True, False}
        assert all(t.block_inputs is None for t in tapes)
        tapes.clear()
        oracle, x, labels = oracle_case("resnet-preact", 8, {})
        gradcheck(oracle.loss_builder(x, labels), oracle.store, sample=2)
        base = tapes[0]
        assert base.resume is None
        (inputs,) = base.block_inputs
        assert list(inputs) == ["stem", "stage1.block0", "stage2.block0", "stage3.block0", "head"]
