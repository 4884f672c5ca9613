import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfeat import model as model_module
from segfeat.autodiff import Tape
from segfeat.features import FeatureStats
from segfeat.model import (MODEL_MAGIC, SegmentalModel, Segmentation, bigram_scores_np,
                           boundary_logits, build_context, build_contexts, context_from_hidden,
                           phoneme_logits, scan_groups, score_segmentation)

from conftest import (edit_model_header, mlp2_np, prefix_sums, random_context, small_model,
                      toy_context)
from reference_tape import ReferenceTape, composed_score


def test_segmentation_invariants():
    seg = Segmentation((2, 5, 9), 12)
    assert seg.n_segments == 4
    assert seg.spans() == [(0, 2), (2, 5), (5, 9), (9, 12)]
    assert Segmentation((), 3).spans() == [(0, 3)]
    with pytest.raises(ValueError):
        Segmentation((0,), 5)
    with pytest.raises(ValueError):
        Segmentation((5,), 5)
    with pytest.raises(ValueError):
        Segmentation((3, 3), 5)
    with pytest.raises(ValueError):
        Segmentation((4, 2), 5)


def test_segmentation_times():
    assert Segmentation((10, 25), 40).times(0.01) == pytest.approx([0.1, 0.25])


def test_build_context_shapes_and_prefix():
    model = small_model()
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(5, 8))
    ctx = build_context(model, feats)
    assert ctx.hidden.value.shape == (5, 8)
    assert ctx.unary.value.shape == (5, 1)
    # q is the bigram head's first layer over the hidden prefix sums, bit for bit
    pre = prefix_sums(ctx)
    assert np.allclose(pre[-1], ctx.hidden_np.sum(axis=0))
    assert np.array_equal(ctx.q_np, pre @ model.head_bigram[0].value)

    ctx1 = build_context(model, feats[:1])
    assert ctx1.unary.value.shape == (1, 1)
    assert ctx1.q_np.shape == (2, 4)


def test_build_context_dimension_mismatch():
    model = small_model()
    with pytest.raises(ValueError):
        build_context(model, np.zeros((4, 9)))
    with pytest.raises(ValueError):
        list(build_contexts(model, [("a", np.zeros((4, 8))), ("b", np.zeros((4, 9)))]))


@pytest.mark.parametrize("budget", [1, 40, model_module._SCAN_FRAMES])
def test_build_contexts_equal_one_build_context_each(monkeypatch, budget):
    """Batched contexts come back in input order, each byte-equal to its own
    build_context, and no scan holds more padded frames than the budget
    unless it holds one utterance alone."""
    scans = []

    def recording(xs, layers):
        scans.append([x.shape[0] for x in xs])
        return encode_many(xs, layers)

    encode_many = model_module.bilstm_encode_many
    monkeypatch.setattr(model_module, "bilstm_encode_many", recording)
    monkeypatch.setattr(model_module, "_SCAN_FRAMES", budget)
    model = small_model()
    rng = np.random.default_rng(8)
    lengths = [9, 1, 30, 9, 2, 17, 45, 9, 3, 1, 12, 28, 5]
    feats = [rng.normal(size=(n, 8)) for n in lengths]
    got = list(build_contexts(model, enumerate(feats)))
    assert [key for key, _ in got] == list(range(len(feats)))
    for (_, ctx), f in zip(got, feats):
        want = build_context(model, f)
        for name in ("hidden", "unary", "q"):
            assert getattr(ctx, name).value.tobytes() == getattr(want, name).value.tobytes()
    assert sorted(n for scan in scans for n in scan) == sorted(lengths)
    assert all(len(scan) == 1 or len(scan) * max(scan) <= budget for scan in scans)
    assert budget < 45 or len(scans) < len(lengths)  # a budget that fits several batches


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(1, 300), max_size=40), budget=st.integers(1, 3000))
def test_property_scan_groups_are_length_sorted_and_within_budget(lengths, budget):
    groups = scan_groups(lengths, budget)
    assert [i for g in groups for i in g] == sorted(range(len(lengths)), key=lengths.__getitem__)
    for g in groups:
        assert len(g) == 1 or len(g) * max(lengths[i] for i in g) <= budget


def test_zero_unary_head_gives_bias():
    model = small_model()
    for name in ("unary.1.w", "unary.1.b", "unary.2.w"):
        model.params[name].value[:] = 0.0
    model.params["unary.2.b"].value[:] = -0.75
    ctx = build_context(model, np.random.default_rng(1).normal(size=(6, 8)))
    assert np.allclose(ctx.unary_np, -0.75)


def test_bigram_score_spans(toy_model):
    ctx = toy_context(toy_model, 2)
    assert bigram_scores_np(ctx, toy_model, [0], [2])[0] == pytest.approx(0.5)
    assert bigram_scores_np(ctx, toy_model, [0], [1])[0] == pytest.approx(0.0)
    assert bigram_scores_np(ctx, toy_model, [1], [2])[0] == pytest.approx(0.0)


def test_bigram_single_frame_and_full_span():
    model = small_model()
    rng = np.random.default_rng(2)
    ctx = random_context(model, 6, rng)
    # e = s+1 consumes exactly hidden[s]
    for s in range(6):
        want = mlp2_np(ctx.hidden_np[s:s + 1], *model.head_bigram)[0, 0]
        assert bigram_scores_np(ctx, model, [s], [s + 1])[0] == pytest.approx(want, abs=1e-12)
    want = mlp2_np(ctx.hidden_np.sum(axis=0, keepdims=True), *model.head_bigram)[0, 0]
    assert bigram_scores_np(ctx, model, [0], [6])[0] == pytest.approx(want, abs=1e-9)


def test_bigram_argument_additivity():
    model = small_model()
    ctx = random_context(model, 7, np.random.default_rng(3))
    pre = prefix_sums(ctx)
    arg = lambda s, e: pre[e] - pre[s]
    assert np.allclose(arg(0, 3) + arg(3, 7), arg(0, 7))


def test_score_segmentation_toy(toy_model):
    ctx = toy_context(toy_model, 2)
    assert score_segmentation(ctx, toy_model, Segmentation((), 2)) == pytest.approx(0.5)
    assert score_segmentation(ctx, toy_model, Segmentation((1,), 2)) == pytest.approx(1.0)


def test_score_segmentation_tape_matches_plain():
    model = small_model()
    rng = np.random.default_rng(4)
    ctx = random_context(model, 8, rng, tape_cls=ReferenceTape)
    for bounds in [(), (3,), (1, 4, 6), (2, 5)]:
        seg = Segmentation(bounds, 8)
        plain = score_segmentation(ctx, model, seg)
        assert plain == composed_score(ctx, model, seg).item()
        again = score_segmentation(ctx, model, seg)
        assert plain == again  # bit-identical recomputation


def test_unary_constant_shift_moves_score_by_k_times_c():
    model = small_model()
    rng = np.random.default_rng(5)
    hidden = rng.normal(size=(7, 8))
    tape = Tape()
    ctx = context_from_hidden(tape, model, tape.tensor(hidden))
    segs = [Segmentation(b, 7) for b in [(), (2,), (1, 4), (2, 4, 6)]]
    base = [score_segmentation(ctx, model, s) for s in segs]
    c = 0.37
    model.params["unary.2.b"].value += c
    tape2 = Tape()
    ctx2 = context_from_hidden(tape2, model, tape2.tensor(hidden))
    shifted = [score_segmentation(ctx2, model, s) for s in segs]
    for seg, before, after in zip(segs, base, shifted):
        k = len(seg.boundaries)
        assert after - before == pytest.approx(k * c, abs=1e-9)


def test_unary_shift_preserves_fixed_k_argmax():
    from reference_dp import brute_force_segment
    model = small_model()
    rng = np.random.default_rng(6)
    hidden = rng.normal(size=(6, 8)) * 2
    tape = Tape()
    ctx = context_from_hidden(tape, model, tape.tensor(hidden))
    before = {k: brute_force_segment(ctx, model, k)[0] for k in range(1, 7)}
    model.params["unary.2.b"].value += 1.234
    tape2 = Tape()
    ctx2 = context_from_hidden(tape2, model, tape2.tensor(hidden))
    after = {k: brute_force_segment(ctx2, model, k)[0] for k in range(1, 7)}
    assert before == after


def test_phoneme_logits_shapes_and_softmax():
    model = small_model(inventory=tuple("abcde" * 8))  # 40 classes
    ctx = build_context(model, np.random.default_rng(7).normal(size=(7, 8)))
    logits = phoneme_logits(ctx, model)
    assert logits.value.shape == (7, 40)
    z = logits.value
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    for name in ("phn.w",):
        model.params[name].value[:] = 0.0
    model.params["phn.b"].value[:] = np.arange(40.0)
    ctx = build_context(model, np.random.default_rng(8).normal(size=(3, 8)))
    logits = phoneme_logits(ctx, model)
    assert np.allclose(logits.value, np.arange(40.0))


def test_phn_head_absent():
    model = small_model()
    ctx = build_context(model, np.zeros((2, 8)))
    with pytest.raises(ValueError):
        phoneme_logits(ctx, model)


def test_boundary_logits():
    model = small_model(with_bin=True)
    ctx = build_context(model, np.random.default_rng(9).normal(size=(5, 8)))
    logits = boundary_logits(ctx, model)
    assert logits.value.shape == (5, 1)
    sig = 1.0 / (1.0 + np.exp(-logits.value))
    assert np.all((sig > 0) & (sig < 1))
    model.params["bin.w"].value[:] = 0.0
    model.params["bin.b"].value[:] = 0.4
    ctx = build_context(model, np.random.default_rng(10).normal(size=(4, 8)))
    assert np.allclose(boundary_logits(ctx, model).value, 0.4)


def test_bin_head_absent():
    model = small_model()
    ctx = build_context(model, np.zeros((2, 8)))
    with pytest.raises(ValueError):
        boundary_logits(ctx, model)


def test_shared_head_mode():
    model = small_model(shared_head=True)
    assert model.head_unary is model.head_bigram
    assert "head.1.w" in model.params
    assert "unary.1.w" not in model.params


def test_mean_bigram_mode():
    model = small_model(mean_bigram=True)
    ctx = random_context(model, 6, np.random.default_rng(11), tape_cls=ReferenceTape)
    pre = prefix_sums(ctx)
    want = mlp2_np((pre[6] - pre[0])[None, :] / 6.0, *model.head_bigram)[0, 0]
    assert bigram_scores_np(ctx, model, [0], [6])[0] == pytest.approx(want, abs=1e-12)
    # one segment, no boundary: the composed score is the span's bigram score
    taped = composed_score(ctx, model, Segmentation((), 6))
    assert taped.item() == pytest.approx(want, abs=1e-9)


def test_exclude_end_spans_mode():
    model = small_model(include_end_spans=False)
    ctx = random_context(model, 6, np.random.default_rng(12), tape_cls=ReferenceTape)
    # single segment: nothing is scored
    assert score_segmentation(ctx, model, Segmentation((), 6)) == 0.0
    # with boundaries: unary terms plus interior spans only
    seg = Segmentation((2, 4), 6)
    want = ctx.unary_np[[2, 4]].sum() + bigram_scores_np(ctx, model, [2], [4])[0]
    assert score_segmentation(ctx, model, seg) == pytest.approx(want, abs=1e-9)
    assert composed_score(ctx, model, Segmentation((), 6)).item() == 0.0


def test_model_serialization_roundtrip(tmp_path):
    model = small_model(inventory=("a", "b", "c"), with_bin=True, seed=123)
    model.stats = FeatureStats(np.linspace(-1, 1, 43), np.linspace(0.1, 3, 43))
    path = tmp_path / "m.bin"
    model.save(path)
    back = SegmentalModel.load(path)
    assert back.cfg == model.cfg
    assert back.feature_cfg == model.feature_cfg
    assert back.params.names() == model.params.names()
    for name in model.params.names():
        assert np.array_equal(back.params[name].value, model.params[name].value)
    assert np.array_equal(back.stats.mean, model.stats.mean)
    assert np.array_equal(back.stats.std, model.stats.std)
    # byte-identical resave
    path2 = tmp_path / "m2.bin"
    back.save(path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("order", ["shrink", "grow"])
def test_saving_over_a_checkpoint_writes_the_bytes_of_a_fresh_save(tmp_path, order):
    """save writes over an existing file without cutting it to zero first,
    then cuts it to the new length: over a larger checkpoint (shrinking)
    or a smaller one (growing), the file holds exactly a fresh save's bytes."""
    small = small_model(hidden=2, seed=1)
    large = small_model(hidden=8, seed=2, inventory=("a", "b"), with_bin=True)
    large.stats = FeatureStats(np.linspace(-1, 1, 43), np.linspace(0.1, 3, 43))
    first, second = (large, small) if order == "shrink" else (small, large)
    second.save(tmp_path / "fresh.bin")
    path = tmp_path / "over.bin"
    first.save(path)
    second.save(path)
    assert path.read_bytes() == (tmp_path / "fresh.bin").read_bytes()


def test_model_load_rejects_garbage(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"not a model at all")
    with pytest.raises(ValueError):
        SegmentalModel.load(path)


def _rename_first_param(header):
    header["params"][0]["name"] = "enc.l9.f.wx"


@pytest.mark.parametrize("edit, message", [
    (lambda header: header.pop("params"), "lacks 'params'"),
    (_rename_first_param, "enc.l0.f.wx, enc.l9.f.wx"),
    pytest.param(lambda header: header.update(params=5), "'params' .* not a list",
                 id="params-not-a-list"),
    pytest.param(lambda header: header["params"].__setitem__(0, 5), "params entry 0",
                 id="params-entry-not-an-object"),
    pytest.param(lambda header: header["params"][0].update(shape=[-1, 2]), "'shape'",
                 id="params-negative-size"),
    pytest.param(lambda header: header["model"].update(with_bin=1), "with_bin",
                 id="model-int-for-bool"),
    pytest.param(lambda header: header["features"].update(n_fft=512.0), "n_fft",
                 id="features-float-for-int"),
    pytest.param(lambda header: header["features"].update(frame_shift=float("nan")),
                 "frame_shift", id="features-nan-frame-shift"),
    pytest.param(lambda header: header["model"].update(forget_bias=float("inf")),
                 "forget_bias", id="model-infinite-forget-bias"),
])
def test_model_load_rejects_malformed_header(tmp_path, edit, message):
    path = tmp_path / "m.bin"
    small_model().save(path)
    edit_model_header(path, path, edit)
    with pytest.raises(ValueError, match=message):
        SegmentalModel.load(path)


def test_model_load_rejects_missing_header_length(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(MODEL_MAGIC + b"\x01")
    with pytest.raises(ValueError, match="truncated"):
        SegmentalModel.load(path)


def test_seeded_init_is_deterministic():
    a = small_model(seed=9)
    b = small_model(seed=9)
    for name in a.params.names():
        assert np.array_equal(a.params[name].value, b.params[name].value)
    c = small_model(seed=10)
    assert any(not np.array_equal(a.params[n].value, c.params[n].value)
               for n in a.params.names())


def test_forget_gate_bias_initialized():
    model = small_model(hidden=4)
    b = model.params["enc.l0.f.b"].value[0]
    assert np.all(b[4:8] == 1.0)
    assert np.all(b[:4] == 0.0)
    assert np.all(b[8:] == 0.0)
