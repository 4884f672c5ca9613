import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfeat.decode import brute_force_segment, dp_segment, dp_segment_k, dp_two_best
from segfeat.model import Segmentation, bigram_scores_np, score_segmentation
from segfeat.nn import mlp2_np

from conftest import random_context, small_model, toy_context


def test_dp_toy(toy_model):
    ctx = toy_context(toy_model, 2)
    seg, score = dp_segment(ctx, toy_model)
    assert seg == Segmentation((1,), 2)
    assert score == pytest.approx(1.0)


def test_dp_all_boundaries_penalized(toy_model):
    toy_model.params["unary.2.b"].value[:] = -1000.0
    ctx = toy_context(toy_model, 6)
    seg, _ = dp_segment(ctx, toy_model)
    assert seg == Segmentation((), 6)


def test_dp_k_toy(toy_model):
    ctx = toy_context(toy_model, 2)
    seg, score = dp_segment_k(ctx, toy_model, 1)
    assert seg == Segmentation((), 2)
    assert score == pytest.approx(0.5)


def test_dp_k_forced_full_segmentation():
    model = small_model()
    ctx = random_context(model, 5, np.random.default_rng(0))
    seg, _ = dp_segment_k(ctx, model, 5)
    assert seg == Segmentation((1, 2, 3, 4), 5)


def test_dp_k_out_of_range():
    model = small_model()
    ctx = random_context(model, 4, np.random.default_rng(1))
    with pytest.raises(ValueError):
        dp_segment_k(ctx, model, 0)
    with pytest.raises(ValueError):
        dp_segment_k(ctx, model, 5)


def test_dp_matches_brute_force_through_model_path():
    model = small_model()
    rng = np.random.default_rng(2)
    for _ in range(60):
        t_total = int(rng.integers(1, 9))
        ctx = random_context(model, t_total, rng)
        seg, score = dp_segment(ctx, model)
        bseg, bscore = brute_force_segment(ctx, model)
        assert seg == bseg
        assert score == bscore
        assert score_segmentation(ctx, model, seg) == pytest.approx(score, abs=1e-9)
        for k in range(1, t_total + 1):
            kseg, kscore = dp_segment_k(ctx, model, k)
            assert kseg.n_segments == k
            bkseg, bkscore = brute_force_segment(ctx, model, k)
            assert kseg == bkseg
            assert kscore == bkscore


def test_dp_matches_brute_force_without_end_spans():
    model = small_model(include_end_spans=False)
    rng = np.random.default_rng(3)
    for _ in range(25):
        t_total = int(rng.integers(1, 8))
        ctx = random_context(model, t_total, rng)
        seg, score = dp_segment(ctx, model)
        bseg, bscore = brute_force_segment(ctx, model)
        assert seg == bseg
        assert score == pytest.approx(bscore, abs=1e-12)


def test_dp_cap_monotone_and_uncapped_consistency():
    model = small_model()
    rng = np.random.default_rng(4)
    for _ in range(15):
        t_total = int(rng.integers(2, 10))
        ctx = random_context(model, t_total, rng)
        scores = [dp_segment(ctx, model, cap)[1] for cap in range(1, t_total + 1)]
        for lo, hi in zip(scores, scores[1:]):
            assert lo <= hi + 1e-12
        uncapped_seg, uncapped = dp_segment(ctx, model, None)
        at_t, at_t_score = dp_segment(ctx, model, t_total)
        big, big_score = dp_segment(ctx, model, 10 * t_total)
        assert at_t_score == uncapped and big_score == uncapped
        assert at_t == uncapped_seg and big == uncapped_seg


def test_dp_cap_limits_segment_length():
    model = small_model()
    rng = np.random.default_rng(5)
    for _ in range(10):
        t_total = int(rng.integers(3, 12))
        cap = int(rng.integers(1, t_total))
        ctx = random_context(model, t_total, rng)
        seg, _ = dp_segment(ctx, model, cap)
        assert all(e - s <= cap for s, e in seg.spans())


def test_two_best_returns_distinct_top_pair():
    model = small_model()
    rng = np.random.default_rng(6)
    for _ in range(40):
        t_total = int(rng.integers(2, 9))
        ctx = random_context(model, t_total, rng)
        two = dp_two_best(ctx, model)
        assert len(two) == 2
        (seg1, v1), (seg2, v2) = two
        assert seg1 != seg2
        assert v1 >= v2
        # exhaustively rank all candidates and compare the top two
        scored = sorted(
            ((score_segmentation(ctx, model, Segmentation(b, t_total)), b)
             for size in range(t_total)
             for b in combinations(range(1, t_total), size)),
            key=lambda x: -x[0])
        assert v1 == pytest.approx(scored[0][0], abs=1e-9)
        assert v2 == pytest.approx(scored[1][0], abs=1e-9)
        assert seg1.boundaries == scored[0][1]


def test_two_best_single_frame():
    model = small_model()
    ctx = random_context(model, 1, np.random.default_rng(7))
    two = dp_two_best(ctx, model)
    assert len(two) == 1
    assert two[0][0] == Segmentation((), 1)


def test_two_best_respects_cap():
    model = small_model()
    ctx = random_context(model, 2, np.random.default_rng(8))
    two = dp_two_best(ctx, model, max_seg_frames=1)
    assert len(two) == 1  # only the forced one-frame segmentation exists
    assert two[0][0] == Segmentation((1,), 2)


@pytest.mark.parametrize("include_end_spans", [True, False])
@pytest.mark.parametrize("mean_bigram", [True, False])
def test_all_tied_scores_break_toward_the_smallest_boundaries(include_end_spans, mean_bigram):
    """With every parameter zero, every segmentation scores 0. The random
    properties below never tie, so this test and the next guard the tie rule."""
    model = small_model(include_end_spans=include_end_spans, mean_bigram=mean_bigram)
    for tensor in model.params.tensors():
        tensor.value[:] = 0.0
    t_total = 6
    ctx = random_context(model, t_total, np.random.default_rng(5))
    seg, score = dp_segment(ctx, model)
    assert (seg.boundaries, score) == ((), 0.0)
    assert (seg, score) == brute_force_segment(ctx, model)
    two = dp_two_best(ctx, model)
    assert [s.boundaries for s, _ in two] == [(), (1,)]
    assert [(v, s.boundaries) for s, v in two] == _ranked(ctx, model)[:2]
    for k in range(1, t_total + 1):
        seg, score = dp_segment_k(ctx, model, k)
        assert seg.boundaries == tuple(range(1, k))
        assert (seg, score) == brute_force_segment(ctx, model, k)


def test_two_best_tie_prefers_the_better_ranked_prefix():
    """Unary -1 at every boundary, no bigram score, cap 2: three runner-ups
    tie at -2. The last column ranks best[0, s] before best[1, s], so the
    runner-up extends the best split of [0, 3), (1,), not the runner-up
    split of [0, 2), which would give the tied (1, 2)."""
    model = small_model()
    for tensor in model.params.tensors():
        tensor.value[:] = 0.0
    ctx = random_context(model, 4, np.random.default_rng(5))
    ctx.unary.value[:] = -1.0
    two = dp_two_best(ctx, model, 2)
    assert [(s.boundaries, v) for s, v in two] == [((2,), -1.0), ((1, 3), -2.0)]
    assert [v for _, v in two] == [v for v, _ in _ranked(ctx, model, 2)[:2]]


def test_brute_force_single_frame_and_guard():
    model = small_model()
    ctx = random_context(model, 1, np.random.default_rng(9))
    seg, score = brute_force_segment(ctx, model)
    assert seg == Segmentation((), 1)
    assert score == pytest.approx(score_segmentation(ctx, model, seg))
    big = random_context(model, 17, np.random.default_rng(10))
    with pytest.raises(ValueError):
        brute_force_segment(big, model)


def test_uncapped_dp_memory_is_linear_in_frames():
    """60 s of audio at a 10 ms shift, uncapped. A table of every span's
    2H-wide input would hold T(T+1)/2 x 16 floats, 2.1 GiB here; scoring one
    DP column at a time needs a few columns of T x H floats."""
    model = small_model(hidden=8)
    ctx = random_context(model, 6000, np.random.default_rng(14))
    tracemalloc.start()
    try:
        seg, score = dp_segment(ctx, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"
    assert seg.n_frames == 6000
    assert score == score_segmentation(ctx, model, seg)


# ----- properties against the exhaustive oracle ------------------------------
# Hidden states are drawn from a seeded normal, so distinct segmentations tie
# with probability zero and the oracle's tie-break never decides a comparison.

MODEL_FLAGS = st.fixed_dictionaries({"include_end_spans": st.booleans(),
                                     "mean_bigram": st.booleans(),
                                     "shared_head": st.booleans()})
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def _instance(flags, t_total, seed):
    model = small_model(seed=seed % 1000, **flags)
    return model, random_context(model, t_total, np.random.default_rng(seed))


def _ranked(ctx, model, cap=None):
    """Every segmentation whose spans fit the cap, best first, by canonical score."""
    t_total = ctx.n_frames
    out = []
    for size in range(t_total):
        for bounds in combinations(range(1, t_total), size):
            seg = Segmentation(bounds, t_total)
            if cap is None or all(e - s <= cap for s, e in seg.spans()):
                out.append((score_segmentation(ctx, model, seg), bounds))
    return sorted(out, key=lambda x: (-x[0], x[1]))


@PROPERTY_SETTINGS
@given(flags=MODEL_FLAGS, t_total=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       cap=st.one_of(st.none(), st.integers(1, 9)))
def test_property_dp_segment_and_two_best_match_exhaustive_ranking(flags, t_total, seed, cap):
    model, ctx = _instance(flags, t_total, seed)
    ranked = _ranked(ctx, model, cap)
    seg, score = dp_segment(ctx, model, cap)
    assert (score, seg.boundaries) == ranked[0]
    two = dp_two_best(ctx, model, cap)
    assert [(v, s.boundaries) for s, v in two] == ranked[:2]
    if cap is None:
        assert (seg, score) == brute_force_segment(ctx, model)


@PROPERTY_SETTINGS
@given(flags=MODEL_FLAGS, t_total=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_property_dp_segment_k_matches_brute_force_for_every_k(flags, t_total, seed):
    model, ctx = _instance(flags, t_total, seed)
    for k in range(1, t_total + 1):
        seg, score = dp_segment_k(ctx, model, k)
        assert seg.n_segments == k
        assert (seg, score) == brute_force_segment(ctx, model, k)


@PROPERTY_SETTINGS
@given(flags=MODEL_FLAGS, t_total=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_property_projected_scores_match_unfactored_reference(flags, t_total, seed, data):
    model, ctx = _instance(flags, t_total, seed)
    bounds = data.draw(st.sets(st.integers(1, t_total - 1)) if t_total > 1 else st.just(set()))
    seg = Segmentation(sorted(bounds), t_total)
    assert score_segmentation(ctx, model, seg, on_tape=True).item() == \
        score_segmentation(ctx, model, seg)

    starts, ends = np.triu_indices(t_total + 1, k=1)
    x = ctx.prefix_np[ends] - ctx.prefix_np[starts]
    if model.cfg.mean_bigram:
        x = x / (ends - starts)[:, None]
    want = mlp2_np(x, *model.head_bigram)[:, 0]
    # the factored route reorders float64 sums of magnitude ~10: about 1e-14 apart
    assert np.max(np.abs(bigram_scores_np(ctx, model, starts, ends) - want)) <= 1e-12
