import tracemalloc
from contextlib import contextmanager
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfeat import decode as decode_module
from segfeat.decode import dp_segment, dp_segment_k, dp_two_best
from segfeat.model import (Segmentation, bigram_scores_np, context_from_hidden,
                           score_segmentation)

from conftest import mlp2_np, prefix_sums, random_context, small_model, toy_context
from reference_dp import brute_force_segment, reference_dp_segment, reference_dp_two_best
from reference_tape import ReferenceTape, composed_score


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


def test_dp_and_oracle_break_ties_alike_on_every_small_tied_instance():
    """Zero weights and unary scores from {-1, 0, 1}: each of the 1,092
    contexts with T <= 6 ties many segmentations, and the DP and the oracle
    must pick the same one, for a free and for every fixed segment count."""
    model = small_model()
    for tensor in model.params.tensors():
        tensor.value[:] = 0.0
    for t_total in range(1, 7):
        ctx = random_context(model, t_total, np.random.default_rng(t_total))
        for unary in product((-1.0, 0.0, 1.0), repeat=t_total):
            ctx.unary.value[:, 0] = unary
            assert dp_segment(ctx, model) == brute_force_segment(ctx, model), unary
            for k in range(1, t_total + 1):
                assert dp_segment_k(ctx, model, k) == brute_force_segment(ctx, model, k), \
                    (unary, k)


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
    return model, random_context(model, t_total, np.random.default_rng(seed),
                                 tape_cls=ReferenceTape)


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
    assert composed_score(ctx, model, seg).item() == score_segmentation(ctx, model, seg)

    starts, ends = np.triu_indices(t_total + 1, k=1)
    pre = prefix_sums(ctx)
    x = pre[ends] - pre[starts]
    if model.cfg.mean_bigram:
        x = x / (ends - starts)[:, None]
    want = mlp2_np(x, *model.head_bigram)[:, 0]
    # the factored route reorders float64 sums of magnitude ~10: about 1e-14 apart
    assert np.max(np.abs(bigram_scores_np(ctx, model, starts, ends) - want)) <= 1e-12


# ----- the bound-pruned uncapped sweep against the full-column reference ----
# Uncapped sweeps drop every start whose prefix score has fallen more than
# the span-score range behind; tests/reference_dp.py keeps the sweep that
# scores every span. Each case below also checks that pruning fired, by
# counting the rows the sweep hands to bigram_scores_np.

@contextmanager
def _scored_rows():
    """Collect the row count of every bigram_scores_np call the DP makes."""
    rows = []

    def counting(ctx, model, starts, ends):
        rows.append(len(starts))
        return bigram_scores_np(ctx, model, starts, ends)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode_module, "bigram_scores_np", counting)
        yield rows


def _full_column_rows(model, t_total):
    """Rows an unpruned uncapped sweep scores; without end spans the last
    column scores 0 without a call."""
    return t_total * (t_total + 1) // 2 - (0 if model.cfg.include_end_spans else t_total)


def _assert_pruned_matches_reference(ctx, model):
    for decode, reference in ((dp_segment, reference_dp_segment),
                              (dp_two_best, reference_dp_two_best)):
        with _scored_rows() as rows:
            got = decode(ctx, model)
        assert got == reference(ctx, model)
        assert sum(rows) < _full_column_rows(model, ctx.n_frames), "pruning never fired"


def _span_range(model):
    """(lo, hi): every bigram span score lies between them (tanh is in [-1, 1])."""
    _, _, w2, b2 = model.head_bigram
    reach = float(np.abs(w2.value).sum())
    lo, hi = b2.value.item() - reach, b2.value.item() + reach
    if not model.cfg.include_end_spans:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    return lo, hi


@PROPERTY_SETTINGS
@given(flags=MODEL_FLAGS, t_total=st.integers(30, 150), seed=st.integers(0, 2**32 - 1),
       bias=st.floats(-3.0, 3.0), climb=st.floats(0.05, 1.0))
def test_property_pruned_sweep_matches_full_column_reference(flags, t_total, seed, bias,
                                                             climb):
    """Random contexts with a random bias b2, and unary scores lifted so that
    each boundary gains at least climb * (hi - lo) over the lowest span
    score: prefix scores rise, so old starts fall behind by more than the
    span range within about 1 / climb + 3 columns."""
    model, ctx = _instance(flags, t_total, seed)
    model.head_bigram[3].value[:] = bias
    lo, hi = _span_range(model)
    u = ctx.unary.value[:, 0]
    u += climb * (hi - lo) - lo - u.min()
    _assert_pruned_matches_reference(ctx, model)


def _zero_span_context(model, t_total, rng):
    """Every span scores exactly 1/2 (w2 = 0, b2 = 1/2) and every unary score
    is -1/2, 0 or 1/2: segmentations that differ only at frames whose unary
    score is -1/2 tie exactly."""
    _, _, w2, b2 = model.head_bigram
    w2.value[:] = 0.0
    b2.value[:] = 0.5
    ctx = random_context(model, t_total, rng)
    ctx.unary.value[:, 0] = rng.choice([-0.5, 0.0, 0.5], size=t_total)
    return ctx


def _equal_rows_context(model, t_total, rng):
    """Equal hidden rows and dyadic weights: Q[t] - Q[s] is exact, so a span's
    score depends on its length alone, bit for bit, wherever its row sits in
    a column (w2 has one nonzero entry, 1/2, so the head's dot product is
    exact too). Unary scores from {-1/2, 0, 1/2}: segmentations whose segment
    lengths are permutations of each other tie exactly."""
    w1, b1, w2, b2 = model.head_bigram
    w1.value[:] = rng.integers(-4, 5, size=w1.value.shape) / 16.0
    b1.value[:] = rng.integers(-4, 5, size=b1.value.shape) / 8.0
    w2.value[:] = 0.0
    w2.value[0, 0] = 0.5
    b2.value[:] = 1.0
    row = rng.integers(-2, 3, size=2 * model.cfg.hidden_size) / 4.0
    tape = ReferenceTape()
    ctx = context_from_hidden(tape, model, tape.tensor(np.tile(row, (t_total, 1))))
    ctx.unary.value[:, 0] = rng.choice([-0.5, 0.0, 0.5], size=t_total)
    return ctx


@PROPERTY_SETTINGS
@given(flags=MODEL_FLAGS, t_total=st.integers(20, 80), seed=st.integers(0, 2**32 - 1),
       equal_rows=st.booleans())
def test_property_pruned_sweep_keeps_exactly_tied_candidates(flags, t_total, seed, equal_rows):
    """A start whose prefix score sits at the threshold is kept (>=), so the
    tie rule still sees every candidate that ties the winner or runner-up."""
    model = small_model(seed=seed % 1000, **flags)
    rng = np.random.default_rng(seed)
    make = _equal_rows_context if equal_rows else _zero_span_context
    ctx = make(model, t_total, rng)
    _assert_pruned_matches_reference(ctx, model)


@PROPERTY_SETTINGS
@given(flags=MODEL_FLAGS, t_total=st.integers(20, 150), seed=st.integers(0, 2**32 - 1))
def test_property_pruned_sweep_matches_reference_on_saturated_contexts(flags, t_total, seed):
    """Hidden states of scale 1e3 saturate tanh, so span scores sit at or near
    the ends of [lo, hi], and unary scores of scale 1e3 make prefix scores
    large, where the rounding slack of the bound matters most."""
    model = small_model(seed=seed % 1000, **flags)
    rng = np.random.default_rng(seed)
    ctx = random_context(model, t_total, rng, scale=1e3)
    ctx.unary.value[:, 0] = rng.normal(size=t_total) * 1e3
    _assert_pruned_matches_reference(ctx, model)


def test_pruning_slack_keeps_a_start_that_ties_only_after_rounding():
    """Every span scores 0, so the span range is 0 and the exact bound would
    drop start 1 (prefix 1) once start 2 reaches 1 + 2^-30. But column 3 adds
    a unary score of 2^40, where both candidates round to 2^40 + 1: they tie,
    and the tie goes to the smaller start. The slack, which scales with the
    largest unary score, keeps start 1 live so the sweep picks it."""
    model = small_model()
    for tensor in model.params.tensors():
        tensor.value[:] = 0.0
    ctx = random_context(model, 4, np.random.default_rng(0))
    ctx.unary.value[:, 0] = [0.0, 1.0, 2.0**-30, 2.0**40]
    best = dp_segment(ctx, model)
    assert best[0].boundaries == (1, 3)
    assert best == reference_dp_segment(ctx, model)
    assert dp_two_best(ctx, model) == reference_dp_two_best(ctx, model)


def test_pruning_bound_holds_the_zero_score_of_spans_from_frame_0():
    """Without end spans, a span from frame 0 scores 0, above every other
    span when b2 + |w2|_1 < 0. Each prefix's best split is then one segment
    from 0, and the best segmentation is the one boundary at frame 11, whose
    unary score is the largest. A bound that left 0 out of [lo, hi] would
    drop start 0 after column 1 (prefix 0 against 5) and miss it."""
    model = small_model(include_end_spans=False)
    model.head_bigram[3].value[:] = -10.0
    ctx = random_context(model, 12, np.random.default_rng(23))
    ctx.unary.value[:, 0] = 5.0
    ctx.unary.value[11, 0] = 6.0
    assert dp_segment(ctx, model)[0].boundaries == (11,)
    for decode, reference in ((dp_segment, reference_dp_segment),
                              (dp_two_best, reference_dp_two_best)):
        assert decode(ctx, model) == reference(ctx, model)


def test_uncapped_sweep_scores_under_half_the_spans_of_a_long_saturated_context():
    """The speed-up itself: a T=2000 decode skips most starts."""
    model = small_model()
    rng = np.random.default_rng(21)
    ctx = random_context(model, 2000, rng, scale=1e3)
    ctx.unary.value[:, 0] = rng.normal(size=2000) * 1e3
    with _scored_rows() as rows:
        seg, score = dp_segment(ctx, model)
    assert sum(rows) < 2000 * 2001 // 4
    assert score == score_segmentation(ctx, model, seg)


def test_capped_two_best_scores_every_span_under_the_cap():
    """Capped sweeps drop a start only when it falls out of the cap: column t
    scores min(t, cap) rows, at caps 1, 50 and T, on a saturated context on
    which the uncapped sweep does prune."""
    model = small_model()
    rng = np.random.default_rng(22)
    ctx = random_context(model, 300, rng, scale=1e3)
    ctx.unary.value[:, 0] = rng.normal(size=300) * 1e3
    with _scored_rows() as rows:
        dp_segment(ctx, model)
    assert sum(rows) < _full_column_rows(model, 300), "pruning never fired"
    for cap in (1, 50, 300):
        for decode, reference in ((dp_segment, reference_dp_segment),
                                  (dp_two_best, reference_dp_two_best)):
            with _scored_rows() as rows:
                got = decode(ctx, model, cap)
            assert rows == [min(t, cap) for t in range(1, 301)]
            assert got == reference(ctx, model, cap)


# ----- one lockstep sweep over a group against one sweep per context --------

def _climbing_context(model, t_total, rng, climb):
    """Unary scores lifted as in the pruned-sweep property above."""
    ctx = random_context(model, t_total, rng)
    lo, hi = _span_range(model)
    u = ctx.unary.value[:, 0]
    u += climb * (hi - lo) - lo - u.min()
    return ctx


def _saturated_context(model, t_total, rng):
    """Hidden states and unary scores of scale 1e3, as in the saturated property."""
    ctx = random_context(model, t_total, rng, scale=1e3)
    ctx.unary.value[:, 0] = rng.normal(size=t_total) * 1e3
    return ctx


@PROPERTY_SETTINGS
@given(flags=MODEL_FLAGS, seed=st.integers(0, 2**32 - 1), long=st.integers(30, 90),
       others=st.lists(st.integers(1, 90), max_size=7), data=st.data(),
       kind=st.sampled_from(["climb", "zero_span", "equal_rows", "saturated"]))
def test_property_lockstep_sweep_equals_one_dp_segment_per_context(flags, seed, long, others,
                                                                   data, kind):
    """One lockstep sweep over a group of 1-8 contexts of mixed lengths gives
    every context the Segmentation and the canonical score bytes of its own
    dp_segment. The group holds one context of 30 or more frames, whose own
    sweep drops starts (counted from the rows it scores), so the group's
    live lists differ in length and its span products run per context."""
    model = small_model(seed=seed % 1000, **flags)
    rng = np.random.default_rng(seed)
    if kind == "climb":
        model.head_bigram[3].value[:] = rng.uniform(-3.0, 3.0)
        climb = rng.uniform(0.05, 1.0)
    make = {"climb": lambda t: _climbing_context(model, t, rng, climb),
            "zero_span": lambda t: _zero_span_context(model, t, rng),
            "equal_rows": lambda t: _equal_rows_context(model, t, rng),
            "saturated": lambda t: _saturated_context(model, t, rng)}[kind]
    lengths = list(others)
    at = data.draw(st.integers(0, len(others)))
    lengths.insert(at, long)
    ctxs = [make(t) for t in lengths]
    want = []
    for i, ctx in enumerate(ctxs):
        with _scored_rows() as rows:
            want.append(dp_segment(ctx, model))
        if i == at:
            assert sum(rows) < _full_column_rows(model, long), "pruning never fired"
    got = decode_module._lockstep_segment(ctxs, model)
    assert [(seg, score.hex()) for seg, score in got] == \
        [(seg, score.hex()) for seg, score in want]
