"""Exact argmax over segmentations by dynamic programming.

A prefix score is the score of segmenting frames [0, t); a segment (s, t)
contributes its bigram score plus, when t is interior, the unary score of
the boundary it creates at t.

One column sweep keeps the best and the runner-up score of every prefix and
serves both validation and `segment` (dp_segment, the argmax) and the
structured hinge (dp_two_best, the argmax and the exact runner-up). Equal
candidates in a column break toward the better-ranked prefix, then the
smaller segment start; so among tied segmentations the argmax is the one
whose boundaries, read from the last, are smallest. dp_segment_k keeps its
own sweep, whose rows are segment counts, with the smaller-start rule.

The sweep ranks one ascending list of candidate starts per column, and a
start leaves the list by one of two rules. A capped sweep (training's hinge)
drops the oldest start once it lies a cap behind, so it scores every span
under the cap. An uncapped sweep drops for good each start whose best prefix
score trails the largest prefix score of the last kept rank (the best for
dp_segment, the runner-up for dp_two_best) by more than the range of span
scores plus a rounding slack (_prune_bound): such a start can place in no
later column. A start at the threshold is kept (>=), so every candidate that
could tie the winner is still ranked, in the same order.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .model import ScoreContext, SegmentalModel, Segmentation, bigram_scores_np, score_segmentation

NEG_INF = float("-inf")
BRUTE_FORCE_MAX_FRAMES = 16


def _span_column(ctx: ScoreContext, model: SegmentalModel, starts: np.ndarray,
                 t: int) -> np.ndarray:
    """Bigram scores of the spans (s, t) for the ascending starts, one DP column.

    Columns are scored on demand from Q[t] - Q[starts] and dropped after use,
    so a sweep holds O(T*H) memory whatever the cap. Without end spans, a
    span that starts at 0 or ends at T scores 0, as in score_segmentation.
    """
    if not model.cfg.include_end_spans and t == ctx.n_frames:
        return np.zeros(len(starts))
    vals = bigram_scores_np(ctx, model, starts, t)
    if not model.cfg.include_end_spans and starts[0] == 0:
        vals[0] = 0.0
    return vals


def _prune_bound(ctx: ScoreContext, model: SegmentalModel):
    """(width, nu, base): an uncapped sweep drops a start s for good once its
    best prefix score p_s < top - width - nu * (base + |top|); see
    _top_segmentations.

    tanh lies in [-1, 1], so every span score lies in [lo, hi] with
    lo = b2 - |w2|_1 and hi = b2 + |w2|_1, widened to hold 0 without end
    spans (spans from 0 or to T score 0 there); width = hi - lo.

    The slack bounds the rounding of both sides of the comparison, with u the
    unit roundoff 2^-53: a computed span score leaves [lo, hi] by at most
    (H+1) u (|b2| + |w2|_1) (an H-term dot product of values in [-1, 1], then
    the bias add); adding u[t] rounds by at most u (|b2| + |w2|_1 + max|u|);
    adding the prefix by u |top| for the start that set top, and for s by at
    most u (|top| + gap), where the gap top - p_s exceeds width only
    by the slack. Over both candidates that is below
    (2H+8) u (width + |b2| + |w2|_1 + max|u| + |top|). nu takes np.finfo's
    eps = 2u, which leaves room for rounding |w2|_1 and the threshold itself.
    """
    _, _, w2, b2 = model.head_bigram
    reach = float(np.abs(w2.value).sum())
    bias = float(b2.value[0, 0])
    lo, hi = bias - reach, bias + reach
    if not model.cfg.include_end_spans:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    nu = (2 * model.cfg.hidden_size + 8) * float(np.finfo(float).eps)
    u_max = float(np.abs(ctx.unary_np).max())
    return hi - lo, nu, (hi - lo) + abs(bias) + reach + u_max


def _top_segmentations(ctx: ScoreContext, model: SegmentalModel,
                       max_seg_frames: int | None, ranks: int):
    """The `ranks` best distinct segmentations (1 or 2) by one column sweep.

    The sweep keeps its candidate starts, ascending, in live[lo:n], and
    prefix[r, k] is the (r+1)-th best score of frames [0, live[k]). Column t
    ranks the candidates prefix[r, k] + (span(live[k], t) + u[t]) over
    (r, k) flattened rank-major, so ties go to row 0 first, then to the
    smaller start; its ranks become the prefix scores of start t, appended
    at n. Returns (Segmentation, canonical score) pairs for the finite ranks.

    Starts leave the list by one of two rules. Capped, lo advances once the
    oldest start lies a cap behind the next column. Uncapped, let top be the
    largest prefix score of row ranks-1 swept so far, at start t'. Every
    later column holds the candidate of t' in that row, at least top plus
    the lowest span score plus u[t], and so does its row ranks-1 (the row 0
    candidate of t' is no smaller); a start s offers at most its best prefix
    score plus the highest span score plus u[t] (see _prune_bound). Once
    that best prefix score falls below top - width (less the rounding
    slack), s can never place again, and as top only rises it stays dropped,
    so the list is compacted without it. A start at the threshold stays
    (>=), so every candidate that could tie the winner or the runner-up is
    still ranked, in the same order: the sweep picks what the full column
    picks. Once a start has dropped, a kept row sits elsewhere in a smaller
    batch, where the BLAS product may round its last bits differently (as in
    a capped column): only candidates that close could rank differently.
    """
    t_total = ctx.n_frames
    max_len = t_total if max_seg_frames is None else max(1, min(int(max_seg_frames), t_total))
    u = ctx.unary_np

    live = np.arange(t_total + 1)
    prefix = np.full((ranks, t_total + 1), NEG_INF)
    prefix[0, 0] = 0.0
    lo, n = 0, 1
    back = [[(0, 0)] * (t_total + 1) for _ in range(ranks)]  # (start, rank)
    pruning = max_seg_frames is None
    if pruning:
        width, nu, base = _prune_bound(ctx, model)
        top = threshold = NEG_INF
        floor = 0.0  # smallest best prefix score over the live starts
    for t in range(1, t_total + 1):
        e = _span_column(ctx, model, live[lo:n], t)
        if t < t_total:
            e = e + u[t]
        flat = (prefix[:, lo:n] + e).ravel()
        for r in range(ranks):
            i = int(flat.argmax())  # first occurrence
            prefix[r, n] = flat[i]
            rank, j = divmod(i, n - lo)
            back[r][t] = (live.item(lo + j), rank)
            if r + 1 < ranks:
                flat[i] = NEG_INF
        if t == t_total:
            break
        live[n] = t
        n += 1
        if n - lo > max_len:
            lo += 1
        if not pruning:
            continue
        v0, v_last = prefix.item(0, n - 1), prefix.item(ranks - 1, n - 1)
        if v0 < floor:
            floor = v0
        if v_last > top:
            top = v_last
            threshold = top - width - nu * (base + abs(top))
        if threshold > floor:
            keep = prefix[0, :n] >= threshold
            n_keep = int(np.count_nonzero(keep))
            live[:n_keep] = live[:n][keep]
            prefix[:, :n_keep] = prefix[:, :n][:, keep]
            n = n_keep
            floor = float(prefix[0, :n].min())

    out = []
    for rank in range(ranks):
        if not np.isfinite(prefix[rank, n]):
            break
        starts, t, r = [], t_total, rank
        while t > 0:
            t, r = back[r][t]
            starts.append(t)
        seg = Segmentation(tuple(reversed(starts[:-1])), t_total)  # the last start is 0
        out.append((seg, score_segmentation(ctx, model, seg)))
    return out


def dp_segment(ctx: ScoreContext, model: SegmentalModel,
               max_seg_frames: int | None = None):
    """Best segmentation with a free segment count; exact when uncapped.

    max_seg_frames caps segment length (smaller search, faster training).
    A cap >= T sweeps unpruned, and equals the uncapped sweep by measurement,
    not by proof: a pruned column may round a span's last bits differently
    (see _top_segmentations). The reported value is the canonical score of
    the returned segmentation, so it is bit-identical to score_segmentation
    on the result.
    """
    return _top_segmentations(ctx, model, max_seg_frames, 1)[0]


def dp_segment_k(ctx: ScoreContext, model: SegmentalModel, k: int):
    """Best segmentation with exactly k segments (k-1 interior boundaries)."""
    t_total = ctx.n_frames
    if not (1 <= k <= t_total):
        raise ValueError(f"segment count {k} out of range [1, {t_total}]")
    u = ctx.unary_np

    best = np.full((k + 1, t_total + 1), NEG_INF)
    best[0, 0] = 0.0
    backptr = np.zeros((k + 1, t_total + 1), dtype=np.intp)
    for t in range(1, t_total + 1):
        # j segments need at least j frames and leave room for k - j more
        j_lo, j_hi = max(1, k - (t_total - t)), min(k, t)
        smin = j_lo - 1
        e = _span_column(ctx, model, np.arange(smin, t), t)
        # row j reads best[j - 1, smin:t]; cells with s < j - 1 are -inf
        vals = best[j_lo - 1:j_hi, smin:t] + e
        if t < t_total:
            vals = vals + u[t]
        best[j_lo:j_hi + 1, t] = vals.max(axis=1)
        backptr[j_lo:j_hi + 1, t] = smin + np.argmax(vals, axis=1)  # first occurrence

    bounds = []
    t = t_total
    for j in range(k, 0, -1):
        s = backptr[j, t]
        if s > 0:
            bounds.append(s)
        t = s
    seg = Segmentation(tuple(reversed(bounds)), t_total)
    return seg, score_segmentation(ctx, model, seg)


def dp_two_best(ctx: ScoreContext, model: SegmentalModel,
                max_seg_frames: int | None = None):
    """Top two distinct segmentations (by score) under the optional cap.

    Returns a list of (Segmentation, score) of length 1 or 2; the runner-up
    is exact, which lets hinge training pick the best competitor when the
    argmax coincides with the gold segmentation.
    """
    return _top_segmentations(ctx, model, max_seg_frames, 2)


def brute_force_segment(ctx: ScoreContext, model: SegmentalModel,
                        k: int | None = None):
    """Exhaustive oracle: score every boundary subset via score_segmentation.

    Ties break as in the DP: toward the boundaries that, read from the last,
    are smallest, a shorter list first where one is a tail of the other. Only
    usable for short utterances (2^(T-1) candidates).
    """
    t_total = ctx.n_frames
    if t_total > BRUTE_FORCE_MAX_FRAMES:
        raise ValueError(f"brute force limited to T <= {BRUTE_FORCE_MAX_FRAMES}, got {t_total}")
    if k is not None and not (1 <= k <= t_total):
        raise ValueError(f"segment count {k} out of range [1, {t_total}]")
    sizes = range(t_total) if k is None else [k - 1]
    best_score = NEG_INF
    best_bounds = None
    for size in sizes:
        for bounds in combinations(range(1, t_total), size):
            seg = Segmentation(bounds, t_total)
            score = score_segmentation(ctx, model, seg)
            if score > best_score or (score == best_score and (
                    best_bounds is None or bounds[::-1] < best_bounds[::-1])):
                best_score = score
                best_bounds = bounds
    return Segmentation(best_bounds, t_total), float(best_score)
