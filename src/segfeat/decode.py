"""Exact argmax over segmentations by dynamic programming.

best[t] is the best score of segmenting frames [0, t); a segment (s, t)
contributes its bigram score plus, when t is interior, the unary score of
the boundary it creates at t.

One column sweep keeps the best and the runner-up score of every prefix and
serves both validation and `segment` (dp_segment, the argmax) and the
structured hinge (dp_two_best, the argmax and the exact runner-up). Equal
candidates in a column break toward the better-ranked prefix, then the
smaller segment start; so among tied segmentations the argmax is the one
whose boundaries, read from the last, are smallest. dp_segment_k keeps its
own sweep, whose rows are segment counts, with the smaller-start rule.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .model import ScoreContext, SegmentalModel, Segmentation, bigram_scores_np, score_segmentation

NEG_INF = float("-inf")
BRUTE_FORCE_MAX_FRAMES = 16


def _span_column(ctx: ScoreContext, model: SegmentalModel, smin: int, t: int) -> np.ndarray:
    """Bigram scores of the spans (s, t) for s in [smin, t), one DP column.

    Columns are scored on demand from Q[t] - Q[smin:t] and dropped after use,
    so a sweep holds O(T*H) memory whatever the cap. Without end spans, a
    span that starts at 0 or ends at T scores 0, as in score_segmentation.
    """
    if not model.cfg.include_end_spans and t == ctx.n_frames:
        return np.zeros(t - smin)
    vals = bigram_scores_np(ctx, model, np.arange(smin, t), t)
    if not model.cfg.include_end_spans and smin == 0:
        vals[0] = 0.0
    return vals


def _top_segmentations(ctx: ScoreContext, model: SegmentalModel,
                       max_seg_frames: int | None, ranks: int):
    """The `ranks` best distinct segmentations (1 or 2) by one column sweep.

    best[r, t] is the (r+1)-th best score of frames [0, t). Column t ranks
    the candidates best[r, s] + (span(s, t) + u[t]) over (r, s) flattened
    rank-major, so ties go to row 0 first, then to the smaller start.
    Returns (Segmentation, canonical score) pairs for the finite ranks.
    """
    t_total = ctx.n_frames
    max_len = t_total if max_seg_frames is None else max(1, min(int(max_seg_frames), t_total))
    u = ctx.unary_np

    best = np.full((ranks, t_total + 1), NEG_INF)
    best[0, 0] = 0.0
    back = [[(0, 0)] * (t_total + 1) for _ in range(ranks)]  # (start, rank)
    for t in range(1, t_total + 1):
        smin = max(0, t - max_len)
        e = _span_column(ctx, model, smin, t)
        if t < t_total:
            e = e + u[t]
        flat = (best[:, smin:t] + e).ravel()
        for r in range(ranks):
            i = int(flat.argmax())  # first occurrence
            best[r, t] = flat[i]
            rank, j = divmod(i, t - smin)
            back[r][t] = (smin + j, rank)
            if r + 1 < ranks:
                flat[i] = NEG_INF

    out = []
    for top in range(ranks):
        if not np.isfinite(best[top, t_total]):
            break
        starts, t, r = [], t_total, top
        while t > 0:
            t, r = back[r][t]
            starts.append(t)
        seg = Segmentation(tuple(reversed(starts[:-1])), t_total)  # the last start is 0
        out.append((seg, score_segmentation(ctx, model, seg)))
    return out


def dp_segment(ctx: ScoreContext, model: SegmentalModel,
               max_seg_frames: int | None = None):
    """Best segmentation with a free segment count; exact when uncapped.

    max_seg_frames caps segment length (smaller search, faster training);
    any cap >= T reproduces the uncapped result. The reported value is the
    canonical score of the returned segmentation, so it is bit-identical to
    score_segmentation on the result.
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
        e = _span_column(ctx, model, smin, t)
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

    Ties break toward the lexicographically smallest boundary list. Only
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
            if score > best_score or (score == best_score and
                                      (best_bounds is None or bounds < best_bounds)):
                best_score = score
                best_bounds = bounds
    return Segmentation(best_bounds, t_total), float(best_score)
