"""Exact argmax over segmentations by dynamic programming.

best[t] is the best score of segmenting frames [0, t); a segment (s, t)
contributes its bigram score plus, when t is interior, the unary score of
the boundary it creates at t. Ties break toward the smaller predecessor.
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


def _reconstruct(backptr, t_total: int) -> Segmentation:
    bounds = []
    t = t_total
    while t > 0:
        s = backptr[t]
        if s > 0:
            bounds.append(s)
        t = s
    return Segmentation(tuple(reversed(bounds)), t_total)


def dp_segment(ctx: ScoreContext, model: SegmentalModel,
               max_seg_frames: int | None = None):
    """Best segmentation with a free segment count; exact when uncapped.

    max_seg_frames caps segment length (smaller search, faster training);
    any cap >= T reproduces the uncapped result. The reported value is the
    canonical score of the returned segmentation, so it is bit-identical to
    score_segmentation on the result.
    """
    t_total = ctx.n_frames
    max_len = t_total if max_seg_frames is None else max(1, min(int(max_seg_frames), t_total))
    u = ctx.unary_np

    best = np.full(t_total + 1, NEG_INF)
    best[0] = 0.0
    backptr = np.zeros(t_total + 1, dtype=np.intp)
    for t in range(1, t_total + 1):
        smin = max(0, t - max_len)
        vals = best[smin:t] + _span_column(ctx, model, smin, t)
        if t < t_total:
            vals = vals + u[t]
        j = int(np.argmax(vals))  # first occurrence: smallest predecessor wins ties
        best[t] = vals[j]
        backptr[t] = smin + j
    seg = _reconstruct(backptr, t_total)
    return seg, score_segmentation(ctx, model, seg)


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
    t_total = ctx.n_frames
    max_len = t_total if max_seg_frames is None else max(1, min(int(max_seg_frames), t_total))
    u = ctx.unary_np

    best1 = np.full(t_total + 1, NEG_INF)
    best2 = np.full(t_total + 1, NEG_INF)
    best1[0] = 0.0
    bp1 = [(0, 1)] * (t_total + 1)
    bp2 = [(0, 1)] * (t_total + 1)
    for t in range(1, t_total + 1):
        smin = max(0, t - max_len)
        e = _span_column(ctx, model, smin, t)
        if t < t_total:
            e = e + u[t]
        c1 = best1[smin:t] + e
        c2 = best2[smin:t] + e
        j1 = int(np.argmax(c1))
        best1[t] = c1[j1]
        bp1[t] = (smin + j1, 1)
        # runner-up: best alternative predecessor, or the runner-up through j1
        c1m = c1.copy()
        c1m[j1] = NEG_INF
        j1b = int(np.argmax(c1m))
        if c1m[j1b] >= c2[j1]:
            best2[t] = c1m[j1b]
            bp2[t] = (smin + j1b, 1)
        else:
            best2[t] = c2[j1]
            bp2[t] = (smin + j1, 2)

    def walk(rank):
        bounds = []
        t, r = t_total, rank
        while t > 0:
            s, pr = bp1[t] if r == 1 else bp2[t]
            if s > 0:
                bounds.append(s)
            t, r = s, pr
        return Segmentation(tuple(reversed(bounds)), t_total)

    first = walk(1)
    out = [(first, score_segmentation(ctx, model, first))]
    if np.isfinite(best2[t_total]):
        second = walk(2)
        out.append((second, score_segmentation(ctx, model, second)))
    return out


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
