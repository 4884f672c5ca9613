"""Full-column DP sweep: the reference that the bound-pruned sweep must reproduce.

`reference_top_segmentations` is the column sweep as it was before uncapped
sweeps learned to skip the starts that can no longer win: every column t
scores every span (s, t) with s in [max(0, t - cap), t), and ranks the
candidates best[r, s] + (span(s, t) + u[t]) rank-major, ties to row 0 first,
then to the smaller start. `segfeat.decode` must return the same
segmentations and scores, as `PerFrameTape` is the oracle for `Tape.bilstm`.

`brute_force_segment` is the exhaustive oracle of acceptance criterion A1:
it scores every segmentation of a short utterance.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from segfeat.model import Segmentation, bigram_scores_np, score_segmentation

NEG_INF = float("-inf")
BRUTE_FORCE_MAX_FRAMES = 16


def _span_column(ctx, model, smin, t):
    if not model.cfg.include_end_spans and t == ctx.n_frames:
        return np.zeros(t - smin)
    vals = bigram_scores_np(ctx, model, np.arange(smin, t), t)
    if not model.cfg.include_end_spans and smin == 0:
        vals[0] = 0.0
    return vals


def reference_top_segmentations(ctx, model, max_seg_frames, ranks):
    """The `ranks` best (Segmentation, canonical score) pairs, every span scored."""
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


def reference_dp_segment(ctx, model, max_seg_frames=None):
    return reference_top_segmentations(ctx, model, max_seg_frames, 1)[0]


def reference_dp_two_best(ctx, model, max_seg_frames=None):
    return reference_top_segmentations(ctx, model, max_seg_frames, 2)


def brute_force_segment(ctx, model, k=None):
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
