"""Full-column DP sweep: the reference that the bound-pruned sweep must reproduce.

`reference_top_segmentations` is the column sweep as it was before uncapped
sweeps learned to skip the starts that can no longer win: every column t
scores every span (s, t) with s in [max(0, t - cap), t), and ranks the
candidates best[r, s] + (span(s, t) + u[t]) rank-major, ties to row 0 first,
then to the smaller start. `segfeat.decode` must return the same
segmentations and scores, as `PerFrameTape` is the oracle for `Tape.bilstm`.
"""

from __future__ import annotations

import numpy as np

from segfeat.model import Segmentation, bigram_scores_np, score_segmentation

NEG_INF = float("-inf")


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
