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

A span's score depends on (s, t) alone (model.bigram_out), whatever batch
scores it, so a sweep scores the spans of many columns in one call
(_block_columns). It ranks one ascending list of candidate starts per
column, and a start leaves the list by one of three rules. A capped sweep
(training's hinge) drops the oldest start once it lies a cap behind, so it
scores every span under the cap. An uncapped sweep runs over blocks of
columns. Before each block it drops for good each start whose best prefix
score trails the largest prefix score of the last kept rank (the best for
dp_segment, the runner-up for dp_two_best) by more than the range of span
scores plus a rounding slack (_prune_bound): such a start can place in no
later column. Then it leaves out of the block each older start whose spans
into the block, bounded unit by unit over the block's columns, cannot lift
it into the kept ranks of any of them (_block_keep). A start at either
threshold is kept (>=), so every candidate that could tie the winner is
still ranked, in the same order, with the same bytes: the pruned sweep
picks what the full-column sweep picks.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .model import (ScoreContext, SegmentalModel, Segmentation, bigram_out,
                    bigram_scores_np, encode_windows, score_segmentation)

NEG_INF = float("-inf")


def _span_column(ctx: ScoreContext, model: SegmentalModel, starts: np.ndarray,
                 t: int) -> np.ndarray:
    """Bigram scores of the spans (s, t) for the ascending starts, one column
    of dp_segment_k's sweep. Without end spans, a span that starts at 0 or
    ends at T scores 0, as in score_segmentation.
    """
    if not model.cfg.include_end_spans and t == ctx.n_frames:
        return np.zeros(len(starts))
    vals = bigram_scores_np(ctx, model, starts, t)
    if not model.cfg.include_end_spans and starts[0] == 0:
        vals[0] = 0.0
    return vals


# Span rows that one bigram_scores_np call of a sweep may score (or the rows of
# its longest column, if more), which bounds its memory: at H <= 32 an
# utterance of up to 63 frames is one call at a cap of 50. From a measured
# sweep of the limit (CHANGES.md): 256 and 512 rows were slower, and more than
# 2048 gained nothing. A call also scores at most _BLOCK_FLOATS / H rows, so
# its two n x H gathers (q[starts], q[ends]) take 512 KiB each: freeing two
# 1 MiB gathers can trim the heap, and every call then page-faults them in
# again (at H=64 in a fresh process, 2048-row calls took 2.3 times as long
# per row as 1024-row ones).
_BLOCK_ROWS = 2048
_BLOCK_FLOATS = 2**16

# Columns per block of an uncapped sweep. From a measured sweep (CHANGES.md,
# dp_segment on trained T=1000 recordings and on random T=40/300/1000
# models): 16 to 24 columns were within noise of the best at T >= 300, 8 and
# 48 were slower, and a rule that grew the block with the live list
# (2 sqrt(n_live) columns) lost at T=40 and T=1000.
_BLOCK_COLUMNS = 16


def _block_columns(ctx: ScoreContext, model: SegmentalModel, kept: np.ndarray, first: int,
                   t0: int, t1: int, max_len: int):
    """Yield, for t = t0..t1-1, span(s, t) + u[t] (u[T] is not added) over the
    starts kept ++ [max(first, t - max_len), t), ascending (kept holds
    starts below first): one DP column each.

    The spans of consecutive columns are scored in blocks of at most
    max(rows of the longest column, min(_BLOCK_ROWS, _BLOCK_FLOATS / H))
    rows, one bigram_scores_np call each, so memory stays O(T*H) for any
    sweep, and each column is a slice of its block. A span's score
    depends on (s, t) alone, so every column holds the bytes that scoring it
    alone gives. Without end spans, a span that starts at 0 or ends at T
    scores 0, as in score_segmentation, and column T is not scored.
    """
    t_total = ctx.n_frames
    u = ctx.unary_np
    k = len(kept)
    cols = np.arange(t0, t1)
    counts = np.minimum(cols - first, max_len) + k  # rows of each column, nondecreasing
    offsets = np.concatenate(([0], np.cumsum(counts)))  # column t0 + i starts at row i
    shift = offsets[:-1] - cols + counts  # row r of a column, past kept, holds start r - shift
    bounds = offsets.tolist()
    limit = max(int(counts[-1]), min(_BLOCK_ROWS, _BLOCK_FLOATS // model.cfg.hidden_size))
    # without end spans, column T scores 0 everywhere and is not scored
    scored = t1 - t0 - (t1 > t_total and not model.cfg.include_end_spans)
    i0 = 0
    while i0 < scored:
        # the block holds columns i0..i1-1
        i1 = min(bisect_right(bounds, bounds[i0] + limit) - 1, scored)
        a, b = bounds[i0], bounds[i1]
        n = counts[i0:i1]
        ends = np.repeat(cols[i0:i1], n)
        at = np.arange(a, b)  # the rows, numbered across the sweep
        starts = at - np.repeat(shift[i0:i1], n)
        if k:
            row = at - np.repeat(offsets[i0:i1], n)  # the row within its column
            head = row < k
            starts[head] = kept[row[head]]
        vals = bigram_scores_np(ctx, model, starts, ends)
        if not model.cfg.include_end_spans:  # as in score_segmentation
            vals[starts == 0] = 0.0
        inner = b - a - (int(n[-1]) if cols[i1 - 1] == t_total else 0)  # rows that end before T
        vals[:inner] += u[ends[:inner]]
        for i in range(i0, i1):
            yield vals[bounds[i] - a:bounds[i + 1] - a]
        i0 = i1
    if scored < t1 - t0:
        yield np.zeros(int(counts[-1]))


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


def _block_keep(ctx: ScoreContext, model: SegmentalModel, prefix: np.ndarray,
                starts: np.ndarray, t0: int, t1: int, weights: np.ndarray, nu: float,
                base: float) -> np.ndarray:
    """Mask of the ascending starts (all below t0) that may place in some
    column of [t0, t1); see _top_segmentations.

    Unit j of span (s, t) has the input z_j = (Q[t]_j - Q[s]_j) [/ (t - s)
    with mean_bigram] + b1_j. Rounding to nearest is monotone, so the
    computed z_j, rounded op for op as _bigram_hidden rounds it, lies between
    the same ops applied to the smallest and the largest Q[t]_j of the block
    (and, with mean_bigram, to 1 / (t0 - s) and 1 / (t1 - 1 - s)): [zlo_j,
    zhi_j], exactly. tanh is monotone, so w2_j tanh(z_j) lies between its
    values at zlo_j and zhi_j, and the sums of the smaller and of the larger,
    plus b2, give lower and upper bounds L_s and U_s on the span scores from
    s into the block (widened to hold 0 where a span from 0 or to T scores 0
    without end spans). u[t] is common to a column's candidates.

    With top the `ranks`-th largest of prefix[r, s] + L_s over the ranks r
    and starts s, at least `ranks` candidates of every column of the block
    are at least top less rounding, and s offers at most prefix[0, s] + U_s
    plus rounding, so s is left out if that falls below top - nu * (base +
    |top|). One product with `weights`, [tanh(zlo) | tanh(zhi)] @ [[w2+,
    w2-], [w2-, w2+]], gives both sums; its zero weights add no rounding.

    The slack bounds the rounding, with u = 2^-53, eps = 2u and M = |b2| +
    |w2|_1, which bounds |L_s|, |U_s| and every span score:
    - np.tanh, which need be neither monotone nor correctly rounded, is
      taken to err by at most 4 eps (8 units in the last place of a value in
      [1/2, 1]); a span's computed tanh_j then lies within 8 eps of the
      computed value at zlo_j or zhi_j: 16 eps |w2|_1 over both sides;
    - the H-term dot products and b2 adds of each bound and of each span
      score: (4H+6) u M over both sides;
    - adding u[t]: 2 u (M + max|u|);
    - the prefix adds, the sums of the comparison and its threshold: below
      5 u |top| once the two sides differ by the slack (a side far below
      top rounds by less than its gap).
    That is below (2H+24) eps (base + |top|), as base >= M + max|u|
    (_prune_bound) and H >= 1.
    """
    q = ctx.q_np
    _, b1, _, b2 = model.head_bigram
    block = q[t0:t1]
    q_s = q[starts]
    z = np.empty((len(starts), 2, q.shape[1]))  # [zlo | zhi] per start
    np.subtract(block.min(axis=0), q_s, out=z[:, 0])
    np.subtract(block.max(axis=0), q_s, out=z[:, 1])
    if model.cfg.mean_bigram:
        near, far = (1.0 / (t0 - starts))[:, None], (1.0 / (t1 - 1 - starts))[:, None]
        d_lo, d_hi = z[:, 0], z[:, 1]
        np.minimum(d_lo * near, d_lo * far, out=d_lo)
        np.maximum(d_hi * near, d_hi * far, out=d_hi)
    z += b1.value
    np.tanh(z, out=z)
    lower, upper = (z.reshape(len(starts), -1) @ weights).T
    bias = b2.value[0, 0]
    lower, upper = lower + bias, upper + bias
    if not model.cfg.include_end_spans:
        spans_score_0 = slice(None) if t1 > ctx.n_frames else slice(0, int(starts[0] == 0))
        np.minimum(lower[spans_score_0], 0.0, out=lower[spans_score_0])
        np.maximum(upper[spans_score_0], 0.0, out=upper[spans_score_0])
    ranks = prefix.shape[0]
    floors = (prefix[:, starts] + lower).ravel()
    top = float(floors.max() if ranks == 1 else np.partition(floors, -ranks)[-ranks])
    # a NaN top, or a -inf one (fewer than `ranks` finite candidates), leaves s in
    return ~(prefix[0, starts] + upper < top - nu * (base + abs(top)))


def _uncapped_blocks(ctx: ScoreContext, model: SegmentalModel, prefix: np.ndarray):
    """Yield (t0, t1, scores, starts, t0 - k, columns) for each block [t0, t1)
    of an uncapped sweep; see _top_segmentations.

    starts holds the k starts kept for the block, then t0..t1-1, and
    scores[:, :k] their prefix scores; columns yields the block's columns
    (_block_columns). The caller ranks column t into scores[:, k + t - t0]
    before it asks for the next block, which copies those prefix scores
    into prefix, adds the block's starts to the list and drops the starts
    that can place in no later column.
    """
    t_total = ctx.n_frames
    ranks = prefix.shape[0]
    width, nu, base = _prune_bound(ctx, model)
    block_nu = nu + 16 * float(np.finfo(float).eps)  # (2H+24) eps, see _block_keep
    w2 = model.head_bigram[2].value
    pos, neg = np.maximum(w2, 0.0), np.minimum(w2, 0.0)
    weights = np.block([[pos, neg], [neg, pos]])  # see _block_keep
    live, n = np.zeros(t_total, dtype=np.intp), 1  # the list, ascending in live[:n]
    top = NEG_INF
    for t0 in range(1, t_total + 1, _BLOCK_COLUMNS):
        t1 = min(t0 + _BLOCK_COLUMNS, t_total + 1)
        kept = live[:n]
        if n > 1:  # a lone start always places
            kept = kept[_block_keep(ctx, model, prefix, kept, t0, t1, weights, block_nu, base)]
        k = len(kept)
        starts = np.concatenate((kept, np.arange(t0, t1)))
        scores = np.empty((ranks, len(starts)))
        scores[:, :k] = prefix[:, kept]
        yield t0, t1, scores, starts, t0 - k, _block_columns(ctx, model, kept, t0, t0, t1,
                                                             t_total)
        prefix[:, t0:t1] = scores[:, k:]
        if t1 > t_total:
            return
        live[n:n + t1 - t0] = np.arange(t0, t1)
        n += t1 - t0
        top = max(top, float(np.fmax.reduce(prefix[ranks - 1, t0:t1])))
        threshold = top - width - nu * (base + abs(top))
        keep = ~(prefix[0, live[:n]] < threshold)  # a NaN threshold drops nothing
        n_keep = int(np.count_nonzero(keep))
        if n_keep < n:
            live[:n_keep] = live[:n][keep]
            n = n_keep


def _top_segmentations(ctx: ScoreContext, model: SegmentalModel,
                       max_seg_frames: int | None, ranks: int):
    """The `ranks` best distinct segmentations (1 or 2) by one column sweep.

    prefix[r, s] is the (r+1)-th best score of frames [0, s). Column t ranks
    the candidates prefix[r, s] + (span(s, t) + u[t]) over its candidate
    starts s, ascending, flattened rank-major, so ties go to row 0 first,
    then to the smaller start; its ranks become the prefix scores of start
    t. Returns (Segmentation, canonical score) pairs for the finite ranks.

    A capped sweep ranks every start in [max(0, t - cap), t) and scores all
    its spans by _block_columns, as one block. An uncapped sweep runs over
    blocks of _BLOCK_COLUMNS columns [t0, t1) (_uncapped_blocks) and drops
    starts by two rules:

    - For good: let top be the largest prefix score of row ranks-1 swept
      so far, at start t'. Every later column holds the candidate of t' in
      that row, at least top plus the lowest span score plus u[t], and so
      does its row ranks-1 (the row 0 candidate of t' is no smaller); a
      start s offers at most prefix[0, s] plus the highest span score plus
      u[t] (see _prune_bound). Once prefix[0, s] falls below top - width
      (less the rounding slack), s can never place again, and as top only
      rises it stays dropped: the list is compacted without it before each
      block.
    - For one block: a live start s < t0 whose spans into the block are
      bounded so tightly that `ranks` candidates of every column of the
      block beat it (_block_keep).

    The kept starts and every start in [t0, t) are the candidates of column
    t; their spans are scored for the whole block by _block_columns, and a
    light loop takes each column's ranks. A start at either threshold stays
    (>=), so every candidate that could tie the winner or the runner-up is
    still ranked, in the same order and with the same bytes (a span's score
    depends on (s, t) alone): the sweep picks what the full column picks.
    """
    t_total = ctx.n_frames
    prefix = np.full((ranks, t_total + 1), NEG_INF)
    prefix[0, 0] = 0.0
    back = [[(0, 0)] * (t_total + 1) for _ in range(ranks)]  # (start, rank)
    if max_seg_frames is None:
        max_len, blocks = t_total, _uncapped_blocks(ctx, model, prefix)
    else:
        max_len = max(1, min(int(max_seg_frames), t_total))
        blocks = [(1, t_total + 1, prefix, np.arange(t_total + 1), 0,
                   _block_columns(ctx, model, np.empty(0, dtype=np.intp), 0, 1, t_total + 1,
                                  max_len))]
    for t0, t1, scores, starts, off, columns in blocks:
        for t, e in zip(range(t0, t1), columns):
            # rank scores[:, a:b] + e, the candidates of starts[a:b], into scores[:, b]
            b = t - off
            a = b - max_len if b > max_len else 0
            flat = (scores[:, a:b] + e).ravel()
            for r in range(ranks):
                i = int(flat.argmax())  # first occurrence
                scores[r, b] = flat[i]
                rank, j = divmod(i, b - a)
                back[r][t] = (starts.item(a + j), rank)
                if r + 1 < ranks:
                    flat[i] = NEG_INF

    out = []
    for rank in range(ranks):
        if not np.isfinite(prefix[rank, t_total]):
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
    A cap >= T sweeps unpruned, and equals the uncapped sweep by proof: the
    pruned sweep ranks every candidate that could place, and a span scores
    the same bytes in either (see _top_segmentations). The reported value
    is the canonical score of the returned segmentation, so it is
    bit-identical to score_segmentation on the result.
    """
    return _top_segmentations(ctx, model, max_seg_frames, 1)[0]


def _lockstep_pays(size: int, longest: int, hidden: int) -> bool:
    """Whether one lockstep sweep decodes a scan group of `size` contexts,
    the longest `longest` frames, faster than one dp_segment each. Set from
    a measured grid of size, length and H (CHANGES.md): lockstep lost in
    every group of 2, in some groups of 4, and at T=256, H=64 in a group
    of 8, where the column arithmetic outweighs the per-column overhead
    that it saves."""
    return size >= 8 and longest * hidden <= 8192


def _lockstep_segment(ctxs, model: SegmentalModel):
    """dp_segment(ctx, model) of every context, by one column sweep over all.

    The contexts are swept in ascending length, so column t serves the
    contexts [first:] that still have it. Row b of live and prefix holds
    context b's candidate starts (as rows of the stacked q) and their prefix
    scores in its first n[b] lanes, as its own uncapped sweep holds them,
    and each context keeps its own drop rule (_prune_bound; lo stays 0
    uncapped). The span work, the head's per-span product included, runs
    once per column over all contexts' lanes, padded to the longest live
    list; a span's score depends on (s, t) alone, so every real lane gets
    the bytes its own sweep gives it. Lanes past n[b] hold earlier starts,
    never uninitialized memory, and are masked to -inf before the
    per-context argmax (first occurrence). Returns the (Segmentation,
    canonical score) pairs in input order.
    """
    order = sorted(range(len(ctxs)), key=lambda b: ctxs[b].n_frames)
    ctxs = [ctxs[b] for b in order]
    lengths = [ctx.n_frames for ctx in ctxs]
    n_ctx, lanes = len(ctxs), lengths[-1] + 1
    q = np.zeros((n_ctx, lanes, model.cfg.hidden_size))
    # u[b, T_b] = 0 is added in b's last column: that changes at most the sign
    # of a zero span score, and no prefix score is -0.0, so no sum changes
    u = np.zeros((n_ctx, lanes))
    for b, ctx in enumerate(ctxs):
        q[b, :ctx.n_frames + 1] = ctx.q_np
        u[b, :ctx.n_frames] = ctx.unary_np
    q = q.reshape(n_ctx * lanes, -1)
    row0 = np.arange(n_ctx) * lanes  # the row of each context's Q[0] in q

    live = np.repeat(row0[:, None], lanes, axis=1)
    prefix = np.full((n_ctx, lanes), NEG_INF)
    prefix[:, 0] = 0.0
    back = np.zeros((n_ctx, lanes), dtype=np.intp)
    n = np.ones(n_ctx, dtype=np.intp)
    width, nu, _ = _prune_bound(ctxs[0], model)  # width and nu depend on the model alone
    base = np.array([_prune_bound(ctx, model)[2] for ctx in ctxs])
    top = np.full(n_ctx, NEG_INF)
    floor = np.zeros(n_ctx)
    b1 = model.head_bigram[1]
    first, ragged = 0, False
    for t in range(1, lanes):
        counts = n[first:]
        m = int(counts.max()) if ragged else t
        starts = live[first:, :m]
        x = np.take(q, starts, axis=0)
        np.subtract(q[row0[first:] + t][:, None], x, out=x)
        if model.cfg.mean_bigram:
            x *= (1.0 / ((row0[first:, None] + t) - starts))[:, :, None]
        x += b1.value
        np.tanh(x, out=x)
        e = bigram_out(model, x)
        done = bisect_right(lengths, t) - first  # contexts that end at column t
        if not model.cfg.include_end_spans:
            e[:done] = 0.0
            e[starts[:, 0] == row0[first:], 0] = 0.0
        e += u[first:, t, None]
        e += prefix[first:, :m]  # prefix + e, as a context's own sweep adds them
        if ragged:
            e[np.arange(m) >= counts[:, None]] = NEG_INF
        pick = e.argmax(axis=1)  # first occurrence
        k = np.arange(len(pick))
        back[first:, t] = starts[k, pick]
        first += done
        if first == n_ctx:
            break

        v = e[k[done:], pick[done:]]
        if ragged:
            rows, slot = np.arange(first, n_ctx), n[first:]
        else:
            rows, slot = slice(first, n_ctx), m
        prefix[rows, slot] = v
        live[rows, slot] = row0[first:] + t
        n[first:] += 1
        # the drop rule of _top_segmentations, whose comparisons ignore a NaN
        np.fmin(floor[first:], v, out=floor[first:])
        np.fmax(top[first:], v, out=top[first:])
        threshold = top[first:] - width - nu * (base[first:] + np.abs(top[first:]))
        for j in np.flatnonzero(threshold > floor[first:]).tolist():
            b = first + j
            keep = prefix[b, :n[b]] >= threshold[j]
            n_keep = int(np.count_nonzero(keep))
            live[b, :n_keep] = live[b, :n[b]][keep]
            prefix[b, :n_keep] = prefix[b, :n[b]][keep]
            n[b] = n_keep
            floor[b] = prefix[b, :n_keep].min()
            ragged = True

    out = [None] * n_ctx
    for b, ctx in enumerate(ctxs):
        links = (back[b] - row0[b]).tolist()
        starts, t = [], lengths[b]
        while t > 0:
            t = links[t]
            starts.append(t)
        seg = Segmentation(tuple(reversed(starts[:-1])), lengths[b])  # the last start is 0
        out[order[b]] = (seg, score_segmentation(ctx, model, seg))
    return out


def dp_segment_many(model: SegmentalModel, items, dp_one):
    """Yield (item, (Segmentation, score)) for each (item, features) pair, in
    input order: the uncapped dp_segment of each utterance, byte for byte.

    The utterances are encoded by `encode_windows`. A scan group for which
    `_lockstep_pays` is decoded by one lockstep sweep, and every other
    context by dp_one(ctx, model, max_seg_frames=None): the caller passes
    its own `dp_segment`, so a wrapper around the caller's name (as the
    benchmark tracer installs) still sees each single-context decode. A
    lockstep column holds at most a group's padded frames, within the scan
    budget, times H floats.
    """
    hidden = model.cfg.hidden_size
    for pairs, groups in encode_windows(model, items):
        results = [None] * len(pairs)
        for group in groups:
            ctxs = [pairs[i][1] for i in group]
            if _lockstep_pays(len(ctxs), max(ctx.n_frames for ctx in ctxs), hidden):
                decoded = _lockstep_segment(ctxs, model)
            else:
                decoded = [dp_one(ctx, model, max_seg_frames=None) for ctx in ctxs]
            for i, result in zip(group, decoded):
                results[i] = result
        for (item, _), result in zip(pairs, results):
            yield item, result


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
