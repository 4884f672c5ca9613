"""Generic tape ops and the segmentation scorer and hinge composed from them.

The model records the structured hinge as one node with a hand-written
gradient (`model.score_segmentation_grad`). `ReferenceTape` keeps the generic
ops that the hinge used to be composed from (row gathers, `sub`, `mul`,
`sum`, `add_const`, `relu`, `add_row`, the bias add broadcast over rows,
and `row_affine`, the bigram head's output layer as one product per row,
as `model.bigram_out` computes it), each with its own backward, and
`composed_score` and `composed_hinge_loss` rebuild the scorer and the hinge
from them. They are
the independent oracle that the one-node hinge must reproduce byte for
byte, as `PerFrameTape` is for `Tape.bilstm` (its `wh` gradients aside, which
match within rounding). Their context must be built on a `ReferenceTape`.
"""

from __future__ import annotations

import numpy as np

from segfeat.autodiff import Tape, Tensor, _acc
from segfeat.decode import dp_two_best


class ReferenceTape(Tape):
    """A Tape with the generic ops that the model itself no longer records."""

    def add_row(self, a: Tensor, b: Tensor) -> Tensor:
        """a + b with the 1 x n row b broadcast over the rows of a."""
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.shape != (1, av.shape[1]):
            raise ValueError(f"add_row shape mismatch: {av.shape} + {bv.shape}")
        out = self._make(av + bv)

        def back():
            g = out.grad
            if g is None:
                return
            _acc(a, g)
            _acc(b, g.sum(axis=0, keepdims=True))

        self._record(back)
        return out

    def row_affine(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """x @ w + b as one 1 x n @ n x m product per row of x, stacked, so a
        row's bytes do not depend on the row count; the backward is affine's."""
        xv, wv = x.value, w.value
        out = self._make((xv[:, None, :] @ wv)[:, 0, :] + b.value)

        def back():
            g = out.grad
            if g is None:
                return
            _acc(x, g @ wv.T)
            _acc(w, xv.T @ g)
            _acc(b, g.sum(axis=0, keepdims=True))

        self._record(back)
        return out

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.shape != b.value.shape:
            raise ValueError(f"sub shape mismatch: {a.value.shape} - {b.value.shape}")
        out = self._make(a.value - b.value)

        def back():
            g = out.grad
            if g is None:
                return
            _acc(a, g)
            _acc(b, -g)

        self._record(back)
        return out

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        av, bv = a.value, b.value
        if av.shape != bv.shape:
            raise ValueError(f"mul shape mismatch: {av.shape} * {bv.shape}")
        out = self._make(av * bv)

        def back():
            g = out.grad
            if g is None:
                return
            _acc(a, g * bv)
            _acc(b, g * av)

        self._record(back)
        return out

    def add_const(self, a: Tensor, c: float) -> Tensor:
        out = self._make(a.value + c)

        def back():
            if out.grad is not None:
                _acc(a, out.grad)

        self._record(back)
        return out

    def relu(self, a: Tensor) -> Tensor:
        mask = a.value > 0.0
        out = self._make(np.where(mask, a.value, 0.0))

        def back():
            if out.grad is not None:
                _acc(a, out.grad * mask)

        self._record(back)
        return out

    def sum(self, a: Tensor) -> Tensor:
        out = self._make(np.sum(a.value))

        def back():
            if out.grad is not None:
                _acc(a, np.broadcast_to(out.grad, a.value.shape))

        self._record(back)
        return out

    def rows(self, a: Tensor, idx) -> Tensor:
        """Gather rows a[idx]; duplicate indices accumulate in backward."""
        idx = np.asarray(idx, dtype=np.intp)
        out = self._make(a.value[idx])

        def back():
            if out.grad is None:
                return
            g = np.zeros_like(a.value)
            np.add.at(g, idx, out.grad)
            _acc(a, g)

        self._record(back)
        return out


def _bigram_scores_tape(ctx, model, starts: np.ndarray, ends: np.ndarray) -> Tensor:
    """On-tape bigram head over index arrays; returns n x 1."""
    tape = ctx.tape
    _, b1, w2, b2 = model.head_bigram
    x = tape.sub(tape.rows(ctx.q, ends), tape.rows(ctx.q, starts))
    if model.cfg.mean_bigram:
        inv = np.broadcast_to((1.0 / (ends - starts))[:, None], x.value.shape)
        x = tape.mul(x, tape.tensor(inv.copy()))
    return tape.row_affine(tape.tanh(tape.add_row(x, b1)), w2, b2)


def composed_score(ctx, model, seg) -> Tensor:
    """score_segmentation as a scalar Tensor composed on the context's tape."""
    spans = seg.spans()
    if not model.cfg.include_end_spans:
        spans = spans[1:-1] if len(spans) >= 2 else []
    bounds = np.asarray(seg.boundaries, dtype=np.intp)
    tape = ctx.tape
    parts = []
    if bounds.size:
        parts.append(tape.sum(tape.rows(ctx.unary, bounds)))
    if spans:
        starts = np.array([s for s, _ in spans], dtype=np.intp)
        ends = np.array([e for _, e in spans], dtype=np.intp)
        parts.append(tape.sum(_bigram_scores_tape(ctx, model, starts, ends)))
    if not parts:
        return tape.scale(tape.tensor(np.zeros(())), 1.0)
    total = parts[0]
    for p in parts[1:]:
        total = tape.add(total, p)
    return total


def composed_hinge_loss(ctx, model, gold, max_seg_frames=None) -> Tensor:
    """losses.hinge_loss composed from generic ops: relu(1 + comp - gold)."""
    tape = ctx.tape
    competitor = next((seg for seg, _ in dp_two_best(ctx, model, max_seg_frames)
                       if seg != gold), None)
    if competitor is None:
        return tape.scale(tape.tensor(np.zeros(())), 1.0)
    gold_score = composed_score(ctx, model, gold)
    comp_score = composed_score(ctx, model, competitor)
    return tape.relu(tape.add_const(tape.sub(comp_score, gold_score), 1.0))
