"""Per-frame tape LSTM: the reference that `Tape.bilstm` must reproduce.

`PerFrameTape.lstm` records one direction frame by frame: a batched input
projection, then per frame a row gather, the h @ wh product, their sum and
one gate node (the row gather and the other generic ops come from
`ReferenceTape`). `PerFrameTape.bilstm` runs the two directions one after the
other and joins them with `hstack`. Every op keeps its own generic
backward, so this is the independent oracle for the hand-written BPTT, as
`brute_force_segment` is for the DP. `bilstm_encode(PerFrameTape(), ...)`
runs the whole stacked encoder through it.

`Tape.bilstm` reproduces its outputs and its input, `wx` and `b` gradients
bit for bit. The `wh` gradients match only within rounding: here each step's
h @ wh node adds its own outer product to `wh.grad`, while `Tape.bilstm`
forms one h_prev.T @ G product per direction after its BPTT loop, which sums
the same terms in another order.
"""

from __future__ import annotations

import numpy as np

from segfeat.autodiff import Tensor, _acc, _sigmoid

from reference_tape import ReferenceTape


class PerFrameTape(ReferenceTape):
    """A Tape whose `bilstm` records four nodes per frame and direction."""

    def bilstm(self, x: Tensor, fw, bw) -> Tensor:
        return self.hstack(self.lstm(x, *fw), self.lstm(x, *bw, reverse=True))

    def lstm(self, x: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
             reverse: bool = False) -> Tensor:
        hidden = wh.value.shape[0]
        xpre = self.affine(x, wx, b)  # T x 4H
        h = self.tensor(np.zeros((1, hidden)))
        c = self.tensor(np.zeros((1, hidden)))
        tsteps = x.value.shape[0]
        hs = [None] * tsteps
        for t in (range(tsteps - 1, -1, -1) if reverse else range(tsteps)):
            h, c = self.lstm_step(self.rows(xpre, [t]), (h, c), wh)
            hs[t] = h
        return self.vstack(hs)

    def lstm_step(self, xpre_t: Tensor, state, wh: Tensor):
        """One cell update from the projected input row; state is (h, c), each 1 x H."""
        h, c = state
        return self.lstm_gates(self.add(xpre_t, self.matmul(h, wh)), c)

    def hstack(self, a: Tensor, b: Tensor) -> Tensor:
        na = a.value.shape[1]
        out = self._make(np.hstack([a.value, b.value]))

        def back():
            g = out.grad
            if g is None:
                return
            _acc(a, g[:, :na])
            _acc(b, g[:, na:])

        self._record(back)
        return out

    def vstack(self, parts) -> Tensor:
        parts = list(parts)
        out = self._make(np.vstack([p.value for p in parts]))

        def back():
            g = out.grad
            if g is None:
                return
            r = 0
            for p in parts:
                n = p.value.shape[0]
                _acc(p, g[r:r + n])
                r += n

        self._record(back)
        return out

    def lstm_gates(self, pre: Tensor, c_prev: Tensor):
        """Gate math of one step from the 1 x 4H preactivation; returns (h, c)."""
        hdim = c_prev.value.shape[1]
        if pre.value.shape != (1, 4 * hdim):
            raise ValueError(f"preactivation must be 1x{4 * hdim}, got {pre.value.shape}")
        p = pre.value
        i = _sigmoid(p[:, :hdim])
        f = _sigmoid(p[:, hdim:2 * hdim])
        g = np.tanh(p[:, 2 * hdim:3 * hdim])
        o = _sigmoid(p[:, 3 * hdim:])
        c = f * c_prev.value + i * g
        tc = np.tanh(c)
        h_out = self._make(o * tc)
        c_out = self._make(c)

        def back():
            gh = h_out.grad
            gc_ext = c_out.grad
            if gh is None and gc_ext is None:
                return
            gc = gc_ext.copy() if gc_ext is not None else np.zeros_like(c)
            if gh is not None:
                gc += gh * o * (1.0 - tc * tc)
            gpre = np.empty_like(p)
            gpre[:, :hdim] = gc * g * i * (1.0 - i)
            gpre[:, hdim:2 * hdim] = gc * c_prev.value * f * (1.0 - f)
            gpre[:, 2 * hdim:3 * hdim] = gc * i * (1.0 - g * g)
            go = gh * tc if gh is not None else np.zeros_like(o)
            gpre[:, 3 * hdim:] = go * o * (1.0 - o)
            _acc(pre, gpre)
            _acc(c_prev, gc * f)

        self._record(back)
        return h_out, c_out
