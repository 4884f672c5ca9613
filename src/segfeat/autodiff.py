"""Minimal reverse-mode differentiation over float64 numpy arrays.

A Tape records every operation it executes; backward() replays the record
in reverse, accumulating gradients into the input tensors. Tensors are
plain value holders, so parameters survive across tapes while a fresh
Tape is used for every training step.
"""

from __future__ import annotations

import numpy as np

class Tensor:
    """Array value plus a same-shaped gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = grad

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        return float(self.value)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def _acc(t: Tensor, g):
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


class Tape:
    """Ordered record of executed ops; single-use (one backward per tape)."""

    def __init__(self):
        self._nodes = []
        self._used = False

    def _make(self, value) -> Tensor:
        if self._used:
            raise RuntimeError("tape already consumed by backward(); use a fresh Tape")
        return Tensor(value)

    def _record(self, back_fn):
        self._nodes.append(back_fn)

    def backward(self, loss: Tensor):
        """Populate grads of everything `loss` depends on. One shot per tape."""
        if self._used:
            raise RuntimeError("backward already ran on this tape")
        if not self._nodes:
            raise ValueError("empty tape")
        if loss.value.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        self._used = True
        loss.grad = np.ones_like(loss.value)
        for fn in reversed(self._nodes):
            fn()
        # spent: dropping the closures frees what they hold now, and breaks
        # the cycle that a node holding its ScoreContext (the hinge's) forms
        # with this tape, which refcounting alone would never free
        self._nodes.clear()

    # ----- primitives ------------------------------------------------------

    def tensor(self, value) -> Tensor:
        """Wrap an array as a leaf on this tape (gradient sink, no node)."""
        return Tensor(value)

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
        out = self._make(av @ bv)

        def back():
            g = out.grad
            if g is None:
                return
            _acc(a, g @ bv.T)
            _acc(b, av.T @ g)

        self._record(back)
        return out

    def affine(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """y = x @ w + b with b broadcast over rows."""
        xv, wv = x.value, w.value
        if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
            raise ValueError(f"affine shape mismatch: {xv.shape} @ {wv.shape}")
        if b.value.shape != (1, wv.shape[1]):
            raise ValueError(f"affine bias must be 1x{wv.shape[1]}, got {b.value.shape}")
        out = self._make(xv @ wv + b.value)

        def back():
            g = out.grad
            if g is None:
                return
            _acc(x, g @ wv.T)
            _acc(w, xv.T @ g)
            _acc(b, g.sum(axis=0, keepdims=True))

        self._record(back)
        return out

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        av, bv = a.value, b.value
        if av.shape != bv.shape:
            raise ValueError(f"add shape mismatch: {av.shape} + {bv.shape}")
        out = self._make(av + bv)

        def back():
            g = out.grad
            if g is None:
                return
            _acc(a, g)
            _acc(b, g)

        self._record(back)
        return out

    def scale(self, a: Tensor, c: float) -> Tensor:
        out = self._make(a.value * c)

        def back():
            if out.grad is not None:
                _acc(a, out.grad * c)

        self._record(back)
        return out

    def tanh(self, a: Tensor) -> Tensor:
        v = np.tanh(a.value)
        out = self._make(v)

        def back():
            if out.grad is not None:
                _acc(a, out.grad * (1.0 - v * v))

        self._record(back)
        return out

    def prefix_sum(self, a: Tensor) -> Tensor:
        """(T+1) x n prefix sums with a zero first row; out[t+1]-out[t] == a[t]."""
        v = np.vstack([np.zeros((1, a.value.shape[1])), np.cumsum(a.value, axis=0)])
        out = self._make(v)

        def back():
            if out.grad is None:
                return
            # d out[j] / d a[i] = 1 for j > i: reverse cumulative sum
            g = out.grad[1:]
            _acc(a, np.cumsum(g[::-1], axis=0)[::-1])

        self._record(back)
        return out

    def bilstm(self, x: Tensor, fw, bw) -> Tensor:
        """One bidirectional LSTM layer over a T x in_dim sequence; returns T x 2H.

        `fw` and `bw` are (wx, wh, b) triples with the gates laid out
        [input | forget | candidate | output]. The forward pass is
        `bilstm_scan` over this one sequence; the whole layer is a single
        node whose backward is hand-written BPTT over the scan's caches.
        """
        xv = x.value
        if any(a is b for a in fw for b in bw):
            # no model ties the two directions, so a tensor passed to both is
            # a wiring mistake (the same triple twice), not a tied layer
            raise ValueError("bilstm directions must not share a tensor")
        (outv,), caches = bilstm_scan([xv], fw, bw)
        hs, cs, gates, tcs = (a[:, :, 0] for a in caches)  # the batch axis, B = 1
        wh = np.stack([fw[1].value, bw[1].value])
        hdim = wh.shape[1]
        tsteps = xv.shape[0]
        out = self._make(outv)

        def back():
            dout = out.grad
            if dout is None:
                return
            dh = np.empty_like(hs[1:])
            dh[:, 0, 0] = dout[:, :hdim]
            dh[::-1, 1, 0] = dout[:, hdim:]
            i, f, g, o = (gates[..., n * hdim:(n + 1) * hdim] for n in range(4))
            # per-gate preactivation grads as ((X * m1) * m2) * m3 with
            # X = [gc | gc | gc | gh], the factor order of the cell's derivatives
            m1 = np.concatenate([g, cs[:-1], i, tcs], axis=-1)
            m2 = np.concatenate([i, f, np.ones_like(g), o], axis=-1)
            m3 = np.concatenate([1.0 - i, 1.0 - f, 1.0 - g * g, 1.0 - o], axis=-1)
            dtc = 1.0 - tcs * tcs
            whT = wh.transpose(0, 2, 1)
            gxp = np.zeros_like(gates)
            gx = np.empty((2, 1, 4 * hdim))
            gx4 = gx.reshape(2, 1, 4, hdim)
            gpre = np.empty_like(gx)
            gc = np.zeros((2, 1, hdim))
            for k in range(tsteps - 1, -1, -1):
                # the scan's last step feeds no later one
                gh = dh[k] if k == tsteps - 1 else dh[k] + gpre @ whT
                gc = gc + gh * o[k] * dtc[k]
                gx4[:, :, :3] = gc[:, :, None]
                gx4[:, :, 3] = gh
                np.multiply(gx, m1[k], out=gpre)
                gpre *= m2[k]
                gpre *= m3[k]
                gxp[k] += gpre
                gc *= f[k]
            for d, (wx, whd, b), gxpre in ((1, bw, gxp[::-1, 1, 0]), (0, fw, gxp[:, 0, 0])):
                # sum over steps of h_prev ⊗ gpre, as one product after the loop
                _acc(whd, hs[:-1, d, 0].T @ gxp[:, d, 0])
                gxpre = np.ascontiguousarray(gxpre)  # frame order, as a 2-D scan sums it
                _acc(x, gxpre @ wx.value.T)
                _acc(wx, xv.T @ gxpre)
                _acc(b, gxpre.sum(axis=0, keepdims=True))

        self._record(back)
        return out

    def softmax_nll(self, logits: Tensor, labels) -> Tensor:
        """Mean over rows of -log softmax(logits)[label]."""
        labels = np.asarray(labels, dtype=np.intp)
        z = logits.value
        if labels.shape != (z.shape[0],):
            raise ValueError("labels must have one entry per logits row")
        if labels.size and (labels.min() < 0 or labels.max() >= z.shape[1]):
            raise ValueError("label index out of range")
        zmax = z.max(axis=1, keepdims=True)
        ez = np.exp(z - zmax)
        p = ez / ez.sum(axis=1, keepdims=True)
        n = z.shape[0]
        nll = -np.mean(np.log(p[np.arange(n), labels]))
        out = self._make(nll)

        def back():
            if out.grad is None:
                return
            g = p.copy()
            g[np.arange(n), labels] -= 1.0
            _acc(logits, out.grad * g / n)

        self._record(back)
        return out

    def bce_logits(self, logits: Tensor, targets) -> Tensor:
        """Mean binary cross-entropy of sigmoid(logits) against 0/1 targets."""
        y = np.asarray(targets, dtype=np.float64)
        z = logits.value
        if y.shape != z.shape:
            raise ValueError("targets shape must match logits")
        # stable form: max(z,0) - z*y + log1p(exp(-|z|))
        loss = np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z))))
        out = self._make(loss)
        n = z.size

        def back():
            if out.grad is not None:
                _acc(logits, out.grad * (_sigmoid(z) - y) / n)

        self._record(back)
        return out


def bilstm_scan(xs, fw, bw):
    """Forward scan of one bidirectional LSTM layer over B sequences at once.

    `xs` holds B arrays of shape T_b x in_dim; `fw` and `bw` are (wx, wh, b)
    triples of tensors. Returns the B outputs (T_b x 2H, frame order, forward
    half first) and the caches BPTT needs, (hs, cs, gates, tcs), each shaped
    (steps, 2, B, 1, width) with one more leading row in hs and cs.

    Both directions of every sequence start at step 0: step k holds frame k
    of the forward direction and frame T_b-1-k of the backward one, and a
    sequence shorter than the longest is padded at the end, so its padded
    steps feed none of its outputs. Each input projection is its own
    `x @ wx + b` product and each step's recurrence one stacked
    (2, B, 1, H) @ (2, 1, H, 4H) product, which rounds as its per-sequence
    1 x H products do (stacking sequences as the rows of one B x H product
    would not). Element-wise ops ignore the stacking, so every output equals
    that of a scan over its sequence alone, byte for byte.
    """
    for xv in xs:
        hdim = _lstm_hidden(xv, *fw)
        if _lstm_hidden(xv, *bw) != hdim:
            raise ValueError(f"bilstm directions differ in hidden size: "
                             f"{fw[1].value.shape} vs {bw[1].value.shape}")
    h2, h3 = 2 * hdim, 3 * hdim
    lengths = [xv.shape[0] for xv in xs]
    steps, nb = max(lengths), len(xs)
    # step k's input projections, each as affine computes it; step k then
    # overwrites its row with its gates (sigmoid, candidate slot tanh)
    gates = np.zeros((steps, 2, nb, 1, 4 * hdim))
    for j, xv in enumerate(xs):
        gates[:lengths[j], 0, j, 0] = xv @ fw[0].value + fw[2].value
        gates[:lengths[j]][::-1, 1, j, 0] = xv @ bw[0].value + bw[2].value
    wh = np.stack([fw[1].value, bw[1].value])[:, None]
    hs = np.zeros((steps + 1, 2, nb, 1, hdim))  # row k + 1: the state after step k
    cs = np.zeros((steps + 1, 2, nb, 1, hdim))
    tcs = np.empty((steps, 2, nb, 1, hdim))
    for k in range(steps):
        s = gates[k]
        p = s + hs[k] @ wh
        np.multiply(p, 0.5, out=s)  # the _sigmoid identity, in place
        np.tanh(s, out=s)
        s += 1.0
        s *= 0.5
        g = s[..., h2:h3]
        np.tanh(p[..., h2:h3], out=g)
        c = cs[k + 1]
        np.multiply(s[..., hdim:h2], cs[k], out=c)
        c += s[..., :hdim] * g
        np.tanh(c, out=tcs[k])
        np.multiply(s[..., h3:], tcs[k], out=hs[k + 1])
    outs = [np.concatenate([hs[1:n + 1, 0, j, 0], hs[n:0:-1, 1, j, 0]], axis=1)
            for j, n in enumerate(lengths)]
    return outs, (hs, cs, gates, tcs)


def _lstm_hidden(xv, wx: Tensor, wh: Tensor, b: Tensor) -> int:
    """Hidden size H of one LSTM direction; raises on mismatched shapes."""
    hdim = wh.value.shape[0]
    if wh.value.shape != (hdim, 4 * hdim):
        raise ValueError(f"lstm wh must be H x 4H, got {wh.value.shape}")
    if xv.ndim != 2 or wx.value.shape != (xv.shape[1], 4 * hdim):
        raise ValueError(f"lstm shape mismatch: {xv.shape} @ {wx.value.shape} for H={hdim}")
    if b.value.shape != (1, 4 * hdim):
        raise ValueError(f"lstm bias must be 1x{4 * hdim}, got {b.value.shape}")
    return hdim


def _sigmoid(x):
    # overflow-free identity; exact for float64 across the whole range
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


class ParameterSet:
    """Named, insertion-ordered trainable tensors whose values and grads are
    views into two flat buffers, `values` and `grads`, in name order. Code
    that changes a parameter writes into its arrays and never rebinds them."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.values = np.zeros(0)
        self.grads = np.zeros(0)
        self._spare = (self.values, self.grads)  # the buffers with room to grow

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        value = np.asarray(value, dtype=np.float64)
        start = self.values.size
        end = start + value.size
        moved = end > self._spare[0].size
        if moved:  # grow geometrically, so n adds copy O(n) values in all
            cap = max(end, 2 * start)
            self._spare = (np.empty(cap), np.empty(cap))
            self._spare[0][:start], self._spare[1][:start] = self.values, self.grads
        vbuf, gbuf = self._spare
        vbuf[start:end] = value.reshape(-1)
        gbuf[start:end] = 0.0
        self.values, self.grads = vbuf[:end], gbuf[:end]
        self._params[name] = new = Tensor(value)
        offset = 0 if moved else start
        for t in (self._params.values() if moved else (new,)):  # the views whose data moved
            size = t.value.size
            t.value = self.values[offset:offset + size].reshape(t.value.shape)
            t.grad = self.grads[offset:offset + size].reshape(t.value.shape)
            offset += size
        return new

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return self._params.values()

    def zero_grad(self):
        self.grads.fill(0.0)

    def grad_norm(self) -> float:
        # per tensor in name order: one sum over the buffer would round otherwise
        total = 0.0
        for t in self._params.values():
            total += float(np.sum(t.grad * t.grad))
        return float(np.sqrt(total))

    def copy_values(self) -> dict:
        return {k: t.value.copy() for k, t in self._params.items()}

    def set_values(self, values: dict):
        for k, t in self._params.items():
            v = np.asarray(values[k], dtype=np.float64)
            if v.shape != t.value.shape:
                raise ValueError(f"shape mismatch for {k}: {v.shape} vs {t.value.shape}")
            t.value[...] = v


def grad_check(build_loss, params: ParameterSet, eps: float = 1e-5) -> float:
    """Compare analytic gradients of build_loss against central differences.

    build_loss(tape) must rebuild the scalar loss from the current parameter
    values on the given tape. Returns the maximum relative error
    |a - n| / max(1e-8, |a| + |n|) over every parameter coordinate.
    """
    tape = Tape()
    params.zero_grad()
    loss = build_loss(tape)
    tape.backward(loss)
    analytic = params.grads.copy()
    params.zero_grad()

    worst = 0.0
    flat = params.values
    for j in range(flat.size):
        v0 = flat[j]
        flat[j] = v0 + eps
        fp = float(build_loss(Tape()).value)
        flat[j] = v0 - eps
        fm = float(build_loss(Tape()).value)
        flat[j] = v0
        numeric = (fp - fm) / (2.0 * eps)
        err = abs(analytic[j] - numeric) / max(1e-8, abs(analytic[j]) + abs(numeric))
        worst = max(worst, err)
    return worst
