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
            # allow a row-vector bias broadcast over rows
            if not (av.ndim == 2 and bv.shape == (1, av.shape[1])):
                raise ValueError(f"add shape mismatch: {av.shape} + {bv.shape}")
        out = self._make(av + bv)

        def back():
            g = out.grad
            if g is None:
                return
            _acc(a, g)
            _acc(b, g if bv.shape == g.shape else g.sum(axis=0, keepdims=True))

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

    def scale(self, a: Tensor, c: float) -> Tensor:
        out = self._make(a.value * c)

        def back():
            if out.grad is not None:
                _acc(a, out.grad * c)

        self._record(back)
        return out

    def add_const(self, a: Tensor, c: float) -> Tensor:
        out = self._make(a.value + c)

        def back():
            if out.grad is not None:
                _acc(a, out.grad)

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

    def lstm_gates(self, pre: Tensor, c_prev: Tensor):
        """Gate math of one LSTM step from the stacked preactivation.

        pre is 1x4H laid out [input | forget | candidate | output]; returns
        (h, c). Recorded as a single node with a hand-derived backward.
        """
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


def _sigmoid(x):
    # overflow-free identity; exact for float64 across the whole range
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


class ParameterSet:
    """Named, insertion-ordered collection of trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.array(value, dtype=np.float64))
        t.grad = np.zeros_like(t.value)
        self._params[name] = t
        return t

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
        for t in self._params.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.value)
            else:
                t.grad.fill(0.0)

    def grad_norm(self) -> float:
        total = 0.0
        for t in self._params.values():
            if t.grad is not None:
                total += float(np.sum(t.grad * t.grad))
        return float(np.sqrt(total))

    def copy_values(self) -> dict:
        return {k: t.value.copy() for k, t in self._params.items()}

    def set_values(self, values: dict):
        for k, t in self._params.items():
            v = np.asarray(values[k], dtype=np.float64)
            if v.shape != t.value.shape:
                raise ValueError(f"shape mismatch for {k}: {v.shape} vs {t.value.shape}")
            t.value = v.copy()


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
    analytic = {k: t.grad.copy() for k, t in params.items()}
    params.zero_grad()

    worst = 0.0
    for name, t in params.items():
        flat = t.value.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for j in range(flat.size):
            v0 = flat[j]
            flat[j] = v0 + eps
            fp = float(build_loss(Tape()).value)
            flat[j] = v0 - eps
            fm = float(build_loss(Tape()).value)
            flat[j] = v0
            numeric = (fp - fm) / (2.0 * eps)
            err = abs(aflat[j] - numeric) / max(1e-8, abs(aflat[j]) + abs(numeric))
            worst = max(worst, err)
    return worst
