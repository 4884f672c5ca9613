"""Bias-corrected adaptive-moment optimizer and gradient clipping."""

from __future__ import annotations

import numpy as np

from .autodiff import ParameterSet


class AdamState:
    """First/second moment accumulators shaped like a ParameterSet's buffer."""

    def __init__(self, params: ParameterSet):
        self.names = tuple(params.names())
        self.m = np.zeros_like(params.values)
        self.v = np.zeros_like(params.values)
        # two rows for the update's intermediates, so a step allocates none
        self.work = np.empty((2, params.values.size))
        self.step = 0


def adam_step(params: ParameterSet, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One update from the gradients currently held by the parameters."""
    if state.names != tuple(params.names()):
        raise ValueError("optimizer state does not match parameter set")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    # lr * (m / bc1) / (sqrt(v / bc2) + eps) after the moment updates, each
    # float operation in that order, over the whole buffer and into the work rows
    g, (a, b) = params.grads, state.work
    state.m *= beta1
    state.m += np.multiply(g, 1.0 - beta1, out=a)
    state.v *= beta2
    state.v += np.multiply(np.multiply(g, 1.0 - beta2, out=a), g, out=a)
    np.multiply(np.divide(state.m, bc1, out=a), lr, out=a)
    np.add(np.sqrt(np.divide(state.v, bc2, out=b), out=b), eps, out=b)
    params.values -= np.divide(a, b, out=a)


def clip_grad_norm(params: ParameterSet, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    norm = params.grad_norm()
    if max_norm > 0 and norm > max_norm:
        params.grads *= max_norm / norm
    return norm
