"""Recurrent encoder and feed-forward heads built on the autodiff tape."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .autodiff import ParameterSet, Tape, Tensor, bilstm_scan


class LstmParams(NamedTuple):
    """One direction of one LSTM layer; gate layout is [input|forget|cand|output]."""

    wx: Tensor  # in_dim x 4H
    wh: Tensor  # H x 4H
    b: Tensor   # 1 x 4H


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    r = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-r, r, size=shape)


def init_lstm(params: ParameterSet, prefix: str, in_dim: int, hidden: int,
              rng: np.random.Generator, forget_bias: float = 1.0) -> LstmParams:
    wx = params.add(f"{prefix}.wx", uniform_init(rng, (in_dim, 4 * hidden), in_dim))
    wh = params.add(f"{prefix}.wh", uniform_init(rng, (hidden, 4 * hidden), hidden))
    b0 = np.zeros((1, 4 * hidden))
    b0[0, hidden:2 * hidden] = forget_bias
    b = params.add(f"{prefix}.b", b0)
    return LstmParams(wx, wh, b)


def init_affine(params: ParameterSet, prefix: str, in_dim: int, out_dim: int,
                rng: np.random.Generator):
    w = params.add(f"{prefix}.w", uniform_init(rng, (in_dim, out_dim), in_dim))
    b = params.add(f"{prefix}.b", np.zeros((1, out_dim)))
    return w, b


def bilstm_encode(tape: Tape, x: Tensor, layers) -> Tensor:
    """Stacked bidirectional LSTM; layers is a list of (forward, backward) params.

    Each layer is one `Tape.bilstm` node that scans both directions in one
    loop and concatenates them per frame, so the output of a stack with
    hidden size H is T x 2H.
    """
    if x.value.shape[0] < 1:
        raise ValueError("need at least one frame")
    out = x
    for fw, bw in layers:
        out = tape.bilstm(out, fw, bw)
    return out


def bilstm_encode_many(xs, layers) -> list:
    """`bilstm_encode` of several T_b x in_dim arrays, without a tape.

    Each layer is one `bilstm_scan` over all of them, so the outputs equal
    one `bilstm_encode` per array byte for byte, at a cost in padded steps
    (every array is scanned for as many steps as the longest).
    """
    if any(x.shape[0] < 1 for x in xs):
        raise ValueError("need at least one frame")
    for fw, bw in layers:
        xs = bilstm_scan(xs, fw, bw)[0]  # drops the caches before the next layer
    return xs


def mlp2(tape: Tape, x: Tensor, w1, b1, w2, b2) -> Tensor:
    """Two-layer feed-forward head: tanh hidden, linear output."""
    return tape.affine(tape.tanh(tape.affine(x, w1, b1)), w2, b2)

