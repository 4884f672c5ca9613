"""Recurrent encoder and feed-forward heads built on the autodiff tape."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterSet, Tape, Tensor


@dataclass
class LstmParams:
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

    Each direction is one `Tape.lstm` node. Each layer concatenates its two
    directions per frame, so the output of a stack with hidden size H is T x 2H.
    """
    if x.value.shape[0] < 1:
        raise ValueError("need at least one frame")
    out = x
    for fw, bw in layers:
        out = tape.hstack(tape.lstm(out, fw.wx, fw.wh, fw.b),
                          tape.lstm(out, bw.wx, bw.wh, bw.b, reverse=True))
    return out


def mlp2(tape: Tape, x: Tensor, w1, b1, w2, b2) -> Tensor:
    """Two-layer feed-forward head: tanh hidden, linear output."""
    return tape.affine(tape.tanh(tape.affine(x, w1, b1)), w2, b2)


def mlp2_np(x: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    """Numpy twin of mlp2: the unfactored reference for the bigram scoring path."""
    return np.tanh(x @ w1.value + b1.value) @ w2.value + b2.value
