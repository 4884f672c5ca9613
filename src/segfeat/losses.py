"""Training objectives: structured hinge plus the PHN and BIN auxiliaries."""

from __future__ import annotations

import numpy as np

from .autodiff import Tape, Tensor
from .decode import dp_two_best
from .model import (ScoreContext, SegmentalModel, Segmentation, score_segmentation,
                    score_segmentation_grad)


def hinge_loss(ctx: ScoreContext, model: SegmentalModel, gold: Segmentation,
               max_seg_frames: int | None = None) -> Tensor:
    """max(0, 1 + score(best competitor) - score(gold)) on the context's tape.

    The competitor is the DP argmax, or the exact runner-up when the argmax
    equals the gold segmentation. Utterances with a single candidate (no
    competitor exists) contribute zero loss. The loss is one tape node:
    its value comes from the two canonical scores, and when the hinge is
    active its backward adds the competitor's score gradient, then minus
    the gold's.
    """
    if gold.n_frames != ctx.n_frames:
        raise ValueError("gold segmentation length does not match context")
    tape = ctx.tape
    rivals = [(seg, score) for seg, score in dp_two_best(ctx, model, max_seg_frames)
              if seg != gold]
    if not rivals:
        return tape.tensor(np.zeros(()))
    competitor, competitor_score = rivals[0]
    margin = (competitor_score - score_segmentation(ctx, model, gold)) + 1.0
    active = margin > 0.0
    out = tape._make(margin if active else 0.0)

    def back():
        g = out.grad
        if g is None or not active:
            return
        score_segmentation_grad(ctx, model, competitor, g)
        score_segmentation_grad(ctx, model, gold, -g)

    tape._record(back)
    return out


def frame_labels_from(gold: Segmentation, phonemes) -> np.ndarray:
    """Expand per-segment classes to per-frame labels (length T)."""
    phonemes = list(phonemes)
    if len(phonemes) != gold.n_segments:
        raise ValueError(f"expected {gold.n_segments} segment labels, got {len(phonemes)}")
    lengths = [e - s for s, e in gold.spans()]
    return np.repeat(np.asarray(phonemes), lengths)


def phn_loss(tape: Tape, logits: Tensor, frame_labels) -> Tensor:
    """Mean per-frame negative log-likelihood of the covering segment's class."""
    return tape.softmax_nll(logits, frame_labels)


def bin_loss(tape: Tape, logits: Tensor, gold: Segmentation) -> Tensor:
    """Mean binary cross-entropy against 1 at exact boundary frames, 0 elsewhere."""
    targets = np.zeros(logits.value.shape)
    for b in gold.boundaries:
        targets[b, 0] = 1.0
    return tape.bce_logits(logits, targets)
