"""Training loop: weighted hinge + auxiliary losses, seeded and reproducible."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .decode import dp_segment, dp_segment_many
from .losses import bin_loss, frame_labels_from, hinge_loss, phn_loss
from .metrics import EvalReport, TolerancePolicy, evaluate_corpus
from .model import SegmentalModel, boundary_logits, build_context, phoneme_logits
from .optim import AdamState, adam_step, clip_grad_norm

LOSS_NAMES = ("segfeat", "phn", "bin")


@dataclass
class TrainConfig:
    epochs: int = 150
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    losses: tuple = ("segfeat",)
    lambda_phn: float = 1.0
    lambda_bin: float = 1.0
    batch_size: int = 1
    shuffle_seed: int = 0
    patience: int = 0           # epochs without val-F1 improvement; 0 disables
    max_seg_frames: int = 50    # DP cap during training; evaluation is uncapped
    grad_clip: float = 5.0      # global norm; 0 disables
    tolerance: float = TolerancePolicy.tolerance

    def __post_init__(self):
        self.losses = tuple(self.losses)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        # written so that NaN fails each float check
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not (self.lambda_phn >= 0 and self.lambda_bin >= 0):
            raise ValueError("loss weights must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.max_seg_frames < 1:
            raise ValueError("max_seg_frames must be >= 1")
        if not self.grad_clip >= 0:
            raise ValueError("grad_clip must be >= 0")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be >= 0")
        for name in self.losses:
            if name not in LOSS_NAMES:
                raise ValueError(f"unknown loss {name!r}; expected subset of {LOSS_NAMES}")


@dataclass
class EpochLog:
    epoch: int
    hinge: float
    phn: float
    bin: float
    val_p: float
    val_r: float
    val_f1: float
    val_rval: float
    seconds: float

    CSV_HEADER = "epoch,hinge,phn,bin,val_p,val_r,val_f1,val_rval,seconds"

    def as_csv(self) -> str:
        cells = [self.hinge, self.phn, self.bin, self.val_p, self.val_r,
                 self.val_f1, self.val_rval, self.seconds]
        return f"{self.epoch}," + ",".join(repr(float(c)) for c in cells)


def write_epoch_logs(path, logs):
    with open(path, "w", encoding="ascii") as f:
        f.write(EpochLog.CSV_HEADER + "\n")
        for log in logs:
            f.write(log.as_csv() + "\n")


def read_epoch_logs(path):
    logs = []
    with open(path, "r", encoding="ascii") as f:
        header = f.readline().strip()
        if header != EpochLog.CSV_HEADER:
            raise ValueError(f"unexpected epoch log header: {header}")
        for line in f:
            cells = line.strip().split(",")
            logs.append(EpochLog(int(cells[0]), *[float(c) for c in cells[1:]]))
    return logs


@dataclass
class FitResult:
    logs: list
    best_values: dict
    final_values: dict
    best_epoch: int
    best_report: EvalReport | None  # validation of best_values; None without a val set


def validate_model(model: SegmentalModel, utterances, tolerance: float):
    """Uncapped decoding of every utterance, micro-aggregated metrics.

    The utterances are encoded in batched scans and decoded by
    `dp_segment_many`, with the segmentations of one `build_context` and
    `dp_segment` per utterance.
    """
    preds = {}
    refs = {}
    for utt, (seg, _) in dp_segment_many(model, ((u, u.features) for u in utterances),
                                         dp_segment):
        preds[utt.key] = (seg, utt.features.frame_shift)
        refs[utt.key] = (utt.gold, utt.features.frame_shift)
    return evaluate_corpus(preds, refs, TolerancePolicy(tolerance))


def fit(train_set, val_set, model: SegmentalModel, cfg: TrainConfig) -> FitResult:
    """Optimize the enabled losses; the model ends at its best-val-F1 state.

    Per epoch: seeded shuffle, one weighted backward per utterance, optimizer
    step per batch. Identical seeds, config, and data reproduce the parameter
    trajectory bit-exactly under the same BLAS thread count.
    """
    if not train_set:
        raise ValueError("training set is empty")
    if not cfg.losses:
        raise ValueError("no losses enabled; nothing to optimize")
    use_hinge = "segfeat" in cfg.losses
    use_phn = "phn" in cfg.losses
    use_bin = "bin" in cfg.losses
    if use_phn and model.head_phn is None:
        raise ValueError("phn loss enabled but the model has no phoneme head")
    if use_bin and model.head_bin is None:
        raise ValueError("bin loss enabled but the model has no boundary head")

    frame_label_cache = {}
    if use_phn:
        index = model.phoneme_index
        for utt in train_set:
            if utt.phonemes is None:
                raise ValueError(f"{utt.key}: phn loss requires phoneme annotations")
            try:
                ids = [index[sym] for sym in utt.phonemes]
            except KeyError as exc:
                raise ValueError(f"{utt.key}: phoneme {exc} not in model inventory") from exc
            frame_label_cache[utt.key] = frame_labels_from(utt.gold, ids)

    rng = np.random.default_rng(cfg.shuffle_seed)
    state = AdamState(model.params)
    model.params.zero_grad()
    logs = []
    best_f1 = -1.0
    best_epoch = -1
    best_values = model.params.copy_values()
    best_report = None
    since_best = 0

    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        order = rng.permutation(len(train_set))
        sums = {"segfeat": 0.0, "phn": 0.0, "bin": 0.0}
        for seen, i in enumerate(order, 1):
            utt = train_set[i]
            tape = Tape()
            ctx = build_context(model, utt.features, tape)
            total = None
            if use_hinge:
                term = hinge_loss(ctx, model, utt.gold, cfg.max_seg_frames)
                sums["segfeat"] += term.item()
                total = term
            if use_phn:
                term = phn_loss(tape, phoneme_logits(ctx, model), frame_label_cache[utt.key])
                sums["phn"] += term.item()
                term = tape.scale(term, cfg.lambda_phn)
                total = term if total is None else tape.add(total, term)
            if use_bin:
                term = bin_loss(tape, boundary_logits(ctx, model), utt.gold)
                sums["bin"] += term.item()
                term = tape.scale(term, cfg.lambda_bin)
                total = term if total is None else tape.add(total, term)
            if not math.isfinite(total.item()):
                raise RuntimeError(f"non-finite loss on utterance {utt.key}")
            tape.backward(total)
            if seen % cfg.batch_size == 0 or seen == len(order):
                clip_grad_norm(model.params, cfg.grad_clip)
                adam_step(model.params, state, cfg.learning_rate,
                          cfg.beta1, cfg.beta2, cfg.eps)
                model.params.zero_grad()

        n = len(train_set)
        report = validate_model(model, val_set, cfg.tolerance) if val_set else None
        if report is not None:
            val_p, val_r, val_f1 = report.precision, report.recall, report.f1
            val_rval = report.r_value if math.isfinite(report.r_value) else 0.0
        else:
            val_p = val_r = val_f1 = val_rval = 0.0
        logs.append(EpochLog(epoch, sums["segfeat"] / n, sums["phn"] / n, sums["bin"] / n,
                             val_p, val_r, val_f1, val_rval,
                             time.perf_counter() - tic))

        improved = val_f1 > best_f1
        if improved or best_epoch < 0:
            best_f1 = val_f1
            best_epoch = epoch
            best_values = model.params.copy_values()
            best_report = report
            since_best = 0
        else:
            since_best += 1
            if cfg.patience > 0 and since_best >= cfg.patience:
                break

    final_values = model.params.copy_values()
    model.params.set_values(best_values)
    return FitResult(logs=logs, best_values=best_values, final_values=final_values,
                     best_epoch=best_epoch, best_report=best_report)
