"""Boundary-detection evaluation: tolerance-matched P/R/F1 and the R-value.

Matching policy: one-to-one greedy two-cursor walk over the time-sorted
boundary lists. This is deterministic and never double-counts a reference
boundary, but published systems do not document their policy, so small
deviations from printed numbers can stem from the policy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# absorbs float rounding when boundary distances sit exactly at the tolerance
_TIME_EPS = 1e-12


@dataclass
class TolerancePolicy:
    tolerance: float = 0.020  # seconds

    def __post_init__(self):
        if not self.tolerance >= 0:  # NaN fails too
            raise ValueError("tolerance must be >= 0")


@dataclass
class EvalReport:
    """Detection metrics as fractions in [0, 1] plus the raw tallies."""

    precision: float
    recall: float
    f1: float
    os: float
    r_value: float
    hits: int
    n_pred: int
    n_ref: int

    CSV_HEADER = "precision,recall,f1,os,r_value,hits,n_pred,n_ref"

    def as_csv(self) -> str:
        """Single line, percent scale, fixed header order."""
        vals = [self.precision, self.recall, self.f1, self.os, self.r_value]
        cells = [f"{100.0 * v:.4f}" if math.isfinite(v) else "nan" for v in vals]
        cells += [str(self.hits), str(self.n_pred), str(self.n_ref)]
        return ",".join(cells)

    def as_text(self) -> str:
        def pct(v):
            return f"{100.0 * v:6.2f}" if math.isfinite(v) else "   nan"

        return (f"precision {pct(self.precision)}  recall {pct(self.recall)}  "
                f"f1 {pct(self.f1)}  r-value {pct(self.r_value)}  "
                f"(hits {self.hits}, predicted {self.n_pred}, reference {self.n_ref})")


def match_boundaries(pred, ref, tol: float) -> int:
    """One-to-one greedy matching of two sorted boundary time lists."""
    pred = list(pred)
    ref = list(ref)
    for seq, name in ((pred, "pred"), (ref, "ref")):
        if any(b < a for a, b in zip(seq, seq[1:])):
            raise ValueError(f"{name} boundary times must be sorted ascending")
    hits = i = j = 0
    while i < len(pred) and j < len(ref):
        d = pred[i] - ref[j]
        if abs(d) <= tol + _TIME_EPS:
            hits += 1
            i += 1
            j += 1
        elif d < 0:
            i += 1
        else:
            j += 1
    return hits


def precision_recall_f1(hits: int, n_pred: int, n_ref: int):
    """P, R, F1 from match counts; an empty side scores 1.0 only against
    an empty other side, 0.0 otherwise."""
    if hits > min(n_pred, n_ref):
        raise ValueError(f"hits={hits} exceeds min(n_pred={n_pred}, n_ref={n_ref})")
    if n_pred > 0:
        p = hits / n_pred
    else:
        p = 1.0 if n_ref == 0 else 0.0
    if n_ref > 0:
        r = hits / n_ref
    else:
        r = 1.0 if n_pred == 0 else 0.0
    f1 = 0.0 if p + r == 0 else 2.0 * p * r / (p + r)
    return p, r, f1


def over_segmentation(p: float, r: float) -> float:
    if p <= 0:
        raise ValueError("over-segmentation requires precision > 0")
    return r / p - 1.0


def r_value(p: float, r: float) -> float:
    """1 - (|r1| + |r2|) / 2 with r1 the distance from the ideal (R=1, OS=0)
    and r2 the signed distance from the R - OS = 1 line."""
    os = over_segmentation(p, r)
    r1 = math.sqrt((1.0 - r) ** 2 + os * os)
    r2 = (-os + r - 1.0) / math.sqrt(2.0)
    return 1.0 - (abs(r1) + abs(r2)) / 2.0


def report_from_counts(hits: int, n_pred: int, n_ref: int) -> EvalReport:
    p, r, f1 = precision_recall_f1(hits, n_pred, n_ref)
    if p > 0:
        os = over_segmentation(p, r)
        rv = r_value(p, r)
    else:
        os = float("nan")
        rv = float("nan")
    return EvalReport(p, r, f1, os, rv, hits, n_pred, n_ref)


def evaluate_times(predictions: dict, references: dict,
                   policy: TolerancePolicy | None = None) -> EvalReport:
    """Micro-aggregated report over per-utterance boundary time lists."""
    policy = policy or TolerancePolicy()
    if set(predictions) != set(references):
        missing = set(predictions) ^ set(references)
        raise ValueError(f"utterance keys differ between predictions and references: "
                         f"{sorted(missing)[:5]}")
    hits = n_pred = n_ref = 0
    for key in sorted(predictions):
        p_times = predictions[key]
        r_times = references[key]
        hits += match_boundaries(p_times, r_times, policy.tolerance)
        n_pred += len(p_times)
        n_ref += len(r_times)
    return report_from_counts(hits, n_pred, n_ref)


def evaluate_corpus(predictions: dict, references: dict,
                    policy: TolerancePolicy | None = None) -> EvalReport:
    """Evaluate (Segmentation, frame_shift) pairs keyed by utterance.

    Interior boundary indices are converted to seconds before matching;
    the utterance start and end are never part of either list.
    """
    pred_times = {k: seg.times(shift) for k, (seg, shift) in predictions.items()}
    ref_times = {k: seg.times(shift) for k, (seg, shift) in references.items()}
    return evaluate_times(pred_times, ref_times, policy)
