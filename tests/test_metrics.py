import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfeat.metrics import (EvalReport, TolerancePolicy, evaluate_corpus, evaluate_times,
                             match_boundaries, over_segmentation, precision_recall_f1,
                             r_value, report_from_counts)
from segfeat.model import Segmentation


def test_match_cursor_walk_example():
    assert match_boundaries([0.10, 0.30], [0.11, 0.50], 0.02) == 1


def test_match_identical_lists():
    rng = np.random.default_rng(0)
    for _ in range(10):
        times = sorted(rng.uniform(0, 5, size=rng.integers(0, 20)).tolist())
        assert match_boundaries(times, times, 0.0) == len(times)
        assert match_boundaries(times, times, 0.3) == len(times)


def test_match_empty_sides():
    assert match_boundaries([], [0.1], 0.05) == 0
    assert match_boundaries([0.1], [], 0.05) == 0
    assert match_boundaries([], [], 0.05) == 0


def test_match_one_to_one_no_double_counting():
    # two predictions near one reference: only one may match
    assert match_boundaries([0.10, 0.11], [0.10], 0.02) == 1
    assert match_boundaries([0.10], [0.10, 0.11], 0.02) == 1


def test_match_monotone_in_tolerance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pred = sorted(rng.uniform(0, 3, size=8).tolist())
        ref = sorted(rng.uniform(0, 3, size=6).tolist())
        hits = [match_boundaries(pred, ref, tol) for tol in (0.0, 0.01, 0.05, 0.2, 1.0, 5.0)]
        assert all(a <= b for a, b in zip(hits, hits[1:]))
        assert hits[-1] == min(len(pred), len(ref))


def test_match_requires_sorted():
    with pytest.raises(ValueError):
        match_boundaries([0.3, 0.1], [0.2], 0.02)
    with pytest.raises(ValueError):
        match_boundaries([0.1], [0.5, 0.2], 0.02)


def test_match_exact_tolerance_boundary():
    # a distance of exactly two 10 ms frames counts at 20 ms tolerance,
    # even though 0.01 is not exactly representable in binary
    assert match_boundaries([30 * 0.01], [28 * 0.01], 0.020) == 1
    assert match_boundaries([0.105], [0.1], 0.0) == 0


def test_precision_recall_f1_paper_row():
    p, r, f1 = precision_recall_f1(9046, 9620, 10000)
    # the printed TIMIT row: P 94.03, R 90.46 -> F1 92.22
    assert p == pytest.approx(0.9403, abs=5e-5)
    assert r == pytest.approx(0.9046, abs=1e-12)
    assert f1 == pytest.approx(0.9221, abs=5e-4)


def test_precision_recall_f1_trivial_cases():
    assert precision_recall_f1(5, 5, 5) == (1.0, 1.0, 1.0)
    assert precision_recall_f1(1, 2, 2) == (0.5, 0.5, 0.5)
    assert precision_recall_f1(0, 0, 0) == (1.0, 1.0, 1.0)
    p, r, f1 = precision_recall_f1(0, 0, 3)
    assert (p, r, f1) == (0.0, 0.0, 0.0)
    p, r, f1 = precision_recall_f1(0, 3, 0)
    assert (p, r, f1) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        precision_recall_f1(3, 2, 5)


def test_f1_between_min_and_max():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n_pred = int(rng.integers(1, 50))
        n_ref = int(rng.integers(1, 50))
        hits = int(rng.integers(1, min(n_pred, n_ref) + 1))
        p, r, f1 = precision_recall_f1(hits, n_pred, n_ref)
        assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


def test_r_value_perfect():
    assert r_value(1.0, 1.0) == pytest.approx(1.0)


def test_r_value_paper_rows():
    assert 100 * r_value(0.9403, 0.9046) == pytest.approx(92.84, abs=0.05)
    assert 100 * r_value(0.911, 0.881) == pytest.approx(90.78, abs=0.05)


def test_r_value_requires_positive_precision():
    with pytest.raises(ValueError):
        r_value(0.0, 0.5)
    with pytest.raises(ValueError):
        over_segmentation(0.0, 0.5)


def test_r_value_equal_pr_reduction():
    for v in (0.5, 0.9, 1.0):
        direct = r_value(v, v)
        reduced = 1.0 - ((1.0 - v) + (1.0 - v) / math.sqrt(2.0)) / 2.0
        assert direct == pytest.approx(reduced, abs=1e-12)


def test_report_from_counts_degenerate():
    rep = report_from_counts(0, 0, 4)
    assert rep.precision == 0.0 and rep.recall == 0.0
    assert math.isnan(rep.r_value) and math.isnan(rep.os)
    assert "nan" in rep.as_csv()


def test_evaluate_corpus_perfect_and_counts():
    seg_a = Segmentation((10, 20), 40)
    seg_b = Segmentation((5,), 30)
    preds = {"a": (seg_a, 0.01), "b": (seg_b, 0.01)}
    rep = evaluate_corpus(preds, dict(preds))
    assert (rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0)
    assert rep.r_value == pytest.approx(1.0)
    assert (rep.hits, rep.n_pred, rep.n_ref) == (3, 3, 3)


def test_evaluate_micro_aggregation():
    # (hits, n_pred, n_ref) = (1, 2, 2) and (3, 3, 3) -> P = R = 4/5
    preds = {"u1": [0.10, 0.90], "u2": [0.1, 0.2, 0.3]}
    refs = {"u1": [0.10, 0.50], "u2": [0.1, 0.2, 0.3]}
    rep = evaluate_times(preds, refs, TolerancePolicy(0.02))
    assert (rep.hits, rep.n_pred, rep.n_ref) == (4, 5, 5)
    assert rep.precision == pytest.approx(0.8)
    assert rep.recall == pytest.approx(0.8)


def test_evaluate_empty_predictions():
    preds = {"a": [], "b": []}
    refs = {"a": [0.1], "b": [0.2, 0.4]}
    rep = evaluate_times(preds, refs)
    assert rep.precision == 0.0
    assert rep.recall == 0.0


def test_evaluate_key_mismatch():
    with pytest.raises(ValueError):
        evaluate_times({"a": []}, {"b": []})


def test_report_formats():
    rep = report_from_counts(3, 4, 5)
    line = rep.as_csv()
    assert len(line.split(",")) == len(EvalReport.CSV_HEADER.split(","))
    assert line.split(",")[0] == "75.0000"
    text = rep.as_text()
    assert "75.00" in text and "60.00" in text


def test_tolerance_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(-0.01)
    with pytest.raises(ValueError):
        TolerancePolicy(float("nan"))


# ----- invariants ------------------------------------------------------------

TIMES = st.lists(st.floats(0.0, 3.0), max_size=12).map(sorted)
TOLERANCE = st.floats(0.0, 0.5)
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


@PROPERTY_SETTINGS
@given(pred=TIMES, ref=TIMES, tol=TOLERANCE, wider=TOLERANCE)
def test_property_hits_are_bounded_and_never_drop_as_tolerance_grows(pred, ref, tol, wider):
    hits = match_boundaries(pred, ref, tol)
    assert 0 <= hits <= min(len(pred), len(ref))
    assert match_boundaries(pred, ref, tol + wider) >= hits


@PROPERTY_SETTINGS
@given(n_pred=st.integers(0, 1000), n_ref=st.integers(0, 1000), data=st.data())
def test_property_precision_recall_f1_lie_in_unit_interval(n_pred, n_ref, data):
    hits = data.draw(st.integers(0, min(n_pred, n_ref)))
    for value in precision_recall_f1(hits, n_pred, n_ref):
        assert 0.0 <= value <= 1.0
