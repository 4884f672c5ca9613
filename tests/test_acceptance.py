"""Acceptance criteria gate. Each test prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time
from typing import NamedTuple

import numpy as np

from segfeat.audio import Waveform
from segfeat.autodiff import grad_check
from segfeat.cli import EXIT_OK, main
from segfeat.data import (SynthConfig, load_corpus, read_manifest, synth_corpus,
                          write_synth_corpus, zscore_utterances)
from segfeat.decode import dp_segment, dp_segment_k
from segfeat.features import (FeatureConfig, append_deltas, compute_mfcc, corpus_stats,
                              filter_peak_freqs, mel_energies, spectral_change_features)
from segfeat.losses import bin_loss, frame_labels_from, hinge_loss, phn_loss
from segfeat.metrics import report_from_counts
from segfeat.model import (ModelConfig, SegmentalModel, Segmentation, boundary_logits,
                           build_context, context_from_hidden, phoneme_logits)
from segfeat.train import TrainConfig, fit, validate_model

from conftest import small_model
from reference_dp import brute_force_segment


def _verdict(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_a1_dp_matches_brute_force_oracle():
    """A1: exact oracle equivalence on 1000 random score instances, T in [1,8]."""
    model = small_model(input_dim=4, hidden=2, layers=1, seed=0)
    rng = np.random.default_rng(20240817)
    tic = time.perf_counter()
    checked = 0
    for _ in range(1000):
        t_total = int(rng.integers(1, 9))
        hidden = rng.normal(size=(t_total, 4)) * 2.0
        from segfeat.autodiff import Tape
        tape = Tape()
        ctx = context_from_hidden(tape, model, tape.tensor(hidden))
        seg, score = dp_segment(ctx, model)
        bseg, bscore = brute_force_segment(ctx, model)
        assert score == bscore, f"unknown-k score mismatch at T={t_total}"
        assert seg == bseg, f"unknown-k boundary mismatch at T={t_total}"
        for k in range(1, t_total + 1):
            kseg, kscore = dp_segment_k(ctx, model, k)
            bkseg, bkscore = brute_force_segment(ctx, model, k)
            assert kseg.n_segments == k
            assert kscore == bkscore, f"k={k} score mismatch at T={t_total}"
            assert kseg == bkseg, f"k={k} boundary mismatch at T={t_total}"
            checked += 1
    elapsed = time.perf_counter() - tic
    ok = elapsed < 10.0
    _verdict("A1", ok, f"1000 instances, {checked} known-k decodes, exact agreement, "
                       f"{elapsed:.1f}s (< 10s required)")
    assert ok


def test_a2_full_objective_gradient():
    """A2: hinge+PHN+BIN gradients vs central differences, rel err < 1e-4."""
    model = small_model(input_dim=8, hidden=4, layers=2, seed=3,
                        inventory=("c0", "c1", "c2", "c3", "c4"), with_bin=True)
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(6, 8))
    gold = Segmentation((2, 4), 6)
    labels = frame_labels_from(gold, [0, 1, 2])

    def build_loss(tape):
        ctx = build_context(model, feats, tape)
        loss = hinge_loss(ctx, model, gold)
        loss = tape.add(loss, phn_loss(tape, phoneme_logits(ctx, model), labels))
        return tape.add(loss, bin_loss(tape, boundary_logits(ctx, model), gold))

    tic = time.perf_counter()
    err = grad_check(build_loss, model.params, eps=1e-5)
    elapsed = time.perf_counter() - tic
    n_params = sum(t.value.size for t in model.params.tensors())
    ok = err < 1e-4 and elapsed < 30.0
    _verdict("A2", ok, f"max relative error {err:.2e} over {n_params} parameters "
                       f"(< 1e-4 required), {elapsed:.1f}s (< 30s required)")
    assert ok


# Published benchmark rows for this task: (P, R, printed F1, printed R-value)
# from the model-comparison, forced-alignment, and cross-language tables.
PUBLISHED_ROWS = [
    ("comparison/TIMIT King", 87.0, 84.8, 85.9, 87.8),
    ("comparison/TIMIT Franke", 91.1, 88.1, 89.6, 90.8),
    ("comparison/TIMIT SegFeat", 94.03, 90.46, 92.22, 92.79),
    ("comparison/Buckeye Franke", 87.8, 83.3, 85.5, 87.17),
    ("comparison/Buckeye SegFeat", 85.4, 89.12, 87.23, 88.76),
    ("forced-alignment/McAuliffe", 83.9, 81.6, 82.7, 85.16),
    ("forced-alignment/Keshet", 90.0, 82.2, 85.9, 79.51),
    ("forced-alignment/SegFeat", 94.03, 90.46, 92.22, 92.79),
    ("cross-language/without-phn", 83.58, 79.2, 81.24, 83.67),
    ("cross-language/with-phn", 83.11, 81.66, 82.38, 84.92),
]
F1_TOL = 0.06
RVAL_TOL = 0.10


class Erratum(NamedTuple):
    """One printed figure that the row's other printed figures contradict.

    `field` names the PUBLISHED_ROWS column ("recall" or "r_value"),
    `printed` repeats its printed value, and `supported` is the value the
    row's own numbers support: a corrected recall, or the R-value that the
    README formula gives from the printed P and R.
    """

    field: str
    printed: float
    supported: float
    evidence: str


ERRATA = {
    "forced-alignment/Keshet": Erratum(
        "r_value", 79.51, 86.87,
        "P 90.0 / R 82.2 give F1 85.92 (printed 85.9, matches) but R-value 86.87: "
        "OS = 82.2/90 - 1 = -0.0867, r1 = 0.1980, r2 = -0.0646, so the printed "
        "79.51 is off by 7.36. The printed F1 and R-value fit together only near "
        "P 78.2 / R 95.2, and no single change to P or R reconciles the row, so "
        "the printed R-value is a misprint; which number was meant is not settled."),
    "cross-language/without-phn": Erratum(
        "recall", 79.2, 79.02,
        "P 83.58 / R 79.2 give F1 81.33 and R-value 83.77, missing the printed "
        "81.24 / 83.67 by 0.091 and 0.104; R 79.02 gives F1 81.236 and R-value "
        "83.672, both within 0.004, so the printed recall is a transposed 79.02."),
}


def _percent_report(p, r):
    """(P, R, F1, R-value) in percent from segfeat's metric path, run on
    integer counts that give exactly P and R (percent, two decimals):
    hits = P*R, n_pred = 1e4*R, n_ref = 1e4*P, all in hundredths."""
    p_h, r_h = round(100 * p), round(100 * r)
    rep = report_from_counts(p_h * r_h, 10_000 * r_h, 10_000 * p_h)
    return tuple(100.0 * v for v in (rep.precision, rep.recall, rep.f1, rep.r_value))


def test_a3_metric_arithmetic_vs_printed_tables():
    """A3: segfeat's F1 and R-value reproduce every printed figure that the
    printed P and R support.

    Each row's P and R become integer match counts that run through
    `segfeat.metrics.report_from_counts`. Per row, F1 must match the printed
    F1 within F1_TOL and the R-value the printed R-value within RVAL_TOL,
    except for the field an ERRATA entry names:

    - forced-alignment/Keshet, R-value: the printed 79.51 cannot follow from
      the printed P/R. The printed F1 is asserted, and the R-value is pinned
      to the 86.87 the README formula gives at this under-segmenting point
      (OS < 0).
    - cross-language/without-phn, recall: the printed 79.2 is a transposed
      79.02. With 79.02 both the printed F1 and R-value must match.

    Each erratum must name a row and repeat the printed value it replaces,
    and that row's printed figures must really miss their tolerance, so a
    stale or blanket erratum fails the test instead of hiding a formula
    regression.
    """
    tic = time.perf_counter()
    failures = []
    for label in sorted(set(ERRATA) - {row[0] for row in PUBLISHED_ROWS}):
        failures.append((label, "erratum names no published row"))
    for label, p, r, f1_printed, rval_printed in PUBLISHED_ROWS:
        r_want, rval_want, note = r, rval_printed, ""
        erratum = ERRATA.get(label)
        if erratum is not None:
            printed = {"recall": r, "r_value": rval_printed}[erratum.field]
            if printed != erratum.printed:
                failures.append((label, f"erratum says {erratum.field} {erratum.printed}, "
                                        f"table prints {printed}"))
            _, _, f1, rv = _percent_report(p, r)
            if abs(f1 - f1_printed) <= F1_TOL and abs(rv - rval_printed) <= RVAL_TOL:
                failures.append((label, "stale erratum: printed row is consistent"))
            if erratum.field == "recall":
                r_want = erratum.supported
            else:
                rval_want = erratum.supported
            note = f"  erratum {erratum.field} {erratum.printed} -> {erratum.supported}"
        p_got, r_got, f1, rv = _percent_report(p, r_want)
        if abs(p_got - p) > 1e-9 or abs(r_got - r_want) > 1e-9:
            failures.append((label, f"counts give P {p_got} R {r_got}, not {p} {r_want}"))
        f1_err = abs(f1 - f1_printed)
        rv_err = abs(rv - rval_want)
        if f1_err > F1_TOL:
            failures.append((label, f"F1 computed {f1:.3f} vs {f1_printed} (|d|={f1_err:.3f})"))
        if rv_err > RVAL_TOL:
            failures.append((label, f"R-val computed {rv:.3f} vs {rval_want} "
                                    f"(|d|={rv_err:.3f})"))
        print(f"  {label:32s} F1 {f1:7.3f}/{f1_printed:<6} "
              f"Rval {rv:7.3f}/{rval_want:<6} "
              f"{'OK' if f1_err <= F1_TOL and rv_err <= RVAL_TOL else 'MISMATCH'}{note}")
    elapsed = time.perf_counter() - tic
    ok = not failures and elapsed < 1.0
    _verdict("A3", ok, f"{len(PUBLISHED_ROWS)} rows, {len(ERRATA)} named errata, "
                       f"{elapsed:.2f}s; "
                       + ("every supported figure matches" if ok else f"failures: {failures}"))
    assert ok, (
        "segfeat's F1/R-value miss a printed figure that the printed P/R support, "
        f"or an erratum is stale or orphaned ({elapsed:.2f}s, < 1s required): {failures}")


def test_a4_feature_pipeline_properties():
    """A4: constant-signal derivatives vanish; framing formula; mel peak."""
    rate = 16000
    cfg = FeatureConfig()

    dc = Waveform(np.full(4000, 0.3), rate)
    mfcc = compute_mfcc(dc, cfg)
    with_d = append_deltas(mfcc, cfg.delta_window)
    dists = spectral_change_features(with_d, cfg.spectral_js)
    const_ok = (np.allclose(with_d.data[:, 13:], 0.0)
                and np.allclose(dists.data, 0.0))

    rng = np.random.default_rng(0)
    frame_ok = True
    for _ in range(50):
        win = int(rng.integers(32, 400))
        shift = int(rng.integers(16, 320))
        n = int(rng.integers(win, 20000))
        w = Waveform(rng.uniform(-0.5, 0.5, n), rate)
        c = FeatureConfig(frame_shift=shift / rate, window_length=win / rate)
        frame_ok &= compute_mfcc(w, c).n_frames == (n - win) // shift + 1

    t = np.arange(rate) / rate
    tone = Waveform(0.8 * np.sin(2 * np.pi * 1000.0 * t), rate)
    energies = mel_energies(tone, cfg)
    peaks = filter_peak_freqs(cfg.n_mel_filters, rate)
    nearest = int(np.argmin(np.abs(peaks - 1000.0)))
    mel_ok = bool(np.all(np.argmax(energies, axis=1) == nearest))

    ok = const_ok and frame_ok and mel_ok
    _verdict("A4", ok, f"constant-signal zeros: {const_ok}, frame formula 50/50: "
                       f"{frame_ok}, 1 kHz mel peak -> filter {nearest}: {mel_ok}")
    assert ok


# Desk-scale end-to-end configuration (seeded; deterministic).
A5_SYNTH = SynthConfig(n_utterances=240, segments_range=(2, 6),
                       duration_range=(0.05, 0.15), n_classes=4,
                       noise_level=0.05, seed=12345, sample_rate=16000)
A5_EPOCHS = 30
A5_THRESHOLD = 0.85


def _a5_corpus(tmp_path):
    items = synth_corpus(A5_SYNTH)
    splits = ["train"] * 200 + ["val"] * 20 + ["test"] * 20
    manifest_path = write_synth_corpus(items, tmp_path, splits)
    manifest = read_manifest(manifest_path, A5_SYNTH.sample_rate)
    fcfg = FeatureConfig()
    train = load_corpus(manifest, fcfg, split="train")
    val = load_corpus(manifest, fcfg, split="val")
    test = load_corpus(manifest, fcfg, split="test")
    stats = corpus_stats([u.features for u in train])
    return (zscore_utterances(train, stats), zscore_utterances(val, stats),
            zscore_utterances(test, stats), fcfg)


def _a5_run(train, val, test, fcfg, losses):
    inventory = ()
    if "phn" in losses:
        inventory = tuple(sorted({s for u in train for s in u.phonemes}))
    mcfg = ModelConfig(input_dim=fcfg.feature_dim, hidden_size=16, num_layers=2,
                       seed=7, inventory=inventory)
    model = SegmentalModel(mcfg, fcfg)
    tcfg = TrainConfig(epochs=A5_EPOCHS, learning_rate=1e-3, losses=losses,
                       shuffle_seed=3, tolerance=0.020)
    result = fit(train, val, model, tcfg)
    report = validate_model(model, test, 0.020)
    first = next((log.epoch for log in result.logs if log.val_f1 >= A5_THRESHOLD), None)
    return report, first


def test_a5_end_to_end_desk_scale(tmp_path):
    """A5: hinge training reaches test F1 >= 0.85 and R-value >= 0.80 within
    30 epochs; adding PHN does not hurt F1 by > 0.02 nor slow convergence."""
    tic = time.perf_counter()
    train, val, test, fcfg = _a5_corpus(tmp_path)
    hinge_report, hinge_first = _a5_run(train, val, test, fcfg, ("segfeat",))
    phn_report, phn_first = _a5_run(train, val, test, fcfg, ("segfeat", "phn"))
    elapsed = time.perf_counter() - tic

    hinge_ok = hinge_report.f1 >= A5_THRESHOLD and hinge_report.r_value >= 0.80
    reach_ok = hinge_first is not None and phn_first is not None
    phn_f1_ok = phn_report.f1 >= hinge_report.f1 - 0.02
    phn_speed_ok = reach_ok and phn_first <= hinge_first
    time_ok = elapsed < 600.0
    ok = hinge_ok and reach_ok and phn_f1_ok and phn_speed_ok and time_ok
    _verdict("A5", ok,
             f"hinge test F1 {hinge_report.f1:.4f} R-val {hinge_report.r_value:.4f} "
             f"(epoch {hinge_first} reached {A5_THRESHOLD}); "
             f"+phn test F1 {phn_report.f1:.4f} (epoch {phn_first}); "
             f"wall {elapsed:.0f}s (< 600s required)")
    assert hinge_ok, f"hinge run below threshold: {hinge_report}"
    assert phn_f1_ok, f"phn run lost too much F1: {phn_report.f1} vs {hinge_report.f1}"
    assert phn_speed_ok, f"phn reached threshold at {phn_first} vs hinge {hinge_first}"
    assert time_ok, f"took {elapsed:.0f}s"


A6_CONFIG = """
[model]
hidden_size = 8
num_layers = 2
seed = 5
[train]
epochs = 3
learning_rate = 1e-3
losses = segfeat
val_fraction = 0.2
shuffle_seed = 9
"""


def test_a6_cmd_train_bit_identical(tmp_path):
    """A6: two cmd_train runs with identical config/seeds produce bit-identical
    checkpoints and epoch logs (wall-clock column aside)."""
    corpus = tmp_path / "corpus"
    rc = main(["synth", "--out", str(corpus), "--train", "10", "--val", "2",
               "--test", "2", "--seed", "21"])
    assert rc == EXIT_OK
    cfg = tmp_path / "run.cfg"
    cfg.write_text(A6_CONFIG)

    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = main(["train", "--manifest", str(corpus / "manifest.csv"),
                   "--out", str(out), "--config", str(cfg)])
        assert rc == EXIT_OK
        outs.append(out)

    best_same = (outs[0] / "model_best.bin").read_bytes() == \
        (outs[1] / "model_best.bin").read_bytes()
    last_same = (outs[0] / "model_last.bin").read_bytes() == \
        (outs[1] / "model_last.bin").read_bytes()

    def log_rows(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    logs_same = log_rows(outs[0] / "epochs.csv") == log_rows(outs[1] / "epochs.csv")
    ok = best_same and last_same and logs_same
    _verdict("A6", ok, f"checkpoints identical: best={best_same} last={last_same}, "
                       f"epoch logs identical (seconds column aside): {logs_same}")
    assert ok
