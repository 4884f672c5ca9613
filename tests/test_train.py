import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from segfeat import decode as decode_module
from segfeat import model as model_module
from segfeat import train as train_module
from segfeat.data import LabeledUtterance
from segfeat.decode import dp_segment
from segfeat.features import FeatureConfig, FrameMatrix
from segfeat.metrics import TolerancePolicy, evaluate_corpus
from segfeat.model import ModelConfig, SegmentalModel, Segmentation, build_context
from segfeat.train import (EpochLog, TrainConfig, fit, read_epoch_logs, validate_model,
                           write_epoch_logs)


def tiny_corpus(n=6, seed=0, classes=("a", "b")):
    """Utterances whose feature rows encode the class directly."""
    rng = np.random.default_rng(seed)
    utts = []
    for i in range(n):
        n_seg = int(rng.integers(2, 4))
        lengths = rng.integers(4, 8, size=n_seg)
        syms = []
        rows = []
        prev = -1
        for ln in lengths:
            c = int(rng.integers(0, len(classes) - 1))
            c = c + (1 if c >= prev and prev >= 0 else 0) if len(classes) > 1 else 0
            c = c % len(classes)
            if c == prev:
                c = (c + 1) % len(classes)
            prev = c
            syms.append(classes[c])
            base = np.zeros(6)
            base[c] = 2.0
            rows.append(base + 0.05 * rng.standard_normal((int(ln), 6)))
        data = np.vstack(rows)
        bounds = tuple(np.cumsum(lengths)[:-1].astype(int).tolist())
        utts.append(LabeledUtterance(f"t{i}", FrameMatrix(data, 0.01),
                                     Segmentation(bounds, data.shape[0]), tuple(syms)))
    return utts


def make_model(inventory=(), with_bin=False, seed=1):
    cfg = ModelConfig(input_dim=6, hidden_size=4, num_layers=1, seed=seed,
                      inventory=inventory, with_bin=with_bin)
    return SegmentalModel(cfg, FeatureConfig())


def test_fit_requires_losses_and_data():
    utts = tiny_corpus(2)
    model = make_model()
    with pytest.raises(ValueError, match="losses"):
        fit(utts, [], model, TrainConfig(epochs=1, losses=()))
    with pytest.raises(ValueError, match="empty"):
        fit([], [], model, TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        TrainConfig(losses=("segfeat", "bogus"))


def test_fit_phn_requires_head_and_annotations():
    utts = tiny_corpus(2)
    model = make_model()  # no phoneme head
    with pytest.raises(ValueError, match="phoneme head"):
        fit(utts, [], model, TrainConfig(epochs=1, losses=("segfeat", "phn")))
    model = make_model(inventory=("a", "b"))
    bare = [LabeledUtterance(u.key, u.features, u.gold, None) for u in utts]
    with pytest.raises(ValueError, match="annotations"):
        fit(bare, [], model, TrainConfig(epochs=1, losses=("phn",)))
    # unknown symbol
    odd = [LabeledUtterance(u.key, u.features, u.gold, ("z",) * u.gold.n_segments)
           for u in utts]
    with pytest.raises(ValueError, match="inventory"):
        fit(odd, [], model, TrainConfig(epochs=1, losses=("phn",)))


def test_fit_bin_requires_head():
    utts = tiny_corpus(2)
    model = make_model()
    with pytest.raises(ValueError, match="boundary head"):
        fit(utts, [], model, TrainConfig(epochs=1, losses=("bin",)))


def test_fit_deterministic_trajectories():
    utts = tiny_corpus(5)
    cfg = TrainConfig(epochs=3, learning_rate=1e-3, losses=("segfeat",), shuffle_seed=7)

    def run():
        model = make_model(seed=2)
        result = fit(utts[:4], utts[4:], model, cfg)
        return result, model.params.copy_values()

    res_a, vals_a = run()
    res_b, vals_b = run()
    for name in vals_a:
        assert np.array_equal(vals_a[name], vals_b[name])
    for la, lb in zip(res_a.logs, res_b.logs):
        assert la.hinge == lb.hinge and la.phn == lb.phn and la.bin == lb.bin
        assert la.val_f1 == lb.val_f1 and la.val_p == lb.val_p


def test_fit_improves_on_tiny_corpus():
    utts = tiny_corpus(8, seed=3)
    model = make_model(seed=4)
    cfg = TrainConfig(epochs=12, learning_rate=3e-3, losses=("segfeat",), shuffle_seed=1)
    result = fit(utts[:6], utts[6:], model, cfg)
    assert result.logs[-1].hinge <= result.logs[0].hinge
    best = max(log.val_f1 for log in result.logs)
    assert best >= 0.8


def test_fit_all_losses_together_runs():
    utts = tiny_corpus(4, seed=5)
    model = make_model(inventory=("a", "b"), with_bin=True, seed=6)
    cfg = TrainConfig(epochs=2, learning_rate=1e-3, losses=("segfeat", "phn", "bin"))
    result = fit(utts[:3], utts[3:], model, cfg)
    log = result.logs[-1]
    assert log.phn > 0.0 and log.bin > 0.0
    assert np.isfinite([log.hinge, log.phn, log.bin]).all()


def test_fit_returns_best_checkpoint():
    utts = tiny_corpus(6, seed=8)
    model = make_model(seed=9)
    cfg = TrainConfig(epochs=5, learning_rate=2e-3, losses=("segfeat",))
    result = fit(utts[:5], utts[5:], model, cfg)
    best_f1 = max(log.val_f1 for log in result.logs)
    assert result.logs[result.best_epoch].val_f1 == best_f1
    for name, value in result.best_values.items():
        assert np.array_equal(model.params[name].value, value)


def test_fit_reports_the_validation_of_the_best_epoch():
    utts = tiny_corpus(6, seed=8)
    model = make_model(seed=9)
    cfg = TrainConfig(epochs=5, learning_rate=2e-3, losses=("segfeat",))
    result = fit(utts[:5], utts[5:], model, cfg)
    assert result.best_report.f1 == result.logs[result.best_epoch].val_f1
    assert result.best_report.as_text() == \
        validate_model(model, utts[5:], cfg.tolerance).as_text()
    assert fit(utts, [], make_model(seed=9), TrainConfig(epochs=1)).best_report is None


def test_fit_patience_stops_early():
    utts = tiny_corpus(4, seed=10)
    model = make_model(seed=11)
    cfg = TrainConfig(epochs=50, learning_rate=1e-6, losses=("segfeat",), patience=2)
    result = fit(utts[:3], utts[3:], model, cfg)
    assert len(result.logs) < 50


def test_batch_size_accumulation_runs_and_differs():
    utts = tiny_corpus(4, seed=12)
    cfg1 = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=1)
    cfg2 = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=2)
    m1 = make_model(seed=13)
    fit(utts, [], m1, cfg1)
    m2 = make_model(seed=13)
    fit(utts, [], m2, cfg2)
    assert any(not np.array_equal(m1.params[n].value, m2.params[n].value)
               for n in m1.params.names())


def test_epoch_log_roundtrip(tmp_path):
    logs = [EpochLog(0, 1.25, 0.5, 0.0, 0.9, 0.8, 0.85, 0.82, 1.75),
            EpochLog(1, 1.00, 0.4, 0.0, 0.95, 0.85, 0.9, 0.88, 1.5)]
    path = tmp_path / "epochs.csv"
    write_epoch_logs(path, logs)
    text = path.read_text().splitlines()
    assert text[0] == EpochLog.CSV_HEADER
    back = read_epoch_logs(path)
    assert back == logs


@pytest.mark.parametrize("order", ["shrink", "grow"])
def test_writing_over_epoch_logs_writes_the_bytes_of_a_fresh_write(tmp_path, order):
    """epochs.csv is written over in place and cut to its new length: over
    a longer log (shrinking) or a shorter one (growing), the file holds
    exactly a fresh write's bytes."""
    long = [EpochLog(e, 1.25 / (e + 1), 0.5, 0.0, 0.9, 0.8, 0.85, 0.82, 1.75) for e in range(5)]
    short = long[:1]
    first, second = (long, short) if order == "shrink" else (short, long)
    write_epoch_logs(tmp_path / "fresh.csv", second)
    path = tmp_path / "epochs.csv"
    write_epoch_logs(path, first)
    write_epoch_logs(path, second)
    assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert read_epoch_logs(path) == second


def test_validate_model_scores_tiny_corpus():
    utts = tiny_corpus(3, seed=14)
    model = make_model(seed=15)
    report = validate_model(model, utts, 0.020)
    assert 0.0 <= report.recall <= 1.0
    assert report.n_ref == sum(len(u.gold.boundaries) for u in utts)


@pytest.mark.parametrize("budget", [1, 30, model_module._SCAN_FRAMES])
def test_validate_model_equals_one_build_context_and_dp_per_utterance(monkeypatch, budget):
    """Batched validation decodes every utterance to the segmentation that
    build_context + dp_segment give it alone, and reports the same metrics.
    At the full budget the 12 utterances form one scan group, which is
    decoded in one lockstep sweep; smaller budgets decode one at a time."""
    full = budget == model_module._SCAN_FRAMES
    monkeypatch.setattr(model_module, "_SCAN_FRAMES", budget)
    validated, lockstep = [], []

    def recording_evaluate_corpus(preds, refs, policy):
        validated.append(preds)
        return evaluate_corpus(preds, refs, policy)

    def recording_lockstep(ctxs, model):
        lockstep.append(len(ctxs))
        return lockstep_segment(ctxs, model)

    lockstep_segment = decode_module._lockstep_segment
    monkeypatch.setattr(train_module, "evaluate_corpus", recording_evaluate_corpus)
    monkeypatch.setattr(decode_module, "_lockstep_segment", recording_lockstep)
    utts = tiny_corpus(12, seed=16)
    model = make_model(seed=17)
    report = validate_model(model, utts, 0.020)
    want = [dp_segment(build_context(model, u.features), model, max_seg_frames=None)
            for u in utts]
    preds = {u.key: (seg, u.features.frame_shift) for u, (seg, _) in zip(utts, want)}
    assert validated == [preds]
    assert lockstep == ([12] if full else [])
    refs = {u.key: (u.gold, u.features.frame_shift) for u in utts}
    assert report == evaluate_corpus(preds, refs, TolerancePolicy(0.020))


def _buffer_offset(view, buf):
    return (view.__array_interface__["data"][0] - buf.__array_interface__["data"][0]) // 8


def test_fit_leaves_every_parameter_a_view_of_the_buffers(monkeypatch):
    """After a fit with all three losses, a short last batch and clipping that
    fires, each value and grad is still a view of ParameterSet's buffers, and
    together the views tile both buffers in name order."""
    calls = []

    def recording(fn):
        def wrapper(params, *args, **kwargs):
            out = fn(params, *args, **kwargs)
            calls.append((fn.__name__, out, args))
            return out
        return wrapper

    monkeypatch.setattr(train_module, "clip_grad_norm", recording(train_module.clip_grad_norm))
    monkeypatch.setattr(train_module, "adam_step", recording(train_module.adam_step))
    utts = tiny_corpus(6, seed=14)
    model = make_model(inventory=("a", "b"), with_bin=True, seed=15)
    init = model.params.values.copy()
    cfg = TrainConfig(epochs=2, learning_rate=1e-3, losses=("segfeat", "phn", "bin"),
                      batch_size=2, grad_clip=0.5)
    fit(utts[:5], utts[5:], model, cfg)

    clips = [(norm, args[0]) for name, norm, args in calls if name == "clip_grad_norm"]
    assert len(clips) == 2 * 3  # 5 utterances in batches of 2, 2, 1 per epoch
    assert sum(1 for name, _, _ in calls if name == "adam_step") == len(clips)
    assert any(norm > max_norm for norm, max_norm in clips)
    params = model.params
    start = 0
    for name, t in params.items():
        for view, buf in ((t.value, params.values), (t.grad, params.grads)):
            assert np.shares_memory(view, buf), name
            assert view.flags.c_contiguous and _buffer_offset(view, buf) == start, name
        start += t.value.size
    assert start == params.values.size == params.grads.size
    assert not np.array_equal(params.values, init)


# One train_timit-shaped hinge + PHN + BIN step (T=300, H=64), then a
# 1000-frame encode and uncapped decode; prints the bytes' digests as JSON.
_THREAD_PROBE = """
import hashlib, json
import numpy as np
from segfeat.autodiff import Tape
from segfeat.decode import dp_segment
from segfeat.features import FeatureConfig
from segfeat.losses import bin_loss, frame_labels_from, hinge_loss, phn_loss
from segfeat.model import (ModelConfig, SegmentalModel, Segmentation, boundary_logits,
                           build_context, phoneme_logits)

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

rng = np.random.default_rng(7)
model = SegmentalModel(ModelConfig(hidden_size=64, seed=7, inventory=tuple("abcdefgh"),
                                   with_bin=True), FeatureConfig())
gold = Segmentation(tuple(range(10, 300, 10)), 300)
tape = Tape()
ctx = build_context(model, rng.normal(size=(300, 43)), tape)
hinge = hinge_loss(ctx, model, gold, 50)
labels = frame_labels_from(gold, rng.integers(0, 8, size=gold.n_segments))
phn = phn_loss(tape, phoneme_logits(ctx, model), labels)
tape.backward(tape.add(tape.add(hinge, phn), bin_loss(tape, boundary_logits(ctx, model), gold)))
out = {"hinge": hinge.item()}
out.update((f"{name}.grad", digest(t.grad)) for name, t in model.params.items())
ctx = build_context(model, rng.normal(size=(1000, 43)))
seg, score = dp_segment(ctx, model)
out.update(hidden=digest(ctx.hidden_np), q=digest(ctx.q_np), boundaries=seg.boundaries,
           score=float(score).hex())
print(json.dumps(out))
"""


def test_training_step_and_decode_do_not_depend_on_the_blas_thread_count():
    """Every gradient of one train_timit-shaped step, and the hidden states,
    q, boundaries and score of a 1000-frame decode, have the same bytes under
    1 and 2 BLAS threads. Longer training utterances are not covered: at
    T=1000 the weight-gradient products that sum over frames (every wx and
    wh, the heads' first layers) round differently with 2 threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    one, two = runs
    assert one["hinge"] > 0.0  # active, so the hinge's gradient reaches the encoder
    assert [key for key in one if one[key] != two[key]] == []
