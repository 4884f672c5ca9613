"""The three workloads: set-up, one closed-loop unit of work, and the checks.

`train_desk` and `train_timit` repeat one `segfeat.train.fit` call with a
fixed number of epochs; `segment_long` calls `segfeat.cli.main(["segment",
...])` once per recording. Every call goes through the module attribute, so
the tracer's replacements are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpora

import segfeat.cli
import segfeat.data
import segfeat.features
import segfeat.metrics
import segfeat.model
import segfeat.train

TOLERANCE = 0.020
FRAME_SHIFT = 0.010
MODEL_SEED = 7
SHUFFLE_SEED = 3
CAP = 50


@dataclass(frozen=True)
class TrainSpec:
    shape: str          # corpus shape, see corpora.write_corpus
    n_train: int
    n_val: int
    hidden: int
    losses: tuple
    lr: float
    epochs: int
    floor_f1: float     # validation quality below this counts as a failure
    floor_r: float


@dataclass
class Prepared:
    """A loaded, z-scored corpus ready for `fit`."""

    train: list
    val: list
    fcfg: object
    stats: object
    inventory: tuple
    val_seconds: float


@dataclass
class Outcome:
    """One unit of the closed loop and what its checks found."""

    attempted: int
    failed: int
    digest: str = ""
    errors: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    train_seconds: float = 0.0
    train_frames: int = 0
    decode_seconds: float = 0.0
    audio_seconds: float = 0.0
    f1: float = float("nan")
    r_value: float = float("nan")


def prepare(out_dir, seed: int, spec: TrainSpec) -> Prepared:
    """Synthesize the corpus, then load it through the package's front end."""
    manifest_path = corpora.write_corpus(Path(out_dir) / "corpus", seed,
                                         spec.n_train, spec.n_val, spec.shape)
    manifest = segfeat.data.read_manifest(manifest_path, corpora.SAMPLE_RATE)
    fcfg = segfeat.features.FeatureConfig()
    train = segfeat.data.load_corpus(manifest, fcfg, split="train")
    val = segfeat.data.load_corpus(manifest, fcfg, split="val")
    stats = segfeat.features.corpus_stats([u.features for u in train])

    def norm(utts):
        return [segfeat.data.LabeledUtterance(
            u.key, segfeat.features.apply_stats(u.features, stats), u.gold, u.phonemes)
            for u in utts]

    inventory = ()
    if "phn" in spec.losses:
        inventory = tuple(sorted({s for u in train + val for s in u.phonemes}))
    val_seconds = sum(corpora.wav_seconds(e.wav_path) for e in manifest.split("val"))
    return Prepared(norm(train), norm(val), fcfg, stats, inventory, val_seconds)


def new_model(prep: Prepared, spec: TrainSpec):
    mcfg = segfeat.model.ModelConfig(input_dim=prep.fcfg.feature_dim, hidden_size=spec.hidden,
                                     num_layers=2, seed=MODEL_SEED, inventory=prep.inventory,
                                     with_bin="bin" in spec.losses)
    return segfeat.model.SegmentalModel(mcfg, prep.fcfg, prep.stats)


def _digest(result) -> str:
    h = hashlib.sha256()
    for values in (result.best_values, result.final_values):
        for name in sorted(values):
            h.update(name.encode())
            h.update(np.ascontiguousarray(values[name], dtype="<f8").tobytes())
    for log in result.logs:
        h.update(log.as_csv().rsplit(",", 1)[0].encode())  # wall-clock column aside
    return h.hexdigest()


def _split_marks(marks, t0):
    """Per-step milliseconds, training seconds and validation seconds of one fit.

    A step ends when the optimizer returns; the first step of an epoch starts
    at the fit call or where the previous validation ended.
    """
    steps = []
    train_s = val_s = 0.0
    last = epoch_start = val_in = t0
    for kind, t in marks:
        if kind == "step":
            steps.append(1000.0 * (t - last))
            last = t
        elif kind == "val_in":
            train_s += t - epoch_start
            val_in = t
        else:
            val_s += t - val_in
            last = epoch_start = t
    if last > epoch_start:  # an epoch that ended without validation
        train_s += last - epoch_start
    return steps, train_s, val_s


def run_fit(prep: Prepared, spec: TrainSpec, probe=None, model=None,
            train=None, val=None) -> Outcome:
    """One `fit` with fixed epochs; attempted = training steps + validations.

    `fit` leaves the best-validation parameters loaded in `model`.
    """
    train = prep.train if train is None else train
    val = prep.val if val is None else val
    model = new_model(prep, spec) if model is None else model
    cfg = segfeat.train.TrainConfig(epochs=spec.epochs, learning_rate=spec.lr,
                                    losses=spec.losses, batch_size=1,
                                    shuffle_seed=SHUFFLE_SEED, max_seg_frames=CAP,
                                    tolerance=TOLERANCE)
    first_mark = len(probe.marks) if probe is not None else 0
    t0 = time.perf_counter()
    try:
        result = segfeat.train.fit(train, val, model, cfg)
    except Exception:  # the loop must go on; the failure is counted and shown
        done = sum(1 for kind, _ in probe.marks[first_mark:] if kind == "step") if probe else 0
        return Outcome(attempted=done + 1, failed=1, errors=[traceback.format_exc(limit=3)])

    out = Outcome(attempted=len(train) * spec.epochs + spec.epochs, failed=0,
                  digest=_digest(result))
    out.epoch_seconds = [log.seconds for log in result.logs]
    if probe is not None:
        out.step_ms, out.train_seconds, out.decode_seconds = _split_marks(
            probe.marks[first_mark:], t0)
    out.train_frames = spec.epochs * sum(u.features.n_frames for u in train)
    out.audio_seconds = spec.epochs * prep.val_seconds
    best = result.logs[result.best_epoch]
    out.f1, out.r_value = best.val_f1, best.val_rval
    in_range = 0.0 <= out.f1 <= 1.0 and out.r_value <= 1.0  # NaN fails both
    if not in_range or out.f1 < spec.floor_f1 or out.r_value < spec.floor_r:
        out.failed += 1
        out.errors.append(f"validation F1 {out.f1} / R-value {out.r_value} below "
                          f"floors {spec.floor_f1} / {spec.floor_r}")
    return out


def _quantile(values, q):
    return float(np.quantile(np.asarray(values), q)) if values else float("nan")


def training_metrics(ok) -> dict:
    """epoch_s, train_frames_per_s and step percentiles over successful fits."""
    steps = [ms for o in ok for ms in o.step_ms]
    train_s = sum(o.train_seconds for o in ok)
    return {
        "epoch_s": statistics.median([s for o in ok for s in o.epoch_seconds]),
        "train_frames_per_s": sum(o.train_frames for o in ok) / train_s,
        "step_ms_p50": _quantile(steps, 0.5),
        "step_ms_p90": _quantile(steps, 0.9),
    }, len(steps)


class TrainWorkload:
    """Repeated identical `fit` calls on one corpus."""

    def __init__(self, spec: TrainSpec, memory_steps: int):
        self.spec = spec
        self.memory_steps = memory_steps

    def setup(self, out_dir, seed, probe=None):
        return prepare(out_dir, seed, self.spec)

    def unit(self, state, index, probe=None):
        return run_fit(state, self.spec, probe)

    def memory_unit(self, state):
        """A short fit for the tracemalloc pass: a few steps, one validation."""
        run_fit(state, self.spec, train=state.train[:self.memory_steps], val=state.val[:1])

    def passive_outputs(self, state, outcomes):
        return [o.digest for o in outcomes]

    def checks(self, outcomes):
        """Identical fits must give bit-identical parameters and logs."""
        digests = {o.digest for o in outcomes if o.digest}
        if len(digests) > 1:
            return [Outcome(attempted=0, failed=1, errors=[
                f"repeated fits disagree: {len(digests)} distinct parameter digests"])]
        return []

    def summarize(self, state, outcomes):
        ok = [o for o in outcomes if o.digest]
        metrics, n_steps = training_metrics(ok)
        metrics["rtf"] = sum(o.decode_seconds for o in ok) / sum(o.audio_seconds for o in ok)
        metrics["f1"], metrics["r_value"] = ok[-1].f1, ok[-1].r_value
        notes = {"step_samples": n_steps, "fits": len(outcomes),
                 "rtf_is": "validation decode seconds / validation audio seconds"}
        return metrics, notes


@dataclass
class SegmentState:
    model_path: Path
    recordings: list
    out_dir: Path
    setup_fit: Outcome
    first_csv: dict = field(default_factory=dict)


def _parse_boundaries(text: str, seconds: float):
    """Strict reader for a `time_s` CSV; raises ValueError on any defect."""
    lines = text.splitlines()
    if not lines or lines[0] != "time_s":
        raise ValueError("missing time_s header")
    times = [float(line) for line in lines[1:]]
    prev = 0.0
    for t in times:
        if not (prev < t < seconds):
            raise ValueError(f"boundary {t} out of order or outside (0, {seconds})")
        if abs(t / FRAME_SHIFT - round(t / FRAME_SHIFT)) > 1e-6:
            raise ValueError(f"boundary {t} is not on the {FRAME_SHIFT} s frame grid")
        prev = t
    return times


class SegmentWorkload:
    """`segfeat segment --wav` once per long recording, in process."""

    def __init__(self, train_spec: TrainSpec, n_recordings: int, seconds: float,
                 floor_f1: float, floor_r: float):
        self.setup_fits = []  # the set-up training of every set-up this run made
        self.train_spec = train_spec
        self.n_recordings = n_recordings
        self.seconds = seconds
        self.floor_f1 = floor_f1
        self.floor_r = floor_r

    def setup(self, out_dir, seed, probe=None):
        out_dir = Path(out_dir)
        prep = prepare(out_dir, seed, self.train_spec)
        model = new_model(prep, self.train_spec)
        fit_outcome = run_fit(prep, self.train_spec, probe, model=model)
        self.setup_fits.append(fit_outcome)
        if not fit_outcome.digest:
            raise RuntimeError("set-up training failed:\n" + "".join(fit_outcome.errors))
        model_path = out_dir / "model.bin"
        model.save(model_path)
        recordings = corpora.write_recordings(out_dir / "recordings", seed + 1,
                                              self.n_recordings, self.seconds)
        seg_dir = out_dir / "segments"
        seg_dir.mkdir()
        return SegmentState(model_path, recordings, seg_dir, fit_outcome)

    def unit(self, state, index, probe=None):
        """Decode one recording through the CLI and check what it wrote."""
        rec = state.recordings[index % len(state.recordings)]
        argv = ["segment", "--model", str(state.model_path), "--wav", str(rec.wav_path),
                "--out", str(state.out_dir)]
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = segfeat.cli.main(argv)
        elapsed = time.perf_counter() - t0
        out = Outcome(attempted=1, failed=0, decode_seconds=elapsed, audio_seconds=rec.seconds)
        if code != 0:
            out.failed = 1
            out.errors.append(f"segment exited {code} on {rec.key}: {err.getvalue().strip()}")
            return out
        try:
            text = (state.out_dir / f"{rec.key}.csv").read_text(encoding="ascii")
            times = _parse_boundaries(text, rec.seconds)
        except (OSError, ValueError) as exc:
            out.failed = 1
            out.errors.append(f"{rec.key}: invalid segmentation: {exc}")
            return out
        out.digest = hashlib.sha256(text.encode()).hexdigest()
        previous = state.first_csv.setdefault(rec.key, (out.digest, times))
        if previous[0] != out.digest:
            out.failed = 1
            out.errors.append(f"{rec.key}: a repeated decode wrote different boundaries")
        report = segfeat.metrics.evaluate_times({rec.key: times}, {rec.key: list(rec.boundaries)},
                                                segfeat.metrics.TolerancePolicy(TOLERANCE))
        out.f1, out.r_value = report.f1, report.r_value
        if not (out.f1 >= self.floor_f1 and out.r_value >= self.floor_r):
            out.failed = 1
            out.errors.append(f"{rec.key}: F1 {out.f1} / R-value {out.r_value} below floors "
                              f"{self.floor_f1} / {self.floor_r}")
        return out

    def memory_unit(self, state):
        self.unit(state, 0)

    def passive_outputs(self, state, outcomes):
        return [o.digest for o in outcomes] + [state.setup_fit.digest]

    def checks(self, outcomes):
        """The set-up fits are operations too (quality floors, exceptions)."""
        return self.setup_fits

    def summarize(self, state, outcomes):
        # the training metrics describe the set-up training of the decoding model
        metrics, n_steps = training_metrics(self.setup_fits)
        metrics["rtf"] = statistics.median(o.decode_seconds / o.audio_seconds
                                           for o in outcomes if o.digest)
        preds = {key: times for key, (_, times) in state.first_csv.items()}
        refs = {r.key: list(r.boundaries) for r in state.recordings if r.key in preds}
        report = segfeat.metrics.evaluate_times(preds, refs,
                                                segfeat.metrics.TolerancePolicy(TOLERANCE))
        metrics["f1"], metrics["r_value"] = report.f1, report.r_value
        notes = {"step_samples": n_steps, "decodes": len(outcomes),
                 "recordings_scored": len(preds),
                 "training_metrics_are": "the set-up training of the decoding model"}
        return metrics, notes


def make_workloads(smoke: bool) -> dict:
    """Name -> workload; smoke mode shrinks every input so a run takes seconds."""
    if smoke:  # quality floors off: tiny models are not expected to be good
        no = float("-inf")
        desk = TrainSpec("desk", 8, 2, 4, ("segfeat",), 1e-3, 1, no, no)
        timit = TrainSpec("timit", 2, 1, 8, ("segfeat", "phn", "bin"), 1e-4, 1, no, no)
        seg_train = TrainSpec("desk", 8, 2, 8, ("segfeat",), 1e-3, 1, no, no)
        return {"train_desk": TrainWorkload(desk, memory_steps=2),
                "train_timit": TrainWorkload(timit, memory_steps=1),
                "segment_long": SegmentWorkload(seg_train, 2, 2.0, no, no)}
    desk = TrainSpec("desk", 200, 50, 16, ("segfeat",), 1e-3, 2, 0.75, 0.70)
    timit = TrainSpec("timit", 20, 4, 64, ("segfeat", "phn", "bin"), 1e-4, 2, 0.75, 0.70)
    seg_train = TrainSpec("desk", 50, 10, 64, ("segfeat",), 1e-3, 2, 0.75, 0.70)
    return {"train_desk": TrainWorkload(desk, memory_steps=10),
            "train_timit": TrainWorkload(timit, memory_steps=3),
            "segment_long": SegmentWorkload(seg_train, 8, 10.0, 0.75, 0.70)}
