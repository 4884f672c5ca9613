"""Corpus handling: annotations, manifests, long-utterance splitting, and a
seeded synthetic corpus generator for desk-scale end-to-end runs."""

from __future__ import annotations

import bisect
import csv
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, read_wav, write_wav
from .features import FeatureConfig, FeatureStats, FrameMatrix, apply_stats, assemble_features
from .model import ModelConfig, Segmentation

NONSPEECH_SYMBOLS = ("sil", "noise", "iva")
MIN_NONSPEECH_MS = 100.0  # interior non-speech run that cuts an utterance
MAX_LEAD_MS = 20.0        # non-speech a piece keeps on each side
VAL_FRACTION = 0.10       # validation share carved from training data
VAL_SEED = 0
SPLIT_TAGS = ("train", "val", "test")
ANNOTATION_UNITS = ("samples", "seconds")


class _SegmentError(ValueError):
    """A broken annotation invariant at segment `index` (None: at no one segment)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


@dataclass
class Annotation:
    """Contiguous labeled segments of one utterance, in samples."""

    segments: list  # (start_sample, end_sample, symbol)

    def __post_init__(self):
        if not self.segments:
            raise _SegmentError("annotation must contain at least one segment")
        prev_end = None
        prev_start = -1
        for i, (start, end, _) in enumerate(self.segments):
            if start < 0:
                raise _SegmentError(f"segment start {start} is negative", i)
            if end <= start:
                raise _SegmentError(f"segment ({start}, {end}) is empty or reversed", i)
            if start <= prev_start:
                raise _SegmentError("segment starts must be strictly increasing", i)
            if prev_end is not None and start != prev_end:
                raise _SegmentError(f"segments are not contiguous at sample {start} "
                                    f"(previous ended at {prev_end})", i)
            prev_start, prev_end = start, end

    @property
    def symbols(self):
        return tuple(sym for _, _, sym in self.segments)


def _undecodable(path, exc: UnicodeDecodeError) -> ValueError:
    """The data error for a text file with a byte its codec rejects. The
    codec's position counts from the chunk it was decoding, so the first bad
    byte is found again in the whole file, and named by line and offset."""
    data = Path(path).read_bytes()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as whole:
        head = data[:whole.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ValueError(f"{path}: '{whole.encoding}' codec can't decode byte "
                          f"{data[whole.start]:#04x} on line {line} (byte {whole.start} "
                          f"of the file): {whole.reason}")
    return ValueError(f"{path}: {exc.reason}")  # the file changed since it was read


def _read_annotation_lines(path, parse_line) -> Annotation:
    """Annotation from the non-blank lines of an ASCII text file, each read by
    parse_line(line) -> (start, end, symbol). Every error names the file, and
    the line where one line is to blame."""
    segments, linenos = [], []
    try:
        with open(path, "r", encoding="ascii") as f:
            for lineno, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    segments.append(parse_line(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                linenos.append(lineno)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    try:
        return Annotation(segments)
    except _SegmentError as exc:
        where = path if exc.index is None else f"{path}:{linenos[exc.index]}"
        raise ValueError(f"{where}: {exc}") from None


def read_phn(path) -> Annotation:
    """TIMIT-style annotation: one 'start_sample end_sample symbol' per line."""
    def parse_line(line):
        tokens = line.split()
        if len(tokens) != 3:
            raise ValueError("expected 'start end symbol'")
        try:
            start, end = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError("segment times must be whole sample numbers") from None
        if max(abs(start), abs(end)) > sys.float_info.max:  # no float time in seconds
            raise ValueError("segment times must be finite")
        return start, end, tokens[2]

    return _read_annotation_lines(path, parse_line)


def read_ann_csv(path, sample_rate: int) -> Annotation:
    """Seconds-based CSV variant: 'start_s,end_s,symbol' per line."""
    def parse_line(line):
        parts = line.strip().split(",")
        if len(parts) != 3:
            raise ValueError("expected 'start_s,end_s,symbol'")
        try:
            start, end = (float(x) * sample_rate for x in parts[:2])
        except ValueError:
            raise ValueError("segment times must be numbers") from None
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError("segment times must be finite")
        return int(round(start)), int(round(end)), parts[2].strip()

    return _read_annotation_lines(path, parse_line)


def write_phn(path, ann: Annotation):
    with open(path, "w", encoding="ascii") as f:
        for start, end, sym in ann.segments:
            f.write(f"{start} {end} {sym}\n")


@dataclass
class ManifestEntry:
    wav_path: Path
    ann_path: Path
    split: str

    def __post_init__(self):
        self.wav_path = Path(self.wav_path)
        self.ann_path = Path(self.ann_path)
        if self.split not in SPLIT_TAGS:
            raise ValueError(f"split tag must be one of {SPLIT_TAGS}, got {self.split!r}")

    @property
    def key(self) -> str:
        return self.wav_path.stem


@dataclass
class CorpusManifest:
    entries: list
    sample_rate: int
    annotation_unit: str = ANNOTATION_UNITS[0]

    def __post_init__(self):
        if self.annotation_unit not in ANNOTATION_UNITS:
            raise ValueError(f"annotation_unit must be one of {ANNOTATION_UNITS}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def split(self, tag: str):
        return [e for e in self.entries if e.split == tag]


def read_manifest(path, sample_rate: int,
                  annotation_unit: str = CorpusManifest.annotation_unit) -> CorpusManifest:
    """CSV manifest: wav_path,ann_path,split (paths relative to the manifest)."""
    base = Path(path).parent
    entries = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            reader = csv.reader(f)
            for row in reader:
                if not row or row[0].startswith("#"):
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) != 3:
                    raise ValueError(f"{where}: manifest row must be wav,ann,split: {row}")
                wav, ann, split = (c.strip() for c in row)
                try:
                    entries.append(ManifestEntry(base / wav, base / ann, split))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    if not entries:
        raise ValueError(f"manifest is empty: {path}")
    return CorpusManifest(entries, sample_rate, annotation_unit)


def write_manifest(path, rows):
    """rows: (wav_path, ann_path, split) with paths relative to the manifest."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        for row in rows:
            writer.writerow(row)


@dataclass
class LabeledUtterance:
    key: str
    features: FrameMatrix
    gold: Segmentation
    phonemes: tuple | None = None

    def __post_init__(self):
        if self.phonemes is not None:
            self.phonemes = tuple(self.phonemes)
            if len(self.phonemes) != self.gold.n_segments:
                raise ValueError(f"{self.key}: {len(self.phonemes)} segment labels for "
                                 f"{self.gold.n_segments} segments")


def boundaries_from_annotation(ann: Annotation, shift_samples: int, n_frames: int):
    """Convert segment starts (excluding time 0) to boundary frames.

    Frame index is the nearest frame (round half up). Boundaries that fall
    on frame 0, at/after the last frame, or collapse onto a neighbor merge
    away their zero-length segment.
    """
    bounds = []
    symbols = [ann.segments[0][2]]
    for start, _, sym in ann.segments[1:]:
        frame = int(np.floor(start / shift_samples + 0.5))
        prev = bounds[-1] if bounds else 0
        if frame <= prev or frame >= n_frames:
            # zero-length segment after rounding: its label replaces the
            # label of the segment it collapsed into
            symbols[-1] = sym
        else:
            bounds.append(frame)
            symbols.append(sym)
    return tuple(bounds), tuple(symbols)


def read_annotation(path: Path, manifest: CorpusManifest) -> Annotation:
    """A manifest entry's annotation: seconds-based CSV when the manifest's unit
    is seconds or the file ends in .csv, else a sample-based .phn file."""
    if manifest.annotation_unit == "seconds" or path.suffix.lower() == ".csv":
        return read_ann_csv(path, manifest.sample_rate)
    return read_phn(path)


def load_utterance(entry: ManifestEntry, cfg: FeatureConfig,
                   manifest: CorpusManifest) -> LabeledUtterance:
    wav = read_wav(entry.wav_path)
    if wav.sample_rate != manifest.sample_rate:
        raise ValueError(f"{entry.wav_path}: sample rate {wav.sample_rate} does not "
                         f"match corpus rate {manifest.sample_rate}")
    ann = read_annotation(entry.ann_path, manifest)
    feats = assemble_features(wav, cfg)
    bounds, symbols = boundaries_from_annotation(
        ann, cfg.shift_samples(wav.sample_rate), feats.n_frames)
    gold = Segmentation(bounds, feats.n_frames)
    return LabeledUtterance(entry.key, feats, gold, symbols)


def load_corpus(manifest: CorpusManifest, cfg: FeatureConfig, split: str | None = None):
    entries = manifest.entries if split is None else manifest.split(split)
    return [load_utterance(e, cfg, manifest) for e in entries]


def zscore_utterances(utts, stats: FeatureStats):
    """The utterances with their features z-scored by stats."""
    return [LabeledUtterance(u.key, apply_stats(u.features, stats), u.gold, u.phonemes)
            for u in utts]


def split_nonspeech(utt: LabeledUtterance, nonspeech=NONSPEECH_SYMBOLS,
                    min_run_ms: float = MIN_NONSPEECH_MS, max_lead_ms: float = MAX_LEAD_MS):
    """Cut an utterance at long non-speech runs and trim the piece edges.

    Interior non-speech runs of at least min_run_ms are removed (cut points);
    every resulting piece keeps at most max_lead_ms of adjacent non-speech on
    each side. Utterances without phoneme labels pass through unchanged.
    """
    if utt.phonemes is None:
        return [utt]
    shift = utt.features.frame_shift
    t_total = utt.features.n_frames
    min_run = max(1, int(round(min_run_ms / 1000.0 / shift)))
    keep = int(round(max_lead_ms / 1000.0 / shift))
    nonspeech = set(nonspeech)
    spans = utt.gold.spans()

    # maximal non-speech runs: consecutive non-speech segments merge
    runs = []
    for (s, e), sym in zip(spans, utt.phonemes):
        if sym not in nonspeech:
            continue
        if runs and runs[-1][1] == s:
            runs[-1] = (runs[-1][0], e)
        else:
            runs.append((s, e))

    # every edge run and every interior run of at least min_run frames is a
    # cut; the piece before it keeps a tail of it, the piece after a lead,
    # and the two never overlap even for runs shorter than twice the cap
    pieces = []
    pos = lead = 0  # where the next piece's speech starts, and its lead
    for a, b in runs:
        if a > 0 and b < t_total and b - a < min_run:
            continue
        tail = min(keep, b - a) if a > 0 else 0
        if pos < a:
            pieces.append((pos - lead, a + tail))
        pos, lead = b, (min(keep, b - a - tail) if b < t_total else 0)
    if pos < t_total:
        pieces.append((pos - lead, t_total))

    starts, ends = zip(*spans)
    out = []
    for n, (a, b) in enumerate(pieces):  # each reads only the segments it overlaps
        first = bisect.bisect_right(ends, a)  # the first segment ending after a
        last = bisect.bisect_left(starts, b, first)  # the first starting at or after b
        bounds = tuple(s - a for s in starts[first + 1:last])
        feats = FrameMatrix(utt.features.data[a:b].copy(), shift)
        key = utt.key if len(pieces) == 1 else f"{utt.key}#{n}"
        out.append(LabeledUtterance(key, feats, Segmentation(bounds, b - a),
                                    utt.phonemes[first:last]))
    return out


@dataclass
class SynthConfig:
    """Synthetic corpus: utterances concatenate class-specific tone textures."""

    n_utterances: int = 100
    segments_range: tuple = (2, 6)
    duration_range: tuple = (0.05, 0.15)  # seconds per segment
    n_classes: int = 4
    noise_level: float = 0.05
    seed: int = 0
    sample_rate: int = ModelConfig.sample_rate

    def __post_init__(self):
        lo, hi = self.segments_range
        if not (1 <= lo <= hi):
            raise ValueError("segments_range must satisfy 1 <= lo <= hi")
        dlo, dhi = self.duration_range
        if not (0 < dlo <= dhi):
            raise ValueError("duration_range must satisfy 0 < lo <= hi")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")


def _class_tones(cls: int, nyquist: float):
    """Two tones per class, spread across the band and distinct per class."""
    f1 = 260.0 + 420.0 * cls
    f2 = 1650.0 + 530.0 * cls
    return ((f1 % nyquist, 0.5), (f2 % nyquist, 0.35))


def synth_utterance(cfg: SynthConfig, rng: np.random.Generator):
    """One utterance: (Waveform, Annotation); adjacent segments always differ."""
    lo, hi = cfg.segments_range
    n_segments = int(rng.integers(lo, hi + 1))
    nyquist = cfg.sample_rate / 2.0
    segments = []
    chunks = []
    cursor = 0
    prev_cls = -1
    for _ in range(n_segments):
        if prev_cls < 0:
            cls = int(rng.integers(0, cfg.n_classes))
        else:
            r = int(rng.integers(0, cfg.n_classes - 1))
            cls = r + (1 if r >= prev_cls else 0)
        prev_cls = cls
        dur = rng.uniform(*cfg.duration_range)
        n = max(1, int(round(dur * cfg.sample_rate)))
        t = np.arange(n) / cfg.sample_rate
        x = np.zeros(n)
        for freq, amp in _class_tones(cls, nyquist):
            x += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
        x += cfg.noise_level * rng.standard_normal(n)
        chunks.append(0.5 * x)
        segments.append((cursor, cursor + n, f"c{cls}"))
        cursor += n
    wav = Waveform(np.clip(np.concatenate(chunks), -1.0, 1.0), cfg.sample_rate)
    return wav, Annotation(segments)


def synth_corpus(cfg: SynthConfig):
    """Deterministic in-memory corpus: list of (key, Waveform, Annotation)."""
    rng = np.random.default_rng(cfg.seed)
    width = max(4, len(str(cfg.n_utterances)))
    out = []
    for i in range(cfg.n_utterances):
        wav, ann = synth_utterance(cfg, rng)
        out.append((f"utt{i:0{width}d}", wav, ann))
    return out


def write_synth_corpus(items, out_dir, splits) -> Path:
    """Write WAV + .phn files plus a manifest; splits align with items."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for (key, wav, ann), split in zip(items, splits):
        wav_name = f"{key}.wav"
        ann_name = f"{key}.phn"
        write_wav(out_dir / wav_name, wav.samples, wav.sample_rate)
        write_phn(out_dir / ann_name, ann)
        rows.append((wav_name, ann_name, split))
    manifest_path = out_dir / "manifest.csv"
    write_manifest(manifest_path, rows)
    return manifest_path


def write_boundaries_csv(path, times):
    """One 'time_s' header line, then one boundary time (seconds) per line."""
    with open(path, "w", encoding="ascii") as f:
        f.write("time_s\n")
        for t in times:
            f.write(f"{float(t)!r}\n")


def read_boundaries_csv(path):
    """Boundary times (seconds) after a 'time_s' header line: finite and
    ascending, equal times allowed."""
    times = []
    try:
        with open(path, "r", encoding="ascii") as f:
            header = f.readline().strip()
            if header != "time_s":
                raise ValueError(f"expected 'time_s' header in {path}")
            for lineno, line in enumerate(f, 2):
                line = line.strip()
                if not line:
                    continue
                try:
                    t = float(line)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: boundary times must be numbers") from None
                if not math.isfinite(t):
                    raise ValueError(f"{path}:{lineno}: boundary times must be finite")
                if times and t < times[-1]:
                    raise ValueError(f"{path}:{lineno}: boundary times must be ascending")
                times.append(t)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    return times


def write_textgrid(path, times, total_duration: float):
    """Minimal Praat TextGrid with one interval tier split at the boundaries."""
    edges = [0.0] + [float(t) for t in times] + [float(total_duration)]
    lines = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        "xmin = 0",
        f"xmax = {float(total_duration)!r}",
        "tiers? <exists>",
        "size = 1",
        "item []:",
        "    item [1]:",
        '        class = "IntervalTier"',
        '        name = "segments"',
        "        xmin = 0",
        f"        xmax = {float(total_duration)!r}",
        f"        intervals: size = {len(edges) - 1}",
    ]
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:]), 1):
        lines += [
            f"        intervals [{i}]:",
            f"            xmin = {a!r}",
            f"            xmax = {b!r}",
            '            text = ""',
        ]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def split_train_val(items, val_fraction: float = VAL_FRACTION, seed: int = VAL_SEED):
    """Seeded shuffle then partition; disjoint and union-preserving."""
    if not items:
        raise ValueError("cannot split an empty set")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    n_val = int(len(items) * val_fraction)
    if n_val == 0 and val_fraction > 0:
        warnings.warn("validation split is empty at this corpus size", stacklevel=2)
    val_idx = set(order[:n_val].tolist())
    train = [x for i, x in enumerate(items) if i not in val_idx]
    val = [x for i, x in enumerate(items) if i in val_idx]
    return train, val
