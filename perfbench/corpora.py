"""Seeded synthetic inputs for the benchmark workloads.

The generator lives here, not in the package, so that a change to
`segfeat.data.synth_corpus` cannot change what the benchmark feeds the
program. It follows the same recipe: each segment is two class-specific
tones plus white noise, and adjacent segments always differ in class.
Everything is written as 16-bit PCM WAV files with TIMIT-style `.phn`
annotations (sample offsets) and a `wav,phn,split` manifest.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
N_CLASSES = 4
NOISE_LEVEL = 0.05
SEGMENT_SECONDS = (0.05, 0.15)


@dataclass(frozen=True)
class Recording:
    key: str
    wav_path: Path
    seconds: float
    boundaries: tuple  # interior boundary times in seconds


def _tones(cls: int):
    nyquist = SAMPLE_RATE / 2.0
    return (((260.0 + 420.0 * cls) % nyquist, 0.5), ((1650.0 + 530.0 * cls) % nyquist, 0.35))


def _render(rng: np.random.Generator, lengths):
    """Samples and (start, end, symbol) segments for the given segment lengths."""
    chunks, segments = [], []
    cursor, prev = 0, -1
    for n in lengths:
        if prev < 0:
            cls = int(rng.integers(0, N_CLASSES))
        else:
            r = int(rng.integers(0, N_CLASSES - 1))
            cls = r + (1 if r >= prev else 0)
        prev = cls
        t = np.arange(n) / SAMPLE_RATE
        x = np.zeros(n)
        for freq, amp in _tones(cls):
            x += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
        x += NOISE_LEVEL * rng.standard_normal(n)
        chunks.append(0.5 * x)
        segments.append((cursor, cursor + n, f"c{cls}"))
        cursor += n
    return np.clip(np.concatenate(chunks), -1.0, 1.0), segments


def _desk_lengths(rng, n_utterances):
    """A5 shape: 2-6 segments of 50-150 ms per utterance, with one common scale
    so the split always holds 0.4 s of audio per utterance (its A5 mean)."""
    counts = rng.integers(2, 7, size=n_utterances)
    raw = [rng.uniform(*SEGMENT_SECONDS, size=int(c)) for c in counts]
    scale = 0.4 * SAMPLE_RATE * n_utterances / sum(float(r.sum()) for r in raw)
    return [[max(1, int(round(d * scale))) for d in r] for r in raw]


def _fixed_total_lengths(rng, n_segments, total_samples):
    """n segments whose lengths are drawn like A5 and rescaled to sum exactly."""
    raw = rng.uniform(*SEGMENT_SECONDS, size=n_segments)
    lengths = np.floor(raw / raw.sum() * total_samples).astype(int)
    lengths[-1] += total_samples - int(lengths.sum())
    return [int(n) for n in lengths]


def _filled_lengths(rng, total_samples):
    """A5-length segments drawn until the total is reached; the last is cut."""
    lengths = []
    used = 0
    min_len = int(SEGMENT_SECONDS[0] * SAMPLE_RATE)
    while used < total_samples:
        n = int(round(rng.uniform(*SEGMENT_SECONDS) * SAMPLE_RATE))
        n = min(n, total_samples - used)
        if n < min_len and lengths:  # fold a short tail into its neighbour
            lengths[-1] += n
        else:
            lengths.append(n)
        used += n
    return lengths


def write_wav(path, samples):
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


def wav_seconds(path) -> float:
    with wave.open(str(path), "rb") as wf:
        return wf.getnframes() / wf.getframerate()


def _write_item(out_dir: Path, key, samples, segments):
    write_wav(out_dir / f"{key}.wav", samples)
    with open(out_dir / f"{key}.phn", "w", encoding="ascii") as f:
        for start, end, sym in segments:
            f.write(f"{start} {end} {sym}\n")
    return f"{key}.wav", f"{key}.phn"


def _write_manifest(out_dir: Path, rows) -> Path:
    path = out_dir / "manifest.csv"
    with open(path, "w", encoding="ascii") as f:
        for row in rows:
            f.write(",".join(row) + "\n")
    return path


def write_corpus(out_dir, seed: int, n_train: int, n_val: int, shape: str) -> Path:
    """Write a train/val corpus and return its manifest path.

    shape "desk": A5 utterances, 2-6 segments of 50-150 ms (T about 39); each
    split is rescaled to a fixed total so the seed does not change its size.
    shape "timit": exactly 3 s utterances of 24-36 segments (T = 300).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if shape == "desk":
        lengths = _desk_lengths(rng, n_train) + _desk_lengths(rng, n_val)
    elif shape == "timit":
        lengths = [_fixed_total_lengths(rng, int(rng.integers(24, 37)), 3 * SAMPLE_RATE)
                   for _ in range(n_train + n_val)]
    else:
        raise ValueError(f"unknown corpus shape {shape!r}")
    rows = []
    for i, utt_lengths in enumerate(lengths):
        samples, segments = _render(rng, utt_lengths)
        wav, phn = _write_item(out_dir, f"utt{i:04d}", samples, segments)
        rows.append((wav, phn, "train" if i < n_train else "val"))
    return _write_manifest(out_dir, rows)


def write_recordings(out_dir, seed: int, count: int, seconds: float):
    """Long recordings of exactly `seconds` each, with reference boundaries."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    total = int(round(seconds * SAMPLE_RATE))
    out = []
    for i in range(count):
        samples, segments = _render(rng, _filled_lengths(rng, total))
        key = f"rec{i:03d}"
        write_wav(out_dir / f"{key}.wav", samples)
        bounds = tuple(start / SAMPLE_RATE for start, _, _ in segments[1:])
        out.append(Recording(key, out_dir / f"{key}.wav", total / SAMPLE_RATE, bounds))
    return out
