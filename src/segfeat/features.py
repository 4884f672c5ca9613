"""Acoustic front end: MFCCs, delta features, and spectral-change distances.

The default configuration yields 43 columns per 10 ms frame: 13 MFCCs,
their deltas and delta-deltas, plus the Euclidean distances between the
39-dim rows at t-j and t+j for j in {1,2,3,4}.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .audio import Waveform

PREEMPHASIS = 0.97
LOG_FLOOR = 1e-10
STD_FLOOR = 1e-8


@dataclass
class FeatureConfig:
    frame_shift: float = 0.010
    window_length: float = 0.010
    n_mfcc: int = 13
    n_mel_filters: int = 26
    n_fft: int | None = None  # default: smallest power of two >= window samples
    delta_window: int = 2
    spectral_js: tuple = (1, 2, 3, 4)
    normalize: bool = True

    def __post_init__(self):
        # written so that NaN fails each check
        if not (0 < self.frame_shift < math.inf and 0 < self.window_length < math.inf):
            raise ValueError("frame_shift and window_length must be positive and finite")
        if self.n_mfcc < 1:
            raise ValueError("n_mfcc must be >= 1")
        if self.n_mfcc > self.n_mel_filters:
            raise ValueError("n_mfcc cannot exceed n_mel_filters")
        if self.n_fft is not None and self.n_fft < 1:
            raise ValueError("n_fft must be >= 1")
        js = tuple(int(j) for j in self.spectral_js)
        if any(j <= 0 for j in js) or any(b <= a for a, b in zip(js, js[1:])):
            raise ValueError("spectral_js must be strictly increasing and positive")
        self.spectral_js = js
        if self.delta_window < 1:
            raise ValueError("delta_window must be >= 1")

    def window_samples(self, rate: int) -> int:
        return int(round(self.window_length * rate))

    def shift_samples(self, rate: int) -> int:
        return int(round(self.frame_shift * rate))

    def check_rate(self, rate: int):
        """Raise ValueError unless the shift and the window each round to at
        least one sample at this rate."""
        if self.shift_samples(rate) < 1 or self.window_samples(rate) < 1:
            raise ValueError(f"frame_shift and window_length must each be at least one "
                             f"sample at {rate} Hz, got {self.frame_shift} and "
                             f"{self.window_length} s")

    def fft_size(self, rate: int) -> int:
        if self.n_fft is not None:
            return int(self.n_fft)
        n = 1
        while n < self.window_samples(rate):
            n *= 2
        return n

    @property
    def feature_dim(self) -> int:
        return 3 * self.n_mfcc + len(self.spectral_js)


@dataclass
class FrameMatrix:
    """T x D per-frame features at a fixed frame shift."""

    data: np.ndarray
    frame_shift: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 1:
            raise ValueError("feature matrix must be 2-D with at least one frame")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature matrix contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters, linear in Hz with mel-spaced breakpoints, 0..Nyquist.

    Returns n_filters x (n_fft//2 + 1) weights evaluated at the FFT bin
    centers, so narrow filters stay well-formed even for small FFT sizes.
    """
    nyquist = sample_rate / 2.0
    mel_points = np.linspace(0.0, float(hz_to_mel(nyquist)), n_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    fb = np.zeros((n_filters, bin_freqs.size))
    for m in range(n_filters):
        lo, peak, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - lo) / (peak - lo)
        down = (hi - bin_freqs) / (hi - peak)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def filter_peak_freqs(n_filters: int, sample_rate: int) -> np.ndarray:
    """Peak frequency (Hz) of each mel filter in the 0..Nyquist bank."""
    mel_points = np.linspace(0.0, float(hz_to_mel(sample_rate / 2.0)), n_filters + 2)
    return mel_to_hz(mel_points[1:-1])


def frame_count(n_samples: int, window: int, shift: int) -> int:
    if n_samples < window:
        raise ValueError("signal shorter than one analysis window")
    return (n_samples - window) // shift + 1


def mel_energies(w: Waveform, cfg: FeatureConfig) -> np.ndarray:
    """Per-frame mel filterbank energies (before the log and DCT)."""
    win = cfg.window_samples(w.sample_rate)
    shift = cfg.shift_samples(w.sample_rate)
    n_fft = cfg.fft_size(w.sample_rate)
    n_frames = frame_count(w.samples.size, win, shift)

    # pre-emphasis with a replicated first sample keeps constant signals
    # constant (time invariance of the frames)
    emphasized = np.empty_like(w.samples)
    emphasized[0] = w.samples[0] - PREEMPHASIS * w.samples[0]
    emphasized[1:] = w.samples[1:] - PREEMPHASIS * w.samples[:-1]

    idx = shift * np.arange(n_frames)[:, None] + np.arange(win)[None, :]
    frames = emphasized[idx] * np.hamming(win)
    spectrum = np.abs(np.fft.rfft(frames, n_fft, axis=1))
    fb = mel_filterbank(cfg.n_mel_filters, n_fft, w.sample_rate)
    return spectrum @ fb.T


def compute_mfcc(w: Waveform, cfg: FeatureConfig) -> FrameMatrix:
    """13 (by default) cepstral coefficients per frame, including coefficient 0."""
    energies = np.maximum(mel_energies(w, cfg), LOG_FLOOR)
    ceps = dct(np.log(energies), type=2, norm="ortho", axis=1)[:, :cfg.n_mfcc]
    # frames step a whole number of samples, which at some rates is not cfg.frame_shift
    return FrameMatrix(ceps, cfg.shift_samples(w.sample_rate) / w.sample_rate)


def _delta(x: np.ndarray, n_window: int) -> np.ndarray:
    """Regression slope over a +/- n_window frame neighborhood, edge-replicated."""
    t = x.shape[0]
    padded = np.pad(x, ((n_window, n_window), (0, 0)), mode="edge")
    num = np.zeros_like(x)
    for n in range(1, n_window + 1):
        num += n * (padded[n_window + n:n_window + n + t]
                    - padded[n_window - n:n_window - n + t])
    denom = 2.0 * sum(n * n for n in range(1, n_window + 1))
    return num / denom


def append_deltas(m: FrameMatrix, delta_window: int = 2) -> FrameMatrix:
    """Append delta and delta-delta columns: [static | d | dd]."""
    d = _delta(m.data, delta_window)
    dd = _delta(d, delta_window)
    return FrameMatrix(np.hstack([m.data, d, dd]), m.frame_shift)


def spectral_change_features(m: FrameMatrix, js=(1, 2, 3, 4)) -> FrameMatrix:
    """Euclidean distance between the rows at t-j and t+j, edge-replicated."""
    js = tuple(int(j) for j in js)
    jmax = max(js)
    padded = np.pad(m.data, ((jmax, jmax), (0, 0)), mode="edge")
    t = m.n_frames
    cols = []
    for j in js:
        diff = padded[jmax - j:jmax - j + t] - padded[jmax + j:jmax + j + t]
        cols.append(np.sqrt(np.sum(diff * diff, axis=1)))
    return FrameMatrix(np.column_stack(cols), m.frame_shift)


@dataclass
class FeatureStats:
    """Per-column corpus mean and standard deviation for z-scoring."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-D and the same length")


def corpus_stats(matrices) -> FeatureStats:
    stacked = np.vstack([m.data for m in matrices])
    return FeatureStats(stacked.mean(axis=0), stacked.std(axis=0))


def apply_stats(m: FrameMatrix, stats: FeatureStats) -> FrameMatrix:
    if stats.mean.size != m.dim:
        raise ValueError(f"stats dimension {stats.mean.size} != feature dimension {m.dim}")
    scaled = (m.data - stats.mean) / np.maximum(stats.std, STD_FLOOR)
    return FrameMatrix(scaled, m.frame_shift)


def assemble_features(w: Waveform, cfg: FeatureConfig,
                      stats: FeatureStats | None = None) -> FrameMatrix:
    """Full per-frame representation: [mfcc | delta | delta2 | spectral-change]."""
    mfcc = compute_mfcc(w, cfg)
    with_deltas = append_deltas(mfcc, cfg.delta_window)
    dists = spectral_change_features(with_deltas, cfg.spectral_js)
    out = FrameMatrix(np.hstack([with_deltas.data, dists.data]), mfcc.frame_shift)
    if cfg.normalize and stats is not None:
        out = apply_stats(out, stats)
    return out


# ----- feature dumps --------------------------------------------------------

def _rewrite(path, data: bytes):
    """Make `data` the whole content of the file at path, creating it if
    missing. The file is opened without O_TRUNC and cut to the new length
    after the write: on ext4 with auto_da_alloc, cutting an allocated file to
    zero (open(path, "w"), or a rename or unlink over it) can stall its
    close by tens of milliseconds. As before, the write is not atomic: a
    reader may see a mix of the old and the new bytes."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        f.truncate()


def write_features_bin(path, m: FrameMatrix):
    """Binary dump: ASCII header 'T D frame_shift', then row-major <f4 data."""
    _rewrite(path, f"{m.n_frames} {m.dim} {float(m.frame_shift)!r}\n".encode("ascii")
             + np.ascontiguousarray(m.data, dtype="<f4").tobytes())


def read_features_bin(path) -> FrameMatrix:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii").split()
        if len(header) != 3:
            raise ValueError(f"bad feature file header in {path}")
        t, d, shift = int(header[0]), int(header[1]), float(header[2])
        data = np.frombuffer(f.read(4 * t * d), dtype="<f4").astype(np.float64)
    if data.size != t * d:
        raise ValueError(f"truncated feature file: {path}")
    return FrameMatrix(data.reshape(t, d), shift)


def write_features_csv(path, m: FrameMatrix):
    _rewrite(path, "".join(",".join(repr(float(v)) for v in row) + "\n"
                           for row in m.data).encode("ascii"))


def write_stats(path, stats: FeatureStats):
    lines = ["mean,std"] + [f"{float(mu)!r},{float(sd)!r}"
                            for mu, sd in zip(stats.mean, stats.std)]
    _rewrite(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_stats(path) -> FeatureStats:
    means, stds = [], []
    with open(path, "r", encoding="ascii") as f:
        header = f.readline()
        if header.strip() != "mean,std":
            raise ValueError(f"bad stats file header in {path}")
        for line in f:
            a, b = line.strip().split(",")
            means.append(float(a))
            stds.append(float(b))
    return FeatureStats(np.array(means), np.array(stds))
