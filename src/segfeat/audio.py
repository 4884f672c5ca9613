"""Reading and writing RIFF/WAVE PCM-16 files."""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np


class MalformedWavError(Exception):
    """The file is not a readable RIFF/WAVE container."""


class UnsupportedCodecError(Exception):
    """The file is a WAVE container but not 16-bit PCM."""


@dataclass
class Waveform:
    """Mono audio with samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise ValueError("waveform must be non-empty")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def read_wav(path) -> Waveform:
    """Read a PCM-16 WAV file; multi-channel input is averaged to mono."""
    try:
        with wave.open(str(path), "rb") as wf:
            comptype = wf.getcomptype()
            if comptype != "NONE":
                raise UnsupportedCodecError(f"compressed WAV not supported: {comptype}")
            sampwidth = wf.getsampwidth()
            if sampwidth != 2:
                raise UnsupportedCodecError(f"only 16-bit PCM supported, got {8 * sampwidth}-bit")
            n_channels = wf.getnchannels()
            rate = wf.getframerate()
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    except wave.Error as exc:
        msg = str(exc)
        if "unknown format" in msg or "compression" in msg.lower():
            raise UnsupportedCodecError(msg) from exc
        raise MalformedWavError(msg) from exc
    except EOFError as exc:
        raise MalformedWavError("truncated WAV file") from exc

    if n_frames == 0 or not raw:
        raise MalformedWavError("WAV file contains no samples")
    if len(raw) % (2 * n_channels):  # the data chunk ends inside a frame
        raise MalformedWavError("truncated WAV file")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_channels > 1:
        data = data.reshape(-1, n_channels).mean(axis=1)
    return Waveform(samples=data, sample_rate=rate)


def write_wav(path, samples: np.ndarray, sample_rate: int):
    """Write mono float samples in [-1, 1] as PCM-16."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(sample_rate))
        wf.writeframes(pcm.tobytes())
