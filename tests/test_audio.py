import struct
import wave

import numpy as np
import pytest

from segfeat.audio import MalformedWavError, UnsupportedCodecError, Waveform, read_wav, write_wav

from conftest import write_cut_wav


def test_one_second_mono(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(path, np.linspace(-0.5, 0.5, 16000), 16000)
    w = read_wav(path)
    assert w.samples.size == 16000
    assert w.sample_rate == 16000
    assert w.duration == pytest.approx(1.0)


def test_all_zero_pcm(tmp_path):
    path = tmp_path / "z.wav"
    write_wav(path, np.zeros(400), 8000)
    w = read_wav(path)
    assert np.all(w.samples == 0.0)


def test_stereo_opposite_channels_average_to_zero(tmp_path):
    path = tmp_path / "s.wav"
    c = (np.sin(np.linspace(0, 20, 500)) * 12000).astype("<i2")
    interleaved = np.empty(2 * c.size, dtype="<i2")
    interleaved[0::2] = c
    interleaved[1::2] = -c
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(interleaved.tobytes())
    w = read_wav(path)
    assert w.samples.size == 500
    assert np.all(w.samples == 0.0)


def test_scaling_is_by_32768(tmp_path):
    path = tmp_path / "m.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(np.array([-32768, 16384, 32767], dtype="<i2").tobytes())
    w = read_wav(path)
    assert w.samples[0] == -1.0
    assert w.samples[1] == 0.5
    assert w.samples[2] == 32767 / 32768


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        read_wav("/nonexistent/nowhere.wav")


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not a riff container at all")
    with pytest.raises(MalformedWavError):
        read_wav(path)


def _mulaw_wav_bytes():
    # minimal RIFF/WAVE with fmt tag 7 (mu-law), which is not PCM
    data = bytes(range(64))
    fmt = struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8)
    chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(chunks)) + chunks


def test_non_pcm_codec(tmp_path):
    path = tmp_path / "ulaw.wav"
    path.write_bytes(_mulaw_wav_bytes())
    with pytest.raises(UnsupportedCodecError):
        read_wav(path)


def test_non_16bit_pcm_rejected(tmp_path):
    path = tmp_path / "pcm8.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(8000)
        wf.writeframes(bytes(100))
    with pytest.raises(UnsupportedCodecError):
        read_wav(path)


def test_empty_wav_is_malformed(tmp_path):
    path = tmp_path / "empty.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(8000)
        wf.writeframes(b"")
    with pytest.raises(MalformedWavError):
        read_wav(path)


@pytest.mark.parametrize("n_channels, data_bytes", [(1, 1), (2, 6)])
def test_data_chunk_cut_inside_a_frame_is_malformed(tmp_path, n_channels, data_bytes):
    path = tmp_path / "cut.wav"
    write_cut_wav(path, n_channels, data_bytes)
    with pytest.raises(MalformedWavError, match="truncated"):
        read_wav(path)


def test_data_chunk_cut_at_a_frame_boundary_reads_the_whole_frames(tmp_path):
    path = tmp_path / "cut.wav"
    write_cut_wav(path, 2, 8)
    assert read_wav(path).samples.size == 2


def test_waveform_invariants():
    with pytest.raises(ValueError):
        Waveform(np.array([]), 16000)
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValueError):
        Waveform(np.array([0.0]), 0)


# ----- every error names the file --------------------------------------------

def _fmt_size(blob, size):
    """The PCM-16 header with its `fmt ` chunk's size field (bytes 16-19) set."""
    return blob[:16] + struct.pack("<I", size) + blob[20:]


def _chunk_before_data(blob, size):
    """An unknown 4-byte chunk that states `size` bytes, before the data chunk."""
    at = blob.index(b"data")
    return blob[:at] + b"LIST" + struct.pack("<I", size) + b"abcd" + blob[at:]


def _edited_wav(tmp_path, edit):
    path = tmp_path / "edited.wav"
    write_wav(path, np.zeros(160), 16000)
    path.write_bytes(edit(path.read_bytes()))
    return path


PAST_THE_END = [lambda b: _fmt_size(b, 2**31), lambda b: _chunk_before_data(b, 10**6)]


@pytest.mark.parametrize("edit", PAST_THE_END, ids=["fmt-size-2^31", "chunk-past-eof"])
def test_a_chunk_size_past_the_end_of_the_file_is_malformed(tmp_path, edit):
    """wave's chunk reader raised a bare RuntimeError here."""
    path = _edited_wav(tmp_path, edit)
    with pytest.raises(MalformedWavError, match="past the end") as info:
        read_wav(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("edit, error", [
    (lambda b: b"this is not a riff container at all", MalformedWavError),
    (lambda b: _mulaw_wav_bytes(), UnsupportedCodecError),
    (lambda b: b[:34] + struct.pack("<H", 8) + b[36:], UnsupportedCodecError),
    (lambda b: b[:40] + struct.pack("<I", 0) + b[44:44], MalformedWavError),
    (lambda b: b[:45], MalformedWavError),
    (lambda b: b[:24] + struct.pack("<I", 0) + b[28:], MalformedWavError),
    (lambda b: b[:20], MalformedWavError),
] + [(edit, MalformedWavError) for edit in PAST_THE_END],
    ids=["not-riff", "mu-law", "8-bit", "no-samples", "cut-in-a-frame", "zero-rate",
         "cut-in-header", "fmt-size-2^31", "chunk-past-eof"])
def test_every_read_wav_error_names_the_file(tmp_path, edit, error):
    path = _edited_wav(tmp_path, edit)
    with pytest.raises(error) as info:
        read_wav(path)
    assert str(path) in str(info.value)
