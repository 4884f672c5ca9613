import numpy as np
import pytest

from segfeat.audio import Waveform
from segfeat.features import (FeatureConfig, FeatureStats, FrameMatrix, append_deltas,
                              apply_stats, assemble_features, compute_mfcc, corpus_stats,
                              filter_peak_freqs, mel_energies, read_features_bin,
                              read_stats, spectral_change_features, write_features_bin,
                              write_features_csv, write_stats)

RATE = 16000


def tone(freq, seconds=1.0, rate=RATE, amp=0.8):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(amp * np.sin(2 * np.pi * freq * t), rate)


@pytest.mark.parametrize("rate,shift_samples", [(16000, 160), (22050, 220), (11025, 110)])
def test_frame_shift_is_the_whole_sample_step(rate, shift_samples):
    """Frames step cfg.shift_samples(rate) samples, so the matrix's shift is
    that step in seconds: 0.010 at 16 kHz, 220 / 22050 at 22050 Hz."""
    w = tone(440, 0.5, rate)
    cfg = FeatureConfig()
    assert compute_mfcc(w, cfg).frame_shift == shift_samples / rate
    assert assemble_features(w, cfg).frame_shift == shift_samples / rate


def test_config_invariants():
    with pytest.raises(ValueError):
        FeatureConfig(frame_shift=0.0)
    with pytest.raises(ValueError):
        FeatureConfig(n_mfcc=30, n_mel_filters=26)
    with pytest.raises(ValueError):
        FeatureConfig(spectral_js=(2, 2))
    with pytest.raises(ValueError):
        FeatureConfig(spectral_js=(0, 1))
    assert FeatureConfig().feature_dim == 43


def test_frame_count_one_second_default():
    m = compute_mfcc(tone(440), FeatureConfig())
    assert m.n_frames == (16000 - 160) // 160 + 1 == 100
    assert m.dim == 13


def test_frame_count_formula_random_triples():
    rng = np.random.default_rng(0)
    for _ in range(50):
        win = int(rng.integers(32, 400))
        shift = int(rng.integers(16, 320))
        n = int(rng.integers(win, 20000))
        w = Waveform(rng.uniform(-0.5, 0.5, n), RATE)
        cfg = FeatureConfig(frame_shift=shift / RATE, window_length=win / RATE)
        assert compute_mfcc(w, cfg).n_frames == (n - win) // shift + 1


def test_too_short_waveform():
    with pytest.raises(ValueError):
        compute_mfcc(Waveform(np.zeros(100), RATE), FeatureConfig())


def test_constant_signal_rows_identical():
    m = compute_mfcc(Waveform(np.full(4000, 0.25), RATE), FeatureConfig())
    assert np.allclose(m.data, m.data[0])


def test_mel_peak_at_one_kilohertz():
    cfg = FeatureConfig()
    energies = mel_energies(tone(1000.0), cfg)
    peaks = filter_peak_freqs(cfg.n_mel_filters, RATE)
    nearest = int(np.argmin(np.abs(peaks - 1000.0)))
    assert np.all(np.argmax(energies, axis=1) == nearest)


def test_outputs_finite_even_for_silence():
    cfg = FeatureConfig()
    out = assemble_features(Waveform(np.zeros(4000), RATE), cfg)
    assert np.all(np.isfinite(out.data))


def test_delta_of_constant_is_zero():
    m = FrameMatrix(np.full((12, 3), 1.5), 0.01)
    d = append_deltas(m, 2)
    assert np.allclose(d.data[:, 3:], 0.0)


def test_delta_slope_of_ramp():
    m = FrameMatrix(np.arange(10, dtype=float)[:, None], 0.01)
    d = append_deltas(m, 2)
    # interior: (1*2 + 2*4) / (2*(1+4)) = 1
    assert np.allclose(d.data[2:-2, 1], 1.0)
    # delta-delta of a linear ramp vanishes on interior frames
    assert np.allclose(d.data[4:-4, 2], 0.0)


def test_delta_single_frame():
    m = FrameMatrix(np.array([[2.0, -1.0]]), 0.01)
    d = append_deltas(m, 2)
    assert d.data.shape == (1, 6)
    assert np.allclose(d.data[0, 2:], 0.0)
    assert np.allclose(d.data[0, :2], [2.0, -1.0])


def test_spectral_change_constant_zero():
    m = FrameMatrix(np.tile([1.0, 2.0, 3.0], (9, 1)), 0.01)
    s = spectral_change_features(m)
    assert s.data.shape == (9, 4)
    assert np.allclose(s.data, 0.0)


def test_spectral_change_alternating_rows():
    # t-j and t+j always share parity, so a period-2 pattern yields zero
    # distances at every interior frame, for every offset
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 2.0])
    rows = np.array([a, b, a, b, a, b, a, b])
    s = spectral_change_features(FrameMatrix(rows, 0.01), (1, 2))
    assert np.allclose(s.data[1:-1, 0], 0.0)
    assert np.allclose(s.data[2:-2, 1], 0.0)
    # edge replication breaks the parity at the first and last frames
    assert s.data[0, 0] == pytest.approx(np.linalg.norm(a - b))


def test_spectral_change_linear_ramp():
    # rows t*v: distance at offset j is exactly 2j*|v| away from the edges
    v = np.array([0.6, -0.8])  # unit norm
    rows = np.arange(12, dtype=float)[:, None] * v
    s = spectral_change_features(FrameMatrix(rows, 0.01), (1, 2, 3))
    for col, j in enumerate((1, 2, 3)):
        assert np.allclose(s.data[j:-j, col], 2.0 * j)


def test_spectral_change_nonnegative_and_reversal():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 6))
    s = spectral_change_features(FrameMatrix(x, 0.01), (1, 2, 3))
    assert np.all(s.data >= 0.0)
    rev = spectral_change_features(FrameMatrix(x[::-1].copy(), 0.01), (1, 2, 3))
    assert np.allclose(s.data[3:-3], rev.data[::-1][3:-3])


def test_assemble_shape_and_roles():
    out = assemble_features(tone(440), FeatureConfig())
    assert out.data.shape == (100, 43)
    # the column layout is [mfcc | delta | delta2 | spectral-change], on a
    # signal whose cepstra change from frame to frame
    cfg = FeatureConfig()
    w = Waveform(0.1 * np.random.default_rng(6).normal(size=RATE), RATE)
    out = assemble_features(w, cfg)
    mfcc = compute_mfcc(w, cfg)
    delta = append_deltas(mfcc, cfg.delta_window).data[:, 13:26]
    delta2 = append_deltas(FrameMatrix(delta, cfg.frame_shift), cfg.delta_window).data[:, 13:26]
    change = spectral_change_features(FrameMatrix(out.data[:, :39], cfg.frame_shift),
                                      cfg.spectral_js)
    assert np.array_equal(out.data[:, :13], mfcc.data)
    assert np.array_equal(out.data[:, 13:26], delta)
    assert np.array_equal(out.data[:, 26:39], delta2)
    assert np.array_equal(out.data[:, 39:], change.data)
    assert np.abs(delta).max() > 0.1 and np.abs(delta2).max() > 0.1


def test_assemble_self_normalization():
    out = assemble_features(tone(440), FeatureConfig())
    stats = corpus_stats([out])
    z = apply_stats(out, stats)
    assert np.abs(z.data.mean(axis=0)).max() < 1e-9
    assert np.abs(z.data.std(axis=0) - 1.0).max() < 1e-6


def test_assemble_normalize_false_is_identity():
    w = tone(300)
    cfg = FeatureConfig(normalize=False)
    stats = FeatureStats(np.zeros(43) + 5.0, np.ones(43) * 2.0)
    assert np.array_equal(assemble_features(w, cfg, stats).data,
                          assemble_features(w, cfg).data)


def test_assemble_deterministic():
    w = tone(700)
    cfg = FeatureConfig()
    a = assemble_features(w, cfg)
    b = assemble_features(w, cfg)
    assert np.array_equal(a.data, b.data)


def test_feature_dump_roundtrip(tmp_path):
    out = assemble_features(tone(440, seconds=0.1), FeatureConfig())
    path = tmp_path / "f.bin"
    write_features_bin(path, out)
    back = read_features_bin(path)
    assert back.n_frames == out.n_frames
    assert back.dim == out.dim
    assert back.frame_shift == out.frame_shift
    assert np.array_equal(back.data, out.data.astype("<f4").astype(np.float64))
    write_features_csv(tmp_path / "f.csv", out)
    lines = (tmp_path / "f.csv").read_text().strip().split("\n")
    assert len(lines) == out.n_frames
    assert len(lines[0].split(",")) == 43


def test_stats_roundtrip(tmp_path):
    stats = FeatureStats(np.linspace(-1, 1, 43), np.linspace(0.5, 2, 43))
    path = tmp_path / "stats.csv"
    write_stats(path, stats)
    back = read_stats(path)
    assert np.array_equal(back.mean, stats.mean)
    assert np.array_equal(back.std, stats.std)
