import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segfeat.audio import write_wav
from segfeat.data import (Annotation, LabeledUtterance, ManifestEntry,
                          SynthConfig, boundaries_from_annotation, load_corpus,
                          load_utterance, read_ann_csv, read_boundaries_csv, read_manifest,
                          read_phn, split_nonspeech, split_train_val, synth_corpus,
                          write_boundaries_csv, write_manifest, write_phn,
                          write_synth_corpus, write_textgrid)
from segfeat.features import FeatureConfig, FrameMatrix
from segfeat.model import Segmentation

from reference_split import reference_split_nonspeech


def test_annotation_invariants():
    Annotation([(0, 100, "a"), (100, 250, "b")])
    with pytest.raises(ValueError):
        Annotation([])
    with pytest.raises(ValueError):
        Annotation([(0, 100, "a"), (90, 250, "b")])  # overlap
    with pytest.raises(ValueError):
        Annotation([(0, 100, "a"), (120, 250, "b")])  # gap
    with pytest.raises(ValueError):
        Annotation([(0, 0, "a")])  # empty segment


def test_phn_roundtrip(tmp_path):
    ann = Annotation([(0, 1600, "sil"), (1600, 3200, "b"), (3200, 4000, "ae")])
    path = tmp_path / "a.phn"
    write_phn(path, ann)
    back = read_phn(path)
    assert back.segments == ann.segments


def test_ann_csv_seconds(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0.0,0.1,sil\n0.1,0.2,b\n")
    ann = read_ann_csv(path, 16000)
    assert ann.segments == [(0, 1600, "sil"), (1600, 3200, "b")]


def test_boundary_conversion_examples():
    ann = Annotation([(0, 1600, "sil"), (1600, 3200, "b")])
    bounds, syms = boundaries_from_annotation(ann, 160, 20)
    assert bounds == (10,)
    assert syms == ("sil", "b")
    # single segment: no boundaries
    one = Annotation([(0, 3200, "x")])
    bounds, syms = boundaries_from_annotation(one, 160, 20)
    assert bounds == ()
    assert syms == ("x",)


def test_boundary_rounding_half_up():
    # 1680 / 160 = 10.5 rounds up to frame 11
    ann = Annotation([(0, 1680, "a"), (1680, 3200, "b")])
    bounds, _ = boundaries_from_annotation(ann, 160, 20)
    assert bounds == (11,)


def test_boundary_collapse_merges_segments():
    # middle segment shorter than half a frame collapses away
    ann = Annotation([(0, 800, "a"), (800, 830, "b"), (830, 1600, "c")])
    bounds, syms = boundaries_from_annotation(ann, 160, 10)
    assert bounds == (5,)
    assert syms == ("a", "c")


def _write_corpus_entry(tmp_path, key, wav_samples, segments, rate=16000):
    write_wav(tmp_path / f"{key}.wav", wav_samples, rate)
    write_phn(tmp_path / f"{key}.phn", Annotation(segments))
    return (f"{key}.wav", f"{key}.phn", "train")


def test_load_corpus_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    rows = [
        _write_corpus_entry(tmp_path, "u0", rng.uniform(-0.3, 0.3, 4800),
                            [(0, 1600, "a"), (1600, 3200, "b"), (3200, 4800, "a")]),
        _write_corpus_entry(tmp_path, "u1", rng.uniform(-0.3, 0.3, 3200),
                            [(0, 3200, "c")]),
    ]
    write_manifest(tmp_path / "manifest.csv", rows)
    manifest = read_manifest(tmp_path / "manifest.csv", 16000)
    utts = load_corpus(manifest, FeatureConfig())
    assert [u.key for u in utts] == ["u0", "u1"]
    assert utts[0].gold.boundaries == (10, 20)
    assert utts[0].phonemes == ("a", "b", "a")
    assert utts[1].gold.boundaries == ()
    assert utts[0].features.dim == 43


def test_load_corpus_rate_mismatch(tmp_path):
    rows = [_write_corpus_entry(tmp_path, "u0", np.zeros(3200) + 0.1,
                                [(0, 3200, "a")], rate=8000)]
    write_manifest(tmp_path / "m.csv", rows)
    manifest = read_manifest(tmp_path / "m.csv", 16000)
    with pytest.raises(ValueError, match="sample rate"):
        load_corpus(manifest, FeatureConfig())


def test_load_corpus_missing_wav(tmp_path):
    write_manifest(tmp_path / "m.csv", [("ghost.wav", "ghost.phn", "train")])
    manifest = read_manifest(tmp_path / "m.csv", 16000)
    with pytest.raises(FileNotFoundError):
        load_corpus(manifest, FeatureConfig())


def test_manifest_validation(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(ValueError):
        read_manifest(tmp_path / "empty.csv", 16000)
    with pytest.raises(ValueError):
        ManifestEntry("a.wav", "a.phn", "validation")


def _utt(frames, bounds, phonemes, shift=0.01):
    data = np.arange(frames, dtype=float)[:, None] * np.ones((1, 3))
    return LabeledUtterance("u", FrameMatrix(data, shift),
                            Segmentation(bounds, frames), phonemes)


def test_split_nonspeech_passthrough():
    utt = _utt(30, (10, 20), ("a", "b", "c"))
    pieces = split_nonspeech(utt)
    assert len(pieces) == 1
    assert pieces[0].gold.boundaries == (10, 20)
    assert pieces[0].key == "u"
    assert np.array_equal(pieces[0].features.data, utt.features.data)


def test_split_nonspeech_long_silence():
    # speech(1s) sil(1s) speech(1s) at 10 ms frames
    utt = _utt(300, (100, 200), ("a", "sil", "b"))
    pieces = split_nonspeech(utt)
    assert len(pieces) == 2
    first, second = pieces
    # piece 1: 100 speech frames + at most 2 frames (20 ms) of silence
    assert first.features.n_frames == 102
    assert first.phonemes == ("a", "sil")
    assert first.gold.boundaries == (100,)
    # piece 2: 2 frames of silence + 100 speech frames
    assert second.features.n_frames == 102
    assert second.phonemes == ("sil", "b")
    assert second.gold.boundaries == (2,)
    # frames are the original rows
    assert np.array_equal(first.features.data, utt.features.data[:102])
    assert np.array_equal(second.features.data, utt.features.data[198:])


def test_split_nonspeech_all_silence():
    utt = _utt(50, (), ("sil",))
    assert split_nonspeech(utt) == []


def test_split_nonspeech_trims_edges():
    utt = _utt(60, (10, 50), ("sil", "a", "noise"))
    pieces = split_nonspeech(utt)
    assert len(pieces) == 1
    piece = pieces[0]
    # 2 frames lead + 40 speech + 2 frames tail
    assert piece.features.n_frames == 44
    assert piece.phonemes == ("sil", "a", "noise")
    assert piece.gold.boundaries == (2, 42)
    assert np.array_equal(piece.features.data, utt.features.data[8:52])


def test_split_nonspeech_short_interior_run_kept():
    # 50 ms of silence is below the 100 ms cut threshold
    utt = _utt(100, (40, 45), ("a", "sil", "b"))
    pieces = split_nonspeech(utt)
    assert len(pieces) == 1
    assert pieces[0].gold.boundaries == (40, 45)


def test_split_nonspeech_no_interior_run_exceeds_threshold():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n_seg = int(rng.integers(2, 7))
        bounds = tuple(sorted(rng.choice(np.arange(1, 120), n_seg - 1, replace=False).tolist()))
        syms = tuple(rng.choice(["a", "b", "sil"], n_seg).tolist())
        utt = _utt(120, bounds, syms)
        for piece in split_nonspeech(utt):
            spans = piece.gold.spans()
            for (s, e), sym in zip(spans, piece.phonemes):
                is_edge = s == 0 or e == piece.gold.n_frames
                if sym == "sil" and not is_edge:
                    assert e - s < 10
                if sym == "sil" and is_edge:
                    assert e - s <= 2


SPLIT_SYMBOLS = ("a", "b", "sil", "noise", "iva")


def _split_case(lengths, symbols, shift):
    """An utterance of consecutive segments with these frame lengths and
    labels, and distinct feature bytes in every frame."""
    frames = sum(lengths)
    bounds = tuple(np.cumsum(lengths)[:-1].tolist())
    data = np.random.default_rng(frames).normal(size=(frames, 2))
    return LabeledUtterance("u", FrameMatrix(data, shift), Segmentation(bounds, frames),
                            symbols)


@st.composite
def split_cases(draw):
    n_seg = draw(st.integers(1, 11))
    lengths = draw(st.lists(st.integers(1, 40), min_size=n_seg, max_size=n_seg))
    symbols = tuple(draw(st.lists(st.sampled_from(SPLIT_SYMBOLS),
                                  min_size=n_seg, max_size=n_seg)))
    return lengths, symbols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=split_cases(), shift=st.sampled_from([0.01, 220 / 22050]),
       min_run_ms=st.sampled_from([0.0, 10.0, 50.0, 100.0, 300.0]) | st.floats(0.0, 400.0),
       max_lead_ms=st.sampled_from([0.0, 10.0, 20.0, 50.0, 200.0]) | st.floats(0.0, 250.0))
@example(case=([5, 30, 10, 4], ("sil", "a", "noise", "iva")), shift=0.01,
         min_run_ms=100.0, max_lead_ms=20.0)  # runs at both edges, mixed symbols
@example(case=([3, 12, 9, 7], ("a", "sil", "noise", "b")), shift=220 / 22050,
         min_run_ms=100.0, max_lead_ms=50.0)  # one interior run of two symbols
@example(case=([8, 8], ("a", "b")), shift=0.01, min_run_ms=0.0, max_lead_ms=0.0)
@example(case=([8, 8], ("sil", "iva")), shift=0.01, min_run_ms=0.0, max_lead_ms=0.0)
@example(case=([4, 2, 6, 1, 5], ("a", "sil", "b", "noise", "a")), shift=0.01,
         min_run_ms=0.0, max_lead_ms=200.0)  # every run cuts; leads use the whole run
def test_split_nonspeech_equals_the_frame_mask_reference(case, shift, min_run_ms, max_lead_ms):
    lengths, symbols = case
    utt = _split_case(lengths, symbols, shift)
    kwargs = dict(min_run_ms=min_run_ms, max_lead_ms=max_lead_ms)
    got = split_nonspeech(utt, **kwargs)
    want = reference_split_nonspeech(utt, **kwargs)
    assert [(p.key, p.gold, p.phonemes, p.features.frame_shift, p.features.data.tobytes())
            for p in got] == \
        [(p.key, p.gold, p.phonemes, p.features.frame_shift, p.features.data.tobytes())
         for p in want]


def test_synth_corpus_deterministic():
    cfg = SynthConfig(n_utterances=4, seed=99)
    a = synth_corpus(cfg)
    b = synth_corpus(cfg)
    for (ka, wa, anna), (kb, wb, annb) in zip(a, b):
        assert ka == kb
        assert np.array_equal(wa.samples, wb.samples)
        assert anna.segments == annb.segments


def test_synth_adjacent_segments_differ():
    cfg = SynthConfig(n_utterances=8, n_classes=2, seed=3)
    for _, _, ann in synth_corpus(cfg):
        syms = ann.symbols
        assert all(x != y for x, y in zip(syms, syms[1:]))
        assert len(syms) - 1 == len(ann.segments) - 1


def test_synth_roundtrip_through_disk(tmp_path):
    cfg = SynthConfig(n_utterances=3, seed=5)
    items = synth_corpus(cfg)
    manifest_path = write_synth_corpus(items, tmp_path, ["train", "val", "test"])
    manifest = read_manifest(manifest_path, cfg.sample_rate)
    assert [e.split for e in manifest.entries] == ["train", "val", "test"]
    fcfg = FeatureConfig()
    for (key, wav, ann), entry in zip(items, manifest.entries):
        utt = load_utterance(entry, fcfg, manifest)
        want_bounds, want_syms = boundaries_from_annotation(
            ann, fcfg.shift_samples(cfg.sample_rate), utt.features.n_frames)
        assert utt.gold.boundaries == want_bounds
        assert utt.phonemes == want_syms
        assert utt.key == key


def test_split_train_val_sizes_and_determinism():
    items = list(range(100))
    train, val = split_train_val(items, 0.10, seed=4)
    assert len(train) == 90 and len(val) == 10
    assert sorted(train + val) == items
    assert set(train).isdisjoint(val)
    train2, val2 = split_train_val(items, 0.10, seed=4)
    assert train == train2 and val == val2


def test_split_train_val_single_entry_warns():
    with pytest.warns(UserWarning):
        train, val = split_train_val([1], 0.10, seed=0)
    assert train == [1] and val == []
    with pytest.raises(ValueError):
        split_train_val([], 0.10)


def test_boundaries_csv_roundtrip(tmp_path):
    times = [0.10, 0.505, 1.25]
    path = tmp_path / "b.csv"
    write_boundaries_csv(path, times)
    assert read_boundaries_csv(path) == times
    assert (path.read_text().splitlines()[0]) == "time_s"


def test_rewriting_an_output_leaves_exactly_the_new_bytes(tmp_path):
    """Outputs are rewritten in place and cut to length after the write, so a
    shorter or longer rewrite of the same file holds exactly what a fresh
    write holds."""
    path, fresh = tmp_path / "b.csv", tmp_path / "fresh.csv"
    for times in ([0.1 * i for i in range(1, 200)], [0.25], [], [0.5, 1.0, 1.5], [0.125]):
        write_boundaries_csv(path, times)
        write_boundaries_csv(fresh, times)
        assert path.read_bytes() == fresh.read_bytes()
        fresh.unlink()
        assert read_boundaries_csv(path) == times
    grid, fresh = tmp_path / "u.TextGrid", tmp_path / "fresh.TextGrid"
    for times, total in (([0.1 * i for i in range(1, 50)], 5.0), ([0.5], 1.0),
                         ([0.2, 0.4], 0.6)):
        write_textgrid(grid, times, total)
        write_textgrid(fresh, times, total)
        assert grid.read_bytes() == fresh.read_bytes()
        fresh.unlink()


def test_textgrid_output(tmp_path):
    path = tmp_path / "u.TextGrid"
    write_textgrid(path, [0.5, 1.0], 2.0)
    text = path.read_text()
    assert 'Object class = "TextGrid"' in text
    assert "intervals: size = 3" in text
    assert text.count("intervals [") == 3
