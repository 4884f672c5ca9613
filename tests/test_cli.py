import configparser
import contextlib
import dataclasses
import inspect
import io
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfeat import cli as cli_module
from segfeat import model as model_module
from segfeat import train as train_module
from segfeat.audio import write_wav
from segfeat.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, build_parser, main
from segfeat.config import SCHEMA, ConfigError, load_run_config
from segfeat.data import (CorpusManifest, SynthConfig, read_boundaries_csv, read_manifest,
                          split_nonspeech, split_train_val, write_boundaries_csv,
                          write_manifest)
from segfeat.features import FeatureConfig, read_features_bin, read_stats
from segfeat.metrics import TolerancePolicy, evaluate_corpus
from segfeat.model import MODEL_MAGIC, ModelConfig, SegmentalModel
from segfeat.train import TrainConfig, read_epoch_logs

from conftest import edit_model_header, write_cut_wav


# ----- configuration --------------------------------------------------------

def test_config_defaults():
    cfg = load_run_config(None, env={})
    assert cfg["model"]["hidden_size"] == 64
    assert cfg["model"]["num_layers"] == 2
    assert cfg["train"]["epochs"] == 150
    assert cfg["train"]["learning_rate"] == 1e-4
    assert cfg["eval"]["tolerance"] == 0.020
    assert cfg["features"].get("n_fft") is None
    assert cfg.train_config().max_seg_frames == 50


def test_config_file_and_sections(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
[train]
epochs = 3
losses = segfeat, phn
[model]
hidden_size = 8
[eval]
tolerance = 0.01
""")
    cfg = load_run_config(path, env={})
    assert cfg["train"]["epochs"] == 3
    assert cfg["train"]["losses"] == ("segfeat", "phn")
    assert cfg["model"]["hidden_size"] == 8
    assert cfg.train_config().tolerance == 0.01


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\nepoch = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(path, env={})
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_run_config(path, env={})


def test_config_bad_value_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\nepochs = soon\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_run_config(path, env={})
    path.write_text("[train]\nepochs = 0\n")
    with pytest.raises(ConfigError):
        load_run_config(path, env={})


def test_config_env_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\nepochs = 3\n")
    env = {"SEGFEAT_TRAIN_EPOCHS": "9", "SEGFEAT_MODEL_HIDDEN_SIZE": "16"}
    cfg = load_run_config(path, env=env)
    assert cfg["train"]["epochs"] == 9
    assert cfg["model"]["hidden_size"] == 16


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_run_config("/nope/really/not.cfg", env={})


@pytest.mark.parametrize("section,key,value", [
    ("eval", "tolerance", "-0.01"),
    ("eval", "tolerance", "nan"),
    ("train", "learning_rate", "nan"),
    ("train", "max_seg_frames", "0"),
    ("train", "max_seg_frames", "-5"),
    ("train", "grad_clip", "-1"),
    ("train", "grad_clip", "nan"),
    ("train", "beta1", "1.5"),
    ("train", "beta1", "-0.1"),
    ("train", "beta2", "1.0"),
    ("train", "eps", "0"),
    ("train", "eps", "-1"),
    ("train", "patience", "-3"),
])
def test_config_out_of_range_training_value_rejected(tmp_path, section, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_run_config(path, env={})


@pytest.mark.parametrize("section,key,value", [
    ("features", "frame_shift", "nan"),
    ("features", "window_length", "nan"),
    ("features", "n_fft", "0"),
    ("features", "n_mfcc", "0"),
    ("model", "forget_bias", "nan"),
    ("model", "forget_bias", "inf"),
    ("data", "sample_rate", "0"),
    ("data", "min_nonspeech_ms", "nan"),
    ("data", "max_lead_ms", "-5"),
])
def test_config_out_of_range_value_outside_training_rejected(tmp_path, section, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_run_config(path, env={})


def test_config_range_edges_accepted(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\nmax_seg_frames = 1\ngrad_clip = 0\nbeta1 = 0\n"
                    "beta2 = 0\npatience = 0\n[eval]\ntolerance = 0\n")
    tcfg = load_run_config(path, env={}).train_config()
    assert (tcfg.max_seg_frames, tcfg.grad_clip, tcfg.beta1, tcfg.beta2, tcfg.patience,
            tcfg.tolerance) == (1, 0.0, 0.0, 0.0, 0, 0.0)


REPO = Path(__file__).resolve().parent.parent


def test_readme_config_block_lists_every_key_with_its_default(tmp_path):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Configuration"):]
    start = section.index("```ini\n") + len("```ini\n")
    path = tmp_path / "readme.cfg"
    path.write_text(section[start:section.index("```", start)])
    assert load_run_config(path, env={}).values == load_run_config(None, env={}).values
    named = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    named.read(path)
    assert {s: list(named[s]) for s in named.sections()} == {
        s: list(keys) for s, keys in SCHEMA.items()}


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_recipe_loads_and_builds_every_config(path):
    cfg = load_run_config(path, env={})
    fcfg = cfg.feature_config()
    assert isinstance(fcfg, FeatureConfig)
    assert isinstance(cfg.model_config(input_dim=fcfg.feature_dim), ModelConfig)
    assert isinstance(cfg.train_config(), TrainConfig)


def _defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_cli_defaults_are_the_library_defaults():
    """Each default the CLI layer passes on is the default of the library
    class or function it feeds."""
    args = build_parser().parse_args(["synth", "--out", "x"])
    n = args.train + args.val + args.test
    assert SynthConfig(n_utterances=n, segments_range=(args.min_segments, args.max_segments),
                       duration_range=(args.min_duration, args.max_duration),
                       n_classes=args.classes, noise_level=args.noise, seed=args.seed) == \
        dataclasses.replace(SynthConfig(), n_utterances=n)

    defaults = load_run_config(None, env={})
    data, train = defaults["data"], defaults["train"]
    nonspeech = _defaults(split_nonspeech)
    assert (data["nonspeech_symbols"], data["min_nonspeech_ms"], data["max_lead_ms"]) == \
        (nonspeech["nonspeech"], nonspeech["min_run_ms"], nonspeech["max_lead_ms"])
    split = _defaults(split_train_val)
    assert (train["val_fraction"], train["val_seed"]) == (split["val_fraction"], split["seed"])
    assert data["sample_rate"] == ModelConfig().sample_rate == SynthConfig().sample_rate
    assert data["annotation_unit"] == CorpusManifest([], 1).annotation_unit == \
        _defaults(read_manifest)["annotation_unit"]
    assert defaults["eval"]["tolerance"] == TrainConfig().tolerance == \
        TolerancePolicy().tolerance


# ----- CLI flows -------------------------------------------------------------

CFG_SMALL = """
[model]
hidden_size = 6
num_layers = 1
[train]
epochs = 2
learning_rate = 1e-3
losses = segfeat
val_fraction = 0.2
[data]
sample_rate = 16000
"""


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["synth", "--out", str(out), "--train", "8", "--val", "2", "--test", "2",
               "--seed", "11", "--min-duration", "0.05", "--max-duration", "0.1"])
    assert rc == EXIT_OK
    return out


def test_synth_writes_manifest_and_files(corpus_dir):
    manifest = read_manifest(corpus_dir / "manifest.csv", 16000)
    assert len(manifest.entries) == 12
    assert len(manifest.split("train")) == 8
    for entry in manifest.entries:
        assert entry.wav_path.exists()
        assert entry.ann_path.exists()


def test_features_command(tmp_path, corpus_dir):
    out = tmp_path / "feats"
    rc = main(["features", "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(out)])
    assert rc == EXIT_OK
    stats = read_stats(out / "stats.csv")
    assert stats.mean.size == 43
    bins = sorted(out.glob("*.bin"))
    assert len(bins) == 12
    m = read_features_bin(bins[0])
    assert m.dim == 43
    # rerun produces identical bytes
    blob = bins[0].read_bytes()
    stats_blob = (out / "stats.csv").read_bytes()
    rc = main(["features", "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(out)])
    assert rc == EXIT_OK
    assert bins[0].read_bytes() == blob
    assert (out / "stats.csv").read_bytes() == stats_blob


def test_features_command_missing_manifest(tmp_path):
    rc = main(["features", "--manifest", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA


def test_features_command_empty_manifest(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rc = main(["features", "--manifest", str(empty), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "run.cfg"
    cfg.write_text(CFG_SMALL)
    rc = main(["train", "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(out), "--config", str(cfg)])
    assert rc == EXIT_OK
    return out


def test_train_outputs(trained_dir):
    assert (trained_dir / "model_best.bin").exists()
    assert (trained_dir / "model_last.bin").exists()
    logs = read_epoch_logs(trained_dir / "epochs.csv")
    assert len(logs) == 2
    model = SegmentalModel.load(trained_dir / "model_best.bin")
    assert model.cfg.hidden_size == 6
    assert model.stats is not None


def test_train_rerun_bit_identical(tmp_path, corpus_dir, trained_dir):
    out2 = tmp_path / "rerun"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_SMALL)
    rc = main(["train", "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(out2), "--config", str(cfg)])
    assert rc == EXIT_OK
    assert (out2 / "model_best.bin").read_bytes() == \
        (trained_dir / "model_best.bin").read_bytes()
    assert (out2 / "model_last.bin").read_bytes() == \
        (trained_dir / "model_last.bin").read_bytes()
    a = [line.rsplit(",", 1)[0] for line in (out2 / "epochs.csv").read_text().splitlines()]
    b = [line.rsplit(",", 1)[0] for line in
         (trained_dir / "epochs.csv").read_text().splitlines()]
    assert a == b  # identical apart from the wall-clock column


def test_train_config_error(tmp_path, corpus_dir):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[train]\nlosses = nothing\n")
    rc = main(["train", "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == EXIT_CONFIG


def test_train_rejects_negative_tolerance_before_training(tmp_path, corpus_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CFG_SMALL + "[eval]\ntolerance = -0.01\n")
    out = tmp_path / "o"
    rc = main(["train", "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(out), "--config", str(cfg)])
    assert rc == EXIT_CONFIG
    assert "training on" not in capsys.readouterr().out
    assert not out.exists()


def test_features_rejects_nan_frame_shift_before_any_work(tmp_path, corpus_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[features]\nframe_shift = nan\n")
    out = tmp_path / "o"
    rc = main(["features", "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(out), "--config", str(cfg)])
    assert rc == EXIT_CONFIG
    assert "frame_shift" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["FRAME_SHIFT", "WINDOW_LENGTH"])
def test_features_rejects_sub_sample_shift_or_window(tmp_path, corpus_dir, capsys,
                                                     monkeypatch, key):
    monkeypatch.setenv(f"SEGFEAT_FEATURES_{key}", "0.00001")  # 0.16 samples at 16 kHz
    out = tmp_path / "o"
    rc = main(["features", "--manifest", str(corpus_dir / "manifest.csv"), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "one sample" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_nan_forget_bias_before_training(tmp_path, corpus_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CFG_SMALL.replace("[model]\n", "[model]\nforget_bias = nan\n"))
    out = tmp_path / "o"
    rc = main(["train", "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(out), "--config", str(cfg)])
    assert rc == EXIT_CONFIG
    assert "training on" not in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    pytest.param(["eval", "--tolerance", "nan"], id="eval-tolerance-nan"),
    pytest.param(["eval", "--tolerance", "-1"], id="eval-tolerance-negative"),
    pytest.param(["segment", "--k", "0"], id="segment-k-0"),
])
def test_bad_flag_value_exits_2_before_reading_inputs(tmp_path, capsys, flags):
    # every input path is missing, which exits 3 once the command reads one
    missing = str(tmp_path / "missing")
    inputs = {"eval": ["--pred", missing, "--manifest", missing],
              "segment": ["--model", missing, "--wav", missing, "--out", missing]}
    assert main(flags + inputs[flags[0]]) == EXIT_CONFIG
    assert flags[1] in capsys.readouterr().err


def _best_epoch(run_dir):
    """The epoch `fit` keeps: the first with the highest validation F1."""
    logs = read_epoch_logs(run_dir / "epochs.csv")
    return max(range(len(logs)), key=lambda e: (logs[e].val_f1, -e))


def test_segment_reproduces_validation_segmentations(tmp_path, corpus_dir, monkeypatch):
    """The inference contract: `segment` on a saved checkpoint writes exactly
    the boundaries that validation decoded with the trained model in memory."""
    validated = []

    def recording_evaluate_corpus(preds, refs, policy=None):
        validated.append(preds)
        return evaluate_corpus(preds, refs, policy)

    monkeypatch.setattr(train_module, "evaluate_corpus", recording_evaluate_corpus)
    run = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_SMALL)
    rc = main(["train", "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(run), "--config", str(cfg)])
    assert rc == EXIT_OK
    final = validated[_best_epoch(run)]  # the validation of model_best.bin's epoch
    val_wavs = [e.wav_path for e in
                read_manifest(corpus_dir / "manifest.csv", 16000).split("val")]
    assert sorted(final) == sorted(w.stem for w in val_wavs)
    for wav in val_wavs:
        rc = main(["segment", "--model", str(run / "model_best.bin"), "--wav", str(wav),
                   "--out", str(tmp_path / "pred")])
        assert rc == EXIT_OK
    for key, (seg, shift) in final.items():
        assert read_boundaries_csv(tmp_path / "pred" / f"{key}.csv") == seg.times(shift)
    assert any(seg.boundaries for seg, _ in final.values())  # not vacuous


def test_train_validates_once_per_epoch_and_prints_the_best_epochs_report(
        tmp_path, corpus_dir, monkeypatch, capsys):
    calls = []
    validate_model = train_module.validate_model

    def counting(model, utterances, tolerance):
        report = validate_model(model, utterances, tolerance)
        calls.append(report.as_text())
        return report

    monkeypatch.setattr(train_module, "validate_model", counting)
    monkeypatch.setattr(cli_module, "validate_model", counting, raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_SMALL.replace("epochs = 2", "epochs = 3"))
    rc = main(["train", "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(tmp_path / "run"), "--config", str(cfg)])
    assert rc == EXIT_OK
    assert len(calls) == 3
    assert calls[_best_epoch(tmp_path / "run")] in capsys.readouterr().out.splitlines()


def test_segment_rejects_a_wav_cut_inside_a_frame(tmp_path, capsys):
    SegmentalModel(ModelConfig(hidden_size=2, num_layers=1), FeatureConfig()).save(
        tmp_path / "model.bin")
    wav = tmp_path / "cut.wav"
    write_cut_wav(wav, 1, 1)
    rc = main(["segment", "--model", str(tmp_path / "model.bin"), "--wav", str(wav),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    assert "truncated" in capsys.readouterr().err


def test_segment_command(tmp_path, corpus_dir, trained_dir):
    out = tmp_path / "pred"
    manifest = read_manifest(corpus_dir / "manifest.csv", 16000)
    wav = str(manifest.entries[0].wav_path)
    rc = main(["segment", "--model", str(trained_dir / "model_best.bin"),
               "--wav", wav, "--out", str(out), "--textgrid"])
    assert rc == EXIT_OK
    key = manifest.entries[0].key
    times = read_boundaries_csv(out / f"{key}.csv")
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    assert (out / f"{key}.TextGrid").exists()


@pytest.mark.parametrize("budget", [150, model_module._SCAN_FRAMES])
@pytest.mark.parametrize("k", [None, 3])
def test_segment_manifest_writes_what_one_segment_wav_per_file_writes(
        tmp_path, corpus_dir, trained_dir, monkeypatch, budget, k):
    """`segment --manifest` encodes in batched scans; every CSV and TextGrid
    it writes equals, byte for byte, that of one `segment --wav` call."""
    monkeypatch.setattr(model_module, "_SCAN_FRAMES", budget)
    flags = ["--model", str(trained_dir / "model_best.bin"), "--textgrid"]
    flags += [] if k is None else ["--k", str(k)]
    rc = main(["segment", *flags, "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(tmp_path / "batched")])
    assert rc == EXIT_OK
    entries = read_manifest(corpus_dir / "manifest.csv", 16000).entries
    for entry in entries:
        rc = main(["segment", *flags, "--wav", str(entry.wav_path),
                   "--out", str(tmp_path / "single")])
        assert rc == EXIT_OK
    batched, single = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                       for d in ("batched", "single"))
    assert len(batched) == 2 * len(entries)
    assert batched == single


def test_segment_k_one_gives_no_boundaries(tmp_path, corpus_dir, trained_dir):
    out = tmp_path / "predk"
    manifest = read_manifest(corpus_dir / "manifest.csv", 16000)
    wav = str(manifest.entries[0].wav_path)
    rc = main(["segment", "--model", str(trained_dir / "model_best.bin"),
               "--wav", wav, "--out", str(out), "--k", "1"])
    assert rc == EXIT_OK
    assert read_boundaries_csv(out / f"{manifest.entries[0].key}.csv") == []


def test_segment_requires_exactly_one_input(tmp_path, trained_dir):
    rc = main(["segment", "--model", str(trained_dir / "model_best.bin"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


def test_segment_rate_mismatch(tmp_path, trained_dir):
    wav = tmp_path / "slow.wav"
    write_wav(wav, np.zeros(8000) + 0.01, 8000)
    rc = main(["segment", "--model", str(trained_dir / "model_best.bin"),
               "--wav", str(wav), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA


def test_segment_long_recording_in_bounded_memory(tmp_path):
    """60 s of audio through the whole `segment` path: WAV read, front end,
    a 2-layer encoder and the uncapped DP over 6,000 frames. Recording the
    encoder as four tape nodes per frame peaked at about 113 MiB here."""
    model = SegmentalModel(ModelConfig(hidden_size=4, num_layers=2), FeatureConfig())
    model.save(tmp_path / "model.bin")
    wav = tmp_path / "long.wav"
    write_wav(wav, np.random.default_rng(0).normal(scale=0.1, size=60 * 16000), 16000)
    tracemalloc.start()
    try:
        rc = main(["segment", "--model", str(tmp_path / "model.bin"), "--wav", str(wav),
                   "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    assert (tmp_path / "o" / "long.csv").exists()
    assert peak < 64 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


def test_segment_times_follow_the_whole_sample_frame_step_at_22050_hz(tmp_path):
    """At 22050 Hz a 10 ms shift rounds to 220 samples, so frame b starts at
    b * 220 / 22050 s. Timing frames at the nominal 0.010 s put the last
    boundary of a 10 s recording 22.7 ms late, past the 20 ms tolerance.
    With k equal to the frame count every frame is a boundary."""
    rate = 22050
    model = SegmentalModel(ModelConfig(hidden_size=4, num_layers=1, sample_rate=rate),
                           FeatureConfig())
    model.save(tmp_path / "model.bin")
    wav = tmp_path / "long.wav"
    write_wav(wav, np.random.default_rng(0).normal(scale=0.1, size=10 * rate), rate)
    n_frames = (10 * rate - 220) // 220 + 1
    rc = main(["segment", "--model", str(tmp_path / "model.bin"), "--wav", str(wav),
               "--out", str(tmp_path / "o"), "--k", str(n_frames)])
    assert rc == EXIT_OK
    times = read_boundaries_csv(tmp_path / "o" / "long.csv")
    assert times == [b * (220 / rate) for b in range(1, n_frames)]


def _segment_with_model(tmp_path, corpus_dir, model_path):
    wav = str(read_manifest(corpus_dir / "manifest.csv", 16000).entries[0].wav_path)
    return main(["segment", "--model", str(model_path), "--wav", wav,
                 "--out", str(tmp_path / "o")])


def test_segment_rejects_trailing_bytes_in_model(tmp_path, corpus_dir, trained_dir, capsys):
    bad = tmp_path / "junk.bin"
    bad.write_bytes((trained_dir / "model_best.bin").read_bytes() + b"\x00")
    assert _segment_with_model(tmp_path, corpus_dir, bad) == EXIT_DATA
    assert "after the last block" in capsys.readouterr().err


@pytest.mark.parametrize("section, edit, key", [
    ("model", lambda d: d.update(dropout=0.1), "dropout"),
    ("model", lambda d: d.pop("hidden_size"), "hidden_size"),
    ("features", lambda d: d.update(preemphasis=0.97), "preemphasis"),
    ("features", lambda d: d.pop("n_mfcc"), "n_mfcc"),
    pytest.param("model", lambda d: d.update(hidden_size="abc"), "hidden_size",
                 id="model-hidden_size-type"),
    pytest.param("model", lambda d: d.update(inventory=3), "inventory",
                 id="model-inventory-type"),
    pytest.param("features", lambda d: d.update(spectral_js=3), "spectral_js",
                 id="features-spectral_js-type"),
    pytest.param("params", lambda d: d[0].pop("shape"), "shape", id="params-no-shape"),
    pytest.param("params", lambda d: d[0].pop("name"), "name", id="params-no-name"),
])
def test_segment_rejects_bad_model_header_key(tmp_path, corpus_dir, trained_dir, capsys,
                                              section, edit, key):
    bad = tmp_path / "header.bin"
    edit_model_header(trained_dir / "model_best.bin", bad, lambda h: edit(h[section]))
    assert _segment_with_model(tmp_path, corpus_dir, bad) == EXIT_DATA
    err = capsys.readouterr().err
    assert key in err and section in err


@pytest.mark.parametrize("section, key, value", [
    ("features", "frame_shift", 0.00001),
    ("features", "window_length", 0.00001),
    ("model", "sample_rate", 40),
])
def test_segment_rejects_sub_sample_shift_or_window_in_model_header(
        tmp_path, corpus_dir, trained_dir, capsys, section, key, value):
    bad = tmp_path / "header.bin"
    edit_model_header(trained_dir / "model_best.bin", bad,
                      lambda h: h[section].update({key: value}))
    assert _segment_with_model(tmp_path, corpus_dir, bad) == EXIT_DATA
    assert "one sample" in capsys.readouterr().err


def _header_file(header, stated=None):
    """Model file bytes: the magic, a header length (len(header) unless
    stated), then header and nothing more."""
    return MODEL_MAGIC + struct.pack("<I", len(header) if stated is None else stated) + header


@pytest.mark.parametrize("blob, message", [
    (_header_file(b"{'format_version': 1}"), "header is not UTF-8 JSON"),
    (_header_file(b'{"format_version": "\xff"}'), "header is not UTF-8 JSON"),
    (_header_file(b"[" * 100000), "header is not UTF-8 JSON"),
    (_header_file(b"{}", stated=64), "truncated model file"),
    (_header_file(b'{"format_version": 1, "model": {', stated=900), "truncated model file"),
], ids=["single-quotes", "not-utf8", "deep-nesting", "short-object", "cut-in-header"])
def test_segment_names_the_model_file_when_its_header_does_not_read(
        tmp_path, corpus_dir, capsys, blob, message):
    bad = tmp_path / "header.bin"
    bad.write_bytes(blob)
    assert _segment_with_model(tmp_path, corpus_dir, bad) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and str(bad) in err


def _write_non_finite_model(trained_dir, path, block, value):
    model = SegmentalModel.load(trained_dir / "model_best.bin")
    if block.startswith("featstats."):
        getattr(model.stats, block.split(".")[1])[0] = value
    else:
        model.params[block].value.flat[0] = value
    model.save(path)


NON_FINITE_BLOCKS = [("bigram.2.w", np.nan), ("unary.2.b", np.nan), ("bigram.2.b", np.inf),
                     ("enc.l0.f.wx", -np.inf), ("featstats.mean", np.nan),
                     ("featstats.std", np.inf)]


@pytest.mark.parametrize("block, value", NON_FINITE_BLOCKS)
def test_segment_wav_rejects_non_finite_model_parameters(tmp_path, corpus_dir, trained_dir,
                                                         capsys, block, value):
    bad = tmp_path / "nonfinite.bin"
    _write_non_finite_model(trained_dir, bad, block, value)
    assert _segment_with_model(tmp_path, corpus_dir, bad) == EXIT_DATA
    err = capsys.readouterr().err
    assert "non-finite" in err and repr(block) in err


@pytest.mark.parametrize("block, value", NON_FINITE_BLOCKS[:3])
def test_segment_manifest_rejects_non_finite_model_parameters(tmp_path, corpus_dir, trained_dir,
                                                              capsys, block, value):
    bad = tmp_path / "nonfinite.bin"
    _write_non_finite_model(trained_dir, bad, block, value)
    rc = main(["segment", "--model", str(bad), "--manifest", str(corpus_dir / "manifest.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA
    assert repr(block) in capsys.readouterr().err
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_eval_perfect_predictions(tmp_path, corpus_dir, capsys):
    manifest = read_manifest(corpus_dir / "manifest.csv", 16000)
    pred = tmp_path / "pred"
    pred.mkdir()
    from segfeat.data import read_phn, write_boundaries_csv
    for entry in manifest.entries:
        ann = read_phn(entry.ann_path)
        times = [start / 16000 for start, _, _ in ann.segments[1:]]
        write_boundaries_csv(pred / f"{entry.key}.csv", times)
    rc = main(["eval", "--pred", str(pred), "--manifest",
               str(corpus_dir / "manifest.csv")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "100.00" in out
    assert "precision,recall,f1,os,r_value,hits,n_pred,n_ref" in out


def test_eval_zero_tolerance_misses_offset(tmp_path, corpus_dir, capsys):
    manifest = read_manifest(corpus_dir / "manifest.csv", 16000)
    pred = tmp_path / "pred0"
    pred.mkdir()
    from segfeat.data import read_phn, write_boundaries_csv
    total = 0
    for entry in manifest.entries:
        ann = read_phn(entry.ann_path)
        times = [start / 16000 + 0.005 for start, _, _ in ann.segments[1:]]
        total += len(times)
        write_boundaries_csv(pred / f"{entry.key}.csv", times)
    rc = main(["eval", "--pred", str(pred), "--manifest",
               str(corpus_dir / "manifest.csv"), "--tolerance", "0"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    csv_line = out[-1]
    hits = int(csv_line.split(",")[5])
    assert hits == 0 and total > 0


def test_eval_reads_seconds_csv_annotations(tmp_path, corpus_dir, capsys):
    # references moved 50 ms later than the .phn files, beyond the 20 ms
    # tolerance, so a perfect score shows that eval read the .csv files
    manifest = read_manifest(corpus_dir / "manifest.csv", 16000)
    pred = tmp_path / "predcsv"
    pred.mkdir()
    from segfeat.data import read_phn, write_boundaries_csv, write_manifest
    rows, n_ref = [], 0
    for entry in manifest.entries:
        segments = read_phn(entry.ann_path).segments
        ann = tmp_path / f"{entry.key}.csv"
        ann.write_text("".join(f"{s / 16000 + 0.05},{e / 16000 + 0.05},{sym}\n"
                               for s, e, sym in segments), encoding="ascii")
        times = [round((s / 16000 + 0.05) * 16000) / 16000 for s, _, _ in segments[1:]]
        n_ref += len(times)
        write_boundaries_csv(pred / f"{entry.key}.csv", times)
        rows.append((str(entry.wav_path), ann.name, entry.split))
    write_manifest(tmp_path / "manifest.csv", rows)
    rc = main(["eval", "--pred", str(pred), "--manifest", str(tmp_path / "manifest.csv")])
    assert rc == EXIT_OK
    csv_line = capsys.readouterr().out.splitlines()[-1]
    assert csv_line.startswith("100.0000,100.0000")
    assert csv_line.endswith(f",{n_ref},{n_ref},{n_ref}") and n_ref > 0


@pytest.mark.parametrize("end", ["inf", "1e400", "-inf", "nan"])
def test_eval_rejects_non_finite_seconds_annotation_times(tmp_path, capsys, end):
    """A non-finite time is a data error naming the file and line, not a
    crash in the conversion to samples."""
    write_wav(tmp_path / "u1.wav", np.zeros(1600), 16000)
    ann = tmp_path / "u1.csv"
    ann.write_text(f"0.0,0.05,sil\n0.05,{end},aa\n", encoding="ascii")
    write_manifest(tmp_path / "manifest.csv", [(str(tmp_path / "u1.wav"), ann.name, "test")])
    pred = tmp_path / "pred"
    pred.mkdir()
    write_boundaries_csv(pred / "u1.csv", [0.05])
    rc = main(["eval", "--pred", str(pred), "--manifest", str(tmp_path / "manifest.csv")])
    assert rc == EXIT_DATA
    assert f"{ann}:2: segment times must be finite" in capsys.readouterr().err


def _eval_one_utterance(tmp_path, ann_name, ann_text, pred_text):
    """`segfeat eval` on one utterance with the given annotation and
    prediction file contents; returns the exit code and both paths."""
    write_wav(tmp_path / "u1.wav", np.zeros(1600), 16000)
    ann = tmp_path / ann_name
    ann.write_text(ann_text, encoding="ascii")
    write_manifest(tmp_path / "manifest.csv", [(str(tmp_path / "u1.wav"), ann.name, "test")])
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / "u1.csv").write_text(pred_text, encoding="ascii")
    rc = main(["eval", "--pred", str(pred), "--manifest", str(tmp_path / "manifest.csv")])
    return rc, ann, pred / "u1.csv"


@pytest.mark.parametrize("ann_name, ann_text, message", [
    ("u1.phn", "0 800 sil\n800 1600.5 aa\n", "2: segment times must be whole sample numbers"),
    ("u1.phn", "0 x sil\n", "1: segment times must be whole sample numbers"),
    ("u1.csv", "0.0,0.05,sil\nabc,0.1,aa\n", "2: segment times must be numbers"),
], ids=["phn-fraction", "phn-word", "seconds-word"])
def test_eval_rejects_unparsable_annotation_times(tmp_path, capsys, ann_name, ann_text, message):
    rc, ann, _ = _eval_one_utterance(tmp_path, ann_name, ann_text, "time_s\n0.05\n")
    assert rc == EXIT_DATA
    assert f"{ann}:{message}" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("abc", "boundary times must be numbers"),
    ("nan", "boundary times must be finite"),
    ("inf", "boundary times must be finite"),
], ids=["word", "nan", "inf"])
def test_eval_rejects_bad_prediction_times(tmp_path, capsys, line, message):
    """A prediction time that does not parse, or is not finite, is a data
    error naming the file and line (a NaN used to score as r-value nan)."""
    rc, _, pred = _eval_one_utterance(tmp_path, "u1.phn", "0 800 sil\n800 1600 aa\n",
                                      f"time_s\n0.02\n{line}\n")
    assert rc == EXIT_DATA
    assert f"{pred}:3: {message}" in capsys.readouterr().err


def _eval_files(tmp_path, ann=b"0 800 sil\n800 1600 aa\n", pred=b"time_s\n0.05\n",
                manifest=b"u1.wav,u1.phn,test\n", ann_name="u1.phn"):
    """`segfeat eval` on one utterance whose annotation, prediction and
    manifest files hold these bytes (eval reads no WAV); returns the exit
    code and the three paths."""
    paths = (tmp_path / ann_name, tmp_path / "pred" / "u1.csv", tmp_path / "manifest.csv")
    paths[1].parent.mkdir()
    for path, blob in zip(paths, (ann, pred, manifest)):
        path.write_bytes(blob)
    rc = main(["eval", "--pred", str(paths[1].parent), "--manifest", str(paths[2])])
    return (rc, *paths)


@pytest.mark.parametrize("ann_name, ann, message", [
    ("u1.phn", b"0 1232 sil\n\n1237 1600 aa\n",
     ":3: segments are not contiguous at sample 1237 (previous ended at 1232)"),
    ("u1.phn", b"", ": annotation must contain at least one segment"),
    ("u1.phn", b"\n  \n", ": annotation must contain at least one segment"),
    ("u1.phn", b"0 800 sil\n800 1600 \xc3\xa6\n", ": 'ascii' codec can't decode byte 0xc3"),
    ("u1.phn", b"0 800 sil\n800 1" + b"0" * 400 + b" aa\n", ":2: segment times must be finite"),
    ("u1.csv", b"0.0,0.05,sil\n0.05,0.04,aa\n", ":2: segment (800, 640) is empty or reversed"),
    ("u1.csv", b"0.0,0.05,sil\n0.0,0.1,aa\n", ":2: segment starts must be strictly increasing"),
], ids=["phn-shifted-start", "phn-empty", "phn-blank", "phn-stray-byte", "phn-huge-time",
        "seconds-reversed", "seconds-repeated-start"])
def test_eval_names_the_annotation_file_and_line(tmp_path, capsys, ann_name, ann, message):
    rc, ann_path, _, _ = _eval_files(tmp_path, ann=ann, ann_name=ann_name,
                                     manifest=f"u1.wav,{ann_name},test\n".encode())
    assert rc == EXIT_DATA
    assert f"data error: {ann_path}{message}" in capsys.readouterr().err


@pytest.mark.parametrize("manifest, message", [
    (b"u1.wav,u1.phn\n", ":1: manifest row must be wav,ann,split: ['u1.wav', 'u1.phn']"),
    (b"# wav,ann,split\n\nu1.wav,u1.phn,dev\n",
     ":3: split tag must be one of ('train', 'val', 'test'), got 'dev'"),
    (b"u1.wav,u1.phn,test\n\xe9,u1.phn,test\n", ": 'utf-8' codec can't decode byte 0xe9"),
], ids=["two-cells", "bad-split-tag", "not-utf8"])
def test_eval_names_the_manifest_file_and_line(tmp_path, capsys, manifest, message):
    rc, _, _, manifest_path = _eval_files(tmp_path, manifest=manifest)
    assert rc == EXIT_DATA
    assert f"data error: {manifest_path}{message}" in capsys.readouterr().err


@pytest.mark.parametrize("pred, message", [
    (b"time_s\n0.05\n0.02\n", ":3: boundary times must be ascending"),
    (b"time_s\n0.05\n\xc2\xa00.06\n", ": 'ascii' codec can't decode byte 0xc2"),
], ids=["descending", "stray-byte"])
def test_eval_names_the_prediction_file_and_line(tmp_path, capsys, pred, message):
    rc, _, pred_path, _ = _eval_files(tmp_path, pred=pred)
    assert rc == EXIT_DATA
    assert f"data error: {pred_path}{message}" in capsys.readouterr().err


def test_eval_accepts_equal_prediction_times(tmp_path, capsys):
    rc, *_ = _eval_files(tmp_path, pred=b"time_s\n0.05\n0.05\n")
    assert rc == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].endswith(",1,2,1")


def test_eval_missing_prediction(tmp_path, corpus_dir):
    pred = tmp_path / "predmiss"
    pred.mkdir()
    rc = main(["eval", "--pred", str(pred), "--manifest",
               str(corpus_dir / "manifest.csv")])
    assert rc == EXIT_DATA


def test_paths_section_fallback(tmp_path, corpus_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_SMALL + f"""
[paths]
manifest = {corpus_dir / 'manifest.csv'}
out_dir = {tmp_path / 'out'}
""")
    rc = main(["train", "--config", str(cfg)])
    assert rc == EXIT_OK
    assert (tmp_path / "out" / "model_best.bin").exists()
    # missing everywhere is a config error
    bare = tmp_path / "bare.cfg"
    bare.write_text(CFG_SMALL)
    rc = main(["train", "--config", str(bare)])
    assert rc == EXIT_CONFIG


def test_eval_report_file(tmp_path, corpus_dir):
    manifest = read_manifest(corpus_dir / "manifest.csv", 16000)
    pred = tmp_path / "predf"
    pred.mkdir()
    from segfeat.data import read_phn, write_boundaries_csv
    for entry in manifest.entries:
        ann = read_phn(entry.ann_path)
        write_boundaries_csv(pred / f"{entry.key}.csv",
                             [s / 16000 for s, _, _ in ann.segments[1:]])
    report_path = tmp_path / "report.csv"
    rc = main(["eval", "--pred", str(pred), "--manifest",
               str(corpus_dir / "manifest.csv"), "--out", str(report_path)])
    assert rc == EXIT_OK
    lines = report_path.read_text().splitlines()
    assert lines[0] == "precision,recall,f1,os,r_value,hits,n_pred,n_ref"
    assert lines[1].startswith("100.0000,100.0000")


# ----- fuzzed text readers ---------------------------------------------------

FUZZ_CELLS = (b"", b"0", b"7", b"800", b"1600", b"2400", b"0.05", b"-2", b"1e3",
              b"1" + b"0" * 400, b"nan", b"inf", b"#", b"sil", b"\xff")


@st.composite
def fuzz_lines(draw):
    """Up to 8 lines of up to 3 cells from FUZZ_CELLS, one separator per file."""
    sep = draw(st.sampled_from([b" ", b",", b"\t"]))
    cells = st.lists(st.sampled_from(FUZZ_CELLS), max_size=3).map(sep.join)
    return b"\n".join(draw(st.lists(cells, max_size=8)))


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """A two-utterance synth corpus with perfect predictions in pred/."""
    out = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(out), "--train", "0", "--val", "0", "--test", "2",
                 "--seed", "5"]) == EXIT_OK
    (out / "pred").mkdir()
    from segfeat.data import read_phn
    for entry in read_manifest(out / "manifest.csv", 16000).entries:
        write_boundaries_csv(out / "pred" / f"{entry.key}.csv",
                             [s / 16000 for s, _, _ in read_phn(entry.ann_path).segments[1:]])
    return out


@settings(max_examples=800, deadline=None, derandomize=True)
@given(target=st.sampled_from(["utt0000.phn", "pred/utt0001.csv", "manifest.csv"]),
       kept=st.integers(0, 2), text=fuzz_lines())
def test_eval_exits_0_or_3_naming_the_fuzzed_file(fuzz_corpus, target, kept, text):
    """Random lines in one annotation, prediction or manifest file end in
    exit 0 or in a data error (3) that names that file, never in exit 4.
    The fuzzed lines follow the file's first `kept` lines, so they also meet
    a valid header, row or segment."""
    path = fuzz_corpus / target
    original = path.read_bytes()
    head = b"".join(original.splitlines(keepends=True)[:kept])
    path.write_bytes(head + text)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["eval", "--pred", str(fuzz_corpus / "pred"),
                       "--manifest", str(fuzz_corpus / "manifest.csv")])
    finally:
        path.write_bytes(original)
    assert rc in (EXIT_OK, EXIT_DATA), err.getvalue()
    if rc == EXIT_DATA:
        assert str(path) in err.getvalue()
