import numpy as np
import pytest

from segfeat.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from segfeat.config import ConfigError, load_run_config
from segfeat.data import read_boundaries_csv, read_manifest
from segfeat.features import read_features_bin, read_stats
from segfeat.model import SegmentalModel
from segfeat.train import read_epoch_logs

from conftest import edit_model_header


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
    from segfeat.audio import write_wav
    wav = tmp_path / "slow.wav"
    write_wav(wav, np.zeros(8000) + 0.01, 8000)
    rc = main(["segment", "--model", str(trained_dir / "model_best.bin"),
               "--wav", str(wav), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA


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
