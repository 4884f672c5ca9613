"""Command-line interface: synth, features, train, segment, eval.

Exit codes: 0 success, 2 configuration errors, 3 data errors (missing or
malformed inputs), 4 unexpected runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .audio import MalformedWavError, UnsupportedCodecError, read_wav
from .config import ConfigError, load_run_config
from .data import (SynthConfig, load_corpus, read_annotation, read_boundaries_csv,
                   read_manifest, split_nonspeech, split_train_val, synth_corpus,
                   write_boundaries_csv, write_synth_corpus, write_textgrid,
                   zscore_utterances)
from .decode import dp_segment, dp_segment_k, dp_segment_many
from .features import (assemble_features, corpus_stats, write_features_bin, write_features_csv,
                       write_stats)
from .metrics import TolerancePolicy, evaluate_times
from .model import SegmentalModel, build_context, build_contexts
from .train import fit, write_epoch_logs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

DATA_ERRORS = (FileNotFoundError, MalformedWavError, UnsupportedCodecError, ValueError)


def _resolve_path(flag_value, cfg, key, flag_name):
    """Command-line flags win; the [paths] config section is the fallback."""
    if flag_value:
        return flag_value
    fallback = cfg["paths"].get(key, "")
    if fallback:
        return fallback
    raise ConfigError(f"missing {flag_name} (flag) or [paths] {key} (config)")


def cmd_synth(args) -> int:
    cfg = load_run_config(args.config)
    data = cfg["data"]
    total = args.train + args.val + args.test
    if total <= 0:
        raise ConfigError("need at least one utterance across the splits")
    synth = SynthConfig(
        n_utterances=total,
        segments_range=(args.min_segments, args.max_segments),
        duration_range=(args.min_duration, args.max_duration),
        n_classes=args.classes,
        noise_level=args.noise,
        seed=args.seed,
        sample_rate=data["sample_rate"],
    )
    items = synth_corpus(synth)
    splits = ["train"] * args.train + ["val"] * args.val + ["test"] * args.test
    manifest = write_synth_corpus(items, args.out, splits)
    print(manifest)
    return EXIT_OK


def cmd_features(args) -> int:
    cfg = load_run_config(args.config)
    fcfg = cfg.feature_config()
    data = cfg["data"]
    manifest_path = _resolve_path(args.manifest, cfg, "manifest", "--manifest")
    manifest = read_manifest(manifest_path, data["sample_rate"], data["annotation_unit"])
    out_dir = Path(_resolve_path(args.out, cfg, "out_dir", "--out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    matrices = []
    stat_pool = []
    for entry in manifest.entries:
        wav = read_wav(entry.wav_path)
        if wav.sample_rate != manifest.sample_rate:
            raise ValueError(f"{entry.wav_path}: sample rate {wav.sample_rate} != "
                             f"{manifest.sample_rate}")
        feats = assemble_features(wav, fcfg, stats=None)
        matrices.append((entry, feats))
        if entry.split == "train":
            stat_pool.append(feats)
    if not stat_pool:
        stat_pool = [m for _, m in matrices]
    stats = corpus_stats(stat_pool)

    for entry, feats in matrices:
        write_features_bin(out_dir / f"{entry.key}.bin", feats)
        if args.csv:
            write_features_csv(out_dir / f"{entry.key}.csv", feats)
    write_stats(out_dir / "stats.csv", stats)
    print(f"wrote {len(matrices)} feature files and stats.csv to {out_dir}")
    return EXIT_OK


def _prepare_training_data(cfg, manifest):
    """Load, optionally split at non-speech, carve out validation, z-score."""
    fcfg = cfg.feature_config()
    data = cfg["data"]
    train = load_corpus(manifest, fcfg, split="train")
    val = load_corpus(manifest, fcfg, split="val")
    if data["split_nonspeech"]:
        kwargs = dict(nonspeech=data["nonspeech_symbols"],
                      min_run_ms=data["min_nonspeech_ms"],
                      max_lead_ms=data["max_lead_ms"])
        train = [p for u in train for p in split_nonspeech(u, **kwargs)]
        val = [p for u in val for p in split_nonspeech(u, **kwargs)]
    if not val:
        train, val = split_train_val(train, cfg["train"]["val_fraction"],
                                     cfg["train"]["val_seed"])
    if not train:
        raise ValueError("no training utterances after splitting")

    if not fcfg.normalize:
        return train, val, None, fcfg
    stats = corpus_stats([u.features for u in train])
    return zscore_utterances(train, stats), zscore_utterances(val, stats), stats, fcfg


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    data = cfg["data"]
    tcfg = cfg.train_config()
    manifest_path = _resolve_path(args.manifest, cfg, "manifest", "--manifest")
    manifest = read_manifest(manifest_path, data["sample_rate"], data["annotation_unit"])
    out_dir = Path(_resolve_path(args.out, cfg, "out_dir", "--out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    train, val, stats, fcfg = _prepare_training_data(cfg, manifest)
    inventory = ()
    if "phn" in tcfg.losses:
        inventory = tuple(sorted({sym for u in train + val for sym in u.phonemes}))
    mcfg = cfg.model_config(input_dim=fcfg.feature_dim, inventory=inventory,
                            with_bin="bin" in tcfg.losses)
    model = SegmentalModel(mcfg, fcfg, stats)

    print(f"training on {len(train)} utterances ({len(val)} validation), "
          f"losses={','.join(tcfg.losses)}")
    result = fit(train, val, model, tcfg)
    for log in result.logs:
        print(f"epoch {log.epoch:3d}  hinge {log.hinge:8.4f}  phn {log.phn:8.4f}  "
              f"bin {log.bin:8.4f}  val_f1 {100 * log.val_f1:6.2f}")

    write_epoch_logs(out_dir / "epochs.csv", result.logs)
    model.save(out_dir / "model_best.bin")  # fit leaves the best values loaded
    model.params.set_values(result.final_values)
    model.save(out_dir / "model_last.bin")

    if result.best_report is not None:  # the validation of model_best.bin's epoch
        print(result.best_report.as_text())
    print(f"checkpoints and epochs.csv written to {out_dir}")
    return EXIT_OK


def _load_recording(model, wav_path):
    """(path, WAV, features) of one recording at the model's rate."""
    wav = read_wav(wav_path)
    if wav.sample_rate != model.cfg.sample_rate:
        raise ValueError(f"{wav_path}: sample rate {wav.sample_rate} does not match "
                         f"the model's rate {model.cfg.sample_rate}")
    return wav_path, wav, assemble_features(wav, model.feature_cfg, model.stats)


def _write_segmentation(seg, recording, out_dir, textgrid):
    wav_path, wav, feats = recording
    times = seg.times(feats.frame_shift)
    key = Path(wav_path).stem
    out = Path(out_dir) / f"{key}.csv"
    write_boundaries_csv(out, times)
    if textgrid:
        write_textgrid(Path(out_dir) / f"{key}.TextGrid", times, wav.duration)


def cmd_segment(args) -> int:
    if args.k is not None and args.k < 1:
        raise ConfigError("--k must be >= 1")
    cfg = load_run_config(args.config)
    if (args.wav is None) == (args.manifest is None):
        raise ConfigError("provide exactly one of --wav or --manifest")
    model_path = _resolve_path(args.model, cfg, "model", "--model")
    model = SegmentalModel.load(model_path)
    out_dir = Path(_resolve_path(args.out, cfg, "out_dir", "--out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.wav is not None:
        recording = _load_recording(model, Path(args.wav))
        ctx = build_context(model, recording[2])
        if args.k is None:
            segmented = [(recording, dp_segment(ctx, model, max_seg_frames=None))]
        else:
            segmented = [(recording, dp_segment_k(ctx, model, args.k))]
    else:
        manifest = read_manifest(args.manifest, model.cfg.sample_rate,
                                 cfg["data"]["annotation_unit"])
        recordings = (_load_recording(model, e.wav_path) for e in manifest.entries)
        items = ((rec, rec[2]) for rec in recordings)
        # batched encoder scans (and DP sweeps); each output equals one --wav call's
        if args.k is None:
            segmented = dp_segment_many(model, items, dp_segment)
        else:
            segmented = ((rec, dp_segment_k(ctx, model, args.k))
                         for rec, ctx in build_contexts(model, items))
    count = 0
    for recording, (seg, _) in segmented:
        _write_segmentation(seg, recording, out_dir, args.textgrid)
        count += 1
    print(f"wrote boundaries for {count} utterance(s) to {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    data = cfg["data"]
    tolerance = args.tolerance if args.tolerance is not None else cfg["eval"]["tolerance"]
    if not tolerance >= 0:  # NaN fails too
        raise ConfigError("--tolerance must be >= 0")
    manifest = read_manifest(args.manifest, data["sample_rate"], data["annotation_unit"])
    entries = manifest.entries if args.split is None else manifest.split(args.split)
    if not entries:
        raise ValueError(f"no manifest entries for split {args.split!r}")

    pred_dir = Path(args.pred)
    preds = {}
    refs = {}
    for entry in entries:
        pred_path = pred_dir / f"{entry.key}.csv"
        if not pred_path.exists():
            raise ValueError(f"missing prediction file for utterance {entry.key!r}: {pred_path}")
        preds[entry.key] = read_boundaries_csv(pred_path)
        ann = read_annotation(entry.ann_path, manifest)
        refs[entry.key] = [start / manifest.sample_rate for start, _, _ in ann.segments[1:]]

    report = evaluate_times(preds, refs, TolerancePolicy(tolerance))
    print(report.as_text())
    csv_text = report.CSV_HEADER + "\n" + report.as_csv() + "\n"
    if args.out:
        Path(args.out).write_text(csv_text, encoding="ascii")
    else:
        print(csv_text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segfeat",
        description="Phoneme boundary detection with learned segmental features.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None)
    p.add_argument("--train", type=int, default=100)
    p.add_argument("--val", type=int, default=10)
    p.add_argument("--test", type=int, default=10)
    p.add_argument("--classes", type=int, default=SynthConfig.n_classes)
    p.add_argument("--min-segments", type=int, default=SynthConfig.segments_range[0])
    p.add_argument("--max-segments", type=int, default=SynthConfig.segments_range[1])
    p.add_argument("--min-duration", type=float, default=SynthConfig.duration_range[0])
    p.add_argument("--max-duration", type=float, default=SynthConfig.duration_range[1])
    p.add_argument("--noise", type=float, default=SynthConfig.noise_level)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="extract per-utterance features and corpus stats")
    p.add_argument("--manifest", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--csv", action="store_true", help="also write CSV dumps")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a model from a manifest")
    p.add_argument("--manifest", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="decode boundaries for wav input")
    p.add_argument("--model", default=None)
    p.add_argument("--wav", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--k", type=int, default=None,
                   help="decode with exactly K segments instead of a free count")
    p.add_argument("--textgrid", action="store_true")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="score predicted boundaries against a manifest")
    p.add_argument("--pred", required=True, help="directory of <key>.csv boundary files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--split", default=None, choices=("train", "val", "test"))
    p.add_argument("--out", default=None, help="write the CSV report here")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
