"""Run configuration: sectioned key=value files with environment overrides.

Files are INI-style ('key = value' lines under [section] headers). Any key
can be overridden with SEGFEAT_<SECTION>_<KEY> in the environment. Unknown
sections or keys are rejected up front.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .features import FeatureConfig
from .model import ModelConfig
from .train import TrainConfig


class ConfigError(Exception):
    """Invalid configuration (bad key, bad value, or bad combination)."""


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _int_list(s: str):
    return tuple(int(x) for x in s.replace(",", " ").split())


def _str_list(s: str):
    return tuple(x for x in s.replace(",", " ").split())


def _opt_int(s: str):
    return None if s.strip().lower() in ("", "none", "auto") else int(s)


# section -> key -> (parser, default)
SCHEMA = {
    "features": {
        "frame_shift": (float, 0.010),
        "window_length": (float, 0.010),
        "n_mfcc": (int, 13),
        "n_mel_filters": (int, 26),
        "n_fft": (_opt_int, None),
        "delta_window": (int, 2),
        "spectral_js": (_int_list, (1, 2, 3, 4)),
        "normalize": (_bool, True),
    },
    "model": {
        "hidden_size": (int, 64),
        "num_layers": (int, 2),
        "shared_head": (_bool, False),
        "mean_bigram": (_bool, False),
        "include_end_spans": (_bool, True),
        "forget_bias": (float, 1.0),
        "seed": (int, 0),
    },
    "train": {
        "epochs": (int, 150),
        "learning_rate": (float, 1e-4),
        "beta1": (float, 0.9),
        "beta2": (float, 0.999),
        "eps": (float, 1e-8),
        "losses": (_str_list, ("segfeat",)),
        "lambda_phn": (float, 1.0),
        "lambda_bin": (float, 1.0),
        "batch_size": (int, 1),
        "shuffle_seed": (int, 0),
        "patience": (int, 0),
        "max_seg_frames": (int, 50),
        "grad_clip": (float, 5.0),
        "val_fraction": (float, 0.10),
        "val_seed": (int, 0),
    },
    "data": {
        "sample_rate": (int, 16000),
        "annotation_unit": (str, "samples"),
        "split_nonspeech": (_bool, False),
        "nonspeech_symbols": (_str_list, ("sil", "noise", "iva")),
        "min_nonspeech_ms": (float, 100.0),
        "max_lead_ms": (float, 20.0),
    },
    "eval": {
        "tolerance": (float, 0.020),
    },
    "paths": {
        "manifest": (str, ""),
        "out_dir": (str, ""),
        "model": (str, ""),
    },
}


@dataclass
class RunConfig:
    values: dict  # section -> key -> parsed value

    def __getitem__(self, section):
        return self.values[section]

    def feature_config(self) -> FeatureConfig:
        f = self.values["features"]
        try:
            return FeatureConfig(**f)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def model_config(self, input_dim: int, inventory=(), with_bin=False) -> ModelConfig:
        m = self.values["model"]
        try:
            return ModelConfig(input_dim=input_dim, inventory=inventory, with_bin=with_bin,
                               sample_rate=self.values["data"]["sample_rate"], **m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def train_config(self) -> TrainConfig:
        t = dict(self.values["train"])
        t.pop("val_fraction")
        t.pop("val_seed")
        try:
            return TrainConfig(tolerance=self.values["eval"]["tolerance"], **t)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def load_run_config(path=None, env=None) -> RunConfig:
    """Defaults, then the config file (if any), then SEGFEAT_* overrides."""
    env = os.environ if env is None else env
    raw = {section: {} for section in SCHEMA}

    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path, "r", encoding="utf-8") as f:
                parser.read_file(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}")
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                raw[section][key] = value

    for section, keys in SCHEMA.items():
        for key in keys:
            env_name = f"SEGFEAT_{section.upper()}_{key.upper()}"
            if env_name in env:
                raw[section][key] = env[env_name]

    values = {}
    for section, keys in SCHEMA.items():
        values[section] = {}
        for key, (parse, default) in keys.items():
            if key in raw[section]:
                try:
                    values[section][key] = parse(raw[section][key])
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {exc}")
            else:
                values[section][key] = default

    cfg = RunConfig(values)
    # validate the derived dataclasses eagerly so errors surface before any work
    cfg.feature_config()
    cfg.model_config(input_dim=cfg.feature_config().feature_dim)
    cfg.train_config()
    data = values["data"]
    if data["sample_rate"] < 1:
        raise ConfigError("sample_rate must be >= 1")
    try:
        cfg.feature_config().check_rate(data["sample_rate"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # written so that NaN fails each check
    if not (0 <= data["min_nonspeech_ms"] < math.inf and 0 <= data["max_lead_ms"] < math.inf):
        raise ConfigError("min_nonspeech_ms and max_lead_ms must be >= 0 and finite")
    if data["annotation_unit"] not in ("samples", "seconds"):
        raise ConfigError("annotation_unit must be 'samples' or 'seconds'")
    if not 0.0 <= values["train"]["val_fraction"] < 1.0:
        raise ConfigError("val_fraction must be in [0, 1)")
    return cfg
