"""Run configuration: sectioned key=value files with environment overrides.

Files are INI-style ('key = value' lines under [section] headers). Any key
can be overridden with SEGFEAT_<SECTION>_<KEY> in the environment. Unknown
sections or keys are rejected up front. The [features], [model] and [train]
keys, their types and their defaults are the fields of FeatureConfig,
ModelConfig and TrainConfig; the other keys read their defaults from the library.
"""

from __future__ import annotations

import configparser
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields

from .data import (ANNOTATION_UNITS, MAX_LEAD_MS, MIN_NONSPEECH_MS, NONSPEECH_SYMBOLS,
                   VAL_FRACTION, VAL_SEED, CorpusManifest)
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


def _parser(default):
    """The parser that turns a config string into a value of the default's type."""
    if isinstance(default, bool):
        return _bool
    if default is None:
        return _opt_int
    if isinstance(default, tuple):
        return _str_list if isinstance(default[0], str) else _int_list
    return type(default)


def _fields_schema(cls, skip=()):
    """key -> (parser, default) for each field of a config dataclass, in field
    order; the fields in `skip` are filled in by the CLI, not by the config."""
    return {f.name: (_parser(f.default), f.default) for f in fields(cls) if f.name not in skip}


# [train] keys for the CLI's train/val split; every other [train] key is a
# TrainConfig field
_SPLIT_KEYS = {"val_fraction": (float, VAL_FRACTION), "val_seed": (int, VAL_SEED)}

# section -> key -> (parser, default)
SCHEMA = {
    "features": _fields_schema(FeatureConfig),
    "model": _fields_schema(ModelConfig, skip=("input_dim", "inventory", "with_bin",
                                               "sample_rate")),
    "train": {**_fields_schema(TrainConfig, skip=("tolerance",)), **_SPLIT_KEYS},
    "data": {
        "sample_rate": (int, ModelConfig.sample_rate),
        "annotation_unit": (str, CorpusManifest.annotation_unit),
        "split_nonspeech": (_bool, False),
        "nonspeech_symbols": (_str_list, NONSPEECH_SYMBOLS),
        "min_nonspeech_ms": (float, MIN_NONSPEECH_MS),
        "max_lead_ms": (float, MAX_LEAD_MS),
    },
    "eval": {
        "tolerance": (float, TrainConfig.tolerance),
    },
    "paths": {
        "manifest": (str, ""),
        "out_dir": (str, ""),
        "model": (str, ""),
    },
}


@contextmanager
def _config_errors():
    """Report a config dataclass's ValueError as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class RunConfig:
    values: dict  # section -> key -> parsed value

    def __getitem__(self, section):
        return self.values[section]

    def feature_config(self) -> FeatureConfig:
        with _config_errors():
            return FeatureConfig(**self.values["features"])

    def model_config(self, input_dim: int, inventory=(), with_bin=False) -> ModelConfig:
        with _config_errors():
            return ModelConfig(input_dim=input_dim, inventory=inventory, with_bin=with_bin,
                               sample_rate=self.values["data"]["sample_rate"],
                               **self.values["model"])

    def train_config(self) -> TrainConfig:
        t = {k: v for k, v in self.values["train"].items() if k not in _SPLIT_KEYS}
        with _config_errors():
            return TrainConfig(tolerance=self.values["eval"]["tolerance"], **t)


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
    fcfg = cfg.feature_config()
    cfg.model_config(input_dim=fcfg.feature_dim)
    cfg.train_config()
    data = values["data"]
    if data["sample_rate"] < 1:
        raise ConfigError("sample_rate must be >= 1")
    with _config_errors():
        fcfg.check_rate(data["sample_rate"])
    # written so that NaN fails each check
    if not (0 <= data["min_nonspeech_ms"] < math.inf and 0 <= data["max_lead_ms"] < math.inf):
        raise ConfigError("min_nonspeech_ms and max_lead_ms must be >= 0 and finite")
    if data["annotation_unit"] not in ANNOTATION_UNITS:
        raise ConfigError(f"annotation_unit must be one of {ANNOTATION_UNITS}")
    if not 0.0 <= values["train"]["val_fraction"] < 1.0:
        raise ConfigError("val_fraction must be in [0, 1)")
    return cfg
