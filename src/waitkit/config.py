"""Plain-text key=value run configuration.

The config file is the single source of truth for an experiment; command
line key=value pairs override individual keys. Unknown keys are errors in
both places.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError
from .training import MODES, TrainConfig, read_lines
from .transformer import ModelConfig


def _bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_list(text):
    return [int(part) for part in text.split(",") if part.strip()]


# The command line name of a field whose own name means something else
# there: the data keys have their own max_len, the sentence length.
RENAMES = {"max_len": "max_seq_len", "lambda_distill": "lambda"}


def _fields(cls):
    """(config key, field) for each field of cls that the config sets; the
    vocabulary sizes come from the data."""
    return [(RENAMES.get(f.name, f.name), f) for f in fields(cls)
            if f.name not in ("src_vocab", "tgt_vocab")]


def _from_config(cls, cfg, **given):
    """A cls built from the config's keys, with the given fields set."""
    return cls(**{f.name: cfg[key] for key, f in _fields(cls)} | given)


# key -> (parser, default)
KEYS = {
    # data
    "task": (str, "copy"),                 # copy | lagged_map | files
    "vocab_size": (int, 32),
    "min_len": (int, 5),
    "max_len": (int, 12),
    "lag": (int, 2),
    "train_count": (int, 2000),
    "test_count": (int, 200),
    "data_dir": (str, "data"),
    "src_file": (str, ""),
    "tgt_file": (str, ""),
    "eval_src_file": (str, ""),
    "eval_tgt_file": (str, ""),
    # model and training: one key per field, with its default (k sets the
    # field of both)
    **{key: (_bool if isinstance(f.default, bool) else type(f.default),
             f.default)
       for cls in (ModelConfig, TrainConfig) for key, f in _fields(cls)},
    # outputs
    "checkpoint": (str, "model.ckpt"),
    "metrics": (str, "metrics.csv"),
    "report": (str, "eval.csv"),
    "traces": (str, ""),
    "matrix_out": (str, "k_matrix.csv"),
    "bench_out": (str, "bench.csv"),
    # evaluation / sweep grids
    "test_k": (int, 0),                    # 0 means: use the training k
    "train_ks": (_int_list, [1, 3, 5]),
    "test_ks": (_int_list, [1, 3, 5]),
    "bench_n": (_int_list, [16, 32, 64]),
    "bench_k": (_int_list, [1, 9]),
    "bench_trials": (int, 5),
}


def default_config():
    return {key: default for key, (_, default) in KEYS.items()}


def parse_value(key, text):
    if key not in KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    parser, _ = KEYS[key]
    try:
        return parser(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def load_config(path=None, overrides=()):
    """Defaults, then the file, then key=value override strings."""
    cfg = default_config()
    lines = read_lines(path, ConfigError) if path else []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, text = line.split("=", 1)
        cfg[key.strip()] = parse_value(key.strip(), text.strip())
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, text = item.split("=", 1)
        cfg[key] = parse_value(key, text)
    if cfg["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {MODES}")
    if cfg["test_k"] < 0:
        raise ConfigError("test_k must be >= 0 (0 means the training k)")
    for key in ("train_ks", "test_ks", "bench_n", "bench_k"):
        if not cfg[key]:
            raise ConfigError(f"{key} must list at least one value")
        if min(cfg[key]) < 1:
            raise ConfigError(f"{key} must hold positive values, "
                              f"got {min(cfg[key])}")
    return cfg


def model_config(cfg, src_vocab_size=None, tgt_vocab_size=None):
    size = cfg["vocab_size"]
    try:
        return _from_config(ModelConfig, cfg, src_vocab=src_vocab_size or size,
                            tgt_vocab=tgt_vocab_size or size)
    except ValueError as exc:
        raise ConfigError(f"model config: {exc}") from None


def train_config(cfg):
    return _from_config(TrainConfig, cfg)
