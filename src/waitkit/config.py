"""Plain-text key=value run configuration.

The config file is the single source of truth for an experiment; command
line key=value pairs override individual keys. Unknown keys are errors in
both places.
"""

from __future__ import annotations

from .errors import ConfigError
from .training import MODES, SyntheticTaskSpec, TrainConfig, read_lines
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
    # model
    "n_layers": (int, 2),
    "d_model": (int, 32),
    "n_heads": (int, 2),
    "d_ff": (int, 64),
    "max_seq_len": (int, 64),
    "k": (int, 3),
    # training
    "lambda": (float, 0.1),
    "lr": (float, 1e-3),
    "beta1": (float, 0.9),
    "beta2": (float, 0.98),
    "adam_eps": (float, 1e-9),
    "batch_size": (int, 16),
    "max_steps": (int, 2000),
    "seed": (int, 0),
    "mode": (str, "joint"),
    "distill_detach_teacher": (_bool, False),
    "early_stop_loss": (float, 0.0),
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
        return ModelConfig(
            n_layers=cfg["n_layers"],
            d_model=cfg["d_model"],
            n_heads=cfg["n_heads"],
            d_ff=cfg["d_ff"],
            src_vocab=src_vocab_size or size,
            tgt_vocab=tgt_vocab_size or size,
            max_len=cfg["max_seq_len"],
            k=cfg["k"],
        )
    except ValueError as exc:
        raise ConfigError(f"model config: {exc}") from None


def train_config(cfg, k=None):
    return TrainConfig(
        lambda_distill=cfg["lambda"],
        lr=cfg["lr"],
        beta1=cfg["beta1"],
        beta2=cfg["beta2"],
        adam_eps=cfg["adam_eps"],
        batch_size=cfg["batch_size"],
        max_steps=cfg["max_steps"],
        seed=cfg["seed"],
        mode=cfg["mode"],
        k=cfg["k"] if k is None else k,
        distill_detach_teacher=cfg["distill_detach_teacher"],
        early_stop_loss=cfg["early_stop_loss"],
    )


def task_spec(cfg, seed_offset=0):
    return SyntheticTaskSpec(
        kind=cfg["task"],
        vocab_size=cfg["vocab_size"],
        min_len=cfg["min_len"],
        max_len=cfg["max_len"],
        lag=cfg["lag"],
        seed=cfg["seed"] + seed_offset,
    )
