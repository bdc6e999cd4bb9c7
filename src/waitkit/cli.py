"""Command line entry point.

Subcommands: gen-data, train, eval, k-matrix, bench, decode. Every command
takes --config plus trailing key=value overrides. Exit codes: 0 success,
2 usage or configuration error, 3 I/O error, 4 numeric failure; a
WaitkitError carries its own (see errors.py).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from .bench import scaling_sweep
from .checkpoint import load_models, save_models
from .errors import CheckpointError, ConfigError, WaitkitError
from .evaluation import evaluate_model, k_matrix
from .training import generate_synthetic, load_corpus, synthetic_vocab, train
from .waitk import streaming_decode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3


def _load_synthetic(cfg, split):
    cfgmod.model_config(cfg)    # the size bound, before the vocabulary
    spec = cfgmod.task_spec(cfg, seed_offset=0 if split == "train" else 1)
    count = cfg["train_count"] if split == "train" else cfg["test_count"]
    return generate_synthetic(spec, count), synthetic_vocab(cfg["vocab_size"])


def _train_data(cfg):
    if cfg["task"] == "files":
        if not cfg["src_file"] or not cfg["tgt_file"]:
            raise ConfigError("task=files needs src_file and tgt_file")
        examples, sv, tv, _ = load_corpus(cfg["src_file"], cfg["tgt_file"])
        return examples, sv, tv
    examples, vocab = _load_synthetic(cfg, "train")
    return examples, vocab, vocab


def cmd_gen_data(cfg):
    if cfg["task"] == "files":
        raise ConfigError("gen-data only applies to synthetic tasks")
    # Both splits are drawn before any file is opened, so a bad split
    # writes nothing.
    splits = {split: _load_synthetic(cfg, split) for split in ("train", "test")}
    os.makedirs(cfg["data_dir"], exist_ok=True)
    for split, (examples, vocab) in splits.items():
        base = os.path.join(cfg["data_dir"], split)
        with open(base + ".src", "w", encoding="utf-8") as fh:
            for ex in examples:
                fh.write(" ".join(vocab.decode(ex.src)) + "\n")
        with open(base + ".tgt", "w", encoding="utf-8") as fh:
            for ex in examples:
                fh.write(" ".join(vocab.decode(ex.tgt)) + "\n")
        with open(base + ".align", "w", encoding="utf-8") as fh:
            for ex in examples:
                fh.write(
                    " ".join(f"{i}-{j}" for i, j in ex.alignment) + "\n"
                )
        print(f"wrote {len(examples)} examples to {base}.{{src,tgt,align}}")
    return EXIT_OK


def cmd_train(cfg):
    examples, src_vocab, tgt_vocab = _train_data(cfg)
    model_cfg = cfgmod.model_config(cfg, len(src_vocab), len(tgt_vocab))
    train_cfg = cfgmod.train_config(cfg)
    teacher, student, rows = train(
        examples, model_cfg, train_cfg, metrics_path=cfg["metrics"]
    )
    meta = {"train_k": train_cfg.k, "mode": train_cfg.mode,
            "seed": train_cfg.seed, "task": cfg["task"]}
    save_models(cfg["checkpoint"], teacher, student, src_vocab, tgt_vocab,
                meta)
    print(f"trained {len(rows)} steps; checkpoint at {cfg['checkpoint']}")
    return EXIT_OK


def _eval_data(cfg, src_vocab, tgt_vocab):
    if cfg["task"] == "files":
        src = cfg["eval_src_file"] or cfg["src_file"]
        tgt = cfg["eval_tgt_file"] or cfg["tgt_file"]
        if not src or not tgt:
            raise ConfigError("task=files needs eval_src_file and eval_tgt_file")
        examples, _, _, _ = load_corpus(src, tgt, src_vocab, tgt_vocab)
        return examples
    examples, _ = _load_synthetic(cfg, "test")
    return examples


def cmd_eval(cfg):
    teacher, student, src_vocab, tgt_vocab, meta = load_models(cfg["checkpoint"])
    if cfg["task"] != meta.get("task", cfg["task"]):
        raise CheckpointError(
            f"checkpoint was trained on task {meta.get('task')!r}, "
            f"config says {cfg['task']!r}"
        )
    examples = _eval_data(cfg, src_vocab, tgt_vocab)
    k = cfg["test_k"] or student.cfg.k
    report = evaluate_model(
        student, examples, k, teacher=teacher,
        trace_path=cfg["traces"] or None,
    )
    report.to_csv(cfg["report"])
    print(
        f"BLEU {report.corpus_bleu:.2f}  AL {report.mean_al:.2f}  "
        f"sentences {report.sentences}  report at {cfg['report']}"
    )
    return EXIT_OK


def cmd_k_matrix(cfg):
    if cfg["task"] == "files":
        raise ConfigError("k-matrix runs on synthetic tasks")
    examples, vocab = _load_synthetic(cfg, "train")
    test_examples, _ = _load_synthetic(cfg, "test")
    model_cfg = cfgmod.model_config(cfg, len(vocab), len(vocab))
    students = {}
    for train_k in cfg["train_ks"]:
        train_cfg = cfgmod.train_config(cfg, k=train_k)
        _, student, _ = train(examples, model_cfg, train_cfg)
        students[train_k] = student
    matrix = k_matrix(students, cfg["test_ks"], test_examples,
                      csv_path=cfg["matrix_out"])
    print(f"{matrix.shape[0]}x{matrix.shape[1]} matrix at {cfg['matrix_out']}")
    return EXIT_OK


def cmd_bench(cfg):
    model_cfg = cfgmod.model_config(cfg)
    results = scaling_sweep(cfg["bench_n"], cfg["bench_k"], model_cfg,
                            csv_path=cfg["bench_out"],
                            trials=cfg["bench_trials"])
    print(f"{len(results)} rows at {cfg['bench_out']}")
    return EXIT_OK


def cmd_decode(cfg):
    _, student, src_vocab, tgt_vocab, _ = load_models(cfg["checkpoint"])
    k = cfg["test_k"] or student.cfg.k
    out = sys.stdout
    for line in sys.stdin:
        words = line.split()
        if not words:
            out.write("\n")
            out.flush()
            continue
        emitted = 0

        def emit(token):
            nonlocal emitted
            out.write(("" if emitted == 0 else " ") + tgt_vocab.tokens[token])
            out.flush()
            emitted += 1

        streaming_decode(student, iter(src_vocab.encode(words)), k,
                         on_emit=emit)
        out.write("\n")
        out.flush()
    return EXIT_OK


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "k-matrix": cmd_k_matrix,
    "bench": cmd_bench,
    "decode": cmd_decode,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="waitkit",
        description="wait-k simultaneous translation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="individual config overrides")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    # A non-finite value ends in NumericalError's one line, not in numpy's
    # overflow warnings before it.
    try:
        with np.errstate(all="ignore"):
            cfg = cfgmod.load_config(args.config, args.overrides)
            return COMMANDS[args.command](cfg)
    except WaitkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
