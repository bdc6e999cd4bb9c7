"""Command line entry point.

Subcommands: gen-data, train, eval, k-matrix, bench, decode. Every command
takes --config plus trailing key=value overrides. Exit codes: 0 success,
2 usage or configuration error, 3 I/O error, 4 numeric failure; a
WaitkitError carries its own (see errors.py).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import numpy as np

from . import config as cfgmod
from .bench import BLAS_THREAD_VARS, scaling_sweep
from .checkpoint import load_models, save_models
from .errors import CheckpointError, ConfigError, LengthError, WaitkitError
from .evaluation import evaluate_model, k_matrix
from .training import (SyntheticTaskSpec, generate_synthetic, load_corpus,
                       synthetic_vocab, train)
from .waitk import streaming_decode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3


def _data(cfg, split, vocabs=None):
    """(examples, src_vocab, tgt_vocab) of split, "train" or "test".

    task=files reads the split's files under vocabs, a (source, target)
    pair, or under vocabularies built from them when vocabs is None; the
    test split reads both eval files, or the training files when neither
    is set. A synthetic task draws from the config's vocabulary, which must
    have the size of vocabs (a checkpoint's) when they are given.
    """
    test = split == "test"
    if cfg["task"] == "files":
        prefix = "eval_" if test and (cfg["eval_src_file"]
                                      or cfg["eval_tgt_file"]) else ""
        src, tgt = cfg[prefix + "src_file"], cfg[prefix + "tgt_file"]
        if not src or not tgt:
            raise ConfigError(
                f"task=files needs {prefix}src_file and {prefix}tgt_file"
                + (f", not only {src or tgt}" if src or tgt else ""))
        return load_corpus(src, tgt, *(vocabs or ()))[:3]
    size = cfg["vocab_size"]
    if vocabs and {len(v) for v in vocabs} != {size}:
        raise CheckpointError(
            f"checkpoint vocabularies hold {len(vocabs[0])} and "
            f"{len(vocabs[1])} tokens, config says vocab_size={size}")
    cfgmod.model_config(cfg)    # the size bound, before the vocabulary
    spec = SyntheticTaskSpec(kind=cfg["task"], vocab_size=size,
                             min_len=cfg["min_len"], max_len=cfg["max_len"],
                             lag=cfg["lag"], seed=cfg["seed"] + test)
    examples = generate_synthetic(
        spec, cfg["test_count" if test else "train_count"])
    vocab = synthetic_vocab(size)
    return examples, vocab, vocab


def _check_run(cfg, *outputs):
    """Refuse a training run before it draws data or takes a step: the
    directory of each output path key in outputs must exist, or the OSError
    that opening the file would raise is raised now; and a synthetic task
    may not draw a sentence train() would refuse."""
    for key in outputs:
        try:
            os.stat(os.path.join(os.path.dirname(cfg[key]) or ".", ""))
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, cfg[key]) from None
    if cfg["task"] != "files" and cfg["max_len"] + 1 > cfg["max_seq_len"]:
        raise LengthError(
            f"synthetic sentences of up to {cfg['max_len']} tokens (target "
            f"length {cfg['max_len']} plus bos) exceed maximum "
            f"{cfg['max_seq_len']}")


def cmd_gen_data(cfg):
    if cfg["task"] == "files":
        raise ConfigError("gen-data only applies to synthetic tasks")
    # Both splits are drawn before any file is opened, so a bad split
    # writes nothing.
    splits = {split: _data(cfg, split)[:2] for split in ("train", "test")}
    os.makedirs(cfg["data_dir"], exist_ok=True)
    for split, (examples, vocab) in splits.items():
        base = os.path.join(cfg["data_dir"], split)
        files = {"src": [vocab.decode(ex.src) for ex in examples],
                 "tgt": [vocab.decode(ex.tgt) for ex in examples],
                 "align": [[f"{i}-{j}" for i, j in ex.alignment]
                           for ex in examples]}
        for ext, rows in files.items():
            with open(f"{base}.{ext}", "w", encoding="utf-8") as fh:
                fh.writelines(" ".join(row) + "\n" for row in rows)
        print(f"wrote {len(examples)} examples to {base}.{{src,tgt,align}}")
    return EXIT_OK


def cmd_train(cfg):
    _check_run(cfg, "checkpoint", "metrics")
    examples, src_vocab, tgt_vocab = _data(cfg, "train")
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


def cmd_eval(cfg):
    teacher, student, src_vocab, tgt_vocab, meta = load_models(cfg["checkpoint"])
    if cfg["task"] != meta.get("task", cfg["task"]):
        raise CheckpointError(
            f"checkpoint was trained on task {meta.get('task')!r}, "
            f"config says {cfg['task']!r}"
        )
    examples = _data(cfg, "test", (src_vocab, tgt_vocab))[0]
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
    _check_run(cfg, "matrix_out")
    examples, vocab, _ = _data(cfg, "train")
    test_examples = _data(cfg, "test")[0]
    students = {}
    for train_k in cfg["train_ks"]:
        run_cfg = {**cfg, "k": train_k}
        model_cfg = cfgmod.model_config(run_cfg, len(vocab), len(vocab))
        _, student, _ = train(examples, model_cfg, cfgmod.train_config(run_cfg))
        students[train_k] = student
    matrix = k_matrix(students, cfg["test_ks"], test_examples,
                      csv_path=cfg["matrix_out"])
    print(f"{matrix.shape[0]}x{matrix.shape[1]} matrix at {cfg['matrix_out']}")
    return EXIT_OK


def cmd_bench(cfg, argv):
    """Time on one BLAS thread: unless each of BLAS_THREAD_VARS is 1, rerun
    `waitkit argv` in a child where they are (a loaded BLAS keeps its
    threads), which writes to this process's stdout and stderr, and return
    its exit code."""
    model_cfg = cfgmod.model_config(cfg)
    if any(os.environ.get(name) != "1" for name in BLAS_THREAD_VARS):
        env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
        return subprocess.run([sys.executable, "-m", "waitkit.cli", *argv],
                              env=env).returncode
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
        sep = ""

        def emit(token):
            nonlocal sep
            out.write(sep + tgt_vocab.tokens[token])
            out.flush()
            sep = " "

        if words := line.split():
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
            if args.command == "bench":
                return cmd_bench(cfg, sys.argv[1:] if argv is None else argv)
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
