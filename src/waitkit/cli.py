"""Command line entry point.

Subcommands: gen-data, train, eval, k-matrix, bench, decode. Every command
takes --config plus trailing key=value overrides, checks the directory of
each output path before it works, and writes its files from what the
library functions return. Exit codes: 0 success, 2 usage or
configuration error, 3 I/O error, 4 numeric failure; a WaitkitError
carries its own (see errors.py).
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys

import numpy as np

from . import config as cfgmod
from .bench import BLAS_THREAD_VARS, scaling_sweep
from .checkpoint import load_models, save_models
from .errors import CheckpointError, ConfigError, LengthError, WaitkitError
from .evaluation import evaluate_model, k_matrix
from .training import (METRICS_HEADER, SyntheticTaskSpec, generate_synthetic,
                       load_corpus, synthetic_vocab, train)
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


def _check_outputs(cfg, *keys):
    """Raise now the OSError that opening the output path cfg[key] of each
    of keys would raise because its directory is missing or not a
    directory; an empty path (traces=) names no file."""
    for path in filter(None, (cfg[key] for key in keys)):
        try:
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None


def _check_run(cfg, *outputs):
    """Refuse a training run before it draws data or takes a step: check
    the output path keys in outputs, and refuse a synthetic task that may
    draw a sentence train() would refuse."""
    _check_outputs(cfg, *outputs)
    if cfg["task"] != "files" and cfg["max_len"] + 1 > cfg["max_seq_len"]:
        raise LengthError(
            f"synthetic sentences of up to {cfg['max_len']} tokens (target "
            f"length {cfg['max_len']} plus bos) exceed maximum "
            f"{cfg['max_seq_len']}")


def _write_csv(path, header, rows):
    """Write the header row, then rows, to the CSV file path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    teacher, student, rows = train(examples, model_cfg, train_cfg)
    _write_csv(cfg["metrics"], METRICS_HEADER,
               [(row[0], *(f"{v:.6f}" for v in row[1:])) for row in rows])
    meta = {"train_k": train_cfg.k, "mode": train_cfg.mode,
            "seed": train_cfg.seed, "task": cfg["task"]}
    save_models(cfg["checkpoint"], teacher, student, src_vocab, tgt_vocab,
                meta)
    print(f"trained {len(rows)} steps; checkpoint at {cfg['checkpoint']}")
    return EXIT_OK


def cmd_eval(cfg):
    _check_outputs(cfg, "report", "traces")
    teacher, student, src_vocab, tgt_vocab, meta = load_models(cfg["checkpoint"])
    if cfg["task"] != meta.get("task", cfg["task"]):
        raise CheckpointError(
            f"checkpoint was trained on task {meta.get('task')!r}, "
            f"config says {cfg['task']!r}"
        )
    examples = _data(cfg, "test", (src_vocab, tgt_vocab))[0]
    k = cfg["test_k"] or student.cfg.k
    report = evaluate_model(student, examples, k, teacher=teacher)
    if cfg["traces"]:
        with open(cfg["traces"], "w", encoding="utf-8") as fh:
            fh.writelines(trace.to_json_line() + "\n"
                          for trace in report.traces)
    _write_csv(cfg["report"], report.FIELDS, [[
        *(f"{getattr(report, name):.4f}" for name in report.FIELDS[:4]),
        f"{report.mean_hidden_l2:.6f}", report.sentences]])
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
    matrix = k_matrix(students, cfg["test_ks"], test_examples)
    _write_csv(cfg["matrix_out"],
               ["train_k"] + [f"test_k={k}" for k in cfg["test_ks"]],
               [[train_k] + [f"{v:.4f}" for v in row]
                for train_k, row in zip(students, matrix)])
    print(f"{matrix.shape[0]}x{matrix.shape[1]} matrix at {cfg['matrix_out']}")
    return EXIT_OK


def cmd_bench(cfg, argv):
    """Time on one BLAS thread: unless each of BLAS_THREAD_VARS is 1, rerun
    `waitkit argv` in a child where they are (a loaded BLAS keeps its
    threads), which writes to this process's stdout and stderr, and return
    its exit code. bench_out is checked before the child starts."""
    _check_outputs(cfg, "bench_out")
    model_cfg = cfgmod.model_config(cfg)
    if any(os.environ.get(name) != "1" for name in BLAS_THREAD_VARS):
        env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
        return subprocess.run([sys.executable, "-m", "waitkit.cli", *argv],
                              env=env).returncode
    results = scaling_sweep(cfg["bench_n"], cfg["bench_k"], model_cfg,
                            trials=cfg["bench_trials"])
    _write_csv(cfg["bench_out"],
               ["variant", "n", "T", "k", "median_secs", "mac_count"],
               [[r.variant, r.n, r.t_steps, r.k, f"{r.median_secs:.6f}",
                 r.mac_count] for r in results])
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
