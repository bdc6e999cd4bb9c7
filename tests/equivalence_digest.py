"""SHA-256 digests of training, decoding and cost counts, to compare two
source trees bit for bit.

Run once per tree and compare the printed lines:

    PYTHONPATH=<tree>/src python tests/equivalence_digest.py

Each line is a name, a digest and the multiply-accumulates counted while it
ran. It covers 60 joint train() steps and 60 + 60 pretrain_fixed_teacher
steps, in three lines each: the trained parameters, the step and loss
columns of the metric rows, and their grad_norm column. It covers too the
pushed state rows and the streamed logits over the 60 random models of
test_array_mode.py, in one line, and the ids they emit, in another
(decode_tokens), the tape entries of train_joint-shaped steps, the bytes
the command line writes for a small copy-task run, those it writes
generating a corpus and training and evaluating on its files, each public
op of tensor.py on fixed inputs, recorded and not, the MAC count of
bench_forward per variant, and the evaluation reports of a lagged_map
corpus, where some tokens are emitted before their aligned source token is
read.
Pytest does not collect this file (its name does not start with test_).
"""

import csv
import hashlib
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from waitkit import tensor as T
from waitkit.bench import VARIANTS, bench_forward
from waitkit.cli import main as cli_main
from waitkit.evaluation import evaluate_model
from waitkit.training import (Adam, SyntheticTaskSpec, TrainConfig,
                              generate_synthetic, train, train_step)
from waitkit.transformer import IncrementalModel, ModelConfig, TeacherModel

from test_array_mode import random_model

TRAIN_CFG = ModelConfig(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                        src_vocab=32, tgt_vocab=32, k=3)


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def array(self, x):
        x = np.ascontiguousarray(x)
        self.sha.update(f"{x.dtype}{x.shape}".encode())
        self.sha.update(x.tobytes())

    def floats(self, values):
        self.sha.update(" ".join(float(v).hex() for v in values).encode())

    def hexdigest(self):
        return self.sha.hexdigest()


def copy_examples(count, seed):
    return generate_synthetic(SyntheticTaskSpec(
        kind="copy", vocab_size=32, min_len=5, max_len=12, seed=seed), count)


def training_digest(mode):
    """Three digests of 60 train() steps per phase: {"_params": the
    trained parameters, "_losses": the step and loss columns of the metric
    rows, "_grad_norm": their grad_norm column}."""
    teacher, student, rows = train(
        copy_examples(256, 0), TRAIN_CFG,
        TrainConfig(max_steps=60, batch_size=16, k=3, mode=mode, seed=0))
    params, losses, norms = Digest(), Digest(), Digest()
    for model in (teacher, student):
        for name, p in model.named_parameters().items():
            params.sha.update(name.encode())
            params.array(p.values)
    for *columns, norm in rows:
        losses.floats(columns)
        norms.floats([norm])
    return {"_params": params.hexdigest(), "_losses": losses.hexdigest(),
            "_grad_norm": norms.hexdigest()}


def decode_digest():
    """The loop of test_streamed_and_reused_logits_equal_reference, without
    the reference: {"_suite": each pushed state row and each streamed logit
    row, "_tokens": the ids the loop emits, which a refactor that moves the
    logits' last bits may still leave identical}."""
    digest, tokens = Digest(), Digest()
    for block in range(4):
        rng = np.random.default_rng(100 + block)
        for trial in range(15):
            model, src = random_model(rng, 15 * block + trial)
            k, n = model.cfg.k, len(src)
            stream = model.start_stream()
            prefix = [1]
            for s in range(1, min(2 * n + 5, 48) + 1):
                while stream.count < min(k + s - 1, n):
                    digest.array(stream.push(src[stream.count]))
                logits = model.decode_step(prefix, stream).values
                digest.array(logits)
                prefix.append(int(np.argmax(logits)))
            tokens.array(np.array(prefix))
    return {"_suite": digest.hexdigest(), "_tokens": tokens.hexdigest()}


def tape_entries():
    """Tape entries of train_step on the train_joint shape, one batch of
    16 sentences per source length 5, 8 and 12."""
    teacher, student = TeacherModel(TRAIN_CFG, 0), IncrementalModel(
        TRAIN_CFG, 1)
    optimizer = Adam(teacher.parameters() + student.parameters())
    lengths = []
    backward = T.Tape.backward

    def counting(tape, loss):
        lengths.append(len(tape))
        return backward(tape, loss)

    T.Tape.backward = counting
    try:
        for length in (5, 8, 12):
            batch = generate_synthetic(SyntheticTaskSpec(
                kind="copy", vocab_size=32, min_len=length, max_len=length,
                seed=length), 16)
            train_step(teacher, student, batch, optimizer, TrainConfig(k=3))
    finally:
        T.Tape.backward = backward
    return " ".join(map(str, lengths))


def op_inputs(rng):
    """{op name: (operands, other arguments)} of every op in tensor.__all__;
    each operand is an array that becomes a leaf requiring grad."""
    def r(*shape):
        return rng.normal(size=shape)

    a, mask = r(2, 3, 4), rng.random((3, 5)) < 0.7
    mask[:, 0] = True
    return {
        "add": ([a, r(1, 4)], []),
        "scale": ([a], [0.5]),
        "matmul": ([a, r(4, 5)], []),
        "linear": ([a, r(5, 4), r(5)], []),
        "relu": ([a], []),
        "transpose_last": ([a], []),
        "tslice": ([a], [(slice(None), slice(0, 2))]),
        "gather_rows": ([a], [[2, 0, 2], 1]),
        "embedding": ([r(4, 5)], [[[1, 3], [0, 0]]]),
        "masked_cumulative_mean": ([a], []),
        "attention": ([r(2, 3, 4), r(2, 5, 4), r(2, 5, 4)], [2, 0.5, mask]),
        "layer_norm": ([a, r(4), r(4)], []),
        "cross_entropy": ([r(2, 3, 6)], [[[0, 1, 5], [3, 0, 1]],
                                         [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]]),
        "l2_distance_loss": ([a, r(2, 3, 4)], []),
        "detach": ([a], []),
    }


def ops_digest():
    """Each op in tensor.__all__ on the fixed inputs of op_inputs: its value
    and requires_grad with no Tape and under one, the leaf gradients that
    backward gives for the op's value (or, when it is not a scalar, its
    l2_distance_loss to a fixed target) and the MACs the op counted."""
    digest = Digest()
    inputs = op_inputs(np.random.default_rng(7))
    for name in T.__all__:
        if name[0].isupper() or name in ("no_grad", "mac_counter",
                                         "as_tensor"):
            continue
        op, (arrays, rest) = getattr(T, name), inputs[name]
        leaves = [T.Tensor(x.copy(), requires_grad=True) for x in arrays]
        before = T.mac_counter.count
        plain = op(*leaves, *rest)
        with T.Tape() as tape:
            out = op(*leaves, *rest)
            loss = out if out.values.size == 1 else T.l2_distance_loss(
                out, np.random.default_rng(8).normal(size=out.shape))
            tape.backward(loss)
        digest.sha.update(f"{name} {plain.requires_grad} {out.requires_grad}"
                          f" {T.mac_counter.count - before}".encode())
        for x in (plain.values, out.values, *(t.grad for t in leaves)):
            digest.array(x)
    return digest.hexdigest()


def bench_macs():
    """mac_count of one bench_forward of each variant at (n, k) = (6, 2)
    and (9, 4): the one-shot incremental_states path among them."""
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                      src_vocab=20, tgt_vocab=20, max_len=16)
    return " ".join(str(bench_forward(variant, n, k, cfg, trials=1).mac_count)
                    for n, k in ((6, 2), (9, 4)) for variant in VARIANTS)


def eval_split_digest():
    """The EvalReport fields, by float.hex, of evaluate_model on 40
    lagged_map sentences (lag 2, lengths 4-9) by a seeded untrained student
    at k = 1, 2 and 3; below k = 3 some tokens are absent."""
    dataset = generate_synthetic(SyntheticTaskSpec(
        kind="lagged_map", vocab_size=32, min_len=4, max_len=9, lag=2,
        seed=5), 40)
    student = IncrementalModel(TRAIN_CFG, 5)
    digest = Digest()
    for k in (1, 2, 3):
        report = evaluate_model(student, dataset, k)
        digest.floats(getattr(report, field) for field in report.FIELDS)
    return digest.hexdigest()


# The model and data of the command line digests.
CLI_BASE = ["vocab_size=16", "min_len=3", "max_len=6", "train_count=64",
            "test_count=8", "d_model=16", "d_ff=32", "batch_size=16", "k=2",
            "seed=0", "max_seq_len=16"]


def run_cli(command, *args):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        if cli_main([command, *CLI_BASE, *args]) != 0:
            raise SystemExit(f"waitkit {command} failed")


def output_files(tmp):
    """{config key: path in tmp} of every file a command writes."""
    return {key: os.path.join(tmp, name) for key, name in (
        ("checkpoint", "model.ckpt"), ("metrics", "metrics.csv"),
        ("report", "eval.csv"), ("traces", "traces.jsonl"),
        ("matrix_out", "matrix.csv"), ("bench_out", "bench.csv"))}


def cli_outputs_digest():
    """The files `waitkit train`, `eval`, `k-matrix` and `bench` write for
    a small copy-task run, in that order; the bench CSV without its
    median_secs column, which is a timing."""
    digest = Digest()
    with tempfile.TemporaryDirectory() as tmp:
        files = output_files(tmp)
        base = [f"{key}={path}" for key, path in files.items()] + [
            "task=copy"]
        run_cli("train", *base, "max_steps=30")
        run_cli("eval", *base)
        run_cli("k-matrix", *base, "max_steps=10", "train_ks=1,2",
                "test_ks=1,2")
        run_cli("bench", *base, "bench_n=8", "bench_k=1,3", "bench_trials=1")
        for key in ("metrics", "checkpoint", "report", "traces",
                    "matrix_out"):
            with open(files[key], "rb") as fh:
                digest.sha.update(fh.read())
        with open(files["bench_out"], newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                del row[4]                      # median_secs
                digest.sha.update(",".join(row).encode() + b"\n")
    return digest.hexdigest()


def cli_data_digest():
    """The files `waitkit gen-data` writes for a small copy task, then
    those `train` and `eval` write with task=files on them."""
    digest = Digest()
    with tempfile.TemporaryDirectory() as tmp:
        files = output_files(tmp)
        data = os.path.join(tmp, "data")
        run_cli("gen-data", "task=copy", f"data_dir={data}")
        corpus = [os.path.join(data, f"{split}.{ext}")
                  for split in ("train", "test")
                  for ext in ("src", "tgt", "align")]
        base = [f"{key}={path}" for key, path in files.items()] + [
            "task=files", f"src_file={corpus[0]}", f"tgt_file={corpus[1]}",
            f"eval_src_file={corpus[3]}", f"eval_tgt_file={corpus[4]}"]
        run_cli("train", *base, "max_steps=30")
        run_cli("eval", *base)
        for path in corpus + [files[key] for key in (
                "metrics", "checkpoint", "report", "traces")]:
            with open(path, "rb") as fh:
                digest.sha.update(fh.read())
    return digest.hexdigest()


def main():
    # With these all 1, `waitkit bench` runs in this process rather than
    # in a one-thread child, so cli_outputs counts its MACs on every tree
    # (older ones ignore them). The names are spelled out because older
    # trees do not define waitkit.bench.BLAS_THREAD_VARS.
    os.environ.update(dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    for name, run in (("train_joint", lambda: training_digest("joint")),
                      ("train_pretrain_fixed_teacher",
                       lambda: training_digest("pretrain_fixed_teacher")),
                      ("decode", decode_digest),
                      ("tape_entries", tape_entries),
                      ("cli_outputs", cli_outputs_digest),
                      ("cli_data", cli_data_digest),
                      ("ops", ops_digest),
                      ("bench_macs", bench_macs),
                      ("eval_split", eval_split_digest)):
        before = T.mac_counter.count
        result = run()
        macs = T.mac_counter.count - before
        parts = result.items() if isinstance(result, dict) else [("", result)]
        for part, digest in parts:
            print(f"{name}{part} {digest} macs={macs}")


if __name__ == "__main__":
    main()
