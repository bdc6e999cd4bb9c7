"""End-to-end command line runs, exit codes, and file outputs."""

import ast
import errno
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from waitkit import cli
from waitkit.bench import BLAS_THREAD_VARS
from waitkit.cli import main
from waitkit.config import (KEYS, _bool, _int_list, default_config,
                            load_config, model_config, train_config)
from waitkit.errors import WaitkitError
from waitkit.training import TrainConfig
from waitkit.transformer import ModelConfig

RUNNER = [sys.executable, "-m", "waitkit.cli"]


def base_overrides(tmp_path, **extra):
    pairs = {
        "task": "copy",
        "vocab_size": "16",
        "min_len": "3",
        "max_len": "6",
        "train_count": "96",
        "test_count": "12",
        "d_model": "16",
        "d_ff": "32",
        "max_steps": "60",
        "batch_size": "16",
        "k": "2",
        "seed": "0",
        "early_stop_loss": "0.05",
        "checkpoint": str(tmp_path / "model.ckpt"),
        "metrics": str(tmp_path / "metrics.csv"),
        "report": str(tmp_path / "eval.csv"),
        "data_dir": str(tmp_path / "data"),
        "matrix_out": str(tmp_path / "matrix.csv"),
        "bench_out": str(tmp_path / "bench.csv"),
    }
    pairs.update({k: str(v) for k, v in extra.items()})
    return [f"{k}={v}" for k, v in pairs.items()]


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self):
        proc = subprocess.run(RUNNER + ["train", "--bogus"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_unknown_config_key(self, tmp_path):
        assert main(["train"] + base_overrides(tmp_path) + ["zzz=1"]) == 2

    def test_bad_override_value(self, tmp_path):
        assert main(["train"] + base_overrides(tmp_path, k="banana")) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "none.cfg")]) == 3

    def test_missing_checkpoint(self, tmp_path):
        code = main(["eval"] + base_overrides(
            tmp_path, checkpoint=str(tmp_path / "missing.ckpt")))
        assert code == 3

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_non_utf8_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"k=3\nseed=\xff\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg} is not UTF-8: byte 9 cannot be decoded"]


class TestConfigFile:
    def test_file_then_overrides(self, tmp_path):
        """Comment and blank lines, a trailing comment, spaces around the
        key and value and a yes boolean parse; an override replaces a value
        from the file, and every other key keeps its default."""
        path = tmp_path / "run.cfg"
        path.write_text("# a run\n\nk = 5   # the lag\n  d_model = 48\n"
                        "distill_detach_teacher=yes\nlr=0.5\n",
                        encoding="utf-8")
        cfg = load_config(path, ["lr=0.25"])
        expected = default_config()
        expected.update(k=5, d_model=48, distill_detach_teacher=True, lr=0.25)
        assert cfg == expected

    def test_keys_parsers_and_defaults(self):
        """The config surface, written out rather than read from
        ModelConfig and TrainConfig, so that a changed field default or
        type shows here."""
        assert KEYS == {
            "task": (str, "copy"),
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
            "n_layers": (int, 2),
            "d_model": (int, 32),
            "n_heads": (int, 2),
            "d_ff": (int, 64),
            "max_seq_len": (int, 64),
            "k": (int, 3),
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
            "checkpoint": (str, "model.ckpt"),
            "metrics": (str, "metrics.csv"),
            "report": (str, "eval.csv"),
            "traces": (str, ""),
            "matrix_out": (str, "k_matrix.csv"),
            "bench_out": (str, "bench.csv"),
            "test_k": (int, 0),
            "train_ks": (_int_list, [1, 3, 5]),
            "test_ks": (_int_list, [1, 3, 5]),
            "bench_n": (_int_list, [16, 32, 64]),
            "bench_k": (_int_list, [1, 9]),
            "bench_trials": (int, 5),
        }

    def test_each_model_and_training_key_sets_its_field(self):
        cfg = load_config(None, [
            "n_layers=3", "d_model=48", "n_heads=4", "d_ff=96",
            "max_seq_len=40", "k=5", "lambda=0.5", "lr=0.002", "beta1=0.8",
            "beta2=0.9", "adam_eps=1e-8", "batch_size=8", "max_steps=10",
            "seed=7", "mode=pretrain_fixed_teacher",
            "distill_detach_teacher=yes", "early_stop_loss=0.25"])
        assert model_config(cfg, 20, 24) == ModelConfig(
            n_layers=3, d_model=48, n_heads=4, d_ff=96, src_vocab=20,
            tgt_vocab=24, max_len=40, k=5)
        assert model_config(cfg) == ModelConfig(
            n_layers=3, d_model=48, n_heads=4, d_ff=96, src_vocab=32,
            tgt_vocab=32, max_len=40, k=5)
        expected = TrainConfig(
            lambda_distill=0.5, lr=0.002, beta1=0.8, beta2=0.9,
            adam_eps=1e-8, batch_size=8, max_steps=10, seed=7,
            mode="pretrain_fixed_teacher", k=5, distill_detach_teacher=True,
            early_stop_loss=0.25)
        assert train_config(cfg) == expected
        expected.k = 2
        assert train_config({**cfg, "k": 2}) == expected

    def test_bad_boolean(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("distill_detach_teacher=maybe\n", encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: bad value for 'distill_detach_teacher': "
            "not a boolean: 'maybe'"]


class TestGenData:
    def test_writes_corpus_and_alignments(self, tmp_path):
        assert main(["gen-data"] + base_overrides(tmp_path)) == 0
        data = tmp_path / "data"
        for split in ("train", "test"):
            for ext in ("src", "tgt", "align"):
                assert (data / f"{split}.{ext}").exists()
        src_lines = (data / "train.src").read_text().splitlines()
        tgt_lines = (data / "train.tgt").read_text().splitlines()
        assert len(src_lines) == 96
        assert src_lines == tgt_lines   # copy task

    def test_bad_split_writes_nothing(self, tmp_path, capsys):
        """The train split is valid and the test split is not: the run
        fails before it opens any file."""
        assert main(["gen-data"] + base_overrides(tmp_path,
                                                  test_count=0)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: count must be >= 1, got 0"]
        assert list(tmp_path.glob("data/*")) == []

    def test_alignment_format(self, tmp_path):
        main(["gen-data"] + base_overrides(tmp_path))
        line = (tmp_path / "data" / "train.align").read_text().splitlines()[0]
        pairs = [tuple(map(int, p.split("-"))) for p in line.split()]
        assert pairs == [(i, i) for i in range(len(pairs))]


def write_bad_inputs(tmp_path):
    """A blank and a non-UTF-8 corpus, and copies of the run's checkpoint.
    A copy with one header line changed (None: removed) under the old
    checksum fails its header's parse or the checksum, as does one with two
    param lines of one shape swapped. The sealed copies carry a checksum
    that matches, so each reaches the check it is named for."""
    (tmp_path / "blank.txt").write_text("\n \n", encoding="utf-8")
    (tmp_path / "bad_utf8.txt").write_bytes(b"a b\n\xff c\n")
    header, payload = (tmp_path / "model.ckpt").read_bytes().split(
        b"\nend_header\n", 1)
    lines = header.split(b"\n")

    def edited(lines, key, new):
        lines = [new if line.startswith(key) else line for line in lines]
        return [line for line in lines if line is not None]

    embed = b"param teacher.encoder.embed "
    edits = {"bad_utf8.ckpt": (b"seed=", b"seed=\xff"),
             "bad_param_bare.ckpt": (embed, b"param "),
             "bad_param_negative.ckpt": (embed, embed + b"-16 16"),
             "bad_param_negatives.ckpt": (embed, embed + b"-16 -16"),
             "bad_edited_k.ckpt": (b"k=", b"k=7"),
             "bad_v1.ckpt": (b"waitkit-checkpoint v", b"waitkit-checkpoint v1")}
    for name, (key, new) in edits.items():
        (tmp_path / name).write_bytes(b"\n".join(edited(lines, key, new))
                                      + b"\nend_header\n" + payload)
    i, j = (lines.index(b"param teacher.encoder.layers.0.attn.%s.w 16 16" % w)
            for w in (b"wq", b"wk"))
    swapped = list(lines)
    swapped[i], swapped[j] = lines[j], lines[i]
    (tmp_path / "bad_swapped_params.ckpt").write_bytes(
        b"\n".join(swapped) + b"\nend_header\n" + payload)

    def sealed(name, lines, payload):
        covered = b"\n".join(lines) + b"\n"
        digest = hashlib.sha256(covered + payload).hexdigest().encode()
        (tmp_path / name).write_bytes(
            covered + b"checksum=" + digest + b"\nend_header\n" + payload)

    lines = lines[:-1]                         # without the checksum
    wq = b"param teacher.encoder.layers.0.attn.wq.w "
    for name, (key, new) in {
            "bad_d_model.ckpt": (b"d_model=", b"d_model=abc"),
            "bad_n_heads.ckpt": (b"n_heads=", b"n_heads=3"),
            "bad_vocab.ckpt": (b"vocab_tgt=", None),
            "bad_huge_d_model.ckpt": (b"d_model=", b"d_model=4096"),
            "bad_param_shape.ckpt": (wq, wq + b"8 32"),
            "bad_param_huge.ckpt": (wq, wq + b"8 " + b"%d" % 2 ** 62)}.items():
        sealed(name, edited(lines, key, new), payload)
    sealed("bad_vocab_short.ckpt",
           [b" ".join(line.split(b" ")[:5]) if line.startswith(b"vocab_")
            else line for line in lines], payload)
    sealed("bad_vocab_long.ckpt",
           [line + b" w99" if line.startswith(b"vocab_src=") else line
            for line in lines], payload)
    last = 8 * math.prod(int(d) for d in lines[-1].split()[2:])
    sealed("bad_missing_param.ckpt", lines[:-1], payload[:-last])
    sealed("bad_short_payload.ckpt", lines, payload[:-8])
    sealed("bad_trailing_bytes.ckpt", lines, payload + bytes(8))
    sealed("bad_extra_param.ckpt",
           lines + [b"param student.extra_layer.w 2"], payload + bytes(16))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_run")
    overrides = base_overrides(tmp_path, max_steps=400, k=3,
                               early_stop_loss=0.03)
    assert main(["train"] + overrides) == 0
    write_bad_inputs(tmp_path)
    return tmp_path, overrides


@pytest.fixture(scope="module")
def trained_files(tmp_path_factory):
    """A few steps of training on a two-line corpus with task=files."""
    tmp_path = tmp_path_factory.mktemp("cli_files_run")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c\nc b a\n", encoding="utf-8")
    overrides = base_overrides(tmp_path, task="files", src_file=corpus,
                               tgt_file=corpus, max_steps=3, batch_size=2)
    assert main(["train"] + overrides) == 0
    write_bad_inputs(tmp_path)
    return tmp_path, overrides


class TestTrainEvalDecode:
    def test_train_then_eval_smoke(self, trained):
        tmp_path, overrides = trained
        assert (tmp_path / "model.ckpt").exists()
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "step,loss_student,loss_teacher,loss_distill,grad_norm"
        assert main(["eval"] + overrides) == 0
        report = (tmp_path / "eval.csv").read_text().splitlines()
        header = report[0].split(",")
        values = report[1].split(",")
        assert "corpus_bleu" in header
        bleu = float(values[header.index("corpus_bleu")])
        assert bleu >= 0.0

    def test_eval_deterministic_bytes(self, trained):
        tmp_path, overrides = trained
        main(["eval"] + overrides)
        first = (tmp_path / "eval.csv").read_bytes()
        main(["eval"] + overrides)
        assert (tmp_path / "eval.csv").read_bytes() == first

    def test_eval_writes_a_trace_line_per_sentence(self, trained):
        """traces= names a file of one JSON record per test sentence, in
        the format README documents."""
        tmp_path, overrides = trained
        path = tmp_path / "traces.jsonl"
        assert main(["eval"] + overrides + [f"traces={path}"]) == 0
        records = [json.loads(line) for line in
                   path.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 12                       # test_count
        for record in records:
            assert list(record) == ["g", "src_len", "tgt_len", "tokens"]
            assert len(record["g"]) == record["tgt_len"] == len(
                record["tokens"])

    def test_decode_respects_schedule(self, trained):
        tmp_path, overrides = trained
        proc = subprocess.run(
            RUNNER + ["decode"] + overrides + ["test_k=2"],
            input="w01 w02 w03 w04\n",
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()
        tokens = proc.stdout.split()
        assert all(tok.startswith("w") or tok.startswith("<") for tok in tokens)

    def test_decode_source_longer_than_max_seq_len(self, trained):
        """The model reads at most max_seq_len=64 source tokens; a longer
        line ends in exit 2 with one error line, not a traceback."""
        tmp_path, overrides = trained
        line = " ".join(f"w{i % 12:02d}" for i in range(70))
        proc = subprocess.run(
            RUNNER + ["decode"] + overrides + ["test_k=66"],
            input=line + "\n", capture_output=True, text=True,
        )
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), proc.stderr
        assert "exceeds maximum 64" in err[0]

    def test_decode_matches_eval_streaming(self, trained):
        from waitkit.checkpoint import load_models
        from waitkit.waitk import streaming_decode

        tmp_path, overrides = trained
        _, student, src_vocab, tgt_vocab, _ = load_models(
            tmp_path / "model.ckpt")
        words = "w01 w02 w03 w04".split()
        expected, _ = streaming_decode(student, src_vocab.encode(words), 3)
        proc = subprocess.run(
            RUNNER + ["decode"] + overrides,
            input=" ".join(words) + "\n",
            capture_output=True, text=True,
        )
        assert proc.stdout.split() == [tgt_vocab.tokens[t] for t in expected]


# Bad inputs run against the config of the run trained on the row's task
# (copy unless the row sets task=files); each must end in its documented
# exit code with a one-line error and no traceback. File names starting with
# missing, blank or bad live in that run's directory (see write_bad_inputs),
# and the error line names the first of them: the row reaches the file it is
# about.
EXIT_CODES = [
    ("train", {"d_model": 30, "n_heads": 4}, 2),
    ("train", {"k": 0}, 2),
    ("train", {"k": "banana"}, 2),
    ("train", {"zzz": 1}, 2),
    ("train", {"batch_size": 0}, 2),
    ("train", {"lr": -1}, 2),
    ("train", {"lr": "nan"}, 2),
    ("train", {"beta1": 1}, 2),
    ("train", {"beta2": 1.5}, 2),
    ("train", {"adam_eps": 0}, 2),
    ("train", {"lambda": "nan"}, 2),
    ("train", {"lambda": "inf"}, 2),
    ("train", {"max_steps": 0}, 2),
    ("train", {"max_steps": -3}, 2),
    ("train", {"early_stop_loss": "nan"}, 2),
    ("train", {"vocab_size": 10 ** 11}, 2),
    ("gen-data", {"vocab_size": 10 ** 11}, 2),
    ("bench", {"max_seq_len": 10 ** 9}, 2),
    ("bench", {"bench_n": 0}, 2),
    ("bench", {"bench_k": 0}, 2),
    ("eval", {"test_k": -1}, 2),
    ("eval", {"vocab_size": 32}, 3),
    ("eval", {"vocab_size": 8}, 3),
    ("decode", {"test_k": -1}, 2),
    ("k-matrix", {"test_ks": "1,-1"}, 2),
    ("k-matrix", {"train_ks": "0,1"}, 2),
    ("k-matrix", {"train_ks": ""}, 2),
    ("k-matrix", {"test_ks": ","}, 2),
    ("bench", {"bench_n": ""}, 2),
    ("bench", {"bench_k": ""}, 2),
    ("eval", {"checkpoint": "missing.ckpt"}, 3),
    ("eval", {"task": "files", "src_file": "missing.src",
              "tgt_file": "missing.tgt"}, 3),
    ("eval", {"task": "files", "eval_src_file": "corpus.txt"}, 2),
    ("eval", {"task": "files", "eval_tgt_file": "corpus.txt"}, 2),
    ("train", {"task": "files", "src_file": "blank.txt",
               "tgt_file": "blank.txt"}, 3),
    ("train", {"task": "files", "src_file": "bad_utf8.txt",
               "tgt_file": "bad_utf8.txt"}, 3),
    ("eval", {"checkpoint": "bad_utf8.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_d_model.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_vocab.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_n_heads.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_param_bare.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_param_negative.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_param_negatives.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_param_huge.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_swapped_params.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_edited_k.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_v1.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_huge_d_model.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_extra_param.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_param_shape.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_short_payload.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_missing_param.ckpt"}, 3),
    ("eval", {"checkpoint": "bad_trailing_bytes.ckpt"}, 3),
    ("gen-data", {"seed": -1}, 2),
    ("train", {"seed": -1}, 2),
    ("k-matrix", {"seed": -1}, 2),
    ("bench", {"bench_n": -5}, 2),
    ("bench", {"bench_n": "8,-1"}, 2),
    ("train", {"lambda": "1e308", "max_steps": 1}, 4),
]

# The fault each checkpoint row's one error line names after the file's
# path: every row reaches the check it is named for.
CHECKPOINT_FAULTS = {
    "bad_utf8.ckpt": "header is not UTF-8",
    "bad_d_model.ckpt": "header value 'abc' is not an integer",
    "bad_vocab.ckpt": "missing vocab_tgt line",
    "bad_n_heads.ckpt": "d_model 16 not divisible by n_heads 3",
    "bad_param_bare.ckpt": "bad param line 'param '",
    "bad_param_negative.ckpt":
        "bad param line 'param teacher.encoder.embed -16 16'",
    "bad_param_negatives.ckpt":
        "bad param line 'param teacher.encoder.embed -16 -16'",
    "bad_param_huge.ckpt": "teacher.encoder.layers.0.attn.wq.w has shape "
                           f"(8, {2 ** 62}), expected (16, 16)",
    "bad_swapped_params.ckpt": "checksum mismatch",
    "bad_edited_k.ckpt": "checksum mismatch",
    "bad_v1.ckpt": "unsupported version 1",
    "bad_huge_d_model.ckpt": "a teacher and student of this size hold "
                             "826048800 values, more than the limit 16777216",
    "bad_extra_param.ckpt":
        "unknown or repeated parameter student.extra_layer.w",
    "bad_param_shape.ckpt": "teacher.encoder.layers.0.attn.wq.w has shape "
                            "(8, 32), expected (16, 16)",
    "bad_short_payload.ckpt": "payload too short for student.bridge_w",
    "bad_missing_param.ckpt": "missing parameter student.bridge_w",
    "bad_trailing_bytes.ckpt": "8 trailing bytes",
}


@pytest.mark.parametrize(
    "command, extra, code", EXIT_CODES,
    ids=[f"{c}-" + "-".join(f"{k}={v}" for k, v in e.items())
         for c, e, _ in EXIT_CODES])
def test_exit_code_table(request, capsys, command, extra, code):
    run = "trained_files" if extra.get("task") == "files" else "trained"
    tmp_path, overrides = request.getfixturevalue(run)
    files = [v for v in extra.values()
             if str(v).startswith(("missing", "blank", "bad", "corpus"))]
    extra = {k: tmp_path / v if v in files else v for k, v in extra.items()}
    assert main([command] + overrides
                + [f"{k}={v}" for k, v in extra.items()]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if files:
        assert str(tmp_path / files[0]) in err[0], err[0]
    if files and files[0].startswith("bad") and files[0].endswith(".ckpt"):
        assert err[0] == (f"error: {tmp_path / files[0]}: "
                          f"{CHECKPOINT_FAULTS[files[0]]}")


@pytest.mark.parametrize("error", WaitkitError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_error_classes_carry_exit_codes(monkeypatch, capsys, error):
    assert error.exit_code in (2, 3, 4)

    def fail(cfg):
        raise error("bad input")

    monkeypatch.setitem(cli.COMMANDS, "gen-data", fail)
    assert main(["gen-data"]) == error.exit_code
    assert capsys.readouterr().err.splitlines() == ["error: bad input"]


def test_checksum_covers_the_header(trained, capsys):
    """A version 1 file, whose checksum covered the payload only, is
    refused; so are an edited config value and two swapped param lines of
    one shape, which version 1 loaded silently."""
    tmp_path, overrides = trained
    for name, error in (("bad_v1.ckpt", "unsupported version 1"),
                        ("bad_edited_k.ckpt", "checksum mismatch"),
                        ("bad_swapped_params.ckpt", "checksum mismatch")):
        assert main(["eval"] + overrides
                    + [f"checkpoint={tmp_path / name}"]) == 3
        assert error in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "decode"])
@pytest.mark.parametrize("name, fault", [
    ("bad_vocab_short.ckpt", "vocab_src holds 5 tokens, the model 16"),
    ("bad_vocab_long.ckpt", "vocab_src holds 17 tokens, the model 16")],
    ids=["short", "long"])
def test_vocabulary_size_mismatch(trained, monkeypatch, capsys, command,
                                  name, fault):
    """The header gives each vocabulary's size twice, as src_vocab= and
    tgt_vocab= and as the token count of its vocab line; a mismatch is a
    checkpoint error before any sentence is read."""
    tmp_path, overrides = trained
    monkeypatch.setattr(sys, "stdin", io.StringIO("w01 w99 w02 w03\n"))
    path = tmp_path / name
    assert main([command] + overrides + [f"checkpoint={path}"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: {fault}"]


def test_checkpoint_over_the_size_bound(trained, capsys):
    """A header under a matching checksum may still ask for any size; one
    over MAX_MODEL_VALUES is refused before a model is built."""
    tmp_path, overrides = trained
    path = tmp_path / "bad_huge_d_model.ckpt"
    assert main(["eval"] + overrides + [f"checkpoint={path}"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: a teacher and student of this size hold "
        "826048800 values, more than the limit 16777216"]


def test_over_length_example_found_before_the_first_step(tmp_path, capsys):
    """Of 8 sentence pairs of length 5 to 67, three (64, 66 and 67) do not
    fit max_seq_len=64 with bos. The run is refused before its first step,
    whichever batches its 2 steps would draw, and saves no checkpoint."""
    lengths = [5, 9, 64, 12, 66, 20, 67, 7]
    lines = "".join(" ".join(f"w{i % 9}" for i in range(n)) + "\n"
                    for n in lengths)
    for name in ("src.txt", "tgt.txt"):
        (tmp_path / name).write_text(lines)
    overrides = base_overrides(tmp_path, task="files", max_steps=2,
                               src_file=tmp_path / "src.txt",
                               tgt_file=tmp_path / "tgt.txt")
    assert main(["train"] + overrides) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: training example 3 of 8 (source length 64, target length "
        "64 plus bos) exceeds maximum 64"]
    assert not (tmp_path / "model.ckpt").exists()


def _refuse(*args, **kwargs):
    raise AssertionError("the run went past its checks")


@pytest.mark.parametrize("command, key", [
    ("train", "checkpoint"), ("train", "metrics"),
    ("k-matrix", "matrix_out"), ("eval", "report"), ("eval", "traces"),
    ("bench", "bench_out")])
@pytest.mark.parametrize("parent", ["a regular file", "missing"])
def test_output_directory_checked_before_training(tmp_path, capsys,
                                                  monkeypatch, command, key,
                                                  parent):
    """An output path under a regular file, or under a directory that does
    not exist, ends the command with exit 3 and the one line that opening
    the file would print, before it draws data, trains, loads a
    checkpoint, times a forward or starts a child."""
    for name in ("generate_synthetic", "train", "load_models",
                 "scaling_sweep"):
        monkeypatch.setattr(cli, name, _refuse)
    monkeypatch.setattr(cli.subprocess, "run", _refuse)
    (tmp_path / "a regular file").write_text("")
    path = str(tmp_path / parent / "out")
    error = (NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                path) if parent == "a regular file"
             else FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    path))
    assert main([command] + base_overrides(tmp_path, **{key: path})) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


def test_only_the_command_line_writes_files():
    """cli.py opens every output file; checkpoint.save_models, to which
    perfbench passes a path, is the one other writer. A call of open with a
    mode that is not a constant, or that holds w, a, x or +, writes."""
    writers = set()
    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "open"):
                continue
            mode = ([kw.value for kw in node.keywords if kw.arg == "mode"]
                    + node.args[1:2] + [ast.Constant("r")])[0]
            if not isinstance(mode, ast.Constant) or set(mode.value) & set(
                    "wax+"):
                writers.add(path.name)
    assert writers == {"cli.py", "checkpoint.py"}


@pytest.mark.parametrize("command", ["train", "k-matrix"])
def test_synthetic_max_len_checked_before_drawing(tmp_path, capsys,
                                                  monkeypatch, command):
    """A synthetic sentence of max_len tokens fits max_seq_len=64 with bos
    only if max_len <= 63: max_len=64 is refused with exit 2 before a
    sentence is drawn, and max_len=63 goes on to draw."""
    monkeypatch.setattr(cli, "generate_synthetic", _refuse)
    assert main([command] + base_overrides(tmp_path, max_len=64)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: synthetic sentences of up to 64 tokens (target length 64 "
        "plus bos) exceed maximum 64"]
    with pytest.raises(AssertionError, match="past its checks"):
        main([command] + base_overrides(tmp_path, max_len=63))


def test_non_finite_gradient_norm_is_one_line(tmp_path):
    """lambda=1e308 overflows the first step's gradients. The run stops
    before Adam writes them, saves no checkpoint, and stderr holds only the
    error line, without numpy's overflow warnings."""
    proc = subprocess.run(
        RUNNER + ["train"] + base_overrides(tmp_path, train_count=4,
                                            max_steps=1, **{"lambda": 1e308}),
        capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == ["error: non-finite grad_norm: nan"]
    assert not (tmp_path / "model.ckpt").exists()


def test_train_odd_width(tmp_path):
    """An odd d_model builds, trains and saves (its position table has one
    more sine than cosine column)."""
    assert main(["train"] + base_overrides(tmp_path, d_model=5, n_heads=1,
                                           max_steps=3)) == 0


def test_checkpoint_round_trip_with_end_header_token(tmp_path):
    """A vocabulary line ending in the token end_header must not be taken
    for the header terminator."""
    from waitkit.checkpoint import load_models

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a a b b end_header\na b\n", encoding="utf-8")
    overrides = base_overrides(tmp_path, task="files", src_file=corpus,
                               tgt_file=corpus, max_steps=3, batch_size=2)
    assert main(["train"] + overrides) == 0
    _, _, src_vocab, tgt_vocab, meta = load_models(tmp_path / "model.ckpt")
    assert src_vocab.tokens[-1] == tgt_vocab.tokens[-1] == "end_header"
    assert meta["task"] == "files"
    assert main(["eval"] + overrides) == 0


class TestBenchCommand:
    def test_bench_writes_sweep(self, tmp_path):
        overrides = base_overrides(tmp_path, bench_n="8", bench_k="1,3",
                                   bench_trials="1", max_seq_len="16")
        assert main(["bench"] + overrides) == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == "variant,n,T,k,median_secs,mac_count"
        assert len(lines) == 1 + 2 * 3

    @staticmethod
    def _record_children(monkeypatch):
        """The (args, env) of each process cli starts; each still runs."""
        started, run = [], subprocess.run

        def recording(args, **kwargs):
            started.append((args, kwargs["env"]))
            return run(args, **kwargs)

        monkeypatch.setattr(cli.subprocess, "run", recording)
        return started

    def test_bench_reruns_itself_on_one_blas_thread(self, tmp_path, capfd,
                                                    monkeypatch):
        """With a BLAS thread variable other than 1, bench reruns the same
        command in a child with all three at 1, which writes to this
        process's stdout and stderr, and returns the child's exit code."""
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        started = self._record_children(monkeypatch)
        argv = ["bench"] + base_overrides(tmp_path, bench_n="8",
                                          bench_k="1", bench_trials="1")
        assert main(argv) == 0
        [(args, env)] = started
        assert args[1:] == ["-m", "waitkit.cli", *argv]
        assert all(env[name] == "1" for name in BLAS_THREAD_VARS)
        out = capfd.readouterr()
        assert out.out == f"3 rows at {tmp_path / 'bench.csv'}\n"
        assert out.err == ""
        assert len((tmp_path / "bench.csv").read_text().splitlines()) == 4

    def test_bench_grid_past_max_seq_len_exits_2_from_the_child(
            self, tmp_path, capfd, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        started = self._record_children(monkeypatch)
        assert main(["bench"] + base_overrides(
            tmp_path, bench_n="8,32", bench_k="1", bench_trials="1",
            max_seq_len="16")) == 2
        err = capfd.readouterr().err.splitlines()
        assert len(started) == 1
        assert err == ["error: sequence length 32 exceeds maximum 16"]

    def test_bench_on_one_blas_thread_starts_no_child(self, tmp_path,
                                                      monkeypatch):
        for name in BLAS_THREAD_VARS:
            monkeypatch.setenv(name, "1")
        started = self._record_children(monkeypatch)
        assert main(["bench"] + base_overrides(
            tmp_path, bench_n="8", bench_k="1", bench_trials="1")) == 0
        assert started == []


class TestKMatrixCommand:
    def test_matrix_csv(self, tmp_path):
        overrides = base_overrides(
            tmp_path, train_ks="1,2", test_ks="1,2", max_steps=30,
            train_count=48, test_count=8, early_stop_loss="0",
        )
        assert main(["k-matrix"] + overrides) == 0
        lines = (tmp_path / "matrix.csv").read_text().splitlines()
        assert lines[0] == "train_k,test_k=1,test_k=2"
        assert len(lines) == 3

    def test_each_student_is_built_at_its_train_k(self, tmp_path,
                                                  monkeypatch):
        """A student's ModelConfig carries the k it was trained at, not
        the config's k."""
        students = {}
        k_matrix = cli.k_matrix

        def capture(trained, *args, **kwargs):
            students.update(trained)
            return k_matrix(trained, *args, **kwargs)

        monkeypatch.setattr(cli, "k_matrix", capture)
        overrides = base_overrides(
            tmp_path, train_ks="1,5", test_ks="1", k="3", max_steps=2,
            train_count=16, test_count=4, early_stop_loss="0",
        )
        assert main(["k-matrix"] + overrides) == 0
        assert {k: s.cfg.k for k, s in students.items()} == {1: 1, 5: 5}


def flip_bit(rng, data):
    i = int(rng.integers(0, len(data)))
    return data[:i] + bytes([data[i] ^ 1 << int(rng.integers(0, 8))]) \
        + data[i + 1:]


def mutate_checkpoint(rng, blob):
    """One random corruption of a checkpoint: a flipped header or payload
    byte, a truncation, a dropped, duplicated or swapped header line, or a
    param line with a negative, huge or missing dimension."""
    header, payload = blob.split(b"\nend_header\n", 1)
    lines = header.split(b"\n")
    kind = rng.integers(0, 7)
    if kind == 0:
        return flip_bit(rng, header) + b"\nend_header\n" + payload
    if kind == 1:
        return header + b"\nend_header\n" + flip_bit(rng, payload)
    if kind == 2:
        return blob[:int(rng.integers(0, len(blob)))]
    i, j = (int(x) for x in rng.integers(0, len(lines), size=2))
    if kind == 3:
        del lines[i]
    elif kind == 4:
        lines.insert(i, lines[i])
    elif kind == 5:
        lines[i], lines[j] = lines[j], lines[i]
    else:
        params = [n for n, line in enumerate(lines)
                  if line.startswith(b"param ")]
        n = params[int(rng.integers(0, len(params)))]
        name, *dims = lines[n].split()[1:]
        d = int(rng.integers(0, len(dims)))
        dims[d] = [b"-" + dims[d], b"%d" % 2 ** int(rng.integers(31, 64)),
                   None][rng.integers(0, 3)]
        lines[n] = b" ".join([b"param", name]
                             + [x for x in dims if x is not None])
    return b"\n".join(lines) + b"\nend_header\n" + payload


def mutate_corpus(rng, text):
    """A corpus with invalid UTF-8, a NUL, CRLF line ends or tokens that
    look like checkpoint header lines spliced in."""
    kind = rng.integers(0, 4)
    if kind == 0:
        bad = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]
        i = int(rng.integers(0, len(text)))
        return text[:i] + bad[rng.integers(0, len(bad))] + text[i:]
    if kind == 1:
        i = int(rng.integers(0, len(text)))
        return text[:i] + b"\x00" + text[i:]
    if kind == 2:
        return text.replace(b"\n", b"\r\n")
    tokens = [b"end_header", b"param x 3", b"checksum=0", b"vocab_src=a",
              b"waitkit-checkpoint v1", b"d_model=7", b"=", b"\\n"]
    lines = text.split(b"\n")
    i = int(rng.integers(0, len(lines) - 1))
    lines[i] += b" " + tokens[rng.integers(0, len(tokens))]
    return b"\n".join(lines)


def assert_documented_exit(capsys, argv):
    """main returns 0, or 2, 3 or 4 with exactly one error line."""
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 0 or (code in (2, 3, 4) and len(err) == 1
                         and err[0].startswith("error: ")), (argv, code, err)
    return code


def test_fuzzed_inputs_end_in_documented_exit_codes(trained, tmp_path,
                                                    capsys):
    """Seeded corruptions of a trained checkpoint (eval) and of a corpus
    (train, then eval on its checkpoint when training succeeds), run
    through cli.main in-process: no exception escapes and every run ends
    in 0 or in a documented exit code with one error line."""
    run_dir, overrides = trained
    rng = np.random.default_rng(0)
    blob = (run_dir / "model.ckpt").read_bytes()
    ckpt = tmp_path / "fuzzed.ckpt"
    for _ in range(150):
        ckpt.write_bytes(mutate_checkpoint(rng, blob))
        assert_documented_exit(capsys, ["eval"] + overrides + [
            f"checkpoint={ckpt}", "test_count=2",
            f"report={tmp_path / 'eval.csv'}"])
    text = b"a b c\nc b a\nb a\na c b a\n"
    corpus = tmp_path / "corpus.txt"
    files = base_overrides(tmp_path, task="files", src_file=corpus,
                           tgt_file=corpus, max_steps=2, batch_size=2,
                           d_model=8, d_ff=8)
    for _ in range(30):
        corpus.write_bytes(mutate_corpus(rng, text))
        if assert_documented_exit(capsys, ["train"] + files) == 0:
            assert assert_documented_exit(capsys, ["eval"] + files) == 0
