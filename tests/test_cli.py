"""End-to-end command line runs, exit codes, and file outputs."""

import subprocess
import sys

import pytest

from waitkit import cli
from waitkit.cli import main
from waitkit.errors import WaitkitError

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

    def test_alignment_format(self, tmp_path):
        main(["gen-data"] + base_overrides(tmp_path))
        line = (tmp_path / "data" / "train.align").read_text().splitlines()[0]
        pairs = [tuple(map(int, p.split("-"))) for p in line.split()]
        assert pairs == [(i, i) for i in range(len(pairs))]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_run")
    overrides = base_overrides(tmp_path, max_steps=400, k=3,
                               early_stop_loss=0.03)
    assert main(["train"] + overrides) == 0
    (tmp_path / "blank.txt").write_text("\n \n", encoding="utf-8")
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
    (tmp_path / "blank.txt").write_text("\n \n", encoding="utf-8")
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
# missing or blank live in that run's directory, and the error line names
# the first of them: the row reaches the file it is about.
EXIT_CODES = [
    ("train", {"d_model": 30, "n_heads": 4}, 2),
    ("train", {"k": 0}, 2),
    ("train", {"k": "banana"}, 2),
    ("train", {"zzz": 1}, 2),
    ("train", {"batch_size": 0}, 2),
    ("bench", {"bench_n": 0}, 2),
    ("bench", {"bench_k": 0}, 2),
    ("eval", {"test_k": -1}, 2),
    ("decode", {"test_k": -1}, 2),
    ("k-matrix", {"test_ks": "1,-1"}, 2),
    ("k-matrix", {"train_ks": "0,1"}, 2),
    ("eval", {"checkpoint": "missing.ckpt"}, 3),
    ("eval", {"task": "files", "src_file": "missing.src",
              "tgt_file": "missing.tgt"}, 3),
    ("train", {"task": "files", "src_file": "blank.txt",
               "tgt_file": "blank.txt"}, 3),
]


@pytest.mark.parametrize(
    "command, extra, code", EXIT_CODES,
    ids=[f"{c}-" + "-".join(f"{k}={v}" for k, v in e.items())
         for c, e, _ in EXIT_CODES])
def test_exit_code_table(request, capsys, command, extra, code):
    run = "trained_files" if extra.get("task") == "files" else "trained"
    tmp_path, overrides = request.getfixturevalue(run)
    files = [v for v in extra.values()
             if str(v).startswith(("missing", "blank"))]
    extra = {k: tmp_path / v if v in files else v for k, v in extra.items()}
    assert main([command] + overrides
                + [f"{k}={v}" for k, v in extra.items()]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if files:
        assert str(tmp_path / files[0]) in err[0], err[0]


@pytest.mark.parametrize("error", WaitkitError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_error_classes_carry_exit_codes(monkeypatch, capsys, error):
    assert error.exit_code in (2, 3, 4)

    def fail(cfg):
        raise error("bad input")

    monkeypatch.setitem(cli.COMMANDS, "gen-data", fail)
    assert main(["gen-data"]) == error.exit_code
    assert capsys.readouterr().err.splitlines() == ["error: bad input"]


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
