"""conftest.train_runs: a fixture's trainings give the same bits in spawned
processes as in this one."""

import math
import multiprocessing
from multiprocessing.context import SpawnProcess

import pytest

from waitkit.training import (SyntheticTaskSpec, TrainConfig,
                              generate_synthetic, train)
from waitkit.transformer import ModelConfig

from conftest import max_train_processes, train_runs

SPEC = SyntheticTaskSpec(kind="copy", vocab_size=16, min_len=3, max_len=6,
                         seed=0)
MODEL = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, src_vocab=16,
                    tgt_vocab=16, max_len=16, k=2)


def jobs():
    examples = generate_synthetic(SPEC, 40)
    return [(examples, MODEL,
             TrainConfig(lambda_distill=0.1, max_steps=4, seed=seed, k=2,
                         batch_size=4, mode=mode))
            for seed, mode in ((0, "joint"), (1, "pretrain_fixed_teacher"),
                               (2, "joint"))]


def param_bytes(teacher, student):
    return {(side, name): p.values.tobytes()
            for side, model in (("teacher", teacher), ("student", student))
            for name, p in model.named_parameters().items()}


def same_rows(a, b):
    return len(a) == len(b) and all(
        len(x) == len(y) and all(
            u == v or (math.isnan(u) and math.isnan(v)) for u, v in zip(x, y))
        for x, y in zip(a, b))


class Starts:
    """The spawned processes started under a test; with refuse set, every
    start raises OSError instead, as where no process can start."""

    def __init__(self):
        self.started = []
        self.refuse = False


@pytest.fixture
def starts(monkeypatch):
    record = Starts()
    start = SpawnProcess.start

    def counted(process):
        if record.refuse:
            raise OSError("process start refused")
        record.started.append(process)
        start(process)

    monkeypatch.setattr(SpawnProcess, "start", counted)
    return record


def test_pool_and_this_process_keep_the_bits(starts):
    pooled = train_runs(jobs())
    assert len(starts.started) <= max_train_processes()
    assert starts.started or max_train_processes() == 1
    assert not multiprocessing.active_children()

    starts.refuse = True
    here = train_runs(jobs())
    assert len(starts.started) <= max_train_processes()

    direct = [train(*job) for job in jobs()]
    for (t1, s1, rows1), (t2, s2, rows2), (t3, s3, rows3) in zip(
            pooled, here, direct):
        assert param_bytes(t1, s1) == param_bytes(t2, s2) == param_bytes(t3, s3)
        assert same_rows(rows1, rows2) and same_rows(rows2, rows3)
    assert len(pooled[1][2]) == 8, "pretrain_fixed_teacher runs two phases"


def test_one_job_starts_no_process(starts):
    [(_, _, rows)] = train_runs(jobs()[:1])
    assert len(rows) == 4 and not starts.started
