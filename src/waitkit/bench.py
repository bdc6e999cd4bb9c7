"""Forward-cost benchmark: recompute baseline vs incremental pipeline.

Reports median wall time and the exact multiply-accumulate tally of one
forward pass per variant, at matched model dimensions. Only matrix-product
MACs are counted (the dominant term). `waitkit bench` times on one BLAS
thread, in a child if need be (see cli.cmd_bench).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .evaluation import write_csv
from .tensor import no_grad
from .transformer import IncrementalModel, TeacherModel, encode_waitk_recompute
from .waitk import N_RESERVED, read_counts

VARIANTS = ("baseline_bi", "incremental_ael", "offline")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

MIN_SAMPLE_SECS = 0.02


def _timed_sample(run):
    """Mean seconds per run over as many runs as fill MIN_SAMPLE_SECS."""
    runs = 0
    start = time.perf_counter()
    while True:
        run()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SAMPLE_SECS:
            return elapsed / runs


@dataclass
class BenchResult:
    variant: str
    n: int
    t_steps: int
    k: int
    median_secs: float
    mac_count: int
    trials: int


def _make_runner(variant, cfg, n, k, t_steps, seed):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(N_RESERVED, cfg.src_vocab, size=n)
    read_counts(k, n, t_steps)    # every variant refuses k, n, t_steps < 1
    if variant == "offline":
        model = TeacherModel(cfg, seed=seed)

        def run():
            model.encode(tokens)

    elif variant == "baseline_bi":
        model = TeacherModel(cfg, seed=seed)

        def run():
            encode_waitk_recompute(model.encoder, tokens, k, t_steps)

    elif variant == "incremental_ael":
        model = IncrementalModel(cfg, seed=seed)

        def run():
            model.incremental_states(tokens)

    else:
        raise ConfigError(
            f"unknown variant {variant!r}, expected one of {VARIANTS}"
        )
    return run


def bench_forward(variant, n, k, cfg, t_steps=None, trials=5, seed=0):
    """Median wall time over trials plus the MAC count of one forward pass.

    A warm-up run, whose MACs are counted, precedes timing. Each trial is
    the mean of repeated runs lasting at least MIN_SAMPLE_SECS, in the
    manner of timeit's autorange, on as many BLAS threads as the process
    has. The call adds mac_count to tensor.mac_counter, however many runs
    the timing took.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    t_steps = n if t_steps is None else t_steps
    run = _make_runner(variant, cfg, n, k, t_steps, seed)
    with no_grad():
        macs0 = T.mac_counter.count
        run()
        macs = T.mac_counter.count - macs0
        times = [_timed_sample(run) for _ in range(trials)]
        T.mac_counter.count = macs0 + macs
    return BenchResult(
        variant=variant,
        n=n,
        t_steps=t_steps,
        k=k,
        median_secs=float(np.median(times)),
        mac_count=macs,
        trials=trials,
    )


def scaling_sweep(n_values, k_values, cfg, csv_path=None, trials=5):
    """BenchResult rows for all variants over the n x k grid (t_steps = n)."""
    results = []
    for n in n_values:
        for k in k_values:
            for variant in VARIANTS:
                results.append(
                    bench_forward(variant, n, k, cfg, trials=trials)
                )
    if csv_path is not None:
        write_csv(csv_path, ["variant", "n", "T", "k", "median_secs",
                             "mac_count"],
                  [[r.variant, r.n, r.t_steps, r.k, f"{r.median_secs:.6f}",
                    r.mac_count] for r in results])
    return results
