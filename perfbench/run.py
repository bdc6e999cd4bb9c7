"""End-to-end and per-layer benchmark of waitkit.

    python3 perfbench/run.py --workload train_joint --seed 1 --trace 0
    python3 perfbench/run.py                   # every workload in turn
    python3 perfbench/run.py --smoke --seconds 1   # minimal inputs

Run from the repository root. The workload runs in a child process started
with one BLAS thread; the child imports waitkit from src/ of the checkout.
With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric; with --trace 1 it holds every per-layer metric,
taken from spans recorded around waitkit's public functions. The lines
before it give each metric with its unit and sample count. Files the run
leaves behind go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170
SETUP_MIN_S = 1.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("train_joint", "decode_long")

END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
    "tokens_per_s": "1/s",
    "sentences_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal inputs, for a quick check that every "
                             "metric is reported")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# Parent: one child per workload run, pinned to one BLAS thread


def run_child(workload, seed, seconds, trace, smoke):
    """Run one workload in a child process; returns (report lines, result
    dict) or raises RuntimeError."""
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: no result within "
                           f"{CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited with code "
                           f"{proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def parent(args):
    if args.workload is not None:
        report, result = run_child(args.workload, args.seed, args.seconds,
                                   args.trace, args.smoke)
        print("\n".join(report))
        print(json.dumps(result))
        return 0
    # Every workload in turn; the last line holds one result per workload.
    results = {}
    for workload in WORKLOAD_NAMES:
        report, results[workload] = run_child(
            workload, args.seed, args.seconds, args.trace, args.smoke)
        print("\n".join(report))
    print(json.dumps(results))
    return 0


# ----------------------------------------------------------------------
# Child: set up, check pass, timed phase(s)


def _metric_line(name, value, unit, samples):
    return f"  {name:<44} {value:>14.6f} {unit:<6} samples {samples}"


def blas_in_force():
    """BLAS library name and version, and its thread count as reported by
    the loaded library itself."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    umath = getattr(np, "_core", None) or np.core     # numpy 2 or 1
    lib = ctypes.CDLL(umath._multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
    env = " ".join(f"{k}={os.environ.get(k, '')}" for k in THREAD_ENV)
    return (f"blas {blas.get('name')} {blas.get('version')}; {env}; "
            f"threads in force {threads}")


def run_ops(workload, tallies, prefix, count=None, seconds=None, tracer=None):
    """Closed loop: count operations, or operations until seconds have
    passed (at least one per tally). Operation i goes to
    tallies[i % len(tallies)]. With a tracer, the operations of the last
    tally are traced and their spans tagged prefix + i; alternating traced
    and untraced operations lets drift in the machine's speed affect both
    alike. Each check runs outside its operation. Returns each operation's
    MAC count."""
    macs = []
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        tally = tallies[len(macs) % len(tallies)]
        traced = tracer is not None and tally is tallies[-1]
        if traced:
            tracer.install()
            tracer.op(f"{prefix}{len(macs)}")
        start = time.perf_counter()
        op_macs, check = workload.op(tally)
        tally.op_ms.append((time.perf_counter() - start) * 1e3)
        if traced:
            tracer.op(None)
            tracer.uninstall()
        macs.append(op_macs)
        if check is not None:
            check()
        if count is not None:
            if len(macs) == count:
                return macs
        elif len(macs) >= len(tallies) and time.perf_counter() >= deadline:
            return macs


def end_to_end(setups, tally):
    lat = tally.latency_ms
    busy = tally.busy_s
    return {
        "latency_ms_p50": (float(np.percentile(lat, 50)), len(lat)),
        "latency_ms_p95": (float(np.percentile(lat, 95)), len(lat)),
        "tokens_per_s": (tally.tokens / busy, len(tally.op_ms)),
        "sentences_per_s": (tally.sentences / busy, len(tally.op_ms)),
        "setup_s": (statistics.median(setups), len(setups)),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def child(args):
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={int(args.smoke)}; closed loop, 1 client")
    blas = blas_in_force()
    print(blas)

    # setup_s is a median: set up at least twice and for SETUP_MIN_S in all
    # (once in a traced run, which does not report it).
    setups = []
    while not setups or not args.trace and (
            len(setups) < 2 or sum(setups) < SETUP_MIN_S):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    check = workloads.Tally()
    if not args.trace:
        check_macs = run_ops(workload, [check], "c", count=workload.check_ops)
        timed = workloads.Tally()
        run_ops(workload, [timed], "t", seconds=args.seconds)
        phases = (check, timed)
        metrics, spec = end_to_end(setups, timed), END_TO_END
    else:
        tracer = spans.Tracer()
        for model in workload.models():
            tracer.register(model)
        check_macs = run_ops(workload, [check], "c", count=workload.check_ops,
                             tracer=tracer)
        untraced, traced = workloads.Tally(), workloads.Tally()
        run_ops(workload, [untraced, traced], "t", seconds=args.seconds,
                tracer=tracer)
        for op in tracer.check_self_sums():
            traced.fail(1, f"span self times of op {op} do not sum to its "
                           f"traced wall time")
        tracer.write(os.path.join(OUT, f"{args.workload}.spans.jsonl"))
        phases = (check, untraced, traced)
        metrics = spans.per_layer(workload, tracer, len(check_macs),
                                  traced, untraced)
        spec = spans.PER_LAYER

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [m for p in phases for m in p.errors]
    print(f"  ops {attempted} ops_failed {failed}")
    print(f"  check pass MACs per op {check_macs}")
    for message in errors:
        print(f"  failure: {message}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    for name, (value, samples) in metrics.items():
        print(_metric_line(name, value, spec[name], samples))
        result["metrics"][name] = {"value": value, "unit": spec[name]}
    report = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, blas=blas, check_macs=check_macs,
                  errors=errors,
                  samples={name: n for name, (_, n) in metrics.items()})
    path = os.path.join(OUT, f"{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "waitkit", "__init__.py")):
        print(f"perfbench: waitkit sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    try:
        return parent(args)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
