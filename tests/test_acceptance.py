"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Training-backed criteria share module-scoped fixtures so every expensive
run happens once. All tolerances are pinned here, not configurable.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.bench import bench_forward
from waitkit.evaluation import (
    corpus_bleu,
    evaluate_model,
    hidden_distance_stats,
    k_matrix,
)
from waitkit.tensor import Tensor
from waitkit.training import (
    SyntheticTaskSpec,
    TrainConfig,
    generate_synthetic,
    pad_batch,
    total_loss,
    train,
)
from waitkit.transformer import (
    IncrementalModel,
    ModelConfig,
    TeacherModel,
    average_embedding_states,
    encode_waitk_recompute,
)
from waitkit.waitk import (
    DecodeTrace,
    WaitKSchedule,
    average_lagging,
    read_count,
    streaming_decode,
)

from conftest import (check_gradients, concat, full_h, masked_softmax, mul,
                      reshape, sign_test, sub, transpose, tsum)


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number:2d}] {status}  {name}  {detail}", flush=True)
    assert passed, f"criterion {number} failed: {name} {detail}"


# ----------------------------------------------------------------------
# Shared training fixtures


COPY_SPEC = SyntheticTaskSpec(kind="copy", vocab_size=32, min_len=5,
                              max_len=12, seed=0)
COPY_TEST_SPEC = SyntheticTaskSpec(kind="copy", vocab_size=32, min_len=5,
                                   max_len=12, seed=1)
LAG_SPEC = SyntheticTaskSpec(kind="lagged_map", vocab_size=32, min_len=6,
                             max_len=10, lag=2, seed=42)
LAG_TEST_SPEC = SyntheticTaskSpec(kind="lagged_map", vocab_size=32,
                                  min_len=6, max_len=10, lag=2, seed=43)

SMALL_MODEL = dict(n_layers=2, d_model=32, n_heads=2, d_ff=64, src_vocab=32,
                   tgt_vocab=32, max_len=64)


@pytest.fixture(scope="module")
def copy_run():
    """Criterion 7 training: copy task, k=3, budget-capped."""
    examples = generate_synthetic(COPY_SPEC, 2000)
    model_cfg = ModelConfig(k=3, **SMALL_MODEL)
    train_cfg = TrainConfig(lambda_distill=0.1, lr=1e-3, max_steps=5000,
                            seed=0, k=3, batch_size=16, early_stop_loss=0.02)
    start = time.monotonic()
    teacher, student, _ = train(examples, model_cfg, train_cfg)
    test = generate_synthetic(COPY_TEST_SPEC, 200)
    rep = evaluate_model(student, test, 3, teacher=teacher)
    elapsed = time.monotonic() - start
    return teacher, student, rep, elapsed


@pytest.fixture(scope="module")
def distill_runs():
    """Criteria 8 and 9: lagged_map at k=1, both lambdas, matched seeds,
    fixed step budget so the comparison sees identical training."""
    examples = generate_synthetic(LAG_SPEC, 2000)
    model_cfg = ModelConfig(k=1, **SMALL_MODEL)
    runs = {}
    for seed in (1, 2, 3):
        for lam in (0.1, 0.0):
            cfg = TrainConfig(lambda_distill=lam, lr=1e-3, max_steps=600,
                              seed=seed, k=1, batch_size=16)
            teacher, student, _ = train(examples, model_cfg, cfg)
            runs[(seed, lam)] = (teacher, student)
    return runs


@pytest.fixture(scope="module")
def mode_runs():
    """Criterion 10: joint vs pretrain-then-freeze on lagged_map at k=3,
    both trained to saturation on a fixed generous budget."""
    examples = generate_synthetic(LAG_SPEC, 2000)
    model_cfg = ModelConfig(k=3, **SMALL_MODEL)
    runs = {}
    for seed in (1, 2, 3):
        for mode in ("joint", "pretrain_fixed_teacher"):
            cfg = TrainConfig(lambda_distill=0.1, lr=1e-3, max_steps=1800,
                              seed=seed, k=3, batch_size=16, mode=mode)
            _, student, _ = train(examples, model_cfg, cfg)
            runs[(seed, mode)] = student
    return runs


@pytest.fixture(scope="module")
def kmatrix_models():
    """Criterion 12: one trained copy-task student per training k, and the
    step at which each one's training stopped."""
    examples = generate_synthetic(COPY_SPEC, 2000)
    students = {}
    stop_steps = {}
    for k in (1, 3, 5):
        model_cfg = ModelConfig(k=k, **SMALL_MODEL)
        cfg = TrainConfig(lambda_distill=0.1, lr=1e-3, max_steps=2500,
                          seed=0, k=k, batch_size=16, early_stop_loss=0.02)
        _, student, rows = train(examples, model_cfg, cfg)
        students[k] = student
        stop_steps[k] = rows[-1][0]
    return students, stop_steps


# ----------------------------------------------------------------------
# 1. Gradient suite


def test_criterion_1_gradient_suite(rng):
    start = time.monotonic()

    def rand(*shape):
        return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)

    weighted = check_gradients

    shapes3 = [(2, 3), (3, 4), (4, 4, 8)]
    for shape in shapes3:
        a, b = rand(*shape), rand(*shape)
        w = rng.normal(size=shape)
        weighted(lambda: tsum(mul(T.add(a, b), Tensor(w))), [a, b])
        weighted(lambda: tsum(mul(sub(a, b), Tensor(w))), [a, b])
        weighted(lambda: tsum(mul(mul(a, b), Tensor(w))), [a, b])
        weighted(lambda: tsum(T.scale(a, 1.7)), [a])

    for m, p, q in [(2, 3, 4), (3, 3, 3), (4, 2, 5)]:
        a, b = rand(m, p), rand(p, q)
        w = rng.normal(size=(m, q))
        weighted(lambda: tsum(mul(T.matmul(a, b), Tensor(w))), [a, b])

    for shape, n_out in [((3, 4), 5), ((2, 3, 4), 2), ((4, 8), 3)]:
        x, wt, bias = rand(*shape), rand(n_out, shape[-1]), rand(n_out)
        w = rng.normal(size=shape[:-1] + (n_out,))
        weighted(lambda: tsum(mul(T.linear(x, wt, bias), Tensor(w))),
                 [x, wt, bias])

    for shape in shapes3:
        vals = rng.uniform(0.1, 1.0, size=shape) * rng.choice([-1, 1], shape)
        x = Tensor(vals, requires_grad=True)
        w = rng.normal(size=shape)
        weighted(lambda: tsum(mul(T.relu(x), Tensor(w))), [x])

    for ids_shape, vocab, dim in [((3,), 5, 4), ((2, 3), 6, 3), ((4,), 4, 8)]:
        weight = rand(vocab, dim)
        ids = rng.integers(0, vocab, size=ids_shape)
        w = rng.normal(size=ids_shape + (dim,))
        weighted(lambda: tsum(mul(T.embedding(weight, ids), Tensor(w))),
                 [weight])

    for shape in [(3, 4), (2, 4, 4), (4, 4, 8)]:
        x = rand(*shape)
        mask = rng.random(shape) > 0.3
        mask[..., 0] = True
        w = rng.normal(size=shape)
        weighted(
            lambda: tsum(mul(masked_softmax(x, mask), Tensor(w))), [x]
        )

    for shape in [(3, 4), (2, 3, 8), (4, 4, 8)]:
        x, gain, bias = rand(*shape), rand(shape[-1]), rand(shape[-1])
        w = rng.normal(size=shape)
        weighted(
            lambda: tsum(mul(T.layer_norm(x, gain, bias), Tensor(w))),
            [x, gain, bias],
        )

    for shape in [(3, 5), (2, 3, 6), (4, 8)]:
        x = rand(*shape)
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        weighted(lambda: T.cross_entropy(x, targets), [x])

    for shape in [(3, 4), (2, 4, 8), (4, 4)]:
        a, b = rand(*shape), rand(*shape)
        weighted(lambda: T.l2_distance_loss(a, b), [a, b])

    for shape in [(3, 4), (2, 4, 4), (6, 8)]:
        x = rand(*shape)
        w = rng.normal(size=shape)
        weighted(
            lambda: tsum(mul(T.masked_cumulative_mean(x), Tensor(w))), [x]
        )

    for shape, axes in [((2, 3), (1, 0)), ((2, 3, 4), (2, 0, 1)),
                        ((3, 2, 2), (1, 0, 2))]:
        x = rand(*shape)
        w = rng.normal(size=tuple(shape[a] for a in axes))
        weighted(
            lambda: tsum(mul(transpose(x, axes), Tensor(w))), [x]
        )

    for shape, new in [((2, 6), (3, 4)), ((4, 2), (8,)), ((2, 2, 3), (6, 2))]:
        x = rand(*shape)
        w = rng.normal(size=new)
        weighted(lambda: tsum(mul(reshape(x, new), Tensor(w))), [x])

    for axis in (0, 1):
        for _ in range(3):
            a, b = rand(2, 3), rand(2, 3)
            shape = (4, 3) if axis == 0 else (2, 6)
            w = rng.normal(size=shape)
            weighted(
                lambda: tsum(mul(concat(a, b, axis), Tensor(w))),
                [a, b],
            )

    for key in [(slice(0, 2),), (slice(1, 3), slice(0, 2)), (1,)]:
        x = rand(3, 4)
        w = rng.normal(size=x.values[key].shape)
        weighted(lambda: tsum(mul(T.tslice(x, key), Tensor(w))), [x])

    for idx in [np.array([0, 2]), np.array([1, 1, 3]), np.array([2])]:
        x = rand(4, 3)
        w = rng.normal(size=(len(idx), 3))
        weighted(
            lambda: tsum(mul(T.gather_rows(x, idx, 0), Tensor(w))), [x]
        )

    # composite objective through both full models, ten sampled parameters
    cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16, src_vocab=12,
                      tgt_vocab=12, max_len=16, k=2)
    teacher = TeacherModel(cfg, seed=5)
    student = IncrementalModel(cfg, seed=6)
    from waitkit.training import ParallelExample
    batch = [ParallelExample([4, 5, 6, 7], [4, 5, 6, 7]),
             ParallelExample([8, 9, 10, 11], [8, 9, 10])]
    src, tgt_in, tgt_out, mask = pad_batch(batch)

    def loss_value():
        with T.no_grad():
            tl, zf = teacher.forward(src, tgt_in)
            sl, zi = student.forward(src, tgt_in, 2)
            return total_loss(sl, tl, tgt_out, zi, zf, 0.1, "joint", mask)[0].item()

    with T.Tape() as tape:
        tl, zf = teacher.forward(src, tgt_in)
        sl, zi = student.forward(src, tgt_in, 2)
        loss, _ = total_loss(sl, tl, tgt_out, zi, zf, 0.1, "joint", mask)
        tape.backward(loss)
    params = teacher.parameters() + student.parameters()
    sampler = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        p = params[sampler.integers(len(params))]
        flat = p.values.reshape(-1)
        i = int(sampler.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + 1e-5
        up = loss_value()
        flat[i] = orig - 1e-5
        down = loss_value()
        flat[i] = orig
        fd = (up - down) / 2e-5
        an = p.grad.reshape(-1)[i]
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-10)
        worst = max(worst, rel)
        assert rel <= 1e-3, (an, fd)

    elapsed = time.monotonic() - start
    report(1, "gradient suite vs central differences", elapsed < 120.0,
           f"worst composite rel err {worst:.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. Prefix stability


def test_criterion_2_prefix_stability():
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                      src_vocab=24, tgt_vocab=24, max_len=20, k=1)
    model = IncrementalModel(cfg, seed=7)
    rng = np.random.default_rng(2024)
    worst = 0.0
    with T.no_grad():
        for _ in range(200):
            n = int(rng.integers(1, 17))
            ids = rng.integers(4, 24, size=n)
            full = model.encode(ids).values
            for p in range(1, n + 1):
                part = model.encode(ids[:p]).values
                worst = max(worst, float(np.abs(full[:p] - part).max()))
    report(2, "prefix-truncation equality, 200 sentences", worst <= 1e-12,
           f"max deviation {worst:.2e}")


# ----------------------------------------------------------------------
# 3. Streaming / batch parity


def test_criterion_3_streaming_batch_parity():
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                      src_vocab=24, tgt_vocab=24, max_len=40, k=1)

    def batched_greedy(model, src, k, cap):
        out = []
        with T.no_grad():
            while True:
                tgt_in = np.array([[1] + out])
                logits, _ = model.forward(np.array([src]), tgt_in, k)
                nxt = int(np.argmax(logits.values[0, -1]))
                if nxt == 2 or len(out) >= cap:
                    return out
                out.append(nxt)

    mismatches = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 17))
        src = rng.integers(4, 24, size=n).tolist()
        model = IncrementalModel(cfg, seed=1000 + seed)
        k = (1, 3, 5)[seed % 3]
        streamed, _ = streaming_decode(model, src, k)
        if streamed != batched_greedy(model, src, k, 2 * n + 5):
            mismatches += 1
    report(3, "streaming equals batched greedy decode, 200 seeds",
           mismatches == 0, f"{mismatches} mismatches")


# ----------------------------------------------------------------------
# 4. Recompute fidelity


def test_criterion_4_recompute_fidelity():
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                      src_vocab=24, tgt_vocab=24, max_len=20, k=1)
    model = TeacherModel(cfg, seed=8)
    rng = np.random.default_rng(77)
    worst = 0.0
    with T.no_grad():
        for _ in range(30):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, 6))
            t_steps = n + int(rng.integers(0, 4))
            ids = rng.integers(4, 24, size=n)
            sched = WaitKSchedule(k, n)
            out = encode_waitk_recompute(model.encoder, ids, sched,
                                         t_steps).values
            for t in range(1, t_steps + 1):
                g = read_count(k, t, n)
                ref = model.encode(ids[:g]).values
                worst = max(worst, float(np.abs(out[t - 1, :g] - ref).max()))
                assert np.all(out[t - 1, g:] == 0.0)
    report(4, "recompute rows equal fresh truncated encodings",
           worst <= 1e-12, f"max deviation {worst:.2e}")


# ----------------------------------------------------------------------
# 5. Averaging-bridge oracle


def test_criterion_5_averaging_bridge_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in (1, 2, 3, 7, 16, 33, 48, 64):
        d = 8
        inputs = rng.normal(size=(n, d))
        weight = rng.normal(size=(d, d))
        states = rng.normal(size=(n, d))
        inc = average_embedding_states(Tensor(inputs), Tensor(states),
                                       Tensor(weight))
        # sequential oracle, one prefix at a time
        for i in range(n):
            mean = inputs[: i + 1].mean(axis=0)
            worst = max(worst,
                        float(np.abs(inc.f.values[i] - mean @ weight.T).max()))
        h = full_h(inc).values
        for i in range(n):
            assert np.all(h[i, i + 1:] == 0.0)
    report(5, "parallel prefix means equal sequential loop; zero branch exact",
           worst <= 1e-12, f"max deviation {worst:.2e}")


# ----------------------------------------------------------------------
# 6. Complexity separation


def complexity_timings():
    """Criterion 6's MAC and wall ratios at n=T=64, k=1, and each k's
    baseline and incremental encoder seconds."""
    cfg = ModelConfig(n_layers=2, d_model=64, n_heads=2, d_ff=256,
                      src_vocab=32, tgt_vocab=32, max_len=80, k=1)
    base = bench_forward("baseline_bi", 64, 1, cfg, trials=5, seed=0)
    incr = bench_forward("incremental_ael", 64, 1, cfg, trials=5, seed=0)

    # Every k is sampled once per round, for 25 rounds: a drift in machine
    # speed then lands on all k alike, not on whichever k was being timed.
    # Each k keeps its fastest round: another process can only slow a
    # round, so the minimum is the estimate that load moves least.
    ks = (1, 17, 33)
    samples = {(v, k): [] for v in ("baseline_bi", "incremental_ael")
               for k in ks}
    for _ in range(25):
        for variant, k in samples:
            samples[variant, k].append(
                bench_forward(variant, 64, k, cfg, trials=1,
                              seed=0).median_secs)
    return {"mac_ratio": base.mac_count / incr.mac_count,
            "wall_ratio": base.median_secs / incr.median_secs,
            "base_times": [min(samples["baseline_bi", k]) for k in ks],
            "incr_times": [min(samples["incremental_ael", k]) for k in ks]}


def test_criterion_6_complexity_separation():
    # Timed in a child on one BLAS thread. With two, a busy process on the
    # other CPU stalls every threaded product, and the incremental times
    # then spread past 1.2 under a median or a minimum alike.
    start = time.monotonic()
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, test_acceptance as t; "
         "print(json.dumps(t.complexity_timings()))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout)
    base_times, incr_times = m["base_times"], m["incr_times"]
    baseline_monotone = all(
        later <= earlier * 1.05
        for earlier, later in zip(base_times, base_times[1:])
    )
    incr_spread = max(incr_times) / min(incr_times)
    elapsed = time.monotonic() - start
    ok = (m["mac_ratio"] >= 32.0 and m["wall_ratio"] >= 8.0
          and baseline_monotone and incr_spread <= 1.2 and elapsed < 300.0)
    report(6, "complexity separation at n=T=64, k=1", ok,
           f"mac x{m['mac_ratio']:.1f}, wall x{m['wall_ratio']:.1f}, "
           f"baseline times {['%.3f' % t for t in base_times]}, "
           f"incr spread {incr_spread:.2f}, {elapsed:.0f}s")


# ----------------------------------------------------------------------
# 7. Toy quality


def test_criterion_7_toy_quality(copy_run):
    _, _, rep, elapsed = copy_run
    ok = (rep.corpus_bleu >= 90.0 and abs(rep.mean_al - 3.0) <= 0.5
          and elapsed < 900.0)
    report(7, "copy task quality at k=3", ok,
           f"BLEU {rep.corpus_bleu:.2f}, AL {rep.mean_al:.3f}, {elapsed:.0f}s")


# ----------------------------------------------------------------------
# 8. Future-guidance direction


def test_criterion_8_future_guidance(distill_runs):
    test = generate_synthetic(LAG_TEST_SPEC, 100)
    wins = 0
    present_ok = True
    details = []
    for seed in (1, 2, 3):
        _, student_d = distill_runs[(seed, 0.1)]
        _, student_p = distill_runs[(seed, 0.0)]
        rep_d = evaluate_model(student_d, test, 1)
        rep_p = evaluate_model(student_p, test, 1)
        if rep_d.absent_1gram >= rep_p.absent_1gram:
            wins += 1
        if rep_d.present_1gram < rep_p.present_1gram - 0.02:
            present_ok = False
        details.append(
            f"s{seed}: absent {rep_d.absent_1gram:.3f} vs "
            f"{rep_p.absent_1gram:.3f}, present {rep_d.present_1gram:.3f} vs "
            f"{rep_p.present_1gram:.3f}"
        )
    report(8, "distillation lifts unread-token unigram accuracy",
           wins >= 2 and present_ok, f"{wins}/3 seeds; " + "; ".join(details))


# ----------------------------------------------------------------------
# 9. Distillation effect on hidden distance


def test_criterion_9_distillation_distance(distill_runs):
    test = generate_synthetic(LAG_TEST_SPEC, 100)
    wins = 0
    details = []
    for seed in (1, 2, 3):
        teacher_d, student_d = distill_runs[(seed, 0.1)]
        teacher_p, student_p = distill_runs[(seed, 0.0)]
        dist_d = hidden_distance_stats(student_d, teacher_d, test)
        dist_p = hidden_distance_stats(student_p, teacher_p, test)
        if dist_d < dist_p:
            wins += 1
        details.append(f"s{seed}: {dist_d:.3f} vs {dist_p:.3f}")
    report(9, "held-out hidden distance lower with distillation",
           wins == 3, f"{wins}/3 seeds; " + "; ".join(details))


# ----------------------------------------------------------------------
# 10. Joint vs pretrain direction


def test_criterion_10_joint_vs_pretrain(mode_runs):
    test = generate_synthetic(LAG_TEST_SPEC, 100)
    wins = 0
    details = []
    for seed in (1, 2, 3):
        bleu_joint = evaluate_model(mode_runs[(seed, "joint")], test, 3).corpus_bleu
        bleu_pre = evaluate_model(
            mode_runs[(seed, "pretrain_fixed_teacher")], test, 3).corpus_bleu
        if bleu_joint >= bleu_pre:
            wins += 1
        details.append(f"s{seed}: {bleu_joint:.2f} vs {bleu_pre:.2f}")
    report(10, "joint training at least matches a frozen pretrained teacher",
           wins >= 2, f"{wins}/3 seeds; " + "; ".join(details))


# ----------------------------------------------------------------------
# 11. Metric pinning


def test_criterion_11_metric_pinning():
    al_1 = average_lagging(DecodeTrace([1, 2, 3], 3, [9, 9, 9]))
    al_2 = average_lagging(DecodeTrace([2, 3, 4, 4], 4, [9, 9, 9, 9]))
    al_n = [
        average_lagging(DecodeTrace([n] * n, n, [9] * n)) for n in (2, 5, 8)
    ]
    cand = list("abcdef")
    self_match = corpus_bleu([cand], [[cand]])
    disjoint = corpus_bleu([["a", "b", "c", "d"]], [[["w", "x", "y", "z"]]])
    ok = (
        al_1 == pytest.approx(1.0)
        and al_2 == pytest.approx(2.0)
        and al_n == [pytest.approx(float(n)) for n in (2, 5, 8)]
        and self_match == pytest.approx(100.0)
        and disjoint == 0.0
    )
    report(11, "average lagging and BLEU worked examples", ok,
           f"AL {al_1:.3f}/{al_2:.3f}/{al_n}, BLEU {self_match:.1f}/{disjoint:.1f}")


# ----------------------------------------------------------------------
# 12. Train-k / test-k matrix sanity

# Both models in a comparison are often at ceiling, where one or two
# sentences decide their BLEU order. So a smaller-k model fails the column
# only if a paired sign test on exact matches shows it better. The 3
# Bonferroni-corrects for the three comparisons the 3 x 3 grid makes.
REVERSAL_ALPHA = 0.05 / 3


def exact_matches(model, dataset, k):
    """One flag per sentence: is the streamed output the reference?"""
    return [streaming_decode(model, ex.src, k)[0] == list(ex.tgt)
            for ex in dataset]


def test_criterion_12_k_matrix(kmatrix_models):
    students, stop_steps = kmatrix_models
    test = generate_synthetic(COPY_TEST_SPEC, 100)
    ks = [1, 3, 5]
    matrix = k_matrix(students, ks, test)
    ok = True
    details = []
    for j, test_k in enumerate(ks):
        below = [tk for tk in ks if tk < test_k]
        if not below:
            continue
        best = max((tk for tk in ks if tk >= test_k),
                   key=lambda tk: matrix[ks.index(tk), j])
        best_right = exact_matches(students[best], test, test_k)
        for train_k in below:
            wins, losses, p = sign_test(
                exact_matches(students[train_k], test, test_k), best_right)
            if p < REVERSAL_ALPHA:
                ok = False
            details.append(f"test k={test_k}: train k={train_k} vs k={best} "
                           f"right only {wins}:{losses}, p {p:.2g}")
    details.append("stopped " + ", ".join(
        f"k={k}@{step}" for k, step in stop_steps.items()))
    grid = np.array2string(matrix, precision=2).replace("\n", "")
    report(12, "no train k < test k beats the column's best train k >= test k",
           ok, f"matrix {grid}; " + "; ".join(details))
