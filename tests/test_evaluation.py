"""BLEU, read/unread unigram accuracy, report aggregation, k-matrix."""

import math
from collections import Counter

import numpy as np
import pytest

from waitkit.evaluation import (
    _clipped_matches,
    corpus_bleu,
    evaluate_model,
    hidden_distance_stats,
    k_matrix,
    present_absent_split,
)
from waitkit.training import ParallelExample, SyntheticTaskSpec, generate_synthetic
from waitkit.transformer import IncrementalModel, TeacherModel
from waitkit.waitk import DecodeTrace, read_counts, streaming_decode


def waitk_trace(ex, tokens, k):
    """The trace of a wait-k decode over ex.src that emitted tokens."""
    n = len(ex.src)
    return DecodeTrace(read_counts(k, n, len(tokens)).tolist(), n,
                       list(tokens))


class TestCorpusBleu:
    def test_perfect_match_is_100(self):
        cand = list("abcdef")
        assert corpus_bleu([cand], [[cand]]) == pytest.approx(100.0)

    def test_disjoint_unigrams_is_0(self):
        assert corpus_bleu([["a", "b", "c", "d"]], [[["x", "y", "z", "w"]]]) == 0.0

    def test_short_candidate_hand_formula(self):
        # p1 = p2 = p3 = 1, candidate has no 4-grams (epsilon fallback),
        # brevity penalty exp(1 - 4/3); evaluated by hand from the formula
        cand = ["the", "cat", "sat"]
        ref = ["the", "cat", "sat", "down"]
        expected = 100.0 * math.exp(1.0 - 4.0 / 3.0) * (1e-9) ** 0.25
        assert corpus_bleu([cand], [[ref]]) == pytest.approx(expected, rel=1e-9)

    def test_zero_fourgram_precision_with_support_is_0(self):
        # candidate has 4-grams but none match
        cand = ["a", "b", "c", "d", "e"]
        ref = ["a", "b", "x", "c", "d"]
        assert corpus_bleu([cand], [[ref]]) == 0.0

    def test_permutation_invariant(self, rng):
        cands, refs = [], []
        for i in range(6):
            n = int(rng.integers(4, 10))
            ref = [int(x) for x in rng.integers(0, 9, size=n)]
            cand = list(ref)
            if i % 2 == 0 and len(cand) > 4:
                cand[2] = 99
            cands.append(cand)
            refs.append([ref])
        forward = corpus_bleu(cands, refs)
        order = rng.permutation(len(cands))
        shuffled = corpus_bleu([cands[i] for i in order],
                               [refs[i] for i in order])
        assert forward == pytest.approx(shuffled, rel=1e-12)

    def test_multi_reference_clipping_and_bp(self):
        cand = ["a", "b", "c", "d"]
        refs = [["a", "b", "c", "d"], ["a", "b", "c", "d", "e", "f"]]
        assert corpus_bleu([cand], [refs]) == pytest.approx(100.0)

    def test_empty_candidate_contributes_zero_length(self):
        score = corpus_bleu([[], ["a", "b", "c", "d"]],
                            [[["x"]], [["a", "b", "c", "d"]]])
        # nonzero despite the empty candidate; brevity penalty bites
        assert 0.0 < score < 100.0

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])

    def test_matches_independent_formula(self, rng):
        # independent implementation: straight transcription of the formula
        def reference_bleu(cands, refs):
            from collections import Counter

            def grams(seq, n):
                return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))

            num = [0] * 4
            den = [0] * 4
            c_total, r_total = 0, 0
            for cand, rlist in zip(cands, refs):
                c_total += len(cand)
                r_total += min((abs(len(r) - len(cand)), len(r)) for r in rlist)[1]
                for n in range(1, 5):
                    cg = grams(cand, n)
                    best = Counter()
                    for r in rlist:
                        for g, c in grams(r, n).items():
                            best[g] = max(best[g], c)
                    num[n - 1] += sum(min(c, best[g]) for g, c in cg.items())
                    den[n - 1] += max(len(cand) - n + 1, 0)
            ps = []
            for n in range(4):
                if den[n] == 0:
                    ps.append(1e-9 if n > 0 else 0.0)
                else:
                    ps.append(num[n] / den[n])
            if any(p == 0 for p in ps):
                return 0.0
            bp = 1.0 if c_total > r_total else math.exp(1 - r_total / c_total)
            return 100.0 * bp * math.exp(sum(math.log(p) for p in ps) / 4)

        cands, refs = [], []
        for _ in range(8):
            n = int(rng.integers(1, 12))
            ref = [int(x) for x in rng.integers(0, 6, size=max(n, 1))]
            cand = [int(x) for x in rng.integers(0, 6, size=n)]
            cands.append(cand)
            refs.append([ref])
        assert corpus_bleu(cands, refs) == pytest.approx(
            reference_bleu(cands, refs), rel=1e-12
        )


class TestOneGramScore:
    """The clipped unigram matches behind the absent/present 1-gram
    accuracies, which divide their corpus sums by the tokens scored."""

    def test_all_present(self):
        assert _clipped_matches(["a", "b"], ["b", "a", "c"]) == 2

    def test_none_present(self):
        assert _clipped_matches(["x", "y"], ["a", "b"]) == 0

    def test_half_present(self):
        assert _clipped_matches(["a", "a", "x", "y"], ["a", "a", "b"]) == 2

    def test_clipping(self):
        assert _clipped_matches(["a", "a", "a"], ["a"]) == 1


class TestPresentAbsentSplit:
    def test_wait_all_everything_present(self):
        ex = ParallelExample([4, 5, 6], [4, 5, 6],
                             [(0, 0), (1, 1), (2, 2)])
        present, absent = present_absent_split(
            ex, waitk_trace(ex, [4, 5, 6], 9))
        assert present == [4, 5, 6] and absent == []

    def test_lagged_wait1_mostly_absent(self):
        spec = SyntheticTaskSpec(kind="lagged_map", vocab_size=16, min_len=6,
                                 max_len=6, lag=2, seed=2)
        ex = generate_synthetic(spec, 1)[0]
        present, absent = present_absent_split(ex, waitk_trace(ex, ex.tgt, 1))
        n = len(ex.src)
        # only the final position has its aligned token already read
        assert len(present) == 1
        assert len(absent) == n - 1

    def test_partition_is_exact(self, rng):
        spec = SyntheticTaskSpec(kind="lagged_map", vocab_size=16, min_len=4,
                                 max_len=9, lag=2, seed=3)
        for ex in generate_synthetic(spec, 100):
            generated = [int(x) for x in rng.integers(4, 16,
                                                      size=rng.integers(1, 12))]
            split = present_absent_split(ex, waitk_trace(ex, generated, 1))
            present, absent = split
            assert len(present) + len(absent) == len(generated)
            # brute-force the inequality per token
            n = len(ex.src)
            amap = dict(ex.alignment)
            for i0, tok in enumerate(generated):
                j = amap.get(i0, n - 1) + 1
                expected_present = j <= min(i0 + 1, n)
                got_present = (i0, tok) in [
                    (g, t) for g, t in enumerate(generated)
                    if (amap.get(g, n - 1) + 1) <= min(g + 1, n)
                ]
                assert expected_present == got_present

    def test_counts_match_bruteforce_loop(self):
        spec = SyntheticTaskSpec(kind="lagged_map", vocab_size=32, min_len=5,
                                 max_len=10, lag=2, seed=4)
        examples = generate_synthetic(spec, 100)
        k = 1
        total_p, total_a = 0, 0
        brute_p, brute_a = 0, 0
        for ex in examples:
            present, absent = present_absent_split(
                ex, waitk_trace(ex, ex.tgt, k))
            total_p += len(present)
            total_a += len(absent)
            n = len(ex.src)
            for i, j in ex.alignment:
                if (j + 1) <= min((i + 1) + k - 1, n):
                    brute_p += 1
                else:
                    brute_a += 1
        assert (total_p, total_a) == (brute_p, brute_a)

    def test_missing_alignment_skipped(self):
        ex = ParallelExample([4, 5], [4, 5])
        assert present_absent_split(ex, waitk_trace(ex, [4, 5], 1)) is None

    def test_decoded_split_equals_schedule_split(self, tiny_cfg):
        """On real decodes, capped before, at and after the emission that
        reads the last source token, the split by the trace's read counts
        is the split by the wait-k schedule min(k + i, n), token for
        token."""
        student = IncrementalModel(tiny_cfg, seed=35)
        for seed in range(50):
            ex = generate_synthetic(SyntheticTaskSpec(
                kind="lagged_map", vocab_size=20, min_len=1, max_len=9,
                lag=seed % 4, seed=seed), 1)[0]
            n, amap = len(ex.src), dict(ex.alignment)
            for k in range(1, 5):
                end = max(1, n - k + 1)
                for cap in (max(1, end - 1), end, end + 2):
                    tokens, trace = streaming_decode(student, ex.src, k,
                                                     max_len=cap, eos_id=-1)
                    want = ([], [])
                    for i, token in enumerate(tokens):
                        read = amap.get(i, n - 1) < min(k + i, n)
                        want[0 if read else 1].append(token)
                    assert present_absent_split(ex, trace) == want


class TestEvaluateAndMatrix:
    def test_untrained_model_report(self, tiny_cfg):
        student = IncrementalModel(tiny_cfg, seed=30)
        spec = SyntheticTaskSpec(kind="copy", vocab_size=20, min_len=3,
                                 max_len=6, seed=5)
        dataset = generate_synthetic(spec, 10)
        report = evaluate_model(student, dataset, 3)
        assert report.corpus_bleu >= 0.0
        assert report.sentences == 10
        assert np.isnan(report.mean_hidden_l2)

    def test_pooled_unigram_accuracies_match_inline_loop(self, tiny_cfg):
        """evaluate_model pools each sentence's clipped present and absent
        counts; the loop it used to inline gives the same fractions."""
        spec = SyntheticTaskSpec(kind="lagged_map", vocab_size=8, min_len=4,
                                 max_len=9, lag=2, seed=6)
        dataset = generate_synthetic(spec, 30)
        student = IncrementalModel(tiny_cfg, seed=31)
        report = evaluate_model(student, dataset, 2)
        match, total = [0, 0], [0, 0]
        for ex in dataset:
            _, trace = streaming_decode(student, ex.src, 2)
            split = present_absent_split(ex, trace)
            ref_counts = Counter(ex.tgt)
            for i, tokens_set in enumerate(split):
                counts = Counter(tokens_set)
                match[i] += sum(min(c, ref_counts[t])
                                for t, c in counts.items())
                total[i] += len(tokens_set)
        assert min(match) > 0
        assert report.present_1gram == match[0] / total[0]
        assert report.absent_1gram == match[1] / total[1]

    def test_traces_written(self, tiny_cfg, tmp_path):
        student = IncrementalModel(tiny_cfg, seed=31)
        spec = SyntheticTaskSpec(kind="copy", vocab_size=20, min_len=3,
                                 max_len=5, seed=6)
        dataset = generate_synthetic(spec, 4)
        path = tmp_path / "traces.jsonl"
        evaluate_model(student, dataset, 2, trace_path=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert all('"g":' in line for line in lines)

    def test_hidden_distance_self_is_zero(self, tiny_cfg):
        student = IncrementalModel(tiny_cfg, seed=32)
        spec = SyntheticTaskSpec(kind="copy", vocab_size=20, min_len=3,
                                 max_len=5, seed=7)
        dataset = generate_synthetic(spec, 5)
        assert hidden_distance_stats(student, student, dataset) == 0.0

    def test_hidden_distance_of_no_sentences_rejected(self, tiny_cfg):
        student = IncrementalModel(tiny_cfg, seed=32)
        with pytest.raises(ValueError, match="empty dataset"):
            hidden_distance_stats(student, student, [])

    def test_hidden_distance_positive_for_independent_models(self, tiny_cfg):
        student = IncrementalModel(tiny_cfg, seed=33)
        teacher = TeacherModel(tiny_cfg, seed=34)
        spec = SyntheticTaskSpec(kind="copy", vocab_size=20, min_len=3,
                                 max_len=5, seed=8)
        dataset = generate_synthetic(spec, 5)
        assert hidden_distance_stats(student, teacher, dataset) > 0.0

    def test_matrix_shape_and_csv(self, tiny_cfg, tmp_path):
        students = {k: IncrementalModel(tiny_cfg, seed=40 + k) for k in (1, 3)}
        spec = SyntheticTaskSpec(kind="copy", vocab_size=20, min_len=3,
                                 max_len=5, seed=9)
        dataset = generate_synthetic(spec, 5)
        path = tmp_path / "matrix.csv"
        matrix = k_matrix(students, [1, 3, 5], dataset, csv_path=path)
        assert matrix.shape == (2, 3)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "train_k,test_k=1,test_k=3,test_k=5"
        assert len(lines) == 3

    def test_matrix_diagonal_consistent_with_evaluate(self, tiny_cfg):
        student = IncrementalModel(tiny_cfg, seed=44)
        spec = SyntheticTaskSpec(kind="copy", vocab_size=20, min_len=3,
                                 max_len=5, seed=10)
        dataset = generate_synthetic(spec, 5)
        matrix = k_matrix({3: student}, [3], dataset)
        report = evaluate_model(student, dataset, 3)
        assert matrix[0, 0] == pytest.approx(report.corpus_bleu, rel=1e-12)
