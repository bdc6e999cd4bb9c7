"""Translation quality and latency measurement.

Corpus-level 4-gram BLEU, Average Lagging aggregation, read/unread
("present"/"absent") unigram accuracy from oracle alignments, encoder-state
distance between a model pair, and the train-k vs test-k BLEU matrix.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import no_grad
from .waitk import average_lagging, streaming_decode

BLEU_EPSILON = 1e-9
BLEU_MAX_ORDER = 4


@dataclass
class EvalReport:
    corpus_bleu: float
    mean_al: float
    absent_1gram: float
    present_1gram: float
    mean_hidden_l2: float
    sentences: int

    FIELDS = ("corpus_bleu", "mean_al", "absent_1gram", "present_1gram",
              "mean_hidden_l2", "sentences")

    def to_csv(self, path):
        write_csv(path, self.FIELDS, [[
            f"{self.corpus_bleu:.4f}",
            f"{self.mean_al:.4f}",
            f"{self.absent_1gram:.4f}",
            f"{self.present_1gram:.4f}",
            f"{self.mean_hidden_l2:.6f}",
            self.sentences,
        ]])


def write_csv(path, header, rows):
    """Write the header row, then rows, to the CSV file path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _ngram_counts(tokens, order):
    return Counter(
        tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
    )


def _closest_ref_len(cand_len, refs):
    # ties broken toward the shorter reference
    return min((abs(len(r) - cand_len), len(r)) for r in refs)[1]


def corpus_bleu(candidates, references):
    """Corpus-level BLEU on a 0..100 scale.

    Geometric mean of modified n-gram precisions (clip counts maximized
    across references) times the brevity penalty with closest-reference
    lengths. Raw aggregate counts: a zero precision with support yields 0;
    an order with no candidate n-grams at all falls back to a tiny epsilon
    so short-sentence corpora stay scoreable.
    """
    if not candidates:
        raise ValueError("empty candidate set")
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates vs {len(references)} reference lists"
        )
    matched = [0] * BLEU_MAX_ORDER
    totals = [0] * BLEU_MAX_ORDER
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        if not refs:
            raise ValueError("every candidate needs at least one reference")
        cand = list(cand)
        cand_len += len(cand)
        ref_len += _closest_ref_len(len(cand), refs)
        for order in range(1, BLEU_MAX_ORDER + 1):
            counts = _ngram_counts(cand, order)
            if not counts:
                continue
            clip = Counter()
            for ref in refs:
                ref_counts = _ngram_counts(list(ref), order)
                for gram, c in ref_counts.items():
                    if c > clip[gram]:
                        clip[gram] = c
            totals[order - 1] += sum(counts.values())
            matched[order - 1] += sum(
                min(c, clip[gram]) for gram, c in counts.items()
            )
    precisions = []
    for order in range(1, BLEU_MAX_ORDER + 1):
        if totals[order - 1] == 0:
            precisions.append(BLEU_EPSILON if order >= 2 else 0.0)
        else:
            precisions.append(matched[order - 1] / totals[order - 1])
    if any(p == 0.0 for p in precisions):
        return 0.0
    log_mean = sum(np.log(p) for p in precisions) / BLEU_MAX_ORDER
    bp = 1.0 if cand_len > ref_len else float(np.exp(1.0 - ref_len / cand_len))
    return float(100.0 * bp * np.exp(log_mean))


def _clipped_matches(tokens, reference):
    """Number of tokens the reference covers, each token's count clipped at
    its count in the reference."""
    ref_counts = Counter(reference)
    return sum(min(c, ref_counts[tok]) for tok, c in Counter(tokens).items())


def present_absent_split(example, trace):
    """Partition a decode's tokens by whether their aligned source token had
    been read when they were emitted, as the decode's DecodeTrace records.

    Token i of trace.tokens, aligned by example.alignment to source j (both
    0-based), is "present" iff j < trace.g_values[i]. Positions past the
    oracle alignment are treated as aligned to the final source token.
    Returns None when the example has no alignment.
    """
    if example.alignment is None:
        return None
    n = len(example.src)
    align_map = dict(example.alignment)
    present, absent = [], []
    for i0, (token, g) in enumerate(zip(trace.tokens, trace.g_values)):
        (present if align_map.get(i0, n - 1) < g else absent).append(token)
    return present, absent


def hidden_distance_stats(student, teacher, dataset):
    """Mean over sentences of the per-token squared distance between the
    two encoders' final states (no gradients)."""
    if not dataset:
        raise ValueError("empty dataset")
    total = 0.0
    with no_grad():
        for ex in dataset:
            z_s = student.encode(ex.src)
            z_t = teacher.encode(ex.src)
            total += T.l2_distance_loss(z_s, z_t).item()
    return total / len(dataset)


def evaluate_model(student, dataset, k, teacher=None, trace_path=None):
    """Streaming-decode every sentence and aggregate the report.

    Absent/present unigram accuracies are pooled over the corpus and only
    computed when oracle alignments are present: each decode's tokens are
    split by the read counts its trace records (present_absent_split). The
    hidden-state distance needs the teacher.
    """
    candidates = []
    references = []
    al_values = []
    traces = []
    ab_match, ab_total = 0, 0
    pr_match, pr_total = 0, 0
    for ex in dataset:
        tokens, trace = streaming_decode(student, ex.src, k)
        traces.append(trace)
        candidates.append(tokens)
        references.append([ex.tgt])
        if trace.tgt_len > 0:
            al_values.append(average_lagging(trace))
        if ex.alignment is not None:
            present, absent = present_absent_split(ex, trace)
            pr_match += _clipped_matches(present, ex.tgt)
            pr_total += len(present)
            ab_match += _clipped_matches(absent, ex.tgt)
            ab_total += len(absent)
    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            for trace in traces:
                fh.write(trace.to_json_line() + "\n")
    report = EvalReport(
        corpus_bleu=corpus_bleu(candidates, references),
        mean_al=float(np.mean(al_values)) if al_values else float("nan"),
        absent_1gram=ab_match / ab_total if ab_total else float("nan"),
        present_1gram=pr_match / pr_total if pr_total else float("nan"),
        mean_hidden_l2=(hidden_distance_stats(student, teacher, dataset)
                        if teacher is not None else float("nan")),
        sentences=len(dataset),
    )
    return report


def k_matrix(students_by_k, test_ks, dataset, csv_path=None):
    """BLEU for every trained model evaluated at every test k.

    students_by_k maps training-time k to a trained student model. Returns
    a [train x test] array in the key order given.
    """
    train_ks = list(students_by_k)
    matrix = np.zeros((len(train_ks), len(test_ks)))
    for i, train_k in enumerate(train_ks):
        model = students_by_k[train_k]
        for j, test_k in enumerate(test_ks):
            report = evaluate_model(model, dataset, test_k)
            matrix[i, j] = report.corpus_bleu
    if csv_path is not None:
        write_csv(csv_path, ["train_k"] + [f"test_k={k}" for k in test_ks],
                  [[train_k] + [f"{v:.4f}" for v in row]
                   for train_k, row in zip(train_ks, matrix)])
    return matrix
