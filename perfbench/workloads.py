"""The benchmark workloads, driven through waitkit's public API.

Each workload is a closed loop with one caller. Its inputs come from the
seed alone. A workload has a set-up (timed as setup_s), an untimed check
pass that also warms up, and timed operations; every operation's outputs are
checked outside the timed interval, and every violation or exception counts
as a failed operation.
"""

from __future__ import annotations

import os
import time

import numpy as np

from waitkit import checkpoint, evaluation, tensor, training, waitk
from waitkit.transformer import IncrementalModel, ModelConfig, TeacherModel

VOCAB = 32
BOS = training.BOS_ID
NEVER_EMITTED = -1      # an eos id argmax cannot return


class Tally:
    """Samples and counts collected by one phase of a workload."""

    def __init__(self):
        self.latency_ms = []    # one per train step or emission
        self.op_ms = []         # wall time of each operation, checks excluded
        self.busy_s = 0.0
        self.tokens = 0
        self.sentences = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, count, message):
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


def copy_examples(seed, count, smoke):
    """Copy-task examples from the public generator, with the same number
    of examples of every source length (5-12 tokens), so that the input
    size does not vary with the seed."""
    lengths = range(5, 7) if smoke else range(5, 13)
    examples = []
    for n in lengths:
        spec = training.SyntheticTaskSpec(
            kind="copy", vocab_size=VOCAB, min_len=n, max_len=n,
            seed=seed * 100 + n)
        examples += training.generate_synthetic(spec, count // len(lengths))
    return examples


def _macs_agree(seen, key, macs, tally):
    """MAC counts are a function of input shape: the same key must repeat
    its count exactly."""
    if seen.setdefault(key, macs) != macs:
        tally.fail(1, f"MAC count {macs} for input shape {key} differs from "
                      f"the {seen[key]} of an earlier operation")


class TrainJoint:
    """Joint-mode train_step on bucketed copy-task batches, resumed from a
    checkpoint of the freshly built pair."""

    name = "train_joint"

    def __init__(self, seed, smoke, out_dir):
        self.seed = seed
        self.smoke = smoke
        self.check_ops = 4 if smoke else 16
        self.path = os.path.join(out_dir, "train_joint.ckpt")
        self.save_ms = []
        self.load_ms = []

    def setup(self):
        cfg = ModelConfig(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                          src_vocab=VOCAB, tgt_vocab=VOCAB, max_len=64, k=3)
        self.train_cfg = training.TrainConfig(k=3, batch_size=16,
                                              seed=self.seed)
        seeds = np.random.SeedSequence(self.seed).spawn(3)
        examples = copy_examples(self.seed, 2000, self.smoke)
        self.batches = training.make_batches(
            examples, 16, np.random.default_rng(seeds[2]))
        vocab = training.synthetic_vocab(VOCAB)
        start = time.perf_counter()
        checkpoint.save_models(
            self.path, TeacherModel(cfg, seed=seeds[0]),
            IncrementalModel(cfg, seed=seeds[1]), vocab, vocab,
            {"train_k": 3, "task": "copy"})
        mid = time.perf_counter()
        self.teacher, self.student, _, _, _ = checkpoint.load_models(
            self.path)
        self.save_ms.append((mid - start) * 1e3)
        self.load_ms.append((time.perf_counter() - mid) * 1e3)
        self.optimizer = training.Adam(
            self.teacher.parameters() + self.student.parameters(),
            lr=self.train_cfg.lr)
        self.next_batch = 0
        self.macs_by_shape = {}

    def models(self):
        return (self.teacher, self.student)

    def op(self, tally):
        """One optimizer step; returns (its MAC count, its check)."""
        batch = self.batches[self.next_batch % len(self.batches)]
        self.next_batch += 1
        key = (len(batch), len(batch[0].src), max(len(ex.tgt) for ex in batch))
        tally.attempted += 1
        macs0 = tensor.mac_counter.count
        start = time.perf_counter()
        try:
            record = training.train_step(self.teacher, self.student, batch,
                                         self.optimizer, self.train_cfg)
        except Exception as exc:  # counted, and the loop goes on
            tally.fail(1, f"train_step raised {exc!r}")
            return 0, None
        wall = time.perf_counter() - start
        macs = tensor.mac_counter.count - macs0
        tally.busy_s += wall
        tally.latency_ms.append(wall * 1e3)
        tally.tokens += sum(len(ex.tgt) + 1 for ex in batch)   # + eos
        tally.sentences += len(batch)

        def check():
            values = [record[k] for k in ("loss_student", "loss_teacher",
                                          "loss_distill", "grad_norm")]
            if not np.all(np.isfinite(values)):
                tally.fail(1, f"non-finite loss record {record}")
            else:
                _macs_agree(self.macs_by_shape, key, macs, tally)

        return macs, check


class DecodeLong:
    """streaming_decode at k=1 with every sentence pinned to 48 reads and
    48 writes by max_len and an eos id that is never emitted; each sentence
    is then scored as evaluate_model scores one: Average Lagging, BLEU and
    the encoder-state distance to a teacher."""

    name = "decode_long"
    save_ms = load_ms = ()

    def __init__(self, seed, smoke, out_dir):
        self.seed = seed
        self.length = 8 if smoke else 48
        self.check_ops = 1

    def setup(self):
        cfg = ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ff=64,
                          src_vocab=VOCAB, tgt_vocab=VOCAB, max_len=64, k=1)
        seeds = np.random.SeedSequence(self.seed).spawn(3)
        self.model = IncrementalModel(cfg, seed=seeds[0])
        self.teacher = TeacherModel(cfg, seed=seeds[2])
        rng = np.random.default_rng(seeds[1])
        self.sources = rng.integers(
            training.N_RESERVED, VOCAB, size=(16, self.length)).tolist()
        self.next_source = 0
        self.macs_seen = {}

    def models(self):
        return (self.model, self.teacher)

    def op(self, tally):
        """Decode and score one sentence; returns (its MAC count, its
        check)."""
        src = self.sources[self.next_source % len(self.sources)]
        self.next_source += 1
        tally.attempted += 1
        stamps = []
        macs0 = tensor.mac_counter.count
        start = time.perf_counter()
        try:
            tokens, trace = waitk.streaming_decode(
                self.model, src, 1, max_len=self.length, eos_id=NEVER_EMITTED,
                on_emit=lambda _tok: stamps.append(time.perf_counter()))
            wall = time.perf_counter() - start
            # Copy task: the source is the reference.
            scores = (waitk.average_lagging(trace),
                      evaluation.corpus_bleu([tokens], [[src]]),
                      evaluation.hidden_distance_stats(
                          self.model, self.teacher,
                          [training.ParallelExample(src, src)]))
            macs = tensor.mac_counter.count - macs0
        except Exception as exc:  # counted, and the loop goes on
            tally.fail(1, f"decode or scoring raised {exc!r}")
            return 0, None
        tally.busy_s += wall
        tally.latency_ms.extend(np.diff([start] + stamps) * 1e3)
        tally.tokens += len(tokens)
        tally.sentences += 1
        return macs, lambda: self._check(src, tokens, trace, scores, macs,
                                         tally)

    def _check(self, src, tokens, trace, scores, macs, tally):
        if not (np.all(np.isfinite(scores)) and 0.0 <= scores[1] <= 100.0):
            tally.fail(1, f"scores (AL, BLEU, distance) {scores} out of range")
            return
        if len(tokens) != self.length or trace.src_len != self.length:
            tally.fail(1, f"{len(tokens)} writes and {trace.src_len} reads, "
                          f"expected {self.length} of each")
            return
        # Streaming parity: one batched teacher-forced pass over the same
        # source and emitted prefix must pick the same tokens.
        with tensor.no_grad():
            logits, _ = self.model.forward(
                np.array([src]), np.array([[BOS] + tokens[:-1]]), 1)
        if np.argmax(logits.values[0], axis=-1).tolist() != tokens:
            tally.fail(1, "streamed tokens differ from the batched argmax")
        else:
            _macs_agree(self.macs_seen, self.length, macs, tally)


WORKLOADS = {w.name: w for w in (TrainJoint, DecodeLong)}
