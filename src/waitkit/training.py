"""Joint teacher/student training, synthetic task generation, and corpus
ingestion.

The composite objective sums the student cross-entropy, the teacher
cross-entropy, and a weighted mean squared distance between the two
encoders' final states. In pretrain_fixed_teacher mode the teacher is
trained alone first and then frozen; only the student learns afterwards,
pulled toward the fixed teacher states.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, IngestionError, NumericalError
from .tensor import Tape, no_grad
from .transformer import IncrementalModel, TeacherModel
from .waitk import BOS_ID, EOS_ID

logger = logging.getLogger(__name__)

PAD_ID = 0                      # BOS_ID = 1 and EOS_ID = 2 come from waitk
UNK_ID = 3
FILLER_ID = 3
N_RESERVED = 4

MODES = ("joint", "pretrain_fixed_teacher")


@dataclass
class TrainConfig:
    lambda_distill: float = 0.1
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9
    batch_size: int = 16
    max_steps: int = 2000
    seed: int = 0
    mode: str = "joint"
    k: int = 3
    distill_detach_teacher: bool = False
    early_stop_loss: float = 0.0

    def __post_init__(self):
        if self.lambda_distill < 0:
            raise ConfigError("lambda must be >= 0")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class ParallelExample:
    src: list
    tgt: list
    alignment: list | None = None    # 0-based (tgt_index, src_index) pairs


@dataclass
class SyntheticTaskSpec:
    kind: str = "copy"
    vocab_size: int = 32
    min_len: int = 5
    max_len: int = 12
    lag: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("copy", "lagged_map"):
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.vocab_size < N_RESERVED + 1:
            raise ConfigError(
                f"vocab_size {self.vocab_size} leaves no room for content "
                f"tokens after the {N_RESERVED} reserved ids"
            )
        if self.lag < 0:
            raise ConfigError("lag must be >= 0")
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError("need 1 <= min_len <= max_len")


class Vocabulary:
    """Token/id mapping with the reserved ids in positions 0..3."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def encode(self, words):
        return [self.index.get(w, UNK_ID) for w in words]

    def decode(self, ids):
        return [self.tokens[i] for i in ids]


def synthetic_vocab(vocab_size):
    tokens = ["<pad>", "<bos>", "<eos>", "<filler>"]
    tokens += [f"w{i:02d}" for i in range(vocab_size - N_RESERVED)]
    return Vocabulary(tokens)


def build_vocab(sentences, unk_token="<unk>"):
    counts = {}
    for sent in sentences:
        for w in sent:
            counts[w] = counts.get(w, 0) + 1
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    return Vocabulary(["<pad>", "<bos>", "<eos>", unk_token] + ordered)


def generate_synthetic(spec, count):
    """Seed-deterministic parallel examples with exact oracle alignments.

    copy: target equals source, alignment is the diagonal. lagged_map:
    target position i carries source token i+lag (the filler token once
    i+lag runs past the end), aligned to source min(i+lag, n-1).
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(spec.seed)
    examples = []
    for _ in range(count):
        n = int(rng.integers(spec.min_len, spec.max_len + 1))
        src = rng.integers(N_RESERVED, spec.vocab_size, size=n).tolist()
        if spec.kind == "copy":
            tgt = list(src)
            alignment = [(i, i) for i in range(n)]
        else:
            tgt = [
                src[i + spec.lag] if i + spec.lag < n else FILLER_ID
                for i in range(n)
            ]
            alignment = [(i, min(i + spec.lag, n - 1)) for i in range(n)]
        examples.append(ParallelExample(src, tgt, alignment))
    return examples


def _read_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path} is not UTF-8: byte {exc.start} "
                             "cannot be decoded") from None


def load_corpus(src_path, tgt_path, src_vocab=None, tgt_vocab=None):
    """Whitespace-tokenized parallel text files, one sentence per line.

    Vocabularies are built by frequency unless supplied. Pairs where either
    side is empty are skipped and counted; raises IngestionError when no
    pair is left. Returns (examples, src_vocab, tgt_vocab, skipped).
    """
    src_lines, tgt_lines = _read_lines(src_path), _read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise IngestionError(
            f"line counts differ: {len(src_lines)} in {src_path} vs "
            f"{len(tgt_lines)} in {tgt_path}"
        )
    pairs = []
    skipped = 0
    for s, t in zip(src_lines, tgt_lines):
        s_toks, t_toks = s.split(), t.split()
        if not s_toks or not t_toks:
            skipped += 1
            continue
        pairs.append((s_toks, t_toks))
    if skipped:
        logger.warning("skipped %d empty line pair(s)", skipped)
    if not pairs:
        raise IngestionError(
            f"no line pair of {src_path} and {tgt_path} has tokens on both "
            "sides")
    if src_vocab is None:
        src_vocab = build_vocab(p[0] for p in pairs)
    if tgt_vocab is None:
        tgt_vocab = build_vocab(p[1] for p in pairs)
    examples = [
        ParallelExample(src_vocab.encode(s), tgt_vocab.encode(t))
        for s, t in pairs
    ]
    return examples, src_vocab, tgt_vocab, skipped


# ----------------------------------------------------------------------
# Losses


def total_loss(student_logits, teacher_logits, targets, z_incr, z_full,
               lambda_distill, mode="joint", pad_mask=None,
               detach_teacher_states=False):
    """Composite objective; returns (scalar Tensor, component dict).

    Sums the student cross-entropy, the teacher cross-entropy, and
    lambda times the mean squared distance between the encoder states.
    With a frozen teacher the teacher term is dropped and no gradient
    reaches teacher parameters.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    ce_student = T.cross_entropy(student_logits, targets, pad_mask)
    loss = ce_student
    ce_teacher = None
    if mode == "joint":
        ce_teacher = T.cross_entropy(teacher_logits, targets, pad_mask)
        loss = T.add(loss, ce_teacher)
    z_ref = z_full
    if mode != "joint" or detach_teacher_states:
        z_ref = T.detach(z_full)
    distill = T.l2_distance_loss(z_incr, z_ref)
    loss = T.add(loss, T.scale(distill, lambda_distill))
    components = {
        "loss_student": ce_student.item(),
        "loss_teacher": ce_teacher.item() if ce_teacher is not None else float("nan"),
        "loss_distill": distill.item(),
    }
    return loss, components


# ----------------------------------------------------------------------
# Optimizer


class Adam:
    """Adam over flat value and grad buffers whose views become each
    parameter's values and grad. step() raises if one was rebound since (a
    second Adam over the same tensors, say): it would train a stale copy."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.98, eps=1e-9):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._values = np.concatenate([p.values.ravel() for p in self.params])
        self._grads = np.concatenate([p.grad.ravel() for p in self.params])
        self._m, self._v = np.zeros((2, self._values.size))
        cuts = np.cumsum([p.values.size for p in self.params])[:-1]
        for p, v, g in zip(self.params, np.split(self._values, cuts),
                           np.split(self._grads, cuts)):
            p.values, p.grad = v.reshape(p.shape), g.reshape(p.shape)
        self._views = [(p.values, p.grad) for p in self.params]

    def step(self):
        if any(p.values is not v or p.grad is not g
               for p, (v, g) in zip(self.params, self._views)):
            raise RuntimeError("a parameter was rebound after Adam was built")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        g, m, v = self._grads, self._m, self._v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        self._values -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self):
        self._grads.fill(0.0)


def grad_norm(params):
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


# ----------------------------------------------------------------------
# Batching


def pad_batch(examples):
    """Stack same-source-length examples into batch arrays.

    Returns (src [b, n], tgt_in [b, t], tgt_out [b, t], pad_mask [b, t]).
    tgt_in starts with bos, tgt_out ends with eos; pad positions carry
    weight 0 in the mask.
    """
    n = len(examples[0].src)
    if any(len(ex.src) != n for ex in examples):
        raise ConfigError("batch mixes source lengths")
    t = max(len(ex.tgt) for ex in examples) + 1
    b = len(examples)
    src = np.array([ex.src for ex in examples], dtype=np.intp)
    tgt_in = np.full((b, t), PAD_ID, dtype=np.intp)
    tgt_out = np.full((b, t), PAD_ID, dtype=np.intp)
    mask = np.zeros((b, t))
    for i, ex in enumerate(examples):
        m = len(ex.tgt)
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1 : m + 1] = ex.tgt
        tgt_out[i, :m] = ex.tgt
        tgt_out[i, m] = EOS_ID
        mask[i, : m + 1] = 1.0
    return src, tgt_in, tgt_out, mask


def make_batches(examples, batch_size, rng):
    """One epoch of batches, bucketed by source length, order shuffled."""
    buckets = {}
    for ex in examples:
        buckets.setdefault(len(ex.src), []).append(ex)
    batches = []
    for length in sorted(buckets):
        group = buckets[length]
        order = rng.permutation(len(group))
        for start in range(0, len(group), batch_size):
            batches.append([group[i] for i in order[start : start + batch_size]])
    batch_order = rng.permutation(len(batches))
    return [batches[i] for i in batch_order]


def _check_finite(components, allow_nan=()):
    for name, value in components.items():
        if not name.startswith("loss_"):
            continue
        if name in allow_nan and np.isnan(value):
            continue
        if not np.isfinite(value):
            raise NumericalError(f"non-finite {name}: {value}")


def train_step(teacher, student, batch, optimizer, cfg):
    """One optimizer update on a batch; returns the logged metric record."""
    src, tgt_in, tgt_out, mask = pad_batch(batch)
    frozen_teacher = cfg.mode == "pretrain_fixed_teacher"
    with Tape() as tape:
        if frozen_teacher:
            with no_grad():
                _, z_full = teacher.forward(src, tgt_in)
            t_logits = None
        else:
            t_logits, z_full = teacher.forward(src, tgt_in)
        s_logits, z_incr = student.forward(src, tgt_in, cfg.k)
        loss, components = total_loss(
            s_logits, t_logits, tgt_out, z_incr, z_full,
            cfg.lambda_distill, cfg.mode, mask,
            detach_teacher_states=cfg.distill_detach_teacher,
        )
        _check_finite(
            components,
            allow_nan=("loss_teacher",) if frozen_teacher else (),
        )
        tape.backward(loss)
    components["grad_norm"] = grad_norm(optimizer.params)
    optimizer.step()
    optimizer.zero_grad()
    return components


def _teacher_step(teacher, batch, optimizer):
    src, tgt_in, tgt_out, mask = pad_batch(batch)
    with Tape() as tape:
        logits, _ = teacher.forward(src, tgt_in)
        loss = T.cross_entropy(logits, tgt_out, mask)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericalError(f"non-finite loss_teacher: {value}")
        tape.backward(loss)
    record = {
        "loss_student": float("nan"),
        "loss_teacher": value,
        "loss_distill": float("nan"),
        "grad_norm": grad_norm(optimizer.params),
    }
    optimizer.step()
    optimizer.zero_grad()
    return record


class MetricsWriter:
    """CSV log with the fixed step,loss_student,loss_teacher,loss_distill,
    grad_norm header."""

    FIELDS = ("step", "loss_student", "loss_teacher", "loss_distill",
              "grad_norm")

    def __init__(self, path):
        self.rows = []
        self.path = path

    def log(self, step, record):
        self.rows.append((step, record["loss_student"], record["loss_teacher"],
                          record["loss_distill"], record["grad_norm"]))

    def write(self):
        if self.path is None:
            return
        with open(self.path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.FIELDS)
            for step, ls, lt, ld, gn in self.rows:
                writer.writerow(
                    [step, f"{ls:.6f}", f"{lt:.6f}", f"{ld:.6f}", f"{gn:.6f}"]
                )


def _batch_stream(examples, batch_size, rng):
    while True:
        for batch in make_batches(examples, batch_size, rng):
            yield batch


def train(examples, model_cfg, cfg, metrics_path=None):
    """Train a (teacher, student) pair on parallel examples.

    joint mode updates both models every step. pretrain_fixed_teacher first
    trains the teacher alone for max_steps, then the student for max_steps
    with the teacher bit-frozen. Fully deterministic under cfg.seed.
    Returns (teacher, student, metrics rows).
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    teacher = TeacherModel(model_cfg, seed=seeds[0])
    student = IncrementalModel(model_cfg, seed=seeds[1])
    order_rng = np.random.default_rng(seeds[2])
    batches = _batch_stream(examples, cfg.batch_size, order_rng)
    metrics = MetricsWriter(metrics_path)
    step = 0

    if cfg.mode == "pretrain_fixed_teacher":
        t_opt = Adam(teacher.parameters(), cfg.lr, cfg.beta1, cfg.beta2,
                     cfg.adam_eps)
        recent = []
        for _ in range(cfg.max_steps):
            step += 1
            record = _teacher_step(teacher, next(batches), t_opt)
            metrics.log(step, record)
            recent.append(record["loss_teacher"])
            if _converged(recent, cfg.early_stop_loss):
                break
        trainable = student.parameters()
    else:
        trainable = teacher.parameters() + student.parameters()

    optimizer = Adam(trainable, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    recent = []
    for _ in range(cfg.max_steps):
        step += 1
        record = train_step(teacher, student, next(batches), optimizer, cfg)
        metrics.log(step, record)
        recent.append(record["loss_student"])
        if _converged(recent, cfg.early_stop_loss):
            break
    metrics.write()
    return teacher, student, metrics.rows


def _converged(recent, threshold, window=20):
    if threshold <= 0 or len(recent) < window:
        return False
    return float(np.mean(recent[-window:])) < threshold
