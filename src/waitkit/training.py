"""Joint teacher/student training, synthetic task generation, and corpus
ingestion.

The composite objective sums the student cross-entropy, the teacher
cross-entropy, and a weighted mean squared distance between the two
encoders' final states. In pretrain_fixed_teacher mode the teacher is
trained alone first and then frozen; only the student learns afterwards,
pulled toward the fixed teacher states.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, IngestionError, LengthError, NumericalError
from .tensor import Tape, no_grad
from .transformer import IncrementalModel, TeacherModel
from .waitk import (BOS_ID, EOS_ID, FILLER_ID, N_RESERVED, PAD_ID,
                    SHARED_TOKENS, UNK_ID)

logger = logging.getLogger(__name__)

MODES = ("joint", "pretrain_fixed_teacher")
CONVERGENCE_WINDOW = 20         # steps whose mean loss early_stop_loss bounds
ADAM_BLOCK = 32_768             # values per block of Adam.step (256 KiB)


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
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        # A comparison with nan is False, so each range rejects nan too.
        for name, value, ok, rule in (
                ("lambda", self.lambda_distill,
                 0 <= self.lambda_distill < math.inf, "finite and >= 0"),
                ("lr", self.lr, 0 < self.lr < math.inf, "finite and > 0"),
                ("beta1", self.beta1, 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", self.beta2, 0 <= self.beta2 < 1, "in [0, 1)"),
                ("adam_eps", self.adam_eps, 0 < self.adam_eps < math.inf,
                 "finite and > 0"),
                ("batch_size", self.batch_size, self.batch_size >= 1, ">= 1"),
                ("max_steps", self.max_steps, self.max_steps >= 1, ">= 1"),
                ("seed", self.seed, self.seed >= 0, ">= 0"),
                ("early_stop_loss", self.early_stop_loss,
                 not math.isnan(self.early_stop_loss), "a number")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {value}")


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
    return Vocabulary([*SHARED_TOKENS, "<filler>"]
                      + [f"w{i:02d}" for i in range(vocab_size - N_RESERVED)])


def build_vocab(sentences):
    counts = Counter(w for sent in sentences for w in sent)
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    return Vocabulary([*SHARED_TOKENS, "<unk>", *ordered])


@functools.cache
def _alignment(n, lag):
    return tuple((i, min(i + lag, n - 1)) for i in range(n))


def generate_synthetic(spec, count):
    """Seed-deterministic parallel examples with exact oracle alignments.

    copy: target equals source, alignment is the diagonal. lagged_map:
    target position i carries source token i+lag (the filler token once
    i+lag runs past the end), aligned to source min(i+lag, n-1). Copy is
    lag 0: every example of length n and lag takes its (i, j) pairs from
    one cached tuple, in a list of its own.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(spec.seed)
    lag = spec.lag if spec.kind == "lagged_map" else 0
    examples = []
    for _ in range(count):
        n = int(rng.integers(spec.min_len, spec.max_len + 1))
        src = rng.integers(N_RESERVED, spec.vocab_size, size=n).tolist()
        tgt = [src[i + lag] if i + lag < n else FILLER_ID for i in range(n)]
        examples.append(ParallelExample(src, tgt, list(_alignment(n, lag))))
    return examples


def read_lines(path, error=IngestionError):
    """The lines of a UTF-8 text file, split at line ends only (a form feed
    or a Unicode line separator is whitespace inside a line); a byte that
    does not decode raises error, naming the file and the byte's offset."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: byte {exc.start} "
                    "cannot be decoded") from None
    return lines[:-1] if lines[-1] == "" else lines


def load_corpus(src_path, tgt_path, src_vocab=None, tgt_vocab=None):
    """Whitespace-tokenized parallel text files, one sentence per line.

    Vocabularies are built by frequency unless supplied. Pairs where either
    side is empty are skipped and counted; raises IngestionError when no
    pair is left. Returns (examples, src_vocab, tgt_vocab, skipped).
    """
    src_lines, tgt_lines = read_lines(src_path), read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise IngestionError(
            f"line counts differ: {len(src_lines)} in {src_path} vs "
            f"{len(tgt_lines)} in {tgt_path}"
        )
    pairs = [(s.split(), t.split()) for s, t in zip(src_lines, tgt_lines)]
    pairs = [(s, t) for s, t in pairs if s and t]
    skipped = len(src_lines) - len(pairs)
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


def total_loss(student_logits, teacher_logits, targets, z_incr, z_ref,
               lambda_distill, pad_mask=None):
    """Composite objective; returns (scalar Tensor, component dict).

    Sums the student cross-entropy, the teacher cross-entropy when
    teacher_logits is given, and lambda times the mean squared distance
    between the student states z_incr and z_ref. The dict holds the
    loss_student, loss_teacher and loss_distill values of the terms summed:
    without teacher_logits it has no loss_teacher. The gradient reaches
    z_ref unless the caller detached it.
    """
    ce_student = T.cross_entropy(student_logits, targets, pad_mask)
    loss, components = ce_student, {"loss_student": ce_student.item()}
    if teacher_logits is not None:
        ce_teacher = T.cross_entropy(teacher_logits, targets, pad_mask)
        loss = T.add(loss, ce_teacher)
        components["loss_teacher"] = ce_teacher.item()
    distill = T.l2_distance_loss(z_incr, z_ref)
    components["loss_distill"] = distill.item()
    return T.add(loss, T.scale(distill, lambda_distill)), components


# ----------------------------------------------------------------------
# Optimizer


class Adam:
    """Adam over flat value and grad buffers whose views become each
    parameter's values and grad. step() consumes the gradients it steps:
    it leaves every grad zero, ready for the next backward. It raises if a
    view was rebound since (a second Adam over the same tensors, say): it
    would train a stale copy.

    step() updates one block of ADAM_BLOCK values at a time, writing the
    update into the block's grads through one scratch row of one block, so
    for P values in blocks of B its state is 4P + B float64 values
    (values, grads, m, v, scratch) where a whole-buffer update held 6P,
    with the same bits. On a 2-vCPU Xeon VM with one BLAS thread, blocks
    of 16k to 64k values timed within 10% of each other; blocks of 4,096
    were slower (1.01 ms at P = 93k, against 0.67-0.78 ms for 32,768).
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.98, eps=1e-9):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._values = np.concatenate([p.values.ravel() for p in self.params])
        self._grads = np.zeros(self._values.size)
        self._m, self._v = np.zeros((2, self._values.size))
        self._scratch = np.zeros(min(ADAM_BLOCK, self._values.size))
        cuts = np.cumsum([p.values.size for p in self.params])[:-1]
        for p, v, g in zip(self.params, np.split(self._values, cuts),
                           np.split(self._grads, cuts)):
            # A grad not read yet is zeros: reading it would allocate them.
            if p._grad is not None:
                g[...] = p._grad.ravel()
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
        for lo in range(0, self._values.size, ADAM_BLOCK):
            x, g, m, v = (buf[lo:lo + ADAM_BLOCK] for buf in (
                self._values, self._grads, self._m, self._v))
            # In place, in the operation order of
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # values -= lr (m / bias1) / (sqrt(v / bias2) + eps).
            a = self._scratch[:x.size]
            m *= b1
            m += np.multiply(1.0 - b1, g, out=a)
            v *= b2
            np.multiply(1.0 - b2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.multiply(self.lr, np.divide(m, bias1, out=g), out=g)
            np.sqrt(np.divide(v, bias2, out=a), out=a)
            a += self.eps
            x -= np.divide(g, a, out=g)
            g.fill(0.0)


def grad_norm(grads):
    """The l2 norm of a flat gradient buffer, as Adam's _grads. einsum
    sums in numpy, not in a BLAS dot whose threads split the sum."""
    return math.sqrt(np.einsum("i,i->", grads, grads))


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


def _update(optimizer, objective):
    """One Adam update of optimizer.params. Under a Tape, objective()
    returns (loss, record), the record holding the loss_ value of each term
    the step computes. Each, and the gradient norm, must be finite, or Adam
    would write non-finite parameters. Returns the record plus grad_norm."""
    with Tape() as tape:
        loss, record = objective()
        for name, value in record.items():
            if not np.isfinite(value):
                raise NumericalError(f"non-finite {name}: {value}")
        tape.backward(loss)
    del tape, loss      # what backward read goes before Adam's step
    record["grad_norm"] = norm = grad_norm(optimizer._grads)
    if not np.isfinite(norm):
        raise NumericalError(f"non-finite grad_norm: {norm}")
    optimizer.step()
    return record


def train_step(teacher, student, batch, optimizer, cfg):
    """One optimizer update on a batch; returns the logged metric record."""
    src, tgt_in, tgt_out, mask = pad_batch(batch)
    frozen_teacher = cfg.mode == "pretrain_fixed_teacher"

    def objective():
        if frozen_teacher:      # only the teacher's encoder states count
            with no_grad():
                z_full, _ = teacher.encoder.forward(src, teacher.causal)
            t_logits = None
        else:
            t_logits, z_full = teacher.forward(src, tgt_in)
            if cfg.distill_detach_teacher:
                z_full = T.detach(z_full)
        s_logits, z_incr = student.forward(src, tgt_in, cfg.k)
        return total_loss(s_logits, t_logits, tgt_out, z_incr, z_full,
                          cfg.lambda_distill, mask)
    return _update(optimizer, objective)


def _teacher_step(teacher, batch, optimizer):
    src, tgt_in, tgt_out, mask = pad_batch(batch)

    def objective():
        loss = T.cross_entropy(teacher.forward(src, tgt_in)[0], tgt_out, mask)
        return loss, {"loss_teacher": loss.item()}
    return _update(optimizer, objective)


METRICS_HEADER = ("step", "loss_student", "loss_teacher", "loss_distill",
                  "grad_norm")


def _batch_stream(examples, batch_size, rng):
    while True:
        for batch in make_batches(examples, batch_size, rng):
            yield batch


def train(examples, model_cfg, cfg):
    """Train a (teacher, student) pair on parallel examples.

    joint mode updates both models every step. pretrain_fixed_teacher first
    trains the teacher alone for max_steps, then the student for max_steps
    with the teacher bit-frozen. Each phase stops early once its watched
    loss converges. Fully deterministic under cfg.seed. Returns (teacher,
    student, metrics rows), one row per step holding the METRICS_HEADER
    values, nan for a loss its phase does not compute.

    Every example is checked before the first step: its source, and its
    target after pad_batch's bos, must fit model_cfg.max_len. No examples
    raise ConfigError.
    """
    if not examples:
        raise ConfigError("train needs at least one example")
    for i, ex in enumerate(examples, 1):
        if max(len(ex.src), len(ex.tgt) + 1) > model_cfg.max_len:
            raise LengthError(
                f"training example {i} of {len(examples)} (source length "
                f"{len(ex.src)}, target length {len(ex.tgt)} plus bos) "
                f"exceeds maximum {model_cfg.max_len}")
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    teacher = TeacherModel(model_cfg, seed=seeds[0])
    student = IncrementalModel(model_cfg, seed=seeds[1])
    order_rng = np.random.default_rng(seeds[2])
    batches = _batch_stream(examples, cfg.batch_size, order_rng)
    student_step = functools.partial(train_step, teacher, student, cfg=cfg)
    # (trained parameters, step, watched loss) per phase
    if cfg.mode == "pretrain_fixed_teacher":
        phases = [(teacher.parameters(),
                   functools.partial(_teacher_step, teacher), "loss_teacher"),
                  (student.parameters(), student_step, "loss_student")]
    else:
        phases = [(teacher.parameters() + student.parameters(), student_step,
                   "loss_student")]
    rows = []
    for params, run_step, watched in phases:
        optimizer = Adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        recent = []
        for _ in range(cfg.max_steps):
            record = run_step(next(batches), optimizer)
            rows.append((len(rows) + 1, *(record.get(name, math.nan)
                                          for name in METRICS_HEADER[1:])))
            recent.append(record[watched])
            if _converged(recent, cfg.early_stop_loss):
                break
    return teacher, student, rows


def _converged(recent, threshold):
    if threshold <= 0 or len(recent) < CONVERGENCE_WINDOW:
        return False
    return float(np.mean(recent[-CONVERGENCE_WINDOW:])) < threshold
