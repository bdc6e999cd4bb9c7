"""Transformer building blocks and the three encoder variants.

Covers the full-sentence bidirectional encoder (teacher), the per-step
recompute encoder (wait-k baseline), the causal left-to-right encoder whose
prefix states never change (incremental student), and the decoder whose last
layer cross-attends to causal states augmented with a projected running mean
of the consumed input embeddings.

All model forwards are batch-first; single-sentence helpers wrap batch 1.
Every layer and model is a Module, which names its own parameters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import LengthError, NumericalError, ScheduleError
from .tensor import Tensor
from .waitk import WaitKSchedule, build_masks


@dataclass
class ModelConfig:
    """Shared dimensioning for teacher, student and baseline variants."""

    n_layers: int = 2
    d_model: int = 32
    n_heads: int = 2
    d_ff: int = 64
    src_vocab: int = 32
    tgt_vocab: int = 32
    max_len: int = 64
    k: int = 3

    def __post_init__(self):
        for name in ("n_layers", "d_model", "n_heads", "d_ff",
                     "src_vocab", "tgt_vocab", "max_len", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

    @property
    def d_k(self):
        return self.d_model // self.n_heads


@dataclass
class EncoderOutput:
    """Final-layer encoder states for one sentence."""

    states: Tensor
    n: int


def sinusoidal_positions(max_len, d_model):
    """Fixed sine/cosine position table, one row per absolute position."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(0, d_model, 2, dtype=np.float64)
    div = np.exp(dim * (-math.log(10000.0) / d_model))
    table = np.zeros((max_len, d_model))
    table[:, 0::2] = np.sin(pos * div)
    table[:, 1::2] = np.cos(pos * div[: d_model // 2])
    return table


def uniform_init(rng, shape, bound):
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Module:
    """Names its parameters after the attributes that hold them."""

    def named_parameters(self, prefix=""):
        """{name: Tensor} of every Tensor attribute and, recursively, of
        every Module attribute or list of Modules, depth first in attribute
        order; list items are named by index."""
        named = {}
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                named[prefix + attr] = value
            elif isinstance(value, Module):
                named.update(value.named_parameters(f"{prefix}{attr}."))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    named.update(item.named_parameters(f"{prefix}{attr}.{i}."))
        return named

    def parameters(self):
        return list(self.named_parameters().values())


class Linear(Module):
    def __init__(self, rng, n_out, n_in, bound, bias=True):
        self.w = uniform_init(rng, (n_out, n_in), bound)
        self.b = Tensor(np.zeros(n_out), requires_grad=True) if bias else None

    def __call__(self, x):
        return T.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, d):
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x):
        return T.layer_norm(x, self.gain, self.bias)


class KVCache:
    """Projected keys and values [..., c, d] of every memory row attended so
    far, written in place into one buffer [2, ..., capacity, d]; an
    attention call given the cache appends the rows it projects and gets
    arrays of all the rows cached.

    weight and bias, when given, are an attention's projections stacked
    (MultiHeadAttention.kv_cache): [Wq;Wk;Wv] for self-attention, whose
    queries are its memory rows, or [Wk;Wv] for cross-attention. A single
    new memory row is projected by one product over them, which gives the
    bits of the separate products where _stacks_exactly says so.

    For inference only: the buffer is not on the tape, so gradients would
    not reach the rows cached by earlier calls. Stacked weights are for
    array mode only (T._ARRAYS), where the stacked product is an array.
    """

    def __init__(self, shape, weight=None, bias=None):
        self._kv = np.empty((2, *shape))
        self._n = 0
        self.weight, self.bias = weight, bias

    def __len__(self):
        return self._n

    def append(self, keys, values):
        if isinstance(T._TAPES[-1], T.Tape):
            raise T.GradientError("KVCache.append under a recording tape")
        n = self._n
        m = n + keys.shape[-2]
        self._kv[0, ..., n:m, :] = getattr(keys, "values", keys)
        self._kv[1, ..., n:m, :] = getattr(values, "values", values)
        self._n = m
        return self._kv[0, ..., :m, :], self._kv[1, ..., :m, :]


@functools.cache
def _stacks_exactly(d, blocks):
    """Whether one row [1, 1, d] times `blocks` stacked [d, d] weights gets,
    from this BLAS, the bits of the separate products. A gemv kernel may
    round the rows of a short last group differently from the same rows in
    a full group (OpenBLAS: the last d % 4 rows of each block). That
    depends on shapes only, so it is probed once per shape, on inputs whose
    wide range makes any change of summation order show."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=(blocks * d, d))
    rows = rng.normal(size=(8, 1, 1, d)) * 10.0 ** rng.uniform(-8, 8, d)
    return all(np.array_equal(x @ w.T, np.concatenate(
        [x @ w[i * d:(i + 1) * d].T for i in range(blocks)], -1))
        for x in rows)


class MultiHeadAttention(Module):
    """Projections around one T.attention op: multi-head scaled dot-product
    attention with head split and merge, then the output projection."""

    def __init__(self, rng, cfg):
        bound = 1.0 / math.sqrt(cfg.d_model)
        self.n_heads = cfg.n_heads
        self.scale = 1.0 / math.sqrt(cfg.d_k)
        self.wq = Linear(rng, cfg.d_model, cfg.d_model, bound)
        self.wk = Linear(rng, cfg.d_model, cfg.d_model, bound)
        self.wv = Linear(rng, cfg.d_model, cfg.d_model, bound)
        self.wo = Linear(rng, cfg.d_model, cfg.d_model, bound)

    def __call__(self, queries, memory, mask=None, cache=None):
        """Attend queries [..., tq, d] over a shared memory [..., tk, d].

        With a KVCache, memory holds only the rows not yet attended: their
        keys and values join the cache and the queries attend over every
        cached row. mask broadcasts to the score shape [..., heads, tq, c]
        over all c rows attended; True keeps.
        """
        if cache is None or cache.weight is None or memory.shape[-2] != 1:
            # Tape order fixes the order in which a shared input's deltas sum.
            q, k, v = self.wq(queries), self.wk(memory), self.wv(memory)
        else:
            d = memory.shape[-1]
            qkv = T.linear(memory, cache.weight, cache.bias)   # array mode
            k, v = qkv[..., -2 * d:-d], qkv[..., -d:]
            q = (qkv[..., :d] if len(cache.weight) == 3 * d
                 else self.wq(queries))
        if cache is not None:
            k, v = cache.append(k, v)
        return self.wo(T.attention(q, k, v, self.n_heads, self.scale, mask))

    def kv_cache(self, shape, self_attention):
        """An empty KVCache [..., capacity, d] holding copies of this
        attention's projections, stacked where that is exact; with
        self_attention the queries must be the memory rows."""
        stack = (self.wq, self.wk, self.wv)[0 if self_attention else 1:]
        if not _stacks_exactly(shape[-1], len(stack)):
            return KVCache(shape)
        return KVCache(shape, np.concatenate([p.w.values for p in stack]),
                       np.concatenate([p.b.values for p in stack]))

    def attend_rows(self, queries, memory, mask, bridge, cache=None):
        """Attention where query row t attends over bridge[t] + memory[j].

        bridge [..., tq, d] adds the same key term to every score of its
        row, which softmax cancels, and the weights of a row sum to one; so
        this is plain attention over memory plus Wo.w Wv.w bridge[t]. Every
        row must keep at least one memory row.
        """
        shift = T.linear(T.linear(bridge, self.wv.w), self.wo.w)
        return T.add(self(queries, memory, mask, cache), shift)


class FeedForward(Module):
    def __init__(self, rng, cfg):
        bound = 1.0 / math.sqrt(cfg.d_model)
        self.w1 = Linear(rng, cfg.d_ff, cfg.d_model, bound)
        self.w2 = Linear(rng, cfg.d_model, cfg.d_ff, bound)

    def __call__(self, x):
        return self.w2(T.relu(self.w1(x)))


class EncoderLayer(Module):
    """Pre-norm self-attention block followed by a pre-norm feed-forward."""

    def __init__(self, rng, cfg):
        self.ln1 = LayerNorm(cfg.d_model)
        self.attn = MultiHeadAttention(rng, cfg)
        self.ln2 = LayerNorm(cfg.d_model)
        self.ff = FeedForward(rng, cfg)

    def __call__(self, x, mask=None, cache=None):
        h = self.ln1(x)
        x = T.add(x, self.attn(h, h, mask, cache))
        return T.add(x, self.ff(self.ln2(x)))


class _Stack(Module):
    """Scaled token embedding plus fixed positions, under a layer stack."""

    def __init__(self, rng, cfg, vocab, layer):
        bound = 1.0 / math.sqrt(cfg.d_model)
        self.cfg = cfg
        self.embed = uniform_init(rng, (vocab, cfg.d_model), bound)
        self.pe = sinusoidal_positions(cfg.max_len, cfg.d_model)
        self.emb_scale = math.sqrt(cfg.d_model)
        self.layers = [layer(rng, cfg) for _ in range(cfg.n_layers)]
        self.final_ln = LayerNorm(cfg.d_model)

    def embed_positions(self, ids, start=0):
        """Inputs for ids [b, n] at positions start .. start+n-1."""
        end = start + ids.shape[-1]
        if end > self.cfg.max_len:
            raise LengthError(
                f"sequence length {end} exceeds maximum {self.cfg.max_len}"
            )
        e = T.scale(T.embedding(self.embed, ids), self.emb_scale)
        return T.add(e, self.pe[start:end])


class Encoder(_Stack):
    def __init__(self, rng, cfg, vocab):
        super().__init__(rng, cfg, vocab, EncoderLayer)

    def forward(self, ids, causal, mask=None):
        """Encode ids [b, n]; returns (states [b, n, d], inputs [b, n, d]).

        The second output is the scaled, position-augmented embedding that
        entered the stack (the quantity the averaging bridge consumes).
        """
        e = self.embed_positions(ids)
        if causal and mask is None:
            n = ids.shape[-1]
            mask = np.tril(np.ones((n, n), dtype=bool))
        x = e
        for layer in self.layers:
            x = layer(x, mask)
        return self.final_ln(x), e


class DecoderLayer(Module):
    def __init__(self, rng, cfg):
        self.ln1 = LayerNorm(cfg.d_model)
        self.self_attn = MultiHeadAttention(rng, cfg)
        self.ln2 = LayerNorm(cfg.d_model)
        self.cross_attn = MultiHeadAttention(rng, cfg)
        self.ln3 = LayerNorm(cfg.d_model)
        self.ff = FeedForward(rng, cfg)

    def __call__(self, x, memory, self_mask, cross_mask=None, bridge=None,
                 cache=(None, None)):
        h = self.ln1(x)
        x = T.add(x, self.self_attn(h, h, self_mask, cache[0]))
        h = self.ln2(x)
        if bridge is None:
            x = T.add(x, self.cross_attn(h, memory, cross_mask, cache[1]))
        else:
            x = T.add(x, self.cross_attn.attend_rows(h, memory, cross_mask,
                                                     bridge, cache[1]))
        return T.add(x, self.ff(self.ln3(x)))


class Decoder(_Stack):
    """Causal decoder; its last layer can add the averaging bridge."""

    def __init__(self, rng, cfg):
        super().__init__(rng, cfg, cfg.tgt_vocab, DecoderLayer)
        bound = 1.0 / math.sqrt(cfg.d_model)
        self.out = Linear(rng, cfg.tgt_vocab, cfg.d_model, bound)

    def forward(self, ids, memory, cross_mask=None, bridge=None, cache=None):
        """Logits [b, t, vocab] for target ids [b, t] over memory [b, n, d].

        bridge [b, t, d] goes to the last layer's attend_rows. With a
        DecoderCache, ids are the rows after the cached ones, memory holds
        only the encoder rows not yet cached, and cross_mask spans them all.
        """
        if cache is None:
            start, caches = 0, [(None, None)] * len(self.layers)
        else:
            start, caches = len(cache.layers[0][0]), cache.layers
        t = ids.shape[-1]
        x = self.embed_positions(ids, start)
        self_mask = None if t == 1 else np.tril(    # one row sees all rows
            np.ones((t, start + t), dtype=bool), k=start)
        last = len(self.layers) - 1
        for i, (layer, kv) in enumerate(zip(self.layers, caches)):
            x = layer(x, memory, self_mask, cross_mask,
                      bridge if i == last else None, kv)
        return self.out(self.final_ln(x))


# ----------------------------------------------------------------------
# Incremental hidden states (causal states plus averaged-input bridge)


class DecoderCache:
    """What decode_step computed over one source: per decoder layer, a
    (self-attention, cross-attention) KVCache pair, and the target id of
    each cached row. Row s of r rows read min(k + s - 1, g) source rows
    and row r read g, for the k and g of the last call, so (k, g) decide
    which calls may extend the rows."""

    def __init__(self):
        self.ids, self.layers = [], []
        self.decoder = self.k = self.g = None

    def reset(self, decoder, memory_rows):
        """Empty caches of a decoder's layers for up to cfg.max_len decoder
        rows over up to memory_rows encoder rows, batch 1."""
        cfg = decoder.cfg
        self.ids, self.decoder = [], decoder
        self.layers = [
            (layer.self_attn.kv_cache((1, cfg.max_len, cfg.d_model), True),
             layer.cross_attn.kv_cache((1, memory_rows, cfg.d_model), False))
            for layer in decoder.layers]


class IncrementalStates:
    """Causal encoder states z plus the per-prefix bridge rows f.

    f[i] is a linear map of the mean of the first i+1 encoder inputs; a
    decoder row that has read g tokens attends over f[g-1] + z[j], j < g
    (MultiHeadAttention.attend_rows). cache holds the decoder rows already
    computed over these states.
    """

    def __init__(self, z, f, cache=None):
        self.z = z            # Tensor [n, d]
        self.f = f            # Tensor [n, d]
        self.n = z.shape[0]
        self.cache = DecoderCache() if cache is None else cache


def average_embedding_states(inputs, states, weight):
    """Build IncrementalStates from encoder inputs and causal states.

    inputs and states are [n, d] tensors for one sentence; weight is the
    trainable [d, d] bridge matrix applied to each running mean.
    """
    if inputs.shape != states.shape:
        raise T.DimensionError(
            f"inputs {inputs.shape} and states {states.shape} differ"
        )
    means = T.masked_cumulative_mean(inputs)
    f = T.matmul(means, T.transpose_last(weight))
    return IncrementalStates(states, f)


# ----------------------------------------------------------------------
# Whole models


class _Model(Module):
    """An encoder and a decoder; causal says whether encoder position i
    attends to positions <= i only."""

    causal: bool

    def encode(self, ids):
        """Encoder states of one sentence; raises NumericalError if any is
        not finite."""
        z, _ = self.encoder.forward(np.asarray(ids)[None, :], self.causal)
        out = T.tslice(z, (0,))
        if not np.isfinite(out.values).all():
            raise NumericalError("non-finite encoder states")
        return EncoderOutput(out, len(ids))


class TeacherModel(_Model):
    """Full-sentence transformer: bidirectional encoder, plain decoder."""

    causal = False

    def __init__(self, cfg, seed=0):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.encoder = Encoder(rng, cfg, cfg.src_vocab)
        self.decoder = Decoder(rng, cfg)

    def forward(self, src_ids, tgt_ids):
        """Teacher-forced pass over batches [b, n] and [b, t].

        Returns (logits [b, t, vocab], encoder states [b, n, d]).
        """
        z, _ = self.encoder.forward(np.asarray(src_ids), self.causal)
        logits = self.decoder.forward(np.asarray(tgt_ids), z)
        return logits, z


class IncrementalModel(_Model):
    """Causal encoder plus a decoder bridged by averaged input embeddings."""

    causal = True

    def __init__(self, cfg, seed=0):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.encoder = Encoder(rng, cfg, cfg.src_vocab)
        self.decoder = Decoder(rng, cfg)
        bound = 1.0 / math.sqrt(cfg.d_model)
        self.bridge_w = uniform_init(rng, (cfg.d_model, cfg.d_model), bound)

    def forward(self, src_ids, tgt_ids, k=None):
        """Teacher-forced wait-k pass; all steps batched via mask matrices.

        Returns (logits [b, t, vocab], causal encoder states [b, n, d]).
        """
        src_ids = np.asarray(src_ids)
        tgt_ids = np.asarray(tgt_ids)
        k = self.cfg.k if k is None else k
        n = src_ids.shape[-1]
        t = tgt_ids.shape[-1]
        schedule = WaitKSchedule(k, n)
        _, cross = build_masks(schedule, t)

        z, e = self.encoder.forward(src_ids, self.causal)
        means = T.masked_cumulative_mean(e)
        f = T.matmul(means, T.transpose_last(self.bridge_w))   # [b, n, d]
        g_idx = np.array([schedule.read_count(s) - 1 for s in range(1, t + 1)])
        bridge = T.gather_rows(f, g_idx, axis=1)               # [b, t, d]
        logits = self.decoder.forward(tgt_ids, z, cross, bridge)
        return logits, z

    def incremental_states(self, ids):
        """One-shot causal encoding packaged with the averaging bridge."""
        z, e = self.encoder.forward(np.asarray(ids)[None, :], self.causal)
        return average_embedding_states(
            T.tslice(e, (0,)), T.tslice(z, (0,)), self.bridge_w)

    def decode_step(self, prefix_ids, states, g_t, k=None):
        """Next-token logits for one sentence given a decoder prefix.

        states covers the consumed source (IncrementalStates); row s of the
        prefix uses the wait-k coverage for step s, and the current step
        uses g_t consumed tokens. Only the rows states.cache lacks are
        computed: the cache is kept while the prefix extends the cached ids
        and the cached rows keep their read counts, and rebuilt from row 0
        otherwise. Runs in array mode; the cache is not on the tape, so a
        recording Tape raises GradientError.
        """
        if isinstance(T._TAPES[-1], T.Tape):
            raise T.GradientError("decode_step under a recording tape")
        k = self.cfg.k if k is None else k
        c = states.n
        if not 1 <= g_t <= c:
            raise ScheduleError(f"g_t {g_t} outside 1..{c}")
        if not isinstance(prefix_ids, list):
            prefix_ids = np.asarray(prefix_ids).tolist()
        t = len(prefix_ids)
        if t == 0:
            raise ScheduleError("the prefix must hold at least the bos id")
        cache = states.cache
        r = len(cache.ids)
        # Rows 1..r-1 keep their read counts whenever row r does (see
        # DecoderCache).
        if (cache.decoder is not self.decoder or not 0 < r < t
                or k != cache.k or min(k + r - 1, g_t) != cache.g
                or cache.ids != prefix_ids[:r]):
            cache.reset(self.decoder, max(c, self.cfg.max_len))
            r = 0
        new_gs = np.minimum(np.arange(k + r, k + t), g_t)
        new_gs[-1] = g_t
        # Read counts never decrease: if row r has read all c rows, every
        # new row has.
        cross = None if new_gs[0] == c else np.arange(c) < new_gs[:, None]
        read = len(cache.layers[0][1])
        with T._ARRAYS:
            logits = self.decoder.forward(
                np.array([prefix_ids[r:]]), states.z.values[None, read:],
                cross, states.f.values[None, new_gs - 1], cache)
        cache.ids += prefix_ids[r:]
        cache.k, cache.g = k, g_t
        return Tensor(logits[0, -1])

    def start_stream(self):
        return StreamingEncoder(self)


class StreamingEncoder:
    """Key/value-cached causal encoder consuming one token at a time.

    Appending a token never changes earlier states; concatenating the
    returned rows reproduces the batch encoding of the same prefix. The
    stream also owns the DecoderCache its states hand to decode_step.
    """

    def __init__(self, model):
        self.model = model
        cfg = model.cfg
        self.count = 0
        self.running_sum = np.zeros(cfg.d_model)
        self._caches = [layer.attn.kv_cache((1, cfg.max_len, cfg.d_model),
                                            True)
                        for layer in model.encoder.layers]
        self._z = np.zeros((cfg.max_len, cfg.d_model))
        self._f = np.zeros((cfg.max_len, cfg.d_model))
        self._decoder_cache = DecoderCache()

    def push(self, token_id):
        """Consume one source token; returns its encoder state row [d].
        Runs in array mode."""
        enc = self.model.encoder
        with T._ARRAYS:
            e = enc.embed_positions(np.array([[token_id]]), self.count)
            x = e                                              # [1, 1, d]
            for layer, cache in zip(enc.layers, self._caches):
                x = layer(x, cache=cache)
            z_row = enc.final_ln(x)[0, 0]
            self.running_sum = self.running_sum + e[0, 0]
            self.count += 1
            f_row = T.linear((self.running_sum / self.count)[None, :],
                             self.model.bridge_w)
        self._z[self.count - 1] = z_row
        self._f[self.count - 1] = f_row[0]
        return z_row

    def mean_embedding(self):
        """Running mean of the consumed, position-augmented inputs."""
        if self.count == 0:
            raise ScheduleError("no tokens consumed")
        return self.running_sum / self.count

    @property
    def states(self):
        """IncrementalStates view over everything consumed so far."""
        return IncrementalStates(Tensor(self._z[:self.count]),
                                 Tensor(self._f[:self.count]),
                                 self._decoder_cache)


# ----------------------------------------------------------------------
# Recompute baseline


def encode_waitk_recompute(encoder, ids, schedule, t_steps):
    """Baseline encoder: re-encode the consumed prefix as it grows.

    Runs one full-width masked bidirectional pass per distinct prefix
    length in the schedule (a fresh recompute every time a source token is
    read), and reuses the previous pass while the prefix is unchanged.
    Returns [t_steps, n, d] with rows past the prefix zeroed.
    """
    if t_steps < 1:
        raise ScheduleError(f"t_steps must be >= 1, got {t_steps}")
    ids = np.asarray(ids)
    n = ids.shape[-1]
    out = np.zeros((t_steps, n, encoder.cfg.d_model))
    prev_g = None
    current = None
    for t in range(1, t_steps + 1):
        g = schedule.read_count(t)
        if g != prev_g:
            mask = np.zeros((n, n), dtype=bool)
            mask[:g, :g] = True
            z, _ = encoder.forward(ids[None, :], causal=False, mask=mask)
            current = np.zeros((n, encoder.cfg.d_model))
            current[:g] = z.values[0, :g]
            prev_g = g
        out[t - 1] = current
    return Tensor(out)
