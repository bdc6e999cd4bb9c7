"""Transformer building blocks and the three encoder variants.

Covers the full-sentence bidirectional encoder (teacher), the per-step
recompute encoder (wait-k baseline), the causal left-to-right encoder whose
prefix states never change (incremental student), and the decoder whose last
layer cross-attends to causal states augmented with a projected running mean
of the consumed input embeddings.

All model forwards are batch-first; single-sentence helpers wrap batch 1.
The streamed decode (StreamingEncoder.push, IncrementalModel.decode_step)
computes one row at a time: a plain 1-D array [d], which every module on
its path takes through a row branch in numpy, over KVCaches of the rows
before it. Every layer and model is a Module, which names its own
parameters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import LengthError, NumericalError, ScheduleError
from .tensor import Tensor
from .waitk import WaitKSchedule, check_k, read_count


# The most float64 values a teacher and student pair may hold (see
# ModelConfig.n_values): 128 MiB, checked before anything is allocated.
MAX_MODEL_VALUES = 2 ** 24


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
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.n_values > MAX_MODEL_VALUES:
            raise ValueError(
                f"a teacher and student of this size hold {self.n_values} "
                f"values, more than the limit {MAX_MODEL_VALUES}")

    @property
    def n_values(self):
        """Float64 values of the TeacherModel and IncrementalModel this
        config builds: their parameters and the four position tables (one
        shared table, counted four times as a bound)."""
        d, ff = self.d_model, self.d_ff
        attn, norm = 4 * (d * d + d), 2 * d
        block = 2 * d * ff + ff + d + norm       # feed-forward, its norm
        encoder = (self.src_vocab * d + self.max_len * d + norm
                   + self.n_layers * (attn + norm + block))
        decoder = (self.tgt_vocab * (2 * d + 1) + self.max_len * d + norm
                   + self.n_layers * (2 * attn + 2 * norm + block))
        return 2 * (encoder + decoder) + d * d   # + the student's bridge

    @property
    def d_k(self):
        return self.d_model // self.n_heads


@functools.cache
def sinusoidal_positions(max_len, d_model):
    """Fixed sine/cosine position table, one row per absolute position.
    One read-only table per shape, shared by every model of that shape."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(0, d_model, 2, dtype=np.float64)
    div = np.exp(dim * (-math.log(10000.0) / d_model))
    table = np.zeros((max_len, d_model))
    table[:, 0::2] = np.sin(pos * div)
    table[:, 1::2] = np.cos(pos * div[: d_model // 2])
    table.flags.writeable = False
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
    def __init__(self, rng, n_out, n_in, bound):
        self.w = uniform_init(rng, (n_out, n_in), bound)
        self.b = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x):
        if type(x) is np.ndarray:           # streamed rows
            return T._product(x, self.w.values, self.b.values)
        return T.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, d):
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x):
        if type(x) is np.ndarray:           # a streamed row
            return T._row_norm(x)[0] * self.gain.values + self.bias.values
        return T.layer_norm(x, self.gain, self.bias)


class KVCache:
    """Projected keys k and values v of the memory rows one attention has
    attended, in order, written one row at a time into buffers
    [capacity, d]: k[:len(cache)] and v[:len(cache)] hold them.

    weight and bias, when given, are the attention's projections stacked
    (MultiHeadAttention.kv_cache): [Wq;Wk;Wv] for self-attention, whose
    query is its memory row, or [Wk;Wv] for cross-attention. A single new
    memory row is projected by one product over them, which gives the bits
    of the separate products where _stacks_exactly says so. The rows are
    plain arrays, for inference only.
    """

    def __init__(self, capacity, d, weight=None, bias=None):
        self.k, self.v = np.empty((capacity, d)), np.empty((capacity, d))
        self._n = 0
        self.weight, self.bias = weight, bias

    def __len__(self):
        return self._n

    def append(self, key, value):
        """Add the key and value [d] of one memory row."""
        self.k[self._n] = key
        self.v[self._n] = value
        self._n += 1


@functools.cache
def _stacks_exactly(d, blocks):
    """Whether one row [d] times `blocks` stacked [d, d] weights gets, from
    this BLAS, the bits of the separate products. A gemv kernel may round
    the rows of a short last group differently from the same rows in a
    full group (OpenBLAS: the last d % 4 rows of each block). That depends
    on shapes only, so it is probed once per shape, on inputs whose wide
    range makes any change of summation order show."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=(blocks * d, d))
    rows = rng.normal(size=(8, d)) * 10.0 ** rng.uniform(-8, 8, d)
    return all(np.array_equal(x @ w.T, np.concatenate(
        [x @ w[i * d:(i + 1) * d].T for i in range(blocks)]))
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
        """Attend queries [..., tq, d] over a shared memory [..., tk, d];
        mask broadcasts to the scores [..., heads, tq, tk], True keeps.

        A streamed row: queries is one row [d] and cache the KVCache of the
        memory rows attended before. In self-attention memory is that row,
        and it joins the cache; otherwise memory holds rows [c, d], and
        those past len(cache) join it. mask is None or [c].
        """
        if type(queries) is not np.ndarray:
            # Tape order fixes the order in which a shared input's deltas sum.
            q, k, v = self.wq(queries), self.wk(memory), self.wv(memory)
            return self.wo(T.attention(q, k, v, self.n_heads, self.scale,
                                       mask))
        d, w = len(queries), cache.weight
        if memory.ndim == 1:
            if w is None:
                q, k, v = self.wq(memory), self.wk(memory), self.wv(memory)
            else:
                qkv = T._product(memory, w, cache.bias)
                q, k, v = qkv[:d], qkv[d:2 * d], qkv[2 * d:]
            cache.append(k, v)
        else:
            q, new = self.wq(queries), memory[len(cache):]
            if w is not None and len(new) == 1:
                kv = T._product(new[0], w, cache.bias)
                cache.append(kv[:d], kv[d:])
            elif len(new):
                for key, value in zip(self.wk(new), self.wv(new)):
                    cache.append(key, value)
        c, h = len(cache), self.n_heads
        o, _ = T._attend(q.reshape(h, 1, d // h),
                         cache.k[:c].reshape(c, h, d // h).transpose(1, 2, 0),
                         cache.v[:c].reshape(c, h, d // h).transpose(1, 0, 2),
                         self.scale, mask)
        return self.wo(o.reshape(d))

    def kv_cache(self, capacity, self_attention):
        """An empty KVCache of capacity rows holding copies of this
        attention's projections, stacked where that is exact; with
        self_attention the query must be the memory row."""
        stack = (self.wq, self.wk, self.wv)[0 if self_attention else 1:]
        d = self.wq.w.shape[1]
        if not _stacks_exactly(d, len(stack)):
            return KVCache(capacity, d)
        return KVCache(capacity, d,
                       np.concatenate([p.w.values for p in stack]),
                       np.concatenate([p.b.values for p in stack]))

    def attend_rows(self, queries, memory, mask, bridge, cache=None):
        """Attention where query row t attends over bridge[t] + memory[j].

        bridge [..., tq, d] adds the same key term to every score of its
        row, which softmax cancels, and the weights of a row sum to one; so
        this is plain attention over memory plus Wo.w Wv.w bridge[t]. Every
        row must keep at least one memory row. A streamed row passes its
        bridge row [d].
        """
        if type(bridge) is np.ndarray:
            shift = T._product(T._product(bridge, self.wv.w.values),
                               self.wo.w.values)
            return self(queries, memory, mask, cache) + shift
        shift = T.linear(T.linear(bridge, self.wv.w), self.wo.w)
        return T.add(self(queries, memory, mask, cache), shift)


class FeedForward(Module):
    def __init__(self, rng, cfg):
        bound = 1.0 / math.sqrt(cfg.d_model)
        self.w1 = Linear(rng, cfg.d_ff, cfg.d_model, bound)
        self.w2 = Linear(rng, cfg.d_model, cfg.d_ff, bound)

    def __call__(self, x):
        h = self.w1(x)
        return self.w2(np.maximum(h, 0.0) if type(h) is np.ndarray
                       else T.relu(h))


class EncoderLayer(Module):
    """Pre-norm self-attention block followed by a pre-norm feed-forward."""

    def __init__(self, rng, cfg):
        self.ln1 = LayerNorm(cfg.d_model)
        self.attn = MultiHeadAttention(rng, cfg)
        self.ln2 = LayerNorm(cfg.d_model)
        self.ff = FeedForward(rng, cfg)

    def __call__(self, x, mask=None, cache=None):
        """x [b, n, d] under mask, or one streamed row [d] after the rows
        in cache."""
        add = np.add if type(x) is np.ndarray else T.add
        h = self.ln1(x)
        x = add(x, self.attn(h, h, mask, cache))
        return add(x, self.ff(self.ln2(x)))


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

    def embed_positions(self, ids):
        """Inputs [b, n, d] for ids [b, n] at positions 0 .. n-1."""
        n = ids.shape[-1]
        _check_length(self.cfg, n)
        e = T.scale(T.embedding(self.embed, ids), self.emb_scale)
        return T.add(e, self.pe[:n])

    def embed_row(self, token_id, position):
        """Input row [d] of one token id at a position; the checks and the
        bits of embed_positions."""
        _check_length(self.cfg, position + 1)
        i, table = int(token_id), self.embed.values
        if not 0 <= i < len(table):
            raise T._out_of_range(len(table))
        return table[i] * self.emb_scale + self.pe[position]


def _check_length(cfg, n):
    if n > cfg.max_len:
        raise LengthError(f"sequence length {n} exceeds maximum {cfg.max_len}")


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
        """x [b, t, d], or one streamed row [d] with a (self-attention,
        cross-attention) KVCache pair."""
        add = np.add if type(x) is np.ndarray else T.add
        h = self.ln1(x)
        x = add(x, self.self_attn(h, h, self_mask, cache[0]))
        h = self.ln2(x)
        if bridge is None:
            x = add(x, self.cross_attn(h, memory, cross_mask, cache[1]))
        else:
            x = add(x, self.cross_attn.attend_rows(h, memory, cross_mask,
                                                   bridge, cache[1]))
        return add(x, self.ff(self.ln3(x)))


class Decoder(_Stack):
    """Causal decoder; its last layer can add the averaging bridge."""

    def __init__(self, rng, cfg):
        super().__init__(rng, cfg, cfg.tgt_vocab, DecoderLayer)
        bound = 1.0 / math.sqrt(cfg.d_model)
        self.out = Linear(rng, cfg.tgt_vocab, cfg.d_model, bound)

    def forward(self, ids, memory, cross_mask=None, bridge=None):
        """Logits [b, t, vocab] for target ids [b, t] over memory [b, n, d].

        bridge [b, t, d] goes to the last layer's attend_rows.
        """
        t = ids.shape[-1]
        self_mask = np.tril(np.ones((t, t), dtype=bool))
        return self._layers(self.embed_positions(ids), memory, self_mask,
                            cross_mask, bridge,
                            [(None, None)] * len(self.layers))

    def step(self, token_id, memory, g, bridge, caches):
        """Logits [vocab] of the row after those cached in caches, one
        (self-attention, cross-attention) KVCache pair per layer: target
        id token_id reads the first g of the encoder rows memory [c, d],
        with the bridge row [d]."""
        c = len(memory)
        cross = None if g == c else np.arange(c) < g
        return self._layers(self.embed_row(token_id, len(caches[0][0])),
                            memory, None, cross, bridge, caches)

    def _layers(self, x, memory, self_mask, cross_mask, bridge, caches):
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
    each cached row. Row s of r rows read waitk.read_count(k, s, g) source
    rows and row r read g, for the k and g of the last call, so (k, g) decide
    which calls may extend the rows. decoder is the Decoder whose rows
    these are, or None when no call may extend them."""

    def __init__(self):
        self.ids, self.layers = [], []
        self.decoder = self.k = self.g = None

    def reset(self, decoder, memory_rows):
        """Empty caches of a decoder's layers for up to cfg.max_len decoder
        rows over up to memory_rows encoder rows."""
        self.ids = []
        self.layers = [(layer.self_attn.kv_cache(decoder.cfg.max_len, True),
                        layer.cross_attn.kv_cache(memory_rows, False))
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

    def _encode_one(self, ids):
        """(states, inputs) [n, d] of one sentence (see Encoder.forward)."""
        z, e = self.encoder.forward(np.asarray(ids)[None, :], self.causal)
        return T.tslice(z, (0,)), T.tslice(e, (0,))

    def encode(self, ids):
        """Encoder states [n, d] of one sentence; raises NumericalError if
        any is not finite."""
        z, _ = self._encode_one(ids)
        if not np.isfinite(z.values).all():
            raise NumericalError("non-finite encoder states")
        return z


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
        g = WaitKSchedule(k, n).read_counts(tgt_ids.shape[-1])

        z, e = self.encoder.forward(src_ids, self.causal)
        means = T.masked_cumulative_mean(e)
        f = T.matmul(means, T.transpose_last(self.bridge_w))   # [b, n, d]
        bridge = T.gather_rows(f, g - 1, axis=1)               # [b, t, d]
        logits = self.decoder.forward(tgt_ids, z, np.arange(n) < g[:, None],
                                      bridge)
        return logits, z

    def incremental_states(self, ids):
        """One-shot causal encoding packaged with the averaging bridge."""
        z, e = self._encode_one(ids)
        return average_embedding_states(e, z, self.bridge_w)

    def decode_step(self, prefix_ids, states, g_t, k=None):
        """Next-token logits for one sentence given a decoder prefix.

        states covers the consumed source (IncrementalStates); row s of the
        prefix uses the wait-k coverage for step s, and the current step
        uses g_t consumed tokens; k < 1 raises ScheduleError. Only the rows states.cache lacks are
        computed, one at a time (Decoder.step): the cache is kept while the
        prefix extends the cached ids and the cached rows keep their read
        counts, and rebuilt from row 0 otherwise. The rows are plain arrays
        off the tape, so a recording Tape raises GradientError.
        """
        if isinstance(T._TAPES[-1], T.Tape):
            raise T.GradientError("decode_step under a recording tape")
        k = self.cfg.k if k is None else k
        check_k(k)
        c = states.n
        if not 1 <= g_t <= c:
            raise ScheduleError(f"g_t {g_t} outside 1..{c}")
        if not isinstance(prefix_ids, list):
            prefix_ids = np.asarray(prefix_ids).tolist()
        t = len(prefix_ids)
        if t == 0:
            raise ScheduleError("the prefix must hold at least the bos id")
        _check_length(self.cfg, t)
        cache = states.cache
        r = len(cache.ids)
        # Rows 1..r-1 keep their read counts whenever row r does (see
        # DecoderCache).
        if (cache.decoder is not self.decoder or not 0 < r < t
                or k != cache.k or read_count(k, r, g_t) != cache.g
                or cache.ids != prefix_ids[:r]):
            cache.reset(self.decoder, max(c, self.cfg.max_len))
            r = 0
        cache.decoder = None        # a row that raises leaves it to rebuild
        z, f = states.z.values, states.f.values
        for s in range(r, t):
            g = g_t if s == t - 1 else read_count(k, s + 1, g_t)
            logits = self.decoder.step(prefix_ids[s], z, g, f[g - 1],
                                       cache.layers)
        cache.ids += prefix_ids[r:]
        cache.decoder, cache.k, cache.g = self.decoder, k, g_t
        return Tensor(logits)

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
        self._caches = [layer.attn.kv_cache(cfg.max_len, True)
                        for layer in model.encoder.layers]
        self._z = np.zeros((cfg.max_len, cfg.d_model))
        self._f = np.zeros((cfg.max_len, cfg.d_model))
        self._decoder_cache = DecoderCache()

    def push(self, token_id):
        """Consume one source token; returns its encoder state row [d]."""
        enc = self.model.encoder
        x = e = enc.embed_row(token_id, self.count)
        for layer, cache in zip(enc.layers, self._caches):
            x = layer(x, cache=cache)
        z_row = enc.final_ln(x)
        self.running_sum = self.running_sum + e
        self.count += 1
        self._z[self.count - 1] = z_row
        self._f[self.count - 1] = T._product(self.running_sum / self.count,
                                             self.model.bridge_w.values)
        return z_row

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
    counts = schedule.read_counts(t_steps)
    ids = np.asarray(ids)
    n = ids.shape[-1]
    out = np.zeros((t_steps, n, encoder.cfg.d_model))
    for t, g in enumerate(counts):
        if t == 0 or g != counts[t - 1]:
            mask = np.zeros((n, n), dtype=bool)
            mask[:g, :g] = True
            z, _ = encoder.forward(ids[None, :], causal=False, mask=mask)
        out[t, :g] = z.values[0, :g]
    return Tensor(out)
