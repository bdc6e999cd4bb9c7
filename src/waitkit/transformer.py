"""Transformer building blocks and the three encoder variants.

Covers the full-sentence bidirectional encoder (teacher), the per-step
recompute encoder (wait-k baseline), the causal left-to-right encoder whose
prefix states never change (incremental student), and the decoder whose last
layer cross-attends to causal states augmented with a projected running mean
of the consumed input embeddings.

All model forwards are batch-first; single-sentence helpers wrap batch 1.
The streamed decode is a StreamingEncoder: push reads one source row and
IncrementalModel.decode_step writes one decoder row over every source row
read. Each computes one row at a time: a plain 1-D array [d], which every
module on its path takes through a row branch in numpy, over KVCaches of
the rows before it. Every layer and model is a Module, which names its own
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
from .waitk import read_counts


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
    """The memory rows one attention has attended, projected, in order.

    Row j of rows [capacity, len(weight)] holds memory row j times weight,
    this cache's copy of the attention's projections stacked: [Wq;Wk;Wv]
    for self-attention, whose query is its memory row, or [Wk;Wv] for
    cross-attention. Its last 2d columns are the key k[j] and the value
    v[j]; kt [h, dk, capacity] and vh [h, capacity, dk] view them split
    into heads. project takes one product over the stacked weights, or one
    per block where _stacks_exactly says stacking changes the bits: the
    bits of the separate products either way. The rows are plain arrays,
    for inference only.
    """

    def __init__(self, attn, capacity, self_attention):
        stack = (attn.wq, attn.wk, attn.wv)[0 if self_attention else 1:]
        self.weight = np.concatenate([p.w.values for p in stack])
        self.bias = np.concatenate([p.b.values for p in stack])
        d, h = attn.wq.w.shape[1], attn.n_heads
        self.rows = np.empty((capacity, len(self.weight)))
        self.k, self.v = self.rows[:, -2 * d:-d], self.rows[:, -d:]
        self.kt = self.k.reshape(capacity, h, d // h).transpose(1, 2, 0)
        self.vh = self.v.reshape(capacity, h, d // h).transpose(1, 0, 2)
        self._n = 0
        self._blocks = (None if _stacks_exactly(d, len(stack))
                        else range(0, len(self.weight), d))

    def __len__(self):
        return self._n

    def project(self, row):
        """Write the projections of one memory row [d] at row len(self);
        returns its query [d] for self-attention, an empty row for
        cross-attention."""
        w, b, d = self.weight, self.bias, len(row)
        out = self.rows[self._n]
        if self._blocks is None:
            out[:] = T._product(row, w, b)
        else:
            for i in self._blocks:
                out[i:i + d] = T._product(row, w[i:i + d], b[i:i + d])
        self._n += 1
        return out[:-2 * d]


@functools.cache
def _stacks_exactly(d, blocks):
    """Whether one row [d] times `blocks` stacked [d, d] weights gets, from
    this BLAS, the bits of the separate products. A gemv kernel may round
    the rows of a short last group differently from the same rows in a
    full group (OpenBLAS: the last d % 4 rows of each block). That depends
    on shapes only, so it is probed once per shape, on inputs whose wide
    range makes any change of summation order show. It multiplies through
    T._product, the call KVCache.project makes, and its products are not
    counted as MACs."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=(blocks * d, d))
    rows = rng.normal(size=(8, d)) * 10.0 ** rng.uniform(-8, 8, d)
    with T._uncounted():
        return all(np.array_equal(T._product(x, w), np.concatenate(
            [T._product(x, w[i * d:(i + 1) * d]) for i in range(blocks)]))
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
        memory rows it attends. In self-attention memory is that row, and
        the cache projects it; in cross-attention memory is None and the
        cache already holds every row. A row takes no mask: it reads every
        cached row.
        """
        if type(queries) is not np.ndarray:
            # Tape order fixes the order in which a shared input's deltas sum.
            q, k, v = self.wq(queries), self.wk(memory), self.wv(memory)
            return self.wo(T.attention(q, k, v, self.n_heads, self.scale,
                                       mask))
        q = self.wq(queries) if memory is None else cache.project(memory)
        c = len(cache)
        o, _ = T._attend(q.reshape(self.n_heads, 1, -1), cache.kt[..., :c],
                         cache.vh[:, :c], self.scale, None)
        return self.wo(o.reshape(-1))

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
        """x [b, t, d] over memory [b, n, d], or one streamed row [d] over
        a (self-attention, cross-attention) KVCache pair, memory None."""
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

    def step(self, token_id, bridge, caches):
        """Logits [vocab] of the row after those cached in caches, one
        (self-attention, cross-attention) KVCache pair per layer: target
        id token_id reads every encoder row the cross caches hold, with the
        bridge row [d]."""
        return self._layers(self.embed_row(token_id, len(caches[0][0])),
                            None, None, None, bridge, caches)

    def _layers(self, x, memory, self_mask, cross_mask, bridge, caches):
        last = len(self.layers) - 1
        for i, (layer, kv) in enumerate(zip(self.layers, caches)):
            x = layer(x, memory, self_mask, cross_mask,
                      bridge if i == last else None, kv)
        return self.out(self.final_ln(x))


# ----------------------------------------------------------------------
# Averaged-embedding bridge


def average_embedding_bridge(inputs, weight):
    """Bridge rows f [..., n, d] of encoder inputs [..., n, d]: f[i] is the
    trainable [d, d] weight applied to the mean of inputs 0..i. A decoder
    row that has read g tokens attends over f[g-1] + z[j], j < g
    (MultiHeadAttention.attend_rows). StreamingEncoder.push computes the
    same row one read at a time.
    """
    return T.matmul(T.masked_cumulative_mean(inputs),
                    T.transpose_last(weight))


# ----------------------------------------------------------------------
# Whole models


class _Model(Module):
    """An encoder and a decoder; causal says whether encoder position i
    attends to positions <= i only. seed is what np.random.default_rng
    takes; a Generator is drawn from in place."""

    causal: bool

    def __init__(self, cfg, seed=0):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.encoder = Encoder(rng, cfg, cfg.src_vocab)
        self.decoder = Decoder(rng, cfg)

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
        rng = np.random.default_rng(seed)   # encoder, decoder, then bridge
        super().__init__(cfg, rng)
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
        g = read_counts(k, n, tgt_ids.shape[-1])

        z, e = self.encoder.forward(src_ids, self.causal)
        f = average_embedding_bridge(e, self.bridge_w)         # [b, n, d]
        bridge = T.gather_rows(f, g - 1, axis=1)               # [b, t, d]
        logits = self.decoder.forward(tgt_ids, z, np.arange(n) < g[:, None],
                                      bridge)
        return logits, z

    def incremental_states(self, ids):
        """One-shot (z, f) [n, d] of one sentence: its causal encoder
        states and bridge rows (average_embedding_bridge)."""
        z, e = self._encode_one(ids)
        return z, average_embedding_bridge(e, self.bridge_w)

    def decode_step(self, prefix_ids, stream):
        """Next-token logits for one sentence: the decoder row of
        prefix_ids[-1] over every source row stream, a StreamingEncoder of
        this model, has read, after the decoder rows the stream holds.

        Only that row is computed (Decoder.step); a held row keeps the
        source rows it read. ScheduleError is raised, before the stream is
        touched, when it has read nothing or another model started it, and
        unless prefix_ids are its held ids and one more. The rows are plain
        arrays off the tape, so a recording Tape raises GradientError.
        """
        if isinstance(T._TAPES[-1], T.Tape):
            raise T.GradientError("decode_step under a recording tape")
        if stream.count == 0:
            raise ScheduleError("cannot decode an empty source")
        if stream.model is not self:
            raise ScheduleError("the stream was started by another model")
        if not isinstance(prefix_ids, list):
            prefix_ids = np.asarray(prefix_ids).tolist()
        t = len(prefix_ids)
        if t == 0:
            raise ScheduleError("the prefix must hold at least the bos id")
        _check_length(self.cfg, t)
        if stream.ids != prefix_ids[:-1]:
            raise ScheduleError(f"a prefix of {t} ids does not extend the "
                                f"{len(stream.ids)} held ids by one")
        _, f = stream.states
        logits = self.decoder.step(prefix_ids[-1], f, stream.decoder_caches)
        stream.ids.append(prefix_ids[-1])
        return Tensor(logits)

    def start_stream(self):
        return StreamingEncoder(self)


class StreamingEncoder:
    """Key/value-cached causal encoder consuming one token at a time, and
    the decoder rows decode_step has written over what it read.

    Appending a token never changes earlier states; concatenating the
    returned rows reproduces the batch encoding of the same prefix. ids are
    the target ids of the decoder rows, in order, and decoder_caches holds
    their (self-attention, cross-attention) KVCache pair per decoder layer.
    """

    def __init__(self, model):
        self.model = model
        cfg = model.cfg
        self.count = 0
        self.running_sum = np.zeros(cfg.d_model)
        self._caches = [KVCache(layer.attn, cfg.max_len, True)
                        for layer in model.encoder.layers]
        self._z = np.zeros((cfg.max_len, cfg.d_model))
        self._f = None
        self.ids = []
        self.decoder_caches = [
            (KVCache(layer.self_attn, cfg.max_len, True),
             KVCache(layer.cross_attn, cfg.max_len, False))
            for layer in model.decoder.layers]

    def push(self, token_id):
        """Consume one source token; returns its encoder state row [d],
        whose keys and values join every decoder cross-attention cache.
        Its bridge row replaces the last: average_embedding_bridge's row
        of the inputs read so far."""
        enc = self.model.encoder
        x = e = enc.embed_row(token_id, self.count)
        for layer, cache in zip(enc.layers, self._caches):
            x = layer(x, cache=cache)
        z_row = enc.final_ln(x)
        for _, cross in self.decoder_caches:
            cross.project(z_row)
        self.running_sum = self.running_sum + e
        self.count += 1
        self._z[self.count - 1] = z_row
        self._f = T._product(self.running_sum / self.count,
                             self.model.bridge_w.values)
        return z_row

    @property
    def states(self):
        """(z, f) as plain arrays: the encoder state rows [count, d] read so
        far and the bridge row [d] of the last read (None before one)."""
        return self._z[:self.count], self._f


# ----------------------------------------------------------------------
# Recompute baseline


def encode_waitk_recompute(encoder, ids, k, t_steps):
    """Baseline encoder: re-encode the consumed prefix as it grows.

    Runs one full-width masked bidirectional pass per distinct prefix
    length in the wait-k schedule (a fresh recompute every time a source
    token is read), and reuses the previous pass while the prefix is
    unchanged. Returns [t_steps, n, d] with rows past the prefix zeroed.
    """
    ids = np.asarray(ids)
    n = ids.shape[-1]
    counts = read_counts(k, n, t_steps)
    out = np.zeros((t_steps, n, encoder.cfg.d_model))
    for t, g in enumerate(counts):
        if t == 0 or g != counts[t - 1]:
            mask = np.zeros((n, n), dtype=bool)
            mask[:g, :g] = True
            z, _ = encoder.forward(ids[None, :], causal=False, mask=mask)
        out[t, :g] = z.values[0, :g]
    return Tensor(out)
