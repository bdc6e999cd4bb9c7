import math

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.tensor import (Tensor, _broadcast_rule, _op, _softmax,
                            _softmax_grad)
from waitkit.transformer import IncrementalStates, ModelConfig
from waitkit.waitk import ScheduleError, read_count


# Reference ops: no package module calls them. They run on the package's
# one scaffold, T._op, so the composed attention chain below and the
# gradient checks use them as they use the package's own ops.


@_op(2)
def sub(rec, a, b):
    return (a - b, _broadcast_rule(a, b, lambda d: (d, -d))) if rec else a - b


@_op(2)
def mul(rec, a, b):
    if not rec:
        return a * b
    return a * b, _broadcast_rule(a, b, lambda d: (d * b, d * a))


@_op(1)
def reshape(rec, x, shape):
    out = x.reshape(shape)
    return (out, lambda d: d.reshape(x.shape)) if rec else out


@_op(1)
def transpose(rec, x, axes):
    axes = tuple(axes)
    out = x.transpose(axes)
    return (out, lambda d: d.transpose(np.argsort(axes))) if rec else out


@_op(2)
def concat(rec, a, b, axis=0):
    out = np.concatenate([a, b], axis=axis)
    if not rec:
        return out
    cut = a.shape[axis]
    return out, lambda d: np.split(d, [cut], axis=axis)


@_op(1)
def masked_softmax(rec, scores, mask=None):
    """Softmax over the last axis restricted to unmasked positions.

    mask is a boolean array broadcastable to scores (True keeps an entry).
    Masked entries come out exactly 0.0; a fully masked row is all zeros.
    """
    p = _softmax(scores, mask)
    return (p, lambda d: _softmax_grad(p, d)) if rec else p


@_op(1)
def tsum(rec, x):
    return (x.sum(), lambda d: np.full_like(x, float(d))) if rec else x.sum()


REFERENCE_OPS = ("sub", "mul", "reshape", "transpose", "concat",
                 "masked_softmax", "tsum")


def central_difference(fn, tensors, step=1e-5):
    """Numeric gradient of a scalar-valued fn with respect to each tensor.

    fn takes no arguments and reads the tensors' current values; every entry
    is perturbed both ways.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.values)
        flat = t.values.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = fn()
            flat[i] = orig - step
            down = fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def check_gradients(build, inputs, rtol=1e-4, step=1e-5, atol=1e-7):
    """Compare tape gradients of build() against central differences.

    build() must return a scalar Tensor computed from the given input
    tensors (requires_grad set). Raises on mismatch.
    """
    for t in inputs:
        t.grad[...] = 0.0
    with T.Tape() as tape:
        loss = build()
        tape.backward(loss)
    analytic = [t.grad.copy() for t in inputs]

    def value():
        with T.no_grad():
            return build().item()

    numeric = central_difference(value, inputs, step=step)
    for a, n in zip(analytic, numeric):
        err = np.abs(a - n)
        bound = rtol * np.maximum(np.abs(a), np.abs(n)) + atol
        assert np.all(err <= bound), (
            f"gradient mismatch: max err {err.max()}, bound {bound.min()}"
        )


def sign_test(challenger_right, champion_right):
    """Paired one-sided exact sign test on per-sentence outcomes.

    Both arguments hold one exact-match flag per test sentence, in the same
    order. Sentences both models get right, or both get wrong, carry no
    information and are dropped. Of the rest, wins are those only the
    challenger gets right and losses those only the champion gets right.
    p is the chance of at least that many wins if each discordant sentence
    were a fair coin; with no discordant sentence p is 1.

    Returns (wins, losses, p).
    """
    pairs = list(zip(challenger_right, champion_right, strict=True))
    wins = sum(1 for a, b in pairs if a and not b)
    losses = sum(1 for a, b in pairs if b and not a)
    n = wins + losses
    p = sum(math.comb(n, i) for i in range(wins, n + 1)) / 2 ** n
    return wins, losses, p


def h_slice(inc, i):
    """Oracle: the bridge memory rows f[i-1] + z[0..i-1] for a prefix of i
    consumed tokens of IncrementalStates inc."""
    if not 1 <= i <= inc.n:
        raise ScheduleError(f"prefix length {i} outside 1..{inc.n}")
    f_row = T.tslice(inc.f, (slice(i - 1, i), slice(None)))
    z_rows = T.tslice(inc.z, (slice(0, i), slice(None)))
    return T.add(z_rows, f_row)


def full_h(inc):
    """Oracle: dense [n, n, d] bridge memory of IncrementalStates inc;
    entry [i, j] is f[i] + z[j], and zero for j > i."""
    n, d = inc.z.shape
    f3 = reshape(inc.f, (n, 1, d))
    z3 = reshape(inc.z, (1, n, d))
    keep = np.tril(np.ones((n, n)))[:, :, None]
    return mul(T.add(f3, z3), Tensor(keep))


def eager_backward(tape, loss):
    """Reference for Tape.backward: the eager-grad replay it replaced, which
    adds every delta into .grad as soon as it reaches a leaf, and sums an
    intermediate's deltas in the per-call delta dict. (It wrote the
    intermediates' .grad too, when a tape entry held its output.)"""
    if loss.values.size != 1:
        raise T.GradientError(
            f"backward target must be a scalar, got shape {loss.shape}"
        )
    deltas = {loss._key: np.ones_like(loss.values)}
    if loss.requires_grad:
        loss.grad += 1.0
    for key, refs, rule in reversed(tape._entries):
        d = deltas.pop(key, None)
        if d is None:
            continue
        for ref, dt in zip(refs, rule(d)):
            if ref is None:
                continue
            if type(ref) is not int:
                ref.grad += dt
            elif ref in deltas:
                deltas[ref] = deltas[ref] + dt
            else:
                deltas[ref] = dt


def reference_named_parameters(model):
    """Reference for Module.named_parameters: the walk it replaced, which
    follows a fixed list of attribute names breadth first from a model's
    encoder and decoder, plus the student's bridge_w."""
    named = {}
    stack = [(prefix, getattr(model, prefix))
             for prefix in ("encoder", "decoder")]
    for name, mod in stack:
        if isinstance(mod, Tensor):
            named[name] = mod
            continue
        if isinstance(mod, list):
            for i, item in enumerate(mod):
                stack.append((f"{name}.{i}", item))
            continue
        for attr in ("embed", "w", "b", "gain", "bias", "layers", "ln1",
                     "ln2", "ln3", "attn", "self_attn", "cross_attn",
                     "ff", "wq", "wk", "wv", "wo", "w1", "w2",
                     "final_ln", "out"):
            child = getattr(mod, attr, None)
            if child is not None:
                stack.append((f"{name}.{attr}", child))
    if hasattr(model, "bridge_w"):
        named["bridge_w"] = model.bridge_w
    return named


def _split_heads(x, n_heads):
    # [..., t, d] -> [..., heads, t, d_k]
    *lead, t, d = x.shape
    x = reshape(x, (*lead, t, n_heads, d // n_heads))
    nd = len(lead) + 3
    axes = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)
    return transpose(x, axes)


def _merge_heads(x):
    # [..., heads, t, d_k] -> [..., t, heads*d_k]
    *lead, h, t, dk = x.shape
    nd = len(lead) + 3
    axes = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)
    x = transpose(x, axes)
    return reshape(x, (*lead, t, h * dk))


def composed_attention(q, k, v, n_heads, scale, mask=None):
    """Reference for T.attention: the chain of reshape, transpose, matmul,
    scale and masked_softmax operations it fuses, one tape entry each."""
    qh, kh, vh = (_split_heads(x, n_heads) for x in (q, k, v))
    scores = T.scale(T.matmul(qh, T.transpose_last(kh)), scale)
    att = masked_softmax(scores, mask)
    return _merge_heads(T.matmul(att, vh))


def composed_attention_call(attn, queries, memory, mask=None, cache=None):
    """Reference for MultiHeadAttention.__call__ over composed_attention;
    patch it in as the method to run a model on the unfused chain. A
    streamed row [d] adds the keys and values of its new memory rows to the
    KVCache by separate products, then runs the chain on Tensors over every
    cached row."""
    if cache is None:
        q, k, v = attn.wq(queries), attn.wk(memory), attn.wv(memory)
        return attn.wo(composed_attention(q, k, v, attn.n_heads, attn.scale,
                                          mask))
    new = memory[None] if memory.ndim == 1 else memory[len(cache):]
    for key, value in zip(attn.wk(new), attn.wv(new)):
        cache.append(key, value)
    c = len(cache)
    out = composed_attention(Tensor(attn.wq(queries)[None]),
                             Tensor(cache.k[:c]), Tensor(cache.v[:c]),
                             attn.n_heads, attn.scale, mask)
    return attn.wo(out.values[0])


def reference_softmax(x, mask):
    """Reference for tensor._softmax: the masked softmax before all-visible
    masks took the unmasked path."""
    if mask is None:
        m = x.max(axis=-1, keepdims=True)
        e = np.exp(x - m)
        return e / e.sum(axis=-1, keepdims=True)
    keep = np.asarray(mask, dtype=bool)
    try:
        if np.broadcast_shapes(keep.shape, x.shape) != x.shape:
            raise ValueError
    except ValueError:
        raise T.DimensionError(
            f"mask shape {keep.shape} does not broadcast to scores {x.shape}"
        ) from None
    keep = np.broadcast_to(keep, x.shape)
    neg = np.where(keep, x, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    e = np.where(keep, np.exp(x - safe_m), 0.0)
    s = e.sum(axis=-1, keepdims=True)
    return np.divide(e, s, out=np.zeros_like(e), where=s > 0.0)


def reference_layer_norm(x, gain, bias, eps=1e-5):
    """Reference for T.layer_norm: the version that called np.mean."""
    x, gain, bias = T.as_tensor(x), T.as_tensor(gain), T.as_tensor(bias)
    d_last = x.values.shape[-1]
    if gain.values.shape != (d_last,) or bias.values.shape != (d_last,):
        raise T.DimensionError(
            f"gain/bias must have shape ({d_last},), got "
            f"{gain.values.shape} and {bias.values.shape}"
        )
    mu = x.values.mean(axis=-1, keepdims=True)
    xc = x.values - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(
        xhat * gain.values + bias.values,
        x.requires_grad or gain.requires_grad or bias.requires_grad,
    )

    def rule(d):
        lead = tuple(range(d.ndim - 1))
        dgain = (d * xhat).sum(axis=lead)
        dbias = d.sum(axis=lead)
        dxhat = d * gain.values
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    if (tape := T._TAPES[-1]) is not None and out.requires_grad:
        T._record(tape, out, (x, gain, bias), rule)
    return out


class ReferenceKV:
    """Reference for KVCache: the keys and values [1, c, d] of the rows
    attended so far, as Tensors joined by concat."""

    def __init__(self):
        self.k = self.v = None

    def __len__(self):
        return 0 if self.k is None else self.k.shape[-2]

    def join(self, k, v):
        if self.k is not None:
            k, v = concat(self.k, k, axis=-2), concat(self.v, v, axis=-2)
        self.k, self.v = k, v
        return k, v


def reference_attention(attn, queries, memory, mask, cache):
    """Reference for a streamed MultiHeadAttention call: separate q, k and v
    products on Tensors [1, t, d], the new keys and values joined to a
    ReferenceKV, and one T.attention op over all of them."""
    k, v = cache.join(attn.wk(memory), attn.wv(memory))
    return attn.wo(T.attention(attn.wq(queries), k, v, attn.n_heads,
                               attn.scale, mask))


def reference_embed(stack, ids, start):
    """Inputs [1, t, d] of ids [1, t] at positions start .. start+t-1."""
    e = T.scale(T.embedding(stack.embed, ids), stack.emb_scale)
    return T.add(e, stack.pe[start:start + ids.shape[-1]])


class ReferenceDecoderCache:
    """Reference for DecoderCache: the target id and read count of every
    cached row, and a ReferenceKV pair per decoder layer."""

    def __init__(self):
        self.ids, self.gs, self.layers = [], [], []

    def reset(self, cfg):
        self.ids, self.gs = [], []
        self.layers = [(ReferenceKV(), ReferenceKV())
                       for _ in range(cfg.n_layers)]


def reference_decoder(decoder, ids, memory, cross, bridge, caches):
    """Reference for the decoder rows ids [1, t] after the rows in caches:
    the Tensor-op layers over the encoder rows memory [1, m, d] that the
    cross caches lack, cross [t, c] over all of them, and bridge [1, t, d]
    added in the last layer."""
    start, t = len(caches[0][0]), ids.shape[-1]
    x = reference_embed(decoder, ids, start)
    self_mask = None if t == 1 else np.tril(
        np.ones((t, start + t), dtype=bool), k=start)
    last = len(decoder.layers) - 1
    for i, (layer, (own, other)) in enumerate(zip(decoder.layers, caches)):
        h = layer.ln1(x)
        x = T.add(x, reference_attention(layer.self_attn, h, h, self_mask,
                                         own))
        h = layer.ln2(x)
        y = reference_attention(layer.cross_attn, h, memory, cross, other)
        if i == last:
            attn = layer.cross_attn
            y = T.add(y, T.linear(T.linear(bridge, attn.wv.w), attn.wo.w))
        x = T.add(x, y)
        x = T.add(x, layer.ff(layer.ln3(x)))
    return decoder.out(decoder.final_ln(x))


def build_masks(schedule, t_steps):
    """Decoder cross mask [t_steps, n] for single-pass batched wait-k
    training: row t exposes the first read_count(k, t, n) source positions. The
    per-row reference for IncrementalModel.forward's mask."""
    if t_steps < 1:
        raise ScheduleError(f"t_steps must be >= 1, got {t_steps}")
    cross = np.zeros((t_steps, schedule.n), dtype=bool)
    for t in range(1, t_steps + 1):
        cross[t - 1, : read_count(schedule.k, t, schedule.n)] = True
    return cross


def reference_decode_step(model, prefix_ids, states, g_t, k=None):
    """Reference for IncrementalModel.decode_step before the row branches:
    ops on Tensors under no_grad, separate q/k/v products, all new rows in
    one pass, and the cache checked against the whole prefix and its read
    counts rebuilt as lists. states.cache must be a ReferenceDecoderCache."""
    with T.no_grad():
        k = model.cfg.k if k is None else k
        c = states.n
        if not 1 <= g_t <= c:
            raise ScheduleError(f"g_t {g_t} outside 1..{c}")
        prefix = [int(i) for i in prefix_ids]
        t = len(prefix)
        gs = [min(k + s - 1, g_t) for s in range(1, t)] + [g_t]
        cache = states.cache
        r = len(cache.ids)
        if (len(cache.layers) != model.cfg.n_layers or r >= t
                or cache.ids != prefix[:r] or cache.gs != gs[:r]):
            cache.reset(model.cfg)
            r = 0
        d = model.cfg.d_model
        new_gs = np.array(gs[r:])
        cross = None if gs[r] == c else np.arange(c) < new_gs[:, None]
        bridge = T.gather_rows(states.f, new_gs - 1, axis=0)
        read = len(cache.layers[0][1])
        z_new = T.tslice(states.z, (slice(read, None),))
        logits = reference_decoder(
            model.decoder, np.array([prefix[r:]]),
            reshape(z_new, (1, c - read, d)), cross,
            reshape(bridge, (1, t - r, d)), cache.layers)
        cache.ids, cache.gs = prefix, gs
        return T.tslice(logits, (0, -1))


class ReferenceStream:
    """Reference for StreamingEncoder before the row branches: push runs the
    ops on Tensors under no_grad with separate q/k/v products, and its
    states carry a ReferenceDecoderCache for reference_decode_step."""

    def __init__(self, model):
        self.model = model
        cfg = model.cfg
        self.count = 0
        self.running_sum = np.zeros(cfg.d_model)
        self._caches = [ReferenceKV() for _ in range(cfg.n_layers)]
        self._z = np.zeros((cfg.max_len, cfg.d_model))
        self._f = np.zeros((cfg.max_len, cfg.d_model))
        self._decoder_cache = ReferenceDecoderCache()

    def push(self, token_id):
        enc = self.model.encoder
        with T.no_grad():
            e = reference_embed(enc, np.array([[token_id]]), self.count)
            x = e
            for layer, cache in zip(enc.layers, self._caches):
                h = layer.ln1(x)
                x = T.add(x, reference_attention(layer.attn, h, h, None,
                                                 cache))
                x = T.add(x, layer.ff(layer.ln2(x)))
            z_row = enc.final_ln(x)
            self.running_sum = self.running_sum + e.values[0, 0]
            self.count += 1
            mean = Tensor((self.running_sum / self.count)[None, :])
            f_row = T.linear(mean, self.model.bridge_w)
        self._z[self.count - 1] = z_row.values[0, 0]
        self._f[self.count - 1] = f_row.values[0]
        return z_row.values[0, 0]

    @property
    def states(self):
        return IncrementalStates(Tensor(self._z[:self.count]),
                                 Tensor(self._f[:self.count]),
                                 self._decoder_cache)


class EagerAdam:
    """Reference for training.Adam: one m/v pair and one update per
    parameter array, reading and writing each parameter's own buffers."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.98, eps=1e-9):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.values) for p in self.params]
        self._v = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.values -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad[...] = 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_cfg():
    return ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                       src_vocab=20, tgt_vocab=20, max_len=40, k=2)
