import math
import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from waitkit import bench
from waitkit import tensor as T
from waitkit.checkpoint import load_models, save_models
from waitkit.tensor import (Tensor, _broadcast_rule, _op, _softmax,
                            _softmax_grad)
from waitkit.training import synthetic_vocab, train
from waitkit.transformer import ModelConfig
from waitkit.waitk import ScheduleError


# Reference ops: no package module calls them. They run on the package's
# one scaffold, T._op, so the composed attention chain below and the
# gradient checks use them as they use the package's own ops.


@_op(2)
def sub(a, b):
    return a - b, _broadcast_rule(a, b, lambda d: (d, -d))


@_op(2)
def mul(a, b):
    return a * b, _broadcast_rule(a, b, lambda d: (d * b, d * a))


@_op(1)
def reshape(x, shape):
    return x.reshape(shape), lambda d: (d.reshape(x.shape),)


@_op(1)
def transpose(x, axes):
    axes = tuple(axes)
    return x.transpose(axes), lambda d: (d.transpose(np.argsort(axes)),)


@_op(2)
def concat(a, b, axis=0):
    cut = a.shape[axis]
    return (np.concatenate([a, b], axis=axis),
            lambda d: tuple(np.split(d, [cut], axis=axis)))


@_op(1)
def masked_softmax(scores, mask=None):
    """Softmax over the last axis restricted to unmasked positions.

    mask is a boolean array broadcastable to scores (True keeps an entry).
    Masked entries come out exactly 0.0; a fully masked row is all zeros.
    """
    p = _softmax(scores, mask)
    return p, lambda d: (_softmax_grad(p, d),)


@_op(1)
def tsum(x):
    return x.sum(), lambda d: (np.full_like(x, float(d)),)


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


# Independent trainings in spawned processes. Training does not gain from a
# second BLAS thread at the acceptance shape, but two processes halve a
# fixture's wall time; parameters and metric rows keep their bits.


def max_train_processes():
    return min(2, os.cpu_count() or 1)


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread variables to 1 for the processes started inside;
    this process's BLAS, loaded already, keeps its threads. The names are
    read here, not at import: equivalence_digest.py imports this module
    (through test_array_mode) against trees that predate them."""
    names = bench.BLAS_THREAD_VARS
    saved = {name: os.environ.get(name) for name in names}
    os.environ.update(dict.fromkeys(names, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _train_saved(path, examples, model_cfg, train_cfg):
    """train() one pair, save it to path, and return its metric rows."""
    teacher, student, rows = train(examples, model_cfg, train_cfg)
    save_models(path, teacher, student, synthetic_vocab(model_cfg.src_vocab),
                synthetic_vocab(model_cfg.tgt_vocab))
    return rows


def train_runs(jobs):
    """Run independent train(examples, model_cfg, train_cfg) jobs and return
    one (teacher, student, metric rows) per job, in order.

    The jobs run in at most max_train_processes() processes from a spawn
    context, on one BLAS thread each, and every process has exited when
    this returns. Each pair comes back through save_models/load_models
    files in a temporary directory. With one job, one CPU, or a process
    that cannot start, the jobs run in this process, through the same
    files.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"run{i}.ckpt") for i in range(len(jobs))]
        workers = min(max_train_processes(), len(jobs))
        rows = None
        if workers > 1:
            with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("spawn")
            ) as pool:
                try:
                    with _one_blas_thread():
                        # map submits every job, which starts the processes
                        results = pool.map(_train_saved, paths,
                                           *zip(*jobs))
                except OSError:
                    pool.shutdown(cancel_futures=True)
                else:
                    rows = list(results)
        if rows is None:
            rows = [_train_saved(path, *job) for path, job in zip(paths, jobs)]
        return [(*load_models(path)[:2], run_rows)
                for path, run_rows in zip(paths, rows)]


def h_slice(z, f, i):
    """Oracle: the bridge memory rows f[i-1] + z[0..i-1] for a prefix of i
    consumed tokens of causal states z and bridge rows f [n, d]."""
    n = z.shape[0]
    if not 1 <= i <= n:
        raise ScheduleError(f"prefix length {i} outside 1..{n}")
    f_row = T.tslice(f, (slice(i - 1, i), slice(None)))
    z_rows = T.tslice(z, (slice(0, i), slice(None)))
    return T.add(z_rows, f_row)


def full_h(z, f):
    """Oracle: dense [n, n, d] bridge memory of causal states z and bridge
    rows f [n, d]; entry [i, j] is f[i] + z[j], and zero for j > i."""
    n, d = z.shape
    f3 = reshape(f, (n, 1, d))
    z3 = reshape(z, (1, n, d))
    keep = np.tril(np.ones((n, n)))[:, :, None]
    return mul(T.add(f3, z3), Tensor(keep))


def eager_backward(tape, loss):
    """Reference for Tape.backward, written apart from it: every delta
    that reaches a leaf adds into its .grad at once, a leaf loss's unit
    delta included, and an intermediate's deltas are summed in a per-call
    dict. (It wrote the intermediates' .grad too, when a tape entry held
    its output.)"""
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
    streamed self-attention row [d] adds its key and value to the KVCache by
    separate products, a cross-attention row (memory None) reads the rows
    StreamingEncoder.push projected; then the chain runs on Tensors over
    every cached row."""
    if cache is None:
        q, k, v = attn.wq(queries), attn.wk(memory), attn.wv(memory)
        return attn.wo(composed_attention(q, k, v, attn.n_heads, attn.scale,
                                          mask))
    if memory is not None:
        cache.append(attn.wk(memory[None])[0], attn.wv(memory[None])[0])
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


def reference_attention(attn, queries, memory, cache):
    """Reference for a streamed MultiHeadAttention call: separate q, k and v
    products on Tensors [1, t, d], the new keys and values joined to a
    ReferenceKV (none when memory is None), and one T.attention op over all
    of them."""
    k, v = ((cache.k, cache.v) if memory is None
            else cache.join(attn.wk(memory), attn.wv(memory)))
    return attn.wo(T.attention(attn.wq(queries), k, v, attn.n_heads,
                               attn.scale))


def reference_embed(stack, ids, start):
    """Inputs [1, t, d] of ids [1, t] at positions start .. start+t-1."""
    e = T.scale(T.embedding(stack.embed, ids), stack.emb_scale)
    return T.add(e, stack.pe[start:start + ids.shape[-1]])


class ReferenceDecoderCache:
    """Reference for a stream's decoder rows: the target id of every row
    and a ReferenceKV pair per decoder layer."""

    def __init__(self, cfg):
        self.ids = []
        self.layers = [(ReferenceKV(), ReferenceKV())
                       for _ in range(cfg.n_layers)]


def build_masks(k, n, t_steps):
    """Decoder cross mask [t_steps, n] for single-pass batched wait-k
    training: row t exposes the first min(k + t - 1, n) source positions.
    The per-row reference for IncrementalModel.forward's mask."""
    if t_steps < 1:
        raise ScheduleError(f"t_steps must be >= 1, got {t_steps}")
    cross = np.zeros((t_steps, n), dtype=bool)
    for t in range(1, t_steps + 1):
        cross[t - 1, : min(k + t - 1, n)] = True
    return cross


def reference_decode_step(model, prefix_ids, stream):
    """Reference for IncrementalModel.decode_step before the row branches:
    the decoder row of prefix_ids[-1] over every source row the
    ReferenceStream stream has read, after the rows it holds, by ops on
    Tensors under no_grad with separate q/k/v products; its cross caches
    already hold every source row, and the last layer adds the bridge row
    of the last source row read."""
    if stream.count == 0:
        raise ScheduleError("cannot decode an empty source")
    if stream.model is not model:
        raise ScheduleError("the stream was started by another model")
    prefix = [int(i) for i in prefix_ids]
    cache = stream.decoder
    if not prefix or cache.ids != prefix[:-1]:
        raise ScheduleError(f"a prefix of {len(prefix)} ids does not extend "
                            f"the {len(cache.ids)} held ids by one")
    decoder, (_, f) = model.decoder, stream.states
    with T.no_grad():
        x = reference_embed(decoder, np.array([prefix[-1:]]), len(cache.ids))
        bridge = Tensor(f[None, None])
        last = len(decoder.layers) - 1
        for i, (layer, (own, other)) in enumerate(zip(decoder.layers,
                                                      cache.layers)):
            h = layer.ln1(x)
            x = T.add(x, reference_attention(layer.self_attn, h, h, own))
            h = layer.ln2(x)
            y = reference_attention(layer.cross_attn, h, None, other)
            if i == last:
                attn = layer.cross_attn
                y = T.add(y, T.linear(T.linear(bridge, attn.wv.w), attn.wo.w))
            x = T.add(x, y)
            x = T.add(x, layer.ff(layer.ln3(x)))
        logits = decoder.out(decoder.final_ln(x))
    cache.ids.append(prefix[-1])
    return T.tslice(logits, (0, -1))


class ReferenceStream:
    """Reference for StreamingEncoder before the row branches: push runs the
    ops on Tensors under no_grad with separate q/k/v products and joins the
    state row's keys and values to every decoder layer's cross ReferenceKV,
    and decoder holds the rows reference_decode_step writes."""

    def __init__(self, model):
        self.model = model
        cfg = model.cfg
        self.count = 0
        self.running_sum = np.zeros(cfg.d_model)
        self._caches = [ReferenceKV() for _ in range(cfg.n_layers)]
        self._z = np.zeros((cfg.max_len, cfg.d_model))
        self._f = None
        self.decoder = ReferenceDecoderCache(cfg)

    def push(self, token_id):
        enc = self.model.encoder
        with T.no_grad():
            e = reference_embed(enc, np.array([[token_id]]), self.count)
            x = e
            for layer, cache in zip(enc.layers, self._caches):
                h = layer.ln1(x)
                x = T.add(x, reference_attention(layer.attn, h, h, cache))
                x = T.add(x, layer.ff(layer.ln2(x)))
            z_row = enc.final_ln(x)
            for layer, (_, cross) in zip(self.model.decoder.layers,
                                         self.decoder.layers):
                attn = layer.cross_attn
                cross.join(attn.wk(z_row), attn.wv(z_row))
            self.running_sum = self.running_sum + e.values[0, 0]
            self.count += 1
            mean = Tensor((self.running_sum / self.count)[None, :])
            f_row = T.linear(mean, self.model.bridge_w)
        self._z[self.count - 1] = z_row.values[0, 0]
        self._f = f_row.values[0]
        return z_row.values[0, 0]

    @property
    def states(self):
        return self._z[:self.count], self._f


class EagerAdam:
    """Reference for training.Adam: one m/v pair and one update per
    parameter array, reading and writing each parameter's own buffers; a
    step leaves each grad zero."""

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
            g[...] = 0.0

    @property
    def _grads(self):
        """The params' grads in one flat array, in Adam's order: what
        training._update takes the gradient norm of."""
        return np.concatenate([p.grad.ravel() for p in self.params])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_cfg():
    return ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                       src_vocab=20, tgt_vocab=20, max_len=40, k=2)
