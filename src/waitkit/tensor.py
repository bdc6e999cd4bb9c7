"""Reverse-mode automatic differentiation over dense float64 arrays.

Eager tensor library: every operation computes its result immediately and,
when a Tape records (outside no_grad), appends its backward rule to it.
Replaying the tape in reverse sums one delta per tensor and adds only the
leaves' into .grad. Every operation is a body over arrays under one
scaffold, _op, which alone unwraps the operands, builds the Tensor and
records; a body builds its backward rule only when asked to. Matrix
products also feed a global multiply-accumulate counter so the benchmark
harness can report hardware-independent costs. Multi-head attention is one
operation with one tape entry, not a chain. The streamed decode does not
come here: it runs one row at a time on plain arrays (transformer.py),
through the cores the ops share, _product, _attend and _row_norm, which
count MACs as the ops do.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "DimensionError", "GradientError", "Tensor", "Tape", "no_grad",
    "mac_counter", "as_tensor",
    # operations
    "add", "scale", "matmul", "linear", "relu", "transpose_last", "tslice",
    "gather_rows", "embedding", "masked_cumulative_mean", "attention",
    "layer_norm", "cross_entropy", "l2_distance_loss", "detach",
]


class DimensionError(ValueError):
    """Operand shapes violate an operation's contract."""


class GradientError(RuntimeError):
    """Invalid backward invocation."""


class _MacCounter:
    """Running tally of multiply-accumulate operations in matrix products."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


mac_counter = _MacCounter()


class Tensor:
    """Dense float64 array paired with a gradient buffer of the same shape.

    The gradient buffer is allocated on first read, as zeros; backward writes
    it only on leaves (tensors no recorded operation produced). Tensors
    created while no tape is active are plain values.
    """

    __slots__ = ("values", "_grad", "requires_grad")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self._grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def grad(self):
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    @grad.setter
    def grad(self, buffer):
        self._grad = buffer

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# ----------------------------------------------------------------------
# Tape

# The innermost recording context: a Tape, or None (no Tape, or no_grad).
_TAPES: list = [None]


class _Context:
    """Makes itself the innermost recording context for a with block."""

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()


class Tape(_Context):
    """Ordered record of differentiable operations.

    Entries are appended in execution order; backward() replays them in
    reverse, visiting every recorded operation exactly once. Leaf gradients
    add into .grad, so repeated backward calls accumulate.
    """

    def __init__(self):
        self._entries = []

    def __len__(self):
        return len(self._entries)

    def backward(self, loss):
        if loss.values.size != 1:
            raise GradientError(
                f"backward target must be a scalar, got shape {loss.shape}"
            )
        # An intermediate's summed delta is complete when its own entry is
        # replayed; what is left belongs to leaves (0 + delta is exact).
        deltas = {}
        if loss.requires_grad:
            deltas[id(loss)] = (loss, np.ones_like(loss.values))
        for out, rule in reversed(self._entries):
            entry = deltas.pop(id(out), None)
            if entry is None:
                continue
            for t, dt in rule(entry[1]):
                if not t.requires_grad:
                    continue
                key = id(t)
                prev = deltas.get(key)
                deltas[key] = (t, dt if prev is None else prev[1] + dt)
        for t, d in deltas.values():
            t.grad += d


class no_grad(_Context):
    """Disable recording; forward values are identical either way."""

    def __enter__(self):
        _TAPES.append(None)


def _record(tape, out, rule):
    tape._entries.append((out, rule))
    return out


def _op(n):
    """Make an op of a body over arrays. The op's first n positional
    arguments are its operands, Tensors, arrays or None (a trailing one
    left out takes the body's default); n = -1 takes one list of them, and
    n = 0 none, so the result never requires grad. The body takes a flag
    rec, the operands' arrays and the op's other arguments; it returns out,
    or with rec (out, rule), rule(d) giving the operands' deltas in order
    (one operand: a bare delta). The op returns a Tensor, and while a Tape
    records and some operand requires grad, it asks for the rule and
    records it through _record."""
    def wrap(body):
        def op(*args, **kw):
            xs = [None if x is None else as_tensor(x)
                  for x in (args[0] if n < 0 else args[:n])]
            arrays = [None if x is None else x.values for x in xs]
            args = (arrays, *args[1:]) if n < 0 else (*arrays, *args[n:])
            req = any(x is not None and x.requires_grad for x in xs)
            if (tape := _TAPES[-1]) is None or not req:
                return Tensor(body(False, *args, **kw), req)
            out, rule = body(True, *args, **kw)
            return _record(tape, Tensor(out, True), lambda d: zip(
                xs, (rule(d),) if n == 1 else rule(d)))
        return functools.wraps(body)(op)
    return wrap


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ----------------------------------------------------------------------
# Elementwise and structural operations


def _broadcast_rule(a, b, deltas):
    """The rule of two broadcasting operands: deltas(d), each summed back
    to its operand's shape."""
    def rule(d):
        da, db = deltas(d)
        return _unbroadcast(da, a.shape), _unbroadcast(db, b.shape)
    return rule


@_op(2)
def add(rec, a, b):
    return (a + b, _broadcast_rule(a, b, lambda d: (d, d))) if rec else a + b


@_op(1)
def scale(rec, x, c):
    c = float(c)
    return (x * c, lambda d: d * c) if rec else x * c


@_op(1)
def relu(rec, x):
    out = np.maximum(x, 0.0)
    return (out, lambda d: d * (x > 0.0)) if rec else out


@_op(1)
def transpose_last(rec, x):
    """Swap the two trailing axes."""
    if x.ndim < 2:
        raise DimensionError(f"transpose_last needs >= 2 dims, got shape {x.shape}")
    out = np.swapaxes(x, -1, -2)
    return (out, lambda d: np.swapaxes(d, -1, -2)) if rec else out


@_op(1)
def tslice(rec, x, key):
    """Basic slicing; the backward pass scatters into the sliced region."""
    if not rec:
        return x[key]

    def rule(d):
        dx = np.zeros_like(x)
        dx[key] += d
        return dx
    return x[key], rule


@_op(1)
def gather_rows(rec, x, indices, axis=0):
    """Select rows along an axis by integer index (duplicates allowed)."""
    idx = np.asarray(indices, dtype=np.intp)
    out = np.take(x, idx, axis=axis)
    if not rec:
        return out

    def rule(d):
        dx = np.zeros_like(x)
        np.add.at(np.moveaxis(dx, axis, 0), idx, np.moveaxis(d, axis, 0))
        return dx
    return out, rule


def _out_of_range(vocab):
    return IndexError(f"token id out of range for vocabulary of size {vocab}")


@_op(1)
def embedding(rec, weight, ids):
    """Row lookup into an embedding matrix; backward is a scatter-add."""
    ids = np.asarray(ids, dtype=np.intp)
    vocab = weight.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise _out_of_range(vocab)
    if not rec:
        return weight[ids]

    def rule(d):
        dw = np.zeros_like(weight)
        np.add.at(dw, ids.reshape(-1), d.reshape(-1, weight.shape[1]))
        return dw
    return weight[ids], rule


# ----------------------------------------------------------------------
# Matrix products


@_op(2)
def matmul(rec, a, b):
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul shapes {a.shape} and {b.shape} do not agree")
    out = a @ b
    mac_counter.count += out.size * a.shape[-1]
    if not rec:
        return out

    def rule(d):
        da = d @ np.swapaxes(b, -1, -2)
        db = np.swapaxes(a, -1, -2) @ d
        return _unbroadcast(da, a.shape), _unbroadcast(db, b.shape)
    return out, rule


def _product(x, w, b=None):
    """x @ w.T (+ b) on arrays, its MACs counted: linear's forward."""
    out = x @ w.T
    mac_counter.count += out.size * x.shape[-1]
    return out if b is None else out + b


@_op(3)
def linear(rec, x, weight, bias=None):
    """Affine map y = x W^T + b with weight laid out [out, in]."""
    if x.shape[-1] != weight.shape[-1]:
        raise DimensionError(
            f"linear input {x.shape} does not match weight {weight.shape}")
    out = _product(x, weight, bias)
    if not rec:
        return out

    def rule(d):
        d2 = d.reshape(-1, weight.shape[0])
        dx, dw = d @ weight, d2.T @ x.reshape(-1, weight.shape[1])
        return (dx, dw) if bias is None else (dx, dw, d2.sum(axis=0))
    return out, rule


@functools.cache
def _cummean_matrix(n):
    return np.tril(np.ones((n, n))) / np.arange(1.0, n + 1.0)[:, None]


@_op(1)
def masked_cumulative_mean(rec, x):
    """Row i of the result is the mean of rows 0..i of the input.

    Computed in one shot as a lower-triangular averaging matrix times the
    input, so the whole prefix-mean family costs a single matrix product.
    """
    if x.ndim < 2:
        raise DimensionError(f"need at least 2 dims, got shape {x.shape}")
    m = _cummean_matrix(x.shape[-2])
    out = m @ x
    mac_counter.count += out.size * m.shape[-1]
    return (out, lambda d: np.swapaxes(m, -1, -2) @ d) if rec else out


# ----------------------------------------------------------------------
# Normalization and losses


def _softmax(x, mask):
    """Softmax over the last axis of the entries that mask, None or a bool
    array broadcastable to x, keeps (True); the rest come out exactly 0.0.

    A mask that keeps every entry takes the unmasked path: a row of all
    -inf scores comes out nan under it, as with no mask, and zeros under a
    mask that drops some entry.
    """
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        try:
            if np.broadcast_shapes(keep.shape, x.shape) != x.shape:
                raise ValueError
        except ValueError:
            raise DimensionError(
                f"mask shape {keep.shape} does not broadcast to scores {x.shape}"
            ) from None
        if not keep.all():
            return _partial_softmax(x, keep)
    # The ufuncs' own reduce: the same loop as ndarray.max and .sum.
    e = np.exp(x - np.maximum.reduce(x, -1, keepdims=True))
    return e / np.add.reduce(e, -1, keepdims=True)


def _partial_softmax(x, keep):
    """Softmax over the entries keep marks; exp(-inf) makes the rest 0."""
    neg = np.where(keep, x, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(neg - safe_m)
    s = e.sum(axis=-1, keepdims=True)
    return np.divide(e, s, out=np.zeros_like(e), where=s > 0.0)


def _softmax_grad(p, d):
    return p * (d - (d * p).sum(axis=-1, keepdims=True))


def _attend(qh, kt, vh, scale, mask):
    """(o, p): the heads qh [..., tq, dk] attend over keys kt [..., dk, tk]
    and values vh [..., tk, dk]; p = softmax(qh @ kt * scale) under mask,
    o = p @ vh, their MACs counted. attention's forward, without its shape
    checks, head split and merge."""
    s = qh @ kt
    mac_counter.count += s.size * qh.shape[-1]
    p = _softmax(s * scale, mask)
    o = p @ vh
    mac_counter.count += o.size * kt.shape[-1]
    return o, p


@_op(3)
def attention(rec, q, k, v, n_heads, scale, mask=None):
    """Multi-head scaled dot-product attention as one recorded operation.

    q [..., tq, d], k and v [..., tk, d] share their leading shape and split
    into n_heads heads; mask broadcasts to the scores [..., heads, tq, tk]
    (True keeps). Returns the merged heads [..., tq, d]. Values, gradients
    and MACs equal, bit for bit, those of the chain of reshape, transpose,
    matmul, scale and masked softmax ops it replaces (the tests keep that
    chain as its reference).
    """
    *lead, tq, d = q.shape
    tk = k.shape[-2]
    if k.shape != v.shape or d % n_heads or k.shape != (*lead, tk, d):
        raise DimensionError(
            f"attention shapes {q.shape}, {k.shape}, {v.shape} do not agree "
            f"with {n_heads} heads")
    dk = d // n_heads
    nd = len(lead) + 3
    heads = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)   # self-inverse
    last = tuple(range(nd - 2)) + (nd - 1, nd - 2)

    def split(x, t):
        return x.reshape((*lead, t, n_heads, dk)).transpose(heads)

    def merge(x, t):
        return x.transpose(heads).reshape((*lead, t, d))

    qh, kt, vh = split(q, tq), split(k, tk).transpose(last), split(v, tk)
    o, p = _attend(qh, kt, vh, scale, mask)
    out = merge(o, tq)
    if not rec:
        return out

    def rule(dout):
        do = split(dout, tq)
        dp = do @ np.swapaxes(vh, -1, -2)
        dv = np.swapaxes(p, -1, -2) @ do
        ds = _softmax_grad(p, dp) * scale
        dq = ds @ np.swapaxes(kt, -1, -2)
        dkt = np.swapaxes(qh, -1, -2) @ ds
        return merge(dq, tq), merge(dkt.transpose(last), tk), merge(dv, tk)
    return out, rule


# The variance floor of every layer norm. layer_norm and _row_norm share
# it, or a streamed row would lose the bits of the batched path.
NORM_EPS = 1e-5


def _row_norm(x):
    """(xhat, 1 / std) of the one row an array holds. Its mean, variance and
    scale are Python floats: IEEE doubles like numpy's, and math.sqrt
    rounds correctly like np.sqrt, so the bits are those of layer_norm's
    array path at fewer numpy calls. add.reduce / d is what np.mean
    computes, without its Python wrappers."""
    d = x.shape[-1]
    xc = x - float(np.add.reduce(x, None)) / d
    var = float(np.add.reduce(xc * xc, None)) / d
    inv = 1.0 / math.sqrt(var + NORM_EPS)
    return xc * inv, inv


@_op(3)
def layer_norm(rec, x, gain, bias):
    """Normalize the last axis to zero mean / unit variance (NORM_EPS added
    to the variance), then affine."""
    d_last = x.shape[-1]
    if gain.shape != (d_last,) or bias.shape != (d_last,):
        raise DimensionError(
            f"gain/bias must have shape ({d_last},), got "
            f"{gain.shape} and {bias.shape}")
    xc = x - np.add.reduce(x, -1, keepdims=True) / d_last
    var = np.add.reduce(xc * xc, -1, keepdims=True) / d_last
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = xc * inv
    out = xhat * gain + bias
    if not rec:
        return out

    def rule(d):
        lead = tuple(range(d.ndim - 1))
        dgain = (d * xhat).sum(axis=lead)
        dbias = d.sum(axis=lead)
        dxhat = d * gain
        dx = inv * (
            dxhat
            - dxhat.sum(axis=-1, keepdims=True) / d_last
            - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d_last)
        )
        return dx, dgain, dbias
    return out, rule


@_op(1)
def cross_entropy(rec, logits, targets, mask=None):
    """Mean negative log-likelihood of targets under softmax(logits).

    targets holds integer ids with the same leading shape as logits; mask
    (same shape as targets, 1.0 for real positions) drops padding from the
    mean.
    """
    ids = np.asarray(targets, dtype=np.intp)
    vocab = logits.shape[-1]
    if ids.shape != logits.shape[:-1]:
        raise DimensionError(
            f"targets shape {ids.shape} does not match logits {logits.shape}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"target id out of range for vocabulary of size {vocab}")
    w = np.ones(ids.shape) if mask is None else np.asarray(mask, np.float64)
    if w.shape != ids.shape:
        raise DimensionError(
            f"mask shape {w.shape} does not match targets {ids.shape}")
    count = w.sum()
    if count <= 0:
        raise DimensionError("cross_entropy needs at least one unmasked position")
    m = logits.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    logp = (np.take_along_axis(logits, ids[..., None], axis=-1)[..., 0]
            - lse[..., 0])
    out = -(logp * w).sum() / count
    if not rec:
        return out

    def rule(d):
        p = np.exp(logits - lse)
        np.subtract.at(p, (*np.indices(ids.shape), ids), 1.0)
        return p * (w[..., None] * (float(d) / count))
    return out, rule


@_op(2)
def l2_distance_loss(rec, a, b):
    """Mean over rows of the squared euclidean distance between a and b."""
    if a.shape != b.shape:
        raise DimensionError(
            f"l2_distance_loss shapes differ: {a.shape} vs {b.shape}"
        )
    if a.ndim < 2:
        raise DimensionError(f"need at least 2 dims, got shape {a.shape}")
    rows = a.size // a.shape[-1]
    diff = a - b
    out = (diff * diff).sum() / rows
    if not rec:
        return out

    def rule(d):
        g = diff * (2.0 * float(d) / rows)
        return g, -g
    return out, rule


@_op(0)
def detach(rec, x):
    """Cut the tape: same values, no gradient history (x is no operand)."""
    return x.values if type(x) is Tensor else x
