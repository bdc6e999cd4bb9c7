"""Reverse-mode automatic differentiation over dense float64 arrays.

Eager tensor library: every operation computes its result immediately and,
when a Tape records (outside no_grad), appends a backward rule to it; with
nothing recording it builds no rule. Replaying the tape in reverse sums one
delta per tensor and adds only the leaves' into .grad. In the private array
mode (`with _ARRAYS:`) an operation takes Tensors or float64 arrays and
returns the array it computed, building no Tensor; each operation's forward
arithmetic is written once and shared by both paths.
Matrix products also feed a global multiply-accumulate counter so the
benchmark harness can report hardware-independent costs. Multi-head
attention is one operation with one tape entry (attention), not a chain.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager

import numpy as np

__all__ = [
    "DimensionError",
    "GradientError",
    "Tensor",
    "Tape",
    "no_grad",
    "backward",
    "mac_counter",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "linear",
    "relu",
    "reshape",
    "transpose",
    "transpose_last",
    "concat",
    "tslice",
    "gather_rows",
    "embedding",
    "masked_cumulative_mean",
    "masked_softmax",
    "attention",
    "layer_norm",
    "cross_entropy",
    "l2_distance_loss",
    "tsum",
    "detach",
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

    def reset(self):
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

    @property
    def ndim(self):
        return self.values.ndim

    def item(self):
        return float(self.values.reshape(-1)[0])

    def zero_grad(self):
        self.grad[...] = 0.0

    def detach(self):
        return Tensor(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# ----------------------------------------------------------------------
# Tape

# The innermost recording context: a Tape, None (no Tape, or no_grad), or
# _ARRAYS (array mode).
_TAPES: list = [None]


class _ArrayMode:
    """Context in which operations return plain arrays: no Tensor, no
    requires_grad, no backward rule. For inference code that owns its
    inputs (the streamed decode); shape checks and MAC counts are those of
    the Tensor path."""

    def __enter__(self):
        _TAPES.append(self)

    def __exit__(self, *exc):
        _TAPES.pop()
        return False


_ARRAYS = _ArrayMode()


class Tape:
    """Ordered record of differentiable operations.

    Entries are appended in execution order; backward() replays them in
    reverse, visiting every recorded operation exactly once. Leaf gradients
    add into .grad, so repeated backward calls accumulate.
    """

    def __init__(self):
        self._entries = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

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


@contextmanager
def no_grad():
    """Disable recording; forward values are identical either way."""
    _TAPES.append(None)
    try:
        yield
    finally:
        _TAPES.pop()


def backward(loss):
    """Run the backward pass of the currently active tape."""
    t = _TAPES[-1]
    if not isinstance(t, Tape):
        raise GradientError("backward requires an active tape")
    t.backward(loss)


def _record(tape, out, rule):
    tape._entries.append((out, rule))


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


def _elementwise(a, b, forward, deltas):
    """forward(a, b) of two broadcasting operands; deltas(d, a, b) gives
    their deltas before they are summed back to each operand's shape."""
    if (tape := _TAPES[-1]) is not _ARRAYS:
        a, b = as_tensor(a), as_tensor(b)
    av = a.values if type(a) is Tensor else a
    bv = b.values if type(b) is Tensor else b
    out = forward(av, bv)
    if tape is _ARRAYS:
        return out
    out = Tensor(out, a.requires_grad or b.requires_grad)
    if tape is None or not out.requires_grad:
        return out

    def rule(d):
        da, db = deltas(d, av, bv)
        return ((a, _unbroadcast(da, av.shape)),
                (b, _unbroadcast(db, bv.shape)))

    _record(tape, out, rule)
    return out


def add(a, b):
    return _elementwise(a, b, operator.add, lambda d, av, bv: (d, d))


def sub(a, b):
    return _elementwise(a, b, operator.sub, lambda d, av, bv: (d, -d))


def mul(a, b):
    return _elementwise(a, b, operator.mul,
                        lambda d, av, bv: (d * bv, d * av))


def scale(x, c):
    if (tape := _TAPES[-1]) is not _ARRAYS:
        x = as_tensor(x)
    c = float(c)
    out = (x.values if type(x) is Tensor else x) * c
    if tape is _ARRAYS:
        return out
    out = Tensor(out, x.requires_grad)
    if tape is not None and out.requires_grad:
        _record(tape, out, lambda d: ((x, d * c),))
    return out


def relu(x):
    if (tape := _TAPES[-1]) is not _ARRAYS:
        x = as_tensor(x)
    out = np.maximum(x.values if type(x) is Tensor else x, 0.0)
    if tape is _ARRAYS:
        return out
    out = Tensor(out, x.requires_grad)
    if tape is not None and out.requires_grad:
        _record(tape, out, lambda d: ((x, d * (x.values > 0.0)),))
    return out


def reshape(x, shape):
    if (tape := _TAPES[-1]) is not _ARRAYS:
        x = as_tensor(x)
    out = (x.values if type(x) is Tensor else x).reshape(shape)
    if tape is _ARRAYS:
        return out
    out = Tensor(out, x.requires_grad)
    if tape is not None and out.requires_grad:
        _record(tape, out, lambda d: ((x, d.reshape(x.values.shape)),))
    return out


def transpose(x, axes):
    if (tape := _TAPES[-1]) is not _ARRAYS:
        x = as_tensor(x)
    axes = tuple(axes)
    out = (x.values if type(x) is Tensor else x).transpose(axes)
    if tape is _ARRAYS:
        return out
    out = Tensor(out, x.requires_grad)
    if tape is not None and out.requires_grad:
        _record(tape, out, lambda d: ((x, d.transpose(np.argsort(axes))),))
    return out


def transpose_last(x):
    """Swap the two trailing axes."""
    if _TAPES[-1] is not _ARRAYS:
        x = as_tensor(x)
    nd = x.ndim
    if nd < 2:
        raise DimensionError(f"transpose_last needs >= 2 dims, got shape {x.shape}")
    axes = tuple(range(nd - 2)) + (nd - 1, nd - 2)
    return transpose(x, axes)


def concat(tensors, axis=0):
    if (tape := _TAPES[-1]) is not _ARRAYS:
        tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.values if type(t) is Tensor else t
                          for t in tensors], axis=axis)
    if tape is _ARRAYS:
        return out
    out = Tensor(out, any(t.requires_grad for t in tensors))
    sizes = [t.values.shape[axis] for t in tensors]
    if tape is None or not out.requires_grad:
        return out

    def rule(d):
        grads = []
        start = 0
        for t, s in zip(tensors, sizes):
            idx = [slice(None)] * d.ndim
            idx[axis] = slice(start, start + s)
            grads.append((t, d[tuple(idx)]))
            start += s
        return grads

    _record(tape, out, rule)
    return out


def tslice(x, key):
    """Basic slicing; the backward pass scatters into the sliced region."""
    if (tape := _TAPES[-1]) is not _ARRAYS:
        x = as_tensor(x)
    out = (x.values if type(x) is Tensor else x)[key]
    if tape is _ARRAYS:
        return out
    out = Tensor(out, x.requires_grad)
    if tape is None or not out.requires_grad:
        return out

    def rule(d):
        dx = np.zeros_like(x.values)
        dx[key] += d
        return ((x, dx),)

    _record(tape, out, rule)
    return out


def gather_rows(x, indices, axis=0):
    """Select rows along an axis by integer index (duplicates allowed)."""
    if (tape := _TAPES[-1]) is not _ARRAYS:
        x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    out = np.take(x.values if type(x) is Tensor else x, idx, axis=axis)
    if tape is _ARRAYS:
        return out
    out = Tensor(out, x.requires_grad)
    if tape is None or not out.requires_grad:
        return out

    def rule(d):
        dx = np.zeros_like(x.values)
        np.add.at(np.moveaxis(dx, axis, 0), idx, np.moveaxis(d, axis, 0))
        return ((x, dx),)

    _record(tape, out, rule)
    return out


def embedding(weight, ids):
    """Row lookup into an embedding matrix; backward is a scatter-add."""
    if (tape := _TAPES[-1]) is not _ARRAYS:
        weight = as_tensor(weight)
    wv = weight.values if type(weight) is Tensor else weight
    ids = np.asarray(ids, dtype=np.intp)
    vocab = wv.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(
            f"token id out of range for vocabulary of size {vocab}"
        )
    out = wv[ids]
    if tape is _ARRAYS:
        return out
    out = Tensor(out, weight.requires_grad)
    if tape is None or not out.requires_grad:
        return out

    def rule(d):
        dw = np.zeros_like(weight.values)
        np.add.at(dw, ids.reshape(-1), d.reshape(-1, weight.values.shape[1]))
        return ((weight, dw),)

    _record(tape, out, rule)
    return out


# ----------------------------------------------------------------------
# Matrix products


def matmul(a, b):
    if (tape := _TAPES[-1]) is not _ARRAYS:
        a, b = as_tensor(a), as_tensor(b)
    av = a.values if type(a) is Tensor else a
    bv = b.values if type(b) is Tensor else b
    if av.ndim < 2 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:
        raise DimensionError(
            f"matmul shapes {av.shape} and {bv.shape} do not agree"
        )
    out = av @ bv
    mac_counter.count += out.size * av.shape[-1]
    if tape is _ARRAYS:
        return out
    out = Tensor(out, a.requires_grad or b.requires_grad)
    if tape is None or not out.requires_grad:
        return out

    def rule(d):
        da = d @ np.swapaxes(bv, -1, -2)
        db = np.swapaxes(av, -1, -2) @ d
        return (
            (a, _unbroadcast(da, av.shape)),
            (b, _unbroadcast(db, bv.shape)),
        )

    _record(tape, out, rule)
    return out


def linear(x, weight, bias=None):
    """Affine map y = x W^T + b with weight laid out [out, in]."""
    if (tape := _TAPES[-1]) is not _ARRAYS:
        x, weight = as_tensor(x), as_tensor(weight)
        if bias is not None:
            bias = as_tensor(bias)
    xv = x.values if type(x) is Tensor else x
    wv = weight.values if type(weight) is Tensor else weight
    if xv.shape[-1] != wv.shape[-1]:
        raise DimensionError(
            f"linear input {xv.shape} does not match weight {wv.shape}"
        )
    out = xv @ wv.T
    mac_counter.count += out.size * xv.shape[-1]
    if bias is not None:
        out = out + (bias.values if type(bias) is Tensor else bias)
    if tape is _ARRAYS:
        return out
    out = Tensor(out, x.requires_grad or weight.requires_grad or (
        bias is not None and bias.requires_grad))
    if tape is None or not out.requires_grad:
        return out

    def rule(d):
        n_out = wv.shape[0]
        n_in = wv.shape[1]
        dx = d @ wv
        dw = d.reshape(-1, n_out).T @ xv.reshape(-1, n_in)
        grads = [(x, dx), (weight, dw)]
        if bias is not None:
            grads.append((bias, d.reshape(-1, n_out).sum(axis=0)))
        return grads

    _record(tape, out, rule)
    return out


_CUMMEAN_CACHE: dict = {}


def _cummean_matrix(n):
    m = _CUMMEAN_CACHE.get(n)
    if m is None:
        m = np.tril(np.ones((n, n))) / np.arange(1.0, n + 1.0)[:, None]
        _CUMMEAN_CACHE[n] = m
    return m


def masked_cumulative_mean(x):
    """Row i of the result is the mean of rows 0..i of the input.

    Computed in one shot as a lower-triangular averaging matrix times the
    input, so the whole prefix-mean family costs a single matrix product.
    """
    if _TAPES[-1] is not _ARRAYS:
        x = as_tensor(x)
    if x.ndim < 2:
        raise DimensionError(f"need at least 2 dims, got shape {x.shape}")
    return matmul(_cummean_matrix(x.shape[-2]), x)


# ----------------------------------------------------------------------
# Normalization and losses


def _softmax(x, mask):
    """Masked softmax of an array over its last axis; see masked_softmax.

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


def masked_softmax(scores, mask=None):
    """Softmax over the last axis restricted to unmasked positions.

    mask is a boolean array broadcastable to scores (True keeps an entry).
    Masked entries come out exactly 0.0; a fully masked row is all zeros.
    """
    if (tape := _TAPES[-1]) is not _ARRAYS:
        scores = as_tensor(scores)
    p = _softmax(scores.values if type(scores) is Tensor else scores, mask)
    if tape is _ARRAYS:
        return p
    out = Tensor(p, scores.requires_grad)
    if tape is not None and out.requires_grad:
        _record(tape, out, lambda d: ((scores, _softmax_grad(p, d)),))
    return out


def attention(q, k, v, n_heads, scale, mask=None):
    """Multi-head scaled dot-product attention as one recorded operation.

    q [..., tq, d], k and v [..., tk, d] share their leading shape and split
    into n_heads heads; mask broadcasts to the scores [..., heads, tq, tk]
    (True keeps). Returns the merged heads [..., tq, d]. Values, gradients
    and MACs equal, bit for bit, those of the chain of reshape, transpose,
    matmul, scale and masked_softmax operations it replaces.
    """
    if (tape := _TAPES[-1]) is not _ARRAYS:
        q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    qv = q.values if type(q) is Tensor else q
    kv = k.values if type(k) is Tensor else k
    vv = v.values if type(v) is Tensor else v
    *lead, tq, d = qv.shape
    tk = kv.shape[-2]
    if kv.shape != vv.shape or d % n_heads or kv.shape != (*lead, tk, d):
        raise DimensionError(
            f"attention shapes {q.shape}, {k.shape}, {v.shape} do not agree "
            f"with {n_heads} heads"
        )
    dk = d // n_heads
    nd = len(lead) + 3
    heads = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)   # self-inverse
    last = tuple(range(nd - 2)) + (nd - 1, nd - 2)

    def split(x, t):
        return x.reshape((*lead, t, n_heads, dk)).transpose(heads)

    def merge(x, t):
        return x.transpose(heads).reshape((*lead, t, d))

    qh, kh, vh = split(qv, tq), split(kv, tk), split(vv, tk)
    kt = kh.transpose(last)
    s = qh @ kt
    mac_counter.count += s.size * dk
    p = _softmax(s * scale, mask)
    o = p @ vh
    mac_counter.count += o.size * tk
    out = merge(o, tq)
    if tape is _ARRAYS:
        return out
    out = Tensor(out, q.requires_grad or k.requires_grad or v.requires_grad)
    if tape is None or not out.requires_grad:
        return out

    def rule(dout):
        do = split(dout, tq)
        dp = do @ np.swapaxes(vh, -1, -2)
        dv = np.swapaxes(p, -1, -2) @ do
        ds = _softmax_grad(p, dp) * scale
        dq = ds @ np.swapaxes(kt, -1, -2)
        dkt = np.swapaxes(qh, -1, -2) @ ds
        return ((q, merge(dq, tq)), (k, merge(dkt.transpose(last), tk)),
                (v, merge(dv, tk)))

    _record(tape, out, rule)
    return out


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine.

    eps must be positive. A single row takes its mean, variance and scale
    as Python floats: IEEE doubles like numpy's, and math.sqrt rounds
    correctly like np.sqrt, so the bits are the same at fewer numpy calls.
    """
    if (tape := _TAPES[-1]) is not _ARRAYS:
        x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xv = x.values if type(x) is Tensor else x
    gv = gain.values if type(gain) is Tensor else gain
    bv = bias.values if type(bias) is Tensor else bias
    d_last = xv.shape[-1]
    if gv.shape != (d_last,) or bv.shape != (d_last,):
        raise DimensionError(
            f"gain/bias must have shape ({d_last},), got "
            f"{gv.shape} and {bv.shape}"
        )
    # add.reduce / d is what np.mean computes, without its Python wrappers.
    if xv.size == d_last:
        xc = xv - float(np.add.reduce(xv, None)) / d_last
        var = float(np.add.reduce(xc * xc, None)) / d_last
        inv = 1.0 / math.sqrt(var + eps)
    else:
        xc = xv - np.add.reduce(xv, -1, keepdims=True) / d_last
        var = np.add.reduce(xc * xc, -1, keepdims=True) / d_last
        inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gv + bv
    if tape is _ARRAYS:
        return out
    out = Tensor(
        out, x.requires_grad or gain.requires_grad or bias.requires_grad)
    if tape is None or not out.requires_grad:
        return out

    def rule(d):
        lead = tuple(range(d.ndim - 1))
        dgain = (d * xhat).sum(axis=lead)
        dbias = d.sum(axis=lead)
        dxhat = d * gv
        dx = inv * (
            dxhat
            - dxhat.sum(axis=-1, keepdims=True) / d_last
            - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d_last)
        )
        return ((x, dx), (gain, dgain), (bias, dbias))

    _record(tape, out, rule)
    return out


def cross_entropy(logits, targets, mask=None):
    """Mean negative log-likelihood of targets under softmax(logits).

    targets holds integer ids with the same leading shape as logits; mask
    (same shape as targets, 1.0 for real positions) drops padding from the
    mean.
    """
    if (tape := _TAPES[-1]) is not _ARRAYS:
        logits = as_tensor(logits)
    x = logits.values if type(logits) is Tensor else logits
    ids = np.asarray(targets, dtype=np.intp)
    vocab = x.shape[-1]
    if ids.shape != x.shape[:-1]:
        raise DimensionError(
            f"targets shape {ids.shape} does not match logits {x.shape}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"target id out of range for vocabulary of size {vocab}")
    if mask is None:
        w = np.ones(ids.shape)
    else:
        w = np.asarray(mask, dtype=np.float64)
        if w.shape != ids.shape:
            raise DimensionError(
                f"mask shape {w.shape} does not match targets {ids.shape}"
            )
    count = w.sum()
    if count <= 0:
        raise DimensionError("cross_entropy needs at least one unmasked position")
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    logp = np.take_along_axis(x, ids[..., None], axis=-1)[..., 0] - lse[..., 0]
    out = -(logp * w).sum() / count
    if tape is _ARRAYS:
        return out
    out = Tensor(out, logits.requires_grad)
    if tape is None or not out.requires_grad:
        return out

    def rule(d):
        p = np.exp(x - lse)
        np.subtract.at(p, (*np.indices(ids.shape), ids), 1.0)
        return ((logits, p * (w[..., None] * (float(d) / count))),)

    _record(tape, out, rule)
    return out


def l2_distance_loss(a, b):
    """Mean over rows of the squared euclidean distance between a and b."""
    if (tape := _TAPES[-1]) is not _ARRAYS:
        a, b = as_tensor(a), as_tensor(b)
    av = a.values if type(a) is Tensor else a
    bv = b.values if type(b) is Tensor else b
    if av.shape != bv.shape:
        raise DimensionError(
            f"l2_distance_loss shapes differ: {av.shape} vs {bv.shape}"
        )
    if av.ndim < 2:
        raise DimensionError(f"need at least 2 dims, got shape {av.shape}")
    rows = av.size // av.shape[-1]
    diff = av - bv
    out = (diff * diff).sum() / rows
    if tape is _ARRAYS:
        return out
    out = Tensor(out, a.requires_grad or b.requires_grad)
    if tape is None or not out.requires_grad:
        return out

    def rule(d):
        g = diff * (2.0 * float(d) / rows)
        return ((a, g), (b, -g))

    _record(tape, out, rule)
    return out


def tsum(x):
    if (tape := _TAPES[-1]) is not _ARRAYS:
        x = as_tensor(x)
    out = (x.values if type(x) is Tensor else x).sum()
    if tape is _ARRAYS:
        return out
    out = Tensor(out, x.requires_grad)
    if tape is not None and out.requires_grad:
        _record(tape, out,
                lambda d: ((x, np.full_like(x.values, float(d))),))
    return out


def detach(x):
    """Cut the tape: same values, no gradient history."""
    if _TAPES[-1] is _ARRAYS:
        return x.values if type(x) is Tensor else x
    return as_tensor(x).detach()
