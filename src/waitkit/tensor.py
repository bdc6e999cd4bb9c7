"""Reverse-mode automatic differentiation over dense float64 arrays.

Eager tensor library: every operation computes its result immediately and,
when a Tape records (outside no_grad), appends its backward rule to it.
Replaying the tape in reverse sums one delta per tensor and adds only the
leaves' into .grad. In the private array mode (`with _ARRAYS:`) an
operation takes Tensors or float64 arrays and returns the array it
computed, building no Tensor. Every operation is a body over arrays under
one scaffold, _op, which alone unwraps the operands, builds the Tensor and
records; a body builds its backward rule only when asked to. Matrix
products also feed a global multiply-accumulate counter so the benchmark
harness can report hardware-independent costs. Multi-head attention is one
operation with one tape entry, not a chain.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "DimensionError", "GradientError", "Tensor", "Tape", "no_grad",
    "backward", "mac_counter", "as_tensor",
    # operations
    "add", "sub", "mul", "scale", "matmul", "linear", "relu", "reshape",
    "transpose", "transpose_last", "concat", "tslice", "gather_rows",
    "embedding", "masked_cumulative_mean", "masked_softmax", "attention",
    "layer_norm", "cross_entropy", "l2_distance_loss", "tsum", "detach",
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

    def item(self):
        return float(self.values.reshape(-1)[0])

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# ----------------------------------------------------------------------
# Tape

# The innermost recording context: a Tape, None (no Tape, or no_grad), or
# _ARRAYS (array mode).
_TAPES: list = [None]


class _Context:
    """Makes itself the innermost recording context for a with block."""

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()


# Array mode: operations return plain arrays, with no Tensor, requires_grad
# or backward rule; shape checks and MAC counts are those of the Tensor
# path. For inference code that owns its inputs (the streamed decode).
_ARRAYS = _Context()


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


def backward(loss):
    """Run the backward pass of the currently active tape."""
    if not isinstance(tape := _TAPES[-1], Tape):
        raise GradientError("backward requires an active tape")
    tape.backward(loss)


def _record(tape, out, rule):
    tape._entries.append((out, rule))
    return out


def _op(n):
    """Make an op of a body over arrays. The op's first n positional
    arguments are its operands, Tensors or arrays: a third may be None,
    n = -1 takes one list of them, and n = 0 none, so the result never
    requires grad. The body takes a flag rec, the operands' arrays and the
    op's other arguments; it returns out, or with rec (out, rule), rule(d)
    giving the operands' deltas in order (one operand: a bare delta). In
    array mode the op returns out. Otherwise it returns a Tensor, and while
    a Tape records and some operand requires grad, it asks for the rule and
    records it through _record."""
    def wrap(body):
        if n == 0:
            def op(*args):
                out = body(False, *args)
                return out if _TAPES[-1] is _ARRAYS else Tensor(out)
        elif n == 1:
            def op(x, *args, **kw):
                if (tape := _TAPES[-1]) is _ARRAYS:
                    return body(False, x.values if type(x) is Tensor else x,
                                *args, **kw)
                x = as_tensor(x)
                if tape is None or not x.requires_grad:
                    return Tensor(body(False, x.values, *args, **kw),
                                  x.requires_grad)
                out, rule = body(True, x.values, *args, **kw)
                return _record(tape, Tensor(out, True),
                               lambda d: ((x, rule(d)),))
        elif n == 2:
            def op(a, b):
                if (tape := _TAPES[-1]) is _ARRAYS:
                    return body(False, a.values if type(a) is Tensor else a,
                                b.values if type(b) is Tensor else b)
                a, b = as_tensor(a), as_tensor(b)
                if tape is None or not (a.requires_grad or b.requires_grad):
                    return Tensor(body(False, a.values, b.values),
                                  a.requires_grad or b.requires_grad)
                out, rule = body(True, a.values, b.values)
                return _record(tape, Tensor(out, True),
                               lambda d: zip((a, b), rule(d)))
        elif n == 3:
            def op(a, b, c=None, *args, **kw):
                if (tape := _TAPES[-1]) is _ARRAYS:
                    a = a.values if type(a) is Tensor else a
                    b = b.values if type(b) is Tensor else b
                    c = c.values if type(c) is Tensor else c
                    return (body(False, a, b, c, *args, **kw) if args or kw
                            else body(False, a, b, c))
                a, b = as_tensor(a), as_tensor(b)
                c = None if c is None else as_tensor(c)
                req = (a.requires_grad or b.requires_grad
                       or c is not None and c.requires_grad)
                cv = None if c is None else c.values
                if tape is None or not req:
                    return Tensor(body(False, a.values, b.values, cv, *args,
                                       **kw), req)
                out, rule = body(True, a.values, b.values, cv, *args, **kw)
                return _record(tape, Tensor(out, True),
                               lambda d: zip((a, b, c), rule(d)))
        else:
            def op(xs, *args, **kw):
                if (tape := _TAPES[-1]) is _ARRAYS:
                    return body(False, [x.values if type(x) is Tensor else x
                                        for x in xs], *args, **kw)
                xs = [as_tensor(x) for x in xs]
                req = any(x.requires_grad for x in xs)
                if tape is None or not req:
                    return Tensor(body(False, [x.values for x in xs], *args,
                                       **kw), req)
                out, rule = body(True, [x.values for x in xs], *args, **kw)
                return _record(tape, Tensor(out, True),
                               lambda d: zip(xs, rule(d)))
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


@_op(2)
def sub(rec, a, b):
    return (a - b, _broadcast_rule(a, b, lambda d: (d, -d))) if rec else a - b


@_op(2)
def mul(rec, a, b):
    if not rec:
        return a * b
    return a * b, _broadcast_rule(a, b, lambda d: (d * b, d * a))


@_op(1)
def scale(rec, x, c):
    c = float(c)
    return (x * c, lambda d: d * c) if rec else x * c


@_op(1)
def relu(rec, x):
    out = np.maximum(x, 0.0)
    return (out, lambda d: d * (x > 0.0)) if rec else out


@_op(1)
def reshape(rec, x, shape):
    out = x.reshape(shape)
    return (out, lambda d: d.reshape(x.shape)) if rec else out


@_op(1)
def transpose(rec, x, axes):
    axes = tuple(axes)
    out = x.transpose(axes)
    return (out, lambda d: d.transpose(np.argsort(axes))) if rec else out


@_op(1)
def transpose_last(rec, x):
    """Swap the two trailing axes."""
    if x.ndim < 2:
        raise DimensionError(f"transpose_last needs >= 2 dims, got shape {x.shape}")
    out = np.swapaxes(x, -1, -2)
    return (out, lambda d: np.swapaxes(d, -1, -2)) if rec else out


@_op(-1)
def concat(rec, arrays, axis=0):
    out = np.concatenate(arrays, axis=axis)
    if not rec:
        return out
    cuts = np.cumsum([a.shape[axis] for a in arrays[:-1]])
    return out, lambda d: np.split(d, cuts, axis=axis)


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


@_op(1)
def embedding(rec, weight, ids):
    """Row lookup into an embedding matrix; backward is a scatter-add."""
    ids = np.asarray(ids, dtype=np.intp)
    vocab = weight.shape[0]
    if ids.size == 1:               # a streamed token: no numpy reductions
        bad = not 0 <= ids.item() < vocab
    else:
        bad = ids.size and (ids.min() < 0 or ids.max() >= vocab)
    if bad:
        raise IndexError(
            f"token id out of range for vocabulary of size {vocab}")
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


@_op(3)
def linear(rec, x, weight, bias=None):
    """Affine map y = x W^T + b with weight laid out [out, in]."""
    if x.shape[-1] != weight.shape[-1]:
        raise DimensionError(
            f"linear input {x.shape} does not match weight {weight.shape}")
    out = x @ weight.T
    mac_counter.count += out.size * x.shape[-1]
    if bias is not None:
        out = out + bias
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


@_op(1)
def masked_softmax(rec, scores, mask=None):
    """Softmax over the last axis restricted to unmasked positions.

    mask is a boolean array broadcastable to scores (True keeps an entry).
    Masked entries come out exactly 0.0; a fully masked row is all zeros.
    """
    p = _softmax(scores, mask)
    return (p, lambda d: _softmax_grad(p, d)) if rec else p


@_op(3)
def attention(rec, q, k, v, n_heads, scale, mask=None):
    """Multi-head scaled dot-product attention as one recorded operation.

    q [..., tq, d], k and v [..., tk, d] share their leading shape and split
    into n_heads heads; mask broadcasts to the scores [..., heads, tq, tk]
    (True keeps). Returns the merged heads [..., tq, d]. Values, gradients
    and MACs equal, bit for bit, those of the chain of reshape, transpose,
    matmul, scale and masked_softmax operations it replaces.
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

    qh, kh, vh = split(q, tq), split(k, tk), split(v, tk)
    kt = kh.transpose(last)
    s = qh @ kt
    mac_counter.count += s.size * dk
    p = _softmax(s * scale, mask)
    o = p @ vh
    mac_counter.count += o.size * tk
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


@_op(3)
def layer_norm(rec, x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine.

    eps must be positive. A single row takes its mean, variance and scale
    as Python floats: IEEE doubles like numpy's, and math.sqrt rounds
    correctly like np.sqrt, so the bits are the same at fewer numpy calls.
    """
    d_last = x.shape[-1]
    if gain.shape != (d_last,) or bias.shape != (d_last,):
        raise DimensionError(
            f"gain/bias must have shape ({d_last},), got "
            f"{gain.shape} and {bias.shape}")
    # add.reduce / d is what np.mean computes, without its Python wrappers.
    if x.size == d_last:
        xc = x - float(np.add.reduce(x, None)) / d_last
        var = float(np.add.reduce(xc * xc, None)) / d_last
        inv = 1.0 / math.sqrt(var + eps)
    else:
        xc = x - np.add.reduce(x, -1, keepdims=True) / d_last
        var = np.add.reduce(xc * xc, -1, keepdims=True) / d_last
        inv = 1.0 / np.sqrt(var + eps)
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


@_op(1)
def tsum(rec, x):
    return (x.sum(), lambda d: np.full_like(x, float(d))) if rec else x.sum()


@_op(0)
def detach(rec, x):
    """Cut the tape: same values, no gradient history (x is no operand)."""
    return x.values if type(x) is Tensor else x
