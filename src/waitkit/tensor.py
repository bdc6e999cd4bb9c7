"""Reverse-mode automatic differentiation over dense float64 arrays.

Eager tensor library: every operation computes its result immediately and,
when a Tape is active, appends a backward rule to it. Replaying the tape in
reverse sums one delta per tensor and adds only the leaves' into .grad.
Matrix products also feed a global multiply-accumulate counter so the
benchmark harness can report hardware-independent costs.
"""

from __future__ import annotations

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
    "layer_norm",
    "cross_entropy",
    "l2_distance_loss",
    "tsum",
    "tmean",
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

_TAPES: list = []


def _tape():
    return _TAPES[-1] if _TAPES else None


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
    t = _tape()
    if t is None:
        raise GradientError("backward requires an active tape")
    t.backward(loss)


def _record(out, rule):
    t = _tape()
    if t is not None and out.requires_grad:
        t._entries.append((out, rule))


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


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.values + b.values, a.requires_grad or b.requires_grad)

    def rule(d):
        return (
            (a, _unbroadcast(d, a.values.shape)),
            (b, _unbroadcast(d, b.values.shape)),
        )

    _record(out, rule)
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.values - b.values, a.requires_grad or b.requires_grad)

    def rule(d):
        return (
            (a, _unbroadcast(d, a.values.shape)),
            (b, _unbroadcast(-d, b.values.shape)),
        )

    _record(out, rule)
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.values * b.values, a.requires_grad or b.requires_grad)

    def rule(d):
        return (
            (a, _unbroadcast(d * b.values, a.values.shape)),
            (b, _unbroadcast(d * a.values, b.values.shape)),
        )

    _record(out, rule)
    return out


def scale(x, c):
    x = as_tensor(x)
    c = float(c)
    out = Tensor(x.values * c, x.requires_grad)
    _record(out, lambda d: ((x, d * c),))
    return out


def relu(x):
    x = as_tensor(x)
    out = Tensor(np.maximum(x.values, 0.0), x.requires_grad)
    _record(out, lambda d: ((x, d * (x.values > 0.0)),))
    return out


def reshape(x, shape):
    x = as_tensor(x)
    out = Tensor(x.values.reshape(shape), x.requires_grad)
    _record(out, lambda d: ((x, d.reshape(x.values.shape)),))
    return out


def transpose(x, axes):
    x = as_tensor(x)
    axes = tuple(axes)
    out = Tensor(x.values.transpose(axes), x.requires_grad)
    inv = tuple(np.argsort(axes))
    _record(out, lambda d: ((x, d.transpose(inv)),))
    return out


def transpose_last(x):
    """Swap the two trailing axes."""
    x = as_tensor(x)
    nd = x.values.ndim
    if nd < 2:
        raise DimensionError(f"transpose_last needs >= 2 dims, got shape {x.shape}")
    axes = tuple(range(nd - 2)) + (nd - 1, nd - 2)
    return transpose(x, axes)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(
        np.concatenate([t.values for t in tensors], axis=axis),
        any(t.requires_grad for t in tensors),
    )
    sizes = [t.values.shape[axis] for t in tensors]

    def rule(d):
        grads = []
        start = 0
        for t, s in zip(tensors, sizes):
            idx = [slice(None)] * d.ndim
            idx[axis] = slice(start, start + s)
            grads.append((t, d[tuple(idx)]))
            start += s
        return grads

    _record(out, rule)
    return out


def tslice(x, key):
    """Basic slicing; the backward pass scatters into the sliced region."""
    x = as_tensor(x)
    out = Tensor(x.values[key], x.requires_grad)

    def rule(d):
        dx = np.zeros_like(x.values)
        dx[key] += d
        return ((x, dx),)

    _record(out, rule)
    return out


def gather_rows(x, indices, axis=0):
    """Select rows along an axis by integer index (duplicates allowed)."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(np.take(x.values, idx, axis=axis), x.requires_grad)

    def rule(d):
        dx = np.zeros_like(x.values)
        np.add.at(np.moveaxis(dx, axis, 0), idx, np.moveaxis(d, axis, 0))
        return ((x, dx),)

    _record(out, rule)
    return out


def embedding(weight, ids):
    """Row lookup into an embedding matrix; backward is a scatter-add."""
    weight = as_tensor(weight)
    ids = np.asarray(ids, dtype=np.intp)
    vocab = weight.values.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(
            f"token id out of range for vocabulary of size {vocab}"
        )
    out = Tensor(weight.values[ids], weight.requires_grad)

    def rule(d):
        dw = np.zeros_like(weight.values)
        np.add.at(dw, ids.reshape(-1), d.reshape(-1, weight.values.shape[1]))
        return ((weight, dw),)

    _record(out, rule)
    return out


# ----------------------------------------------------------------------
# Matrix products


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:
        raise DimensionError(
            f"matmul shapes {av.shape} and {bv.shape} do not agree"
        )
    out_v = av @ bv
    mac_counter.count += out_v.size * av.shape[-1]
    out = Tensor(out_v, a.requires_grad or b.requires_grad)

    def rule(d):
        da = d @ np.swapaxes(bv, -1, -2)
        db = np.swapaxes(av, -1, -2) @ d
        return (
            (a, _unbroadcast(da, av.shape)),
            (b, _unbroadcast(db, bv.shape)),
        )

    _record(out, rule)
    return out


def linear(x, weight, bias=None):
    """Affine map y = x W^T + b with weight laid out [out, in]."""
    x, weight = as_tensor(x), as_tensor(weight)
    xv, wv = x.values, weight.values
    if xv.shape[-1] != wv.shape[-1]:
        raise DimensionError(
            f"linear input {xv.shape} does not match weight {wv.shape}"
        )
    out_v = xv @ wv.T
    mac_counter.count += out_v.size * xv.shape[-1]
    if bias is not None:
        bias = as_tensor(bias)
        out_v = out_v + bias.values
    req = x.requires_grad or weight.requires_grad or (
        bias is not None and bias.requires_grad
    )
    out = Tensor(out_v, req)

    def rule(d):
        n_out = wv.shape[0]
        n_in = wv.shape[1]
        dx = d @ wv
        dw = d.reshape(-1, n_out).T @ xv.reshape(-1, n_in)
        grads = [(x, dx), (weight, dw)]
        if bias is not None:
            grads.append((bias, d.reshape(-1, n_out).sum(axis=0)))
        return grads

    _record(out, rule)
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
    x = as_tensor(x)
    if x.values.ndim < 2:
        raise DimensionError(f"need at least 2 dims, got shape {x.shape}")
    n = x.values.shape[-2]
    return matmul(Tensor(_cummean_matrix(n)), x)


# ----------------------------------------------------------------------
# Normalization and losses


def masked_softmax(scores, mask=None):
    """Softmax over the last axis restricted to unmasked positions.

    mask is a boolean array broadcastable to scores (True keeps an entry).
    Masked entries come out exactly 0.0; a fully masked row is all zeros.
    """
    scores = as_tensor(scores)
    x = scores.values
    if mask is None:
        m = x.max(axis=-1, keepdims=True)
        e = np.exp(x - m)
        s = e.sum(axis=-1, keepdims=True)
        p = e / s
    else:
        keep = np.asarray(mask, dtype=bool)
        try:
            if np.broadcast_shapes(keep.shape, x.shape) != x.shape:
                raise ValueError
        except ValueError:
            raise DimensionError(
                f"mask shape {keep.shape} does not broadcast to scores {x.shape}"
            ) from None
        keep = np.broadcast_to(keep, x.shape)
        neg = np.where(keep, x, -np.inf)
        m = neg.max(axis=-1, keepdims=True)
        safe_m = np.where(np.isfinite(m), m, 0.0)
        e = np.where(keep, np.exp(x - safe_m), 0.0)
        s = e.sum(axis=-1, keepdims=True)
        p = np.divide(e, s, out=np.zeros_like(e), where=s > 0.0)
    out = Tensor(p, scores.requires_grad)

    def rule(d):
        inner = (d * p).sum(axis=-1, keepdims=True)
        return ((scores, p * (d - inner)),)

    _record(out, rule)
    return out


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d_last = x.values.shape[-1]
    if gain.values.shape != (d_last,) or bias.values.shape != (d_last,):
        raise DimensionError(
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
        return ((x, dx), (gain, dgain), (bias, dbias))

    _record(out, rule)
    return out


def cross_entropy(logits, targets, mask=None):
    """Mean negative log-likelihood of targets under softmax(logits).

    targets holds integer ids with the same leading shape as logits; mask
    (same shape as targets, 1.0 for real positions) drops padding from the
    mean.
    """
    logits = as_tensor(logits)
    x = logits.values
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
    out = Tensor(-(logp * w).sum() / count, logits.requires_grad)

    def rule(d):
        p = np.exp(x - lse)
        np.subtract.at(p, (*np.indices(ids.shape), ids), 1.0)
        return ((logits, p * (w[..., None] * (float(d) / count))),)

    _record(out, rule)
    return out


def l2_distance_loss(a, b):
    """Mean over rows of the squared euclidean distance between a and b."""
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        raise DimensionError(
            f"l2_distance_loss shapes differ: {a.values.shape} vs {b.values.shape}"
        )
    if a.values.ndim < 2:
        raise DimensionError(f"need at least 2 dims, got shape {a.values.shape}")
    rows = a.values.size // a.values.shape[-1]
    diff = a.values - b.values
    out = Tensor((diff * diff).sum() / rows, a.requires_grad or b.requires_grad)

    def rule(d):
        g = diff * (2.0 * float(d) / rows)
        return ((a, g), (b, -g))

    _record(out, rule)
    return out


def tsum(x):
    x = as_tensor(x)
    out = Tensor(x.values.sum(), x.requires_grad)
    _record(out, lambda d: ((x, np.full_like(x.values, float(d))),))
    return out


def tmean(x):
    x = as_tensor(x)
    size = x.values.size
    out = Tensor(x.values.mean(), x.requires_grad)
    _record(out, lambda d: ((x, np.full_like(x.values, float(d) / size)),))
    return out


def detach(x):
    """Cut the tape: same values, no gradient history."""
    return as_tensor(x).detach()
