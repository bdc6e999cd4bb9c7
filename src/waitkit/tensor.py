"""Reverse-mode automatic differentiation over dense float64 arrays.

Eager tensor library: every operation computes its result immediately and,
when a Tape records (outside no_grad), appends its backward rule to it.
Replaying the tape in reverse adds each leaf's deltas into its .grad as
they come. A tape holds only what backward reads (see Tape).
Every operation is a body over arrays under one scaffold, _op, which alone
unwraps the operands, builds the Tensor and records; a body always returns
its value and its backward rule, and _op drops the rule uncalled when
nothing records. Matrix products also feed a global
multiply-accumulate counter so the benchmark harness can report
hardware-independent costs. Multi-head attention is one operation with one
tape entry, not a chain. The streamed decode does not come here: it runs
one row at a time on plain arrays (transformer.py), through the cores the
ops share, _product, _attend and _row_norm, which count MACs as the ops
do. _product multiplies a single row as w.dot(x), the BLAS call and bits of
x @ w.T without matmul's per-call dispatch.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
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


@contextlib.contextmanager
def _uncounted():
    """Products made inside leave mac_counter as they found it."""
    count = mac_counter.count
    try:
        yield
    finally:
        mac_counter.count = count


class Tensor:
    """Dense float64 array paired with a gradient buffer of the same shape.

    The gradient buffer is allocated on first read, as zeros; backward writes
    it only on leaves (tensors no recorded operation produced). Tensors
    created while no tape is active are plain values. A recorded tensor
    carries the serial key of its tape entry, None on any other.
    """

    __slots__ = ("values", "_grad", "requires_grad", "_key")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self._grad = None
        self.requires_grad = bool(requires_grad)
        self._key = None

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

    An entry is (key, refs, rule): the serial key of the output, one ref
    per operand and rule(d), the operands' deltas in order. A ref is the
    key of a recorded operand, the Tensor itself for a leaf that requires
    grad, or None. The entry holds no output and no operand but leaves, so
    a key is never id(): a freed tensor's id can be reused. A rule holds
    only the arrays it reads, so a recorded output that no rule reads is
    freed once its caller drops it.
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
        # A leaf's delta adds into its .grad as a rule returns it. An
        # intermediate's are summed by key until its own entry replays.
        if isinstance(ref := _ref(loss), Tensor):
            ref.grad += 1.0         # a leaf loss: no entry to replay
            return
        deltas = {ref: np.ones_like(loss.values)}
        for key, refs, rule in reversed(self._entries):
            d = deltas.pop(key, None)
            if d is None:
                continue
            for ref, dt in zip(refs, rule(d)):
                if isinstance(ref, Tensor):
                    ref.grad += dt
                elif ref is not None:
                    prev = deltas.get(ref)
                    deltas[ref] = dt if prev is None else prev + dt


class no_grad(_Context):
    """Disable recording; forward values are identical either way."""

    def __enter__(self):
        _TAPES.append(None)


_KEYS = itertools.count(1)


def _ref(x):
    """An operand's ref in a tape entry (see Tape)."""
    if x is None or not x.requires_grad:
        return None
    return x if x._key is None else x._key


def _record(tape, out, operands, rule):
    """Append out's entry, rule(d) giving the deltas of operands in order,
    and give out its key."""
    out._key = key = next(_KEYS)
    tape._entries.append((key, tuple(map(_ref, operands)), rule))
    return out


def _op(n):
    """Make an op of a body over arrays. The op's first n positional
    arguments are its operands, Tensors, arrays or None (a trailing one
    left out takes the body's default); with n = 0 the result never
    requires grad. The body takes the operands' arrays and the op's other
    arguments and returns (out, rule), rule(d) giving a tuple of the
    operands' deltas in order. The op returns a Tensor, and records the
    rule through _record only while a Tape records and some operand
    requires grad; otherwise the rule is dropped uncalled."""
    def wrap(body):
        def op(*args, **kw):
            xs = [None if x is None else as_tensor(x) for x in args[:n]]
            req = any(x is not None and x.requires_grad for x in xs)
            out, rule = body(*(None if x is None else x.values for x in xs),
                             *args[n:], **kw)
            if (tape := _TAPES[-1]) is None or not req:
                return Tensor(out, req)
            return _record(tape, Tensor(out, True), xs, rule)
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
    to its operand's shape. It keeps the shapes, not the operands."""
    sa, sb = a.shape, b.shape

    def rule(d):
        da, db = deltas(d)
        return _unbroadcast(da, sa), _unbroadcast(db, sb)
    return rule


@_op(2)
def add(a, b):
    return a + b, _broadcast_rule(a, b, lambda d: (d, d))


@_op(1)
def scale(x, c):
    c = float(c)
    return x * c, lambda d: (d * c,)


@_op(1)
def relu(x):
    """The rule reads its mask off the output, which the next op's rule
    holds anyway: out > 0 exactly where x > 0."""
    out = np.maximum(x, 0.0)
    return out, lambda d: (d * (out > 0.0),)


@_op(1)
def transpose_last(x):
    """Swap the two trailing axes."""
    if x.ndim < 2:
        raise DimensionError(f"transpose_last needs >= 2 dims, got shape {x.shape}")
    return np.swapaxes(x, -1, -2), lambda d: (np.swapaxes(d, -1, -2),)


@_op(1)
def tslice(x, key):
    """Basic slicing; the backward pass scatters into the sliced region."""
    shape = x.shape

    def rule(d):
        dx = np.zeros(shape)
        dx[key] += d
        return (dx,)
    return x[key], rule


@_op(1)
def gather_rows(x, indices, axis=0):
    """Select rows along an axis by integer index (duplicates allowed)."""
    idx = np.asarray(indices, dtype=np.intp)
    shape = x.shape

    def rule(d):
        dx = np.zeros(shape)
        np.add.at(np.moveaxis(dx, axis, 0), idx, np.moveaxis(d, axis, 0))
        return (dx,)
    return np.take(x, idx, axis=axis), rule


def _out_of_range(vocab):
    return IndexError(f"token id out of range for vocabulary of size {vocab}")


@_op(1)
def embedding(weight, ids):
    """Row lookup into an embedding matrix; backward is a scatter-add."""
    ids = np.asarray(ids, dtype=np.intp)
    vocab = weight.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise _out_of_range(vocab)

    def rule(d):
        dw = np.zeros_like(weight)
        np.add.at(dw, ids.reshape(-1), d.reshape(-1, weight.shape[1]))
        return (dw,)
    return weight[ids], rule


# ----------------------------------------------------------------------
# Matrix products


@_op(2)
def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul shapes {a.shape} and {b.shape} do not agree")
    out = a @ b
    mac_counter.count += out.size * a.shape[-1]

    def rule(d):
        da = d @ np.swapaxes(b, -1, -2)
        db = np.swapaxes(a, -1, -2) @ d
        return _unbroadcast(da, a.shape), _unbroadcast(db, b.shape)
    return out, rule


def _product(x, w, b=None):
    """x @ w.T (+ b) on arrays, its MACs counted: linear's forward.

    A single row x [in] is multiplied as w.dot(x): the same BLAS gemv, with
    the same bits, as x @ w.T, without the matmul gufunc's dispatch, which
    costs about as much as a 64-wide row's arithmetic."""
    out = w.dot(x) if x.ndim == 1 else x @ w.T
    mac_counter.count += out.size * x.shape[-1]
    return out if b is None else out + b


@_op(3)
def linear(x, weight, bias=None):
    """Affine map y = x W^T + b with weight laid out [out, in]."""
    if x.shape[-1] != weight.shape[-1]:
        raise DimensionError(
            f"linear input {x.shape} does not match weight {weight.shape}")

    def rule(d):
        d2 = d.reshape(-1, weight.shape[0])
        dx, dw = d @ weight, d2.T @ x.reshape(-1, weight.shape[1])
        return (dx, dw) if bias is None else (dx, dw, d2.sum(axis=0))
    return _product(x, weight, bias), rule


@functools.cache
def _cummean_matrix(n):
    return np.tril(np.ones((n, n))) / np.arange(1.0, n + 1.0)[:, None]


@_op(1)
def masked_cumulative_mean(x):
    """Row i of the result is the mean of rows 0..i of the input.

    Computed in one shot as a lower-triangular averaging matrix times the
    input, so the whole prefix-mean family costs a single matrix product.
    """
    if x.ndim < 2:
        raise DimensionError(f"need at least 2 dims, got shape {x.shape}")
    m = _cummean_matrix(x.shape[-2])
    out = m @ x
    mac_counter.count += out.size * m.shape[-1]
    return out, lambda d: (np.swapaxes(m, -1, -2) @ d,)


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
def attention(q, k, v, n_heads, scale, mask=None):
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

    def rule(dout):
        do = split(dout, tq)
        dp = do @ np.swapaxes(vh, -1, -2)
        dv = np.swapaxes(p, -1, -2) @ do
        ds = _softmax_grad(p, dp) * scale
        dq = ds @ np.swapaxes(kt, -1, -2)
        dkt = np.swapaxes(qh, -1, -2) @ ds
        return merge(dq, tq), merge(dkt.transpose(last), tk), merge(dv, tk)
    return merge(o, tq), rule


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
def layer_norm(x, gain, bias):
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
    return xhat * gain + bias, rule


@_op(1)
def cross_entropy(logits, targets, mask=None):
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

    def rule(d):
        p = np.exp(logits - lse)
        np.subtract.at(p, (*np.indices(ids.shape), ids), 1.0)
        return (p * (w[..., None] * (float(d) / count)),)
    return -(logp * w).sum() / count, rule


@_op(2)
def l2_distance_loss(a, b):
    """Mean over rows of the squared euclidean distance between a and b."""
    if a.shape != b.shape:
        raise DimensionError(
            f"l2_distance_loss shapes differ: {a.shape} vs {b.shape}"
        )
    if a.ndim < 2:
        raise DimensionError(f"need at least 2 dims, got shape {a.shape}")
    rows = a.size // a.shape[-1]
    diff = a - b

    def rule(d):
        g = diff * (2.0 * float(d) / rows)
        return g, -g
    return (diff * diff).sum() / rows, rule


@_op(0)
def detach(x):
    """Cut the tape: same values, no gradient history (x is no operand, so
    the rule has no delta to give and is never called)."""
    return (x.values if type(x) is Tensor else x), lambda d: ()
