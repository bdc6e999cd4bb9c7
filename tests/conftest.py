import math

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.tensor import Tensor
from waitkit.transformer import ModelConfig
from waitkit.waitk import ScheduleError


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
        t.zero_grad()
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
    f3 = T.reshape(inc.f, (n, 1, d))
    z3 = T.reshape(inc.z, (1, n, d))
    keep = np.tril(np.ones((n, n)))[:, :, None]
    return T.mul(T.add(f3, z3), Tensor(keep))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_cfg():
    return ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                       src_vocab=20, tgt_vocab=20, max_len=40, k=2)
