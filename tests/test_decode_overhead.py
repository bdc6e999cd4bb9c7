"""The per-emission overhead cuts of the cached decode against copies of the
code they replace (conftest): the unmasked softmax for masks that keep every
entry, layer_norm without np.mean and its one-row path, the write-in-place,
inference-only KVCache, ops that build no backward rule when nothing
records, and ops that build no Tensor in array mode."""

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.tensor import Tensor
from waitkit.training import (Adam, SyntheticTaskSpec, TrainConfig,
                              generate_synthetic, train_step)
from waitkit.transformer import (IncrementalModel, KVCache, ModelConfig,
                                 TeacherModel)

from conftest import reference_layer_norm, reference_softmax

MASK_KINDS = ("none", "all_true", "broadcast", "mixed", "fully_masked_rows")


def random_scores(rng, kind):
    """Scores [*lead, tq, tk] with 0-2 leading dims and a mask of the given
    kind that broadcasts to them."""
    lead = tuple(int(s) for s in rng.integers(1, 4, size=rng.integers(0, 3)))
    tq, tk = (int(s) for s in rng.integers(1, 7, size=2))
    x = rng.normal(scale=3.0, size=(*lead, tq, tk))
    if kind == "none":
        return x, None
    if kind == "all_true":
        shape = [(tq, tk), (1, tk), (tq, 1), x.shape][rng.integers(0, 4)]
        return x, np.ones(shape, dtype=bool)
    if kind == "mixed":
        return x, rng.random(x.shape) < 0.5
    mask = rng.random((tq, tk)) < 0.6                 # broadcast 2-D mask
    mask[:, 0] = True
    if kind == "fully_masked_rows":
        mask[rng.integers(0, tq)] = False
    return x, mask


@pytest.mark.parametrize("kind", MASK_KINDS)
def test_softmax_equals_reference(kind):
    rng = np.random.default_rng(MASK_KINDS.index(kind))
    for _ in range(40):
        x, mask = random_scores(rng, kind)
        got = T.masked_softmax(Tensor(x), mask).values
        assert np.array_equal(got, reference_softmax(x, mask))


def test_mask_shape_still_checked():
    x = np.zeros((2, 3, 4))
    for shape in [(4, 3), (3, 3), (2, 2, 3, 4), (5,)]:
        for mask in (np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)):
            with pytest.raises(T.DimensionError):
                T.masked_softmax(Tensor(x), mask)


def test_all_true_mask_on_all_minus_inf_row_gives_nan():
    """The one behaviour change: a row of all -inf scores under a mask that
    keeps every entry comes out nan, as with no mask, instead of zeros. A
    mask that drops some entry still gives such a row zeros."""
    x = np.array([[-np.inf] * 3, [0.0, 1.0, 2.0]])
    keep = np.ones((2, 3), dtype=bool)
    with np.errstate(invalid="ignore"):
        got = T.masked_softmax(Tensor(x), keep).values
        unmasked = T.masked_softmax(Tensor(x)).values
        old = reference_softmax(x, keep)
        partial = T.masked_softmax(Tensor(x), [[True] * 3, [True, True, False]])
    assert np.isnan(got[0]).all()
    assert np.array_equal(got, unmasked, equal_nan=True)
    assert np.array_equal(old[0], np.zeros(3))
    assert np.array_equal(got[1], old[1])
    assert np.array_equal(partial.values[0], np.zeros(3))


def layer_norm_results(layer_norm, values, w, gain_v, bias_v):
    """Output and x/gain/bias gradients of sum(w * layer_norm(x))."""
    x = Tensor(values, requires_grad=True)
    gain = Tensor(gain_v, requires_grad=True)
    bias = Tensor(bias_v, requires_grad=True)
    with T.Tape() as tape:
        out = layer_norm(x, gain, bias)
        tape.backward(T.tsum(T.mul(out, Tensor(w))))
    return out.values, x.grad, gain.grad, bias.grad


@pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
def test_layer_norm_equals_reference(lead):
    rng = np.random.default_rng(len(lead))
    for _ in range(20):
        d = int(rng.integers(1, 9))
        values = rng.normal(scale=rng.uniform(0.1, 5.0), size=(*lead, d))
        w = rng.normal(size=(*lead, d))
        gain_v, bias_v = rng.normal(size=d), rng.normal(size=d)
        got = layer_norm_results(T.layer_norm, values, w, gain_v, bias_v)
        want = layer_norm_results(reference_layer_norm, values, w, gain_v,
                                  bias_v)
        for g, r in zip(got, want):
            assert np.array_equal(g, r)


def one_rows(rng, d):
    """Rows of d entries: random at scales 1e-150 .. 1e150, constant, and
    holding nan or inf."""
    for scale in 10.0 ** np.arange(-150, 151, 15):
        yield rng.normal(scale=scale, size=d) + scale * rng.normal()
    yield np.full(d, 3.25)
    yield np.zeros(d)
    for bad in (np.nan, np.inf, -np.inf):
        row = rng.normal(size=d)
        row[rng.integers(0, d)] = bad
        yield row


@pytest.mark.parametrize("lead", [(), (1,), (1, 1)])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 32, 64])
def test_one_row_layer_norm_equals_reference(lead, d):
    """A single row takes the Python-float statistics: the same output and
    gradients, bit for bit, as the array path of the reference, nan and inf
    included."""
    rng = np.random.default_rng(d)
    for row in one_rows(rng, d):
        values = row.reshape(*lead, d)
        w = rng.normal(size=values.shape)
        gain_v, bias_v = rng.normal(size=d), rng.normal(size=d)
        with np.errstate(all="ignore"):
            got = layer_norm_results(T.layer_norm, values, w, gain_v, bias_v)
            want = layer_norm_results(reference_layer_norm, values, w,
                                      gain_v, bias_v)
        for g, r in zip(got, want):
            assert g.shape == r.shape
            assert np.array_equal(g, r, equal_nan=True)


def op_cases(rng):
    """(name, thunk) for every op; the thunks mix inputs that need grad
    with inputs that do not."""
    def p(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def c(*shape):
        return Tensor(rng.normal(size=shape))

    a, b, m, w = p(2, 3, 4), c(2, 3, 4), p(4, 5), p(5, 4)
    q, k = p(2, 3, 4), p(2, 5, 4)
    mask = rng.random((3, 5)) < 0.7
    mask[:, 0] = True
    return [
        ("add", lambda: T.add(a, b)),
        ("sub", lambda: T.sub(b, b)),
        ("mul", lambda: T.mul(a, b)),
        ("scale", lambda: T.scale(a, 0.5)),
        ("matmul", lambda: T.matmul(a, m)),
        ("linear", lambda: T.linear(a, w, p(5))),
        ("linear_nobias", lambda: T.linear(b, c(5, 4))),
        ("linear_nobias_grad", lambda: T.linear(a, w)),
        ("relu", lambda: T.relu(a)),
        ("reshape", lambda: T.reshape(a, (6, 4))),
        ("transpose", lambda: T.transpose(a, (2, 0, 1))),
        ("transpose_last", lambda: T.transpose_last(b)),
        ("concat", lambda: T.concat([a, b], axis=1)),
        ("tslice", lambda: T.tslice(a, (slice(None), 1))),
        ("gather_rows", lambda: T.gather_rows(a, [2, 0, 2], axis=1)),
        ("embedding", lambda: T.embedding(m, [[1, 3], [0, 0]])),
        ("masked_cumulative_mean", lambda: T.masked_cumulative_mean(a)),
        ("masked_softmax", lambda: T.masked_softmax(a)),
        ("attention", lambda: T.attention(q, k, k, 2, 0.5, mask)),
        ("layer_norm", lambda: T.layer_norm(a, p(4), c(4))),
        ("layer_norm_row", lambda: T.layer_norm(c(1, 4), p(4), p(4))),
        ("cross_entropy", lambda: T.cross_entropy(a, [[0, 1, 2]] * 2)),
        ("l2_distance_loss", lambda: T.l2_distance_loss(a, b)),
        ("tsum", lambda: T.tsum(b)),
        ("detach", lambda: T.detach(a)),
    ]


PUBLIC_OPS = [name for name in T.__all__ if name[0].islower() and name not in
              ("no_grad", "backward", "mac_counter", "as_tensor")]


def code_names(code):
    """The global and attribute names a code object and its nested
    functions use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= code_names(const)
    return names


def test_every_op_is_built_by_the_scaffold():
    """Every op in tensor.__all__ is a body under the one scaffold, T._op:
    the op runs the scaffold's code and wraps its body, and no body reads
    the recording context, records or builds a Tensor itself (detach may
    test for one). op_cases covers every op."""
    built = {T._op(n)(lambda rec: None).__code__ for n in (-1, 0, 1, 2, 3)}
    for name in PUBLIC_OPS:
        op = getattr(T, name)
        assert op.__code__ in built, name
        body = op.__wrapped__
        assert body.__code__.co_varnames[0] == "rec", name
        assert not code_names(body.__code__) & {"_TAPES", "_ARRAYS",
                                                "_record", "as_tensor"}, name
        assert name == "detach" or "Tensor" not in code_names(
            body.__code__), name
    covered = {name for name, _ in op_cases(np.random.default_rng(0))}
    assert set(PUBLIC_OPS) <= covered


def test_ops_under_no_grad_match_recorded_ops():
    """Under no_grad an op records nothing, yet returns the values and the
    requires_grad it returns under a Tape."""
    rng = np.random.default_rng(0)
    for name, op in op_cases(rng):
        state = rng.bit_generator.state
        with T.Tape() as tape:
            recorded = op()
        rng.bit_generator.state = state
        with T.Tape() as outer, T.no_grad():
            plain = op()
        assert np.array_equal(plain.values, recorded.values), name
        assert plain.requires_grad == recorded.requires_grad, name
        assert len(tape) == int(recorded.requires_grad), name
        assert len(outer) == 0, name


def test_ops_in_array_mode_return_the_recorded_values():
    """In array mode an op returns the array it computes, bit for bit the
    values it returns in a Tensor under a Tape, and records nothing; no_grad
    inside it gives Tensors back, and backward has no tape to run."""
    rng = np.random.default_rng(0)
    for name, op in op_cases(rng):
        state = rng.bit_generator.state
        with T.Tape():
            recorded = op()
        rng.bit_generator.state = state
        with T.Tape() as outer, T._ARRAYS:
            plain = op()
        assert isinstance(plain, (np.ndarray, np.floating)), name
        assert np.array_equal(plain, recorded.values), name
        assert len(outer) == 0, name
    with T._ARRAYS:
        with T.no_grad():
            assert isinstance(T.add(np.ones(2), np.ones(2)), Tensor)
        with pytest.raises(T.GradientError):
            T.backward(Tensor(1.0))


def test_train_step_records_155_tape_entries(monkeypatch):
    """Skipping the rule when nothing records leaves the recording path
    alone: a joint train_step at the train_joint shape records 155 ops."""
    cfg = ModelConfig(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                      src_vocab=32, tgt_vocab=32, k=3)
    teacher, student = TeacherModel(cfg, 0), IncrementalModel(cfg, 1)
    batch = generate_synthetic(SyntheticTaskSpec(
        kind="copy", vocab_size=32, min_len=5, max_len=5, seed=1), 16)
    lengths = []
    backward = T.Tape.backward

    def counting(tape, loss):
        lengths.append(len(tape))
        return backward(tape, loss)

    monkeypatch.setattr(T.Tape, "backward", counting)
    optimizer = Adam(teacher.parameters() + student.parameters())
    train_step(teacher, student, batch, optimizer, TrainConfig(k=3))
    assert lengths == [155]


@pytest.mark.parametrize("lead", [(1,), (2,)])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_kv_cache_returns_concatenation_of_appends(lead, rows):
    rng = np.random.default_rng(rows)
    capacity, d = 10, 4
    cache = KVCache((*lead, capacity, d))
    keys, values, returned = [], [], []
    while len(cache) < capacity:
        m = min(rows, capacity - len(cache))
        keys.append(rng.normal(size=(*lead, m, d)))
        values.append(rng.normal(size=(*lead, m, d)))
        with T.no_grad():
            k, v = cache.append(Tensor(keys[-1]), Tensor(values[-1]))
        returned.append((k, v))
        assert len(cache) == sum(x.shape[-2] for x in keys)
        assert np.array_equal(k, np.concatenate(keys, axis=-2))
        assert np.array_equal(v, np.concatenate(values, axis=-2))
    # Later appends write past the rows an earlier call was handed.
    for i, (k, v) in enumerate(returned):
        assert np.array_equal(k, np.concatenate(keys[:i + 1], axis=-2))
        assert np.array_equal(v, np.concatenate(values[:i + 1], axis=-2))


def test_cached_decode_refuses_a_recording_tape():
    """The cache is not on the tape, so a decode_step recorded for backward
    would give wk/wv no gradient for the rows cached earlier: it raises."""
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=24,
                      src_vocab=20, tgt_vocab=20, max_len=32, k=2)
    model = IncrementalModel(cfg, seed=1)
    src = [4, 9, 7, 12, 5]
    states = model.incremental_states(src)
    with T.Tape():
        with pytest.raises(T.GradientError):
            model.decode_step([1, 6], states, 3)
    with T.no_grad():
        got = model.decode_step([1, 6], states, 3).values
        want = model.decode_step([1, 6], model.incremental_states(src),
                                 3).values
    assert np.array_equal(got, want)
