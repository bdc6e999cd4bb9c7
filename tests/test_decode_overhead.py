"""The per-emission overhead cuts of the cached decode against copies of the
code they replace (conftest): the unmasked softmax for masks that keep every
entry, layer_norm without np.mean, LayerNorm's one-row path and the
write-in-place, inference-only KVCache. Also the op scaffold's contract:
every body returns its value and its rule, and _op alone records the rule
while a Tape records, or drops it uncalled."""

import ast
import pathlib

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.tensor import Tensor
from waitkit.training import (Adam, SyntheticTaskSpec, TrainConfig,
                              generate_synthetic, train_step)
from waitkit.transformer import (IncrementalModel, KVCache, LayerNorm,
                                 ModelConfig, TeacherModel)

import conftest
from conftest import (REFERENCE_OPS, concat, masked_softmax, mul,
                      reference_layer_norm, reference_softmax, reshape, sub,
                      transpose, tsum)

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
        got = masked_softmax(Tensor(x), mask).values
        assert np.array_equal(got, reference_softmax(x, mask))


def test_mask_shape_still_checked():
    x = np.zeros((2, 3, 4))
    for shape in [(4, 3), (3, 3), (2, 2, 3, 4), (5,)]:
        for mask in (np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)):
            with pytest.raises(T.DimensionError):
                masked_softmax(Tensor(x), mask)


def test_all_true_mask_on_all_minus_inf_row_gives_nan():
    """The one behaviour change: a row of all -inf scores under a mask that
    keeps every entry comes out nan, as with no mask, instead of zeros. A
    mask that drops some entry still gives such a row zeros."""
    x = np.array([[-np.inf] * 3, [0.0, 1.0, 2.0]])
    keep = np.ones((2, 3), dtype=bool)
    with np.errstate(invalid="ignore"):
        got = masked_softmax(Tensor(x), keep).values
        unmasked = masked_softmax(Tensor(x)).values
        old = reference_softmax(x, keep)
        partial = masked_softmax(Tensor(x), [[True] * 3, [True, True, False]])
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
        tape.backward(tsum(mul(out, Tensor(w))))
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
    """A single row gives the same output and gradients, bit for bit, as the
    array path of the reference, nan and inf included; so does the output
    of LayerNorm's streamed row branch, which takes the Python-float
    statistics of tensor._row_norm."""
    rng = np.random.default_rng(d)
    norm = LayerNorm(d)
    for row in one_rows(rng, d):
        values = row.reshape(*lead, d)
        w = rng.normal(size=values.shape)
        gain_v, bias_v = rng.normal(size=d), rng.normal(size=d)
        norm.gain.values, norm.bias.values = gain_v, bias_v
        with np.errstate(all="ignore"):
            got = layer_norm_results(T.layer_norm, values, w, gain_v, bias_v)
            want = layer_norm_results(reference_layer_norm, values, w,
                                      gain_v, bias_v)
            streamed = norm(row)
        for g, r in zip(got, want):
            assert g.shape == r.shape
            assert np.array_equal(g, r, equal_nan=True)
        assert np.array_equal(streamed, want[0].reshape(d), equal_nan=True)


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
        ("sub", lambda: sub(b, b)),
        ("mul", lambda: mul(a, b)),
        ("scale", lambda: T.scale(a, 0.5)),
        ("matmul", lambda: T.matmul(a, m)),
        ("linear", lambda: T.linear(a, w, p(5))),
        ("linear_nobias", lambda: T.linear(b, c(5, 4))),
        ("linear_nobias_grad", lambda: T.linear(a, w)),
        ("relu", lambda: T.relu(a)),
        ("reshape", lambda: reshape(a, (6, 4))),
        ("transpose", lambda: transpose(a, (2, 0, 1))),
        ("transpose_last", lambda: T.transpose_last(b)),
        ("concat", lambda: concat(a, b, axis=1)),
        ("tslice", lambda: T.tslice(a, (slice(None), 1))),
        ("gather_rows", lambda: T.gather_rows(a, [2, 0, 2], axis=1)),
        ("embedding", lambda: T.embedding(m, [[1, 3], [0, 0]])),
        ("masked_cumulative_mean", lambda: T.masked_cumulative_mean(a)),
        ("masked_softmax", lambda: masked_softmax(a)),
        ("attention", lambda: T.attention(q, k, k, 2, 0.5, mask)),
        ("layer_norm", lambda: T.layer_norm(a, p(4), c(4))),
        ("layer_norm_row", lambda: T.layer_norm(c(1, 4), p(4), p(4))),
        ("cross_entropy", lambda: T.cross_entropy(a, [[0, 1, 2]] * 2)),
        ("l2_distance_loss", lambda: T.l2_distance_loss(a, b)),
        ("tsum", lambda: tsum(b)),
        ("detach", lambda: T.detach(a)),
    ]


PUBLIC_OPS = [name for name in T.__all__ if name[0].islower() and name not in
              ("no_grad", "mac_counter", "as_tensor")]


def code_names(code):
    """The global and attribute names a code object and its nested
    functions use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= code_names(const)
    return names


def body_cell(op):
    """The closure cell of the scaffold's op that holds its body."""
    return op.__closure__[op.__code__.co_freevars.index("body")]


def test_every_op_is_built_by_the_scaffold():
    """Every op in tensor.__all__, and every reference op in conftest, is a
    body under the one scaffold, T._op: the op runs the scaffold's code and
    wraps its body, and no body reads the recording context, records or
    builds a Tensor itself (detach may test for one). No body takes a flag:
    over op_cases, each is handed no bool, and the same kinds of arguments
    under a Tape as under no_grad, and returns (out, rule) under both.
    op_cases covers every op."""
    built = {T._op(n)(lambda: None).__code__ for n in (0, 1, 2, 3)}
    ops = {name: getattr(T, name) for name in PUBLIC_OPS}
    ops.update((name, getattr(conftest, name)) for name in REFERENCE_OPS)
    for name, op in ops.items():
        assert op.__code__ in built, name
        body = op.__wrapped__
        assert body_cell(op).cell_contents is body, name
        assert not code_names(body.__code__) & {"_TAPES", "_ARRAYS",
                                                "_record", "as_tensor"}, name
        assert name == "detach" or "Tensor" not in code_names(
            body.__code__), name

    def spy(body, log):
        def call(*args, **kw):
            _, rule = result = body(*args, **kw)
            assert callable(rule)
            log.append((*map(type, args), *sorted(kw)))
            return result
        return call

    cases = op_cases(np.random.default_rng(0))
    calls = {}
    for context in (T.Tape, T.no_grad):
        logs = calls[context] = {name: [] for name in ops}
        try:
            for name, op in ops.items():
                body_cell(op).cell_contents = spy(op.__wrapped__, logs[name])
            for _, thunk in cases:
                with context():
                    thunk()
        finally:
            for op in ops.values():
                body_cell(op).cell_contents = op.__wrapped__
    for name in ops:
        recorded = calls[T.Tape][name]
        assert recorded and recorded == calls[T.no_grad][name], name
        assert not {bool, np.bool_} & set(sum(recorded, ())), name
    assert set(ops) <= {name for name, _ in cases}


def test_recorded_rules_give_one_delta_per_operand():
    """Every op that op_cases records appends one entry whose rule returns a
    tuple of one delta per ref, a leaf's delta in the leaf's shape."""
    for name, op in op_cases(np.random.default_rng(0)):
        with T.Tape() as tape:
            out = op()
        if not out.requires_grad:
            assert len(tape) == 0, name
            continue
        (key, refs, rule), = tape._entries
        assert key == out._key, name
        deltas = rule(np.ones_like(out.values))
        assert type(deltas) is tuple and len(deltas) == len(refs), name
        for ref, delta in zip(refs, deltas):
            if isinstance(ref, Tensor):
                assert np.shape(delta) == ref.shape, name


def closure_arrays(fn):
    """The arrays a function's closure holds, through nested functions."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value) and hasattr(value, "__closure__"):
            found += closure_arrays(value)
    return found


def test_relu_rule_holds_only_the_output():
    """relu's recorded rule reads its mask off the op's output, which the
    next linear's rule holds anyway, and keeps no array of its own."""
    x = Tensor(np.random.default_rng(3).normal(size=(4, 6)),
               requires_grad=True)
    with T.Tape() as tape:
        out = T.relu(x)
    (_, _, rule), = tape._entries
    held = closure_arrays(rule)
    assert held and all(a is out.values for a in held)
    d = np.arange(24.0).reshape(4, 6)
    assert np.array_equal(rule(d)[0], d * (x.values > 0.0))


def package_calls():
    """Names of tensor's functions that the package's other modules call,
    as an attribute of the tensor module or by a name imported from it."""
    called = set()
    for path in pathlib.Path(T.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules, names = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name == "tensor":
                        modules.add(alias.asname or alias.name)
                    elif node.module == "tensor":
                        names[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id in modules):
                called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in names:
                called.add(names[f.id])
    return called


def test_every_op_is_called_by_the_package():
    """No op in tensor.__all__ serves the tests alone: a package module
    other than tensor.py calls each one. Reference ops that only tests
    use live in conftest."""
    assert sorted(set(PUBLIC_OPS) - package_calls()) == []


def test_tensor_alone_counts_macs_and_attends():
    """Matrix-product MACs and attention scores have one implementation,
    in tensor.py: the streamed row branches of transformer.py call
    tensor._product and tensor._attend, so transformer.py names neither
    the counter nor the softmax, and no module but tensor.py adds to the
    counter."""
    for path in pathlib.Path(T.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)} | {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
        if path.name == "transformer.py":
            assert not names & {"mac_counter", "_softmax"}
        if path.name != "tensor.py":
            assert not [node for node in ast.walk(tree)
                        if isinstance(node, ast.AugAssign)
                        and "mac_counter" in ast.unparse(node.target)], \
                path.name


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


def test_train_step_records_155_tape_entries(monkeypatch):
    """Dropping the rule uncalled when nothing records leaves the recording
    path alone: a joint train_step at the train_joint shape records 155
    ops."""
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


@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_kv_cache_returns_concatenation_of_appends(lead, rows):
    """k[:c] and v[:c] are the c rows appended so far, in order, whether
    one or several are appended between reads of the cache; later appends
    write past them.

    lead is the leading shape of the array a key and its value are views
    of: () for rows of their own, (2,) for the two halves of one [2, d]
    scratch array, as the stacked [Wk;Wv] product hands them over. The
    scratch is overwritten after each append, so the cache must keep
    copies."""
    rng = np.random.default_rng(rows)
    capacity, d = 10, 4
    cache = KVCache(capacity, d, np.zeros((2 * d, d)), np.zeros(2 * d))
    keys, values = rng.normal(size=(2, capacity, d))
    scratch = np.empty((*lead, d))
    held = []
    while len(cache) < capacity:
        c = len(cache)
        for i in range(c, min(c + rows, capacity)):
            if lead:
                scratch[0], scratch[1] = keys[i], values[i]
                cache.append(scratch[0], scratch[1])
                scratch[:] = np.nan
            else:
                cache.append(keys[i], values[i])
        c = len(cache)
        held.append((c, cache.k[:c].copy(), cache.v[:c].copy()))
        assert np.array_equal(cache.k[:c], keys[:c])
        assert np.array_equal(cache.v[:c], values[:c])
    for c, k, v in held:
        assert np.array_equal(cache.k[:c], k)
        assert np.array_equal(cache.v[:c], v)


def test_cached_decode_refuses_a_recording_tape():
    """The cache is not on the tape, so a decode_step recorded for backward
    would give wk/wv no gradient for the rows cached earlier: it raises."""
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=24,
                      src_vocab=20, tgt_vocab=20, max_len=32, k=2)
    model = IncrementalModel(cfg, seed=1)
    src = [4, 9, 7]
    stream, fresh = model.start_stream(), model.start_stream()
    with T.no_grad():
        for st in (stream, fresh):
            st.push(src[0])
            st.push(src[1])
            model.decode_step([1], st)
            st.push(src[2])
    with T.Tape():
        with pytest.raises(T.GradientError):
            model.decode_step([1, 6], stream)
    with T.no_grad():
        got = model.decode_step([1, 6], stream).values
        want = model.decode_step([1, 6], fresh).values
    assert np.array_equal(got, want)
