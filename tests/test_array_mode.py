"""The streamed decode, one plain row [d] at a time through the modules'
row branches, against the Tensor-op code it replaces (ReferenceStream and
reference_decode_step in conftest): the same logits, states and tokens bit
for bit, the stacked single-row projections equal to the separate products,
a source row's cross-attention keys and values the same at every k, and
decode_step's refusal of calls that do not add one row to a stream of
its model that has read, and its input errors."""

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit import transformer
from waitkit.errors import LengthError, ScheduleError
from waitkit.transformer import (IncrementalModel, ModelConfig,
                                 MultiHeadAttention, _stacks_exactly)
from waitkit.waitk import streaming_decode

from conftest import ReferenceStream, reference_decode_step


def random_model(rng, seed):
    """An IncrementalModel of 1-3 layers, 1-4 heads and a width of 4-64,
    odd widths included, with a wait k of 1-5 and a source of 1-19
    tokens."""
    heads = int(rng.integers(1, 5))
    widths = [d for d in range(4, 65) if d % heads == 0]
    cfg = ModelConfig(n_layers=int(rng.integers(1, 4)),
                      d_model=int(rng.choice(widths)), n_heads=heads,
                      d_ff=int(rng.integers(4, 65)), src_vocab=20,
                      tgt_vocab=20, max_len=48, k=int(rng.integers(1, 6)))
    src = rng.integers(4, 20, size=int(rng.integers(1, 20))).tolist()
    return IncrementalModel(cfg, seed=seed), src


@pytest.mark.parametrize("block", range(4))
def test_streamed_and_reused_logits_equal_reference(block):
    """Over 60 random models (15 per block): every pushed state row and
    every streamed logit row, each over the rows the stream reuses, bit for
    bit."""
    rng = np.random.default_rng(100 + block)
    for trial in range(15):
        model, src = random_model(rng, 15 * block + trial)
        k, n = model.cfg.k, len(src)
        stream, ref_stream = model.start_stream(), ReferenceStream(model)
        prefix = [1]
        for s in range(1, min(2 * n + 5, 48) + 1):
            while stream.count < min(k + s - 1, n):
                token = src[stream.count]
                assert np.array_equal(stream.push(token),
                                      ref_stream.push(token))
            got = model.decode_step(prefix, stream)
            want = reference_decode_step(model, prefix, ref_stream)
            assert np.array_equal(got.values, want.values)
            prefix.append(int(np.argmax(got.values)))


def test_streamed_tokens_equal_reference(monkeypatch):
    rng = np.random.default_rng(7)
    for trial in range(20):
        model, src = random_model(rng, trial)
        got = streaming_decode(model, src, model.cfg.k, eos_id=-1)
        with monkeypatch.context() as patch:
            patch.setattr(IncrementalModel, "start_stream",
                          lambda self: ReferenceStream(self))
            patch.setattr(IncrementalModel, "decode_step",
                          reference_decode_step)
            want = streaming_decode(model, src, model.cfg.k, eos_id=-1)
        assert got[0] == want[0]
        assert got[1].g_values == want[1].g_values


def test_stacking_probe_is_sound():
    """Wherever the probe allows a stack, one row [d] times the stacked
    weights equals the separate products for random rows and weights. A
    width of 1 is one product per output, exact on any BLAS."""
    rng = np.random.default_rng(3)
    assert _stacks_exactly(1, 3) and _stacks_exactly(1, 2)
    for d in range(1, 70):
        for blocks in (2, 3):
            if not _stacks_exactly(d, blocks):
                continue
            for _ in range(20):
                x = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3, d)
                w = rng.normal(size=(blocks * d, d))
                stacked = x @ w.T
                for i in range(blocks):
                    assert np.array_equal(stacked[i * d:(i + 1) * d],
                                          x @ w[i * d:(i + 1) * d].T)


@pytest.mark.parametrize("d", [4, 8, 12, 16, 32, 64])
def test_stacked_projection_equals_separate_linears(d, monkeypatch):
    """KVCache.project of a memory row, on a cache with stacked projections
    and on one forced to a product per block, returns the separate wq's
    query (an empty row in cross-attention) and caches the separate wk and
    wv rows; a streamed attention row returns the same through either
    cache, in self-attention and in cross-attention over memory rows that
    arrive none, one or two at a time."""
    rng = np.random.default_rng(d)
    cfg = ModelConfig(n_layers=1, d_model=d, n_heads=2, d_ff=8, max_len=12)
    attn = MultiHeadAttention(rng, cfg)
    for p in attn.parameters():
        p.values += rng.normal(size=p.shape) * 0.1       # non-zero biases

    def caches(stack):
        """Empty self- and cross-attention caches, by flag; per-block
        products unless stack."""
        with monkeypatch.context() as patch:
            if not stack:
                patch.setattr(transformer, "_stacks_exactly",
                              lambda d, blocks: False)
            return {flag: attn.kv_cache(12, flag) for flag in (True, False)}

    for stack in (True, False):
        for flag, cache in caches(stack).items():
            x = rng.normal(size=d)
            q = cache.project(x)
            assert np.array_equal(q, attn.wq(x) if flag else np.empty(0))
            assert np.array_equal(cache.k[0], attn.wk(x))
            assert np.array_equal(cache.v[0], attn.wv(x))
    stacked, blocked = caches(True), caches(False)
    memory, seen, queries = rng.normal(size=(12, d)), 0, []
    for _ in range(12):
        h = rng.normal(size=d)
        new = min(12, seen + int(rng.integers(0 if seen else 1, 3)))
        for held in (stacked, blocked):
            for x in memory[seen:new]:
                held[False].project(x)
        seen = new
        queries.append(h)
        got, want = ((attn(h, h, cache=held[True]),
                      attn(h, None, cache=held[False]))
                     for held in (stacked, blocked))
        for a, b in zip(got, want):
            assert type(a) is np.ndarray and a.shape == (d,)
            assert np.array_equal(a, b)
    for held in (stacked, blocked):
        for flag, rows in ((True, queries), (False, memory[:seen])):
            cache = held[flag]
            assert len(cache) == len(rows)
            for j, x in enumerate(rows):
                assert np.array_equal(cache.k[j], attn.wk(x))
                assert np.array_equal(cache.v[j], attn.wv(x))


@pytest.mark.parametrize("d", [10, 16, 32, 64])
def test_cross_cache_rows_do_not_depend_on_k(d):
    """push projects each state row into every decoder cross-attention
    cache when it reads it, so a row's cached keys and values are the bits
    of the separate wk and wv products of that row, whatever k the stream
    decodes at and however many rows it reads before a write."""
    cfg = ModelConfig(n_layers=2, d_model=d, n_heads=2, d_ff=16,
                      src_vocab=20, tgt_vocab=20, max_len=24)
    model = IncrementalModel(cfg, seed=d)
    src = np.random.default_rng(d).integers(4, 20, size=12).tolist()
    n, cached = len(src), {}
    for k in (1, 2, 3, 5):
        stream, prefix = model.start_stream(), [1]
        for s in range(1, n + 1):
            while stream.count < min(k + s - 1, n):
                stream.push(src[stream.count])
            logits = model.decode_step(prefix, stream).values
            prefix.append(int(np.argmax(logits)))
        cached[k] = [(c.k[:len(c)].copy(), c.v[:len(c)].copy())
                     for _, c in stream.decoder_caches]
        z, _ = stream.states
        for layer, (keys, values) in zip(model.decoder.layers, cached[k]):
            attn = layer.cross_attn
            assert len(keys) == n
            for j in range(n):
                assert np.array_equal(keys[j], attn.wk(z[j])), (k, j)
                assert np.array_equal(values[j], attn.wv(z[j])), (k, j)
    for k in (2, 3, 5):
        for (keys1, values1), (keys, values) in zip(cached[1], cached[k]):
            assert np.array_equal(keys1, keys), k
            assert np.array_equal(values1, values), k


@pytest.fixture
def cfg4():
    return ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=24,
                       src_vocab=20, tgt_vocab=20, max_len=32, k=2)


def test_empty_prefix_rejected(cfg4):
    model = IncrementalModel(cfg4, seed=0)
    stream, ref = model.start_stream(), ReferenceStream(model)
    for token in [4, 5, 6]:
        stream.push(token)
        ref.push(token)
    for prefix in ([], np.array([], dtype=int)):
        with pytest.raises(ScheduleError, match="at least the bos id"):
            model.decode_step(prefix, stream)
    assert np.array_equal(model.decode_step([1], stream).values,
                          reference_decode_step(model, [1], ref).values)


def test_unread_or_foreign_stream_refused(cfg4):
    """decode_step on a stream that has read nothing, and on a stream
    another model started, raises ScheduleError and leaves the stream as
    it was: every later row equals an uninterrupted wait-2 decode's bit for
    bit."""
    model, other = (IncrementalModel(cfg4, seed=s) for s in (3, 4))
    src, prefix = [4, 9, 7, 12, 5], [1, 6, 8, 11, 13, 4]

    def decode(refuse):
        stream, rows = model.start_stream(), []
        for s in range(1, len(prefix) + 1):
            if refuse and stream.count == 0:
                for owner in (model, other):
                    with pytest.raises(ScheduleError,
                                       match="cannot decode an empty source"):
                        owner.decode_step([1], stream)
            while stream.count < min(s + 1, 5):
                stream.push(src[stream.count])
            if refuse:
                with pytest.raises(ScheduleError, match="another model"):
                    other.decode_step(prefix[:s], stream)
            rows.append(model.decode_step(prefix[:s], stream).values)
        assert stream.ids == prefix
        return rows

    for a, b in zip(decode(True), decode(False), strict=True):
        assert np.array_equal(a, b)


def test_refused_calls_leave_the_rows_to_the_next_call(cfg4):
    """decode_step adds one row. With r rows held, a prefix that repeats,
    skips or diverges from the held ids raises ScheduleError; every later
    row equals an uninterrupted wait-2 decode's bit for bit."""
    model = IncrementalModel(cfg4, seed=3)
    src, prefix = [4, 9, 7, 12, 5], [1, 6, 8, 11, 13, 4]

    def read(stream, s):
        """Read what row s reads: the first min(s + 1, 5) tokens."""
        while stream.count < min(s + 1, 5):
            stream.push(src[stream.count])

    def rows(stream, start):
        out = []
        for s in range(start + 1, len(prefix) + 1):
            read(stream, s)
            out.append(model.decode_step(prefix[:s], stream).values)
        return out

    want = rows(model.start_stream(), 0)
    longer = prefix + [7, 7]
    for r in range(len(prefix)):
        refused = [longer[:r + 2], longer[:r + 3]]                # skip
        if r:
            refused += [prefix[:r], prefix[:r + 1] + prefix[:r],  # repeat
                        [2] + prefix[1:r + 1],                    # diverge
                        prefix[:r - 1] + [7, prefix[r]]]
        stream = model.start_stream()
        for s in range(1, r + 1):
            read(stream, s)
            model.decode_step(prefix[:s], stream)
        read(stream, r + 1)
        for bad in refused:
            with pytest.raises(ScheduleError, match="held ids"):
                model.decode_step(bad, stream)
        assert stream.ids == prefix[:r]
        for a, b in zip(rows(stream, r), want[r:], strict=True):
            assert np.array_equal(a, b)


def test_decode_step_prefix_types_agree(cfg4):
    """A list, a tuple and an integer array prefix give the same rows and
    extend the same held ids."""
    model = IncrementalModel(cfg4, seed=1)
    src = [4, 9, 7, 12, 5]
    prefix = [1, 6, 8, 11]
    results = []
    for convert in (list, tuple, np.array):
        stream = model.start_stream()
        rows = []
        for s in range(1, 5):
            while stream.count < s + 1:
                stream.push(src[stream.count])
            rows.append(model.decode_step(convert(prefix[:s]), stream).values)
        results.append(rows)
        assert stream.ids == prefix
    for other in results[1:]:
        for a, b in zip(results[0], other):
            assert np.array_equal(a, b)


def test_out_of_range_ids_raise_and_leave_the_caches_usable(cfg4):
    """push(-1), push(vocab) and a prefix holding such an id raise
    T.embedding's IndexError (a raw row lookup would wrap -1 around);
    the stream, its decoder rows included, is not left half-written."""
    model = IncrementalModel(cfg4, seed=2)
    src, prefix = [4, 9, 7, 12, 5], [1, 6, 8, 11]
    stream, ref = model.start_stream(), model.start_stream()
    message = "token id out of range for vocabulary of size 20"
    for i, token in enumerate(src):
        for bad in (-1, 20):
            with pytest.raises(IndexError, match=message):
                stream.push(bad)
        assert stream.count == i
        assert np.array_equal(stream.push(token), ref.push(token))
    with pytest.raises(IndexError, match=message):
        T.embedding(model.decoder.embed, [[20]])

    def decode(st, bad=()):
        """The rows of prefix over st, one call each; before each row,
        a row of each id in bad raises."""
        rows = []
        for s in range(1, len(prefix) + 1):
            for token in bad:
                with pytest.raises(IndexError, match=message):
                    model.decode_step(prefix[:s - 1] + [token], st)
            rows.append(model.decode_step(prefix[:s], st).values)
        return rows

    for a, b in zip(decode(stream, (-1, 20)), decode(ref)):
        assert np.array_equal(a, b)
    assert stream.ids == prefix


def test_over_length_input_raises(cfg4):
    """A source or a prefix longer than max_len raises LengthError before
    any row is computed."""
    model = IncrementalModel(cfg4, seed=2)
    stream = model.start_stream()
    for _ in range(cfg4.max_len):
        stream.push(4)
    with pytest.raises(LengthError, match="sequence length 33 exceeds"):
        stream.push(4)
    for t in range(1, cfg4.max_len + 1):
        model.decode_step([1] * t, stream)
    for t in (33, 34):
        with pytest.raises(LengthError, match=f"sequence length {t} exceeds"):
            model.decode_step([1] * t, stream)
    assert stream.ids == [1] * cfg4.max_len
