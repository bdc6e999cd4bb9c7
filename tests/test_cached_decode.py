"""The additive bridge and the K/V-cached decoder against a reference copy of
the row-memory bridge, which gives every decoder row its own [n, d] memory
f[g(t)] + z[j] in the last layer's cross-attention."""

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.tensor import Tensor
from waitkit.transformer import IncrementalModel, ModelConfig
from waitkit.waitk import read_counts, streaming_decode

from conftest import (_merge_heads, _split_heads, build_masks,
                      masked_softmax, mul, reshape, transpose)


def ref_attend_rows(attn, queries, row_memory, mask):
    """Attention where every query row has its own memory.

    queries [b, t, d], row_memory [b, t, n, d]; row i attends only over
    row_memory[:, i]. mask broadcasts to [b, heads, t, 1, n].
    """
    b, t, d = queries.shape
    n = row_memory.shape[-2]
    h, dk = attn.n_heads, d // attn.n_heads
    q = _split_heads(attn.wq(queries), h)
    q = reshape(q, (b, h, t, 1, dk))
    k = reshape(attn.wk(row_memory), (b, t, n, h, dk))
    k = transpose(k, (0, 3, 1, 2, 4))
    v = reshape(attn.wv(row_memory), (b, t, n, h, dk))
    v = transpose(v, (0, 3, 1, 2, 4))
    scores = T.scale(T.matmul(q, T.transpose_last(k)), attn.scale)
    att = masked_softmax(scores, mask)
    out = reshape(T.matmul(att, v), (b, h, t, dk))
    return attn.wo(_merge_heads(out))


def ref_decoder(decoder, ids, memory, cross, f_rows):
    """Full decoder pass whose last layer reads the row memory built from
    f_rows [b, t, d] and memory [b, n, d] under cross [t, n]."""
    b, t = ids.shape
    n, d = memory.shape[-2], memory.shape[-1]
    rows = T.add(reshape(f_rows, (b, t, 1, d)),
                 reshape(memory, (b, 1, n, d)))
    rows = mul(rows, Tensor(cross.astype(float)[None, :, :, None]))
    x = T.add(T.scale(T.embedding(decoder.embed, ids), decoder.emb_scale),
              Tensor(decoder.pe[:t]))
    self_mask = np.tril(np.ones((t, t), dtype=bool))
    last = len(decoder.layers) - 1
    for i, layer in enumerate(decoder.layers):
        h = layer.ln1(x)
        x = T.add(x, layer.self_attn(h, h, self_mask))
        h = layer.ln2(x)
        if i == last:
            x = T.add(x, ref_attend_rows(layer.cross_attn, h, rows,
                                         cross[None, None, :, None, :]))
        else:
            x = T.add(x, layer.cross_attn(h, memory, cross))
        x = T.add(x, layer.ff(layer.ln3(x)))
    return decoder.out(decoder.final_ln(x))


def ref_forward(model, src, tgt, k):
    """Teacher-forced wait-k logits [b, t, vocab] through the row memory."""
    t, n = tgt.shape[-1], src.shape[-1]
    cross = build_masks(k, n, t)
    z, e = model.encoder.forward(src, causal=True)
    f = T.matmul(T.masked_cumulative_mean(e),
                 T.transpose_last(model.bridge_w))
    g_idx = [min(k + s - 1, n) - 1 for s in range(1, t + 1)]
    return ref_decoder(model.decoder, tgt, z, cross,
                       T.gather_rows(f, g_idx, axis=1))


def ref_decode_step(model, prefix, states, g_t, k, gs=None):
    """Last-row logits of a fresh full-prefix pass over states, the one-shot
    (z, f); gs gives every row's read count, by default wait-k's up to
    g_t."""
    z, f = states
    t, c = len(prefix), z.shape[0]
    if gs is None:
        gs = [min(k + s - 1, g_t) for s in range(1, t)] + [g_t]
    cross = np.arange(c) < np.array(gs)[:, None]
    f_rows = T.gather_rows(f, np.array(gs) - 1, axis=0)
    d = model.cfg.d_model
    logits = ref_decoder(model.decoder, np.array([prefix]),
                         reshape(z, (1, c, d)), cross,
                         reshape(f_rows, (1, t, d)))
    return logits.values[0, -1]


def random_config(rng):
    b = int(rng.integers(1, 4))
    n = int(rng.integers(1, 20))
    t = int(rng.integers(1, 25))
    k = int(rng.integers(1, 6))
    return b, n, t, k


@pytest.fixture
def cfg4():
    return ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=24,
                       src_vocab=20, tgt_vocab=20, max_len=32, k=2)


def test_forward_matches_row_memory_reference(cfg4):
    rng = np.random.default_rng(31)
    worst = 0.0
    with T.no_grad():
        for trial in range(24):
            b, n, t, k = random_config(rng)
            model = IncrementalModel(cfg4, seed=trial)
            src = rng.integers(4, 20, size=(b, n))
            tgt = rng.integers(4, 20, size=(b, t))
            got, _ = model.forward(src, tgt, k)
            want = ref_forward(model, src, tgt, k)
            worst = max(worst, float(np.abs(got.values - want.values).max()))
    assert worst <= 1e-12


def test_forward_gradients_match_row_memory_reference(cfg4):
    rng = np.random.default_rng(32)
    model = IncrementalModel(cfg4, seed=3)
    src = rng.integers(4, 20, size=(2, 7))
    tgt = rng.integers(4, 20, size=(2, 9))
    grads = []
    for forward in (lambda: model.forward(src, tgt, 2)[0],
                    lambda: ref_forward(model, src, tgt, 2)):
        for p in model.parameters():
            p.grad[...] = 0.0
        with T.Tape() as tape:
            tape.backward(T.cross_entropy(forward(), tgt))
        grads.append([p.grad.copy() for p in model.parameters()])
    for a, b in zip(*grads):
        assert np.abs(a - b).max() <= 1e-12


def test_decode_steps_match_row_memory_reference(cfg4):
    """Step by step over a stream as the source is read, decode_step equals
    a fresh row-memory pass over one-shot states."""
    rng = np.random.default_rng(33)
    worst = 0.0
    with T.no_grad():
        for trial in range(24):
            _, n, t, k = random_config(rng)
            model = IncrementalModel(cfg4, seed=100 + trial)
            src = rng.integers(4, 20, size=n)
            prefix = [1] + rng.integers(4, 20, size=t - 1).tolist()
            states = model.incremental_states(src)
            stream = model.start_stream()
            for s, g in enumerate(read_counts(k, n, t).tolist(), 1):
                while stream.count < g:
                    stream.push(int(src[stream.count]))
                want = ref_decode_step(model, prefix[:s], states, g, k)
                got = model.decode_step(prefix[:s], stream).values
                worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-12


def test_reused_states_equal_fresh_states(cfg4):
    """Row 8 of a stream that holds the wait-2 rows of prefix[:7], computed
    while at most `read` source tokens had been read, then has read g,
    equals the last row of a fresh full-prefix pass in which those rows
    keep their read counts. It is computed alone, so sums may round
    differently from a pass over all rows."""
    rng = np.random.default_rng(34)
    model = IncrementalModel(cfg4, seed=7)
    src = rng.integers(4, 20, size=9).tolist()
    prefix = [1] + rng.integers(4, 20, size=8).tolist()
    states = model.incremental_states(src)

    def decode(stream, s, g):
        while stream.count < g:
            stream.push(src[stream.count])
        return model.decode_step(prefix[:s], stream).values

    with T.no_grad():
        for g, read in [(9, 9), (5, 5), (9, 5), (6, 5)]:
            stream = model.start_stream()
            for s in range(1, 8):
                decode(stream, s, min(s + 1, read))
            got = decode(stream, 8, g)
            gs = [min(s + 1, read) for s in range(1, 8)] + [g]
            want = ref_decode_step(model, prefix[:8], states, g, 2, gs)
            assert np.abs(got - want).max() <= 1e-12


def test_unread_source_leaves_row_bit_identical(cfg4):
    rng = np.random.default_rng(35)
    with T.no_grad():
        for trial in range(10):
            b, n, t, k = random_config(rng)
            model = IncrementalModel(cfg4, seed=200 + trial)
            src = rng.integers(4, 20, size=(b, n))
            tgt = rng.integers(4, 20, size=(b, t))
            base, _ = model.forward(src, tgt, k)
            for s, g in enumerate(read_counts(k, n, t).tolist(), 1):
                if g == n:
                    continue
                changed = src.copy()
                changed[:, g:] = rng.integers(4, 20, size=(b, n - g))
                other, _ = model.forward(changed, tgt, k)
                assert np.array_equal(other.values[:, s - 1],
                                      base.values[:, s - 1])


def test_long_decode_mac_budget():
    """Decoding costs O(1) decoder rows per emission: a 63-emission decode
    of a 64-token source stays within 15 MMAC (the full-prefix recompute
    with row memory costs about 900)."""
    cfg = ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ff=64,
                      src_vocab=32, tgt_vocab=32, max_len=64, k=1)
    model = IncrementalModel(cfg, seed=0)
    src = np.random.default_rng(36).integers(4, 32, size=64).tolist()
    before = T.mac_counter.count
    tokens, _ = streaming_decode(model, src, 1, max_len=63, eos_id=-1)
    macs = T.mac_counter.count - before
    assert len(tokens) == 63
    assert macs <= 15e6, macs


def test_long_decode_op_budget(monkeypatch):
    """A 48-token k=1 decode at the decode_long benchmark shape runs on
    plain rows through the modules' row branches: it calls no tensor op
    (65 per emission when push and decode_step ran ops in array mode),
    records nothing and passes no mask to a softmax, since every streamed
    row's self and cross rows are all visible. An emission builds one
    Tensor, the logits it returns."""
    cfg = ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ff=64,
                      src_vocab=32, tgt_vocab=32, max_len=64, k=1)
    model = IncrementalModel(cfg, seed=0)
    src = np.random.default_rng(37).integers(4, 32, size=48).tolist()
    ops = [name for name in T.__all__ if name[0].islower() and name not in
           ("no_grad", "mac_counter", "as_tensor")]
    calls = dict.fromkeys(ops + ["_partial_softmax", "_record",
                                 "masked_attention"], 0)

    def counting(name):
        fn = getattr(T, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            mask = args[5] if len(args) > 5 else kwargs.get("mask")
            if name == "attention" and mask is not None:
                calls["masked_attention"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ops + ["_partial_softmax", "_record"]:
        monkeypatch.setattr(T, name, counting(name))
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    tokens, _ = streaming_decode(model, src, 1, max_len=48, eos_id=-1)
    assert len(tokens) == 48
    assert [calls[name] for name in ("_partial_softmax", "_record",
                                     "masked_attention")] == [0, 0, 0]
    op_calls = sum(calls[name] for name in ops)
    assert op_calls == 0, op_calls
    streamed = len(built)
    assert streamed <= 48, streamed
    # The wrappers do see masks and records: a batched pass under a Tape
    # gives attention its causal and wait-k masks, which drop entries, and
    # every tape entry goes through the module's _record, the scaffold's
    # included.
    with T.Tape() as tape:
        model.forward(np.array([src]), np.array([[1] + tokens[:-1]]), 1)
    assert calls["_partial_softmax"] > 0
    assert calls["_record"] == len(tape) > 0
    assert calls["masked_attention"] == 3 * cfg.n_layers
    assert len(built) > streamed
