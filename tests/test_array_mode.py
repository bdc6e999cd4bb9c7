"""The streamed decode in array mode against the Tensor-op code it replaces
(ReferenceStream and reference_decode_step in conftest): the same logits,
states and tokens bit for bit, the stacked single-row projections equal to
the separate products, and the decode_step cache check and input errors."""

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.errors import ScheduleError
from waitkit.tensor import Tensor
from waitkit.transformer import (IncrementalModel, IncrementalStates,
                                 KVCache, ModelConfig, MultiHeadAttention,
                                 _stacks_exactly)
from waitkit.waitk import WaitKSchedule, streaming_decode

from conftest import (ReferenceDecoderCache, ReferenceStream,
                      reference_decode_step)


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
    """Over 60 random models (15 per block): every pushed state row, every
    streamed and every re-used-state logit row, bit for bit."""
    rng = np.random.default_rng(100 + block)
    for trial in range(15):
        model, src = random_model(rng, 15 * block + trial)
        k, n = model.cfg.k, len(src)
        stream, ref_stream = model.start_stream(), ReferenceStream(model)
        states = model.incremental_states(src)
        ref_states = IncrementalStates(states.z, states.f,
                                       ReferenceDecoderCache())
        prefix = [1]
        for s in range(1, min(2 * n + 5, 48) + 1):
            g = WaitKSchedule(k, n).read_count(s)
            while stream.count < g:
                token = src[stream.count]
                assert np.array_equal(stream.push(token),
                                      ref_stream.push(token))
            got = model.decode_step(prefix, stream.states, g, k)
            want = reference_decode_step(model, prefix, ref_stream.states, g,
                                         k)
            assert np.array_equal(got.values, want.values)
            got = model.decode_step(prefix, states, g, k)
            want = reference_decode_step(model, prefix, ref_states, g, k)
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
    """Wherever the probe allows a stack, one row times the stacked weights
    equals the separate products for random rows and weights. A width of
    1 is one product per output, exact on any BLAS."""
    rng = np.random.default_rng(3)
    assert _stacks_exactly(1, 3) and _stacks_exactly(1, 2)
    for d in range(1, 70):
        for blocks in (2, 3):
            if not _stacks_exactly(d, blocks):
                continue
            for _ in range(20):
                x = rng.normal(size=(1, 1, d)) * 10.0 ** rng.uniform(-3, 3, d)
                w = rng.normal(size=(blocks * d, d))
                stacked = T.linear(Tensor(x), Tensor(w)).values
                for i in range(blocks):
                    part = T.linear(Tensor(x), Tensor(w[i * d:(i + 1) * d]))
                    assert np.array_equal(stacked[..., i * d:(i + 1) * d],
                                          part.values)


@pytest.mark.parametrize("d", [4, 8, 12, 16, 32, 64])
def test_stacked_projection_equals_separate_linears(d):
    """An attention fed one new row at a time through a cache with stacked
    projections returns what it returns through a cache without them, and
    the stacked q, k and v rows equal the separate linears."""
    rng = np.random.default_rng(d)
    cfg = ModelConfig(n_layers=1, d_model=d, n_heads=2, d_ff=8, max_len=12)
    attn = MultiHeadAttention(rng, cfg)
    for p in attn.parameters():
        p.values += rng.normal(size=p.shape) * 0.1       # non-zero biases
    stacked = {flag: attn.kv_cache((1, 12, d), flag) for flag in (True, False)}
    for flag, cache in stacked.items():
        if cache.weight is None:
            continue
        x = rng.normal(size=(1, 1, d))
        with T.no_grad():
            qkv = T.linear(x, cache.weight, cache.bias).values
            parts = [T.linear(x, lin.w, lin.b).values
                     for lin in (attn.wq, attn.wk, attn.wv)[0 if flag else 1:]]
        assert np.array_equal(qkv, np.concatenate(parts, axis=-1))
    plain = {flag: KVCache((1, 12, d)) for flag in (True, False)}
    for _ in range(12):
        h, mem = rng.normal(size=(2, 1, 1, d))
        with T._ARRAYS:
            got = (attn(h, h, cache=stacked[True]),
                   attn(h, mem, cache=stacked[False]))
            want = (attn(h, h, cache=plain[True]),
                    attn(h, mem, cache=plain[False]))
        for g, w in zip(got, want):
            assert type(g) is np.ndarray
            assert np.array_equal(g, w)


@pytest.fixture
def cfg4():
    return ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=24,
                       src_vocab=20, tgt_vocab=20, max_len=32, k=2)


def test_empty_prefix_rejected(cfg4):
    model = IncrementalModel(cfg4, seed=0)
    states = model.incremental_states([4, 5, 6])
    for prefix in ([], np.array([], dtype=int)):
        with pytest.raises(ScheduleError, match="at least the bos id"):
            model.decode_step(prefix, states, 1)
    assert np.array_equal(model.decode_step([1], states, 1).values,
                          reference_decode_step(
                              model, [1], IncrementalStates(
                                  states.z, states.f, ReferenceDecoderCache()),
                              1).values)


def test_states_decoded_by_another_model_rebuild(cfg4):
    """A cache holds one decoder's rows and projections: decoding the same
    states with a second model recomputes every row."""
    first, second = (IncrementalModel(cfg4, seed=s) for s in (3, 4))
    src = [4, 9, 7, 12, 5]
    states = first.incremental_states(src)
    first.decode_step([1, 6], states, 3)
    got = second.decode_step([1, 6, 8], states, 4).values
    want = second.decode_step([1, 6, 8], IncrementalStates(
        states.z, states.f), 4).values
    assert np.array_equal(got, want)


def test_decode_step_prefix_types_agree(cfg4):
    """A list, a tuple and an integer array prefix give the same rows and
    extend the same cache."""
    model = IncrementalModel(cfg4, seed=1)
    src = [4, 9, 7, 12, 5]
    prefix = [1, 6, 8, 11]
    results = []
    for convert in (list, tuple, np.array):
        states = model.incremental_states(src)
        results.append([model.decode_step(convert(prefix[:s]), states,
                                          min(s + 1, 5), 2).values
                        for s in range(1, 5)])
        assert states.cache.ids == prefix
    for other in results[1:]:
        for a, b in zip(results[0], other):
            assert np.array_equal(a, b)

