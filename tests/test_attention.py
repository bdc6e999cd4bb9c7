"""The fused attention op against the chain of autodiff ops it replaces
(composed_attention in conftest): equal values, gradients and MAC counts,
and bit-identical training."""

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.tensor import Tensor
from waitkit.training import (
    Adam,
    MODES,
    SyntheticTaskSpec,
    TrainConfig,
    generate_synthetic,
    make_batches,
    train_step,
)
from waitkit.transformer import (
    IncrementalModel,
    ModelConfig,
    MultiHeadAttention,
    TeacherModel,
)
from waitkit.waitk import streaming_decode

from conftest import (
    check_gradients,
    composed_attention,
    composed_attention_call,
    mul,
    tsum,
)


def random_case(rng, lead, mask_kind):
    """q [*lead, tq, d], k and v [*lead, tk, d] with tq != tk, a head count,
    a scale and a mask of the given kind."""
    n_heads = int(rng.choice([1, 2, 4]))
    d = n_heads * int(rng.integers(1, 4))
    tq = int(rng.integers(1, 6))
    tk = int(rng.integers(1, 6))
    if tk == tq:
        tk += 1
    q, k, v = (Tensor(rng.normal(size=(*lead, t, d)), requires_grad=True)
               for t in (tq, tk, tk))
    if mask_kind == "none":
        mask = None
    else:
        mask = rng.random((tq, tk)) < 0.6            # broadcast 2-D mask
        mask[:, 0] = True
        if mask_kind == "fully_masked_rows":
            mask[rng.integers(0, tq)] = False
    return q, k, v, n_heads, float(rng.uniform(0.2, 1.5)), mask


def run(attention, q, k, v, n_heads, scale, mask, w):
    """Output values, q/k/v gradients and MACs of one forward and backward."""
    for x in (q, k, v):
        x.grad = None
    before = T.mac_counter.count
    with T.Tape() as tape:
        out = attention(q, k, v, n_heads, scale, mask)
        macs = T.mac_counter.count - before
        tape.backward(tsum(mul(out, Tensor(w))))
    return out.values, [x.grad.copy() for x in (q, k, v)], macs


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["0", "1", "2"])
@pytest.mark.parametrize("mask_kind", ["none", "broadcast",
                                       "fully_masked_rows"])
def test_bit_identical_to_composed_chain(lead, mask_kind):
    rng = np.random.default_rng(len(lead) * 10 + len(mask_kind))
    for _ in range(12):
        q, k, v, n_heads, scale, mask = random_case(rng, lead, mask_kind)
        w = rng.normal(size=q.shape)
        got = run(T.attention, q, k, v, n_heads, scale, mask, w)
        want = run(composed_attention, q, k, v, n_heads, scale, mask, w)
        assert np.array_equal(got[0], want[0])
        for g, ref in zip(got[1], want[1], strict=True):
            assert np.array_equal(g, ref)
        assert got[2] == want[2] > 0


def test_gradients_match_central_differences():
    rng = np.random.default_rng(6)
    q, k, v = (Tensor(rng.normal(size=(2, t, 4)), requires_grad=True)
               for t in (3, 5, 5))
    mask = np.tril(np.ones((3, 5), dtype=bool), k=2)
    w = rng.normal(size=(2, 3, 4))
    check_gradients(
        lambda: tsum(mul(T.attention(q, k, v, 2, 0.7, mask), Tensor(w))),
        [q, k, v])


def test_bad_shapes_raise():
    q = Tensor(np.zeros((2, 3, 4)))
    kv = Tensor(np.zeros((2, 5, 4)))
    with pytest.raises(T.DimensionError):
        T.attention(q, kv, kv, 3, 1.0)                    # 4 % 3 heads
    with pytest.raises(T.DimensionError):
        T.attention(q, kv, Tensor(np.zeros((2, 6, 4))), 2, 1.0)
    with pytest.raises(T.DimensionError):
        other = Tensor(np.zeros((1, 5, 4)))              # leading dims differ
        T.attention(q, other, other, 2, 1.0)
    with pytest.raises(T.DimensionError, match="mask shape"):
        T.attention(q, kv, kv, 2, 1.0, np.ones((3, 4), dtype=bool))


def test_attention_call_records_five_tape_entries(tiny_cfg):
    """wq, wk, wv, the attention op and wo: one entry each."""
    attn = MultiHeadAttention(np.random.default_rng(0), tiny_cfg)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 3, tiny_cfg.d_model)),
               requires_grad=True)
    mask = np.tril(np.ones((3, 3), dtype=bool))
    with T.Tape() as tape:
        attn(x, x, mask)
    assert len(tape) == 5
    with T.Tape() as tape:
        composed_attention_call(attn, x, x, mask)
    assert len(tape) == 17


@pytest.fixture
def cfg4():
    return ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=24,
                       src_vocab=16, tgt_vocab=16, max_len=32, k=2)


@pytest.mark.parametrize("mode", MODES)
def test_train_steps_bit_identical_to_composed_chain(cfg4, mode,
                                                     monkeypatch):
    cfg = TrainConfig(mode=mode, k=2, batch_size=8, seed=3)
    spec = SyntheticTaskSpec(kind="copy", vocab_size=16, min_len=3,
                             max_len=7, seed=9)
    batches = make_batches(generate_synthetic(spec, 160), 8,
                           np.random.default_rng(0))[:20]

    def train_twenty():
        teacher = TeacherModel(cfg4, seed=0)
        student = IncrementalModel(cfg4, seed=1)
        trained = student.parameters()
        if mode == "joint":
            trained = teacher.parameters() + trained
        opt = Adam(trained, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        records = [train_step(teacher, student, b, opt, cfg)
                   for b in batches]
        return records, teacher.parameters() + student.parameters()

    records, params = train_twenty()
    with monkeypatch.context() as patch:
        patch.setattr(MultiHeadAttention, "__call__", composed_attention_call)
        ref_records, ref_params = train_twenty()
    assert len(batches) == 20
    for rec, ref in zip(records, ref_records, strict=True):
        assert rec.keys() == ref.keys()
        assert np.array_equal(list(rec.values()), list(ref.values()),
                              equal_nan=True)
    for p, ref in zip(params, ref_params, strict=True):
        assert np.array_equal(p.values, ref.values)


def test_cached_decode_matches_composed_chain(cfg4, monkeypatch):
    """The cache holds projected rows and the op splits the heads of the
    whole cache on each call; streamed tokens equal the composed chain's."""
    rng = np.random.default_rng(7)
    for trial in range(6):
        model = IncrementalModel(cfg4, seed=trial)
        src = rng.integers(4, 16, size=int(rng.integers(3, 12))).tolist()
        got = streaming_decode(model, src, 1 + trial % 3, eos_id=-1)[0]
        with monkeypatch.context() as patch:
            patch.setattr(MultiHeadAttention, "__call__",
                          composed_attention_call)
            want = streaming_decode(model, src, 1 + trial % 3, eos_id=-1)[0]
        assert got == want
