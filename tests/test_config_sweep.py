"""A sweep over the model configs ModelConfig and TrainConfig accept: odd
and even widths, 1-3 layers, every head count that divides each width,
max_len at or just above the longest sentence, and wait k beyond the
source. Each config builds, trains two steps in both modes, round-trips its
checkpoint bit for bit, and streams the tokens of the batched greedy decode
(criterion 3's check). Widths 9 and 10 take the streamed row path where
stacked projections fall back to separate products on OpenBLAS (see
transformer._stacks_exactly)."""

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.checkpoint import load_models, save_models
from waitkit.training import (MODES, SyntheticTaskSpec, TrainConfig,
                              generate_synthetic, synthetic_vocab, train)
from waitkit.transformer import ModelConfig
from waitkit.waitk import EOS_ID, streaming_decode

VOCAB = 12

# d_model, n_heads, n_layers, max_len, k
CONFIGS = [
    (5, 1, 1, 5, 1),
    (5, 5, 2, 6, 7),
    (8, 1, 3, 7, 2),
    (8, 2, 1, 5, 6),
    (8, 4, 2, 6, 1),
    (8, 8, 3, 8, 3),
    (9, 1, 2, 5, 9),
    (9, 3, 3, 7, 1),
    (9, 9, 1, 6, 2),
    (10, 1, 2, 8, 10),
    (10, 2, 3, 6, 1),
    (10, 5, 1, 7, 8),
    (10, 10, 2, 5, 2),
]


def batched_greedy(model, src, k):
    """Greedy tokens of the batched forward, one pass per emission, to
    streaming_decode's cap."""
    out = []
    with T.no_grad():
        for _ in range(min(2 * len(src) + 5, model.cfg.max_len)):
            logits, _ = model.forward(np.array([src]), np.array([[1] + out]),
                                      k)
            nxt = int(np.argmax(logits.values[0, -1]))
            if nxt == EOS_ID:
                break
            out.append(nxt)
    return out


@pytest.mark.parametrize("d_model, n_heads, n_layers, max_len, k", CONFIGS,
                         ids=["d{}h{}L{}m{}k{}".format(*c) for c in CONFIGS])
def test_config_builds_trains_saves_and_streams(tmp_path, d_model, n_heads,
                                                n_layers, max_len, k):
    cfg = ModelConfig(n_layers=n_layers, d_model=d_model, n_heads=n_heads,
                      d_ff=d_model + 3, src_vocab=VOCAB, tgt_vocab=VOCAB,
                      max_len=max_len, k=k)
    # Targets gain a bos row, so the longest source is max_len - 1.
    examples = generate_synthetic(SyntheticTaskSpec(
        kind="copy", vocab_size=VOCAB, min_len=1, max_len=max_len - 1,
        seed=d_model), 16)
    vocab = synthetic_vocab(VOCAB)
    rng = np.random.default_rng(max_len * 100 + k)
    for mode in MODES:
        teacher, student, rows = train(examples, cfg, TrainConfig(
            max_steps=2, batch_size=4, k=k, mode=mode, seed=n_heads))
        assert len(rows) == 2 * (1 + (mode != "joint"))
        assert np.isfinite([grad_norm for *_, grad_norm in rows]).all()
        path = tmp_path / f"{mode}.ckpt"
        save_models(path, teacher, student, vocab, vocab)
        loaded = load_models(path)
        for model, back in zip((teacher, student), loaded[:2]):
            assert back.cfg == cfg
            named = back.named_parameters()
            for name, p in model.named_parameters().items():
                assert np.array_equal(named.pop(name).values, p.values), name
            assert not named
        for n in (1, max_len - 1, max_len):
            src = rng.integers(4, VOCAB, size=n).tolist()
            want = batched_greedy(student, src, k)
            assert streaming_decode(loaded[1], src, k)[0] == want
