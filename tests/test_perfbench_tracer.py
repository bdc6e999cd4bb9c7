"""The benchmark's tracer (perfbench/spans.py) wraps waitkit methods by name
from outside the package; a rename must fail here, not only in a traced
benchmark run."""

import importlib.util
import os
from collections import Counter

from waitkit import waitk
from waitkit.transformer import IncrementalModel, ModelConfig

SPANS_PY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_decode_and_uninstalls():
    spans = load_spans()
    wrapped = ([(owner, attr) for owner, attr, _ in spans.ALWAYS]
               + list(spans.BY_ROLE))
    originals = [owner.__dict__[attr] for owner, attr in wrapped]
    cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=8,
                      src_vocab=12, tgt_vocab=12, max_len=8, k=1)
    model = IncrementalModel(cfg, seed=0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.register(model)
        tracer.op("c0")
        tokens, _ = waitk.streaming_decode(model, [4, 5, 6, 7], 1,
                                           max_len=4, eos_id=-1)
        tracer.op(None)
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr in wrapped] == originals

    assert len(tokens) == 4
    names = Counter(span[0] for span in tracer.spans)
    assert names["waitk.streaming_decode"] == 1
    for name in ("transformer.decode_step", "transformer.stream_push",
                 "transformer.stream_states"):
        assert names[name] == 4, name
    # Per step: self-attention and feed-forward in each layer, plus
    # cross-attention in each layer and attend_rows around the last one.
    assert names["transformer.dec_self_attn"] == 4 * cfg.n_layers
    assert names["transformer.dec_ff"] == 4 * cfg.n_layers
    assert names["transformer.dec_cross_attn"] == 4 * (cfg.n_layers + 1)
    assert names["transformer.dec_out"] == 4
    assert tracer.counts["c0"]["transformer.decode_step.rows"] == 1 + 2 + 3 + 4
    assert tracer.check_self_sums() == []
