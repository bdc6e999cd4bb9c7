"""The benchmark's tracer (perfbench/spans.py) wraps waitkit methods by name
from outside the package; a rename must fail here, not only in a traced
benchmark run."""

import importlib.util
import os
from collections import Counter

from waitkit import training, waitk
from waitkit.transformer import IncrementalModel, ModelConfig, TeacherModel

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


def test_tracer_attributes_a_train_step_per_layer():
    """Attention is one tape entry, but a traced joint train_step still
    opens a span for each decoder attention, each encoder layer and the
    backward pass, and their MACs land in those spans."""
    spans = load_spans()
    cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=8,
                      src_vocab=12, tgt_vocab=12, max_len=8, k=2)
    teacher, student = TeacherModel(cfg, seed=0), IncrementalModel(cfg, seed=1)
    spec = training.SyntheticTaskSpec(kind="copy", vocab_size=12, min_len=4,
                                      max_len=4, seed=0)
    batch = training.generate_synthetic(spec, 3)
    opt = training.Adam(teacher.parameters() + student.parameters())
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.register(teacher)
        tracer.register(student)
        tracer.op("c0")
        training.train_step(teacher, student, batch, opt,
                            training.TrainConfig(k=2, batch_size=3))
        tracer.op(None)
    finally:
        tracer.uninstall()

    names = Counter(span[0] for span in tracer.spans)
    assert names["training.train_step"] == 1
    assert names["tensor.backward"] == 1
    # Teacher and student: two encoder layers and two decoder layers each;
    # attend_rows wraps the student's last cross-attention.
    assert names["transformer.enc_layer"] == 2 * cfg.n_layers
    assert names["transformer.dec_self_attn"] == 2 * cfg.n_layers
    assert names["transformer.dec_cross_attn"] == 2 * cfg.n_layers + 1
    _, macs = tracer.self_costs()
    by_name = Counter()
    for span, mac in zip(tracer.spans, macs):
        by_name[span[0]] += mac
    for name in ("transformer.enc_layer", "transformer.dec_self_attn",
                 "transformer.dec_cross_attn"):
        assert by_name[name] > 0, name
    assert tracer.counts["c0"]["tensor.tape_entries"] > 0
    assert tracer.check_self_sums() == []
