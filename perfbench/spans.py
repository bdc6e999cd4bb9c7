"""Span tracer that wraps waitkit's public functions and methods from
outside, and the per-layer metrics computed from its spans.

Nothing under src/ is edited: install() replaces module attributes and class
methods with wrappers and uninstall() puts the originals back. Each span
records its name, start, end, parent span, operation id, and the value of
tensor.mac_counter before and after the call, so self time and self MACs
(a span minus its children) can be attributed to one layer.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import weakref
from collections import Counter, defaultdict

from waitkit import evaluation, tensor, training, transformer, waitk

# (owner, attribute, span name): wrapped on every call.
ALWAYS = (
    (tensor.Tape, "backward", "tensor.backward"),
    (training, "train_step", "training.train_step"),
    (training, "pad_batch", "training.pad_batch"),
    (training, "total_loss", "training.total_loss"),
    (training, "grad_norm", "training.grad_norm"),
    (training.Adam, "step", "training.adam_step"),
    (transformer.TeacherModel, "forward", "transformer.teacher_forward"),
    (transformer.IncrementalModel, "forward", "transformer.student_forward"),
    (transformer.EncoderLayer, "__call__", "transformer.enc_layer"),
    (transformer.IncrementalModel, "decode_step", "transformer.decode_step"),
    (transformer.StreamingEncoder, "push", "transformer.stream_push"),
    (transformer.StreamingEncoder, "states", "transformer.stream_states"),
    (waitk, "streaming_decode", "waitk.streaming_decode"),
    (waitk, "average_lagging", "evaluation.average_lagging"),
    (evaluation, "corpus_bleu", "evaluation.corpus_bleu"),
    (evaluation, "hidden_distance_stats", "evaluation.hidden_distance"),
)

# Methods shared by encoder and decoder blocks: a span is opened only for
# instances registered with a role (see Tracer.register).
BY_ROLE = (
    (transformer.MultiHeadAttention, "__call__"),
    (transformer.MultiHeadAttention, "attend_rows"),
    (transformer.FeedForward, "__call__"),
    (transformer.Linear, "__call__"),
)


# Decoder blocks of a registered model, by attribute of a DecoderLayer.
DECODER_ROLES = {
    "self_attn": "transformer.dec_self_attn",
    "cross_attn": "transformer.dec_cross_attn",
    "ff": "transformer.dec_ff",
}
DEC_OUT = "transformer.dec_out"

SPAN_NAMES = (tuple(name for _, _, name in ALWAYS)
              + tuple(DECODER_ROLES.values()) + (DEC_OUT,))
# Spans whose self MACs are reported; every span reports its self time.
MAC_SPANS = (
    "transformer.teacher_forward", "transformer.student_forward",
    "transformer.enc_layer", *DECODER_ROLES.values(), DEC_OUT,
    "transformer.decode_step", "transformer.stream_push",
)
COUNTS = ("tensor.tape_entries", "transformer.decode_step.calls",
          "waitk.reads", "waitk.writes")
PER_LAYER = {
    **{f"{name}.self_ms": "ms" for name in SPAN_NAMES},
    **{f"{name}.mmac": "MMAC" for name in MAC_SPANS},
    "tensor.mmac": "MMAC",
    **{name: "count" for name in COUNTS},
    "transformer.decode_step.rows_useful_ratio": "ratio",
    "checkpoint.save.ms": "ms",
    "checkpoint.load.ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        # span: [name, start, end, parent index, op id, macs before, macs after]
        self.spans = []
        self.counts = defaultdict(Counter)     # op id -> counter name -> n
        self._stack = []
        self._op = None
        self._roles = weakref.WeakKeyDictionary()
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        for owner, attr, name in ALWAYS:
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name))
        for cls, attr in BY_ROLE:
            self._patch(cls, attr, self._wrap_role(cls.__dict__[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, wrapped):
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            targets = [owner]
        else:
            # A module function is also bound by name in every waitkit
            # module that imported it; rebind each of those too.
            targets = [
                mod for key, mod in list(sys.modules.items())
                if key == "waitkit" or key.startswith("waitkit.")
                if getattr(mod, attr, None) is original
            ]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapped)

    def register(self, model):
        """Give the decoder blocks of a model their span names."""
        self._roles[model.decoder.out] = DEC_OUT
        for layer in model.decoder.layers:
            for attr, name in DECODER_ROLES.items():
                self._roles[getattr(layer, attr)] = name

    # -- spans ----------------------------------------------------------

    def _enter(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self._op, tensor.mac_counter.count, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        span[6] = tensor.mac_counter.count
        self._stack.pop()

    def _count(self, name, n):
        self.counts[self._op][name] += n

    def _wrap(self, original, name):
        if isinstance(original, property):
            return property(self._wrap(original.fget, name))
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return original(*args, **kwargs)
            if name == "tensor.backward":
                tracer._count("tensor.tape_entries", len(args[0]))
            elif name == "transformer.decode_step":
                tracer._count("transformer.decode_step.calls", 1)
                # args: (model, prefix_ids, states, g_t, k)
                tracer._count("transformer.decode_step.rows", len(args[1]))
            elif name == "transformer.stream_push":
                tracer._count("waitk.reads", 1)
            span = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(span)
            if name == "waitk.streaming_decode":
                tracer._count("waitk.writes", len(result[0]))
            return result

        return wrapper

    def _wrap_role(self, original):
        roles = self._roles
        tracer = self

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            name = None if tracer._op is None else roles.get(obj)
            if name is None:
                return original(obj, *args, **kwargs)
            span = tracer._enter(name)
            try:
                return original(obj, *args, **kwargs)
            finally:
                tracer._exit(span)

        return wrapper

    def op(self, op_id):
        """Start operation op_id: its spans are tagged with it and nest
        under one root span named "op". op(None) ends the operation; no
        spans are recorded outside one."""
        if op_id is None:
            self._exit(self._root)
            self._op = None
        else:
            self._op = op_id
            self._root = self._enter("op")

    # -- results --------------------------------------------------------

    def self_costs(self):
        """Per span: (self seconds, self MACs), children subtracted."""
        secs = [s[2] - s[1] for s in self.spans]
        macs = [s[6] - s[5] for s in self.spans]
        for s in self.spans:
            parent = s[3]
            if parent >= 0:
                secs[parent] -= s[2] - s[1]
                macs[parent] -= s[6] - s[5]
        return secs, macs

    def check_self_sums(self, tolerance=1e-6):
        """Ops whose span self times do not sum to their one root span's
        time, within tolerance seconds."""
        secs, _ = self.self_costs()
        totals = Counter()
        roots = {}
        for i, s in enumerate(self.spans):
            totals[s[4]] += secs[i]
            if s[3] < 0:
                if s[4] in roots:
                    return [s[4]]           # two roots in one op
                roots[s[4]] = s[2] - s[1]
        return [op for op, wall in roots.items()
                if abs(totals[op] - wall) > tolerance]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, op, m0, m1 = span
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "macs": m1 - m0,
                }) + "\n")


def per_layer(workload, tracer, check_ops, traced, untraced):
    """Per-operation layer costs: self times from the traced timed
    operations, MACs and counts from the traced check pass (fixed inputs,
    so they repeat exactly for a seed). Returns {name: (value, samples)}."""
    secs, macs = tracer.self_costs()
    timed_ops = len(traced.op_ms)
    self_ms = dict.fromkeys(SPAN_NAMES, 0.0)
    self_macs = dict.fromkeys(MAC_SPANS, 0)
    total_macs = 0
    for span, sec, mac in zip(tracer.spans, secs, macs):
        name, op = span[0], span[4]
        if op.startswith("t"):
            if name in self_ms:
                self_ms[name] += sec
        else:
            total_macs += mac
            if name in self_macs:
                self_macs[name] += mac
    counts = dict.fromkeys(COUNTS + ("transformer.decode_step.rows",), 0)
    for op, counter in tracer.counts.items():
        if op.startswith("c"):
            for name, n in counter.items():
                counts[name] += n
    rows = counts.pop("transformer.decode_step.rows")
    out = {f"{name}.self_ms": (v * 1e3 / timed_ops, timed_ops)
           for name, v in self_ms.items()}
    out.update({f"{name}.mmac": (n / 1e6 / check_ops, check_ops)
                for name, n in self_macs.items()})
    out["tensor.mmac"] = (total_macs / 1e6 / check_ops, check_ops)
    out.update({name: (n / check_ops, check_ops)
                for name, n in counts.items()})
    out["transformer.decode_step.rows_useful_ratio"] = (
        counts["transformer.decode_step.calls"] / rows if rows else 0.0,
        check_ops)
    for name, samples in (("checkpoint.save.ms", workload.save_ms),
                          ("checkpoint.load.ms", workload.load_ms)):
        out[name] = (statistics.median(samples) if samples else 0.0,
                     len(samples))
    traced_ms = statistics.median(traced.op_ms)
    out["trace.op_ms"] = (traced_ms, timed_ops)
    out["trace.overhead_ms"] = (
        traced_ms - statistics.median(untraced.op_ms), timed_ops)
    return out
