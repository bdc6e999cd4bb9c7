"""Wait-k read/write scheduling, streaming greedy decoding, and the
Average Lagging latency metric. This module alone computes read counts.

The schedule reads k source tokens up front, then alternates one write with
one read; after the source runs out, writes continue unconstrained until an
end-of-sequence token or a length cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError
from .tensor import no_grad

# The reserved ids open every vocabulary. Id 3 is <unk> in a corpus
# vocabulary and the filler token of the synthetic lagged_map task.
PAD_ID, BOS_ID, EOS_ID, UNK_ID = range(4)
FILLER_ID = UNK_ID
N_RESERVED = 4
SHARED_TOKENS = ("<pad>", "<bos>", "<eos>")


def check_k(k):
    """Raise ScheduleError unless k is a wait-k lag, k >= 1."""
    if k < 1:
        raise ScheduleError(f"k must be positive, got {k}")


def read_counts(k, n, t_steps):
    """g(t) = min(k + t - 1, n), the wait-k read count (Ma et al. 2019),
    for t = 1 .. t_steps as an int array: the source tokens read when
    target token t is emitted, of n readable. ScheduleError unless k, n
    and t_steps are all >= 1."""
    check_k(k)
    if n < 1:
        raise ScheduleError(f"source length must be positive, got {n}")
    if t_steps < 1:
        raise ScheduleError(f"t_steps must be >= 1, got {t_steps}")
    return np.minimum(np.arange(k, k + t_steps), n)


@dataclass
class DecodeTrace:
    """Realized read/write record of one decode.

    g_values[i] is the consumed-source count when the i-th target token was
    emitted; the end-of-sequence token is not part of the trace.
    """

    g_values: list
    src_len: int
    tokens: list

    def __post_init__(self):
        if len(self.g_values) != len(self.tokens):
            raise ValueError("one read count per emitted token required")
        if any(b < a for a, b in zip(self.g_values, self.g_values[1:])):
            raise ValueError("read counts must be non-decreasing")
        if self.src_len < 1:
            raise ValueError(f"src_len must be >= 1, got {self.src_len}")
        if not all(1 <= g <= self.src_len for g in self.g_values):
            raise ValueError("read counts must lie in 1 .. src_len")

    @property
    def tgt_len(self):
        return len(self.tokens)

    @property
    def truncated(self):
        """True when decoding ended before the source was fully read."""
        return self.src_len not in self.g_values

    def to_json_line(self):
        return json.dumps(
            {
                "g": list(map(int, self.g_values)),
                "src_len": int(self.src_len),
                "tgt_len": int(self.tgt_len),
                "tokens": list(map(int, self.tokens)),
            },
            separators=(",", ":"),
        )


_END = object()        # next(stream, _END) past the last source token


def streaming_decode(model, source, k, max_len=None, eos_id=EOS_ID,
                     on_emit=None):
    """Greedy wait-k decode over a source token stream.

    source may be any iterable of token ids; tokens are pulled lazily, so
    the decoder never touches a position the schedule has not read. Once the
    stream is exhausted, decoding continues on the full consumed source until
    eos or the cap (max_len, default 2 * src_len + 5). The cap never exceeds
    the model's max_len, the longest prefix its decoder takes. on_emit, when
    given, is called with each token the moment it is emitted.

    Returns (emitted token ids, DecodeTrace); eos is not part of either.
    """
    check_k(k)
    if max_len is not None and max_len < 1:
        raise ScheduleError(f"max_len must be >= 1, got {max_len}")
    source = iter(source)
    stream = model.start_stream()
    exhausted = False
    tokens = []
    g_values = []
    with no_grad():
        while True:
            while not exhausted and stream.count < k + len(tokens):
                token = next(source, _END)
                exhausted = token is _END
                if not exhausted:
                    stream.push(token)
            logits = model.decode_step([BOS_ID] + tokens, stream)
            next_id = int(logits.values.argmax())
            if next_id == eos_id:
                break
            tokens.append(next_id)
            g_values.append(stream.count)
            if on_emit is not None:
                on_emit(next_id)
            cap = max_len if max_len is not None else (
                2 * stream.count + 5 if exhausted else model.cfg.max_len
            )
            if len(tokens) >= min(cap, model.cfg.max_len):
                break
    return tokens, DecodeTrace(g_values, stream.count, tokens)


def average_lagging(trace):
    """Average Lagging of a decode trace, in source-token units.

    Averages g(i) minus the ideal diagonal (i-1) / (|y|/|x|) over steps
    until the source is fully read; a trace that never reads the full
    source is averaged over all its steps instead (see trace.truncated).
    """
    if trace.tgt_len == 0:
        raise ScheduleError("trace has no emissions")
    if trace.truncated:
        tau = trace.tgt_len
    else:
        tau = trace.g_values.index(trace.src_len) + 1
    rate = trace.tgt_len / trace.src_len
    total = 0.0
    for i in range(1, tau + 1):
        total += trace.g_values[i - 1] - (i - 1) / rate
    return total / tau
