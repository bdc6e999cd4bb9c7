"""Schedule arithmetic, mask construction, latency metric, streaming decode."""

import json

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.transformer import IncrementalModel, ModelConfig
from waitkit.waitk import (
    DecodeTrace,
    ScheduleError,
    average_lagging,
    read_counts,
    streaming_decode,
)

from conftest import build_masks


class TestSchedule:
    def test_initial_wait(self):
        assert read_counts(3, 10, 1).tolist() == [3]

    def test_clamped_by_source(self):
        assert read_counts(9, 6, 5)[-1] == 6

    def test_wait1_diagonal(self):
        for t in (1, 5, 77):
            assert read_counts(1, 10**9, t)[-1] == t

    def test_monotone_and_bounded(self):
        values = read_counts(4, 9, 19).tolist()
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert max(values) == 9

    def test_read_counts_match_read_count(self):
        """Every step's count is the scalar g(t) = min(k + t - 1, n)."""
        for k in (1, 2, 3, 7):
            for n in (1, 4, 9):
                for t_steps in (1, 2, 5, 13):
                    counts = read_counts(k, n, t_steps)
                    assert counts.dtype.kind == "i"
                    assert counts.tolist() == [
                        min(k + t - 1, n) for t in range(1, t_steps + 1)]

    def test_read_counts_bad_steps(self):
        with pytest.raises(ScheduleError, match="t_steps must be >= 1"):
            read_counts(2, 5, 0)

    def test_bad_parameters(self):
        with pytest.raises(ScheduleError, match="k must be positive, got 0"):
            read_counts(0, 5, 1)
        with pytest.raises(ScheduleError, match="source length must be"):
            read_counts(2, 0, 1)


class TestBuildMasks:
    def test_wait_all_cross_mask(self):
        cross = build_masks(7, 4, 5)
        assert cross.all()

    def test_row_visibilities(self):
        cross = build_masks(2, 4, 4)
        assert cross.sum(axis=1).tolist() == [2, 3, 4, 4]

    def test_matches_per_step_loop(self):
        cross = build_masks(3, 7, 6)
        for t in range(1, 7):
            g = min(3 + t - 1, 7)
            for j in range(7):
                assert cross[t - 1, j] == (j < g)

    def test_bad_steps(self):
        with pytest.raises(ScheduleError):
            build_masks(1, 3, 0)


class TestAverageLagging:
    def test_wait1_diagonal(self):
        trace = DecodeTrace([1, 2, 3], 3, [5, 6, 7])
        assert average_lagging(trace) == pytest.approx(1.0)

    def test_wait2_worked_example(self):
        trace = DecodeTrace([2, 3, 4, 4], 4, [5, 6, 7, 8])
        assert average_lagging(trace) == pytest.approx(2.0)

    def test_full_sentence_upper_bound(self):
        for n in (1, 4, 9):
            trace = DecodeTrace([n] * n, n, list(range(4, 4 + n)))
            assert average_lagging(trace) == pytest.approx(float(n))

    def test_exact_waitk_equals_k(self):
        # balanced lengths, no clamping at the first step
        for k in (1, 3, 5, 7, 9):
            for n in range(10, 21):
                g = [min(k + t - 1, n) for t in range(1, n + 1)]
                trace = DecodeTrace(g, n, list(range(4, 4 + n)))
                assert average_lagging(trace) == pytest.approx(float(k))

    def test_monotone_in_k(self):
        n = 12
        values = []
        for k in range(1, 10):
            g = [min(k + t - 1, n) for t in range(1, n + 1)]
            values.append(average_lagging(DecodeTrace(g, n, list(range(n)))))
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_truncated_trace_flagged(self):
        trace = DecodeTrace([1, 2], 5, [4, 4])
        assert trace.truncated
        # tau falls back to the full trace length
        assert average_lagging(trace) == pytest.approx(
            ((1 - 0) + (2 - 1 / (2 / 5))) / 2
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(ScheduleError):
            average_lagging(DecodeTrace([], 3, []))


class TestDecodeTrace:
    def test_json_round_trip(self):
        trace = DecodeTrace([2, 3, 3], 3, [7, 8, 9])
        line = trace.to_json_line()
        rec = json.loads(line)
        back = DecodeTrace(rec["g"], rec["src_len"], rec["tokens"])
        assert back.g_values == trace.g_values
        assert back.src_len == trace.src_len
        assert back.tokens == trace.tokens
        assert '"src_len":3' in line and '"tgt_len":3' in line

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DecodeTrace([1, 2], 3, [4])
        with pytest.raises(ValueError):
            DecodeTrace([3, 2], 3, [4, 5])
        # Scoring reads src_len and g_values: AL would divide by a src_len
        # of 0, and a read of none or past the source is no decode's.
        for g_values, src_len in (([1], 0), ([], 0), ([5], 3), ([0, 1], 3),
                                  ([1, 2, 4], 3)):
            with pytest.raises(ValueError,
                               match="src_len must be|must lie in"):
                DecodeTrace(g_values, src_len, [4] * len(g_values))


@pytest.fixture
def model(tiny_cfg):
    return IncrementalModel(tiny_cfg, seed=11)


class TestStreamingDecode:
    def test_single_token_source(self, model):
        tokens, trace = streaming_decode(model, [5], k=3)
        assert all(g == 1 for g in trace.g_values)
        assert trace.src_len == 1

    def test_trace_schedule(self, tiny_cfg):
        """With no eos, a decode emits up to its cap, and each token's read
        count is the wait-k schedule's, for caps below and above n and the
        default 2n + 5."""
        model = IncrementalModel(tiny_cfg, seed=3)
        tokens, trace = streaming_decode(model, [4, 5, 6, 7], k=2, max_len=5,
                                         eos_id=-1)
        assert trace.g_values == [2, 3, 4, 4, 4]
        for n in range(1, 10):
            src = list(range(4, 4 + n))
            for k in range(1, 6):
                for cap in (max(1, n - 2), n + 2, None):
                    tokens, trace = streaming_decode(model, src, k,
                                                     max_len=cap, eos_id=-1)
                    assert len(tokens) == (2 * n + 5 if cap is None else cap)
                    assert trace.g_values == read_counts(
                        k, n, len(tokens)).tolist()

    def test_empty_source_rejected(self, model):
        with pytest.raises(ScheduleError):
            streaming_decode(model, [], k=2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_rejected_before_reading(self, model, k):
        """k < 1 would read nothing and then blame the source."""
        pulls = []

        def recording_stream(ids):
            for tok in ids:
                pulls.append(tok)
                yield tok

        message = f"k must be positive, got {k}"
        with pytest.raises(ScheduleError, match=message):
            streaming_decode(model, recording_stream([4, 5, 6]), k=k)
        assert pulls == []

    def test_never_reads_ahead(self, model):
        pulls = []

        def recording_stream(ids):
            for tok in ids:
                pulls.append(len(pulls) + 1)
                yield tok

        emissions = []

        def on_emit(tok):
            emissions.append((len(emissions) + 1, pulls[-1] if pulls else 0))

        streaming_decode(model, recording_stream([4, 5, 6, 7, 8, 9]), k=2,
                         on_emit=on_emit)
        for t, consumed_at_emit in emissions:
            assert consumed_at_emit <= min(2 + t - 1, 6) + 1
        # the schedule never requires reading past g(t) before emitting t
        for t, consumed_at_emit in emissions:
            if min(2 + t - 1, 6) < 6:
                assert consumed_at_emit == min(2 + t - 1, 6)

    def test_tail_cap(self, model):
        tokens, trace = streaming_decode(model, [4, 5, 6], k=1)
        assert len(tokens) <= 2 * 3 + 5

    @pytest.mark.parametrize("n", [30, 64])
    def test_cap_clamped_to_model_max_len(self, n):
        # The default cap 2n+5 passes max_len 64 once n >= 30; a decode
        # that never emits eos must stop at the decoder's longest prefix.
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=8,
                          src_vocab=20, tgt_vocab=20, max_len=64, k=1)
        model = IncrementalModel(cfg, seed=0)
        tokens, trace = streaming_decode(model, [5] * n, k=1, eos_id=-1)
        assert len(tokens) == 64
        assert trace.src_len == n

    def test_matches_batched_greedy(self, tiny_cfg, rng):
        def batched_greedy(m, src, k, cap):
            out = []
            with T.no_grad():
                while True:
                    tgt_in = np.array([[1] + out])
                    logits, _ = m.forward(np.array([src]), tgt_in, k)
                    nxt = int(np.argmax(logits.values[0, -1]))
                    if nxt == 2 or len(out) >= cap:
                        return out
                    out.append(nxt)

        for seed in range(25):
            r = np.random.default_rng(seed)
            n = int(r.integers(1, 14))
            src = r.integers(4, tiny_cfg.src_vocab, size=n).tolist()
            m = IncrementalModel(tiny_cfg, seed=500 + seed)
            for k in (1, 3, 5):
                streamed, _ = streaming_decode(m, src, k)
                assert streamed == batched_greedy(m, src, k, 2 * n + 5)
