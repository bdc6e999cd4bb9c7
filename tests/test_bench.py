"""Multiply-accumulate identities and the closed-form cost oracle."""

import pytest

from waitkit.bench import (BLAS_THREAD_VARS, VARIANTS, BenchResult,
                           bench_forward, scaling_sweep)
from waitkit.cli import main
from waitkit.errors import ScheduleError
from waitkit.training import ConfigError
from waitkit.transformer import ModelConfig


def bench_cfg(max_len=80):
    return ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                       src_vocab=24, tgt_vocab=24, max_len=max_len, k=1)


def encoder_pass_macs(cfg, n):
    """Closed-form MAC count of one full encoder pass, derived from the
    layer structure: q/k/v/out projections, two score/value products, and
    the two feed-forward maps."""
    d, dff, h = cfg.d_model, cfg.d_ff, cfg.n_heads
    dk = d // h
    per_layer = (
        4 * n * d * d            # q, k, v, output projections
        + h * n * n * dk         # attention scores
        + h * n * n * dk         # attention-weighted values
        + 2 * n * d * dff        # feed-forward
    )
    return cfg.n_layers * per_layer


def bridge_macs(cfg, n):
    # prefix-mean matrix product plus the d x d map per source position
    d = cfg.d_model
    return n * n * d + n * d * d


class TestMacCounts:
    def test_offline_matches_closed_form(self):
        cfg = bench_cfg()
        for n in (4, 16, 33):
            result = bench_forward("offline", n, 1, cfg, trials=1)
            assert result.mac_count == encoder_pass_macs(cfg, n)

    def test_baseline_is_t_passes_at_wait1(self):
        cfg = bench_cfg()
        n = 16
        result = bench_forward("baseline_bi", n, 1, cfg, trials=1)
        expected = n * encoder_pass_macs(cfg, n)
        assert abs(result.mac_count - expected) <= 0.05 * expected

    def test_incremental_identity(self):
        cfg = bench_cfg()
        for n in (8, 21):
            incr = bench_forward("incremental_ael", n, 1, cfg, trials=1)
            offline = bench_forward("offline", n, 1, cfg, trials=1)
            assert incr.mac_count == offline.mac_count + bridge_macs(cfg, n)

    def test_incremental_independent_of_steps(self):
        cfg = bench_cfg()
        a = bench_forward("incremental_ael", 16, 1, cfg, t_steps=16, trials=1)
        b = bench_forward("incremental_ael", 16, 1, cfg, t_steps=32, trials=1)
        assert a.mac_count == b.mac_count

    def test_baseline_grows_at_least_linearly_in_t(self):
        cfg = bench_cfg(max_len=80)
        counts = []
        for t in (8, 16, 32, 64):
            r = bench_forward("baseline_bi", 64, 1, cfg, t_steps=t, trials=1)
            counts.append(r.mac_count)
        for (t0, c0), (t1, c1) in zip(
            zip((8, 16, 32, 64), counts), zip((16, 32, 64), counts[1:])
        ):
            assert c1 >= c0 * (t1 / t0) * 0.95

    def test_baseline_macs_decrease_with_k(self):
        cfg = bench_cfg()
        counts = [
            bench_forward("baseline_bi", 24, k, cfg, trials=1).mac_count
            for k in (1, 9, 17)
        ]
        assert counts[0] > counts[1] > counts[2]

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            bench_forward("nonsense", 8, 1, bench_cfg(), trials=1)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("k, n", [(0, 8), (1, 0)])
    def test_schedule_refused_by_every_variant(self, variant, k, n):
        with pytest.raises(ScheduleError):
            bench_forward(variant, n, k, bench_cfg(), trials=1)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("t_steps", [0, -1])
    def test_t_steps_refused_by_every_variant(self, variant, t_steps):
        with pytest.raises(ScheduleError, match="t_steps must be >= 1"):
            bench_forward(variant, 8, 1, bench_cfg(), t_steps=t_steps,
                          trials=1)

    @pytest.mark.parametrize("variant", ["offline", "incremental_ael"])
    def test_full_sentence_variants_ignore_t_steps(self, variant):
        """Only the recompute baseline's cost depends on t_steps."""
        one, full = (bench_forward(variant, 8, 1, bench_cfg(), t_steps=t,
                                   trials=1) for t in (1, 8))
        assert (one.t_steps, full.t_steps) == (1, 8)
        assert one.mac_count == full.mac_count


class TestStreamingCost:
    def test_per_token_cost_closed_form(self):
        """Pushing token t costs the fixed projection/feed-forward work plus
        attention over the t cached positions, and the keys and values of
        its state row in every decoder layer's cross-attention cache; there
        is no re-encoding term."""
        import numpy as np

        from waitkit import tensor as T
        from waitkit.transformer import IncrementalModel

        cfg = bench_cfg(max_len=80)
        model = IncrementalModel(cfg, seed=0)
        stream = model.start_stream()
        d, dff, h = cfg.d_model, cfg.d_ff, cfg.n_heads
        dk = d // h
        per_layer_fixed = 4 * d * d + 2 * d * dff
        bridge = d * d
        cross_kv = cfg.n_layers * 2 * d * d
        rng = np.random.default_rng(0)
        for t in range(1, 41):
            T.mac_counter.count = 0
            stream.push(int(rng.integers(4, cfg.src_vocab)))
            expected = (cfg.n_layers * (per_layer_fixed + 2 * h * t * dk)
                        + bridge + cross_kv)
            assert T.mac_counter.count == expected

    def test_per_emission_cost_closed_form(self):
        """Writing target row t over c read rows costs, per decoder layer,
        self-attention's four projections and its attention over t rows,
        cross-attention's query and output projections and its attention
        over c rows, and the feed-forward; then the bridge shift of the
        last layer and the output projection. No term grows with the rows
        read since the last write: push projected them."""
        import numpy as np

        from waitkit import tensor as T
        from waitkit.transformer import IncrementalModel

        cfg = bench_cfg()
        model = IncrementalModel(cfg, seed=0)
        d, dff, n_layers = cfg.d_model, cfg.d_ff, cfg.n_layers
        src = np.random.default_rng(1).integers(4, cfg.src_vocab, 20)
        for k in (1, 3):
            stream, prefix = model.start_stream(), [1]
            for t in range(1, 31):
                while stream.count < min(k + t - 1, len(src)):
                    stream.push(int(src[stream.count]))
                c = stream.count
                T.mac_counter.count = 0
                logits = model.decode_step(prefix, stream).values
                per_layer = (4 * d * d + 2 * t * d        # self-attention
                             + 2 * d * d + 2 * c * d      # cross-attention
                             + 2 * d * dff)               # feed-forward
                expected = (n_layers * per_layer + 2 * d * d
                            + cfg.tgt_vocab * d)
                assert T.mac_counter.count == expected, (k, t)
                prefix.append(int(np.argmax(logits)))


class TestTiming:
    def test_result_fields(self):
        cfg = bench_cfg()
        r = bench_forward("offline", 8, 1, cfg, trials=5)
        assert isinstance(r, BenchResult)
        assert r.median_secs > 0
        assert r.mac_count > 0
        assert r.trials == 5

    def test_call_adds_exactly_its_mac_count(self, monkeypatch):
        """However many timed runs fill a sample, a call grows the global
        tally by its mac_count, the MACs of one forward pass."""
        from waitkit import bench
        from waitkit import tensor as T

        for secs in (0.005, 0.02):
            monkeypatch.setattr(bench, "MIN_SAMPLE_SECS", secs)
            before = T.mac_counter.count
            r = bench_forward("incremental_ael", 8, 1, bench_cfg(), trials=2)
            assert T.mac_counter.count - before == r.mac_count, secs

    def test_trials_validated(self):
        with pytest.raises(ConfigError):
            bench_forward("offline", 8, 1, bench_cfg(), trials=0)

    def test_sweep_csv(self, tmp_path, monkeypatch):
        """scaling_sweep returns a row per variant, n and k; `waitkit bench`
        at bench_cfg's size writes them, median_secs aside, on one BLAS
        thread in this process."""
        results = scaling_sweep([8], [1, 3], bench_cfg(), trials=1)
        assert len(results) == 6
        for name in BLAS_THREAD_VARS:
            monkeypatch.setenv(name, "1")
        path = tmp_path / "bench.csv"
        assert main(["bench", "vocab_size=24", "d_model=16", "d_ff=32",
                     "max_seq_len=80", "k=1", "bench_n=8", "bench_k=1,3",
                     "bench_trials=1", f"bench_out={path}"]) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "variant,n,T,k,median_secs,mac_count"
        assert len(lines) == 7
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:4] + row[5:] for row in rows] == [
            [r.variant, str(r.n), str(r.t_steps), str(r.k), str(r.mac_count)]
            for r in results]
