"""Encoder variants, the averaged-embedding bridge, decoder parity, and
checkpoint round-trips."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit import transformer
from waitkit.checkpoint import CheckpointError, load_models, save_models
from waitkit.errors import NumericalError
from waitkit.tensor import Tensor
from waitkit.training import synthetic_vocab
from waitkit.transformer import (
    IncrementalModel,
    LengthError,
    ModelConfig,
    MultiHeadAttention,
    TeacherModel,
    average_embedding_states,
    encode_waitk_recompute,
)
from waitkit.waitk import ScheduleError, WaitKSchedule, read_count

from conftest import (full_h, h_slice, reference_named_parameters,
                      reshape)


def _tokens(rng, cfg, n):
    return rng.integers(4, cfg.src_vocab, size=n)


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, n_heads=3)

    def test_positive_extents(self):
        with pytest.raises(ValueError):
            ModelConfig(n_layers=0)

    def test_d_k(self):
        assert ModelConfig(d_model=32, n_heads=4).d_k == 8

    def test_n_values_counts_what_the_pair_holds(self):
        """n_values is the parameters of a TeacherModel and an
        IncrementalModel plus their four position tables."""
        for cfg in (ModelConfig(),
                    ModelConfig(n_layers=3, d_model=12, n_heads=3, d_ff=7,
                                src_vocab=11, tgt_vocab=13, max_len=9)):
            models = TeacherModel(cfg), IncrementalModel(cfg)
            held = sum(p.values.size for m in models for p in m.parameters())
            held += sum(m.encoder.pe.size + m.decoder.pe.size for m in models)
            assert cfg.n_values == held

    def test_models_share_one_read_only_position_table(self):
        """Every stack of one shape reads the same cached table, and no
        caller can write it."""
        cfg = ModelConfig()
        stacks = [m.encoder for m in (TeacherModel(cfg), IncrementalModel(
            cfg))] + [TeacherModel(cfg).decoder]
        assert all(s.pe is stacks[0].pe for s in stacks)
        assert not stacks[0].pe.flags.writeable
        with pytest.raises(ValueError):
            stacks[0].pe[0, 0] = 1.0

    def test_size_bound(self, monkeypatch):
        """A config over MAX_MODEL_VALUES raises from its arithmetic alone:
        no model of it is built."""
        import waitkit.transformer as tr

        with pytest.raises(ValueError, match="more than the limit"):
            ModelConfig(src_vocab=10 ** 11)
        with pytest.raises(ValueError, match="more than the limit"):
            ModelConfig(max_len=10 ** 9)
        n = ModelConfig().n_values
        monkeypatch.setattr(tr, "MAX_MODEL_VALUES", n)
        ModelConfig()
        monkeypatch.setattr(tr, "MAX_MODEL_VALUES", n - 1)
        with pytest.raises(ValueError, match="more than the limit"):
            ModelConfig()


class TestMultiHeadAttention:
    def test_concentration_on_matching_key(self, rng):
        cfg = ModelConfig(d_model=8, n_heads=1, src_vocab=8, tgt_vocab=8)
        attn = MultiHeadAttention(np.random.default_rng(0), cfg)
        # identity projections isolate the raw attention pattern
        for lin in (attn.wq, attn.wk, attn.wv, attn.wo):
            lin.w.values[...] = np.eye(8)
            lin.b.values[...] = 0.0
        scale = 50.0
        key0 = np.zeros(8)
        key0[0] = scale
        key1 = np.zeros(8)
        key1[1] = scale
        queries = Tensor(key0[None, None, :])
        memory = Tensor(np.stack([key0, key1])[None, :, :])
        out = attn(queries, memory).values[0, 0]
        # the query matches key0, so the output is (almost) value0
        assert np.allclose(out, key0, atol=1e-6)

    def test_uniform_scores_average_values(self, rng):
        cfg = ModelConfig(d_model=4, n_heads=1, src_vocab=8, tgt_vocab=8)
        attn = MultiHeadAttention(np.random.default_rng(0), cfg)
        for lin in (attn.wq, attn.wk, attn.wv, attn.wo):
            lin.w.values[...] = np.eye(4)
            lin.b.values[...] = 0.0
        queries = Tensor(np.zeros((1, 1, 4)))     # zero query: uniform scores
        values = rng.normal(size=(1, 3, 4))
        out = attn(queries, Tensor(values)).values[0, 0]
        assert np.allclose(out, values[0].mean(axis=0), atol=1e-12)

    def test_causal_mask_matches_truncation(self, rng, tiny_cfg):
        attn = MultiHeadAttention(np.random.default_rng(2), tiny_cfg)
        x = rng.normal(size=(1, 6, tiny_cfg.d_model))
        mask = np.tril(np.ones((6, 6), dtype=bool))
        full = attn(Tensor(x), Tensor(x), mask).values
        for p in range(1, 7):
            part = attn(Tensor(x[:, :p]), Tensor(x[:, :p]),
                        np.tril(np.ones((p, p), dtype=bool))).values
            assert np.abs(full[:, :p] - part).max() <= 1e-12


class TestBidirectionalEncoder:
    def test_output_shape(self, tiny_cfg, rng):
        model = TeacherModel(tiny_cfg, seed=0)
        for n in (1, 5, 12):
            out = model.encode(_tokens(rng, tiny_cfg, n))
            assert out.shape == (n, tiny_cfg.d_model)
            assert out.shape[0] == n

    def test_position_sensitivity(self, tiny_cfg):
        model = TeacherModel(tiny_cfg, seed=1)
        ids = np.array([4, 5, 6, 7])
        swapped = np.array([5, 4, 6, 7])
        a = model.encode(ids).values
        b = model.encode(swapped).values
        # swapping tokens does not just permute rows: positions matter
        assert not np.allclose(a[[1, 0, 2, 3]], b)

    def test_finite_outputs_fuzz(self, tiny_cfg, rng):
        model = TeacherModel(tiny_cfg, seed=2)
        for _ in range(100):
            n = int(rng.integers(1, tiny_cfg.max_len + 1))
            out = model.encode(_tokens(rng, tiny_cfg, n))
            assert np.isfinite(out.values).all()

    def test_overlength_rejected(self, tiny_cfg, rng):
        model = TeacherModel(tiny_cfg, seed=0)
        with pytest.raises(LengthError):
            model.encode(_tokens(rng, tiny_cfg, tiny_cfg.max_len + 1))


class TestUnidirectionalEncoder:
    def test_first_row_stable(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=3)
        ids = _tokens(rng, tiny_cfg, 8)
        full = model.encode(ids).values
        one = model.encode(ids[:1]).values
        assert np.abs(full[0] - one[0]).max() <= 1e-12

    def test_prefix_truncation_equality(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=4)
        ids = _tokens(rng, tiny_cfg, 11)
        full = model.encode(ids).values
        for p in range(1, 12):
            part = model.encode(ids[:p]).values
            assert np.abs(full[:p] - part).max() <= 1e-12

    def test_appending_token_preserves_rows(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=5)
        ids = _tokens(rng, tiny_cfg, 9)
        before = model.encode(ids[:8]).values
        after = model.encode(ids).values
        assert np.abs(after[:8] - before).max() <= 1e-12


class TestStreamingEncoder:
    def test_first_push_matches_batch(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=6)
        ids = _tokens(rng, tiny_cfg, 1)
        stream = model.start_stream()
        row = stream.push(int(ids[0]))
        batch = model.encode(ids).values
        assert np.abs(row - batch[0]).max() <= 1e-12

    def test_token_by_token_matches_batch(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=7)
        ids = _tokens(rng, tiny_cfg, 13)
        stream = model.start_stream()
        rows = np.array([stream.push(int(t)) for t in ids])
        batch = model.encode(ids).values
        assert np.abs(rows - batch).max() <= 1e-12

    def test_running_mean_invariant(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=8)
        ids = _tokens(rng, tiny_cfg, 7)
        stream = model.start_stream()
        with T.no_grad():
            _, inputs = model.encoder.forward(np.asarray(ids)[None, :],
                                              causal=True)
        for i, tok in enumerate(ids):
            stream.push(int(tok))
            expected = inputs.values[0, : i + 1].mean(axis=0)
            mean = stream.running_sum / stream.count
            assert np.abs(mean - expected).max() <= 1e-12

    def test_overlength_rejected(self, tiny_cfg):
        model = IncrementalModel(tiny_cfg, seed=6)
        stream = model.start_stream()
        for _ in range(tiny_cfg.max_len):
            stream.push(4)
        with pytest.raises(LengthError):
            stream.push(4)


class TestRecomputeEncoder:
    def test_full_prefix_matches_bidirectional(self, tiny_cfg, rng):
        model = TeacherModel(tiny_cfg, seed=9)
        ids = _tokens(rng, tiny_cfg, 6)
        sched = WaitKSchedule(6, 6)   # g(1) = 6 immediately
        out = encode_waitk_recompute(model.encoder, ids, sched, 3).values
        ref = model.encode(ids).values
        for t in range(3):
            assert np.abs(out[t] - ref).max() <= 1e-12

    def test_rows_match_truncated_encoding(self, tiny_cfg, rng):
        model = TeacherModel(tiny_cfg, seed=10)
        ids = _tokens(rng, tiny_cfg, 8)
        sched = WaitKSchedule(2, 8)
        out = encode_waitk_recompute(model.encoder, ids, sched, 9).values
        for t in range(1, 10):
            g = read_count(2, t, 8)
            ref = model.encode(ids[:g]).values
            assert np.abs(out[t - 1, :g] - ref).max() <= 1e-12
            assert np.all(out[t - 1, g:] == 0.0)

    def test_wait1_produces_distinct_prefixes(self, tiny_cfg, rng):
        model = TeacherModel(tiny_cfg, seed=11)
        ids = _tokens(rng, tiny_cfg, 4)
        out = encode_waitk_recompute(model.encoder, ids, WaitKSchedule(1, 4),
                                     4).values
        lengths = [(np.abs(out[t]).sum(axis=-1) > 0).sum() for t in range(4)]
        assert lengths == [1, 2, 3, 4]


class TestAveragedEmbeddingBridge:
    def test_two_point_mean(self, rng):
        inputs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        states = Tensor(np.zeros((2, 2)))
        weight = Tensor(np.eye(2))
        inc = average_embedding_states(inputs, states, weight)
        assert np.allclose(inc.f.values[1], [0.5, 0.5])

    def test_identical_inputs_constant_mean(self, rng):
        inputs = Tensor(np.tile(rng.normal(size=4), (6, 1)))
        states = Tensor(rng.normal(size=(6, 4)))
        inc = average_embedding_states(inputs, states, Tensor(np.eye(4)))
        assert np.abs(inc.f.values - inc.f.values[0]).max() <= 1e-12

    def test_parallel_matches_sequential(self, rng):
        for n in (1, 2, 17, 33, 64):
            inputs = rng.normal(size=(n, 8))
            weight = rng.normal(size=(8, 8))
            inc = average_embedding_states(
                Tensor(inputs), Tensor(rng.normal(size=(n, 8))), Tensor(weight)
            )
            for i in range(n):
                seq = inputs[: i + 1].mean(axis=0) @ weight.T
                assert np.abs(inc.f.values[i] - seq).max() <= 1e-12

    def test_zero_branch_exact(self, rng):
        n, d = 7, 6
        inc = average_embedding_states(
            Tensor(rng.normal(size=(n, d))),
            Tensor(rng.normal(size=(n, d))),
            Tensor(rng.normal(size=(d, d))),
        )
        h = full_h(inc).values
        for i in range(n):
            for j in range(n):
                if j > i:
                    assert np.all(h[i, j] == 0.0)
                else:
                    expected = inc.f.values[i] + inc.z.values[j]
                    assert np.abs(h[i, j] - expected).max() <= 1e-12

    def test_h_slice_matches_full(self, rng):
        n, d = 5, 4
        inc = average_embedding_states(
            Tensor(rng.normal(size=(n, d))),
            Tensor(rng.normal(size=(n, d))),
            Tensor(rng.normal(size=(d, d))),
        )
        h = full_h(inc).values
        for i in range(1, n + 1):
            assert np.allclose(h_slice(inc, i).values, h[i - 1, :i], atol=1e-15)

    def test_shape_mismatch(self, rng):
        with pytest.raises(T.DimensionError):
            average_embedding_states(
                Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 4))),
                Tensor(np.eye(4)),
            )


class TestDecoding:
    def test_zero_bridge_reduces_to_plain_memory(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=12)
        model.bridge_w.values[...] = 0.0
        ids = _tokens(rng, tiny_cfg, 5)
        prefix = [1, 4, 5]
        states = model.incremental_states(ids)
        with T.no_grad():
            logits = model.decode_step(prefix, states, g_t=5, k=99).values
            # separate decoder pass whose last layer reads the raw states
            z = reshape(states.z, (1, 5, tiny_cfg.d_model))
            plain = model.decoder.forward(
                np.array([prefix]), z, cross_mask=None
            ).values[0, -1]
        assert np.abs(logits - plain).max() <= 1e-12

    def test_logits_shape_and_finite(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=13)
        ids = _tokens(rng, tiny_cfg, 6)
        states = model.incremental_states(ids)
        with T.no_grad():
            logits = model.decode_step([1], states, g_t=2)
        assert logits.shape == (tiny_cfg.tgt_vocab,)
        assert np.isfinite(logits.values).all()

    def test_g_out_of_range(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=13)
        states = model.incremental_states(_tokens(rng, tiny_cfg, 4))
        with pytest.raises(ScheduleError):
            model.decode_step([1], states, g_t=5)
        with pytest.raises(ScheduleError):
            model.decode_step([1], states, g_t=0)

    @pytest.mark.parametrize("prefix", [[1], [1, 5, 6]])
    @pytest.mark.parametrize("k", [0, -2])
    def test_non_positive_k_rejected(self, tiny_cfg, rng, k, prefix):
        """With k < 1, row 0 would read no source row but add a bridge row.
        The call is refused before any row is computed, so the cached rows
        serve the next call as fresh states would."""
        model = IncrementalModel(tiny_cfg, seed=13)
        src = _tokens(rng, tiny_cfg, 4)
        states = model.incremental_states(src)
        model.decode_step([1, 5], states, 2, 2)
        message = f"k must be positive, got {k}"
        with pytest.raises(ScheduleError, match=message):
            model.decode_step(prefix, states, 3, k)
        after = model.decode_step([1, 5, 6], states, 3, 2).values
        fresh = model.decode_step([1, 5, 6], model.incremental_states(src),
                                  3, 2).values
        assert np.array_equal(after, fresh)

    def test_batched_forward_matches_step_loop(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=14)
        k = 2
        ids = _tokens(rng, tiny_cfg, 7)
        tgt = rng.integers(4, tiny_cfg.tgt_vocab, size=6)
        tgt_in = np.concatenate([[1], tgt])
        with T.no_grad():
            batched, _ = model.forward(ids[None, :], tgt_in[None, :], k)
            states = model.incremental_states(ids)
            for t in range(1, len(tgt_in) + 1):
                g_t = min(k + t - 1, 7)
                step = model.decode_step(tgt_in[:t], states, g_t, k)
                assert np.abs(step.values - batched.values[0, t - 1]).max() <= 1e-12

    def test_wait_all_equals_full_coverage(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=15)
        ids = _tokens(rng, tiny_cfg, 5)
        tgt_in = np.array([1, 4, 5, 6])
        with T.no_grad():
            a, _ = model.forward(ids[None, :], tgt_in[None, :], k=5)
            b, _ = model.forward(ids[None, :], tgt_in[None, :], k=50)
        assert np.abs(a.values - b.values).max() <= 1e-12

    def test_student_logits_finite_fuzz(self, tiny_cfg, rng):
        model = IncrementalModel(tiny_cfg, seed=16)
        with T.no_grad():
            for _ in range(100):
                n = int(rng.integers(1, 15))
                m = int(rng.integers(1, 15))
                src = rng.integers(4, 20, size=(1, n))
                tgt = rng.integers(4, 20, size=(1, m))
                logits, _ = model.forward(src, tgt, k=int(rng.integers(1, 6)))
                assert np.isfinite(logits.values).all()


class TestTeacherModel:
    def test_forward_shapes_and_determinism(self, tiny_cfg, rng):
        model = TeacherModel(tiny_cfg, seed=17)
        src = rng.integers(4, 20, size=(2, 6))
        tgt = rng.integers(4, 20, size=(2, 5))
        with T.no_grad():
            a, za = model.forward(src, tgt)
            b, zb = model.forward(src, tgt)
        assert a.shape == (2, 5, tiny_cfg.tgt_vocab)
        assert za.shape == (2, 6, tiny_cfg.d_model)
        assert np.array_equal(a.values, b.values)

    def test_same_seed_same_parameters(self, tiny_cfg):
        a = TeacherModel(tiny_cfg, seed=21)
        b = TeacherModel(tiny_cfg, seed=21)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.values, pb.values)


@pytest.mark.parametrize("model_cls", [TeacherModel, IncrementalModel])
def test_non_finite_encoder_states_raise(tiny_cfg, model_cls):
    model = model_cls(tiny_cfg, seed=0)
    model.encoder.final_ln.gain.values[0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        model.encode(np.array([4, 5, 6]))


def write_checkpoint(path, cfg, vocab, blocks):
    """A version 2 checkpoint of (name, Tensor) blocks in the order given,
    with vocab as both vocabularies: the layout save_models writes."""
    lines = (["waitkit-checkpoint v2"]
             + [f"{key}={value}"
                for key, value in dataclasses.asdict(cfg).items()]
             + [f"vocab_{side}=" + " ".join(vocab.tokens)
                for side in ("src", "tgt")]
             + [f"param {name} " + " ".join(map(str, p.shape))
                for name, p in blocks])
    header = ("\n".join(lines) + "\n").encode()
    payload = b"".join(p.values.astype("<f8").tobytes()
                       for _, p in blocks)
    digest = hashlib.sha256(header + payload).hexdigest()
    path.write_bytes(header + f"checksum={digest}\nend_header\n".encode()
                     + payload)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tiny_cfg, tmp_path, rng):
        teacher = TeacherModel(tiny_cfg, seed=18)
        student = IncrementalModel(tiny_cfg, seed=19)
        # make values irregular so any re-encoding slip would show
        for p in student.parameters():
            p.values += rng.normal(size=p.values.shape) * 1e-3
        vocab = synthetic_vocab(20)
        path = tmp_path / "model.ckpt"
        save_models(path, teacher, student, vocab, vocab, {"train_k": 2})
        teacher2, student2, v1, v2, meta = load_models(path)
        assert meta["train_k"] == "2"
        assert v1.tokens == vocab.tokens
        for a, b in zip(teacher.parameters(), teacher2.parameters()):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(student.parameters(), student2.parameters()):
            assert np.array_equal(a.values, b.values)
        # loaded model behaves identically
        src = rng.integers(4, 20, size=(1, 5))
        tgt = rng.integers(4, 20, size=(1, 4))
        with T.no_grad():
            la, _ = student.forward(src, tgt, 2)
            lb, _ = student2.forward(src, tgt, 2)
        assert np.array_equal(la.values, lb.values)

    def test_load_draws_no_initial_values(self, tiny_cfg, tmp_path,
                                          monkeypatch):
        """load_models overwrites every parameter from the payload, so it
        builds the pair without drawing initial values: no uniform_init
        call advances its generator."""
        vocab = synthetic_vocab(20)
        path = tmp_path / "model.ckpt"
        save_models(path, TeacherModel(tiny_cfg, seed=18),
                    IncrementalModel(tiny_cfg, seed=19), vocab, vocab)
        drew, init = [], transformer.uniform_init

        def watching(rng, shape, bound):
            state = rng.bit_generator.state
            out = init(rng, shape, bound)
            drew.append(rng.bit_generator.state != state)
            return out

        monkeypatch.setattr(transformer, "uniform_init", watching)
        load_models(path)
        assert drew and not any(drew)

    def test_save_and_load_copy_the_payload_at_most_once(self, tmp_path):
        """save_models hashes and writes the parameter blocks where they
        lie, and load_models hashes and reads views of the file's bytes:
        the traced peak of a save stays under half the payload, and that
        of a load, which holds the file's bytes and builds the pair, under
        2.5 times it."""
        cfg = ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ff=128,
                          src_vocab=32, tgt_vocab=32, max_len=64)
        teacher = TeacherModel(cfg, seed=0)
        student = IncrementalModel(cfg, seed=1)
        payload = 8 * sum(p.values.size for p in
                          teacher.parameters() + student.parameters())
        vocab = synthetic_vocab(32)
        path = tmp_path / "model.ckpt"
        peaks = []
        tracemalloc.start()
        try:
            for run in (lambda: save_models(path, teacher, student, vocab,
                                            vocab),
                        lambda: load_models(path)):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run()
                peaks.append((tracemalloc.get_traced_memory()[1] - base)
                             / payload)
        finally:
            tracemalloc.stop()
        assert peaks[0] < 0.5 and peaks[1] < 2.5, peaks

    def test_corrupted_payload_rejected(self, tiny_cfg, tmp_path):
        teacher = TeacherModel(tiny_cfg, seed=18)
        student = IncrementalModel(tiny_cfg, seed=19)
        vocab = synthetic_vocab(20)
        path = tmp_path / "model.ckpt"
        save_models(path, teacher, student, vocab, vocab)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_models(path)

    @pytest.mark.parametrize("model_cls", [TeacherModel, IncrementalModel])
    def test_named_parameters_are_exactly_parameters(self, tiny_cfg,
                                                     model_cls):
        """Checkpoints save named_parameters() while Adam trains
        parameters(); a parameter under an attribute name the walk does not
        know would be trained but never saved."""
        model = model_cls(tiny_cfg, seed=0)
        named = [id(p) for p in model.named_parameters().values()]
        trained = [id(p) for p in model.parameters()]
        assert len(set(trained)) == len(trained)
        assert sorted(named) == sorted(trained)

    @pytest.mark.parametrize("model_cls", [TeacherModel, IncrementalModel])
    def test_named_parameters_match_reference_walk(self, model_cls):
        """Each module names its own parameters; the names and the tensors
        they bind are those of the fixed-attribute walk it replaced."""
        cfg = ModelConfig(n_layers=3, d_model=16, n_heads=2, d_ff=32,
                          src_vocab=20, tgt_vocab=20, max_len=40)
        model = model_cls(cfg, seed=0)
        ref = {name: id(p)
               for name, p in reference_named_parameters(model).items()}
        named = {name: id(p) for name, p in model.named_parameters().items()}
        assert named == ref

    def test_breadth_first_checkpoint_loads(self, tiny_cfg, tmp_path, rng):
        """Checkpoints list their param lines in the order they were named,
        breadth first before modules named their own parameters; loading
        goes by name, so such a file loads bit-identically."""
        teacher = TeacherModel(tiny_cfg, seed=18)
        student = IncrementalModel(tiny_cfg, seed=19)
        for p in teacher.parameters() + student.parameters():
            p.values += rng.normal(size=p.shape) * 1e-3
        named = {}
        for prefix, model in (("teacher", teacher), ("student", student)):
            for name, p in reference_named_parameters(model).items():
                named[f"{prefix}.{name}"] = p
        assert list(named) != [*teacher.named_parameters("teacher."),
                               *student.named_parameters("student.")]
        vocab = synthetic_vocab(20)
        path = tmp_path / "bfs.ckpt"
        write_checkpoint(path, tiny_cfg, vocab, list(named.items()))
        teacher2, student2, _, _, _ = load_models(path)
        for a, b in zip(teacher.parameters() + student.parameters(),
                        teacher2.parameters() + student2.parameters()):
            assert np.array_equal(a.values, b.values)

    def test_writer_matches_save_models(self, tiny_cfg, tmp_path):
        """write_checkpoint, which the tests here use to write what
        save_models would not, writes save_models' bytes for its order."""
        teacher = TeacherModel(tiny_cfg, seed=18)
        student = IncrementalModel(tiny_cfg, seed=19)
        vocab = synthetic_vocab(20)
        save_models(tmp_path / "a.ckpt", teacher, student, vocab, vocab)
        write_checkpoint(tmp_path / "b.ckpt", tiny_cfg, vocab,
                         [*teacher.named_parameters("teacher.").items(),
                          *student.named_parameters("student.").items()])
        assert ((tmp_path / "a.ckpt").read_bytes()
                == (tmp_path / "b.ckpt").read_bytes())

    @pytest.mark.parametrize("extra", ["student.extra_layer.w",
                                       "teacher.decoder.out.w"])
    def test_unknown_or_repeated_param_rejected(self, tiny_cfg, tmp_path,
                                                extra):
        """A block that names no parameter of the pair, or one already
        read, is refused; a loader that skipped it would load silently."""
        teacher = TeacherModel(tiny_cfg, seed=18)
        student = IncrementalModel(tiny_cfg, seed=19)
        blocks = [*teacher.named_parameters("teacher.").items(),
                  *student.named_parameters("student.").items(),
                  (extra, teacher.decoder.out.w)]
        path = tmp_path / "extra.ckpt"
        write_checkpoint(path, tiny_cfg, synthetic_vocab(20), blocks)
        with pytest.raises(CheckpointError,
                           match=f"unknown or repeated parameter {extra}$"):
            load_models(path)

    def test_missing_marker_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_models(path)
