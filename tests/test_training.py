"""Loss composition, optimizer behavior, synthetic tasks, corpus loading."""

import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.tensor import Tensor
from waitkit.training import (
    ADAM_BLOCK,
    Adam,
    ConfigError,
    IngestionError,
    METRICS_HEADER,
    ParallelExample,
    SyntheticTaskSpec,
    TrainConfig,
    MODES,
    generate_synthetic,
    load_corpus,
    make_batches,
    pad_batch,
    total_loss,
    train,
    train_step,
)
from waitkit.transformer import (Decoder, IncrementalModel, ModelConfig,
                                 TeacherModel)

from conftest import EagerAdam, check_gradients, eager_backward


@pytest.fixture
def small_model_cfg():
    return ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                       src_vocab=16, tgt_vocab=16, max_len=32, k=2)


def _copy_examples(count=64, vocab=16, lo=3, hi=6, seed=0):
    spec = SyntheticTaskSpec(kind="copy", vocab_size=vocab, min_len=lo,
                             max_len=hi, seed=seed)
    return generate_synthetic(spec, count)


class TestTotalLoss:
    def _parts(self, rng, rows=4, vocab=8, n=5, d=6):
        s_logits = Tensor(rng.normal(size=(rows, vocab)), requires_grad=True)
        t_logits = Tensor(rng.normal(size=(rows, vocab)), requires_grad=True)
        targets = rng.integers(0, vocab, size=rows)
        z_i = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        z_f = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        return s_logits, t_logits, targets, z_i, z_f

    def test_lambda_zero_is_sum_of_cross_entropies(self, rng):
        s, t, y, zi, zf = self._parts(rng)
        loss, comps = total_loss(s, t, y, zi, zf, 0.0)
        ce_s = T.cross_entropy(Tensor(s.values), y).item()
        ce_t = T.cross_entropy(Tensor(t.values), y).item()
        assert loss.item() == ce_s + ce_t
        assert comps["loss_distill"] > 0

    def test_matched_states_zero_distillation(self, rng):
        s, t, y, zi, _ = self._parts(rng)
        zf = Tensor(zi.values.copy())
        loss, comps = total_loss(s, t, y, zi, zf, 0.5)
        assert comps["loss_distill"] == 0.0

    def test_distillation_gradient(self, rng):
        s, t, y, zi, zf = self._parts(rng)
        check_gradients(
            lambda: total_loss(s, t, y, zi, zf, 0.1)[0], [zi, zf, s, t]
        )

    def test_frozen_mode_drops_teacher_term(self, rng):
        """Without teacher logits, as a frozen-teacher step calls it, the
        loss has no teacher term and its components no loss_teacher."""
        s, t, y, zi, zf = self._parts(rng)
        loss, comps = total_loss(s, None, y, zi, zf, 0.1)
        ce_s = T.cross_entropy(Tensor(s.values), y).item()
        assert "loss_teacher" not in comps
        assert loss.item() == pytest.approx(
            ce_s + 0.1 * comps["loss_distill"], rel=1e-12
        )

    def test_frozen_mode_blocks_teacher_gradient(self, rng):
        """total_loss distils toward the states it is given: detached ones
        get no gradient, and the student's still do."""
        s, t, y, zi, zf = self._parts(rng)
        with T.Tape() as tape:
            loss, _ = total_loss(s, None, y, zi, T.detach(zf), 0.1)
            tape.backward(loss)
        assert np.array_equal(zf.grad, np.zeros_like(zf.values))
        assert not np.array_equal(zi.grad, np.zeros_like(zi.values))

    def test_shape_mismatch(self, rng):
        s, t, y, zi, _ = self._parts(rng)
        zf = Tensor(rng.normal(size=(3, 6)))
        with pytest.raises(T.DimensionError):
            total_loss(s, t, y, zi, zf, 0.1)


class TestPadding:
    def test_padded_positions_contribute_nothing(self, rng, small_model_cfg):
        teacher = TeacherModel(small_model_cfg, seed=0)
        student = IncrementalModel(small_model_cfg, seed=1)
        short = ParallelExample([4, 5, 6], [7, 8])
        long = ParallelExample([7, 8, 9], [4, 5, 6, 7])
        src, tgt_in, tgt_out, mask = pad_batch([short, long])
        with T.no_grad():
            t_logits, z_f = teacher.forward(src, tgt_in)
            s_logits, z_i = student.forward(src, tgt_in, 2)
            batched, comps = total_loss(s_logits, t_logits, tgt_out, z_i, z_f,
                                        0.1, pad_mask=mask)
            # per-sentence computation, no padding anywhere
            total_s, total_t, count = 0.0, 0.0, 0
            for ex in (short, long):
                s1, ti, to, m1 = pad_batch([ex])
                tl, zf1 = teacher.forward(s1, ti)
                sl, zi1 = student.forward(s1, ti, 2)
                rows = int(m1.sum())
                total_s += T.cross_entropy(sl, to, m1).item() * rows
                total_t += T.cross_entropy(tl, to, m1).item() * rows
                count += rows
        assert comps["loss_student"] == pytest.approx(total_s / count, rel=1e-9)
        assert comps["loss_teacher"] == pytest.approx(total_t / count, rel=1e-9)

    def test_mixed_source_lengths_rejected(self):
        with pytest.raises(ConfigError):
            pad_batch([ParallelExample([4], [4]),
                       ParallelExample([4, 5], [4, 5])])


class TestAdamAndSteps:
    def test_loss_decreases_on_fixed_batch(self, small_model_cfg):
        examples = _copy_examples(16, lo=4, hi=4, seed=3)
        teacher = TeacherModel(small_model_cfg, seed=0)
        student = IncrementalModel(small_model_cfg, seed=1)
        cfg = TrainConfig(max_steps=10, seed=0, k=2, batch_size=16)
        opt = Adam(teacher.parameters() + student.parameters(), lr=1e-3,
                   beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)
        losses = []
        for _ in range(10):
            rec = train_step(teacher, student, examples, opt, cfg)
            losses.append(rec["loss_student"] + rec["loss_teacher"])
        assert losses[-1] < losses[0]
        assert all(b <= a * 1.05 for a, b in zip(losses, losses[1:]))

    def test_bit_identical_trajectories(self, small_model_cfg):
        examples = _copy_examples(64, seed=5)
        cfg = TrainConfig(max_steps=50, seed=9, k=2, batch_size=8)
        _, student_a, rows_a = train(examples, small_model_cfg, cfg)
        _, student_b, rows_b = train(examples, small_model_cfg, cfg)
        assert rows_a == rows_b
        for pa, pb in zip(student_a.parameters(), student_b.parameters()):
            assert np.array_equal(pa.values, pb.values)

    def test_distill_component_positive_at_step_one(self, small_model_cfg):
        examples = _copy_examples(32, seed=6)
        cfg = TrainConfig(lambda_distill=0.1, max_steps=1, seed=2, k=2,
                          batch_size=8)
        _, _, rows = train(examples, small_model_cfg, cfg)
        assert rows[0][3] > 0.0   # loss_distill column

    @pytest.mark.parametrize("mode", MODES)
    def test_no_examples_rejected_before_any_model(self, monkeypatch, mode):
        """With no examples every epoch is empty, and the batch stream
        would loop forever looking for a batch."""
        def build(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(TeacherModel, "__init__", build)
        with pytest.raises(ConfigError, match="at least one example"):
            train([], ModelConfig(), TrainConfig(max_steps=2, mode=mode))

    def test_frozen_teacher_is_bit_frozen(self, small_model_cfg):
        examples = _copy_examples(64, seed=7)
        cfg = TrainConfig(mode="pretrain_fixed_teacher", max_steps=8, seed=4,
                          k=2, batch_size=8)
        teacher, student, rows = train(examples, small_model_cfg, cfg)
        snapshot = [p.values.copy() for p in teacher.parameters()]
        opt = Adam(student.parameters(), lr=1e-3)
        fixed = _copy_examples(8, lo=5, hi=5, seed=7)
        for _ in range(5):
            train_step(teacher, student, fixed, opt, cfg)
        for before, p in zip(snapshot, teacher.parameters()):
            assert np.array_equal(before, p.values)

    def test_frozen_teacher_runs_its_encoder_only(self, small_model_cfg,
                                                  monkeypatch):
        """A student step against the frozen teacher needs only the
        teacher's encoder states: it never runs the teacher's decoder."""
        teacher = TeacherModel(small_model_cfg, seed=0)
        student = IncrementalModel(small_model_cfg, seed=1)
        ran = []
        forward = Decoder.forward

        def recording(decoder, *args, **kwargs):
            ran.append(decoder)
            return forward(decoder, *args, **kwargs)

        monkeypatch.setattr(Decoder, "forward", recording)
        train_step(teacher, student, _copy_examples(8, lo=5, hi=5, seed=7),
                   Adam(student.parameters()),
                   TrainConfig(mode="pretrain_fixed_teacher", k=2))
        assert student.decoder in ran and teacher.decoder not in ran

    def test_no_tape_lives_through_adam_step(self, small_model_cfg,
                                             monkeypatch):
        """A step drops its tape, and with it every array backward read,
        before the gradient norm and Adam's step."""
        tapes, alive = [], []
        init, step = T.Tape.__init__, Adam.step

        def tracked(tape):
            init(tape)
            tapes.append(weakref.ref(tape))

        def checking(optimizer):
            alive.append(sum(ref() is not None for ref in tapes))
            step(optimizer)

        monkeypatch.setattr(T.Tape, "__init__", tracked)
        monkeypatch.setattr(Adam, "step", checking)
        teacher = TeacherModel(small_model_cfg, seed=0)
        student = IncrementalModel(small_model_cfg, seed=1)
        train_step(teacher, student, _copy_examples(8, lo=5, hi=5, seed=7),
                   Adam(teacher.parameters() + student.parameters()),
                   TrainConfig(k=2))
        assert len(tapes) == 1 and alive == [0]

    def test_recorded_joint_forward_keeps_at_most_7_mib(self):
        """While its tape lives, one recorded joint forward plus loss on a
        train_joint batch (16 copy sentences of 12 tokens, d32 L2 H2 k3)
        keeps only what backward reads: at most 7 MiB, where a tape that
        held every output and operand kept 9.9 MiB."""
        cfg = ModelConfig(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                          src_vocab=32, tgt_vocab=32, max_len=64, k=3)
        teacher, student = TeacherModel(cfg, 0), IncrementalModel(cfg, 1)
        src, tgt_in, tgt_out, mask = pad_batch(
            _copy_examples(16, vocab=32, lo=12, hi=12, seed=12))
        with T.no_grad():       # warms the caches the forward fills
            student.forward(src, tgt_in, 3)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            with T.Tape() as tape:
                t_logits, z_full = teacher.forward(src, tgt_in)
                s_logits, z_incr = student.forward(src, tgt_in, 3)
                loss, _ = total_loss(s_logits, t_logits, tgt_out, z_incr,
                                     z_full, 0.1, mask)
            del t_logits, z_full, s_logits, z_incr
            kept = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert len(tape) == 155 and loss.values.size == 1
        assert kept <= 7 * 2 ** 20, kept

    def test_backward_holds_no_second_copy_of_the_grads(self):
        """One backward on a train_joint batch (16 copy sentences of 12
        tokens, d32 L2 H2 k3) whose grads are Adam's views peaks less than
        P float64 values above what the tape held when it started: each
        leaf delta adds into .grad as it comes. Holding every leaf delta
        until the replay ended peaked at 1.16 MB, above P's 0.74 MB."""
        cfg = ModelConfig(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                          src_vocab=32, tgt_vocab=32, max_len=64, k=3)
        teacher, student = TeacherModel(cfg, 0), IncrementalModel(cfg, 1)
        optimizer = Adam(teacher.parameters() + student.parameters())
        size = optimizer._grads.size
        src, tgt_in, tgt_out, mask = pad_batch(
            _copy_examples(16, vocab=32, lo=12, hi=12, seed=12))
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                t_logits, z_full = teacher.forward(src, tgt_in)
                s_logits, z_incr = student.forward(src, tgt_in, 3)
                loss, _ = total_loss(s_logits, t_logits, tgt_out, z_incr,
                                     z_full, 0.1, mask)
            del t_logits, z_full, s_logits, z_incr
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert size == 92_992 and optimizer._grads.any()
        assert peak < size * 8, peak

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="nonsense")
        with pytest.raises(ConfigError):
            TrainConfig(lambda_distill=-0.5)

    def test_batch_size_validation(self):
        """A batch size below 1 makes make_batches yield no batch, and
        training would wait for one forever."""
        with pytest.raises(ConfigError, match="batch_size"):
            TrainConfig(batch_size=-1)

    def test_detached_teacher_states(self, small_model_cfg):
        """With distill_detach_teacher the distillation term moves only the
        student: after one joint lambda=0.1 step the teacher equals the
        teacher of a lambda=0 step, and the student the student of a
        lambda=0.1 step without the option, bit for bit."""
        batch = _copy_examples(8, lo=6, hi=6, seed=5)

        def step(lam, detach):
            teacher = TeacherModel(small_model_cfg, seed=0)
            student = IncrementalModel(small_model_cfg, seed=1)
            opt = Adam(teacher.parameters() + student.parameters())
            train_step(teacher, student, batch, opt, TrainConfig(
                lambda_distill=lam, k=2, distill_detach_teacher=detach))
            return teacher.parameters(), student.parameters()

        teacher, student = step(0.1, True)
        for got, want in zip(teacher + student,
                             step(0.0, False)[0] + step(0.1, False)[1],
                             strict=True):
            assert np.array_equal(got.values, want.values)
        assert not all(np.array_equal(a.values, b.values) for a, b in zip(
            teacher, step(0.1, False)[0]))


class TestSyntheticTasks:
    def test_copy_alignment_is_diagonal(self):
        spec = SyntheticTaskSpec(kind="copy", vocab_size=16, min_len=3,
                                 max_len=3, seed=0)
        ex = generate_synthetic(spec, 1)[0]
        assert ex.tgt == ex.src
        assert ex.alignment == [(i, i) for i in range(3)]

    def test_lagged_alignment_clamps(self):
        spec = SyntheticTaskSpec(kind="lagged_map", vocab_size=16, min_len=4,
                                 max_len=4, lag=2, seed=0)
        ex = generate_synthetic(spec, 1)[0]
        # 1-based contract (i, min(i+lag, n)): (1,3) (2,4) (3,4) (4,4)
        assert ex.alignment == [(0, 2), (1, 3), (2, 3), (3, 3)]
        assert ex.tgt[:2] == [ex.src[2], ex.src[3]]
        assert ex.tgt[2:] == [3, 3]   # filler id

    def test_lagged_guarantees_unread_alignments(self):
        spec = SyntheticTaskSpec(kind="lagged_map", vocab_size=16, min_len=5,
                                 max_len=8, lag=2, seed=1)
        k = 1
        for ex in generate_synthetic(spec, 20):
            n = len(ex.src)
            unread = [
                (i, j) for i, j in ex.alignment
                if (j + 1) > min((i + 1) + k - 1, n)
            ]
            assert unread

    def test_deterministic(self):
        spec = SyntheticTaskSpec(kind="copy", vocab_size=16, min_len=3,
                                 max_len=9, seed=11)
        a = generate_synthetic(spec, 50)
        b = generate_synthetic(spec, 50)
        assert all(x.src == y.src and x.tgt == y.tgt for x, y in zip(a, b))

    def test_examples_share_pairs_in_lists_of_their_own(self):
        """Examples of one length and lag hold the same (i, j) tuples, copy
        being lag 0, each in its own list: changing one example's list
        leaves the others as they were."""
        def two(kind):
            return generate_synthetic(SyntheticTaskSpec(
                kind=kind, vocab_size=16, min_len=6, max_len=6, seed=3), 2)

        (a, b), (c, _) = two("copy"), two("lagged_map")
        assert a.alignment == b.alignment == c.alignment
        assert all(x is y is z for x, y, z in zip(a.alignment, b.alignment,
                                                  c.alignment))
        assert a.alignment is not b.alignment and a.tgt is not a.src
        a.alignment.append((6, 5))
        a.tgt.append(4)
        assert len(b.alignment) == len(c.alignment) == len(a.src) == 6

    def test_2000_copy_examples_keep_at_most_1_25_mib(self):
        """2,000 copy examples of lengths 5-12 (train_joint's corpus) keep
        at most 1.25 MiB by tracemalloc, where a fresh (i, i) tuple per
        position kept about 1.9 MB."""
        spec = SyntheticTaskSpec(kind="copy", vocab_size=32, min_len=5,
                                 max_len=12, seed=23)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            examples = generate_synthetic(spec, 2000)
            kept = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert len(examples) == 2000
        assert kept <= 1.25 * 2 ** 20, kept

    def test_vocab_too_small(self):
        with pytest.raises(ConfigError):
            SyntheticTaskSpec(kind="copy", vocab_size=4)

    def test_token_frequencies_uniform(self):
        spec = SyntheticTaskSpec(kind="copy", vocab_size=12, min_len=8,
                                 max_len=8, seed=13)
        examples = generate_synthetic(spec, 12500)   # 1e5 tokens
        counts = np.zeros(12)
        for ex in examples:
            for tok in ex.src:
                counts[tok] += 1
        content = counts[4:]
        expected = content.sum() / content.size
        assert np.abs(content - expected).max() <= 0.05 * expected


class TestLoadCorpus:
    def test_identical_one_line_files(self, tmp_path):
        src = tmp_path / "a.src"
        tgt = tmp_path / "a.tgt"
        src.write_text("hello world\n", encoding="utf-8")
        tgt.write_text("hello world\n", encoding="utf-8")
        examples, sv, tv, skipped = load_corpus(src, tgt)
        assert len(examples) == 1
        assert examples[0].alignment is None
        assert skipped == 0

    def test_separators_inside_a_line_keep_it_one_sentence(self, tmp_path):
        """A form feed, an information separator or a Unicode line or
        paragraph separator splits tokens, not sentences: each file below
        holds one line, so the pair stays aligned."""
        src = tmp_path / "f.src"
        tgt = tmp_path / "f.tgt"
        src.write_text("a\fb\x1cc\u2028d\r\n", encoding="utf-8")
        tgt.write_text("x\u2029y\x85z\n", encoding="utf-8")
        examples, sv, tv, skipped = load_corpus(src, tgt)
        assert skipped == 0
        assert [sv.decode(ex.src) for ex in examples] == [list("abcd")]
        assert [tv.decode(ex.tgt) for ex in examples] == [list("xyz")]

    def test_empty_lines_skipped_and_counted(self, tmp_path):
        src = tmp_path / "b.src"
        tgt = tmp_path / "b.tgt"
        src.write_text("a b\n\nc\n", encoding="utf-8")
        tgt.write_text("x\ny\nz\n", encoding="utf-8")
        examples, _, _, skipped = load_corpus(src, tgt)
        assert len(examples) == 2
        assert skipped == 1

    def test_no_pair_left(self, tmp_path):
        """A corpus whose every pair is skipped has nothing to train or
        evaluate on."""
        src = tmp_path / "f.src"
        tgt = tmp_path / "f.tgt"
        src.write_text("a\n\n", encoding="utf-8")
        tgt.write_text("\nb\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="no line pair"):
            load_corpus(src, tgt)

    def test_vocab_size_includes_reserved(self, tmp_path):
        src = tmp_path / "c.src"
        tgt = tmp_path / "c.tgt"
        src.write_text("a b c\nb c a\n", encoding="utf-8")
        tgt.write_text("p q\nq p\n", encoding="utf-8")
        _, sv, tv, _ = load_corpus(src, tgt)
        assert len(sv) == 3 + 4
        assert len(tv) == 2 + 4

    def test_line_count_mismatch(self, tmp_path):
        src = tmp_path / "d.src"
        tgt = tmp_path / "d.tgt"
        src.write_text("a\nb\n", encoding="utf-8")
        tgt.write_text("x\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="2.*1"):
            load_corpus(src, tgt)

    def test_oov_maps_to_unk(self, tmp_path):
        src = tmp_path / "e.src"
        tgt = tmp_path / "e.tgt"
        src.write_text("a a b\n", encoding="utf-8")
        tgt.write_text("x\n", encoding="utf-8")
        _, sv, _, _ = load_corpus(src, tgt)
        assert sv.encode(["zzz"]) == [3]


class TestConvergenceSmoke:
    def test_teacher_learns_one_token_copy(self):
        cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                          src_vocab=12, tgt_vocab=12, max_len=8, k=1)
        examples = _copy_examples(64, vocab=12, lo=1, hi=1, seed=12)
        teacher = TeacherModel(cfg, seed=0)
        opt = Adam(teacher.parameters(), lr=1e-3)
        from waitkit.training import _teacher_step

        for _ in range(160):
            _teacher_step(teacher, examples[:16], opt)
        src, tgt_in, tgt_out, _ = pad_batch(examples[:16])
        with T.no_grad():
            logits, _ = teacher.forward(src, tgt_in)
        predicted = logits.values.argmax(axis=-1)
        assert np.array_equal(predicted, tgt_out)


class TestFlatAdam:
    @pytest.mark.parametrize("mode", MODES)
    def test_twenty_steps_match_eager_reference(self, small_model_cfg, mode,
                                                monkeypatch):
        cfg = TrainConfig(mode=mode, k=2, batch_size=8, seed=3)
        batches = make_batches(_copy_examples(160, seed=8), 8,
                               np.random.default_rng(0))[:20]

        def run(optimizer_cls):
            teacher = TeacherModel(small_model_cfg, seed=0)
            student = IncrementalModel(small_model_cfg, seed=1)
            trained = student.parameters()
            if mode == "joint":
                trained = teacher.parameters() + trained
            opt = optimizer_cls(trained, cfg.lr, cfg.beta1, cfg.beta2,
                                cfg.adam_eps)
            records = [train_step(teacher, student, b, opt, cfg)
                       for b in batches]
            return records, teacher.parameters() + student.parameters()

        records, params = run(Adam)
        with monkeypatch.context() as patch:
            patch.setattr(T.Tape, "backward", eager_backward)
            ref_records, ref_params = run(EagerAdam)
        assert len(batches) == 20
        for rec, ref in zip(records, ref_records, strict=True):
            assert rec.keys() == ref.keys()
            assert list(rec.values()) == list(ref.values())
        for p, ref in zip(params, ref_params, strict=True):
            assert np.array_equal(p.values, ref.values)

    @pytest.mark.parametrize("shapes", [
        # 2B + 17 values: the second tensor straddles the first block edge,
        # the third the second, and the last block is partial.
        [(ADAM_BLOCK - 5,), (2, 5), (ADAM_BLOCK - 3,), (3, 5)],
        [(3,), (5, 10), (7,)],          # fewer values than one block
    ], ids=["2B+17", "below_B"])
    def test_blocks_match_eager_reference(self, shapes):
        """After 5 steps the values, m and v equal EagerAdam's bit for bit,
        whatever block the values fall in."""
        rng = np.random.default_rng(23)
        init = [rng.normal(size=shape) for shape in shapes]
        params, ref_params = ([Tensor(x.copy(), requires_grad=True)
                               for x in init] for _ in range(2))
        opt, ref = Adam(params), EagerAdam(ref_params)
        for _ in range(5):
            for p, r in zip(params, ref_params):
                p.grad[...] = r.grad[...] = rng.normal(size=p.shape)
            opt.step()
            ref.step()
        assert opt._values.size == sum(x.size for x in init)
        for got, want in ((opt._values, [p.values for p in ref_params]),
                          (opt._m, ref._m), (opt._v, ref._v)):
            assert np.array_equal(got, np.concatenate(
                [w.ravel() for w in want]))

    def test_train_joint_pair_holds_4p_plus_b(self):
        """Building Adam over the train_joint pair (d32 L2 H2, vocab 32)
        and stepping it peaks at (4P + B) float64 values plus 256 KiB by
        tracemalloc: values, grads, m, v and one scratch row of one block,
        plus about 85 kB of per-parameter views; a second scratch row made
        it 4P + 2B, whole-buffer scratch rows 6P."""
        cfg = ModelConfig(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                          src_vocab=32, tgt_vocab=32, max_len=64, k=3)
        params = (TeacherModel(cfg, 0).parameters()
                  + IncrementalModel(cfg, 1).parameters())
        size = sum(p.grad.size for p in params)     # grads allocated
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            Adam(params).step()
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert size > 2 * ADAM_BLOCK
        assert peak <= (4 * size + ADAM_BLOCK) * 8 + 256 * 2 ** 10, peak

    def test_building_over_a_fresh_train_joint_pair_holds_4p_plus_b(self):
        """Building Adam over a train_joint pair whose grads were never read
        peaks at (4P + B) float64 values plus 256 KiB by tracemalloc:
        values, grads, m, v and one scratch row. Reading each lazy grad to
        copy it into the buffer allocated P zeros more (4.32 MB, where the
        bound is 3.50 MB)."""
        cfg = ModelConfig(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                          src_vocab=32, tgt_vocab=32, max_len=64, k=3)
        params = (TeacherModel(cfg, 0).parameters()
                  + IncrementalModel(cfg, 1).parameters())
        size = sum(p.values.size for p in params)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            Adam(params)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert size == 92_992 and ADAM_BLOCK == 32_768
        assert peak <= (4 * size + ADAM_BLOCK) * 8 + 256 * 2 ** 10, peak

    @pytest.mark.parametrize("mode", MODES)
    def test_train_step_leaves_every_grad_zero(self, small_model_cfg, mode,
                                               monkeypatch):
        """A step consumes the gradients it steps: Adam.step returns with
        the flat grad buffer all 0.0, and train_step makes no zeroing call
        after it."""
        teacher = TeacherModel(small_model_cfg, seed=0)
        student = IncrementalModel(small_model_cfg, seed=1)
        trained = student.parameters()
        if mode == "joint":
            trained = teacher.parameters() + trained
        opt = Adam(trained)
        step, left = Adam.step, []

        def recording(optimizer):
            step(optimizer)
            left.append(np.count_nonzero(optimizer._grads))

        monkeypatch.setattr(Adam, "step", recording)
        for seed in (7, 8):
            record = train_step(teacher, student,
                                _copy_examples(8, lo=5, hi=5, seed=seed),
                                opt, TrainConfig(mode=mode, k=2))
            assert record["grad_norm"] > 0.0
            assert not any(p.grad.any() for p in trained)
        assert left == [0, 0]

    def test_grad_set_before_building_is_kept(self, small_model_cfg):
        """A grad assigned before Adam is built keeps its values, now in the
        shared buffer; grads never read come out zero."""
        params = IncrementalModel(small_model_cfg, seed=1).parameters()
        grad = np.random.default_rng(5).normal(size=params[2].shape)
        params[2].grad = grad.copy()
        opt = Adam(params)
        assert np.shares_memory(params[2].grad, opt._grads)
        assert np.array_equal(params[2].grad, grad)
        assert not any(p.grad.any() for i, p in enumerate(params) if i != 2)

    def test_parameters_become_views_of_one_buffer(self, small_model_cfg):
        student = IncrementalModel(small_model_cfg, seed=1)
        params = student.parameters()
        before = [p.values.copy() for p in params]
        params[0].grad[...] = 1.5
        opt = Adam(params)
        for p, old in zip(params, before):
            assert np.shares_memory(p.values, opt._values)
            assert np.shares_memory(p.grad, opt._grads)
            assert np.array_equal(p.values, old)
        assert np.all(params[0].grad == 1.5)   # pending grads are kept
        opt.step()                             # and consumed by a step
        assert not any(p.grad.any() for p in params)

    def test_step_raises_after_values_rebound(self, small_model_cfg):
        params = IncrementalModel(small_model_cfg, seed=1).parameters()
        opt = Adam(params)
        opt.step()
        params[3].values = params[3].values.copy()
        with pytest.raises(RuntimeError, match="rebound"):
            opt.step()

    def test_step_raises_after_grad_rebound(self, small_model_cfg):
        params = IncrementalModel(small_model_cfg, seed=1).parameters()
        opt = Adam(params)
        params[-1].grad = np.zeros_like(params[-1].values)
        with pytest.raises(RuntimeError, match="rebound"):
            opt.step()

    def test_second_adam_over_same_tensors(self, small_model_cfg):
        params = IncrementalModel(small_model_cfg, seed=1).parameters()
        first = Adam(params)
        second = Adam(params[:2])
        with pytest.raises(RuntimeError, match="rebound"):
            first.step()
        params[0].grad[...] = 1.0
        second.step()
        assert second.t == 1

    def test_grad_norm_does_not_depend_on_blas_threads(self):
        """grad_norm of eight buffers the size of the train_joint pair's
        gradients has the same bits on one BLAS thread and on two, each
        computed in a child process that starts with that thread count. The
        values span four decades, so a change of summation order shows."""
        code = ("import numpy as np; from waitkit.training import grad_norm\n"
                "for seed in range(8):\n"
                "    rng = np.random.default_rng(seed)\n"
                "    g = rng.normal(size=92992) * 10.0 ** rng.uniform("
                "-4, 0, 92992)\n"
                "    print(grad_norm(g).hex())")
        norms = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(sys.path))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            norms.append(proc.stdout)
        assert norms[0] == norms[1]


class TestMetricsCsv:
    def test_header_and_determinism(self, small_model_cfg, tmp_path):
        examples = _copy_examples(32, seed=8)
        cfg = TrainConfig(max_steps=5, seed=3, k=2, batch_size=8)
        p1 = tmp_path / "m1.csv"
        p2 = tmp_path / "m2.csv"
        train(examples, small_model_cfg, cfg, metrics_path=p1)
        train(examples, small_model_cfg, cfg, metrics_path=p2)
        text = p1.read_text(encoding="utf-8")
        assert text.splitlines()[0] == (
            "step,loss_student,loss_teacher,loss_distill,grad_norm"
        )
        assert text == p2.read_text(encoding="utf-8")

    def test_absent_loss_columns_are_nan(self, small_model_cfg, tmp_path):
        """A pretrain_fixed_teacher run writes nan exactly where a phase
        computes no such loss: loss_student and loss_distill on the
        teacher's rows, loss_teacher on the student's. The returned rows
        hold the same layout."""
        steps = 4
        path = tmp_path / "metrics.csv"
        cfg = TrainConfig(mode="pretrain_fixed_teacher", max_steps=steps,
                          seed=3, k=2, batch_size=8)
        _, _, rows = train(_copy_examples(32, seed=8), small_model_cfg, cfg,
                           metrics_path=path)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        cells = np.array([[float(v) for v in line.split(",")]
                          for line in lines])
        assert header.split(",") == list(METRICS_HEADER)
        assert np.array_equal(cells[:, 0], np.arange(1, 2 * steps + 1))
        absent = np.zeros(cells.shape, dtype=bool)
        absent[:steps, [1, 3]] = True       # teacher phase
        absent[steps:, 2] = True            # student phase
        assert np.array_equal(np.isnan(cells), absent)
        assert np.array_equal(np.isnan(np.array(rows, dtype=float)), absent)
        assert np.isfinite(cells[~absent]).all()
