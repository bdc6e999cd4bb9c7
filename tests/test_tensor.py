"""Operation semantics and gradient checks for the autodiff core."""

import math
import tracemalloc

import numpy as np
import pytest

from waitkit import tensor as T
from waitkit.tensor import DimensionError, GradientError, Tensor

from conftest import (check_gradients, concat, eager_backward,
                      masked_softmax, mul, reshape, transpose, tsum)


def _rand(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).values, b.values)

    def test_dot(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.values.tolist() == [[11.0]]

    def test_shape_mismatch_names_both(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients(self, rng):
        a = _rand(rng, 3, 4)
        b = _rand(rng, 4, 2)
        w = rng.normal(size=(3, 2))
        check_gradients(
            lambda: tsum(mul(T.matmul(a, b), Tensor(w))), [a, b]
        )

    def test_batched_gradients(self, rng):
        a = _rand(rng, 2, 3, 4)
        b = _rand(rng, 4, 3)
        check_gradients(lambda: tsum(T.matmul(a, b)), [a, b])

    def test_mac_counting(self):
        T.mac_counter.count = 0
        T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 2))))
        assert T.mac_counter.count == 3 * 4 * 2
        T.matmul(Tensor(np.zeros((5, 3, 4))), Tensor(np.zeros((4, 2))))
        assert T.mac_counter.count == 3 * 4 * 2 + 5 * 3 * 4 * 2


class TestMaskedSoftmax:
    def test_symmetric(self):
        out = masked_softmax(Tensor([[0.0, 0.0]]), np.array([True, True]))
        assert np.allclose(out.values, [[0.5, 0.5]])

    def test_masked_positions_exactly_zero(self):
        scores = Tensor([[5.0, 1.0, 9.0]])
        out = masked_softmax(scores, np.array([True, False, True]))
        e5, e9 = math.exp(5.0), math.exp(9.0)
        assert out.values[0, 1] == 0.0
        assert out.values[0, 0] == pytest.approx(e5 / (e5 + e9), rel=1e-12)
        assert out.values[0, 2] == pytest.approx(e9 / (e5 + e9), rel=1e-12)

    def test_row_sums(self, rng):
        scores = Tensor(rng.normal(size=(6, 8)))
        mask = rng.random((6, 8)) > 0.4
        mask[:, 0] = True
        out = masked_softmax(scores, mask)
        assert np.abs(out.values.sum(axis=-1) - 1.0).max() <= 1e-12
        assert np.all(out.values[~mask] == 0.0)

    def test_fully_masked_row_is_zero(self):
        scores = Tensor([[3.0, -2.0, 0.5]])
        out = masked_softmax(scores, np.zeros(3, dtype=bool))
        assert np.array_equal(out.values, np.zeros((1, 3)))

    def test_bad_mask_shape(self):
        with pytest.raises(DimensionError):
            masked_softmax(Tensor(np.zeros((2, 3))), np.ones((2, 4), bool))

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4, 4), (2, 2, 3, 6)])
    def test_gradients(self, rng, shape):
        scores = _rand(rng, *shape)
        mask = rng.random(shape) > 0.3
        mask[..., 0] = True
        w = rng.normal(size=shape)
        check_gradients(
            lambda: tsum(mul(masked_softmax(scores, mask), Tensor(w))),
            [scores],
        )

    def test_gradients_unmasked(self, rng):
        scores = _rand(rng, 4, 6)
        w = rng.normal(size=(4, 6))
        check_gradients(
            lambda: tsum(mul(masked_softmax(scores), Tensor(w))),
            [scores],
        )


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        x = Tensor([[3.0, 3.0, 3.0]])
        out = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.values, 0.0)

    def test_unit_spread(self):
        out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        assert out.values[0, 0] == pytest.approx(expected, rel=1e-12)
        assert out.values[0, 1] == pytest.approx(-expected, rel=1e-12)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 8), (4, 4, 4)])
    def test_gradients(self, rng, shape):
        x = _rand(rng, *shape)
        gain = _rand(rng, shape[-1])
        bias = _rand(rng, shape[-1])
        w = rng.normal(size=shape)
        check_gradients(
            lambda: tsum(mul(T.layer_norm(x, gain, bias), Tensor(w))),
            [x, gain, bias],
        )


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 8)))
        loss = T.cross_entropy(logits, np.array([1, 5, 7]))
        assert loss.item() == pytest.approx(math.log(8), rel=1e-12)

    def test_margin_limit(self):
        targets = np.array([2])
        for margin, bound in ((5.0, 0.05), (20.0, 1e-7)):
            logits = np.zeros((1, 4))
            logits[0, 2] = margin
            loss = T.cross_entropy(Tensor(logits), targets)
            assert loss.item() < bound

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            T.cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 4]))

    def test_padding_excluded(self, rng):
        logits = rng.normal(size=(4, 6))
        full = T.cross_entropy(Tensor(logits[:2]), np.array([1, 2]))
        masked = T.cross_entropy(
            Tensor(logits), np.array([1, 2, 0, 0]),
            np.array([1.0, 1.0, 0.0, 0.0]),
        )
        assert masked.item() == pytest.approx(full.item(), rel=1e-12)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4, 6), (5, 7)])
    def test_gradients(self, rng, shape):
        logits = _rand(rng, *shape)
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        mask = (rng.random(shape[:-1]) > 0.2).astype(float)
        mask.reshape(-1)[0] = 1.0
        check_gradients(
            lambda: T.cross_entropy(logits, targets, mask), [logits]
        )


class TestL2Distance:
    def test_identical_inputs(self, rng):
        a = Tensor(rng.normal(size=(4, 3)))
        assert T.l2_distance_loss(a, Tensor(a.values.copy())).item() == 0.0

    def test_unit_vector(self):
        loss = T.l2_distance_loss(Tensor([[1.0, 0.0]]), Tensor([[0.0, 0.0]]))
        assert loss.item() == pytest.approx(1.0, rel=1e-15)

    def test_row_averaging(self):
        a = Tensor([[2.0, 0.0], [0.0, 0.0]])
        b = Tensor(np.zeros((2, 2)))
        assert T.l2_distance_loss(a, b).item() == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.l2_distance_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    @pytest.mark.parametrize("shape", [(4, 3), (2, 5, 4), (1, 6)])
    def test_gradients(self, rng, shape):
        a = _rand(rng, *shape)
        b = _rand(rng, *shape)
        check_gradients(lambda: T.l2_distance_loss(a, b), [a, b])


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = _rand(rng, 3, 2)
        with T.Tape() as tape:
            tape.backward(tsum(x))
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_elementwise_square(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            tape.backward(tsum(mul(x, x)))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_rejected(self, rng):
        x = _rand(rng, 2, 2)
        with T.Tape() as tape:
            y = T.add(x, x)
            with pytest.raises(GradientError):
                tape.backward(y)

    def test_repeated_backward_accumulates(self, rng):
        x = _rand(rng, 3)
        with T.Tape() as tape:
            loss = tsum(mul(x, x))
            tape.backward(loss)
            once = x.grad.copy()
            tape.backward(loss)
        assert np.allclose(x.grad, 2.0 * once)

    def test_zero_grad_after_creation(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        assert np.array_equal(x.grad, np.zeros((2, 2)))
        assert x.grad.shape == x.values.shape

    def test_recording_disabled_matches(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        w = Tensor(rng.normal(size=(3, 3)))
        with T.Tape():
            recorded = T.matmul(T.relu(x), w).values
        with T.no_grad():
            plain = T.matmul(T.relu(x), w).values
        assert np.array_equal(recorded, plain)

    def test_intermediate_grad_stays_zero(self, rng):
        x = _rand(rng, 3, 2)
        with T.Tape() as tape:
            y = mul(x, x)
            z = T.relu(T.add(y, x))
            tape.backward(tsum(T.add(z, y)))
        assert np.array_equal(y.grad, np.zeros((3, 2)))
        assert np.array_equal(z.grad, np.zeros((3, 2)))
        assert x.grad.any()

    def test_loss_leaf_gets_unit_grad(self):
        x = Tensor([2.0], requires_grad=True)
        with T.Tape() as tape:
            tape.backward(x)
        assert np.array_equal(x.grad, [1.0])

    def test_leaf_grads_match_eager_reference(self, rng):
        """Fan-out on leaves and intermediates: each leaf's grad is
        bit-identical to the eager replay that wrote every intermediate."""
        w = _rand(rng, 4, 3)
        b = _rand(rng, 4)
        x = _rand(rng, 5, 3)
        grads = []
        for backward in (T.Tape.backward, eager_backward):
            for t in (w, b, x):
                t.grad[...] = 0.0
            with T.Tape() as tape:
                h = T.linear(x, w, b)
                s = masked_softmax(T.matmul(h, T.transpose_last(h)))
                loss = tsum(mul(T.add(T.matmul(s, h), h), h))
                backward(tape, loss)
            grads.append([t.grad.copy() for t in (w, b, x)])
        for new, ref in zip(*grads):
            assert np.array_equal(new, ref)

    def test_unread_intermediate_is_freed_while_the_tape_lives(self):
        """A tape entry holds no output and no operand but leaves, and add's
        rule keeps only shapes: an 8 MiB scale output that add reads and no
        rule does is freed once the caller drops it, and backward still
        reaches the leaf."""
        x = Tensor(np.ones(2 ** 20), requires_grad=True)
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                y = T.scale(x, 3.0)
                z = T.add(y, 1.0)
                held = tracemalloc.get_traced_memory()[0]
                del y
                freed = held - tracemalloc.get_traced_memory()[0]
                tape.backward(tsum(z))
        finally:
            tracemalloc.stop()
        assert freed >= 8 * 2 ** 20, freed
        assert np.array_equal(x.grad, np.full(2 ** 20, 3.0))

    def test_tape_visits_each_entry_once(self, rng):
        x = _rand(rng, 2)
        with T.Tape() as tape:
            y = mul(x, x)
            loss = tsum(y)
            n_entries = len(tape)
            tape.backward(loss)
        assert n_entries == 2


class TestAdditionalPrimitives:
    def test_relu_values(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.values.tolist() == [0.0, 0.0, 2.0]

    @pytest.mark.parametrize("shape", [(4, 3), (2, 3, 4), (6,)])
    def test_relu_gradients(self, rng, shape):
        # keep inputs away from the kink
        vals = rng.uniform(0.1, 1.0, size=shape) * rng.choice([-1, 1], shape)
        x = Tensor(vals, requires_grad=True)
        w = rng.normal(size=shape)
        check_gradients(lambda: tsum(mul(T.relu(x), Tensor(w))), [x])

    @pytest.mark.parametrize("shapes", [((3, 4), (3, 4)), ((2, 3, 4), (4,)),
                                        ((2, 1, 4), (3, 4))])
    def test_add_mul_gradients(self, rng, shapes):
        a = _rand(rng, *shapes[0])
        b = _rand(rng, *shapes[1])
        check_gradients(lambda: tsum(mul(T.add(a, b), b)), [a, b])

    def test_scale_gradients(self, rng):
        x = _rand(rng, 3, 3)
        check_gradients(lambda: tsum(T.scale(x, -2.5)), [x])

    @pytest.mark.parametrize("shape,axes", [((2, 3), (1, 0)),
                                            ((2, 3, 4), (2, 0, 1)),
                                            ((2, 3, 4), (0, 2, 1))])
    def test_transpose_gradients(self, rng, shape, axes):
        x = _rand(rng, *shape)
        w = rng.normal(size=tuple(shape[a] for a in axes))
        check_gradients(
            lambda: tsum(mul(transpose(x, axes), Tensor(w))), [x]
        )

    @pytest.mark.parametrize("shape,new", [((2, 6), (3, 4)), ((4, 3), (2, 2, 3)),
                                           ((2, 2, 2), (8,))])
    def test_reshape_gradients(self, rng, shape, new):
        x = _rand(rng, *shape)
        w = rng.normal(size=new)
        check_gradients(
            lambda: tsum(mul(reshape(x, new), Tensor(w))), [x]
        )

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concat_gradients(self, rng, axis):
        a = _rand(rng, 2, 3)
        b = _rand(rng, 2, 3)
        out_shape = (4, 3) if axis == 0 else (2, 6)
        w = rng.normal(size=out_shape)
        check_gradients(
            lambda: tsum(mul(concat(a, b, axis), Tensor(w))), [a, b]
        )

    def test_concat_values(self):
        out = concat(Tensor([[1.0]]), Tensor([[2.0]]), axis=0)
        assert out.values.tolist() == [[1.0], [2.0]]

    @pytest.mark.parametrize("key", [(slice(0, 2),), (slice(1, 3), slice(0, 2)),
                                     (0,)])
    def test_slice_gradients(self, rng, key):
        x = _rand(rng, 3, 4)
        w = rng.normal(size=x.values[key].shape)
        check_gradients(
            lambda: tsum(mul(T.tslice(x, key), Tensor(w))), [x]
        )

    @pytest.mark.parametrize("axis", [0, 1])
    def test_gather_rows_gradients(self, rng, axis):
        x = _rand(rng, 4, 5)
        idx = np.array([0, 2, 2, 3] if axis == 0 else [1, 1, 4])
        out_shape = (4, 5) if axis == 0 else (4, 3)
        w = rng.normal(size=out_shape)
        check_gradients(
            lambda: tsum(mul(T.gather_rows(x, idx, axis), Tensor(w))), [x]
        )

    def test_embedding_lookup(self, rng):
        weight = _rand(rng, 6, 4)
        ids = np.array([[0, 3], [5, 3]])
        out = T.embedding(weight, ids)
        assert np.array_equal(out.values[1, 0], weight.values[5])

    def test_embedding_out_of_range(self, rng):
        with pytest.raises(IndexError):
            T.embedding(_rand(rng, 4, 3), np.array([4]))

    @pytest.mark.parametrize("ids", [np.array([0, 2, 2]),
                                     np.array([[1, 3], [0, 0]]),
                                     np.array([3])])
    def test_embedding_gradients(self, rng, ids):
        weight = _rand(rng, 4, 3)
        w = rng.normal(size=ids.shape + (3,))
        check_gradients(
            lambda: tsum(mul(T.embedding(weight, ids), Tensor(w))),
            [weight],
        )

    @pytest.mark.parametrize("shape", [(3, 4), (2, 4, 3), (1, 5)])
    def test_linear_gradients(self, rng, shape):
        x = _rand(rng, *shape)
        w = _rand(rng, 6, shape[-1])
        b = _rand(rng, 6)
        m = rng.normal(size=shape[:-1] + (6,))
        check_gradients(
            lambda: tsum(mul(T.linear(x, w, b), Tensor(m))), [x, w, b]
        )

    def test_linear_matches_matmul(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(5, 4)))
        b = Tensor(rng.normal(size=5))
        out = T.linear(x, w, b)
        ref = x.values @ w.values.T + b.values
        assert np.allclose(out.values, ref, atol=1e-15)


class TestMaskedCumulativeMean:
    def test_two_point_mean(self):
        x = Tensor([[1.0, 0.0], [0.0, 1.0]])
        out = T.masked_cumulative_mean(x)
        assert np.allclose(out.values[1], [0.5, 0.5])

    def test_constant_rows(self):
        x = Tensor(np.tile([2.0, -1.0], (5, 1)))
        out = T.masked_cumulative_mean(x)
        assert np.allclose(out.values, np.tile([2.0, -1.0], (5, 1)), atol=1e-15)

    def test_matches_sequential_loop(self, rng):
        for n in (1, 3, 17, 64):
            x = rng.normal(size=(n, 5))
            out = T.masked_cumulative_mean(Tensor(x)).values
            for i in range(n):
                assert np.abs(out[i] - x[: i + 1].mean(axis=0)).max() <= 1e-12

    def test_batched(self, rng):
        x = rng.normal(size=(3, 6, 4))
        out = T.masked_cumulative_mean(Tensor(x)).values
        for b in range(3):
            for i in range(6):
                assert np.allclose(out[b, i], x[b, : i + 1].mean(axis=0),
                                   atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 3), (2, 5, 4), (6, 2)])
    def test_gradients(self, rng, shape):
        x = _rand(rng, *shape)
        w = rng.normal(size=shape)
        check_gradients(
            lambda: tsum(mul(T.masked_cumulative_mean(x), Tensor(w))), [x]
        )


class TestDeterminism:
    def test_forward_bit_identical(self):
        def build():
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(5, 8)))
            w = Tensor(rng.normal(size=(8, 8)))
            mask = np.tril(np.ones((5, 5), dtype=bool))
            h = T.matmul(x, w)
            scores = T.matmul(h, T.transpose_last(Tensor(x.values)))
            att = masked_softmax(scores, mask)
            return T.layer_norm(T.matmul(att, x), Tensor(np.ones(8)),
                                Tensor(np.zeros(8))).values
        a, b = build(), build()
        assert np.array_equal(a, b)
