"""Core tensor ops, reverse-mode gradients, and the finite-difference checker."""

import dataclasses
import gc
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sga.autodiff import (
    Parameter,
    Tensor,
    add,
    backward,
    logistic,
    matmul_rows,
    mul,
    recording,
    row_products,
    sigmoid,
    softmax,
    sub,
    sum_all,
    zero_gradients,
)
from sga.config import PipelineConfig
from sga.errors import NumericError, ShapeError, StateError
from sga.gradcheck import check_gradient
from sga.pipeline import Model
from sga.training import RegressionHead, pseudo_targets, sentence_loss
from sga.verify import random_tree

from composed_ops import matmul_t, recorded_ops


class TestTensor:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NumericError):
            Tensor([float("inf")])

    def test_row_major_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.shape == (2, 2)
        assert t.data.size == 4

    def test_parameter_copies_its_source(self):
        source = np.zeros(3)
        p = Parameter("p", source)
        source[0] = 5.0
        assert np.array_equal(p.data, np.zeros(3))
        assert not np.shares_memory(p.data, source)

    def test_parameter_assign_validates(self):
        p = Parameter("p", np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            p.assign(np.zeros(3))
        with pytest.raises(NumericError):
            p.assign(np.full((2, 2), np.nan))


class TestMatmul:
    """The (r, k) by (m, k)^T product `matmul_t`, the one gemm op."""

    def test_identity_leaves_matrix_unchanged(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.standard_normal((3, 3))
            out = matmul_t(Tensor(m), Tensor(np.eye(3)))
            assert np.array_equal(out.data, m)

    def test_hand_multiplied_case(self):
        out = matmul_t(Tensor([[1, 2], [3, 4]]), Tensor([[0, 1]]))
        assert np.array_equal(out.data, [[2], [4]])

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul_t(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)

    def test_vector_operands_raise(self):
        """Only (r, k) times (m, k)^T is recorded; vectors go in as rows."""
        for a, b in (
            ([[1, 2], [3, 4]], [1, 1]),
            ([1, 2], [[1, 2], [3, 4]]),
            ([1, 2, 3], [4, 5, 6]),
        ):
            with pytest.raises(ShapeError, match="cannot matmul_t"):
                matmul_t(Tensor(a), Tensor(b))


class TestMatmulT:
    def test_equals_product_with_transpose(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
        np.testing.assert_allclose(matmul_t(Tensor(a), Tensor(b)).data, a @ b.T, atol=1e-14)

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"cannot matmul_t shapes \(2, 3\) and \(3, 2\)"):
            matmul_t(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestMatmulRows:
    def test_equals_product_with_transpose(self):
        rng = np.random.default_rng(1)
        a, w = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
        np.testing.assert_allclose(matmul_rows(Tensor(a), Tensor(w)).data, a @ w.T, atol=1e-14)

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) and \(2, 4\)"):
            matmul_rows(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_row_bits_do_not_depend_on_the_batch(self):
        """Every row equals the same row computed alone and in a random
        subset of the batch, bit for bit, for B = 1..64 at d = 200."""
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((200, 200)))
        for b in range(1, 65):
            a = rng.standard_normal((b, 200))
            out = matmul_rows(Tensor(a), w).data
            subset = rng.choice(b, size=int(rng.integers(1, b + 1)), replace=False)
            assert np.array_equal(matmul_rows(Tensor(a[subset]), w).data, out[subset])
            for i in range(b):
                assert np.array_equal(matmul_rows(Tensor(a[i : i + 1]), w).data[0], out[i])

    def test_stacked_rows_equal_rows_alone(self):
        """A (2, B, d) by (2, m, d)^T product stacks two independent ones:
        every row equals the row computed alone against its own matrix, bit
        for bit, for B = 1..64 at d = 200, and so does each half of a
        matrix stacked along its output axis."""
        rng = np.random.default_rng(1)
        w = rng.standard_normal((2, 400, 200))
        for b in range(1, 65):
            a = rng.standard_normal((2, b, 200))
            out = row_products(a, w)
            assert out.shape == (2, b, 400)
            for s in range(2):
                for half in (slice(None, 200), slice(200, None)):
                    lone = np.ascontiguousarray(w[s, half])
                    for i in range(b):
                        alone = row_products(a[s, i : i + 1], lone)[0]
                        assert np.array_equal(alone, out[s, i, half])


class TestSigmoid:
    def test_same_bits_as_masked_form(self):
        """The branch-free kernel equals the two-branch form bit for bit,
        extremes and signed zeros included, and never overflows."""
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.standard_normal(500) * 10, [0.0, -0.0, 750.0, -750.0]])
        masked = np.empty_like(x)
        pos = x >= 0
        masked[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        masked[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        with np.errstate(over="raise"):
            assert np.array_equal(logistic(x), masked)
            assert np.array_equal(sigmoid(Tensor(x)).data, masked)


class TestSoftmax:
    def test_symmetric_input(self):
        out = softmax(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_singleton(self):
        assert np.array_equal(softmax(np.array([0.0])), [1.0])

    def test_closed_form_exponentials(self):
        # exp(0) = 1 and exp(ln 2) = 2, so the weights are 1/3 and 2/3.
        out = softmax(np.array([0.0, math.log(2.0)]))
        np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.zeros(0))

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    def test_sums_to_one_and_positive(self, values):
        out = softmax(np.array(values))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0)

    @given(
        st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=8),
        st.integers(min_value=-8, max_value=8),
    )
    def test_shift_invariance_bitwise_on_integers(self, values, c):
        # Small integers shift exactly in float64, so max-subtraction yields
        # bit-identical inputs to exp.
        base = softmax(np.array(values, dtype=float))
        shifted = softmax(np.array(values, dtype=float) + c)
        assert np.array_equal(base, shifted)

    @given(
        st.lists(
            st.floats(min_value=-30, max_value=30, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=-30, max_value=30, allow_nan=False),
    )
    def test_shift_invariance_tolerance(self, values, c):
        base = softmax(np.array(values))
        shifted = softmax(np.array([v + c for v in values]))
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = Parameter("w", np.arange(6, dtype=float).reshape(2, 3))
        with recording():
            backward(sum_all(w))
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_hand_chain_rule(self):
        # loss = (w * x)^2 at w=3, x=2: dloss/dw = 2 * (w x) * x = 24.
        w = Parameter("w", [3.0])
        x = Tensor([2.0])
        with recording():
            wx = mul(w, x)
            backward(sum_all(mul(wx, wx)))
        assert w.grad[0] == pytest.approx(24.0, abs=1e-12)

    def test_detached_parameter_stays_zero(self):
        w = Parameter("w", np.ones(3))
        other = Parameter("other", np.ones(3))
        with recording():
            backward(sum_all(mul(w, w)))
        assert np.array_equal(other.grad, np.zeros(3))

    def test_double_backward_raises(self):
        w = Parameter("w", np.ones(2))
        with recording():
            loss = sum_all(w)
            backward(loss)
            with pytest.raises(StateError, match=r"recording\(\)"):
                backward(loss)
        assert np.array_equal(w.grad, np.ones(2))

    def test_parameter_loss_raises_naming_recording(self):
        w = Parameter("w", [1.0])
        with recording(), pytest.raises(StateError, match=r"recording\(\)"):
            backward(w)
        assert np.array_equal(w.grad, np.zeros(1))

    def test_walk_consumes_the_ops_it_reaches(self):
        """Every op the walk reached loses its VJP and parents; an op the
        loss does not read keeps them."""
        w = Parameter("w", np.ones(2))
        with recording():
            hidden = mul(w, Tensor([2.0, 3.0]))
            unread = sum_all(hidden)
            loss = sum_all(mul(hidden, hidden))
        reached = [op for op in recorded_ops(loss) if op is not unread]
        backward(loss)
        assert all(op._vjp is None and op._parents == () for op in reached)
        assert unread._vjp is not None and unread._parents == (hidden,)

    def test_non_scalar_loss_rejected(self):
        w = Parameter("w", np.ones(2))
        with recording(), pytest.raises(ShapeError):
            backward(mul(w, w))

    def test_gradient_linearity(self):
        rng = np.random.default_rng(7)
        w = Parameter("w", rng.standard_normal(5))
        a = Tensor(rng.standard_normal(5))
        b = Tensor(rng.standard_normal(5))

        def loss_a():
            return sum_all(mul(a, mul(w, w)))

        def loss_b():
            return sum_all(mul(b, w))

        with recording():
            backward(add(loss_a(), loss_b()))
            combined = w.grad.copy()
            zero_gradients([w])
            backward(loss_a())
            first = w.grad.copy()
            zero_gradients([w])
            backward(loss_b())
            second = w.grad.copy()
        np.testing.assert_allclose(combined, first + second, atol=1e-12)

    def test_shared_node_accumulates(self):
        w = Parameter("w", [2.0])
        with recording():
            y = mul(w, w)  # y reused twice below
            backward(sum_all(add(y, y)))
        assert w.grad[0] == pytest.approx(8.0, abs=1e-12)

    def test_unrecorded_loss_raises_naming_recording(self):
        w = Parameter("w", np.ones(2))
        loss = sum_all(mul(w, w))
        assert loss._parents == () and loss._vjp is None
        with pytest.raises(StateError, match=r"recording\(\)"):
            backward(loss)
        assert np.array_equal(w.grad, np.zeros(2))

    def test_recording_is_scoped(self):
        w = Parameter("w", np.ones(2))
        with recording():
            with recording():
                inner = sum_all(w)
            outer = sum_all(w)
        after = sum_all(w)
        assert inner._parents == (w,) and outer._parents == (w,)
        assert after._parents == () and after._vjp is None

    def test_record_is_a_chain_in_creation_order(self):
        """Each op recorded in the outermost block, nested blocks included,
        points to the one recorded before it; leaves and parameters are not
        on the chain."""
        w = Parameter("w", np.ones(2))
        with recording():
            first = mul(w, Tensor([2.0, 3.0]))
            with recording():
                second = sum_all(first)
            third = add(second, second)
        assert recorded_ops(third) == [third, second, first]

    def test_tensor_of_another_block_raises(self):
        """A gradient that would reach a tensor recorded in an earlier block
        raises instead of being dropped, and leaves nothing pending."""
        w = Parameter("w", np.ones(2))
        with recording():
            early = mul(w, w)
        with recording():
            late = mul(early, Tensor([1.0, 2.0]))
            loss = sum_all(late)
        with pytest.raises(StateError, match="another recording"):
            backward(loss)
        assert np.array_equal(w.grad, np.zeros(2))
        assert all(op._grad is None for op in recorded_ops(loss))

    def test_tensor_of_a_differentiated_block_raises(self):
        """A spent tensor of another block still belongs to it."""
        w = Parameter("w", np.ones(2))
        with recording():
            early = mul(w, w)
            backward(sum_all(early))
        with recording():
            loss = sum_all(mul(early, Tensor([1.0, 2.0])))
        with pytest.raises(StateError, match="another recording"):
            backward(loss)
        assert np.array_equal(w.grad, 2.0 * np.ones(2))

    def test_tensor_an_earlier_pass_consumed_raises(self):
        w = Parameter("w", np.ones(2))
        with recording():
            shared = mul(w, w)
            backward(sum_all(shared))
            loss = sum_all(add(shared, shared))
            with pytest.raises(StateError, match="consumed"):
                backward(loss)
        assert np.array_equal(w.grad, 2.0 * np.ones(2))

    def test_unused_record_is_freed_without_the_cycle_collector(self):
        """Dropping a recorded loss that was never differentiated frees its
        intermediates by reference counting alone: the record holds no
        reference cycle."""
        w = Parameter("w", np.ones(3))
        gc.collect()
        gc.disable()
        try:
            with recording():
                hidden = mul(w, w)
                loss = sum_all(mul(hidden, hidden))
            alive = weakref.ref(hidden.data)
            del hidden
            assert alive() is not None
            del loss
            assert alive() is None
        finally:
            gc.enable()

    def test_recording_does_not_reach_another_thread(self):
        w = Parameter("w", np.ones(2))
        results = []
        with recording():
            worker = threading.Thread(target=lambda: results.append(sum_all(w)))
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert results[0]._vjp is None


def test_recorded_step_frees_each_op_as_backward_passes_it():
    """One toy training step on a 30-word tree of one-letter words (n = 30,
    U = 681). Its backward peak above the heap before the forward stays
    under 1.5x the memory the forward kept: measured 1.42x when each op's
    saved arrays are freed as the walk passes it (1.33x while the relation
    op also kept h and r h per level, a larger denominator), 1.75x when
    every op keeps them until backward returns."""
    base = random_tree(np.random.default_rng(21), 30)
    tree = dataclasses.replace(base, forms=tuple("abcdefghij"[i % 10] for i in range(30)))
    model = Model.create(PipelineConfig.toy(seed=0), [tree])
    head = RegressionHead.create(model.config.d_model, 4, np.random.default_rng(1))
    sentence = model.prepare(tree)
    targets = pseudo_targets(sentence)
    backward(sentence_loss(model, head, sentence, targets))  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = sentence_loss(model, head, sentence, targets)
        kept = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (sentence.n_chars, len(sentence.char_map.table)) == (30, 681)
    assert peak <= 1.5 * kept, (peak, kept)


class TestCheckGradient:
    def test_records_only_the_unperturbed_call(self):
        w = Parameter("w", np.array([0.5, -1.0, 2.0]))
        recorded = []

        def f():
            loss = sum_all(mul(w, w))
            recorded.append(loss._vjp is not None)
            return loss

        assert check_gradient(f, [w]).max_rel_error < 1e-9
        assert recorded == [True] + [False] * (2 * 3)

    def test_quadratic_is_nearly_exact(self):
        rng = np.random.default_rng(11)
        w = Parameter("w", rng.uniform(0.2, 1.0, size=(4, 4)))
        coeff = Tensor(rng.uniform(0.5, 1.5, size=(4, 4)))
        report = check_gradient(lambda: sum_all(mul(coeff, mul(w, w))), [w], eps=1e-5)
        assert report.max_rel_error < 1e-9

    def test_zero_eps_rejected(self):
        w = Parameter("w", [1.0])
        with pytest.raises(ValueError):
            check_gradient(lambda: sum_all(w), [w], eps=0.0)

    def test_duplicate_names_rejected(self):
        a, b = Parameter("w", [1.0]), Parameter("w", [2.0])
        with pytest.raises(ValueError):
            check_gradient(lambda: sum_all(add(a, b)), [a, b])

    def test_non_finite_eval_names_coordinate(self):
        # Finite exactly at w = 0, overflowing once perturbed.
        w = Parameter("w", [0.0])
        with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
            check_gradient(lambda: sum_all(mul(mul(w, 1e200), mul(w, 1e200))), [w])
        assert "w" in str(err.value)

    @pytest.mark.parametrize("seed", range(20))
    def test_composite_ops_match_differences(self, seed):
        """Linear map, row product, GRU step, attention score and transposed
        product all gradcheck <= 1e-5."""
        from sga.encoder import EncoderBlockParams
        from sga.gru import gru_cell_forward
        from sga.relation import RelationEncoderParams

        rng = np.random.default_rng(seed)
        w = Parameter("lin.w", rng.standard_normal((3, 4)))
        b = Parameter("lin.b", rng.standard_normal((1, 3)))
        x = Tensor(rng.standard_normal((1, 4)))
        report = check_gradient(lambda: sum_all(add(matmul_t(x, w), b)), [w, b])
        assert report.max_rel_error <= 1e-5

        gru = RelationEncoderParams.create(1, 3, 2, rng).gru_fwd
        h0 = Tensor(rng.standard_normal((1, 2)))
        xs = Tensor(rng.standard_normal((1, 3)))
        probe = Tensor(rng.standard_normal((1, 2)))
        report = check_gradient(
            lambda: sum_all(mul(gru_cell_forward(gru, h0, xs), probe)),
            gru.parameters(),
        )
        assert report.max_rel_error <= 1e-5

        head = EncoderBlockParams.create("blk", 4, 2, 8, 3, rng).heads[0]
        xi = Tensor(rng.standard_normal((1, 4)))
        xj = Tensor(rng.standard_normal((1, 4)))
        score_params = [head.w_q, head.w_k]

        def score():
            return matmul_t(matmul_t(xi, head.w_q), matmul_t(xj, head.w_k))

        report = check_gradient(score, score_params)
        assert report.max_rel_error <= 1e-5

        rows = Parameter("rows.a", rng.standard_normal((3, 4)))
        w_rows = Parameter("rows.w", rng.standard_normal((2, 4)))
        probe = Tensor(rng.standard_normal((3, 2)))
        report = check_gradient(
            lambda: sum_all(mul(matmul_rows(rows, w_rows), probe)), [rows, w_rows]
        )
        assert report.max_rel_error <= 1e-5

        a = Parameter("t.a", rng.standard_normal((3, 4)))
        b = Parameter("t.b", rng.standard_normal((2, 4)))
        probe = Tensor(rng.standard_normal((3, 2)))
        report = check_gradient(lambda: sum_all(mul(matmul_t(a, b), probe)), [a, b])
        assert report.max_rel_error <= 1e-5

    @pytest.mark.parametrize("with_relations", [True, False], ids=["relations", "content"])
    @pytest.mark.parametrize("seed", range(3))
    def test_attention_sublayer_matches_differences(self, seed, with_relations):
        """The fused attention sublayer gradchecks <= 1e-5 for every parent:
        x, the encodings, the stacked w_qkv and w_r, and w_o. d_model 12,
        2 d_h 10 and d_head 4 all differ, and 36 pairs share 3 paths, so the
        backward scatter sums many pairs into each cell."""
        from sga.encoder import EncoderBlockParams, _multi_head_attention
        from sga.relation import RelationTensor

        rng = np.random.default_rng(seed)
        block = EncoderBlockParams.create("blk", 12, 3, 8, 5, rng)
        n, paths = 6, 3
        x = Parameter("x", rng.standard_normal((n, 12)))
        params = [x]
        relations = None
        if with_relations:
            relations = RelationTensor(
                encodings=Parameter("enc", rng.standard_normal((paths, 10))),
                pair_index=rng.integers(0, paths, (n, n)),
                char_map=None,
            )
            params += [relations.encodings, block.w_r]
        params += [block.w_qkv, block.w_o]
        probe = Tensor(rng.standard_normal((n, 12)))

        def loss():
            return sum_all(mul(_multi_head_attention(x, relations, block), probe))

        report = check_gradient(loss, params)
        assert report.max_rel_error <= 1e-5, report.worst()


def test_sub_roundtrip():
    m = np.random.default_rng(3).standard_normal((2, 5))
    z = sub(Tensor(m), Tensor(m))
    assert np.array_equal(z.data, np.zeros_like(m))
