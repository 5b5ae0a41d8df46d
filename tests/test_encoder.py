"""Attention scores, the vectorized layer against loop oracles, and the
encoder stack reductions."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sga.autodiff import (
    Parameter, Tensor, backward, glorot_uniform, lift, mul, recording, softmax, sum_all,
    zero_gradients,
)
from sga.config import PipelineConfig
from sga.conllu import DependencyTree, Edge, read_conllu
from sga.encoder import (
    AttentionHeadParams,
    EncoderBlockParams,
    LAYER_NORM_EPS,
    baseline_score,
    encoder_forward,
    position_signal,
    syntax_score,
    syntax_score_terms,
    _block_tail,
    _check_relations,
    _multi_head_attention,
)
from sga.errors import CoverageError, ShapeError, VocabError
from sga.pipeline import Model
from sga.verify import random_sentence_tree, random_tree

from composed_ops import composed_block_tail, recorded_ops

def graph_attention_layer(x, relations, block):
    """One multi-head attention sublayer as the encoder blocks run it (no
    residual or normalization), with the blocks' coverage check."""
    x = lift(x)
    _check_relations(relations, x.data.shape[0])
    return _multi_head_attention(x, relations, block)


CHAIN = DependencyTree(
    ("a", "bc", "d"),
    (Edge(3, 2, "obj"), Edge(2, 1, "nmod")),
    3,
)


def random_head(rng, d_model=6, d_head=3, d_h=4):
    return AttentionHeadParams(
        w_q=Parameter("w_q", rng.standard_normal((d_head, d_model))),
        w_k=Parameter("w_k", rng.standard_normal((d_head, d_model))),
        w_v=Parameter("w_v", rng.standard_normal((d_head, d_model))),
        w_r=Parameter("w_r", rng.standard_normal((2 * d_model, 2 * d_h))),
    )


def toy_model(seed=0, use_positions=True, trees=(CHAIN,), **dims):
    config = PipelineConfig(**{
        "d_model": 8, "d_e": 4, "d_h": 4, "n_blocks": 2, "heads": 2, "d_ff": 16,
        "seed": seed, "use_positions": use_positions, **dims,
    })
    model = Model.create(config, list(trees))
    return model


class TestBaselineScore:
    def test_orthogonal_basis_vectors(self):
        head = AttentionHeadParams(
            w_q=Parameter("q", np.eye(3)),
            w_k=Parameter("k", np.eye(3)),
            w_v=Parameter("v", np.eye(3)),
            w_r=Parameter("r", np.zeros((6, 4))),
        )
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        assert baseline_score(e1, e2, head) == 0.0
        assert baseline_score(e1, e1, head) == 1.0

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        head = random_head(rng)
        x_i = rng.standard_normal(6)
        x_j = rng.standard_normal(6)
        # s = sum_a sum_b (W_q x_i)_a-free explicit expansion:
        expected = 0.0
        for a in range(3):
            q_a = sum(head.w_q.data[a, c] * x_i[c] for c in range(6))
            k_a = sum(head.w_k.data[a, c] * x_j[c] for c in range(6))
            expected += q_a * k_a
        assert baseline_score(x_i, x_j, head) == pytest.approx(expected, abs=1e-12)

    def test_shape_error(self):
        head = random_head(np.random.default_rng(1))
        with pytest.raises(ShapeError):
            baseline_score(np.zeros(5), np.zeros(6), head)


class TestSyntaxScore:
    def test_zero_biases_reduce_to_baseline(self):
        rng = np.random.default_rng(2)
        head = random_head(rng)
        x_i, x_j = rng.standard_normal(6), rng.standard_normal(6)
        zero = np.zeros(6)
        assert syntax_score(x_i, x_j, zero, zero, head) == baseline_score(x_i, x_j, head)

    def test_zero_content_leaves_relation_term(self):
        rng = np.random.default_rng(3)
        head = random_head(rng)
        r_f, r_b = rng.standard_normal(6), rng.standard_normal(6)
        zero = np.zeros(6)
        score = syntax_score(zero, zero, r_f, r_b, head)
        terms = syntax_score_terms(zero, zero, r_f, r_b, head)
        assert terms[0] == terms[1] == terms[2] == 0.0
        assert score == pytest.approx(terms[3], abs=1e-12)

    def test_factored_equals_term_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            head = random_head(rng)
            x_i, x_j, r_f, r_b = (rng.standard_normal(6) for _ in range(4))
            factored = syntax_score(x_i, x_j, r_f, r_b, head)
            assert factored == pytest.approx(
                sum(syntax_score_terms(x_i, x_j, r_f, r_b, head)), abs=1e-10
            )


def attention_weights(scores, d):
    """Row-wise softmax of scores / sqrt(d), as the attention layer takes it."""
    return softmax(scores, math.sqrt(d))


class TestAttentionWeights:
    def test_equal_scores_give_uniform_rows(self):
        out = attention_weights(np.zeros((4, 4)), d=16)
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_single_node(self):
        assert np.array_equal(attention_weights(np.array([[3.0]]), d=4), [[1.0]])

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((5, 5))
        shifted = scores.copy()
        shifted[2] += 7.25
        base = attention_weights(scores, d=9)
        moved = attention_weights(shifted, d=9)
        np.testing.assert_allclose(base[2], moved[2], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        out = attention_weights(rng.normal(scale=5, size=(7, 7)), d=4)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            attention_weights(np.zeros((2, 2)), d=0)
        with pytest.raises(ValueError, match="empty"):
            attention_weights(np.zeros((2, 0)), d=2)


class TestGraphAttentionLayer:
    def test_single_node_outputs_projected_value(self):
        model = toy_model()
        tree = DependencyTree(("a",), (), 1)
        single = Model.create(model.config, [tree])
        sentence = single.prepare(tree)
        rel = single.encode_relations(sentence)
        block = single.stack.blocks[0]
        x = np.random.default_rng(7).standard_normal((1, 8))
        out = graph_attention_layer(Tensor(x), rel, block)
        values = np.concatenate([h.w_v.data @ x[0] for h in block.heads])
        np.testing.assert_allclose(out.data[0], block.w_o.data @ values, atol=1e-12)

    @pytest.mark.parametrize(
        "tree, dims",
        [(CHAIN, {})]
        + [(random_sentence_tree(np.random.default_rng(s)), {}) for s in range(3)]
        # d_model 12, 2 d_h 10 and d_head 4 all differ, so a fold of W_r into
        # Wq and Wk that mixes up its axes or halves cannot pass.
        + [(random_sentence_tree(np.random.default_rng(0)),
            {"d_model": 12, "d_e": 3, "d_h": 5, "heads": 3})]
        # One character in one word: n = 1 and a single path.
        + [(DependencyTree(("a",), (), 1), {})]
        # As many heads as model dimensions: d_head = 1.
        + [(random_sentence_tree(np.random.default_rng(1)), {"heads": 8})],
        ids=["chain", "random0", "random1", "random2", "random0-non-square",
             "one-char", "d_head-1"],
    )
    def test_triple_loop_oracle(self, tree, dims):
        """Vectorized layer vs an explicit per-pair, per-head recomputation
        that splits W_r r_ij unfolded."""
        model = toy_model(seed=11, trees=(tree,), **dims)
        sentence = model.prepare(tree)
        rel = model.encode_relations(sentence)
        block = model.stack.blocks[0]
        n, d_model = sentence.n_chars, model.config.d_model
        rng = np.random.default_rng(8)
        x = rng.standard_normal((n, d_model))

        out = graph_attention_layer(Tensor(x), rel, block)

        head_outs = []
        for head in block.heads:
            d_head = head.d_head
            scores = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    y = head.w_r.data @ rel.encodings.data[rel.pair_index[i, j]]
                    scores[i, j] = syntax_score(
                        x[i], x[j], y[:d_model], y[d_model:], head
                    )
            weights = np.zeros_like(scores)
            for i in range(n):
                row = scores[i] / np.sqrt(d_head)
                row = np.exp(row - row.max())
                weights[i] = row / row.sum()
            head_out = np.zeros((n, d_head))
            for i in range(n):
                for j in range(n):
                    head_out[i] += weights[i, j] * (head.w_v.data @ x[j])
            head_outs.append(head_out)
        expected = np.concatenate(head_outs, axis=1) @ block.w_o.data.T
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_zero_relations_match_plain_transformer_layer(self):
        """With zeroed encodings the layer equals an independent content-only
        multi-head attention implementation."""
        model = toy_model(seed=13)
        sentence = model.prepare(CHAIN)
        rel = model.encode_relations(sentence).zeroed()
        block = model.stack.blocks[0]
        n = sentence.n_chars
        x = np.random.default_rng(9).standard_normal((n, 8))

        out = graph_attention_layer(Tensor(x), rel, block)

        head_outs = []
        for head in block.heads:
            q = x @ head.w_q.data.T
            k = x @ head.w_k.data.T
            v = x @ head.w_v.data.T
            scores = q @ k.T / np.sqrt(head.d_head)
            ex = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights = ex / ex.sum(axis=1, keepdims=True)
            head_outs.append(weights @ v)
        expected = np.concatenate(head_outs, axis=1) @ block.w_o.data.T
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_missing_pair_is_coverage_error(self):
        model = toy_model()
        sentence = model.prepare(CHAIN)
        rel = model.encode_relations(sentence)
        rel.pair_index = rel.pair_index.copy()
        rel.pair_index[1, 2] = -1
        x = Tensor(np.zeros((sentence.n_chars, 8)))
        with pytest.raises(CoverageError):
            graph_attention_layer(x, rel, model.stack.blocks[0])

    def test_wrong_length_is_coverage_error(self):
        model = toy_model()
        sentence = model.prepare(CHAIN)
        rel = model.encode_relations(sentence)
        with pytest.raises(CoverageError):
            graph_attention_layer(
                Tensor(np.zeros((sentence.n_chars + 1, 8))), rel, model.stack.blocks[0]
            )

    @pytest.mark.parametrize(
        "malform",
        [lambda t: t[:, :-1], lambda t: t[:-1], lambda t: t.astype(np.float64)],
        ids=["one-column-short", "one-row-short", "float"],
    )
    def test_malformed_table_is_coverage_error(self, malform):
        """A table that is not (n, n) integers is rejected before numpy
        broadcasts or indexes with it."""
        model = toy_model()
        sentence = model.prepare(CHAIN)
        rel = model.encode_relations(sentence)
        rel = dataclasses.replace(rel, pair_index=malform(rel.pair_index))
        x = Tensor(np.zeros((sentence.n_chars, 8)))
        with pytest.raises(CoverageError, match=r"shape \(4, 4\)"):
            graph_attention_layer(x, rel, model.stack.blocks[0])


def plain_transformer_forward(model, sentence):
    """Independent content-only encoder: embeddings, sinusoidal positions,
    post-norm blocks, written directly in numpy."""
    stack = model.stack
    x = stack.char_embedding.data[sentence.char_ids]
    n, d_model = x.shape
    if stack.use_positions:
        pos = np.zeros((n, d_model))
        for p in range(n):
            for k in range(0, d_model, 2):
                angle = p / 10000.0 ** (k / d_model)
                pos[p, k] = np.sin(angle)
                pos[p, k + 1] = np.cos(angle)
        x = x + pos

    def norm(values, gain, bias):
        mu = values.mean(axis=-1, keepdims=True)
        centered = values - mu
        var = (centered ** 2).mean(axis=-1, keepdims=True)
        return gain * centered / np.sqrt(var + LAYER_NORM_EPS) + bias

    for block in stack.blocks:
        head_outs = []
        for head in block.heads:
            q = x @ head.w_q.data.T
            k = x @ head.w_k.data.T
            v = x @ head.w_v.data.T
            scores = q @ k.T / np.sqrt(head.d_head)
            ex = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights = ex / ex.sum(axis=1, keepdims=True)
            head_outs.append(weights @ v)
        attn = np.concatenate(head_outs, axis=1) @ block.w_o.data.T
        x = norm(x + attn, block.norm1_gain.data, block.norm1_bias.data)
        hidden = np.maximum(x @ block.ffn_w1.data.T + block.ffn_b1.data, 0.0)
        ffn = hidden @ block.ffn_w2.data.T + block.ffn_b2.data
        x = norm(x + ffn, block.norm2_gain.data, block.norm2_bias.data)
    return x


class TestEncoderForward:
    def test_zero_blocks_return_embeddings_plus_positions(self):
        config = PipelineConfig(
            d_model=8, d_e=4, d_h=4, n_blocks=0, heads=2, d_ff=16, seed=0
        )
        model = Model.create(config, [CHAIN])
        sentence = model.prepare(CHAIN)
        expected = (
            model.stack.char_embedding.data[sentence.char_ids]
            + position_signal(sentence.n_chars, 8)
        )
        assert np.array_equal(model.forward(sentence).data, expected)
        assert np.array_equal(model.forward(sentence, baseline=True).data, expected)

    def test_zero_relations_reduce_to_baseline_bitwise(self):
        model = toy_model(seed=21)
        sentence = model.prepare(CHAIN)
        with_zero = model.forward(sentence, zero_relations=True)
        plain = model.forward(sentence, baseline=True)
        assert np.array_equal(with_zero.data, plain.data)

    def test_zero_gru_parameters_also_reduce_to_baseline(self):
        """All-zero GRU weights pin every path encoding at the zero fixed
        point, so the full relation machinery contributes exactly nothing."""
        model = toy_model(seed=23)
        for p in model.relation.parameters()[1:]:
            p.assign(np.zeros_like(p.data))
        sentence = model.prepare(CHAIN)
        rel = model.encode_relations(sentence)
        assert np.all(rel.encodings.data == 0.0)
        full = model.forward(sentence)
        plain = model.forward(sentence, baseline=True)
        assert np.array_equal(full.data, plain.data)

    def test_baseline_matches_independent_transformer(self):
        model = toy_model(seed=22)
        sentence = model.prepare(CHAIN)
        out = model.forward(sentence, baseline=True)
        np.testing.assert_allclose(
            out.data, plain_transformer_forward(model, sentence), atol=1e-10
        )

    def test_seeded_run_is_bit_identical(self):
        one = toy_model(seed=33)
        two = toy_model(seed=33)
        s1 = one.prepare(CHAIN)
        s2 = two.prepare(CHAIN)
        assert np.array_equal(one.forward(s1).data, two.forward(s2).data)

    def test_unknown_char_id_rejected(self):
        model = toy_model()
        sentence = model.prepare(CHAIN)
        bad = sentence.char_ids.copy()
        bad[0] = 999
        with pytest.raises(VocabError):
            encoder_forward(bad, model.encode_relations(sentence), model.stack)

    def test_permutation_equivariance_without_positions(self):
        model = toy_model(seed=44, use_positions=False)
        sentence = model.prepare(CHAIN)
        rel = model.encode_relations(sentence)
        out = encoder_forward(sentence.char_ids, rel, model.stack)

        rng = np.random.default_rng(0)
        perm = rng.permutation(sentence.n_chars)
        permuted = dataclasses.replace(
            rel, pair_index=rel.pair_index[np.ix_(perm, perm)]
        )
        out_perm = encoder_forward(sentence.char_ids[perm], permuted, model.stack)
        np.testing.assert_allclose(out_perm.data, out.data[perm], atol=1e-12)

    def test_tape_holds_no_tensor_above_two_dims(self, flight_tree):
        """Relation terms are gathered per pair from (n, paths) products; no
        (n, n, d) bias grid is ever recorded, with relations or without. W_r
        is folded into the query/key maps, so nothing with one row per
        distinct path is wider than the (paths, 2 d_h) encodings: with
        d_model 12 > 2 d_h 6, a (paths, d_model) projection would show.
        Only the stacked weights, parameters, have more than two dims."""
        model = toy_model(seed=56, trees=(flight_tree,), d_model=12, heads=3, d_h=3)
        sentence = model.prepare(flight_tree)
        paths = model.encode_relations(sentence).encodings.data.shape[0]
        assert paths not in (sentence.n_chars, 2 * 3)
        with recording():
            outs = (model.forward(sentence), model.forward(sentence, baseline=True))
        for out in outs:
            seen, stack = {id(out)}, [out]
            while stack:
                node = stack.pop()
                assert node.data.ndim <= 2 or isinstance(node, Parameter), node.shape
                if node.data.ndim == 2 and node.shape[0] == paths:
                    assert node.shape[1] <= 2 * 3, node.shape
                for parent in node._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)

    def test_row_stochastic_weights_on_fixture(self, flight_tree):
        model = toy_model(seed=55, trees=(flight_tree,))
        sentence = model.prepare(flight_tree)
        _, maps = model.forward(sentence, collect_attention=True)
        assert len(maps) == 2 * 2  # blocks x heads
        for amap in maps:
            np.testing.assert_allclose(
                amap.weights.sum(axis=1), 1.0, atol=1e-12,
                err_msg=f"block {amap.block} head {amap.head}",
            )
            assert np.all(amap.weights >= 0.0) and np.all(amap.weights <= 1.0)

    def test_relation_sensitivity_of_scores(self):
        """Redirecting one pair to a different path changes that pair's score
        and no other, in the scores the first block collects."""
        model = toy_model(seed=66)
        sentence = model.prepare(CHAIN)
        rel = model.encode_relations(sentence)

        def first_scores(relations):
            _, maps = encoder_forward(
                sentence.char_ids, relations, model.stack, collect_attention=True
            )
            return maps[0].scores

        before = first_scores(rel)
        i, j = 0, 3
        current = rel.pair_index[i, j]
        replacement = (current + 1) % rel.encodings.data.shape[0]
        new_index = rel.pair_index.copy()
        new_index[i, j] = replacement
        after = first_scores(dataclasses.replace(rel, pair_index=new_index))

        assert after[i, j] != before[i, j]
        mask = np.ones_like(before, dtype=bool)
        mask[i, j] = False
        assert np.array_equal(before[mask], after[mask])


class TestBlockTail:
    @pytest.mark.parametrize("seed", range(3))
    def test_fused_tail_equals_composed_ops(self, seed):
        """The block tail as one op gives the nine composed ops' output and
        gradients bit for bit, and gradchecks <= 1e-5 for x, the attention
        output and all eight feed-forward and norm parameters. Jittered
        norm parameters and a d_ff of 7 keep every term generic."""
        from sga.gradcheck import check_gradient

        rng = np.random.default_rng(seed)
        block = EncoderBlockParams.create("blk", 6, 2, 7, 3, rng)
        tail = [
            block.ffn_w1, block.ffn_b1, block.ffn_w2, block.ffn_b2,
            block.norm1_gain, block.norm1_bias, block.norm2_gain, block.norm2_bias,
        ]
        for p in tail:
            p.assign(p.data + rng.uniform(-0.5, 0.5, p.shape))
        x = Parameter("x", rng.standard_normal((5, 6)))
        attn = Parameter("attn", rng.standard_normal((5, 6)))
        probe = Tensor(rng.standard_normal((5, 6)))
        params = [x, attn] + tail
        results = []
        for run in (_block_tail, composed_block_tail):
            zero_gradients(params)
            with recording():
                out = run(x, attn, block)
                backward(sum_all(mul(out, probe)))
            results.append((out.data, [p.grad.copy() for p in params]))
        (fused, fused_grads), (composed, composed_grads) = results
        assert np.array_equal(fused, composed)
        for p, a, b in zip(params, fused_grads, composed_grads):
            assert np.any(b != 0.0), p.name
            assert np.array_equal(a, b), p.name
        report = check_gradient(
            lambda: sum_all(mul(_block_tail(x, attn, block), probe)), params
        )
        assert report.max_rel_error <= 1e-5, report.worst()


class TestTapeFreeInference:
    """Outside autodiff.recording() a forward pass records nothing and
    computes the same bits as a recorded one."""

    @pytest.mark.parametrize("name", ["flight.conllu", "dogs.conllu"])
    @pytest.mark.parametrize("mode", [{}, {"zero_relations": True}, {"baseline": True}])
    def test_forward_keeps_no_tape(self, fixtures_dir, name, mode):
        trees = read_conllu((fixtures_dir / name).read_text(encoding="utf-8"))
        model = toy_model(seed=71, trees=trees)
        for tree in trees:
            sentence = model.prepare(tree)
            free, free_maps = model.forward(sentence, collect_attention=True, **mode)
            with recording():
                taped, taped_maps = model.forward(sentence, collect_attention=True, **mode)
            assert free._parents == () and free._vjp is None
            assert taped._vjp is not None
            assert np.array_equal(free.data, taped.data)
            for a, b in zip(free_maps, taped_maps, strict=True):
                assert np.array_equal(a.scores, b.scores)
                assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("name", ["flight.conllu", "dogs.conllu"])
    def test_relation_encodings_keep_no_tape(self, fixtures_dir, name):
        trees = read_conllu((fixtures_dir / name).read_text(encoding="utf-8"))
        model = toy_model(seed=72, trees=trees)
        for tree in trees:
            sentence = model.prepare(tree)
            free = model.encode_relations(sentence).encodings
            with recording():
                taped = model.encode_relations(sentence).encodings
            assert free._parents == () and free._vjp is None
            assert taped._vjp is not None
            assert np.array_equal(free.data, taped.data)

    def test_forward_leaves_only_its_output_allocated(self, flight_tree):
        model = Model.create(PipelineConfig.toy(seed=0), [flight_tree])
        sentence = model.prepare(flight_tree)
        model.forward(sentence)  # first-call allocations are not the pass's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = model.forward(sentence)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= out.data.nbytes + 16 * 1024


class TestAttentionTransientMemory:
    """One attention op over a 30-word tree of one-letter words at toy dims:
    n = 30 characters, U = 681 distinct paths, 2 heads of d_head = 8. Its
    relation bias terms are (n, U) products, 163 KB each here, against
    14 KB for an (n, n) score grid, so the op's transient peak shows how
    many of them are alive at once."""

    SLACK = 128 * 1024  # scores, weights, index tables, a (U, d_head) temporary

    @pytest.fixture
    def op(self):
        base = random_tree(np.random.default_rng(21), 30)
        forms = tuple("abcdefghij"[i % 10] for i in range(30))
        tree = dataclasses.replace(base, forms=forms)
        model = Model.create(PipelineConfig.toy(seed=0), [tree])
        sentence = model.prepare(tree)
        rel = model.encode_relations(sentence)
        x = Tensor(np.random.default_rng(1).standard_normal((sentence.n_chars, 16)))
        block = model.stack.blocks[0]
        _multi_head_attention(x, rel, block)  # first-call allocations are not its
        n, U = sentence.n_chars, rel.encodings.data.shape[0]
        assert (n, U) == (30, 681)
        # One (n, U) product or gradient, plus the (U, 2, H, d_head) relation
        # queries and keys or their gradient; a second product exceeds SLACK.
        bound = 8 * (n * U + 2 * 2 * U * 8) + self.SLACK
        assert self.SLACK < 8 * n * U
        return x, rel, block, bound

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_forward_holds_one_product_at_a_time(self, op):
        x, rel, block, bound = op
        assert self.traced_peak(lambda: _multi_head_attention(x, rel, block)) <= bound

    def test_backward_holds_one_product_gradient_at_a_time(self, op):
        x, rel, block, bound = op
        with recording():
            loss = sum_all(_multi_head_attention(x, rel, block))
            assert self.traced_peak(lambda: backward(loss)) <= bound


def closure_arrays(fn):
    """Every ndarray an op's VJP closes over, inside tuples and lists too,
    and every array those are views of."""
    stack = [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            yield item
            stack.append(item.base)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)


class TestStackedWeights:
    """The attention and GRU weights are stored stacked, in the layout the
    fused ops read, and drawn as they were when each head and gate was its
    own parameter."""

    DIMS = dict(d_model=12, heads=3, d_e=5, d_h=7, d_ff=10, n_blocks=2)

    def test_initial_values_follow_the_per_head_draw_order(self, flight_tree):
        """One seed, drawn slice by slice with each slice's own Glorot fans:
        the label table; the forward cell's w_z, u_z, w_r, u_r, w_h, u_h,
        then the backward cell's; the character table; per block, each
        head's w_q, w_k, w_v, w_r, then w_o, ffn_w1, ffn_w2. Biases and
        norms are constants."""
        model = toy_model(seed=17, trees=(flight_tree,), **self.DIMS)
        d_model, d_head, d_e, d_h, d_ff = 12, 4, 5, 7, 10
        rng = np.random.default_rng(17)

        def draw(rows, cols):
            return glorot_uniform(rng, rows, cols)

        expected = {"rel.edge_embedding": draw(len(model.label_vocab), d_e)}
        cells = [[draw(d_h, n) for _ in range(3) for n in (d_e, d_h)] for _ in range(2)]
        expected["rel.w"] = np.array([np.concatenate(c[0::2]) for c in cells])
        expected["rel.u_zr"] = np.array([np.concatenate(c[1:4:2]) for c in cells])
        expected["rel.u_h"] = np.array([c[5] for c in cells])
        expected["rel.b_zr"], expected["rel.b_h"] = np.zeros((2, 2 * d_h)), np.zeros((2, d_h))
        expected["enc.char_embedding"] = draw(len(model.char_vocab), d_model)
        for b in range(2):
            heads = [[draw(d_head, d_model) for _ in range(3)] + [draw(2 * d_model, 2 * d_h)]
                     for _ in range(3)]
            prefix = f"enc.block{b}."
            expected[prefix + "w_qkv"] = np.array([[h[t] for h in heads] for t in range(3)])
            expected[prefix + "w_r"] = np.array([h[3] for h in heads])
            expected[prefix + "w_o"] = draw(d_model, d_model)
            expected[prefix + "ffn_w1"] = draw(d_ff, d_model)
            expected[prefix + "ffn_w2"] = draw(d_model, d_ff)
            for name, size in (("ffn_b1", d_ff), ("ffn_b2", d_model), ("norm1_bias", d_model),
                               ("norm2_bias", d_model)):
                expected[prefix + name] = np.zeros(size)
            for name in ("norm1_gain", "norm2_gain"):
                expected[prefix + name] = np.ones(d_model)
        params = model.parameters()
        assert {p.name for p in params} == set(expected)
        for p in params:
            assert np.array_equal(p.data, expected[p.name]), p.name

    def test_tape_holds_no_weight_copies(self, flight_tree):
        """No array a recorded op keeps for its backward pass, or views, has
        the layout of a weight the fused ops read unless it is that weight's
        storage. The folded maps W_q W_r,top and W_k W_r,bottom are
        products, not copies, and are exempt. No activation here has a
        weight's shape: n = 37, 57 paths, no level of 7 or 14 paths."""
        model = toy_model(seed=18, trees=(flight_tree,), **self.DIMS)
        sentence = model.prepare(flight_tree)
        d_model, H, d_head, d_e, d_h = 12, 3, 4, 5, 7
        layouts = {
            (3, H, d_head, d_model), (3 * H * d_head, d_model), (H, 2 * d_model, 2 * d_h),
            (2, 3 * d_h, d_e), (2, 2 * d_h, d_h), (2, d_h, d_h),
        }
        params = model.parameters()
        weights = layouts | {p.shape for p in params}
        folded = {(2, H, d_head, 2 * d_h), (2 * H * d_head, 2 * d_h)}
        table = sentence.char_map.table
        assert (sentence.n_chars, len(table)) == (37, 57)
        assert not {7, 14} & set(np.bincount(table.length))
        with recording():
            out = model.forward(sentence)
        checked = 0
        for op in recorded_ops(out):
            for a in closure_arrays(op._vjp):
                if a.shape in weights and a.shape not in folded:
                    checked += 1
                    assert any(np.shares_memory(a, p.data) for p in params), a.shape
        assert checked > 0
