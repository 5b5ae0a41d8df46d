"""Label vocabulary, path encoding, and dedup batching."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sga import relation, syntax_graph
from sga.autodiff import (
    Parameter, Tensor, backward, concat_last, mul, recording, sum_all, take, zero_gradients,
)
from sga.conllu import DependencyTree, Edge
from sga.config import PipelineConfig
from sga.gradcheck import check_gradient
from sga.gru import gru_cell_forward
from sga.pipeline import Model
from sga.relation import (
    LabelVocab,
    RelationEncoderParams,
    RelationTensor,
    encode_paths,
)
from sga.syntax_graph import (
    SELF,
    build_syntax_graph,
    distinct_paths,
    expand_to_characters,
)
from sga.verify import lca_walk_path, lone_path_encoding, random_sentence_tree, random_tree

from composed_ops import recorded_ops
from test_encoder import closure_arrays

TWO_WORD = DependencyTree(("Dogs", "bark"), (Edge(2, 1, "nsubj"),), 2)


def chain(*labels):
    """Words 1..k+1, each word the head of the next: path(1, k+1) is
    labels[0]:fwd ... labels[-1]:fwd."""
    edges = tuple(Edge(i, i + 1, label) for i, label in enumerate(labels, start=1))
    return DependencyTree(tuple("abcdefgh"[: len(labels) + 1]), edges, 1)


def relation_tensor(cmap, params, vocab):
    return RelationTensor(encode_paths(cmap.table, params, vocab), cmap.pair_index(), cmap)


class TestLabelVocab:
    def test_two_word_graph(self):
        vocab = LabelVocab.build([build_syntax_graph(TWO_WORD)])
        assert len(vocab) == 4
        assert vocab.keys() == ["self", "<unk>", "nsubj:fwd", "nsubj:rev"]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            LabelVocab.build([])

    def test_flight_fixture_size(self, flight_tree):
        vocab = LabelVocab.build([build_syntax_graph(flight_tree)])
        base_labels = {e.label for e in flight_tree.edges}
        assert len(base_labels) == 7
        assert len(vocab) == 2 + 2 * len(base_labels) == 16

    def test_unseen_label_maps_to_unk(self):
        vocab = LabelVocab.build([build_syntax_graph(TWO_WORD)])
        assert vocab.index_of("xcomp:fwd") == 1
        assert vocab.index_of(SELF) == 0


def numpy_bigru(path_ids, params):
    """Plain-numpy bi-GRU over one label-id sequence, gate by gate."""
    table = params.edge_embedding.data

    def sigma(v):
        return 1.0 / (1.0 + np.exp(-v))

    def run(cell, ids):
        w = {name: getattr(cell, name).data for name in
             ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")}
        h = np.zeros(w["b_z"].shape)
        for i in ids:
            x = table[i]
            z = sigma(w["w_z"] @ x + w["u_z"] @ h + w["b_z"])
            r = sigma(w["w_r"] @ x + w["u_r"] @ h + w["b_r"])
            c = np.tanh(w["w_h"] @ x + w["u_h"] @ (r * h) + w["b_h"])
            h = (1.0 - z) * h + z * c
        return h

    return np.concatenate([run(params.gru_fwd, path_ids), run(params.gru_bwd, path_ids[::-1])])


class TestEncodePath:
    def test_zero_gru_params_give_zero_encoding(self):
        rng = np.random.default_rng(0)
        tree = chain("nsubj", "obj", "det")
        cmap = expand_to_characters(tree)
        vocab = LabelVocab.build([build_syntax_graph(tree)])
        params = RelationEncoderParams.create(len(vocab), d_e=3, d_h=5, rng=rng)
        for p in params.parameters()[1:]:
            p.assign(np.zeros_like(p.data))
        out = encode_paths(cmap.table, params, vocab)
        assert max(cmap.table.length) == 3
        assert np.array_equal(out.data, np.zeros((len(cmap.table), 10)))

    def test_scalar_oracle_for_length_one_path(self):
        """d_e = d_h = 1 with hand-picked weights; the single step has a
        zero previous state, so each direction reduces to z * tanh(w_h e + b_h)."""
        params = RelationEncoderParams.create(4, d_e=1, d_h=1, rng=np.random.default_rng(0))
        e = 0.8
        params.edge_embedding.assign(np.full((4, 1), e))
        values = dict(w_z=0.3, b_z=0.1, w_h=0.7, b_h=0.2, w_r=0.5, b_r=-0.3,
                      u_z=-0.4, u_r=0.6, u_h=-0.5)
        # Both directions: w rows (w_z, w_r, w_h), u_zr and b_zr rows (z, r).
        params.w.assign(np.tile([[values["w_z"]], [values["w_r"]], [values["w_h"]]], (2, 1, 1)))
        params.u_zr.assign(np.tile([[values["u_z"]], [values["u_r"]]], (2, 1, 1)))
        params.b_zr.assign(np.tile([values["b_z"], values["b_r"]], (2, 1)))
        params.u_h.assign(np.full((2, 1, 1), values["u_h"]))
        params.b_h.assign(np.full((2, 1), values["b_h"]))

        def sigma(v):
            return 1.0 / (1.0 + math.exp(-v))

        z = sigma(values["w_z"] * e + values["b_z"])
        expected = z * math.tanh(values["w_h"] * e + values["b_h"])

        vocab = LabelVocab.build([build_syntax_graph(TWO_WORD)])
        table = expand_to_characters(TWO_WORD).table
        assert list(table.length) == [1, 1, 1]
        out = encode_paths(table, params, vocab)
        np.testing.assert_allclose(out.data, np.full((3, 2), expected), atol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_order_sensitivity(self, seed):
        rng = np.random.default_rng(seed)
        tree = chain("a", "b", "a")
        vocab = LabelVocab.build([build_syntax_graph(tree)])
        params = RelationEncoderParams.create(len(vocab), d_e=4, d_h=4, rng=rng)
        table = expand_to_characters(tree).table
        out = encode_paths(table, params, vocab).data
        ab, ba = table.path(1, 3), table.path(2, 4)
        assert ab.key == ("a:fwd", "b:fwd") and ba.key == ("b:fwd", "a:fwd")
        assert not np.allclose(out[table.word_pair[0, 2]], out[table.word_pair[1, 3]])

    def test_encoding_depends_only_on_label_sequence(self):
        """The same label sequence at other word pairs of another sentence,
        among other paths, gets the same bits."""
        one = DependencyTree(("a", "b", "c"), (Edge(2, 1, "nsubj"), Edge(2, 3, "obj")), 2)
        two = DependencyTree(
            ("a", "b", "c", "d", "e"),
            (Edge(4, 1, "det"), Edge(4, 2, "nsubj"), Edge(2, 3, "amod"), Edge(4, 5, "obj")),
            4,
        )
        rng = np.random.default_rng(5)
        vocab = LabelVocab.build([build_syntax_graph(one), build_syntax_graph(two)])
        params = RelationEncoderParams.create(len(vocab), d_e=3, d_h=3, rng=rng)
        rows = []
        for tree, (i, j) in ((one, (1, 3)), (two, (2, 5))):
            table = expand_to_characters(tree).table
            assert table.path(i, j).key == ("nsubj:rev", "obj:fwd")
            rows.append(encode_paths(table, params, vocab).data[table.word_pair[i - 1, j - 1]])
        assert np.array_equal(rows[0], rows[1])

    def test_empty_path_rejected(self):
        params = RelationEncoderParams.create(3, 2, 2, np.random.default_rng(0))
        vocab = LabelVocab([])
        with pytest.raises(ValueError, match="empty path"):
            lone_path_encoding((), params.edge_embedding, (params.gru_fwd, params.gru_bwd), vocab)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        tree = DependencyTree(
            ("a", "b", "c", "d"), (Edge(2, 1, "a"), Edge(2, 3, "b"), Edge(3, 4, "a")), 2
        )
        vocab = LabelVocab.build([build_syntax_graph(tree)])
        params = RelationEncoderParams.create(len(vocab), d_e=3, d_h=3, rng=rng)
        table = expand_to_characters(tree).table
        assert table.path(1, 4).key == ("a:rev", "b:fwd", "a:fwd")
        probe = Tensor(rng.standard_normal((len(table), 6)))
        report = check_gradient(
            lambda: sum_all(mul(encode_paths(table, params, vocab), probe)),
            params.parameters(),
        )
        assert report.max_rel_error <= 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_match_numpy_bigru(self, seed):
        """Every word pair's row against a numpy bi-GRU over the labels of
        the pair's lowest-common-ancestor walk."""
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, 10)
        vocab = LabelVocab.build([build_syntax_graph(tree)])
        params = RelationEncoderParams.create(len(vocab), d_e=3, d_h=4, rng=rng)
        for p in params.parameters():
            p.assign(rng.standard_normal(p.data.shape))
        table = expand_to_characters(tree).table
        out = encode_paths(table, params, vocab)
        for i in range(1, tree.n + 1):
            for j in range(1, tree.n + 1):
                ids = [vocab.index_of(label) for label in lca_walk_path(tree, i, j)]
                row = out.data[table.word_pair[i - 1, j - 1]]
                np.testing.assert_allclose(row, numpy_bigru(ids, params), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_one_gru_step_per_distinct_prefix_and_suffix(self, seed, flight_tree, monkeypatch):
        """One batched GRU step per depth covers both directions, and the
        rows stepped are the distinct prefixes in the forward direction and
        the distinct suffixes in the backward one."""
        tree = flight_tree if seed is None else random_sentence_tree(
            np.random.default_rng(seed), max_words=8
        )
        model = Model.create(PipelineConfig.toy(seed=0), [tree])
        sentence = model.prepare(tree)
        step, batches = relation.gru_level, []

        def counting(weights, h, x):
            assert h.shape[:2] == x.shape[:2] and len(h) == 2
            batches.append(h.shape[1])
            return step(weights, h, x)

        monkeypatch.setattr(relation, "gru_level", counting)
        rel = model.encode_relations(sentence)
        vocab = model.label_vocab
        ids = [tuple(vocab.index_of(label) for label in p.key) for p in rel.paths]
        prefixes = {seq[:k] for seq in ids for k in range(1, len(seq) + 1)}
        suffixes = {seq[k:] for seq in ids for k in range(len(seq))}
        longest = max(map(len, ids))
        assert longest > 1
        assert len(batches) == longest
        for steps in (prefixes, suffixes):
            assert batches == [
                sum(len(p) == depth for p in steps) for depth in range(1, longest + 1)
            ]
        assert 2 * sum(batches) == len(prefixes) + len(suffixes) == 2 * len(rel.paths)

    def test_rows_equal_lone_path_encodings_bit_for_bit(self):
        """At d_e = d_h = 200 a gemm over a level rounds a row differently
        from the same row stepped alone; the row-by-row product must not."""
        tree = random_sentence_tree(np.random.default_rng(4), max_words=12)
        model = Model.create(PipelineConfig.toy(seed=0, d_e=200, d_h=200), [tree])
        paths, _ = distinct_paths(model.prepare(tree).char_map)
        assert len(paths) > 50
        batch = model.encode_relations(model.prepare(tree)).encodings
        rel = model.relation
        cells = (rel.gru_fwd, rel.gru_bwd)
        for row, path in zip(batch.data, paths):
            alone = lone_path_encoding(path.key, rel.edge_embedding, cells, model.label_vocab)
            assert np.array_equal(alone.data[0], row)


def concat_rows(parts):
    """Stack matrices along the first axis; the gradient splits back."""
    ends = np.cumsum([p.data.shape[0] for p in parts])[:-1]
    data = np.concatenate([p.data for p in parts])
    return Tensor._result(data, tuple(parts), lambda g: tuple(np.split(g, ends)))


def composed_encoding(paths, params, vocab, cells):
    """The relation encoder built from composed autodiff ops: one
    `gru_cell_forward` per path length and direction on the level tensors,
    the final rows gathered through the stacked levels. `cells` are the
    forward and backward cells, which take the weights' gradients."""
    ids = np.array([vocab.index_of(label) for label in paths.alphabet])
    last, first = ids[paths.last], ids[paths.first]
    order = np.argsort(paths.length, kind="stable")
    levels = np.split(order, np.cumsum(np.bincount(paths.length)[1:])[:-1])
    rank = np.zeros(len(order) + 1, dtype=np.int64)
    rank[order] = np.arange(len(order))

    def run(cell, parent, label_ids):
        state = Tensor(np.zeros((1, params.u_h.shape[-1])))
        states, previous = [], 0
        for level in levels:
            parents = take(state, rank[parent[level]] - previous)
            x = take(params.edge_embedding, label_ids[level])
            state = gru_cell_forward(cell, parents, x)
            states.append(state)
            previous = rank[level[0]]
        return take(concat_rows(states), rank[:-1])

    return concat_last([run(cells[0], paths.prefix, last), run(cells[1], paths.suffix, first)])


class TestFusedLevels:
    @pytest.mark.parametrize("d_e,d_h", [(8, 8), (3, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_equal_composed_cell(self, seed, d_e, d_h):
        """The fused op's hand-written backward pass gives the composed
        cell's gradients for the label table and all 18 cell weights: each
        cell weight's against its slice of the stacked gradients."""
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, 12)
        vocab = LabelVocab.build([build_syntax_graph(tree)])
        params = RelationEncoderParams.create(len(vocab), d_e=d_e, d_h=d_h, rng=rng)
        for p in params.parameters():
            p.assign(0.5 * rng.standard_normal(p.data.shape))
        table = expand_to_characters(tree).table
        alphabet_ids = np.array([vocab.index_of(label) for label in table.alphabet])
        for labels, parent in ((table.last, table.prefix), (table.first, table.suffix)):
            ids = alphabet_ids[labels]
            depths = [set(ids[table.length == d]) for d in range(1, max(table.length) + 1)]
            assert len(depths) >= 4
            assert any(a & b for i, a in enumerate(depths) for b in depths[i + 1:])
            widths = np.bincount(table.length)[1:]
            assert any(len(seen) < width for seen, width in zip(depths[1:], widths[1:]))
            assert len(set(parent[table.length == 2])) < np.sum(table.length == 2)
        probe = Tensor(rng.standard_normal((len(table), 2 * d_h)))
        zero_gradients(params.parameters())
        with recording():
            fused = encode_paths(table, params, vocab)
            backward(sum_all(mul(fused, probe)))
        fused_grads = [p.grad.copy() for p in params.parameters()]
        params.edge_embedding.zero_grad()
        cells = (params.gru_fwd, params.gru_bwd)
        with recording():
            composed = composed_encoding(table, params, vocab, cells)
            backward(sum_all(mul(composed, probe)))
        assert np.array_equal(fused.data, composed.data)
        assert len(fused_grads) == 6
        # The stacked gradients read through the same slicing as the weights.
        stacked = RelationEncoderParams(*(
            Parameter(p.name, g) for p, g in zip(params.parameters(), fused_grads)
        ))
        pairs = [(params.edge_embedding.grad, fused_grads[0], "rel.edge_embedding")]
        for cell, grad in zip(cells, (stacked.gru_fwd, stacked.gru_bwd)):
            pairs += [
                (p.grad, g.data, p.name) for p, g in zip(cell.parameters(), grad.parameters())
            ]
        assert len(pairs) == 19
        for a, b, name in pairs:
            assert np.any(a != 0.0), name
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12, err_msg=name)

    def test_relation_stage_is_one_op(self, flight_tree):
        """Both directions, every level and the concatenation record one op
        whose parents are the label table and the five stacked cell weights."""
        model = Model.create(PipelineConfig.toy(seed=0), [flight_tree])
        with recording():
            encodings = model.encode_relations(model.prepare(flight_tree)).encodings
        assert recorded_ops(encodings) == [encodings]
        assert list(encodings._parents) == model.relation.parameters()

    def test_tape_size_does_not_grow_with_paths(self, flight_tree):
        """The relation encodings record the same number of tape nodes
        whatever the number and length of the sentence's paths."""
        other = random_tree(np.random.default_rng(3), 12)
        model = Model.create(PipelineConfig.toy(seed=0), [flight_tree, other])
        counts, sizes = [], []
        for tree in (flight_tree, other):
            sentence = model.prepare(tree)
            table = sentence.char_map.table
            sizes.append((len(table), int(max(table.length))))
            with recording():
                counts.append(len(recorded_ops(model.encode_relations(sentence).encodings)))
        assert sizes[0][0] != sizes[1][0] and sizes[0][1] != sizes[1][1]
        assert counts == [1, 1]


class TestRecordedState:
    """A recorded call keeps the path-major states, whose first U rows are
    the encodings it returns, and one gate array; its backward pass
    regathers h and r h. On the 30-word tree of one-letter words that
    `test_autodiff` steps (n = 30, U = 681, toy dims)."""

    @pytest.fixture(scope="class")
    def one_letter_tree(self):
        base = random_tree(np.random.default_rng(21), 30)
        tree = dataclasses.replace(base, forms=tuple("abcdefghij"[i % 10] for i in range(30)))
        model = Model.create(PipelineConfig.toy(seed=0), [tree])
        table = model.prepare(tree).char_map.table
        assert len(table) == 681
        with recording():  # first-call allocations
            encode_paths(table, model.relation, model.label_vocab)
        return model, table

    def test_keeps_states_and_gates(self, one_letter_tree):
        """At most the (U + 1, 2, d_h) states and the (2, U, 3 d_h) gates,
        plus the two (2, U) int64 index arrays, the (2, V, 3 d_h) label input
        projection and 16 KiB of Python objects: 394 KB against the 647 KB
        kept when the op also saved h and r h per level and copied its
        encodings out of direction-first states (measured 381 KB)."""
        model, table = one_letter_tree
        paths, d, labels = len(table), model.config.d_h, len(model.label_vocab)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with recording():
                out = encode_paths(table, model.relation, model.label_vocab)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        arrays = (paths + 1) * 2 * d + 2 * paths * 3 * d
        slack = 8 * (2 * 2 * paths + 2 * labels * 3 * d) + 16 * 1024
        assert out.shape == (paths, 2 * d)
        assert kept <= 8 * arrays + slack, (kept, 8 * arrays + slack)

    def test_encodings_are_a_view_of_the_states(self, one_letter_tree):
        model, table = one_letter_tree
        with recording():
            out = encode_paths(table, model.relation, model.label_vocab)
        assert out.data.flags.c_contiguous and not out.data.flags.owndata
        assert any(np.shares_memory(out.data, a) for a in closure_arrays(out._vjp))

    def test_backward_closes_over_no_per_level_arrays(self, one_letter_tree):
        """The only sequence the VJP closes over is the level slices."""
        model, table = one_letter_tree
        with recording():
            out = encode_paths(table, model.relation, model.label_vocab)
        for cell in out._vjp.__closure__:
            if isinstance(cell.cell_contents, (list, tuple)):
                assert all(isinstance(level, slice) for level in cell.cell_contents)


class TestDistinctBatch:
    def test_flight_fixture_encodes_distinct_only(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(flight_tree)
        unique, table = distinct_paths(cmap)
        assert len(unique) <= 64 < 37 * 37
        rng = np.random.default_rng(2)
        params = RelationEncoderParams.create(16, 3, 3, rng)
        vocab = LabelVocab.build([graph])
        encoded = encode_paths(cmap.table, params, vocab)
        assert encoded.shape == (len(unique), 6)

    def test_scatter_equals_naive_per_pair(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(flight_tree)
        rng = np.random.default_rng(3)
        params = RelationEncoderParams.create(16, 3, 3, rng)
        vocab = LabelVocab.build([graph])
        rel = relation_tensor(cmap, params, vocab)
        scattered = rel.encodings.data[rel.pair_index]
        m = len(cmap.word_of_char)
        cells = (params.gru_fwd, params.gru_bwd)
        for ci in range(0, m, 5):
            for cj in range(0, m, 7):
                path = cmap.table.path(cmap.word_of_char[ci], cmap.word_of_char[cj])
                naive = lone_path_encoding(path.key, params.edge_embedding, cells, vocab)
                assert np.array_equal(naive.data[0], scattered[ci, cj])


class TestRelationTensor:
    def test_forward_builds_no_path_objects(self, flight_tree, monkeypatch):
        """Prepare and forward work on path ids: no RelationPath is built."""
        model = Model.create(PipelineConfig.toy(seed=0), [flight_tree])
        built = []
        monkeypatch.setattr(syntax_graph, "RelationPath", lambda *args: built.append(args))
        model.forward(model.prepare(flight_tree))
        assert built == []

    def test_zeroed_keeps_structure(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(flight_tree)
        params = RelationEncoderParams.create(16, 3, 4, np.random.default_rng(7))
        vocab = LabelVocab.build([graph])
        rel = relation_tensor(cmap, params, vocab)
        zeroed = rel.zeroed()
        assert np.array_equal(zeroed.pair_index, rel.pair_index)
        assert np.all(zeroed.encodings.data == 0.0)

    def test_incomplete_detected(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(flight_tree)
        params = RelationEncoderParams.create(16, 3, 4, np.random.default_rng(8))
        vocab = LabelVocab.build([graph])
        rel = relation_tensor(cmap, params, vocab)
        rel.pair_index = rel.pair_index.copy()
        rel.pair_index[0, 0] = -1
        assert not rel.is_complete
