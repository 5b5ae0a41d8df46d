"""Label vocabulary, path encoding, and dedup batching."""

import math

import numpy as np
import pytest

from sga import relation
from sga.autodiff import Tensor, mul, sum_all
from sga.conllu import DependencyTree, Edge, align_characters
from sga.config import PipelineConfig
from sga.gradcheck import check_gradient
from sga.pipeline import Model
from sga.relation import (
    LabelVocab,
    RelationEncoderParams,
    RelationTensor,
    encode_paths,
)
from sga.syntax_graph import (
    Direction,
    DirectedLabel,
    RelationPath,
    SELF_LOOP,
    build_syntax_graph,
    distinct_paths,
    expand_to_characters,
)
from sga.verify import random_sentence_tree

TWO_WORD = DependencyTree(("Dogs", "bark"), (Edge(2, 1, "nsubj"),), 2)


def path_of(keys, source=1, target=2):
    labels = []
    for key in keys:
        if key == "self":
            labels.append(SELF_LOOP)
        else:
            base, _, direction = key.partition(":")
            labels.append(DirectedLabel(base, Direction(direction)))
    return RelationPath(tuple(labels), source, target)


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
        unseen = DirectedLabel("xcomp", Direction.FWD)
        assert vocab.index_of(unseen) == 1
        assert vocab.index_of(SELF_LOOP) == 0


def numpy_bigru(path_ids, params):
    """Plain-numpy bi-GRU over one label-id sequence, gate by gate."""
    table = params.edge_embedding.data

    def sigma(v):
        return 1.0 / (1.0 + np.exp(-v))

    def run(cell, ids):
        w = {name: getattr(cell, name).data for name in
             ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")}
        h = np.zeros(params.d_h)
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
        params = RelationEncoderParams.create(4, d_e=3, d_h=5, rng=rng)
        for p in params.gru_fwd.parameters() + params.gru_bwd.parameters():
            p.assign(np.zeros_like(p.data))
        vocab = LabelVocab.build([build_syntax_graph(TWO_WORD)])
        keys = (["self"], ["nsubj:fwd"], ["nsubj:rev", "nsubj:fwd", "self"])
        out = encode_paths([path_of(k) for k in keys], params, vocab)
        assert np.array_equal(out.data, np.zeros((3, 10)))

    def test_scalar_oracle_for_length_one_path(self):
        """d_e = d_h = 1 with hand-picked weights; the single step has a
        zero previous state, so each direction reduces to z * tanh(w_h e + b_h)."""
        params = RelationEncoderParams.create(3, d_e=1, d_h=1, rng=np.random.default_rng(0))
        e = 0.8
        params.edge_embedding.assign(np.full((3, 1), e))
        values = dict(w_z=0.3, b_z=0.1, w_h=0.7, b_h=0.2, w_r=0.5, b_r=-0.3,
                      u_z=-0.4, u_r=0.6, u_h=-0.5)
        for cell in (params.gru_fwd, params.gru_bwd):
            for name, value in values.items():
                getattr(cell, name).assign(np.full_like(getattr(cell, name).data, value))

        def sigma(v):
            return 1.0 / (1.0 + math.exp(-v))

        z = sigma(values["w_z"] * e + values["b_z"])
        expected = z * math.tanh(values["w_h"] * e + values["b_h"])

        vocab = LabelVocab.build([build_syntax_graph(TWO_WORD)])
        out = encode_paths([path_of(["nsubj:fwd"])], params, vocab)
        np.testing.assert_allclose(out.data, [[expected, expected]], atol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_order_sensitivity(self, seed):
        rng = np.random.default_rng(seed)
        params = RelationEncoderParams.create(6, d_e=4, d_h=4, rng=rng)
        vocab = LabelVocab(["a:fwd", "b:fwd"])
        ab = encode_paths([path_of(["a:fwd", "b:fwd"])], params, vocab)
        ba = encode_paths([path_of(["b:fwd", "a:fwd"])], params, vocab)
        assert not np.allclose(ab.data, ba.data)

    def test_encoding_depends_only_on_label_sequence(self):
        rng = np.random.default_rng(5)
        params = RelationEncoderParams.create(8, d_e=3, d_h=3, rng=rng)
        vocab = LabelVocab(["nsubj:rev", "obj:fwd"])
        one = path_of(["nsubj:rev", "obj:fwd"], source=1, target=4)
        two = path_of(["nsubj:rev", "obj:fwd"], source=9, target=2)
        alone = encode_paths([one], params, vocab)
        both = encode_paths([one, two], params, vocab)
        assert np.array_equal(both.data, np.vstack([alone.data, alone.data]))

    def test_empty_path_rejected(self):
        params = RelationEncoderParams.create(3, 2, 2, np.random.default_rng(0))
        vocab = LabelVocab([])
        with pytest.raises(ValueError, match="empty path"):
            encode_paths([RelationPath((), 1, 1)], params, vocab)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        params = RelationEncoderParams.create(5, d_e=3, d_h=3, rng=rng)
        vocab = LabelVocab(["a:fwd", "b:rev"])
        path = path_of(["a:fwd", "b:rev", "a:fwd"])
        probe = Tensor(rng.standard_normal((1, 6)))
        report = check_gradient(
            lambda: sum_all(mul(encode_paths([path], params, vocab), probe)),
            params.parameters(),
        )
        assert report.max_rel_error <= 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_match_numpy_bigru(self, seed):
        rng = np.random.default_rng(seed)
        keys = ["a:fwd", "a:rev", "b:fwd", "b:rev", "self"]
        vocab = LabelVocab([k for k in keys if k != "self"])
        params = RelationEncoderParams.create(len(vocab), d_e=3, d_h=4, rng=rng)
        for p in params.parameters():
            p.assign(rng.standard_normal(p.data.shape))
        paths = [
            path_of([keys[int(k)] for k in rng.integers(0, len(keys), size=rng.integers(1, 7))])
            for _ in range(30)
        ]
        out = encode_paths(paths, params, vocab)
        for row, path in zip(out.data, paths):
            ids = [vocab.index_of(label) for label in path.labels]
            np.testing.assert_allclose(row, numpy_bigru(ids, params), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_one_gru_step_per_distinct_prefix_and_suffix(self, seed, flight_tree, monkeypatch):
        """Each direction makes one batched cell call per depth, and the
        rows stepped are the distinct prefixes plus the distinct suffixes."""
        tree = flight_tree if seed is None else random_sentence_tree(
            np.random.default_rng(seed), max_words=8
        )
        model = Model.create(PipelineConfig.toy(seed=0), [tree])
        sentence = model.prepare(tree)
        step, batches = relation.gru_cell_forward, []

        def counting(cell, h_prev, x):
            batches.append(x.shape[0])
            return step(cell, h_prev, x)

        monkeypatch.setattr(relation, "gru_cell_forward", counting)
        rel = model.encode_relations(sentence)
        vocab = model.label_vocab
        ids = [tuple(vocab.index_of(label) for label in p.labels) for p in rel.paths]
        prefixes = {seq[:k] for seq in ids for k in range(1, len(seq) + 1)}
        suffixes = {seq[k:] for seq in ids for k in range(len(seq))}
        longest = max(map(len, ids))
        assert longest > 1
        assert len(batches) == 2 * longest
        assert batches[:longest] == [
            sum(len(p) == depth for p in prefixes) for depth in range(1, longest + 1)
        ]
        assert sum(batches) == len(prefixes) + len(suffixes) == 2 * len(rel.paths)

    def test_rows_equal_lone_path_encodings_bit_for_bit(self):
        """At d_e = d_h = 200 a gemm over a level rounds a row differently
        from the same row stepped alone; the row-by-row product must not."""
        tree = random_sentence_tree(np.random.default_rng(4), max_words=12)
        model = Model.create(PipelineConfig.toy(seed=0, d_e=200, d_h=200), [tree])
        paths, _ = distinct_paths(model.prepare(tree).char_map)
        assert len(paths) > 50
        batch = encode_paths(paths, model.relation, model.label_vocab)
        for row, path in zip(batch.data, paths):
            alone = encode_paths([path], model.relation, model.label_vocab)
            assert np.array_equal(alone.data[0], row)


class TestDistinctBatch:
    def test_flight_fixture_encodes_distinct_only(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(graph, align_characters(flight_tree))
        unique, table = distinct_paths(cmap)
        assert len(unique) <= 64 < 37 * 37
        rng = np.random.default_rng(2)
        params = RelationEncoderParams.create(16, 3, 3, rng)
        vocab = LabelVocab.build([graph])
        encoded = encode_paths(unique, params, vocab)
        assert encoded.shape == (len(unique), 6)

    def test_scatter_equals_naive_per_pair(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(graph, align_characters(flight_tree))
        rng = np.random.default_rng(3)
        params = RelationEncoderParams.create(16, 3, 3, rng)
        vocab = LabelVocab.build([graph])
        rel = RelationTensor.from_char_map(cmap, params, vocab)
        scattered = rel.encodings.data[rel.pair_index]
        for ci in range(0, cmap.m, 5):
            for cj in range(0, cmap.m, 7):
                naive = encode_paths([cmap.lookup(ci, cj)], params, vocab)
                assert np.array_equal(naive.data[0], scattered[ci, cj])


class TestRelationTensor:
    def test_zeroed_keeps_structure(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(graph, align_characters(flight_tree))
        params = RelationEncoderParams.create(16, 3, 4, np.random.default_rng(7))
        vocab = LabelVocab.build([graph])
        rel = RelationTensor.from_char_map(cmap, params, vocab)
        zeroed = rel.zeroed()
        assert np.array_equal(zeroed.pair_index, rel.pair_index)
        assert np.all(zeroed.encodings.data == 0.0)

    def test_incomplete_detected(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(graph, align_characters(flight_tree))
        params = RelationEncoderParams.create(16, 3, 4, np.random.default_rng(8))
        vocab = LabelVocab.build([graph])
        rel = RelationTensor.from_char_map(cmap, params, vocab)
        rel.pair_index = rel.pair_index.copy()
        rel.pair_index[0, 0] = -1
        assert not rel.is_complete
