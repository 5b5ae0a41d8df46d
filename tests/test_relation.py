"""Label vocabulary, path encoding, and dedup batching."""

import math

import numpy as np
import pytest

from sga.autodiff import Tensor, mul, sum_all
from sga.conllu import DependencyTree, Edge, align_characters
from sga.gradcheck import check_gradient
from sga.relation import (
    LabelVocab,
    RelationEncoderParams,
    RelationTensor,
    build_label_vocab,
    encode_distinct_batch,
    encode_path,
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
        vocab = build_label_vocab([build_syntax_graph(TWO_WORD)])
        assert len(vocab) == 4
        assert vocab.keys() == ["self", "<unk>", "nsubj:fwd", "nsubj:rev"]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            build_label_vocab([])

    def test_flight_fixture_size(self, flight_tree):
        vocab = build_label_vocab([build_syntax_graph(flight_tree)])
        base_labels = {e.label for e in flight_tree.edges}
        assert len(base_labels) == 7
        assert len(vocab) == 2 + 2 * len(base_labels) == 16

    def test_unseen_label_maps_to_unk(self):
        vocab = build_label_vocab([build_syntax_graph(TWO_WORD)])
        unseen = DirectedLabel("xcomp", Direction.FWD)
        assert vocab.index_of(unseen) == 1
        assert vocab.index_of(SELF_LOOP) == 0


class TestEncodePath:
    def test_zero_gru_params_give_zero_encoding(self):
        rng = np.random.default_rng(0)
        params = RelationEncoderParams.create(4, d_e=3, d_h=5, rng=rng)
        for p in params.gru_fwd.parameters() + params.gru_bwd.parameters():
            p.assign(np.zeros_like(p.data))
        vocab = build_label_vocab([build_syntax_graph(TWO_WORD)])
        for keys in (["self"], ["nsubj:fwd"], ["nsubj:rev", "nsubj:fwd", "self"]):
            out = encode_path(path_of(keys), params, vocab)
            assert np.array_equal(out.data, np.zeros(10))

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

        vocab = build_label_vocab([build_syntax_graph(TWO_WORD)])
        out = encode_path(path_of(["nsubj:fwd"]), params, vocab)
        np.testing.assert_allclose(out.data, [expected, expected], atol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_order_sensitivity(self, seed):
        rng = np.random.default_rng(seed)
        params = RelationEncoderParams.create(6, d_e=4, d_h=4, rng=rng)
        vocab = LabelVocab(["a:fwd", "b:fwd"])
        ab = encode_path(path_of(["a:fwd", "b:fwd"]), params, vocab)
        ba = encode_path(path_of(["b:fwd", "a:fwd"]), params, vocab)
        assert not np.allclose(ab.data, ba.data)

    def test_encoding_depends_only_on_label_sequence(self):
        rng = np.random.default_rng(5)
        params = RelationEncoderParams.create(8, d_e=3, d_h=3, rng=rng)
        vocab = LabelVocab(["nsubj:rev", "obj:fwd"])
        one = encode_path(path_of(["nsubj:rev", "obj:fwd"], source=1, target=4), params, vocab)
        two = encode_path(path_of(["nsubj:rev", "obj:fwd"], source=9, target=2), params, vocab)
        assert np.array_equal(one.data, two.data)

    def test_empty_path_rejected(self):
        params = RelationEncoderParams.create(3, 2, 2, np.random.default_rng(0))
        vocab = LabelVocab([])
        with pytest.raises(ValueError):
            encode_path(RelationPath((), 1, 1), params, vocab)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        params = RelationEncoderParams.create(5, d_e=3, d_h=3, rng=rng)
        vocab = LabelVocab(["a:fwd", "b:rev"])
        path = path_of(["a:fwd", "b:rev", "a:fwd"])
        probe = Tensor(rng.standard_normal(6))
        report = check_gradient(
            lambda: sum_all(mul(encode_path(path, params, vocab), probe)),
            params.parameters(),
        )
        assert report.max_rel_error <= 1e-5


class TestDistinctBatch:
    def test_single_path_matches_encode_path(self):
        rng = np.random.default_rng(1)
        params = RelationEncoderParams.create(4, 3, 3, rng)
        vocab = LabelVocab(["x:fwd"])
        path = path_of(["x:fwd"])
        (batch_out,) = encode_distinct_batch([path], params, vocab)
        assert np.array_equal(batch_out.data, encode_path(path, params, vocab).data)

    def test_flight_fixture_encodes_distinct_only(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(graph, align_characters(flight_tree))
        unique, table = distinct_paths(cmap)
        assert len(unique) <= 64 < 37 * 37
        rng = np.random.default_rng(2)
        params = RelationEncoderParams.create(16, 3, 3, rng)
        vocab = build_label_vocab([graph])
        encoded = encode_distinct_batch(unique, params, vocab)
        assert len(encoded) == len(unique)

    def test_scatter_equals_naive_per_pair(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(graph, align_characters(flight_tree))
        rng = np.random.default_rng(3)
        params = RelationEncoderParams.create(16, 3, 3, rng)
        vocab = build_label_vocab([graph])
        rel = RelationTensor.from_char_map(cmap, params, vocab)
        scattered = rel.encodings.data[rel.pair_index]
        for ci in range(0, cmap.m, 5):
            for cj in range(0, cmap.m, 7):
                naive = encode_path(cmap.lookup(ci, cj), params, vocab)
                assert np.array_equal(naive.data, scattered[ci, cj])


class TestRelationTensor:
    def test_zeroed_keeps_structure(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(graph, align_characters(flight_tree))
        params = RelationEncoderParams.create(16, 3, 4, np.random.default_rng(7))
        vocab = build_label_vocab([graph])
        rel = RelationTensor.from_char_map(cmap, params, vocab)
        zeroed = rel.zeroed()
        assert np.array_equal(zeroed.pair_index, rel.pair_index)
        assert np.all(zeroed.encodings.data == 0.0)

    def test_incomplete_detected(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        cmap = expand_to_characters(graph, align_characters(flight_tree))
        params = RelationEncoderParams.create(16, 3, 4, np.random.default_rng(8))
        vocab = build_label_vocab([graph])
        rel = RelationTensor.from_char_map(cmap, params, vocab)
        rel.pair_index = rel.pair_index.copy()
        rel.pair_index[0, 0] = -1
        assert not rel.is_complete
