"""Syntax graph construction, shortest relation paths, character expansion."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sga.conllu import DependencyTree, Edge
from sga.syntax_graph import (
    SELF,
    build_syntax_graph,
    distinct_paths,
    expand_to_characters,
    graph_to_dot,
    graph_to_json,
    path_table,
)
from sga.verify import LABEL_POOL, flip, lca_walk, lca_walk_path, random_tree, tree_distance

TWO_WORD = DependencyTree(("Dogs", "bark"), (Edge(2, 1, "nsubj"),), 2)


def keys(path):
    return list(path.key)


def char_path(cmap, ci, cj):
    return cmap.table.path(cmap.word_of_char[ci], cmap.word_of_char[cj])


class TestBuildGraph:
    def test_single_word(self):
        graph = build_syntax_graph(DependencyTree(("hi",), (), 1))
        assert len(graph.edges) == 1
        assert graph.self_loop_count == 1

    def test_two_words(self):
        graph = build_syntax_graph(TWO_WORD)
        non_self = {(u, v, label) for u, v, label in graph.edges if label != SELF}
        assert non_self == {(2, 1, "nsubj:fwd"), (1, 2, "nsubj:rev")}
        assert graph.self_loop_count == 2

    def test_flight_fixture_edge_counts(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        n = flight_tree.n
        assert len(graph.edges) == 2 * (n - 1) + n == 22
        assert graph.self_loop_count == n == 8

    def test_one_key_per_label_and_direction(self, flight_tree):
        """Each tree label gives one ``:fwd`` and one ``:rev`` key, and every
        word one ``self`` key."""
        repeated = DependencyTree(
            ("a", "b", "c", "d"), (Edge(2, 1, "amod"), Edge(2, 3, "amod"), Edge(3, 4, "case")), 2
        )
        expected = {
            flight_tree: [
                "case:fwd", "case:rev", "compound:fwd", "compound:rev", "det:fwd",
                "det:rev", "nmod:fwd", "nmod:rev", "nsubj:fwd", "nsubj:rev",
                "obj:fwd", "obj:rev", "punct:fwd", "punct:rev", "self",
            ],
            repeated: ["amod:fwd", "amod:rev", "case:fwd", "case:rev", "self"],
        }
        for tree, keys in expected.items():
            labels = {label for _, _, label in build_syntax_graph(tree).edges}
            assert len(labels) == 2 * len({e.label for e in tree.edges}) + 1
            assert sorted(labels) == keys

    def test_reserved_self_label(self):
        for label in ("self", ""):
            tree = DependencyTree(("a", "b"), (Edge(1, 2, label),), 1)
            with pytest.raises(ValueError, match=f"edge label '{label}'"):
                build_syntax_graph(tree)


class TestShortestPath:
    def test_self_pair(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        path = path_table(graph).path(3, 3)
        assert path.key == (SELF,)

    def test_adjacent_pairs(self):
        graph = build_syntax_graph(TWO_WORD)
        assert keys(path_table(graph).path(2, 1)) == ["nsubj:fwd"]
        assert keys(path_table(graph).path(1, 2)) == ["nsubj:rev"]

    def test_flight_i_to_denver(self, flight_tree):
        # I -> prefer -> flight -> Denver, three hops.
        graph = build_syntax_graph(flight_tree)
        path = path_table(graph).path(1, 7)
        assert keys(path) == ["nsubj:rev", "obj:fwd", "nmod:fwd"]
        assert len(path) == 3

    def test_out_of_range(self, flight_tree):
        """Word 0 would otherwise read path(8, 1) through a negative index."""
        table = path_table(build_syntax_graph(flight_tree))
        for i, j, bad in ((0, 1, 0), (1, 9, 9), (-1, 2, -1)):
            with pytest.raises(ValueError, match=rf"node {bad} out of range 1\.\.8"):
                table.path(i, j)

    def test_disconnected_words_have_no_path(self):
        graph = build_syntax_graph(DependencyTree(("a", "b"), (), 1))
        with pytest.raises(ValueError, match="no path from 1 to 2"):
            path_table(graph)


class TestPathProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_reversal_and_length_and_oracle(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(1, 15)))
        table = path_table(build_syntax_graph(tree))
        for _ in range(8):
            i = int(rng.integers(1, tree.n + 1))
            j = int(rng.integers(1, tree.n + 1))
            path = table.path(i, j)
            oracle_labels, oracle_nodes = lca_walk(tree, i, j)
            assert keys(path) == oracle_labels
            back = table.path(j, i)
            assert keys(back) == [flip(l) for l in reversed(path.key)]
            if i != j:
                assert len(path) == tree_distance(tree, i, j)
                if len(oracle_nodes) > 2:
                    k = oracle_nodes[int(rng.integers(1, len(oracle_nodes) - 1))]
                    first = table.path(i, k)
                    second = table.path(k, j)
                    assert keys(first) + keys(second) == keys(path)

    def test_self_loops_never_interior(self, flight_tree):
        table = path_table(build_syntax_graph(flight_tree))
        for i in range(1, 9):
            for j in range(1, 9):
                path = table.path(i, j)
                if i == j:
                    assert path.key == (SELF,)
                else:
                    assert SELF not in path.key


class TestCharacterExpansion:
    def test_single_word_all_pairs_self(self):
        tree = DependencyTree(("ab",), (), 1)
        cmap = expand_to_characters(tree)
        assert cmap.word_of_char == (1, 1)
        for ci in range(2):
            for cj in range(2):
                assert char_path(cmap, ci, cj).key == (SELF,)

    def test_same_word_chars_share_the_path_object(self):
        tree = DependencyTree(("ab", "c"), (Edge(1, 2, "dep"),), 1)
        cmap = expand_to_characters(tree)
        # chars: a(0) b(1) of word 1, c(2) of word 2
        pairs = cmap.pair_index()
        assert pairs[0, 2] == pairs[1, 2]
        assert char_path(cmap, 0, 2).key == char_path(cmap, 1, 2).key

    def test_flight_fixture_counts(self, flight_tree):
        cmap = expand_to_characters(flight_tree)
        assert len(cmap.word_of_char) == 37
        assert cmap.table.word_pair.shape == (8, 8)
        assert np.all(cmap.table.word_pair >= 0)
        assert cmap.pair_index().shape == (37, 37)

    def test_empty_word_form_rejected(self):
        """A word with no characters would be a graph node that no
        character reads."""
        tree = DependencyTree(("ab", ""), (Edge(1, 2, "dep"),), 1)
        with pytest.raises(ValueError, match="word 2 has an empty form"):
            expand_to_characters(tree)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_chars_of_one_word_have_identical_paths(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(2, 8)))
        cmap = expand_to_characters(tree)
        target = int(rng.integers(0, len(cmap.word_of_char)))
        by_word = {}
        for pos, word in enumerate(cmap.word_of_char):
            by_word.setdefault(word, []).append(pos)
        pairs = cmap.pair_index()
        for positions in by_word.values():
            first = char_path(cmap, positions[0], target)
            for pos in positions[1:]:
                assert pairs[pos, target] == pairs[positions[0], target]
                assert char_path(cmap, pos, target) == first


class TestDistinctPaths:
    def test_all_self_map_dedupes_to_one(self):
        tree = DependencyTree(("abc",), (), 1)
        cmap = expand_to_characters(tree)
        unique, table = distinct_paths(cmap)
        assert len(unique) == 1
        assert np.array_equal(table, np.zeros((3, 3), dtype=np.int64))

    def test_two_word_sentence_has_three(self):
        cmap = expand_to_characters(TWO_WORD)
        unique, _ = distinct_paths(cmap)
        assert len(unique) == 3
        assert {tuple(p.key) for p in unique} == {
            ("self",), ("nsubj:fwd",), ("nsubj:rev",),
        }

    def test_table_reconstruction_is_exact(self, flight_tree):
        cmap = expand_to_characters(flight_tree)
        unique, table = distinct_paths(cmap)
        # Independent enumeration of distinct label sequences over word pairs.
        def oracle(i, j):
            return tuple(lca_walk_path(flight_tree, i, j))

        words = range(1, flight_tree.n + 1)
        expected = {oracle(i, j) for i in words for j in words}
        assert len(unique) == len(expected) <= 64
        m = len(cmap.word_of_char)
        for ci in range(m):
            for cj in range(m):
                wi, wj = cmap.word_of_char[ci], cmap.word_of_char[cj]
                assert unique[table[ci, cj]].key == oracle(wi, wj)
                assert char_path(cmap, ci, cj).key == oracle(wi, wj)


def _forms(n):
    return tuple(f"w{i}" for i in range(1, n + 1))


# A 40-word chain, whose paths run up to 39 labels, two of each length (one
# each way) beside the self-loop; a 40-word star, whose paths have at most
# two labels; random trees of up to 30 words.
CHAIN = DependencyTree(_forms(40), tuple(Edge(i, i + 1, "dep") for i in range(1, 40)), 1)
STAR = DependencyTree(
    _forms(40), tuple(Edge(1, j, LABEL_POOL[j % len(LABEL_POOL)]) for j in range(2, 41)), 1
)


def _random_tree(seed):
    rng = np.random.default_rng(seed)
    return random_tree(rng, int(rng.integers(1, 31)))


RANDOM_TREES = st.integers(min_value=0, max_value=10_000).map(_random_tree)


class TestPathTable:
    @given(RANDOM_TREES)
    @example(CHAIN)
    @example(STAR)
    @settings(max_examples=60, deadline=None)
    def test_prefix_suffix_length_and_oracle(self, tree):
        table = path_table(build_syntax_graph(tree))
        assert len(set(table.alphabet)) == len(table.alphabet)
        for u in range(len(table)):
            labels = table.labels(u)
            first, last = table.alphabet[table.first[u]], table.alphabet[table.last[u]]
            assert len(labels) == table.length[u]
            assert labels[-1] == last and labels[0] == first
            if table.prefix[u] < 0:
                assert table.suffix[u] < 0 and table.length[u] == 1
                continue
            prefix, suffix = table.prefix[u], table.suffix[u]
            assert table.labels(prefix) + (last,) == labels
            assert (first,) + table.labels(suffix) == labels
            assert table.length[u] == table.length[prefix] + 1 == table.length[suffix] + 1
        keys = set()
        for i in range(1, tree.n + 1):
            for j in range(1, tree.n + 1):
                path = table.path(i, j)
                assert path.key == tuple(lca_walk_path(tree, i, j))
                keys.add(path.key)
        assert len(keys) == len(table)

    @given(RANDOM_TREES)
    @example(CHAIN)
    @example(STAR)
    @settings(max_examples=30, deadline=None)
    def test_ids_in_length_order(self, tree):
        """Ids run by length, and within a length by the source word whose
        search first reaches the path."""
        table = path_table(build_syntax_graph(tree))
        assert list(table.length) == sorted(table.length)
        source = [int(np.argwhere(table.word_pair == u)[0, 0]) for u in range(len(table))]
        for length in set(table.length):
            of_length = [source[u] for u in range(len(table)) if table.length[u] == length]
            assert of_length == sorted(of_length)


class TestExports:
    def test_dot_styles(self):
        tree = DependencyTree(
            ("Dogs", "bark", "."),
            (Edge(2, 1, "nsubj"), Edge(2, 3, "punct")),
            2,
        )
        dot = graph_to_dot(build_syntax_graph(tree), tree)
        assert dot.count("style=solid") == 2
        assert dot.count("style=dashed") == 2
        assert "self" not in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        """A quotation-mark FORM (UD's PUNCT token) or a backslash in a form
        or a label stays inside its quoted DOT string."""
        tree = DependencyTree(
            ("said", '"', "a\\b"),
            (Edge(1, 2, "punct"), Edge(1, 3, 'x"y')),
            1,
        )
        dot = graph_to_dot(build_syntax_graph(tree), tree)
        quoted = r'"((?:[^"\\]|\\.)*)"'
        labels = []
        for line in dot.splitlines()[1:-1]:
            match = re.fullmatch(rf"  n\d+( -> n\d+)? \[label={quoted}(, style=\w+)?\];", line)
            assert match, line
            labels.append(re.sub(r"\\(.)", r"\1", match.group(2)))
        assert labels[:3] == ["said", '"', "a\\b"]
        assert labels[3:] == ["punct", "punct", 'x"y', 'x"y']

    def test_json_includes_self_loops(self, flight_tree):
        graph = build_syntax_graph(flight_tree)
        payload = json.loads(graph_to_json(graph, flight_tree))
        assert payload["n"] == 8
        assert len(payload["edges"]) == 22
        assert sum(1 for e in payload["edges"] if e["direction"] == "self") == 8
        directions = {e["direction"] for e in payload["edges"]}
        assert directions == {"fwd", "rev", "self"}
