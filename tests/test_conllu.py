"""CoNLL-U ingestion, and the character map a parsed sentence becomes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sga.config import PipelineConfig
from sga.conllu import DependencyTree, Edge, read_conllu, to_conllu
from sga.errors import ParseError, StructureError
from sga.pipeline import Model
from sga.syntax_graph import expand_to_characters
from sga.verify import random_tree

TWO_TOKEN = (
    "1\tDogs\t_\t_\t_\t_\t2\tnsubj\t_\t_\n"
    "2\tbark\t_\t_\t_\t_\t0\troot\t_\t_\n"
)


def _line(token_id, form, head, deprel):
    return f"{token_id}\t{form}\t_\t_\t_\t_\t{head}\t{deprel}\t_\t_"


class TestReadConllu:
    def test_two_token_sentence(self):
        trees = read_conllu(TWO_TOKEN)
        assert len(trees) == 1
        tree = trees[0]
        assert tree.root_index == 2
        assert tree.forms == ("Dogs", "bark")
        assert tree.edges == (Edge(head=2, dependent=1, label="nsubj"),)

    def test_flight_fixture(self, flight_tree):
        assert flight_tree.n == 8
        assert flight_tree.form(flight_tree.root_index) == "prefer"
        assert flight_tree.forms == (
            "I", "prefer", "the", "morning", "flight", "through", "Denver", ".",
        )
        assert len(flight_tree.edges) == 7

    def test_multiword_ranges_and_empty_nodes_skipped(self):
        text = "\n".join(
            [
                "# a comment",
                "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_",
                _line(1, "do", 0, "root"),
                _line(2, "not", 1, "advmod"),
                "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
            ]
        )
        (tree,) = read_conllu(text)
        assert tree.forms == ("do", "not")

    def test_blank_lines_separate_sentences(self):
        trees = read_conllu(TWO_TOKEN + "\n" + TWO_TOKEN)
        assert len(trees) == 2

    def test_missing_head_is_parse_error_with_line(self):
        text = _line(1, "x", 0, "root") + "\n" + _line(2, "y", "_", "dep")
        with pytest.raises(ParseError, match="line 2"):
            read_conllu(text)

    def test_missing_deprel_is_parse_error(self):
        with pytest.raises(ParseError, match="DEPREL"):
            read_conllu(_line(1, "x", 0, "_"))

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="10"):
            read_conllu("1\tonly\tfour\tcolumns")

    def test_self_head_is_structural_error(self):
        text = _line(1, "x", 0, "root") + "\n" + _line(2, "y", 2, "dep")
        with pytest.raises(StructureError, match="own head"):
            read_conllu(text)

    def test_cycle_is_structural_error(self):
        text = "\n".join(
            [_line(1, "a", 0, "root"), _line(2, "b", 3, "dep"), _line(3, "c", 2, "dep")]
        )
        with pytest.raises(StructureError, match="cycle"):
            read_conllu(text)

    def test_multiple_roots_rejected(self):
        text = _line(1, "a", 0, "root") + "\n" + _line(2, "b", 0, "root")
        with pytest.raises(StructureError, match="root"):
            read_conllu(text)

    def test_error_names_offending_sentence(self):
        text = TWO_TOKEN + "\n" + _line(1, "a", 0, "root") + "\n" + _line(2, "b", 2, "dep")
        with pytest.raises(StructureError, match="sentence 2"):
            read_conllu(text)

    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newlines_end_a_line(self, char):
        """Characters that `str.splitlines` also splits at stay inside a
        FORM or a comment."""
        text = f"# text = a{char}b\n" + _line(1, f"a{char}b", 0, "root") + "\n"
        (tree,) = read_conllu(text)
        assert tree.forms == (f"a{char}b",)

    def test_crlf_and_cr_line_ends(self):
        """CRLF or CR text parses as its LF form does, errors on the same lines."""
        bad = _line(1, "a", 0, "root") + "\n" + _line(2, "b", "_", "dep")
        text = "# c\n" + TWO_TOKEN + "\n" + bad
        for end in ("\r\n", "\r"):
            assert read_conllu(TWO_TOKEN.replace("\n", end)) == read_conllu(TWO_TOKEN)
            with pytest.raises(ParseError, match="line 6: missing HEAD"):
                read_conllu(text.replace("\n", end))


class TestRoundTrip:
    def test_fixture_columns_survive(self, flight_text, flight_tree):
        reparsed = read_conllu(to_conllu(flight_tree))[0]
        assert reparsed == flight_tree

    def test_consumed_columns_match_fixture_text(self, flight_text, flight_tree):
        def quads(text):
            out = []
            for line in text.splitlines():
                if line.strip() and not line.startswith("#"):
                    cols = line.split("\t")
                    out.append((cols[0], cols[1], cols[6], cols[7]))
            return out

        assert quads(to_conllu(flight_tree)) == quads(flight_text)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_trees_survive(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(1, 12)))
        assert read_conllu(to_conllu(tree))[0] == tree


class TestTreeShape:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_edge_count_and_reachability(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(1, 15)))
        assert len(tree.edges) == tree.n - 1
        children = {}
        for e in tree.edges:
            children.setdefault(e.head, []).append(e.dependent)
        seen, frontier = {tree.root_index}, [tree.root_index]
        while frontier:
            for child in children.get(frontier.pop(), ()):
                assert child not in seen
                seen.add(child)
                frontier.append(child)
        assert seen == set(range(1, tree.n + 1))


class TestAlignment:
    """`expand_to_characters` maps each word character to its word;
    `Model.prepare` bounds the rendered sentence."""

    def test_two_words(self):
        tree = DependencyTree(("ab", "c"), (Edge(1, 2, "dep"),), 1)
        cmap = expand_to_characters(tree)
        assert cmap.chars == "abc"
        assert cmap.word_of_char == (1, 1, 2)

    def test_single_word_has_no_separators(self):
        tree = DependencyTree(("hi",), (), 1)
        cmap = expand_to_characters(tree)
        assert cmap.chars == "hi"
        assert cmap.word_of_char == (1, 1)

    def test_flight_fixture_counts(self, flight_tree):
        cmap = expand_to_characters(flight_tree)
        assert len(" ".join(flight_tree.forms)) == 44
        assert len(cmap.chars) == len(cmap.word_of_char) == 37

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            expand_to_characters(DependencyTree((), (), 0))

    def test_max_chars_enforced(self, flight_tree):
        model = Model.create(PipelineConfig.toy(max_chars=10), [flight_tree])
        with pytest.raises(ValueError, match="maximum"):
            model.prepare(flight_tree)

    def test_max_chars_counts_the_spaces(self, flight_tree):
        """The bound covers the rendered sentence, separators included,
        though the separators are not attention nodes."""
        fits = Model.create(PipelineConfig.toy(max_chars=44), [flight_tree])
        assert fits.prepare(flight_tree).n_chars == 37
        over = Model.create(PipelineConfig.toy(max_chars=43), [flight_tree])
        with pytest.raises(
            ValueError,
            match="rendered sentence has 44 characters, exceeding the "
            "configured maximum of 43",
        ):
            over.prepare(flight_tree)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_concatenation_reproduces_rendering(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(1, 10)))
        cmap = expand_to_characters(tree)
        assert cmap.chars == "".join(tree.forms)
        # Each word owns its characters, in order.
        for i, form in enumerate(tree.forms, start=1):
            owned = [c for c, w in zip(cmap.chars, cmap.word_of_char) if w == i]
            assert "".join(owned) == form
