"""Two-way, self-looped syntax graphs and the sentence's distinct relation paths.

A dependency tree only connects a head to its dependents. The graph built
here labels every tree edge L as ``L:fwd``, adds a reverse edge ``L:rev``
and one ``self`` loop per word, so any ordered word pair is connected and
the unique tree path between two words reads as a sequence of directed
labels. A directed label is just that key string.

In a tree, every prefix and every suffix of such a path is itself the path
of another word pair of the same sentence: if path(i, j) ends with the edge
k -> j its prefix is path(i, k), and if it starts with i -> h its suffix is
path(h, j). So one breadth-first search from every source word at once,
level by level, yields the distinct paths as integers -- last and first
label, prefix id, suffix id, length -- together with the word-pair table
that sends each ordered pair to its path id. A path takes the next id when
first reached, so ids run by length and the paths of one length form one
contiguous id range, the unit in which the relation stage steps them; its
suffix is one label shorter and so already numbered. A label is an id
into the sentence's distinct directed labels, so the search hashes integers
and a consumer looks each distinct label up once. The search reads the
graph's edge list directly. `RelationPath` objects are rebuilt from that
table only on request.
Characters of one word share the word's paths, so a character pair reads
the path of its two words. `expand_to_characters` builds a sentence's
character map -- its characters, the word of each, and the path table --
in one call; the spaces between words are not attention nodes.

Everything here is pure and immutable; safe for concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .conllu import DependencyTree

SELF = "self"


@dataclass(frozen=True)
class RelationPath:
    """Directed label sequence along the unique tree path between two words."""

    key: tuple[str, ...]

    def __len__(self):
        return len(self.key)


@dataclass(frozen=True)
class SyntaxGraph:
    """Directed labeled graph over the words of one sentence."""

    n: int
    edges: tuple[tuple[int, int, str], ...]

    @property
    def self_loop_count(self) -> int:
        return sum(1 for _, _, label in self.edges if label == SELF)


def build_syntax_graph(tree: DependencyTree) -> SyntaxGraph:
    """Add a reverse edge per tree edge and a self-loop per word.

    The pseudo-edge to the virtual root (HEAD=0) is dropped: the root word
    participates only through its real dependents and its self-loop. The
    resulting graph has 2(n-1) + n directed edges in total. Raises on an
    empty label or the reserved label ``self``.
    """
    edges: list[tuple[int, int, str]] = []
    for e in tree.edges:
        if e.label in ("", SELF):
            raise ValueError(f"edge label {e.label!r} is empty or reserved for self-loops")
        edges.append((e.head, e.dependent, f"{e.label}:fwd"))
        edges.append((e.dependent, e.head, f"{e.label}:rev"))
    for i in range(1, tree.n + 1):
        edges.append((i, i, SELF))
    return SyntaxGraph(tree.n, tuple(edges))


@dataclass(frozen=True)
class PathTable:
    """The distinct relation paths of one sentence, as integers.

    `alphabet` holds the sentence's distinct directed labels once each, and
    labels are ids into it. Path u ends with label `last[u]` and starts with
    `first[u]`; `prefix[u]` is the id of u less its last label and
    `suffix[u]` the id of u less its first label, -1 where that is empty.
    Ids run by length, so the paths of each length are one contiguous id
    range, and `word_pair[i - 1, j - 1]` is the id of path(i, j).
    """

    alphabet: tuple[str, ...]
    first: np.ndarray  # (U,) int64 into alphabet
    last: np.ndarray  # (U,) int64 into alphabet
    prefix: np.ndarray  # (U,) int64
    suffix: np.ndarray  # (U,) int64
    length: np.ndarray  # (U,) int64
    word_pair: np.ndarray  # (W, W) int64

    def __len__(self):
        return len(self.last)

    def labels(self, u: int) -> tuple[str, ...]:
        out = []
        while u >= 0:
            out.append(self.alphabet[self.last[u]])
            u = self.prefix[u]
        return tuple(reversed(out))

    def path(self, i: int, j: int) -> RelationPath:
        """The path from word i to word j (1-based); i == j is the self-loop."""
        n = self.word_pair.shape[0]
        for node in (i, j):
            if not 1 <= node <= n:
                raise ValueError(f"node {node} out of range 1..{n}")
        return RelationPath(self.labels(self.word_pair[i - 1, j - 1]))

    def paths(self) -> list[RelationPath]:
        """Every distinct path, by id."""
        return [RelationPath(self.labels(u)) for u in range(len(self))]


def path_table(graph: SyntaxGraph) -> PathTable:
    """The paths of all ordered word pairs, by one breadth-first search from
    every source word at once, level by level, over the non-self edges; each
    source itself gets the self-loop.

    A word reached through the edge k -> j gets the id of (id of the path
    to k, label id), so each word pair costs one lookup and equal label
    sequences get equal ids. That pair is keyed as one integer,
    prefix id * len(alphabet) + label id, with prefix id -1 for a path of
    one label. A path first reached at depth L takes the next id, so ids run
    by length, by source word and then search order within a length. Its
    suffix is the path from the first hop to the target, which has length
    L - 1 and so was numbered in the level before.
    """
    n = graph.n
    alphabet = tuple(dict.fromkeys(label for _, _, label in graph.edges))
    label_id = {label: i for i, label in enumerate(alphabet)}
    size, self_id = len(alphabet), label_id[SELF]
    adjacent = [[] for _ in range(n + 1)]  # non-self out-edges: (neighbour, label id)
    for u, v, label in graph.edges:
        if label != SELF:
            adjacent[u].append((v, label_id[label]))
    ids = {self_id - size: 0}  # key -> id; 0 is the self-loop
    first, suffix, length = [self_id], [-1], [1]
    pair = [[-1] * (n + 1) for _ in range(n + 1)]  # pair[i][j]: id of path(i, j)
    # (source, word, its path id * size, first hop); a source's own path has
    # no labels to extend, so it stands as -size.
    frontier = [(source, source, -size, 0) for source in range(1, n + 1)]
    for source in range(1, n + 1):
        pair[source][source] = 0
    depth = 0
    while frontier:
        depth += 1
        level = []
        for source, node, base, hop in frontier:
            row = pair[source]
            for nxt, label in adjacent[node]:
                if row[nxt] < 0:
                    u = ids.get(base + label)
                    if u is None:
                        u = ids[base + label] = len(ids)
                        first.append(first[base // size] if hop else label)
                        suffix.append(pair[hop][nxt] if hop else -1)
                        length.append(depth)
                    row[nxt] = u
                    level.append((source, nxt, u * size, hop or nxt))
        frontier = level
    for source in range(1, n + 1):
        if -1 in pair[source][1:]:
            raise ValueError(f"no path from {source} to {pair[source].index(-1, 1)}")
    prefix, last = np.divmod(np.fromiter(ids, np.int64, len(ids)), size)
    return PathTable(
        alphabet=alphabet,
        first=np.asarray(first, dtype=np.int64),
        last=last,
        prefix=prefix,
        suffix=np.asarray(suffix, dtype=np.int64),
        length=np.asarray(length, dtype=np.int64),
        word_pair=np.array([row[1:] for row in pair[1:]], dtype=np.int64),
    )


@dataclass(frozen=True)
class CharRelationMap:
    """One sentence's attention nodes and the paths between them. `chars`
    are the words' characters in order, without separators, `word_of_char`
    the 1-based word of each, and `table` the sentence's path table; a
    character pair reads the path of its word pair."""

    chars: str
    word_of_char: tuple[int, ...]
    table: PathTable

    def pair_index(self) -> np.ndarray:
        """(m, m) int64: the path id of every ordered character pair."""
        chars = np.asarray(self.word_of_char, dtype=np.int64) - 1
        return self.table.word_pair[chars[:, None], chars[None, :]]


def expand_to_characters(tree: DependencyTree) -> CharRelationMap:
    """Map every character of the words to its word and build the path
    table of the tree's syntax graph. Raises on an empty tree or an empty
    word form, whose word would own no character."""
    if tree.n == 0:
        raise ValueError("cannot expand an empty tree")
    if "" in tree.forms:
        raise ValueError(f"word {tree.forms.index('') + 1} has an empty form")
    word_of_char = tuple(i for i, form in enumerate(tree.forms, start=1) for _ in form)
    return CharRelationMap(
        "".join(tree.forms), word_of_char, path_table(build_syntax_graph(tree))
    )


def distinct_paths(cmap: CharRelationMap) -> tuple[list[RelationPath], np.ndarray]:
    """The distinct paths, by id (shortest first), and the m x m table
    mapping each ordered character pair to its path index; rebuilding the
    map through the table reproduces it exactly."""
    return cmap.table.paths(), cmap.pair_index()


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def _dot_string(text: str) -> str:
    """`text` as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def label_parts(key: str) -> tuple[str, str]:
    """(base, direction) of a directed label: ``nmod:poss:rev`` gives
    ``("nmod:poss", "rev")`` and ``self`` gives ``("self", "self")``."""
    base, _, direction = key.rpartition(":")
    return (base, direction) if base else (key, key)


def graph_to_dot(graph: SyntaxGraph, tree: DependencyTree) -> str:
    """DOT rendering: forward edges solid, reverse edges dashed, self-loops
    omitted for readability."""
    lines = ["digraph syntax {"]
    for i, form in enumerate(tree.forms, start=1):
        lines.append(f"  n{i} [label={_dot_string(form)}];")
    for u, v, label in graph.edges:
        if label == SELF:
            continue
        base, direction = label_parts(label)
        style = "solid" if direction == "fwd" else "dashed"
        lines.append(f"  n{u} -> n{v} [label={_dot_string(base)}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: SyntaxGraph, tree: DependencyTree) -> str:
    """JSON rendering with the full directed edge list, self-loops included."""
    payload = {
        "n": graph.n,
        "words": list(tree.forms),
        "root": tree.root_index,
        "edges": [
            {"from": u, "to": v, "label": base, "direction": direction}
            for u, v, label in graph.edges
            for base, direction in [label_parts(label)]
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
