"""Two-way, self-looped syntax graphs and shortest relation paths.

A dependency tree only connects a head to its dependents. The graph built
here adds, for every tree edge with label L, a reverse edge carrying the
distinct variant ``L:rev``, plus one ``self`` loop per word, so any ordered
word pair is connected and the unique tree path between two words can be
read off as a sequence of directed labels. Word-level paths are then
expanded to all ordered character pairs of the rendered sentence:
characters of one word share the word's self-loop path, characters of two
different words share the path of their words.

Everything here is pure and immutable; safe for concurrent use.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .conllu import CharAlignment, DependencyTree


class Direction(enum.Enum):
    FWD = "fwd"
    REV = "rev"
    SELF = "self"


SELF_BASE = "self"


@dataclass(frozen=True)
class DirectedLabel:
    base: str
    direction: Direction

    def __post_init__(self):
        if not self.base:
            raise ValueError("edge label must be non-empty")
        if (self.direction is Direction.SELF) != (self.base == SELF_BASE):
            raise ValueError(f"the label {SELF_BASE!r} is reserved for self-loops")

    @property
    def key(self) -> str:
        if self.direction is Direction.SELF:
            return SELF_BASE
        return f"{self.base}:{self.direction.value}"

    def flipped(self) -> "DirectedLabel":
        if self.direction is Direction.SELF:
            return self
        other = Direction.REV if self.direction is Direction.FWD else Direction.FWD
        return DirectedLabel(self.base, other)


SELF_LOOP = DirectedLabel(SELF_BASE, Direction.SELF)


@dataclass(frozen=True)
class RelationPath:
    """Directed label sequence along the unique tree path from source to target."""

    labels: tuple[DirectedLabel, ...]
    source: int
    target: int

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(label.key for label in self.labels)

    def __len__(self):
        return len(self.labels)


class SyntaxGraph:
    """Directed labeled graph over the words of one sentence."""

    def __init__(self, n: int, edges: list[tuple[int, int, DirectedLabel]]):
        self.n = n
        self.edges = tuple(edges)
        self._adjacency: dict[int, list[tuple[int, DirectedLabel]]] = {
            i: [] for i in range(1, n + 1)
        }
        for u, v, label in self.edges:
            if label.direction is not Direction.SELF:
                self._adjacency[u].append((v, label))

    @property
    def self_loop_count(self) -> int:
        return sum(1 for _, _, l in self.edges if l.direction is Direction.SELF)

    def neighbors(self, node: int) -> list[tuple[int, DirectedLabel]]:
        return self._adjacency[node]


def build_syntax_graph(tree: DependencyTree) -> SyntaxGraph:
    """Add a reverse edge per tree edge and a self-loop per word.

    The pseudo-edge to the virtual root (HEAD=0) is dropped: the root word
    participates only through its real dependents and its self-loop. The
    resulting graph has 2(n-1) + n directed edges in total.
    """
    edges: list[tuple[int, int, DirectedLabel]] = []
    for e in tree.edges:
        edges.append((e.head, e.dependent, DirectedLabel(e.label, Direction.FWD)))
        edges.append((e.dependent, e.head, DirectedLabel(e.label, Direction.REV)))
    for i in range(1, tree.n + 1):
        edges.append((i, i, SELF_LOOP))
    return SyntaxGraph(tree.n, edges)


def _paths_from(graph: SyntaxGraph, source: int) -> dict[int, RelationPath]:
    """Shortest relation paths from `source` to every word it reaches, by one
    breadth-first search over non-self edges; the source itself gets the
    self-loop.

    The underlying structure is a tree, so each result is the unique simple
    path between the two words.
    """
    labels: dict[int, tuple[DirectedLabel, ...]] = {source: ()}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt, label in graph.neighbors(node):
            if nxt not in labels:
                labels[nxt] = labels[node] + (label,)
                queue.append(nxt)
    labels[source] = (SELF_LOOP,)
    return {
        target: RelationPath(labels=seq, source=source, target=target)
        for target, seq in labels.items()
    }


def shortest_relation_path(graph: SyntaxGraph, i: int, j: int) -> RelationPath:
    """The relation path from word i to word j; i == j yields the self-loop."""
    for node in (i, j):
        if not (1 <= node <= graph.n):
            raise ValueError(f"node {node} out of range 1..{graph.n}")
    path = _paths_from(graph, i).get(j)
    if path is None:
        raise ValueError(f"no path from {i} to {j}")
    return path


def all_pairs_paths(graph: SyntaxGraph) -> dict[tuple[int, int], RelationPath]:
    """Shortest relation paths for every ordered word pair (one search per source)."""
    paths: dict[tuple[int, int], RelationPath] = {}
    for i in range(1, graph.n + 1):
        reached = _paths_from(graph, i)
        for j in range(1, graph.n + 1):
            paths[(i, j)] = reached[j]
    return paths


@dataclass(frozen=True)
class CharRelationMap:
    """Relation paths for every ordered pair of non-separator characters.

    Paths are stored once per word pair and shared by reference: the map
    holds the word index of each character plus the n x n word-pair table.
    """

    m: int
    word_of_char: tuple[int, ...]
    word_paths: dict[tuple[int, int], RelationPath]

    def lookup(self, char_i: int, char_j: int) -> RelationPath:
        return self.word_paths[(self.word_of_char[char_i], self.word_of_char[char_j])]


def expand_to_characters(graph: SyntaxGraph, alignment: CharAlignment) -> CharRelationMap:
    """Assign every ordered character pair the path of its word pair.

    Separator characters are not attention nodes and are excluded. Raises
    if the alignment does not cover exactly the graph's words.
    """
    word_of_char = tuple(w for w in alignment.char_to_word if w is not None)
    covered = set(word_of_char)
    if covered != set(range(1, graph.n + 1)):
        raise ValueError(
            f"alignment covers words {sorted(covered)}, graph has 1..{graph.n}"
        )
    return CharRelationMap(
        m=len(word_of_char),
        word_of_char=word_of_char,
        word_paths=all_pairs_paths(graph),
    )


def distinct_paths(cmap: CharRelationMap) -> tuple[list[RelationPath], np.ndarray]:
    """Deduplicate paths by label sequence.

    Returns the unique paths (first-occurrence order over word pairs) and
    an m x m table mapping each ordered character pair to its path index;
    rebuilding the map through the table reproduces it exactly.
    """
    unique: list[RelationPath] = []
    index_of: dict[tuple[str, ...], int] = {}
    n = max(cmap.word_of_char) if cmap.word_of_char else 0
    word_pair_idx = np.empty((n, n), dtype=np.int64)
    for wi in range(1, n + 1):
        for wj in range(1, n + 1):
            path = cmap.word_paths[(wi, wj)]
            key = path.key
            if key not in index_of:
                index_of[key] = len(unique)
                unique.append(path)
            word_pair_idx[wi - 1, wj - 1] = index_of[key]
    chars = np.asarray(cmap.word_of_char, dtype=np.int64) - 1
    table = word_pair_idx[chars[:, None], chars[None, :]]
    return unique, table


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def graph_to_dot(graph: SyntaxGraph, tree: DependencyTree) -> str:
    """DOT rendering: forward edges solid, reverse edges dashed, self-loops
    omitted for readability."""
    lines = ["digraph syntax {"]
    for i, form in enumerate(tree.forms, start=1):
        lines.append(f'  n{i} [label="{form}"];')
    for u, v, label in graph.edges:
        if label.direction is Direction.SELF:
            continue
        style = "solid" if label.direction is Direction.FWD else "dashed"
        lines.append(f'  n{u} -> n{v} [label="{label.base}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: SyntaxGraph, tree: DependencyTree) -> str:
    """JSON rendering with the full directed edge list, self-loops included."""
    payload = {
        "n": graph.n,
        "words": list(tree.forms),
        "root": tree.root_index,
        "edges": [
            {"from": u, "to": v, "label": label.base, "direction": label.direction.value}
            for u, v, label in graph.edges
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
