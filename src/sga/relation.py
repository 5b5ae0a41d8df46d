"""Encode relation paths into dense vectors with bi-directional GRUs.

Each directed edge label is embedded, the embedded sequence is run through
a forward GRU (left to right) and a backward GRU (right to left), both from
zero initial states, and the two final states are concatenated into the
relation encoding of the pair. Encodings depend only on the label sequence,
so a sentence encodes each distinct path once, and a pair table sends every
ordered character pair to the row of its path.

The prefix and the suffix of a tree path are paths of the same sentence
(see `syntax_graph.PathTable`), so the forward state of path u is one step
from the forward state of its prefix, and its backward state one step from
the backward state of its suffix. Each direction therefore steps every
distinct path once, in one batched step per path length. Batch invariance:
a row's bits must not depend on the other paths in its call (the dedup
check compares each row with a lone-path encoding), so the cell multiplies
row by row, never by gemm.

Encoding is pure given frozen parameters; parameter updates are
single-writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    concat_last,
    glorot_uniform,
    take_rows,
    transpose,
)
from .gru import GruCellParams, gru_cell_forward
from .syntax_graph import (
    CharRelationMap,
    DirectedLabel,
    PathTable,
    RelationPath,
    SyntaxGraph,
    distinct_paths,
)

SELF_KEY = "self"
UNK_KEY = "<unk>"


class LabelVocab:
    """Dense index over directed edge labels, frozen after construction.

    The self-loop label and an unknown-label fallback are always present,
    so encoding is total even on sentences with labels never seen when the
    vocabulary was built.
    """

    def __init__(self, keys: Sequence[str]):
        ordered = [SELF_KEY, UNK_KEY]
        ordered.extend(k for k in keys if k not in (SELF_KEY, UNK_KEY))
        self._index = {key: i for i, key in enumerate(ordered)}
        if len(self._index) != len(ordered):
            raise ValueError("duplicate label keys")

    @classmethod
    def build(cls, graphs: Sequence[SyntaxGraph]) -> "LabelVocab":
        if not graphs:
            raise ValueError("cannot build a label vocabulary from no graphs")
        keys = sorted({label.key for g in graphs for _, _, label in g.edges})
        return cls(keys)

    def __len__(self):
        return len(self._index)

    def index_of(self, label: DirectedLabel) -> int:
        return self._index.get(label.key, self._index[UNK_KEY])

    def keys(self) -> list[str]:
        return sorted(self._index, key=self._index.get)


@dataclass
class RelationEncoderParams:
    """Edge-label embeddings plus the two path GRUs."""

    d_e: int
    d_h: int
    edge_embedding: Parameter
    gru_fwd: GruCellParams
    gru_bwd: GruCellParams

    @classmethod
    def create(
        cls,
        vocab_size: int,
        d_e: int,
        d_h: int,
        rng: np.random.Generator,
        prefix: str = "rel",
    ) -> "RelationEncoderParams":
        return cls(
            d_e=d_e,
            d_h=d_h,
            edge_embedding=Parameter(
                f"{prefix}.edge_embedding", glorot_uniform(rng, vocab_size, d_e)
            ),
            gru_fwd=GruCellParams.create(f"{prefix}.gru_fwd", d_e, d_h, rng),
            gru_bwd=GruCellParams.create(f"{prefix}.gru_bwd", d_e, d_h, rng),
        )

    def parameters(self) -> list[Parameter]:
        return [self.edge_embedding] + self.gru_fwd.parameters() + self.gru_bwd.parameters()


def _final_states(
    cell: GruCellParams, parent: np.ndarray, label_ids: np.ndarray,
    levels: list[np.ndarray], rank: np.ndarray, table: Tensor,
) -> Tensor:
    """Final state of `cell` run over every distinct path from a zero state.

    Path u's state is one step from the state of path `parent[u]` on label
    row `label_ids[u]`. `levels[d - 1]` lists the paths of length d, so each
    length is one batched step on the states of the length before, and
    `rank[u]` is path u's row once the levels are stacked (`rank[-1]` is 0:
    parent -1 reads the one zero row).
    """
    state = Tensor(np.zeros((1, cell.hidden_size)))
    columns, previous = [], 0
    for level in levels:
        parents = take_rows(state, rank[parent[level]] - previous)
        state = gru_cell_forward(cell, parents, take_rows(table, label_ids[level]))
        columns.append(transpose(state))
        previous = rank[level[0]]
    return take_rows(transpose(concat_last(columns)), rank[:-1])


def encode_paths(
    paths: PathTable, params: RelationEncoderParams, vocab: LabelVocab
) -> Tensor:
    """Relation encodings of a sentence's distinct paths, one row per path
    id: (len(paths), 2 * d_h).

    Row u is concat(final forward state, final backward state) of path u,
    both GRUs starting from zero states. The forward GRU steps u from its
    prefix on its last label, the backward GRU from its suffix on its first
    label. The cell's products are batch-invariant, so every row has the
    same bits as the path stepped alone.
    """
    last = np.array([vocab.index_of(label) for label in paths.last], dtype=np.int64)
    first = np.array([vocab.index_of(label) for label in paths.first], dtype=np.int64)
    order = np.argsort(paths.length, kind="stable")
    levels = np.split(order, np.cumsum(np.bincount(paths.length)[1:])[:-1])
    rank = np.zeros(len(order) + 1, dtype=np.int64)
    rank[order] = np.arange(len(order))
    table = params.edge_embedding
    forward = _final_states(params.gru_fwd, paths.prefix, last, levels, rank, table)
    backward = _final_states(params.gru_bwd, paths.suffix, first, levels, rank, table)
    return concat_last([forward, backward])


@dataclass
class RelationTensor:
    """Relation encodings for every ordered character pair of a sentence.

    Stored in deduplicated form: one encoding row per distinct path plus an
    n x n table sending each ordered pair to its row. The attention layer
    projects the rows once per head and gathers through the table.
    """

    encodings: Tensor  # (num_paths, 2 * d_h)
    pair_index: np.ndarray  # (n, n) int64, row index per ordered pair
    char_map: CharRelationMap

    @property
    def n(self) -> int:
        return self.pair_index.shape[0]

    @cached_property
    def paths(self) -> list[RelationPath]:
        """The path of each encoding row, built on first read (dumps, checks)."""
        return distinct_paths(self.char_map)[0]

    @property
    def is_complete(self) -> bool:
        rows = self.encodings.data.shape[0]
        return bool(
            np.all(self.pair_index >= 0) and np.all(self.pair_index < rows)
        )

    @classmethod
    def from_char_map(
        cls,
        cmap: CharRelationMap,
        params: RelationEncoderParams,
        vocab: LabelVocab,
    ) -> "RelationTensor":
        return cls(
            encodings=encode_paths(cmap.table, params, vocab),
            pair_index=cmap.pair_index(),
            char_map=cmap,
        )

    def zeroed(self) -> "RelationTensor":
        """Same structure with all-zero encodings (relation signal off)."""
        return RelationTensor(
            encodings=Tensor(np.zeros_like(self.encodings.data)),
            pair_index=self.pair_index,
            char_map=self.char_map,
        )
