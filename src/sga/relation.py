"""Encode relation paths into dense vectors with bi-directional GRUs.

Each directed edge label is embedded, the embedded sequence is run through
a forward GRU (left to right) and a backward GRU (right to left), both from
zero initial states, and the two final states are concatenated into the
relation encoding of the pair. Encodings depend only on the label sequence,
so a sentence encodes each distinct path once, and a pair table sends every
ordered character pair to the row of its path. A forward state is one step
from the state of the path's prefix, so each distinct prefix is stepped once
by the forward GRU and each distinct suffix once by the backward GRU, in one
batched step per prefix depth. Batch invariance: a row's bits must not
depend on the other paths in its call (the dedup check compares each row
with a lone-path encoding), so the cell multiplies row by row, never by gemm.

Encoding is pure given frozen parameters; parameter updates are
single-writer.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .errors import ShapeError
from .gru import GruCellParams, gru_cell_forward
from .syntax_graph import (
    CharRelationMap,
    DirectedLabel,
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
    cell: GruCellParams, sequences: Sequence[tuple[int, ...]], table: Tensor
) -> Tensor:
    """Final state of `cell` run over each label-id sequence from a zero state.

    The distinct prefixes form a trie in which every depth-d node has its
    parent at depth d - 1, so each depth is one batched step. Level d maps
    (parent index at depth d - 1, label id) to the node's index at depth d;
    the parent of depth 0 is the single zero row. Row u of the result is the
    state of sequence u's node at depth len(u) - 1.
    """
    levels: list[dict[tuple[int, int], int]] = [
        {} for _ in range(max(map(len, sequences), default=0))
    ]
    ends = []
    for seq in sequences:
        node = 0
        for level, label in zip(levels, seq):
            node = level.setdefault((node, label), len(level))
        ends.append((len(seq) - 1, node))
    state = Tensor(np.zeros((1, cell.hidden_size)))
    columns = []
    for level in levels:
        parents, labels = np.array(list(level), dtype=np.int64).T
        state = gru_cell_forward(cell, take_rows(state, parents), take_rows(table, labels))
        columns.append(transpose(state))
    offsets = np.cumsum([0] + [len(level) for level in levels])
    return take_rows(transpose(concat_last(columns)), [offsets[d] + node for d, node in ends])


def encode_paths(
    paths: Sequence[RelationPath], params: RelationEncoderParams, vocab: LabelVocab
) -> Tensor:
    """Relation encodings of `paths`, one row each: (len(paths), 2 * d_h).

    Row u is concat(final forward state, final backward state) of path u,
    both GRUs starting from zero states. The forward GRU steps each distinct
    label prefix once and the backward GRU each distinct suffix once, one
    batched step per depth. The cell's products are batch-invariant, so
    every row has the same bits as a lone `encode_paths([path])`.
    """
    ids = [tuple(vocab.index_of(label) for label in path.labels) for path in paths]
    if not all(ids):
        raise ValueError("cannot encode an empty path")
    forward = _final_states(params.gru_fwd, ids, params.edge_embedding)
    backward = _final_states(params.gru_bwd, [seq[::-1] for seq in ids], params.edge_embedding)
    return concat_last([forward, backward])


@dataclass
class RelationTensor:
    """Relation encodings for every ordered character pair of a sentence.

    Stored in deduplicated form: one encoding row per distinct path plus an
    n x n table sending each ordered pair to its row. The attention layer
    projects the rows once per head and gathers through the table.
    """

    n: int
    encodings: Tensor  # (num_paths, 2 * d_h)
    pair_index: np.ndarray  # (n, n) int64, row index per ordered pair
    paths: list[RelationPath]

    def __post_init__(self):
        if self.pair_index.shape != (self.n, self.n):
            raise ShapeError(
                f"pair index has shape {self.pair_index.shape}, expected "
                f"({self.n}, {self.n})"
            )

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
        unique, table = distinct_paths(cmap)
        return cls(
            n=cmap.m,
            encodings=encode_paths(unique, params, vocab),
            pair_index=table,
            paths=unique,
        )

    def zeroed(self) -> "RelationTensor":
        """Same structure with all-zero encodings (relation signal off)."""
        return RelationTensor(
            n=self.n,
            encodings=Tensor(np.zeros_like(self.encodings.data)),
            pair_index=self.pair_index,
            paths=self.paths,
        )
