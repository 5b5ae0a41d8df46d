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
distinct path once, in one batched step per path length, and records one
autodiff op (`_final_states`) whose backward pass is written by hand. The
input projections are hoisted out of the recurrence: the label table goes
through w_z, w_r and w_h once per direction, and each step gathers its
rows. Batch invariance: a row's bits must not depend on the other paths in
its call (the dedup check compares each row with a lone-path encoding that
`verify` steps through the composed `gru.gru_cell_forward`), so every
product is `autodiff.row_products`, row by row, never gemm, and the gates
keep the composed cell's order of operations.

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
    logistic,
    row_products,
)
from .gru import GruCellParams
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


def gru_level(cell: GruCellParams, h, xz, xr, xh):
    """One batched GRU step in numpy: states `h` (B, d_h) and input rows
    already projected through w_z, w_r and w_h. Returns the new states and
    what the backward pass reads. The gates keep the composed cell's order,
    (x W + h U) + b and (1 - z) h + z c, so the bits match it."""
    z = logistic(xz + row_products(h, cell.u_z.data) + cell.b_z.data)
    r = logistic(xr + row_products(h, cell.u_r.data) + cell.b_r.data)
    rh = r * h
    c = np.tanh(xh + row_products(rh, cell.u_h.data) + cell.b_h.data)
    return (1.0 - z) * h + z * c, (h, z, r, rh, c)


def _final_states(
    cell: GruCellParams, table: Tensor, parent: np.ndarray,
    label_ids: np.ndarray, levels: list[np.ndarray],
) -> Tensor:
    """Final state of `cell` run over every distinct path from a zero state,
    (len(parent), d_h), as one autodiff op on `table` and the cell weights.

    Path u's state is one step from the state of path `parent[u]` on label
    row `label_ids[u]`, and `levels[d - 1]` lists the paths of length d, so
    each length is one batched step on states of the length before. The
    states live in one array whose extra last row is the zero state that
    parent -1 reads.
    """
    weights = cell.parameters()
    w_z, u_z, _, w_r, u_r, _, w_h, u_h, _ = (p.data for p in weights)
    inputs = [row_products(table.data, w) for w in (w_z, w_r, w_h)]
    states = np.zeros((len(parent) + 1, cell.hidden_size))
    saved = []
    for level in levels:
        labels = label_ids[level]
        states[level], step = gru_level(
            cell, states[parent[level]], *(x[labels] for x in inputs)
        )
        saved.append(step)

    def vjp(g):
        d_states = np.zeros_like(states)
        d_states[:-1] = g
        d_inputs = [np.zeros_like(x) for x in inputs]
        d_gates, rows = [], []
        for level, (h, z, r, rh, c) in zip(reversed(levels), reversed(saved)):
            d_new = d_states[level]
            d_c = d_new * z * (1.0 - c * c)
            d_rh = d_c @ u_h
            d_r = d_rh * h * r * (1.0 - r)
            d_z = d_new * (c - h) * z * (1.0 - z)
            d_h = d_new * (1.0 - z) + d_rh * r + d_z @ u_z + d_r @ u_r
            np.add.at(d_states, parent[level], d_h)
            for d_x, d_a in zip(d_inputs, (d_z, d_r, d_c)):
                np.add.at(d_x, label_ids[level], d_a)
            d_gates.append((d_z, d_r, d_c))
            rows.append((h, rh))
        d_z, d_r, d_c = (np.concatenate(d) for d in zip(*d_gates))
        h, rh = (np.concatenate(x) for x in zip(*rows))
        d_table = sum(d_x @ w for d_x, w in zip(d_inputs, (w_z, w_r, w_h)))
        return (
            d_table,
            d_inputs[0].T @ table.data, d_z.T @ h, d_z.sum(axis=0),
            d_inputs[1].T @ table.data, d_r.T @ h, d_r.sum(axis=0),
            d_inputs[2].T @ table.data, d_c.T @ rh, d_c.sum(axis=0),
        )

    return Tensor._result(states[:-1], (table, *weights), vjp)


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
    table = params.edge_embedding
    forward = _final_states(params.gru_fwd, table, paths.prefix, last, levels)
    backward = _final_states(params.gru_bwd, table, paths.suffix, first, levels)
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
