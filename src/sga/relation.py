"""Encode relation paths into dense vectors with bi-directional GRUs.

Each directed edge label is embedded, the embedded sequence is run through
a forward GRU (left to right) and a backward GRU (right to left), both from
zero initial states, and the two final states are concatenated into the
relation encoding of the pair. Encodings depend only on the label sequence,
so a sentence encodes each distinct path once, and a pair table sends every
ordered character pair to the row of its path.

The prefix and the suffix of a tree path are paths of the same sentence (see
`syntax_graph.PathTable`), so the forward state of path u is one step from
the forward state of its prefix, and its backward state one step from the
backward state of its suffix. Both directions therefore step every distinct
path once, together, in one `gru_level` call per path length -- a slice,
since path ids run by length -- and the whole stage records one autodiff op
(`encode_paths`) whose backward pass is written by hand and walks the levels
once in reverse. A recorded op keeps the states, whose first U rows are the
encodings, and one array of the gates; its backward pass regathers h and
recomputes r h. The weights are stored stacked on a leading direction axis,
in the layout the op reads, so a call copies no weights and its backward
pass returns one gradient per stored array; `gru_fwd` and `gru_bwd` slice
one cell back out for the oracles. The z and r gates share one recurrent
product and one `logistic` call. The input projections are hoisted out of
the recurrence: the label table goes through the stacked input weights once,
and each step gathers its rows. The path table carries label ids, so the
vocabulary looks up each distinct label of a sentence once.

Batch invariance: a row's bits must not depend on the other paths in its
call (the dedup check compares each row with a lone-path encoding that
`verify` steps through the composed `gru.gru_cell_forward`), so every
product is `autodiff.row_products`, row by row, never gemm, and the gates
keep the composed cell's order of operations.

Encoding is pure given frozen parameters; parameter updates are
single-writer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .autodiff import (
    _TAPE,
    Parameter,
    Tensor,
    glorot_uniform,
    logistic,
    row_products,
)
from .gru import GruCellParams
from .syntax_graph import (
    SELF,
    CharRelationMap,
    PathTable,
    RelationPath,
    SyntaxGraph,
    distinct_paths,
)

UNK_KEY = "<unk>"


class LabelVocab:
    """Dense index over directed edge labels, frozen after construction.

    Labels are key strings (``nsubj:fwd``, ``nsubj:rev``). The self-loop
    key ``self`` and an unknown-label fallback are always present, so
    encoding is total even on labels never seen when it was built.
    """

    def __init__(self, keys: Sequence[str]):
        ordered = [SELF, UNK_KEY]
        ordered.extend(k for k in keys if k not in (SELF, UNK_KEY))
        self._index = {key: i for i, key in enumerate(ordered)}
        if len(self._index) != len(ordered):
            raise ValueError("duplicate label keys")

    @classmethod
    def build(cls, graphs: Sequence[SyntaxGraph]) -> "LabelVocab":
        if not graphs:
            raise ValueError("cannot build a label vocabulary from no graphs")
        return cls(sorted({label for g in graphs for _, _, label in g.edges}))

    def __len__(self):
        return len(self._index)

    def index_of(self, label: str) -> int:
        return self._index.get(label, self._index[UNK_KEY])

    def keys(self) -> list[str]:
        return sorted(self._index, key=self._index.get)


@dataclass
class RelationEncoderParams:
    """Edge-label embeddings plus both path GRUs' weights, stacked on a
    leading direction axis (forward, backward) in the layout `encode_paths`
    reads: the input maps (w_z; w_r; w_h) in `w`, the z and r gates'
    recurrent maps and biases in `u_zr` and `b_zr`, the candidate's in `u_h`
    and `b_h`."""

    edge_embedding: Parameter  # (labels, d_e)
    w: Parameter  # (2, 3 d_h, d_e)
    u_zr: Parameter  # (2, 2 d_h, d_h)
    b_zr: Parameter  # (2, 2 d_h)
    u_h: Parameter  # (2, d_h, d_h)
    b_h: Parameter  # (2, d_h)

    @classmethod
    def create(
        cls,
        vocab_size: int,
        d_e: int,
        d_h: int,
        rng: np.random.Generator,
    ) -> "RelationEncoderParams":
        embedding = glorot_uniform(rng, vocab_size, d_e)
        # Per cell, forward first: w_z, u_z, w_r, u_r, w_h, u_h, each drawn
        # with its own fans.
        cells = [[glorot_uniform(rng, d_h, n) for _ in range(3) for n in (d_e, d_h)]
                 for _ in range(2)]
        u = np.stack([np.concatenate(c[1::2]) for c in cells])
        return cls(
            edge_embedding=Parameter("rel.edge_embedding", embedding),
            w=Parameter("rel.w", np.stack([np.concatenate(c[0::2]) for c in cells])),
            u_zr=Parameter("rel.u_zr", u[:, : 2 * d_h]),
            b_zr=Parameter("rel.b_zr", np.zeros((2, 2 * d_h))),
            u_h=Parameter("rel.u_h", u[:, 2 * d_h :]),
            b_h=Parameter("rel.b_h", np.zeros((2, d_h))),
        )

    def parameters(self) -> list[Parameter]:
        return [self.edge_embedding, self.w, self.u_zr, self.b_zr, self.u_h, self.b_h]

    # Each direction's slices as a GRU cell for the oracles, copied on each
    # read, never cached: Adam rebinds p.data.
    gru_fwd = property(lambda self: self._cell(0))
    gru_bwd = property(lambda self: self._cell(1))

    def _cell(self, side: int) -> GruCellParams:
        d = self.u_h.data.shape[-1]
        w, u_zr, b_zr = (p.data[side] for p in (self.w, self.u_zr, self.b_zr))
        gates = dict(
            w_z=w[:d], u_z=u_zr[:d], b_z=b_zr[:d],
            w_r=w[d : 2 * d], u_r=u_zr[d:], b_r=b_zr[d:],
            w_h=w[2 * d :], u_h=self.u_h.data[side], b_h=self.b_h.data[side],
        )
        prefix = ("rel.gru_fwd", "rel.gru_bwd")[side]
        return GruCellParams(**{k: Parameter(f"{prefix}.{k}", v) for k, v in gates.items()})


def gru_level(weights, h, x):
    """One batched GRU step of both directions in numpy: states `h`
    (2, B, d_h), input rows `x` (2, B, 3 d_h) already projected through the
    stacked (w_z; w_r; w_h), and `weights` the stacked (u_z; u_r), (b_z; b_r),
    u_h and b_h. Returns the new states and the gates that the backward pass
    keeps, z and r together and the candidate c; it recomputes h and r h.
    The gates keep the composed cell's order, (x W + h U) + b and
    (1 - z) h + z c, so the bits match it."""
    u_zr, b_zr, u_h, b_h = weights
    d = h.shape[-1]
    zr = logistic(x[..., : 2 * d] + row_products(h, u_zr) + b_zr)
    z, r = zr[..., :d], zr[..., d:]
    c = np.tanh(x[..., 2 * d :] + row_products(r * h, u_h) + b_h)
    return (1.0 - z) * h + z * c, zr, c


def encode_paths(
    paths: PathTable, params: RelationEncoderParams, vocab: LabelVocab
) -> Tensor:
    """Relation encodings of a sentence's distinct paths, one row per path
    id: (len(paths), 2 * d_h), as one autodiff op on the label table and
    the five stacked cell weights, which it reads as they are stored.

    Row u is concat(final forward state, final backward state) of path u,
    both GRUs starting from zero states. The forward GRU steps u from its
    prefix on its last label, the backward GRU from its suffix on its first
    label, and each path length, one contiguous id range, is one step of
    both. The states live in one (U + 1, 2, d_h) array, path first: its
    first U rows, as a view, are the encodings, and its last row is the zero
    state that parent -1 reads. A recorded call keeps the states and one
    (2, U, 3 d_h) array of the z, r and c gates, and its backward pass
    regathers h and recomputes r h. The cell's products are batch-invariant,
    so every row has the same bits as the path stepped alone.
    """
    table, w = params.edge_embedding.data, params.w.data
    u_zr, u_h = params.u_zr.data, params.u_h.data
    d, rows = u_h.shape[-1], len(paths)
    ids = np.array([vocab.index_of(label) for label in paths.alphabet], dtype=np.int64)
    ends = np.cumsum(np.bincount(paths.length)[1:])
    levels = [slice(a, b) for a, b in zip([0, *ends[:-1]], ends)]
    # (parent, direction) index pairs into the states, (direction, label) into x.
    side = np.arange(2)[:, None]
    parent = np.stack([paths.prefix, paths.suffix])
    labels = ids[np.stack([paths.last, paths.first])]
    weights = (u_zr, params.b_zr.data[:, None], u_h, params.b_h.data[:, None])
    x = row_products(table, w)
    states = np.zeros((rows + 1, 2, d))
    gates = np.empty((2, rows, 3 * d)) if _TAPE.get() is not None else None
    for level in levels:
        new, zr, c = gru_level(weights, states[parent[:, level], side], x[side, labels[:, level]])
        states[level] = new.swapaxes(0, 1)
        if gates is not None:
            gates[:, level, : 2 * d], gates[:, level, 2 * d :] = zr, c

    def vjp(g):
        d_states = np.zeros((2, rows + 1, d))
        d_states[:, :-1] = g.reshape(rows, 2, d).swapaxes(0, 1)
        d_x = np.zeros_like(x)
        # Paths in reverse level order, the order the weight gradients sum in.
        d_gates, h_all, rh_all = (np.empty((2, rows, k * d)) for k in (3, 1, 1))
        for level in reversed(levels):
            out = slice(rows - level.stop, rows - level.start)
            d_new, h = d_states[:, level], states[parent[:, level], side]
            zr, c = gates[:, level, : 2 * d], gates[:, level, 2 * d :]
            z, r = zr[..., :d], zr[..., d:]
            h_all[:, out], rh_all[:, out] = h, r * h
            d_c = d_new * z * (1.0 - c * c)
            d_rh = d_c @ u_h
            d_zr = np.concatenate([d_new * (c - h), d_rh * h], axis=-1) * zr * (1.0 - zr)
            d_prev = d_new * (1.0 - z) + d_rh * r + d_zr @ u_zr
            np.add.at(d_states, (side, parent[:, level]), d_prev)
            d_gates[:, out, : 2 * d], d_gates[:, out, 2 * d :] = d_zr, d_c
            np.add.at(d_x, (side, labels[:, level]), d_gates[:, out])
        d_b = d_gates.sum(axis=1)
        return (
            (d_x @ w).sum(axis=0), d_x.swapaxes(1, 2) @ table,
            d_gates[..., : 2 * d].swapaxes(1, 2) @ h_all, d_b[:, : 2 * d],
            d_gates[..., 2 * d :].swapaxes(1, 2) @ rh_all, d_b[:, 2 * d :],
        )

    return Tensor._result(states[:-1].reshape(rows, 2 * d), tuple(params.parameters()), vjp)


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

    def zeroed(self) -> "RelationTensor":
        """Same structure with all-zero encodings (relation signal off)."""
        return replace(self, encodings=Tensor(np.zeros_like(self.encodings.data)))
