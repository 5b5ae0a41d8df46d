"""Encode relation paths into dense vectors with bi-directional GRUs.

Each directed edge label is embedded, the embedded sequence is run through
a forward GRU (left to right) and a backward GRU (right to left), both from
zero initial states, and the two final states are concatenated into the
relation encoding of the pair. Encodings depend only on the label sequence,
so a batch encodes each distinct path once; a pair table sends every ordered
character pair to the row of its path.

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
    stack_rows,
    take_rows,
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

    def __contains__(self, key: str):
        return key in self._index

    def index_of(self, label: DirectedLabel) -> int:
        return self._index.get(label.key, self._index[UNK_KEY])

    def keys(self) -> list[str]:
        return sorted(self._index, key=self._index.get)


def build_label_vocab(graphs: Sequence[SyntaxGraph]) -> LabelVocab:
    return LabelVocab.build(graphs)


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

    @property
    def output_dim(self) -> int:
        return 2 * self.d_h

    def parameters(self) -> list[Parameter]:
        return [self.edge_embedding] + self.gru_fwd.parameters() + self.gru_bwd.parameters()


def encode_path(
    path: RelationPath, params: RelationEncoderParams, vocab: LabelVocab
) -> Tensor:
    """Relation encoding of one path: concat(final forward state, final
    backward state), length 2 * d_h. Both GRUs start from zero states."""
    if len(path.labels) == 0:
        raise ValueError("cannot encode an empty path")
    ids = [vocab.index_of(label) for label in path.labels]
    steps = [take_rows(params.edge_embedding, np.int64(i)) for i in ids]
    h = Tensor(np.zeros(params.d_h))
    for x in steps:
        h = gru_cell_forward(params.gru_fwd, h, x)
    forward_final = h
    h = Tensor(np.zeros(params.d_h))
    for x in reversed(steps):
        h = gru_cell_forward(params.gru_bwd, h, x)
    backward_final = h
    return concat_last([forward_final, backward_final])


def encode_distinct_batch(
    paths: Sequence[RelationPath], params: RelationEncoderParams, vocab: LabelVocab
) -> list[Tensor]:
    """Encode a deduplicated path list, one encoding per distinct path.

    Scattering the results through a pair->path index table reproduces the
    naive per-pair encoding bit for bit, since encodings depend only on the
    label sequence.
    """
    return [encode_path(path, params, vocab) for path in paths]


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
        encoded = encode_distinct_batch(unique, params, vocab)
        return cls(
            n=cmap.m,
            encodings=stack_rows(encoded),
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
