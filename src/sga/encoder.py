"""Multi-head attention over syntax graphs, stacked into encoder blocks.

The attention score between characters i and j adds pair-specific relation
biases to the content vectors before the query/key projections:

    s_ij = (x_i + fwd_ij) Wq^T Wk (x_j + bwd_ij)

where [fwd_ij; bwd_ij] = W_r r_ij splits the projected relation encoding of
the pair's path. The score expands into four addressing terms -- pure
content, a forward relation bias, a backward relation bias, and a
relation-only term -- stated per pair by `syntax_score_terms`. The layer
computes the same four terms for all pairs at once. It folds each half of
W_r into its projection, Wq W_r,top and Wk W_r,bottom, so a relation
encoding maps straight to a d_head-wide query and key, once per distinct
path, gathered per pair. With zero relation encodings the score reduces
exactly to the plain dot-product attention, and the whole encoder reduces to
a plain transformer encoder; `encoder_forward` with relations=None runs that
reference path on the same parameters.

Blocks are post-norm: sublayer, residual add, then normalization. Forward
passes over frozen parameters are pure and may run concurrently across
sentences; a training step is single-writer over its parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    add,
    concat_last,
    div_scalar,
    glorot_uniform,
    layer_norm,
    matmul,
    matmul_t,
    mul,
    relu,
    softmax,
    sum_last,
    take,
)
from .errors import CoverageError, ShapeError, VocabError
from .relation import RelationTensor

LAYER_NORM_EPS = 1e-6


@dataclass
class AttentionHeadParams:
    """Query/key/value projections plus this head's relation split matrix."""

    w_q: Parameter  # (d_head, d_model)
    w_k: Parameter  # (d_head, d_model)
    w_v: Parameter  # (d_head, d_model)
    w_r: Parameter  # (2 * d_model, 2 * d_h)

    @classmethod
    def create(cls, prefix, d_model, d_head, d_h, rng) -> "AttentionHeadParams":
        return cls(
            w_q=Parameter(f"{prefix}.w_q", glorot_uniform(rng, d_head, d_model)),
            w_k=Parameter(f"{prefix}.w_k", glorot_uniform(rng, d_head, d_model)),
            w_v=Parameter(f"{prefix}.w_v", glorot_uniform(rng, d_head, d_model)),
            w_r=Parameter(f"{prefix}.w_r", glorot_uniform(rng, 2 * d_model, 2 * d_h)),
        )

    @property
    def d_head(self) -> int:
        return self.w_q.data.shape[0]

    @property
    def d_model(self) -> int:
        return self.w_q.data.shape[1]

    def parameters(self) -> list[Parameter]:
        return [self.w_q, self.w_k, self.w_v, self.w_r]


@dataclass
class EncoderBlockParams:
    heads: tuple[AttentionHeadParams, ...]
    w_o: Parameter  # (d_model, d_model)
    ffn_w1: Parameter  # (d_ff, d_model)
    ffn_b1: Parameter
    ffn_w2: Parameter  # (d_model, d_ff)
    ffn_b2: Parameter
    norm1_gain: Parameter
    norm1_bias: Parameter
    norm2_gain: Parameter
    norm2_bias: Parameter

    @classmethod
    def create(cls, prefix, d_model, num_heads, d_ff, d_h, rng) -> "EncoderBlockParams":
        if d_model % num_heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by {num_heads} heads")
        d_head = d_model // num_heads
        heads = tuple(
            AttentionHeadParams.create(f"{prefix}.head{h}", d_model, d_head, d_h, rng)
            for h in range(num_heads)
        )
        return cls(
            heads=heads,
            w_o=Parameter(f"{prefix}.w_o", glorot_uniform(rng, d_model, d_model)),
            ffn_w1=Parameter(f"{prefix}.ffn_w1", glorot_uniform(rng, d_ff, d_model)),
            ffn_b1=Parameter(f"{prefix}.ffn_b1", np.zeros(d_ff)),
            ffn_w2=Parameter(f"{prefix}.ffn_w2", glorot_uniform(rng, d_model, d_ff)),
            ffn_b2=Parameter(f"{prefix}.ffn_b2", np.zeros(d_model)),
            norm1_gain=Parameter(f"{prefix}.norm1_gain", np.ones(d_model)),
            norm1_bias=Parameter(f"{prefix}.norm1_bias", np.zeros(d_model)),
            norm2_gain=Parameter(f"{prefix}.norm2_gain", np.ones(d_model)),
            norm2_bias=Parameter(f"{prefix}.norm2_bias", np.zeros(d_model)),
        )

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for head in self.heads:
            out.extend(head.parameters())
        out.extend([
            self.w_o, self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2,
            self.norm1_gain, self.norm1_bias, self.norm2_gain, self.norm2_bias,
        ])
        return out


@dataclass
class EncoderStackParams:
    blocks: tuple[EncoderBlockParams, ...]
    char_embedding: Parameter  # (vocab, d_model)
    use_positions: bool

    @classmethod
    def create(
        cls,
        char_vocab_size: int,
        d_model: int,
        num_heads: int,
        d_ff: int,
        d_h: int,
        n_blocks: int,
        rng: np.random.Generator,
        use_positions: bool = True,
        prefix: str = "enc",
    ) -> "EncoderStackParams":
        embedding = Parameter(
            f"{prefix}.char_embedding", glorot_uniform(rng, char_vocab_size, d_model)
        )
        blocks = tuple(
            EncoderBlockParams.create(f"{prefix}.block{b}", d_model, num_heads, d_ff, d_h, rng)
            for b in range(n_blocks)
        )
        return cls(blocks=blocks, char_embedding=embedding, use_positions=use_positions)

    @property
    def d_model(self) -> int:
        return self.char_embedding.data.shape[1]

    def parameters(self) -> list[Parameter]:
        out = [self.char_embedding]
        for block in self.blocks:
            out.extend(block.parameters())
        return out


@dataclass
class AttentionMap:
    """Scores and row-normalized weights for one block/head."""

    block: int
    head: int
    scores: np.ndarray
    weights: np.ndarray


# ---------------------------------------------------------------------------
# Per-pair reference scores (diagnostics and test oracles)
# ---------------------------------------------------------------------------


def _check_vector(name, v, dim):
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (dim,):
        raise ShapeError(f"{name} has shape {v.shape}, expected ({dim},)")
    return v


def baseline_score(x_i, x_j, head: AttentionHeadParams) -> float:
    """Plain content score: query of x_i dotted with key of x_j."""
    d = head.d_model
    x_i = _check_vector("x_i", x_i, d)
    x_j = _check_vector("x_j", x_j, d)
    return float((head.w_q.data @ x_i) @ (head.w_k.data @ x_j))


def syntax_score(x_i, x_j, r_fwd, r_bwd, head: AttentionHeadParams) -> float:
    """Relation-biased score in factored form:
    (x_i + r_fwd) Wq^T Wk (x_j + r_bwd)."""
    d = head.d_model
    x_i = _check_vector("x_i", x_i, d)
    x_j = _check_vector("x_j", x_j, d)
    r_fwd = _check_vector("r_fwd", r_fwd, d)
    r_bwd = _check_vector("r_bwd", r_bwd, d)
    return float((head.w_q.data @ (x_i + r_fwd)) @ (head.w_k.data @ (x_j + r_bwd)))


def syntax_score_terms(
    x_i, x_j, r_fwd, r_bwd, head: AttentionHeadParams
) -> tuple[float, float, float, float]:
    """The four addressing terms whose sum equals the factored score:
    (content, forward bias, backward bias, relation-only)."""
    d = head.d_model
    x_i = _check_vector("x_i", x_i, d)
    x_j = _check_vector("x_j", x_j, d)
    r_fwd = _check_vector("r_fwd", r_fwd, d)
    r_bwd = _check_vector("r_bwd", r_bwd, d)
    q_x = head.w_q.data @ x_i
    q_r = head.w_q.data @ r_fwd
    k_x = head.w_k.data @ x_j
    k_r = head.w_k.data @ r_bwd
    return (
        float(q_x @ k_x),
        float(q_x @ k_r),
        float(q_r @ k_x),
        float(q_r @ k_r),
    )


def attention_weights(scores, d: int):
    """Row-wise softmax of scores / sqrt(d); each row sums to one."""
    if d <= 0:
        raise ValueError("scaling dimension must be positive")
    t = scores if isinstance(scores, Tensor) else Tensor(scores)
    if t.data.ndim != 2:
        raise ShapeError(f"scores must be a matrix, got shape {t.shape}")
    out = softmax(div_scalar(t, math.sqrt(d)))
    return out if isinstance(scores, Tensor) else out.data


# ---------------------------------------------------------------------------
# Vectorized layer and stack
# ---------------------------------------------------------------------------


def _pair_scores(
    x: Tensor, relations: Optional[RelationTensor], head: AttentionHeadParams
) -> Tensor:
    """All-pairs scores for one head as an (n, n) tensor: the sum of the four
    addressing terms of `syntax_score_terms`.

    Each relation term is computed once per distinct path and gathered per
    pair through the pair table (Shaw et al. 2018, section 3.3). W_r's
    forward half is folded into Wq and its backward half into Wk, so the
    encodings project straight to (paths, d_head) and no operand is larger
    than (n, n) or (n, paths). relations=None returns the content term alone;
    zero encodings add exact zeros to that same term.
    """
    queries = matmul_t(x, head.w_q)  # (n, d_head)
    keys = matmul_t(x, head.w_k)
    content = matmul_t(queries, keys)  # (n, n)
    if relations is None:
        return content
    rows = np.arange(x.data.shape[0])
    top, bottom = np.arange(2 * head.d_model).reshape(2, head.d_model)
    query_map = matmul(head.w_q, take(head.w_r, top))  # (d_head, 2 d_h)
    key_map = matmul(head.w_k, take(head.w_r, bottom))
    rel_queries = matmul_t(relations.encodings, query_map)  # (paths, d_head)
    rel_keys = matmul_t(relations.encodings, key_map)
    u = relations.pair_index
    # Pair (i, j) reads entry (i, u_ij) of the first (n, paths) product and
    # entry (j, u_ij) of the second.
    fwd = take(matmul_t(queries, rel_keys), (rows[:, None], u))
    bwd = take(matmul_t(keys, rel_queries), (rows[None, :], u))
    relation_only = take(sum_last(mul(rel_queries, rel_keys)), u)
    return add(add(add(content, fwd), bwd), relation_only)


def _check_relations(relations: RelationTensor, n: int) -> None:
    if relations.n != n:
        raise CoverageError(
            f"relation tensor covers {relations.n} characters, sequence has {n}"
        )
    if not relations.is_complete:
        raise CoverageError("relation tensor is missing entries for some pairs")


def _multi_head_attention(
    x: Tensor,
    relations: Optional[RelationTensor],
    block: EncoderBlockParams,
    block_index: int = 0,
    collect: Optional[list[AttentionMap]] = None,
) -> Tensor:
    head_outputs = []
    for h, head in enumerate(block.heads):
        scores = _pair_scores(x, relations, head)
        weights = attention_weights(scores, head.d_head)
        values = matmul_t(x, head.w_v)  # (n, d_head)
        head_outputs.append(matmul(weights, values))
        if collect is not None:
            collect.append(
                AttentionMap(
                    block=block_index,
                    head=h,
                    scores=scores.data.copy(),
                    weights=weights.data.copy(),
                )
            )
    return matmul_t(concat_last(head_outputs), block.w_o)


def _block_forward(
    x: Tensor,
    relations: Optional[RelationTensor],
    block: EncoderBlockParams,
    block_index: int,
    collect: Optional[list[AttentionMap]],
) -> Tensor:
    attn = _multi_head_attention(x, relations, block, block_index, collect)
    x = layer_norm(add(x, attn), block.norm1_gain, block.norm1_bias, LAYER_NORM_EPS)
    hidden = relu(add(matmul_t(x, block.ffn_w1), block.ffn_b1))
    ffn = add(matmul_t(hidden, block.ffn_w2), block.ffn_b2)
    return layer_norm(add(x, ffn), block.norm2_gain, block.norm2_bias, LAYER_NORM_EPS)


def position_signal(n: int, d_model: int) -> np.ndarray:
    """Sinusoidal absolute-position signal, one row per position."""
    positions = np.arange(n, dtype=np.float64)[:, None]
    dims = np.arange(0, d_model, 2, dtype=np.float64)
    angles = positions / np.power(10000.0, dims / d_model)
    signal = np.zeros((n, d_model))
    signal[:, 0::2] = np.sin(angles)
    signal[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return signal


def _embed(char_ids, stack: EncoderStackParams) -> Tensor:
    ids = np.asarray(char_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("char_ids must be a non-empty 1-D sequence")
    vocab = stack.char_embedding.data.shape[0]
    bad = ids[(ids < 0) | (ids >= vocab)]
    if bad.size:
        raise VocabError(f"character id {int(bad[0])} outside vocabulary of {vocab}")
    x = take(stack.char_embedding, ids)
    if stack.use_positions:
        x = add(x, Tensor(position_signal(ids.size, stack.d_model)))
    return x


def encoder_forward(
    char_ids,
    relations: Optional[RelationTensor],
    stack: EncoderStackParams,
    collect_attention: bool = False,
):
    """Embed characters (plus optional position signal) and apply every
    block: relation-biased attention, then feed-forward, each with residual
    and post-normalization. relations=None runs content-only attention, with
    no relation machinery anywhere in the pass. Returns the final
    (n, d_model) embeddings, and the per-block/head attention maps when
    requested."""
    x = _embed(char_ids, stack)
    if relations is not None:
        _check_relations(relations, x.data.shape[0])
    maps: Optional[list[AttentionMap]] = [] if collect_attention else None
    for b, block in enumerate(stack.blocks):
        x = _block_forward(x, relations, block, b, maps)
    if collect_attention:
        return x, maps
    return x
