"""Multi-head attention over syntax graphs, stacked into encoder blocks.

The attention score between characters i and j adds pair-specific relation
biases to the content vectors before the query/key projections:

    s_ij = (x_i + fwd_ij) Wq^T Wk (x_j + bwd_ij)

where [fwd_ij; bwd_ij] = W_r r_ij splits the projected relation encoding of
the pair's path. The score expands into four addressing terms -- pure
content, a forward relation bias, a backward relation bias, and a
relation-only term -- stated per pair by `syntax_score_terms`. Each block's
attention sublayer is one autodiff op with a hand-written backward pass
(`_multi_head_attention`): it computes the four terms for every pair, the
content term for all heads at once and the relation terms one head at a
time, then the scaled softmax, the value product and the output
projection. It folds each half of W_r into its projection, Wq W_r,top and
Wk W_r,bottom, so a relation encoding maps straight to a d_head-wide query
and key, once per distinct path, gathered per pair. A block stores every
head's query, key and value maps as one (3, heads, d_head, d_model)
parameter and every head's W_r as one (heads, 2 d_model, 2 d_h) parameter,
the layout the op reads, so a call copies no weights. The per-pair
functions below (`baseline_score`, `syntax_score`, `syntax_score_terms`)
state the same scores unfolded, one pair at a time, on one head's copied
slices (`EncoderBlockParams.heads`); they are the layer's oracles in
`verify` and the tests. With zero relation encodings the score reduces
exactly to the plain dot-product attention, and the whole encoder reduces to
a plain transformer encoder; `encoder_forward` with relations=None runs that
reference path on the same parameters.

Blocks are post-norm: sublayer, residual add, then normalization. All that
follows a block's attention sublayer -- residual add, layer norm,
feed-forward, residual add, layer norm -- is a second autodiff op with a
hand-written backward pass (`_block_tail`), so a block records two ops. Forward
passes over frozen parameters are pure and may run concurrently across
sentences; a training step is single-writer over its parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Parameter, Tensor, add, glorot_uniform, softmax, take
from .errors import CoverageError, ShapeError, VocabError
from .relation import RelationTensor

LAYER_NORM_EPS = 1e-6


@dataclass
class AttentionHeadParams:
    """One head's query/key/value projections and relation split matrix, for
    the per-pair oracles. `EncoderBlockParams.heads` builds them as copies
    of slices of the block's stacked weights."""

    w_q: Parameter  # (d_head, d_model)
    w_k: Parameter  # (d_head, d_model)
    w_v: Parameter  # (d_head, d_model)
    w_r: Parameter  # (2 * d_model, 2 * d_h)

    @property
    def d_head(self) -> int:
        return self.w_q.data.shape[0]

    @property
    def d_model(self) -> int:
        return self.w_q.data.shape[1]


@dataclass
class EncoderBlockParams:
    w_qkv: Parameter  # (3, heads, d_head, d_model): query, key, value maps
    w_r: Parameter  # (heads, 2 * d_model, 2 * d_h)
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
        # One draw per stored array; each head's slice has one head's fans.
        return cls(
            w_qkv=Parameter(f"{prefix}.w_qkv", glorot_uniform(rng, 3, num_heads, d_head, d_model)),
            w_r=Parameter(f"{prefix}.w_r", glorot_uniform(rng, num_heads, 2 * d_model, 2 * d_h)),
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

    @property
    def heads(self) -> tuple[AttentionHeadParams, ...]:
        """Each head's slices for the oracles, copied on each read, never
        cached: Adam rebinds p.data."""
        prefix = self.w_qkv.name.rpartition(".")[0]
        arrays = (*self.w_qkv.data, self.w_r.data)
        return tuple(
            AttentionHeadParams(*(
                Parameter(f"{prefix}.head{h}.{name}", a[h])
                for name, a in zip(("w_q", "w_k", "w_v", "w_r"), arrays)
            ))
            for h in range(self.w_r.data.shape[0])
        )

    def parameters(self) -> list[Parameter]:
        return [
            self.w_qkv, self.w_r, self.w_o, self.ffn_w1, self.ffn_b1, self.ffn_w2,
            self.ffn_b2, self.norm1_gain, self.norm1_bias, self.norm2_gain, self.norm2_bias,
        ]


@dataclass
class EncoderStackParams:
    blocks: tuple[EncoderBlockParams, ...]
    char_embedding: Parameter  # (vocab, d_model)
    use_positions: bool

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


# ---------------------------------------------------------------------------
# Vectorized layer and stack
# ---------------------------------------------------------------------------


def _check_relations(relations: RelationTensor, n: int) -> None:
    table = relations.pair_index
    if table.shape != (n, n) or table.dtype.kind != "i":
        raise CoverageError(
            f"relation table is {table.dtype} of shape {table.shape}, "
            f"expected integers of shape ({n}, {n})"
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
    """One attention sublayer, every head at once, as one autodiff op on x,
    the relation encodings, the block's stacked w_qkv and w_r, and w_o,
    each read as it is stored.

    The score of each head is the sum of the four addressing terms of
    `syntax_score_terms`. W_r's forward half is folded into Wq and its
    backward half into Wk, so the encodings project straight to (paths,
    d_head) relation queries and keys. The two relation bias terms are
    (n, paths) products, made one head and one term at a time so that one
    is alive at once, and read per pair through one flat index,
    row * paths + path (Shaw et al. 2018, section 3.3). The backward pass
    runs the heads in turn too: one `np.bincount` per term scatters the
    score gradient into that term's (n, paths) product and one into the
    relation-only term. It keeps the weights P, the queries, keys and
    values, the relation queries and keys and the folded maps, but not the
    products. relations=None computes the content term alone, with the
    same code; zero encodings add exact zeros to it.
    """
    with_relations = relations is not None
    w_qkv, w_r, w_o = block.w_qkv.data, block.w_r.data, block.w_o.data
    _, H, d_head, d_model = w_qkv.shape
    # Rows [q heads, k heads, v heads], so one gemm projects all three.
    w_rows = w_qkv.reshape(-1, d_model)
    X = x.data
    n = X.shape[0]
    qkv = np.ascontiguousarray(
        (X @ w_rows.T).reshape(n, 3, H, d_head).transpose(1, 2, 0, 3)
    )
    Q, K, V = qkv  # (H, n, d_head) each
    S = Q @ K.transpose(0, 2, 1)  # content term, (H, n, n)
    if with_relations:
        E = relations.encodings.data
        U = E.shape[0]
        u = relations.pair_index
        halves = w_r.reshape(H, 2, d_model, -1).swapaxes(0, 1)  # (2, H, d_model, 2 d_h)
        maps = w_qkv[:2] @ halves  # Wq W_r,top and Wk W_r,bottom: (2, H, d_head, 2 d_h)
        map_rows = maps.reshape(2 * H * d_head, -1)
        # Rows of rel are paths: (U, 2, H, d_head) relation queries and keys,
        # so the projection and its two gradient products are single gemms.
        rel = (E @ map_rows.T).reshape(U, 2, H, d_head)
        # Pair (i, j) reads entry (i, u_ij) of Q RK^T and entry (j, u_ij) of
        # K RQ^T: term t reads qkv[t] against rel[:, 1 - t] through index[t].
        rows = np.arange(n) * U
        index = (rows[:, None] + u, rows + u)
        for h in range(H):
            for t in (0, 1):
                S[h] += (qkv[t, h] @ rel[:, 1 - t, h].T).take(index[t])
        S += np.einsum("uhd,uhd->hu", rel[:, 0], rel[:, 1]).take(u, axis=1)
    scale = math.sqrt(d_head)
    P = softmax(S, scale)
    heads_out = (P @ V).transpose(1, 0, 2).reshape(n, d_model)
    if collect is not None:
        collect.extend(
            AttentionMap(block_index, h, S[h].copy(), P[h].copy()) for h in range(H)
        )

    def vjp(g):
        d_out = (g @ w_o).reshape(n, H, d_head).transpose(1, 0, 2)
        d_s = d_out @ V.transpose(0, 2, 1)  # through P V, then the softmax
        d_s -= (d_s * P).sum(axis=-1, keepdims=True)
        d_s *= P
        d_s /= scale
        d_qkv = np.empty_like(qkv)
        d_qkv[0] = d_s @ K
        d_qkv[1] = d_s.transpose(0, 2, 1) @ Q
        d_qkv[2] = P.transpose(0, 2, 1) @ d_out
        if with_relations:
            # Per head, one scatter into the relation-only term and one per
            # bias term into its (n, U) product, freed before the next.
            flat = [i.ravel() for i in (*index, u)]
            d_flat = d_s.reshape(H, -1)
            d_rel = np.empty_like(rel)
            for h in range(H):
                d_pair = np.bincount(flat[2], d_flat[h], U)[:, None]
                for t in (0, 1):
                    d_term = np.bincount(flat[t], d_flat[h], n * U).reshape(n, U)
                    d_qkv[t, h] += d_term @ rel[:, 1 - t, h]
                    d_rel[:, 1 - t, h] = d_term.T @ qkv[t, h]
                    del d_term
                    d_rel[:, 1 - t, h] += d_pair * rel[:, t, h]
            d_rel = d_rel.reshape(U, -1)
            d_e = d_rel @ map_rows
            d_maps = (d_rel.T @ E).reshape(maps.shape)
            d_w_r = (w_qkv[:2].transpose(0, 1, 3, 2) @ d_maps).swapaxes(0, 1).reshape(w_r.shape)
        d_proj = d_qkv.transpose(2, 0, 1, 3).reshape(n, -1)
        d_w = (d_proj.T @ X).reshape(w_qkv.shape)
        d_x, d_w_o = d_proj @ w_rows, g.T @ heads_out
        if not with_relations:
            return d_x, d_w, d_w_o
        d_w[:2] += d_maps @ halves.transpose(0, 1, 3, 2)
        return d_x, d_e, d_w, d_w_r, d_w_o

    if with_relations:
        parents = (x, relations.encodings, block.w_qkv, block.w_r, block.w_o)
    else:
        parents = (x, block.w_qkv, block.w_o)
    return Tensor._result(heads_out @ w_o.T, parents, vjp)


def _normalize(a: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of the rows of a: (gain * xhat + bias, xhat, 1 / std)."""
    d = a.shape[-1]
    centered = a - np.add.reduce(a, axis=-1, keepdims=True) / d
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    return gain * xhat + bias, xhat, inv


def _normalize_vjp(g, gain, xhat, inv):
    """Gradients of `_normalize` for its input, gain and bias."""
    d = g.shape[-1]
    dxhat = g * gain
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
    return inv * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=0), g.sum(axis=0)


def _block_tail(x: Tensor, attn: Tensor, block: EncoderBlockParams) -> Tensor:
    """The rest of a block after its attention sublayer, as one autodiff op
    on x, attn and the block's eight feed-forward and norm parameters:
    residual add, layer norm, w1 and its bias, relu, w2 and its bias,
    residual add, layer norm. The same numpy steps as those ops composed,
    so the same bits; the backward pass runs their VJPs in reverse."""
    w1, w2 = block.ffn_w1.data, block.ffn_w2.data
    gain1, gain2 = block.norm1_gain.data, block.norm2_gain.data
    y, xhat1, inv1 = _normalize(x.data + attn.data, gain1, block.norm1_bias.data)
    pre = y @ w1.T + block.ffn_b1.data
    hidden = np.maximum(pre, 0.0)
    out, xhat2, inv2 = _normalize(
        y + (hidden @ w2.T + block.ffn_b2.data), gain2, block.norm2_bias.data
    )

    def vjp(g):
        d_sum2, d_gain2, d_bias2 = _normalize_vjp(g, gain2, xhat2, inv2)
        d_pre = (d_sum2 @ w2) * (pre > 0.0)
        d_sum1, d_gain1, d_bias1 = _normalize_vjp(d_sum2 + d_pre @ w1, gain1, xhat1, inv1)
        return (
            d_sum1, d_sum1, d_pre.T @ y, d_pre.sum(axis=0), d_sum2.T @ hidden,
            d_sum2.sum(axis=0), d_gain1, d_bias1, d_gain2, d_bias2,
        )

    parents = (
        x, attn, block.ffn_w1, block.ffn_b1, block.ffn_w2, block.ffn_b2,
        block.norm1_gain, block.norm1_bias, block.norm2_gain, block.norm2_bias,
    )
    return Tensor._result(out, parents, vjp)


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
        x = _block_tail(x, _multi_head_attention(x, relations, block, b, maps), block)
    if collect_attention:
        return x, maps
    return x
