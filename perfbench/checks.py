"""Correctness checks, computed apart from the code they check.

Each check returns None when it passes and a short message when it fails.
The oracles use plain numpy and the generated parse, not the program's own
helpers, and none of them compares against stored output.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import relation_paths

SCORE_TOL = 1e-10
ENCODING_TOL = 1e-10
ROW_SUM_TOL = 1e-12


def _word_of_char(forms) -> np.ndarray:
    """0-based word index of every character, separators left out."""
    return np.repeat(np.arange(len(forms)), [len(f) for f in forms])


def check_paths(parse, unique, table) -> str | None:
    """The pair-to-path table and the distinct path list against label
    sequences walked through the lowest common ancestor of the generated
    heads; `parse` is one entry of `workloads.read_back`."""
    heads, labels, forms = parse
    expected = relation_paths(heads, labels)
    keys = [path.key for path in unique]
    if len(set(keys)) != len(keys):
        return "distinct paths repeat a label sequence"
    if len(keys) != len(set(expected.values())):
        return f"{len(keys)} distinct paths, expected {len(set(expected.values()))}"
    words = _word_of_char(forms)
    if table.shape != (words.size, words.size):
        return f"pair table has shape {table.shape}, expected {(words.size,) * 2}"
    for a, wa in enumerate(words):
        for b, wb in enumerate(words):
            if keys[table[a, b]] != expected[wa + 1, wb + 1]:
                return f"character pair ({a}, {b}) maps to the wrong path"
    return None


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def _gru(cell, inputs) -> np.ndarray:
    """h' = (1 - z) h + z tanh(W_h x + U_h (r h) + b_h) from a zero state."""
    p = {name: getattr(cell, name).data for name in
         ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")}
    h = np.zeros(p["b_z"].shape)
    for x in inputs:
        z = _sigmoid(p["w_z"] @ x + p["u_z"] @ h + p["b_z"])
        r = _sigmoid(p["w_r"] @ x + p["u_r"] @ h + p["b_r"])
        c = np.tanh(p["w_h"] @ x + p["u_h"] @ (r * h) + p["b_h"])
        h = (1.0 - z) * h + z * c
    return h


def check_encodings(model, relations, rows) -> str | None:
    """Sampled rows of the relation encodings against a plain bi-GRU."""
    index = {key: i for i, key in enumerate(model.label_vocab.keys())}
    embedding = model.relation.edge_embedding.data
    for row in rows:
        steps = [embedding[index.get(key, index["<unk>"])] for key in relations.paths[row].key]
        expected = np.concatenate([
            _gru(model.relation.gru_fwd, steps),
            _gru(model.relation.gru_bwd, steps[::-1]),
        ])
        diff = float(np.abs(relations.encodings.data[row] - expected).max())
        if not diff <= ENCODING_TOL:
            return f"encoding row {row} differs by {diff:.3e}"
    return None


def _block_input(model, sentence) -> np.ndarray:
    x = model.stack.char_embedding.data[sentence.char_ids]
    if model.stack.use_positions:
        n, d = x.shape
        angles = np.arange(n)[:, None] / np.power(10000.0, np.arange(0, d, 2) / d)
        signal = np.zeros((n, d))
        signal[:, 0::2] = np.sin(angles)
        signal[:, 1::2] = np.cos(angles[:, : d // 2])
        x = x + signal
    return x


def check_scores(model, sentence, relations, maps) -> str | None:
    """Block 0's collected scores against (x_i + f_ij) Wq^T Wk (x_j + b_ij),
    with [f_ij; b_ij] = W_r r_ij."""
    if not model.stack.blocks:
        return None
    x = _block_input(model, sentence)
    d = x.shape[1]
    enc = relations.encodings.data
    block0 = [m for m in maps if m.block == 0]
    for head, amap in zip(model.stack.blocks[0].heads, block0):
        projected = enc @ head.w_r.data.T
        fwd = projected[:, :d][relations.pair_index]
        bwd = projected[:, d:][relations.pair_index]
        q = (x[:, None, :] + fwd) @ head.w_q.data.T
        k = (x[None, :, :] + bwd) @ head.w_k.data.T
        diff = float(np.abs((q * k).sum(axis=-1) - amap.scores).max())
        if not diff <= SCORE_TOL:
            return f"block 0 head {amap.head} scores differ by {diff:.3e}"
    return None


def check_rows(maps) -> str | None:
    """Every attention row of every block and head sums to one."""
    for amap in maps:
        worst = float(np.abs(amap.weights.sum(axis=1) - 1.0).max())
        if not worst <= ROW_SUM_TOL:
            return f"block {amap.block} head {amap.head} rows off by {worst:.3e}"
    return None


def check_reduction(model, sentence) -> str | None:
    """Zero relation encodings and the content-only path agree bit for bit."""
    zeroed = model.forward(sentence, zero_relations=True)
    plain = model.forward(sentence, baseline=True)
    if not np.array_equal(zeroed.data, plain.data):
        return "zero_relations and baseline outputs differ"
    return None


def check_training(initial: float, final: float, losses) -> str | None:
    """Every training loss is finite and the pool loss went down."""
    if not all(math.isfinite(v) for v in losses):
        return "a training loss is not finite"
    if not final < initial:
        return f"pool loss did not fall: {initial:.6g} -> {final:.6g}"
    return None
