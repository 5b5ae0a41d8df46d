"""Generic autodiff ops that the model no longer records, and the composed
oracles built from them: a block's feed-forward tail and the regression
head's loss, op by op, as they were before each became one fused op. Also a
reader of the recorded chain."""

import numpy as np

from sga.autodiff import Tensor, add, lift, mul, sub, sum_all
from sga.encoder import LAYER_NORM_EPS
from sga.errors import ShapeError


def div_scalar(t, c):
    t = lift(t)
    if c == 0.0:
        raise ValueError("division by zero")
    return Tensor._result(t.data / c, (t,), lambda g: (g / c,))


def mean_all(t):
    t = lift(t)
    return div_scalar(sum_all(t), float(t.data.size))


def matmul_t(a, b):
    """Product of an (r, k) matrix and the transpose of an (m, k) matrix:
    (r, m). Any other pair of shapes raises a ShapeError naming both."""
    a, b = lift(a), lift(b)
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ShapeError(f"cannot matmul_t shapes {A.shape} and {B.shape}")
    return Tensor._result(A @ B.T, (a, b), lambda g: (g @ B, g.T @ A))


def relu(t):
    t = lift(t)
    out = np.maximum(t.data, 0.0)
    return Tensor._result(out, (t,), lambda g: (g * (t.data > 0.0),))


def layer_norm(x, gain, bias, eps=LAYER_NORM_EPS):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = lift(x), lift(gain), lift(bias)
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = gain.data * xhat + bias.data

    def vjp(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        flat_g = g.reshape(-1, d)
        flat_xhat = xhat.reshape(-1, d)
        return dx, (flat_g * flat_xhat).sum(axis=0), flat_g.sum(axis=0)

    return Tensor._result(out, (x, gain, bias), vjp)


def composed_block_tail(x, attn, block):
    """Residual add, layer norm, feed-forward, residual add, layer norm:
    nine recorded ops."""
    x = layer_norm(add(x, attn), block.norm1_gain, block.norm1_bias)
    hidden = relu(add(matmul_t(x, block.ffn_w1), block.ffn_b1))
    ffn = add(matmul_t(hidden, block.ffn_w2), block.ffn_b2)
    return layer_norm(add(x, ffn), block.norm2_gain, block.norm2_bias)


def composed_head_loss(head, x, targets):
    """Mean squared error of x w^T + b against targets: six recorded ops."""
    diff = sub(add(matmul_t(x, head.w), head.b), Tensor(targets))
    return mean_all(mul(diff, diff))


def recorded_ops(tensor):
    """The recorded chain from `tensor` back to the first op of its block,
    newest first."""
    out = []
    while tensor is not None:
        out.append(tensor)
        tensor = tensor._prev
    return out
