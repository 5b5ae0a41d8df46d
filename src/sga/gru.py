"""The GRU cell of the relation-path encoder, composed from autodiff ops.

The relation encoder stores both directions' weights stacked and runs the
same arithmetic fused into one op (`relation.encode_paths`); this composed
cell, over one direction's slices of those weights, is its independent
oracle, stepped one path at a time by `verify.lone_path_encoding`.

Gate convention: update gate z and reset gate r are sigmoid units, the
candidate state applies r to the recurrent term, and the new state blends

    h_new = (1 - z) * h_prev + z * tanh(W_h x + U_h (r * h_prev) + b_h)

so all-zero weights leave a zero state at zero (the fixed point the
relation encoder's reduction tests rely on).
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import (
    Parameter, ParameterGroup, Tensor, add, lift, matmul_rows, mul, sigmoid, sub, tanh,
)
from .errors import ShapeError


@dataclass
class GruCellParams(ParameterGroup):
    """Gate weights for one GRU cell (input x, recurrent u, bias b): one
    direction's slices of the relation encoder's stacked weights
    (`RelationEncoderParams.gru_fwd` and `gru_bwd`), copied on each read."""

    w_z: Parameter  # (hidden, input)
    u_z: Parameter  # (hidden, hidden)
    b_z: Parameter  # (hidden,)
    w_r: Parameter
    u_r: Parameter
    b_r: Parameter
    w_h: Parameter
    u_h: Parameter
    b_h: Parameter


def gru_cell_forward(params: GruCellParams, h_prev, x) -> Tensor:
    """One GRU step for a batch of rows: (B, hidden) state, (B, input) input.

    Every product is a `matmul_rows`, so a row's new state has the same bits
    whatever batch it is stepped in. Differentiable through all nine weights.
    """
    h_prev, x = lift(h_prev), lift(x)
    hidden, inputs = params.w_z.shape
    rows = x.shape[0] if x.data.ndim == 2 else -1
    if x.shape != (rows, inputs) or h_prev.shape != (rows, hidden):
        raise ShapeError(f"GRU input {x.shape} and state {h_prev.shape} do not fit "
                         f"(B, {inputs}) and (B, {hidden})")

    def gate(w, u, h, b):
        return add(add(matmul_rows(x, w), matmul_rows(h, u)), b)

    z = sigmoid(gate(params.w_z, params.u_z, h_prev, params.b_z))
    r = sigmoid(gate(params.w_r, params.u_r, h_prev, params.b_r))
    candidate = tanh(gate(params.w_h, params.u_h, mul(r, h_prev), params.b_h))
    return add(mul(sub(1.0, z), h_prev), mul(z, candidate))
