"""GRU cell on (1, d) rows: frozen examples, the state bound, and gradient
agreement. Each cell is the forward cell of a relation encoder, a copy of
its slices of the stacked weights."""

import math

import numpy as np
import pytest

from sga.autodiff import Tensor, mul, sum_all
from sga.errors import ShapeError
from sga.gradcheck import check_gradient
from sga.gru import gru_cell_forward
from sga.relation import RelationEncoderParams


def make_cell(input_size, hidden_size, rng):
    return RelationEncoderParams.create(1, input_size, hidden_size, rng).gru_fwd


def zero_cell(input_size, hidden_size):
    owner = RelationEncoderParams.create(1, input_size, hidden_size, np.random.default_rng(0))
    for p in owner.parameters():
        p.assign(np.zeros_like(p.data))
    return owner.gru_fwd


def test_all_zero_params_halve_the_state():
    # sigmoid(0) = 0.5 and tanh(0) = 0, so the update keeps half of h_prev.
    params = zero_cell(input_size=3, hidden_size=4)
    h = np.array([[0.5, -1.0, 2.0, 0.0]])
    out = gru_cell_forward(params, Tensor(h), Tensor(np.ones((1, 3))))
    assert np.array_equal(out.data, 0.5 * h)


def test_scalar_cell_matches_hand_computation():
    """hidden_size = input_size = 1 with hand-picked weights, verified
    against an independent scalar evaluation of the gate equations."""
    params = zero_cell(input_size=1, hidden_size=1)
    weights = dict(
        w_z=0.3, u_z=-0.2, b_z=0.1,
        w_r=0.5, u_r=0.4, b_r=-0.3,
        w_h=0.7, u_h=-0.6, b_h=0.2,
    )
    for name, value in weights.items():
        getattr(params, name).assign(np.full_like(getattr(params, name).data, value))
    h_prev, x = 0.5, -1.0

    def sigma(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = sigma(weights["w_z"] * x + weights["u_z"] * h_prev + weights["b_z"])
    r = sigma(weights["w_r"] * x + weights["u_r"] * h_prev + weights["b_r"])
    cand = math.tanh(weights["w_h"] * x + weights["u_h"] * (r * h_prev) + weights["b_h"])
    expected = (1.0 - z) * h_prev + z * cand

    out = gru_cell_forward(params, Tensor([[h_prev]]), Tensor([[x]]))
    assert out.data[0, 0] == pytest.approx(expected, abs=1e-14)


def test_mismatched_input_raises_shape_error():
    params = zero_cell(input_size=3, hidden_size=2)
    with pytest.raises(ShapeError):
        gru_cell_forward(params, Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 4))))
    with pytest.raises(ShapeError):
        gru_cell_forward(params, Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
    with pytest.raises(ShapeError):
        gru_cell_forward(params, Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 3))))


@pytest.mark.parametrize("seed", range(25))
def test_state_bound(seed):
    """Each |h_new[k]| is at most max(|h_prev[k]|, 1): the update is a convex
    blend of the previous state and a tanh candidate."""
    rng = np.random.default_rng(seed)
    params = make_cell(4, 5, rng)
    for p in params.parameters():
        p.assign(rng.normal(scale=2.0, size=p.data.shape))
    h_prev = rng.normal(scale=3.0, size=(1, 5))
    x = rng.normal(scale=3.0, size=(1, 4))
    out = gru_cell_forward(params, Tensor(h_prev), Tensor(x)).data
    bound = np.maximum(np.abs(h_prev), 1.0)
    assert np.all(np.abs(out) <= bound)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    params = make_cell(3, 4, rng)
    h0 = Tensor(rng.standard_normal((1, 4)))
    x0 = Tensor(rng.standard_normal((1, 3)))
    x1 = Tensor(rng.standard_normal((1, 3)))
    probe = Tensor(rng.standard_normal((1, 4)))

    def loss():
        h = gru_cell_forward(params, h0, x0)
        h = gru_cell_forward(params, h, x1)  # second step exercises u_* fully
        return sum_all(mul(h, probe))

    report = check_gradient(loss, params.parameters(), eps=1e-5)
    assert report.max_rel_error <= 1e-5
