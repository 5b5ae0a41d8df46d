"""Central-finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .autodiff import Parameter, Tensor, backward, recording, zero_gradients
from .errors import NumericError

REL_ERROR_FLOOR = 1e-8


def relative_error(analytic: float, numeric: float) -> float:
    return float(
        abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_ERROR_FLOOR)
    )


@dataclass
class ParamCheck:
    name: str
    max_rel_error: float
    worst_index: tuple
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    eps: float
    entries: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def worst(self) -> ParamCheck:
        return max(self.entries, key=lambda e: e.max_rel_error)


def _scalar_loss(value: Tensor, context: str) -> float:
    loss = float(np.asarray(value.data).reshape(()))
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {context}")
    return loss


def check_gradient(
    f: Callable[[], Tensor],
    params: Iterable[Parameter],
    eps: float = 1e-5,
) -> GradCheckReport:
    """Compare backward() gradients of f against central differences.

    `f` must be a deterministic scalar function of the current parameter
    values. Its unperturbed call runs inside `recording()`; the calls with
    one coordinate nudged by +/-eps record no tape.
    The relative error per coordinate is |a - n| / max(|a|, |n|, 1e-8).
    """
    params = list(params)
    if eps <= 0:
        raise ValueError("eps must be positive")
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValueError("parameter names must be unique")

    zero_gradients(params)
    with recording():
        loss = f()
    _scalar_loss(loss, "at the unperturbed point")
    backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    report = GradCheckReport(eps=eps)
    for p in params:
        worst = ParamCheck(p.name, -1.0, (), 0.0, 0.0)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            coord = np.unravel_index(i, p.data.shape)
            flat[i] = original + eps
            plus = _scalar_loss(f(), f"perturbing {p.name}{list(coord)} by +eps")
            flat[i] = original - eps
            minus = _scalar_loss(f(), f"perturbing {p.name}{list(coord)} by -eps")
            flat[i] = original
            numeric = (plus - minus) / (2.0 * eps)
            a = analytic[p.name].reshape(-1)[i]
            err = relative_error(a, numeric)
            if err > worst.max_rel_error:
                worst = ParamCheck(p.name, err, coord, float(a), float(numeric))
        report.entries.append(worst)
    return report
