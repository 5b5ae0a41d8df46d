"""Dense float64 tensors with reverse-mode gradients.

All computation in this package runs in 64-bit floats. A :class:`Tensor`
wraps a row-major numpy array. Inside ``with recording():`` (a context
variable, so per thread and task) it also remembers the operation that
produced it, and :func:`backward` walks that record once, in reverse
topological order, accumulating gradients into the :class:`Parameter`
leaves it reaches. Outside, ops keep their values only: inference holds no
tape. The op set is deliberately small: exactly the pieces the relation
encoder and the graph encoder are built from -- add, sub, mul, div_scalar,
matmul_t, matmul_rows, tanh, sigmoid, relu, sum_all, mean_all, concat_last,
take and layer_norm. There is no transpose or reshape op: a weight is
stored as (out, in) and the products read it so. The two largest pieces are
fused ops built on `Tensor._result` with hand-written backward passes, next
to the code they belong to: the relation stage, both GRU directions at once
(`relation.encode_paths`), and each attention sublayer
(`encoder._multi_head_attention`). They compute with the array kernels
below: `row_products` and `logistic` for the GRU, `softmax` for attention.

Two ops compute ``a @ w^T``. `matmul_t` is one gemm over the whole batch,
for the feed-forward layers and the regression head. `matmul_rows` takes
one product per row (`row_products`), so a row gets the same bits whatever
batch it sits in; the composed GRU cell uses it, which is what lets
deduplicated relation encodings equal lone-path encodings bit for bit.

Tensors are immutable after construction and can be shared freely across
threads for reading. Gradient accumulation is single-writer: never run two
backward passes over the same parameter set concurrently.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NumericError, ShapeError, StateError

Array = np.ndarray

_RECORDING: ContextVar[bool] = ContextVar("sga_autodiff_recording", default=False)


@contextmanager
def recording() -> Iterator[None]:
    """Record the ops run inside the block for `backward`; blocks nest."""
    token = _RECORDING.set(True)
    try:
        yield
    finally:
        _RECORDING.reset(token)


def _as_array(values) -> Array:
    """A C-contiguous float64 copy of at least one dimension, never a view
    of the caller's array."""
    return np.array(values, dtype=np.float64, order="C", ndmin=1)


class Tensor:
    """Row-major float64 value, recorded for backward inside `recording()`."""

    __slots__ = ("data", "_parents", "_vjp", "_done")

    def __init__(self, values):
        data = _as_array(values)
        if not np.all(np.isfinite(data)):
            raise NumericError("tensor values must be finite (no NaN/Inf)")
        self.data = data
        self._parents: tuple = ()
        self._vjp = None
        self._done = False

    @classmethod
    def _result(cls, data: Array, parents: tuple, vjp) -> "Tensor":
        # Internal constructor for op outputs; skips finiteness validation.
        out = object.__new__(Tensor)
        out.data = data
        out._parents, out._vjp = (parents, vjp) if _RECORDING.get() else ((), None)
        out._done = False
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """Named trainable tensor with a persistent gradient accumulator."""

    __slots__ = ("name", "grad")

    def __init__(self, name: str, values):
        super().__init__(values)
        self.name = str(name)
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"

    def zero_grad(self):
        self.grad[...] = 0.0

    def assign(self, values):
        """Overwrite the value in place (optimizer steps, perturbations)."""
        arr = _as_array(values)
        if arr.shape != self.data.shape:
            raise ShapeError(
                f"cannot assign shape {arr.shape} to parameter "
                f"{self.name!r} of shape {self.data.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite assignment to parameter {self.name!r}")
        np.copyto(self.data, arr)


def lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def zero_gradients(params: Iterable[Parameter]) -> None:
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# Array kernels shared by the ops below and by fused ops built on
# Tensor._result (the relation encoder's GRU levels, the attention sublayer).
# ---------------------------------------------------------------------------


def row_products(A: Array, W: Array) -> Array:
    """(..., B, k) rows times the transpose of (..., m, k): (..., B, m), one
    (1, k) @ (k, m) product per row, so a row gets the same bits whatever
    batch it sits in. Leading axes stack independent matrices, broadcast as
    in `@`. Plain gemm blocks rows together, and a row's rounding then
    depends on the batch size."""
    return (A[..., None, :] @ W.swapaxes(-1, -2)[..., None, :, :])[..., 0, :]


def logistic(x: Array) -> Array:
    """Sigmoid without overflow: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(x: Array, scale: float = 1.0) -> Array:
    """Softmax of x / scale over the last axis, max-shifted so exp never
    overflows; rows of a matrix are normalized independently. Rejects empty
    input and a scale that is not positive."""
    if not scale > 0.0:
        raise ValueError("softmax scale must be positive")
    if x.size == 0 or x.shape[-1] == 0:
        raise ValueError("softmax of empty input")
    z = x / scale
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


# ---------------------------------------------------------------------------
# Primitive operations. Each returns a Tensor whose _vjp maps the incoming
# gradient to one gradient per parent, aligned with _parents.
# ---------------------------------------------------------------------------


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum a gradient back down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = lift(a), lift(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor._result(data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = lift(a), lift(b)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return Tensor._result(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = lift(a), lift(b)
    data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return Tensor._result(data, (a, b), vjp)


def div_scalar(t: Tensor, c: float) -> Tensor:
    t = lift(t)
    if c == 0.0:
        raise ValueError("division by zero")
    return Tensor._result(t.data / c, (t,), lambda g: (g / c,))


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """Product of an (r, k) matrix and the transpose of an (m, k) matrix:
    (r, m). Any other pair of shapes raises a ShapeError naming both."""
    a, b = lift(a), lift(b)
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ShapeError(f"cannot matmul_t shapes {A.shape} and {B.shape}")
    return Tensor._result(A @ B.T, (a, b), lambda g: (g @ B, g.T @ A))


def matmul_rows(a: Tensor, w: Tensor) -> Tensor:
    """Rows of a (B, k) matrix times the transpose of a (m, k) matrix: (B, m),
    batch-invariant (see `row_products`)."""
    a, w = lift(a), lift(w)
    A, W = a.data, w.data
    if A.ndim != 2 or W.ndim != 2 or A.shape[1] != W.shape[1]:
        raise ShapeError(f"cannot matmul_rows shapes {A.shape} and {W.shape}")
    return Tensor._result(row_products(A, W), (a, w), lambda g: (g @ W, g.T @ A))


def tanh(t: Tensor) -> Tensor:
    t = lift(t)
    out = np.tanh(t.data)
    return Tensor._result(out, (t,), lambda g: (g * (1.0 - out * out),))


def sigmoid(t: Tensor) -> Tensor:
    t = lift(t)
    out = logistic(t.data)
    return Tensor._result(out, (t,), lambda g: (g * out * (1.0 - out),))


def relu(t: Tensor) -> Tensor:
    t = lift(t)
    out = np.maximum(t.data, 0.0)
    return Tensor._result(out, (t,), lambda g: (g * (t.data > 0.0),))


def sum_all(t: Tensor) -> Tensor:
    t = lift(t)
    data = np.asarray(t.data.sum())
    return Tensor._result(data, (t,), lambda g: (np.broadcast_to(g, t.data.shape),))


def mean_all(t: Tensor) -> Tensor:
    t = lift(t)
    return div_scalar(sum_all(t), float(t.data.size))


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    parts = [lift(p) for p in parts]
    if not parts:
        raise ValueError("concat_last needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.data.shape[-1] for p in parts]

    def vjp(g):
        grads, start = [], 0
        for w in widths:
            grads.append(np.ascontiguousarray(g[..., start : start + w]))
            start += w
        return tuple(grads)

    return Tensor._result(data, tuple(parts), vjp)


def take(t: Tensor, index) -> Tensor:
    """Gather rows by integer index; the gradient scatter-adds."""
    t = lift(t)
    idx = np.asarray(index, dtype=np.int64)
    data = np.ascontiguousarray(t.data[idx])

    def vjp(g):
        full = np.zeros_like(t.data)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor._result(data, (t,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = lift(x), lift(gain), lift(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got "
            f"{gain.data.shape} and {bias.data.shape}"
        )
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
        dgain = (flat_g * flat_xhat).sum(axis=0)
        dbias = flat_g.sum(axis=0)
        return dx, dgain, dbias

    return Tensor._result(out, (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# Reverse pass
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate gradients of every Parameter that participated in `loss`.

    The graph recorded inside `recording()` while computing `loss` is
    consumed: a loss with no graph, or a second call on the same loss,
    raises a StateError; recompute the loss to run another pass. Gradients
    accumulate into Parameter.grad, so zero them (zero_gradients) between
    independent passes.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss._vjp is None and not isinstance(loss, Parameter):
        raise StateError("this loss has no recorded graph; compute it inside recording()")
    if loss._done:
        raise StateError(
            "backward was already called on this loss; rebuild the computation "
            "before differentiating again"
        )
    loss._done = True
    order = _topo_order(loss)
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Parameter):
            node.grad += g.reshape(node.grad.shape)
            continue
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    """uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    s = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-s, s, size=(rows, cols))
