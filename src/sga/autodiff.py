"""Dense float64 tensors with reverse-mode gradients.

All computation in this package runs in 64-bit floats. A :class:`Tensor`
wraps a row-major numpy array. Inside ``with recording():`` (a context
variable, so per thread and task) each op result also remembers its VJP,
its parents and the op recorded just before it in the same outermost block,
so the block's record is a chain from newest to oldest (a Wengert list).
:func:`backward` runs that chain once in reverse order of creation, with no
graph search, and consumes it: the walk takes each op's VJP and parents off
the op, so the arrays they saved are freed once its gradient is taken. A
parent that is a :class:`Parameter` takes its gradient straight into
``grad``; other parents hold theirs on the tensor until their turn.
Outside, ops keep their values only: inference holds no tape. The generic
op set is deliberately small: add, sub, mul, matmul_rows, tanh, sigmoid,
sum_all, concat_last and take, for the embedding lookup, the composed GRU
cell and the verification oracles. There is no transpose or reshape op: a
weight is stored as (out, in) and the products read it so. The model's
large pieces are fused ops built on `Tensor._result` with hand-written
backward passes, next to the code they belong to: the relation stage, both
GRU directions at once (`relation.encode_paths`), each attention sublayer
(`encoder._multi_head_attention`), each block's feed-forward tail
(`encoder._block_tail`) and the regression head with its loss
(`training.RegressionHead.loss`). They compute with the array kernels
below: `row_products` and `logistic` for the GRU, `softmax` for attention.

`matmul_rows` computes ``a @ w^T`` with one product per row
(`row_products`), so a row gets the same bits whatever batch it sits in;
the composed GRU cell uses it, which is what lets deduplicated relation
encodings equal lone-path encodings bit for bit.

Tensors are immutable after construction and can be shared freely across
threads for reading. Gradient accumulation is single-writer: never run two
backward passes over the same parameter set concurrently.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import NumericError, ShapeError, StateError

Array = np.ndarray

# [tape id, newest recorded tensor] of the open outermost block, else None.
# Tensors keep only the id, a bare object, so no tensor refers back to this
# list and a dropped record is freed at once, without the cyclic collector.
_TAPE: ContextVar[Optional[list]] = ContextVar("sga_autodiff_tape", default=None)


@contextmanager
def recording() -> Iterator[None]:
    """Record the ops run inside the block for `backward`. A nested block
    adds to the record of the outermost one."""
    if _TAPE.get() is not None:
        yield
        return
    token = _TAPE.set([object(), None])
    try:
        yield
    finally:
        _TAPE.reset(token)


def _as_array(values) -> Array:
    """A C-contiguous float64 copy of at least one dimension, never a view
    of the caller's array."""
    return np.array(values, dtype=np.float64, order="C", ndmin=1)


class Tensor:
    """Row-major float64 value, recorded for backward inside `recording()`."""

    # _prev: the tensor recorded just before this one on tape _tape; _grad:
    # the gradient pending for this tensor during `backward`.
    __slots__ = ("data", "_parents", "_vjp", "_prev", "_tape", "_grad")

    def __init__(self, values):
        data = _as_array(values)
        if not np.all(np.isfinite(data)):
            raise NumericError("tensor values must be finite (no NaN/Inf)")
        self.data = data
        self._parents: tuple = ()
        self._vjp = self._prev = self._tape = self._grad = None

    @classmethod
    def _result(cls, data: Array, parents: tuple, vjp) -> "Tensor":
        # Internal constructor for op outputs; skips finiteness validation.
        out = object.__new__(Tensor)
        out.data = data
        out._grad = None
        tape = _TAPE.get()
        if tape is None:
            out._parents, out._vjp, out._prev, out._tape = (), None, None, None
        else:
            out._parents, out._vjp, out._tape, out._prev = parents, vjp, tape[0], tape[1]
            tape[1] = out
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


def sum_all(t: Tensor) -> Tensor:
    t = lift(t)
    data = np.asarray(t.data.sum())
    return Tensor._result(data, (t,), lambda g: (np.broadcast_to(g, t.data.shape),))


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


# ---------------------------------------------------------------------------
# Reverse pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate gradients of every Parameter that participated in `loss`.

    The record of the `recording()` block that computed `loss` is run back
    from `loss` until no gradient is pending, and consumed as it runs: each
    op loses its VJP and parents before its VJP is called. A loss with no
    record (computed outside `recording()`, or already differentiated), or a
    record that reaches a tensor of another block or one an earlier pass
    consumed, raises a StateError; recompute the loss to run another pass.
    Gradients accumulate into Parameter.grad, so zero them (zero_gradients)
    between independent passes.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss._vjp is None:
        raise StateError(
            "this loss has no record: compute it inside recording(), and "
            "differentiate it only once"
        )
    tape, node, pending = loss._tape, loss, 1
    loss._grad = np.ones_like(loss.data)
    try:
        while pending:
            g = node._grad
            if g is not None:
                node._grad = None
                pending -= 1
                parents, vjp = node._parents, node._vjp
                node._parents, node._vjp = (), None
                for parent, pg in zip(parents, vjp(g)):
                    if isinstance(parent, Parameter):
                        parent.grad += pg
                    elif parent._tape is tape and parent._vjp is not None:
                        if parent._grad is None:
                            parent._grad = pg
                            pending += 1
                        else:
                            parent._grad = parent._grad + pg
                    elif parent._tape is not None:
                        raise StateError(
                            "the loss reads a tensor recorded in another recording() "
                            "block, or one an earlier backward consumed; compute it "
                            "inside the loss's block"
                        )
            node = node._prev
    except BaseException:
        while node is not None:  # leave no pending gradient behind
            node._grad, node = None, node._prev
        raise


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, *shape: int) -> Array:
    """uniform(-s, s) over `shape` with s = sqrt(6 / (fan_in + fan_out)), the
    fans of the last two axes: a stack of matrices is one draw, and every
    matrix in it has the fans it would have alone."""
    s = math.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-s, s, size=shape)
