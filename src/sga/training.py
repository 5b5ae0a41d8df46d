"""Toy training: Adam, deterministic pseudo-targets, and an overfitting loop.

The objective is synthetic on purpose: each character gets a fixed target
vector derived from a hash of its word and offset, and a linear head on top
of the encoder regresses onto it. This demonstrates that gradients flow end
to end through the relation encoder and the attention stack; it involves no
audio or external data.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .autodiff import Parameter, Tensor, backward, glorot_uniform, recording
from .errors import NumericError, StateError
from .pipeline import Model, Sentence

DEFAULT_TARGET_DIM = 4


@dataclass(eq=False)
class Adam:
    """Adam with bias correction; defaults match the transformer recipe.

    Construction copies every value and gradient into one flat buffer each
    and rebinds ``p.data`` and ``p.grad`` to views of that parameter's span,
    so a step is a few whole-buffer operations with the same bits as a
    per-parameter loop. A step is atomic: if any new value or moment is
    non-finite it raises NumericError and changes nothing. Once another
    optimizer has taken over one of the parameters, step and zero_grad raise
    StateError.
    """

    params: list[Parameter]
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    step_count: int = 0
    _values: np.ndarray = field(init=False, repr=False)
    _grads: np.ndarray = field(init=False, repr=False)
    _m: np.ndarray = field(init=False, repr=False)
    _v: np.ndarray = field(init=False, repr=False)
    _ends: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.params = list(self.params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter is listed more than once")
        self._ends = np.cumsum([p.data.size for p in self.params], dtype=np.int64)
        total = int(self._ends[-1]) if self.params else 0
        self._values = np.empty(total)
        self._grads = np.empty(total)
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        start = 0
        for p, end in zip(self.params, self._ends):
            self._values[start:end] = p.data.reshape(-1)
            self._grads[start:end] = p.grad.reshape(-1)
            p.data = self._values[start:end].reshape(p.data.shape)
            p.grad = self._grads[start:end].reshape(p.grad.shape)
            start = end

    def _check_attached(self):
        for p in self.params:
            if p.data.base is not self._values or p.grad.base is not self._grads:
                raise StateError(
                    f"parameter {p.name!r} no longer reads this optimizer's "
                    "storage (another optimizer took it over, or p.data was rebound)"
                )

    def step(self, lr: Optional[float] = None):
        self._check_attached()
        rate = self.lr if lr is None else lr
        count = self.step_count + 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1 ** count
        correct2 = 1.0 - b2 ** count
        g = self._grads
        m = self._m * b1
        m += (1.0 - b1) * g
        v = self._v * b2
        v += (1.0 - b2) * g * g
        update = (m / correct1) / (np.sqrt(v / correct2) + self.eps)
        values = self._values - rate * update
        # v can overflow to inf while the update m / inf = 0 stays finite.
        finite = np.isfinite(values) & np.isfinite(m) & np.isfinite(v)
        if not finite.all():
            first = int(np.argmin(finite))
            bad = self.params[int(np.searchsorted(self._ends, first, side="right"))]
            raise NumericError(f"non-finite Adam step for parameter {bad.name!r}")
        self._m, self._v = m, v
        np.copyto(self._values, values)
        self.step_count = count

    def zero_grad(self):
        self._check_attached()
        self._grads.fill(0.0)


def warmup_lr(step: int, d_model: int, warmup_steps: int) -> float:
    """Inverse-sqrt schedule with linear warmup."""
    step = max(step, 1)
    return (d_model ** -0.5) * min(step ** -0.5, step * warmup_steps ** -1.5)


def pseudo_targets(sentence: Sentence, dim: int = DEFAULT_TARGET_DIM) -> np.ndarray:
    """Per-character target vectors in [-1, 1], derived from a stable hash
    of (word form, offset within word); identical across runs and platforms."""
    targets = np.zeros((sentence.n_chars, dim))
    offsets: dict[int, int] = {}
    for row, word_idx in enumerate(sentence.char_map.word_of_char):
        offset = offsets.get(word_idx, 0)
        offsets[word_idx] = offset + 1
        form = sentence.tree.form(word_idx)
        digest = hashlib.sha256(f"{form}|{offset}".encode("utf-8")).digest()
        for k in range(dim):
            chunk = digest[(4 * k) % 28 : (4 * k) % 28 + 4]
            value = int.from_bytes(chunk, "little") / 0xFFFFFFFF
            targets[row, k] = 2.0 * value - 1.0
    return targets


@dataclass
class RegressionHead:
    w: Parameter
    b: Parameter

    @classmethod
    def create(cls, d_model: int, target_dim: int, rng: np.random.Generator):
        return cls(
            w=Parameter("head.w", glorot_uniform(rng, target_dim, d_model)),
            b=Parameter("head.b", np.zeros(target_dim)),
        )

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    def loss(self, x: Tensor, targets: np.ndarray) -> Tensor:
        """Mean squared error of the prediction x w^T + b against targets,
        as one autodiff op on x, w and b."""
        X, w = x.data, self.w.data
        diff = X @ w.T + self.b.data - targets
        size = diff.size

        def vjp(g):
            d_pred = diff * (2.0 * g / size)
            return d_pred @ w, d_pred.T @ X, d_pred.sum(axis=0)

        return Tensor._result(np.asarray((diff * diff).sum() / size), (x, self.w, self.b), vjp)


def sentence_loss(model: Model, head: RegressionHead, sentence: Sentence,
                  targets: np.ndarray) -> Tensor:
    """The head's loss on one sentence, recorded for backward."""
    with recording():
        return head.loss(model.forward(sentence), targets)


def toy_train(
    model: Model,
    sentences: Sequence[Sentence],
    epochs: int,
    lr: float = 1e-2,
    warmup_steps: Optional[int] = None,
) -> list[float]:
    """Overfit the encoder plus a linear head onto the pseudo-targets.

    Adam steps by `lr`, or by `warmup_lr` when `warmup_steps` is given,
    which leaves `lr` unused (the CLI's --lr and --warmup exclude each other).

    Returns one loss per row of the loss curve: index 0 is the initial
    full-corpus loss before any update, index e > 0 the mean per-step
    training loss during epoch e. Deterministic for a fixed model seed.
    """
    if not sentences:
        raise ValueError("toy training needs a non-empty corpus")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    if warmup_steps is not None and warmup_steps < 1:
        raise ValueError(f"warmup_steps must be at least 1, got {warmup_steps}")
    head = RegressionHead.create(
        model.config.d_model, DEFAULT_TARGET_DIM, np.random.default_rng(model.config.seed + 1)
    )
    params = model.parameters() + head.parameters()
    optimizer = Adam(params, lr=lr)
    all_targets = [pseudo_targets(s) for s in sentences]

    initial = sum(  # evaluation only: nothing recorded
        head.loss(model.forward(s), t).item() for s, t in zip(sentences, all_targets)
    ) / len(sentences)
    curve = [initial]

    step = 0
    for _ in range(epochs):
        epoch_total = 0.0
        for sentence, targets in zip(sentences, all_targets):
            optimizer.zero_grad()
            loss = sentence_loss(model, head, sentence, targets)
            epoch_total += loss.item()
            backward(loss)
            step += 1
            rate = (
                warmup_lr(step, model.config.d_model, warmup_steps)
                if warmup_steps is not None
                else None
            )
            optimizer.step(lr=rate)
        curve.append(epoch_total / len(sentences))
    return curve


def write_loss_curve(path, curve: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(curve):
            fh.write(f"{epoch},{loss!r}\n")
