"""Mini-batch cross-entropy training with Adam and step-decay learning rate.

Training is deterministic: shuffling uses a generator seeded from the
config, parameters update in a fixed order, and identical inputs yield
bit-identical models and histories. ``gradient_check`` compares every
analytic parameter gradient against central finite differences of the
full loss and reports the worst relative error.

A training step holds one batch, its layer caches, logits and gradients.
The caches, logits and logit gradient are released once
``Model.backward`` has returned, before ``adam_step`` runs, and the
parameter gradients once Adam has applied them. Nothing of one step is
alive during the next step's forward, so ``train`` peaks at one step's
memory plus the Adam moments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, _integer, _real
from .model import Model

__all__ = [
    "TrainConfig", "AdamState", "TrainHistory",
    "softmax_cross_entropy", "lr_at", "adam_step", "train", "gradient_check",
]

# Adam's moment decay rates and denominator floor, at their usual values.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    base_lr: float = 1e-3
    decay_factor: float = 0.9
    decay_every: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "decay_every"):
            setattr(self, name, _integer(name, getattr(self, name)))
        if self.epochs < 0:
            raise ContractError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ContractError("batch_size must be at least 1")
        if self.decay_every < 1:
            raise ContractError("decay_every must be at least 1")
        for name in ("base_lr", "decay_factor"):
            if not 0 < _real(name, getattr(self, name)) < np.inf:
                raise ContractError(f"{name} must be finite and positive")


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Step-decay schedule: multiply by the decay factor every N epochs."""
    if epoch < 0:
        raise ContractError("epoch must be non-negative")
    return config.base_lr * config.decay_factor ** (epoch // config.decay_every)


def softmax_cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient w.r.t. the logits.

    Stabilized by per-row max subtraction, so arbitrarily large logits do
    not overflow. The gradient is ``(softmax - onehot) / batch``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ContractError(
            f"logits {logits.shape} do not match {labels.shape[0]} labels")
    if labels.ndim != 1 or not np.all(np.isin(labels, (0, 1))):
        raise ContractError("labels must be a vector over {0, 1}")
    labels = labels.astype(np.intp)
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = -float(np.mean(log_probs[np.arange(n), labels]))
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


class AdamState:
    """First/second moment accumulators mirroring a parameter list."""

    def __init__(self, params: list[np.ndarray]):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step = 0


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray], lr: float) -> None:
    """Standard bias-corrected Adam update, applied to ``params`` in place.

    Per element, in this order: ``m += (1 - b1) * (g - m)``,
    ``v += (1 - b2) * (g * g - v)``, then
    ``p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)``. Each
    step runs in place in two scratch buffers the size of the largest
    parameter, so no temporary of any parameter's size is allocated.
    """
    if len(params) != len(state.m) or len(grads) != len(state.m):
        raise ContractError("parameter/gradient lists do not match the state")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    state.step += 1
    t = state.step
    largest = max((p.size for p in params), default=0)
    scratch = np.empty(largest), np.empty(largest)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape or p.shape != m.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter {p.shape}")
        step, denom = (buf[:p.size].reshape(p.shape) for buf in scratch)
        np.subtract(g, m, out=step)
        step *= 1.0 - b1
        m += step
        np.multiply(g, g, out=step)
        step -= v
        step *= 1.0 - b2
        v += step
        np.divide(v, 1.0 - b2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, 1.0 - b1 ** t, out=step)
        step *= lr
        step /= denom
        p -= step


@dataclass
class TrainHistory:
    """Per-epoch loss and learning rate."""

    epochs: list[int] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "lr", "loss"])
            for epoch, lr, loss in zip(self.epochs, self.lrs, self.losses):
                writer.writerow([epoch, repr(lr), repr(loss)])


def train(model: Model, dataset, config: TrainConfig) -> tuple[Model, TrainHistory]:
    """Fit ``model`` on a patch set; returns the model and its history.

    ``dataset`` needs ``patches`` of shape ``(n, p, p, b)`` and integer
    ``labels``. The patches are read in their own dtype, with no copy of
    the set: ``Model.forward`` casts each batch to float64 as it forms its
    band rows, and float32 widens exactly, so a float32 set trains to the
    same bits as its float64 copy. The model is updated in place.
    """
    patches = np.asarray(dataset.patches)
    labels = np.asarray(dataset.labels)
    n = patches.shape[0]
    if n == 0:
        raise ContractError("training set is empty")
    params = model.parameters()
    state = AdamState(params)
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            logits, caches = model.forward(patches[idx])
            loss, grad_logits = softmax_cross_entropy(logits, labels[idx])
            grads = model.backward(caches, grad_logits)
            del logits, caches, grad_logits
            adam_step(state, params, grads, lr)
            del grads
            total += loss * idx.size
        history.epochs.append(epoch)
        history.lrs.append(lr)
        history.losses.append(total / n)
    return model, history


def gradient_check(model: Model, patches, labels, step: float = 1e-6) -> float:
    """Worst relative error of analytic vs finite-difference gradients.

    Perturbs every parameter element by ``+/- step`` and compares the
    centered difference of the loss with the analytic gradient. The
    denominator is floored at 1e-3 so finite-difference noise on
    near-zero gradients reads as a tiny error instead of blowing up.
    ``patches`` keep their dtype; ``Model.forward`` casts them to float64.
    """
    params = model.parameters()
    if not params:
        return 0.0
    patches = np.asarray(patches)
    labels = np.asarray(labels)
    logits, caches = model.forward(patches)
    _, grad_logits = softmax_cross_entropy(logits, labels)
    grads = model.backward(caches, grad_logits)

    def loss_at() -> float:
        lg, _ = model.forward(patches, keep=False)
        return softmax_cross_entropy(lg, labels)[0]

    worst = 0.0
    for p, g in zip(params, grads):
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up = loss_at()
            flat_p[i] = orig - step
            down = loss_at()
            flat_p[i] = orig
            numeric = (up - down) / (2.0 * step)
            diff = abs(flat_g[i] - numeric)
            worst = max(worst, diff / max(abs(flat_g[i]), abs(numeric), 1e-3))
    return worst
