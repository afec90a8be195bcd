"""Training and evaluation loops shared by experiments.

The paper fine-tunes pruned models with SGD (Section V.A) and measures
top-1 accuracy; these loops are the single implementation used by the
HeadStart pipeline, every baseline, and the from-scratch controls, so
comparisons differ only in *which filters survive*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data.datasets import DataLoader, Dataset
from .obs import get_recorder
from .nn import functional as F
from .nn.metrics import accuracy
from .nn.modules import Module
from .nn.optim import SGD, Optimizer
from .nn.tensor import Tensor, no_grad
from .runtime import faults
from .runtime.guards import require_finite

__all__ = ["EVAL_BATCH_SIZE", "TrainConfig", "History", "evaluate",
           "evaluate_dataset", "train_epoch", "fit", "clip_grad_norm"]

#: Images per forward in :func:`evaluate` and :func:`evaluate_dataset`.
#: The batch size is part of the arithmetic (it shapes every GEMM), so a
#: scorer that must match these loops bit for bit slices by it too.
EVAL_BATCH_SIZE = 64


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for :func:`fit` (paper defaults where stated).

    ``max_grad_norm`` clips the global gradient norm before each step;
    0 disables clipping.  Clipping matters most right after pruning
    surgery, when the loss spike can otherwise blow up SGD momentum.
    """

    epochs: int = 10
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    max_grad_norm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.  Parameters without gradients are skipped.
    """
    grads = [p.grad for p in params if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for grad in grads:
            grad *= scale
    return total


@dataclass
class History:
    """Per-epoch training record returned by :func:`fit`."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")

    @property
    def best_test_accuracy(self) -> float:
        return max(self.test_accuracy) if self.test_accuracy else float("nan")


def evaluate(model: Module, images: np.ndarray, labels: np.ndarray,
             batch_size: int = EVAL_BATCH_SIZE) -> float:
    """Top-1 accuracy of ``model`` on stacked arrays (eval mode, no grad).

    ``labels`` holds one class per image; the logits are (N, classes).
    """
    if np.ndim(labels) != 1:
        raise ValueError(
            f"expected one class label per image, got shape {np.shape(labels)}")
    was_training = model.training
    model.eval()
    correct = 0
    try:
        with no_grad():
            for start in range(0, len(images), batch_size):
                batch = Tensor(images[start:start + batch_size])
                logits = model(batch)
                predictions = logits.data.argmax(axis=1)
                correct += int((predictions == labels[start:start + batch_size]).sum())
    finally:
        model.train(was_training)
    return correct / max(len(labels), 1)


def evaluate_dataset(model: Module, dataset: Dataset,
                     batch_size: int = EVAL_BATCH_SIZE) -> float:
    """Top-1 accuracy over a dataset."""
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    try:
        with no_grad():
            for images, labels in loader:
                logits = model(Tensor(images))
                correct += int((logits.data.argmax(axis=1) == labels).sum())
                total += len(labels)
    finally:
        model.train(was_training)
    return correct / max(total, 1)


def train_epoch(model: Module, loader: DataLoader, optimizer: Optimizer,
                max_grad_norm: float = 0.0) -> tuple[float, float]:
    """One optimisation epoch; returns (mean loss, mean accuracy)."""
    model.train()
    losses: list[float] = []
    accuracies: list[float] = []
    for images, labels in loader:
        optimizer.zero_grad()
        logits = model(Tensor(images))
        loss = F.cross_entropy(logits, labels)
        loss_value = faults.corrupt("training.loss", loss.item())
        require_finite(loss_value, "training.loss")
        loss.backward()
        if max_grad_norm > 0:
            clip_grad_norm(optimizer.params, max_grad_norm)
        optimizer.step()
        losses.append(loss_value)
        accuracies.append(accuracy(logits, labels))
    return float(np.mean(losses)), float(np.mean(accuracies))


def fit(model: Module, train_set: Dataset, test_set: Dataset | None = None,
        config: TrainConfig | None = None) -> History:
    """Train ``model`` with SGD per ``config``; evaluates after each epoch."""
    if config is None:
        config = TrainConfig()
    rng = np.random.default_rng(config.seed)
    loader = DataLoader(train_set, batch_size=config.batch_size, shuffle=True,
                        rng=rng)
    optimizer = SGD(model.parameters(), lr=config.lr,
                    momentum=config.momentum,
                    weight_decay=config.weight_decay)
    history = History()
    rec = get_recorder()
    with rec.span("training.fit", epochs=config.epochs,
                  examples=len(train_set)):
        for epoch in range(config.epochs):
            started = time.perf_counter()
            with rec.span("training.epoch", epoch=epoch):
                loss, train_acc = train_epoch(
                    model, loader, optimizer,
                    max_grad_norm=config.max_grad_norm)
            elapsed = time.perf_counter() - started
            history.train_loss.append(loss)
            history.train_accuracy.append(train_acc)
            rec.series("train/loss", epoch, loss)
            rec.series("train/accuracy", epoch, train_acc)
            rec.series("train/throughput", epoch,
                       len(train_set) / max(elapsed, 1e-9), timing=True)
            rec.counter("train/examples_seen", len(train_set))
            if test_set is not None:
                test_acc = evaluate_dataset(model, test_set)
                history.test_accuracy.append(test_acc)
                rec.series("train/test_accuracy", epoch, test_acc)
    return history
