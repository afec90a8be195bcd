"""Knowledge-distillation fine-tuning of pruned models.

An extension beyond the paper: instead of fine-tuning the pruned model
against hard labels only, distil from the *original* (pre-pruning) model
— the standard Hinton-style recipe.  Since the teacher is exactly the
network the student was carved out of, its soft targets carry the "dark
knowledge" the surviving filters were trained under, which typically
speeds up recovery at aggressive speedups.

Loss: ``(1 - alpha) * CE(student, labels)
       + alpha * T^2 * CE(softmax_T(teacher), softmax_T(student))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.datasets import DataLoader, Dataset
from ..nn import functional as F
from ..nn.modules import Module
from ..nn.optim import SGD
from ..nn.tensor import Tensor, no_grad
from ..training import History, clip_grad_norm, evaluate_dataset

__all__ = ["DistillConfig", "distillation_loss", "distill_finetune"]


@dataclass(frozen=True)
class DistillConfig:
    """Hyper-parameters of distillation fine-tuning."""

    epochs: int = 5
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    max_grad_norm: float = 0.0
    temperature: float = 3.0
    alpha: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def distillation_loss(student_logits: Tensor, teacher_logits: np.ndarray,
                      labels: np.ndarray, temperature: float = 3.0,
                      alpha: float = 0.7) -> Tensor:
    """Hard-label CE blended with soft-target CE at temperature T.

    ``teacher_logits`` are plain arrays (the teacher never trains).
    The soft term carries the conventional ``T^2`` gradient-scale
    correction.
    """
    hard = F.cross_entropy(student_logits, labels)
    if alpha == 0.0:
        return hard
    teacher = np.asarray(teacher_logits) / temperature
    teacher = teacher - teacher.max(axis=1, keepdims=True)
    soft_targets = np.exp(teacher)
    soft_targets /= soft_targets.sum(axis=1, keepdims=True)
    student_log_probs = F.log_softmax(student_logits / temperature, axis=1)
    soft = -(Tensor(soft_targets) * student_log_probs).sum(axis=1).mean()
    return (1.0 - alpha) * hard + alpha * (temperature ** 2) * soft


def distill_finetune(student: Module, teacher: Module, train_set: Dataset,
                     test_set: Dataset | None = None,
                     config: DistillConfig = DistillConfig()) -> History:
    """Fine-tune ``student`` against ``teacher`` soft targets in place."""
    rng = np.random.default_rng(config.seed)
    loader = DataLoader(train_set, batch_size=config.batch_size, shuffle=True,
                        rng=rng)
    optimizer = SGD(student.parameters(), lr=config.lr,
                    momentum=config.momentum,
                    weight_decay=config.weight_decay)
    teacher_training = teacher.training
    teacher.eval()
    history = History()
    try:
        for _ in range(config.epochs):
            student.train()
            losses, accuracies = [], []
            for images, labels in loader:
                batch = Tensor(images)
                with no_grad():
                    teacher_logits = teacher(batch).data
                optimizer.zero_grad()
                logits = student(batch)
                loss = distillation_loss(logits, teacher_logits, labels,
                                         temperature=config.temperature,
                                         alpha=config.alpha)
                loss.backward()
                if config.max_grad_norm > 0:
                    clip_grad_norm(optimizer.params, config.max_grad_norm)
                optimizer.step()
                losses.append(loss.item())
                accuracies.append(
                    float((logits.data.argmax(axis=1) == labels).mean()))
            history.train_loss.append(float(np.mean(losses)))
            history.train_accuracy.append(float(np.mean(accuracies)))
            if test_set is not None:
                history.test_accuracy.append(
                    evaluate_dataset(student, test_set))
    finally:
        teacher.train(teacher_training)
    return history
