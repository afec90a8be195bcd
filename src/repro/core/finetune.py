"""Fine-tuning between pruning steps (paper Section V.A).

The paper fine-tunes 40 epochs with SGD at a fixed learning rate after
pruning each layer; :func:`finetune` is the single implementation used
by HeadStart and every baseline so the comparison is apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.datasets import Dataset
from ..nn.modules import Module
from ..obs import get_recorder
from ..training import History, TrainConfig, fit

__all__ = ["FinetuneConfig", "finetune"]


@dataclass(frozen=True)
class FinetuneConfig:
    """Fine-tuning hyper-parameters (paper: 40 epochs SGD, fixed lr)."""

    epochs: int = 5
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    max_grad_norm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.as_train_config()      # TrainConfig checks the shared fields

    def as_train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           lr=self.lr, momentum=self.momentum,
                           weight_decay=self.weight_decay,
                           max_grad_norm=self.max_grad_norm, seed=self.seed)


def finetune(model: Module, train_set: Dataset, test_set: Dataset | None = None,
             config: FinetuneConfig | None = None) -> History:
    """Fine-tune a pruned model in place; returns the training history."""
    if config is None:
        config = FinetuneConfig()
    with get_recorder().span("training.finetune", epochs=config.epochs):
        return fit(model, train_set, test_set, config.as_train_config())
