"""AutoPruner (Luo & Wu, 2018): end-to-end trainable channel gates.

Instead of computing a fixed statistic, AutoPruner attaches a sigmoid
gate to the unit's output and trains it against the task loss plus a
sparsity term that pulls the mean gate to the survivor budget; the
learned gate values rank the maps.

Gates are injected by temporarily instrumenting the unit's batch norm
forward, which puts the gate tensor in the autograd graph without
modifying any model topology, and only the gate trains, so ``select``
has no permanent side effects.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ...nn import functional as F
from ...nn.modules import Module, Parameter
from ...nn.optim import Adam
from ...nn.tensor import Tensor
from ..units import ConvUnit
from .common import Pruner, PruningContext, mask_from_scores, register_pruner

__all__ = ["AutoPrunerPruner", "inject_gate"]


@contextlib.contextmanager
def inject_gate(unit: ConvUnit, gate: Parameter):
    """Multiply the unit's output by ``sigmoid(gate)`` per channel.

    The multiplication happens inside the instrumented forward, so
    gradients flow into ``gate`` through the normal autograd machinery.
    """
    target = unit.bn if unit.bn is not None else unit.conv
    original = type(target).forward

    def gated(x, _m=target):
        out = original(_m, x)
        return out * gate.sigmoid().reshape(1, -1, 1, 1)

    object.__setattr__(target, "forward", gated)
    try:
        yield
    finally:
        object.__delattr__(target, "forward")


@register_pruner("autopruner")
class AutoPrunerPruner(Pruner):
    """End-to-end trainable sigmoid channel gates.

    Parameters
    ----------
    steps:
        Gate optimisation steps on the calibration batch.
    lr:
        Adam learning rate for the gate parameters.
    sparsity_weight:
        Strength of the pull towards the survivor budget.
    """

    def __init__(self, steps: int = 30, lr: float = 0.1,
                 sparsity_weight: float = 10.0, batch_size: int = 32):
        self.steps = steps
        self.lr = lr
        self.sparsity_weight = sparsity_weight
        self.batch_size = batch_size

    def select(self, model: Module, unit: ConvUnit, keep_count: int,
               context: PruningContext) -> np.ndarray:
        channels = unit.num_maps
        target_ratio = keep_count / channels
        gate = Parameter(np.zeros(channels, dtype=np.float64))
        optimizer = Adam([gate], lr=self.lr)
        images, labels = context.images, context.labels

        was_training = model.training
        model.eval()  # Freeze batch statistics; only the gate trains.
        try:
            with inject_gate(unit, gate):
                for step in range(self.steps):
                    start = (step * self.batch_size) % max(len(images), 1)
                    batch = images[start:start + self.batch_size]
                    batch_labels = labels[start:start + self.batch_size]
                    if len(batch) == 0:
                        break
                    optimizer.zero_grad()
                    logits = model(Tensor(batch))
                    task_loss = F.cross_entropy(logits, batch_labels)
                    mean_gate = gate.sigmoid().mean()
                    sparsity = (mean_gate - target_ratio) ** 2
                    loss = task_loss + self.sparsity_weight * sparsity
                    loss.backward()
                    optimizer.step()
        finally:
            model.train(was_training)
        return mask_from_scores(gate.data, keep_count)
