"""Layer sensitivity analysis (the paper's Figure 3 discussion).

Section V.A observes that "lower layers are more sensitive to the
speedup scaling while the higher layers [...] are the opposite", which
justifies pruning higher layers more aggressively.  This module
quantifies that: for each prunable layer, sweep the speedup, mask the
layer with a chosen pruner, and record the model's accuracy — producing
the per-layer sensitivity curves behind that observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.modules import Module
from ..pruning.baselines.common import Pruner, PruningContext
from ..pruning.engine import budget_keep_count
from ..pruning.surgery import channel_mask
from ..training import evaluate

__all__ = ["SensitivityCurve", "layer_sensitivity", "sensitivity_ranking"]


@dataclass(frozen=True)
class SensitivityCurve:
    """Accuracy of the model as one layer is pruned harder.

    ``accuracies[i]`` is the masked accuracy at ``speedups[i]``;
    :attr:`sensitivity` summarises the curve as the mean accuracy drop
    from the unpruned reference (larger = more sensitive).
    """

    layer: str
    speedups: tuple[float, ...]
    accuracies: tuple[float, ...]
    reference: float

    @property
    def sensitivity(self) -> float:
        drops = [self.reference - accuracy for accuracy in self.accuracies]
        return float(np.mean(drops))

    @property
    def worst_accuracy(self) -> float:
        return min(self.accuracies)


def layer_sensitivity(model: Module, pruner: Pruner,
                      context: PruningContext,
                      images: np.ndarray, labels: np.ndarray,
                      speedups: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0),
                      skip_last: bool = True) -> list[SensitivityCurve]:
    """Sensitivity curve of every prunable layer under masked pruning.

    ``images``/``labels`` are the evaluation set (typically test data);
    the pruner selects survivors on the context's calibration data.  The
    model is never modified — masking is reversible.
    """
    units = model.prune_units()
    if skip_last and len(units) > 1:
        units = units[:-1]
    reference = evaluate(model, images, labels)
    curves = []
    for unit in units:
        accuracies = []
        for speedup in speedups:
            keep = budget_keep_count(unit.num_maps, speedup)
            mask = pruner.select(model, unit, keep, context)
            with channel_mask(unit, mask):
                accuracies.append(evaluate(model, images, labels))
        curves.append(SensitivityCurve(
            layer=unit.name, speedups=tuple(speedups),
            accuracies=tuple(accuracies), reference=reference))
    return curves


def sensitivity_ranking(curves: list[SensitivityCurve]) -> list[str]:
    """Layer names ordered most-sensitive first."""
    return [curve.layer for curve in
            sorted(curves, key=lambda c: c.sensitivity, reverse=True)]
