"""Metric-based pruners: Random, Li'17 (L1-norm), APoZ.

These are the "criticality metric" baselines of the paper's Section II:
each scores feature maps with a local statistic and keeps the top-ranked
ones, ignoring the resulting inception entirely.
"""

from __future__ import annotations

import numpy as np

from ...nn.modules import Module
from ..units import ConvUnit
from .common import (Pruner, PruningContext, collect_unit_outputs,
                     mask_from_scores, register_pruner)

__all__ = ["RandomPruner", "Li17Pruner", "APoZPruner"]


@register_pruner("random")
class RandomPruner(Pruner):
    """Keep a uniformly random subset of maps (the RANDOM table rows)."""

    def select(self, model: Module, unit: ConvUnit, keep_count: int,
               context: PruningContext) -> np.ndarray:
        scores = context.rng.random(unit.num_maps)
        return mask_from_scores(scores, keep_count)


@register_pruner("li17")
class Li17Pruner(Pruner):
    """Li et al., ICLR'17: rank filters by the L1 norm of their weights.

    Filters with small absolute weight sums are deemed trivial and
    pruned; no data is consulted.
    """

    def select(self, model: Module, unit: ConvUnit, keep_count: int,
               context: PruningContext) -> np.ndarray:
        weights = unit.conv.weight.data
        scores = np.abs(weights).sum(axis=(1, 2, 3))
        return mask_from_scores(scores, keep_count)


@register_pruner("apoz")
class APoZPruner(Pruner):
    """Hu et al., 2016: Average Percentage of Zeros in activations.

    Maps whose post-ReLU responses are mostly zero are pruned (a *low*
    APoZ is a *high* keep-score).
    """

    def __init__(self, epsilon: float = 1e-12):
        self.epsilon = epsilon

    def select(self, model: Module, unit: ConvUnit, keep_count: int,
               context: PruningContext) -> np.ndarray:
        maps = collect_unit_outputs(model, unit, context.images, post_relu=True)
        apoz = (maps <= self.epsilon).mean(axis=(0, 2, 3))
        return mask_from_scores(1.0 - apoz, keep_count)
