"""Graceful degradation: finish a failed step with a cheaper engine.

When a step exhausts its :class:`~repro.runtime.retry.RetryPolicy` or
keeps blowing its :class:`~repro.runtime.watchdog.StepBudget`, skipping
it leaves that layer unpruned — the run survives but misses its
compression target.  A :class:`FallbackChain` instead re-decides *just
that step's unit* with progressively cheaper deterministic engines (the
metric baselines: ``taylor``, ``thinet``, ``li17``, ...) at the same
survivor budget, so the paper's Eq. 1 sparsity constraint still holds;
only the *quality* of the kept set degrades from "RL-searched" to
"metric-ranked".  Only a step that decides one unit (a layer or unit
step) can degrade; an exhausted block-pattern step is skipped.

The harness journals a ``degraded`` record naming the engine that
produced the surviving mask, counts degradations in
:class:`~repro.runtime.harness.RunReport` and the
``runtime/steps_degraded`` counter, and still runs the post-surgery
invariant checker on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pruning.baselines.common import (PruningContext, available_pruners,
                                        build_pruner)
from ..pruning.engine import _unit_by_name

__all__ = ["FallbackChain"]


@dataclass(frozen=True)
class FallbackChain:
    """Ordered metric-baseline engines to try when a step is exhausted.

    Attributes
    ----------
    engines:
        Registered metric pruner names, cheapest-acceptable last; tried
        in order until one produces a step that passes the guards.
    seed:
        Base seed for the (rarely used) stochastic parts of the metric
        pruners; offset per step index so targets stay decorrelated.
    """

    engines: tuple[str, ...] = ("taylor", "thinet")
    seed: int = 0

    def __post_init__(self):
        if not self.engines:
            raise ValueError("a fallback chain needs at least one engine")
        known = available_pruners()
        unknown = [name for name in self.engines if name not in known]
        if unknown:
            raise ValueError(
                f"unknown fallback engine(s) {unknown}; available: {known}")

    def mask_for(self, engine_name: str, model, name: str, keep_count: int,
                 images, labels, step_index: int = 0) -> np.ndarray:
        """Metric-selected keep mask for the failed step's unit ``name``.

        ``keep_count`` is the unit's survivor budget (the same ``C / sp``
        the primary engine was aiming for).
        """
        context = PruningContext(images, labels,
                                 np.random.default_rng(self.seed
                                                       + 7919 * step_index))
        return build_pruner(engine_name).select(
            model, _unit_by_name(model, name), keep_count, context)
