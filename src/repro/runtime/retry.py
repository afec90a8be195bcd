"""Rollback-and-retry policy for diverged pruning layers.

When a layer's agent (or the subsequent fine-tune) diverges, the harness
restores the pre-layer model and re-runs the layer with a *reseeded*
policy and progressively more conservative hyper-parameters: the policy
learning rate backs off exponentially while the exploration floor grows,
which is the standard recipe for escaping an unlucky REINFORCE seed.
After ``max_retries`` failed attempts the layer is skipped (recorded in
the journal) and the run continues — a complete run with an unpruned
layer beats a dead one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How to re-run a diverged layer.

    Attributes
    ----------
    max_retries:
        Extra attempts after the first failure; 0 means fail -> skip.
    reseed_stride:
        Added to the config seed per attempt (a large odd stride keeps
        retry seeds disjoint from the per-layer ``seed + offset`` family).
    lr_backoff:
        Multiplier on the policy learning rate per retry (exponential).
    exploration_growth:
        Multiplier on the exploration floor per retry, capped at
        ``exploration_cap`` (and seeded at ``min_exploration`` when the
        base config disables exploration entirely).
    """

    max_retries: int = 2
    reseed_stride: int = 9973
    lr_backoff: float = 0.5
    exploration_growth: float = 1.5
    exploration_cap: float = 0.25
    min_exploration: float = 0.02

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 < self.lr_backoff <= 1.0:
            raise ValueError("lr_backoff must lie in (0, 1]")
        if not 0.0 <= self.exploration_cap < 0.5:
            raise ValueError("exploration_cap must lie in [0, 0.5)")

    def layer_config(self, base, seed_offset: int, attempt: int):
        """The agent config for retry ``attempt`` (1-based) of a layer.

        ``base`` is the run-level :class:`~repro.core.config.HeadStartConfig`;
        the returned config already folds in the layer's ``seed_offset``,
        so callers pass it through verbatim.
        """
        if attempt < 1:
            raise ValueError("layer_config is for retries (attempt >= 1)")
        exploration = max(base.exploration, self.min_exploration)
        exploration = min(exploration * self.exploration_growth ** attempt,
                          self.exploration_cap)
        return dataclasses.replace(
            base,
            seed=base.seed + seed_offset + attempt * self.reseed_stride,
            lr=base.lr * self.lr_backoff ** attempt,
            exploration=exploration)
