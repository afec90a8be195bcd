"""AMC-lite: a simplified AMC-style RL comparator (He et al., ECCV'18).

AMC — the best-known RL pruning method before HeadStart — learns one
*continuous compression ratio per layer* with an actor-critic agent and
prunes within each layer by weight magnitude.  This module implements a
compact REINFORCE variant of that recipe so the reproduction can compare
HeadStart's binary per-map actions against AMC's per-layer ratios on the
same substrate:

* the policy is a learnable per-layer Gaussian over keep ratios
  (sigmoid-squashed), trained with REINFORCE on the end-to-end masked
  accuracy;
* a FLOPs budget is enforced by rescaling sampled ratios, mirroring
  AMC's constrained exploration;
* within a layer, the kept maps are the top weight-magnitude filters
  (AMC's criterion), so the two methods differ exactly where the papers
  differ: *what the RL controls*.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from ..data.datasets import as_arrays
from ..nn.modules import Module
from ..obs import get_recorder
from ..pruning.baselines.simple import Li17Pruner
from ..pruning.baselines.common import PruningContext
from ..pruning.engine import (EngineInfo, StepOutcome, StepSpec, StepState,
                              SteppedEngineBase, _unit_by_name)
from ..pruning.surgery import channel_mask, prune_unit
from ..pruning.units import ConvUnit
from ..runtime import faults
from ..runtime.errors import DivergenceError
from ..runtime.guards import require_finite
from ..training import evaluate

__all__ = ["AMCConfig", "AMCResult", "AMCLitePruner"]


@dataclass(frozen=True)
class AMCConfig:
    """Hyper-parameters of the AMC-lite agent."""

    speedup: float = 2.0
    episodes: int = 60
    lr: float = 0.2
    sigma: float = 0.15
    min_keep_ratio: float = 0.1
    eval_batch: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.speedup < 1.0:
            raise ValueError("speedup must be >= 1")
        if self.episodes < 1:
            raise ValueError("need at least one episode")
        if not 0.0 < self.min_keep_ratio < 1.0:
            raise ValueError("min_keep_ratio must lie in (0, 1)")


@dataclass
class AMCResult:
    """Outcome of an AMC-lite run."""

    keep_ratios: np.ndarray
    keep_counts: list[int]
    best_accuracy: float
    reward_history: list[float] = field(default_factory=list)
    masks: dict[str, np.ndarray] = field(default_factory=dict)


class AMCLitePruner(SteppedEngineBase):
    """Learns per-layer keep ratios with REINFORCE, prunes by magnitude.

    Parameters
    ----------
    model:
        Model exposing ``prune_units()``.
    data / labels:
        Calibration data for the episode reward: a ``Dataset`` /
        ``(images, labels)`` pair as ``data``, or — the original
        calling convention, still supported — raw image and label
        arrays as two positional arguments.  Prefer
        :func:`repro.pruning.build_engine` for new code.
    config:
        Agent hyper-parameters; ``config.speedup`` sets the map budget
        (total kept maps <= total maps / speedup, AMC's resource
        constraint restated in the paper's Eq. 1 terms).
    """

    def __init__(self, model: Module, data,
                 labels: np.ndarray | None = None,
                 config: AMCConfig | None = None,
                 skip_last: bool = True):
        self.model = model
        self.config = config = config if config is not None else AMCConfig()
        if labels is not None:
            data = (data, labels)
        images, labels = as_arrays(data)
        batch = min(config.eval_batch, len(images))
        self.images = images[:batch]
        self.labels = labels[:batch]
        self.skip_last = bool(skip_last)
        units = self.active_units()
        if not units:
            raise ValueError("model exposes no prunable units")
        self.total_maps = sum(u.num_maps for u in units)
        self.selector = Li17Pruner()

    # -- episode machinery ----------------------------------------------
    def _sample_ratios(self, config: AMCConfig, rng: np.random.Generator,
                       mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        noise = rng.normal(scale=config.sigma, size=mu.shape)
        ratios = 1.0 / (1.0 + np.exp(-(mu + noise)))
        return np.clip(ratios, config.min_keep_ratio, 1.0), noise

    def _enforce_budget(self, ratios: np.ndarray, units: list[ConvUnit],
                        config: AMCConfig) -> np.ndarray:
        """Rescale ratios so the total kept maps respect the budget."""
        total_maps = sum(u.num_maps for u in units)
        budget = total_maps / config.speedup
        kept = sum(r * u.num_maps for r, u in zip(ratios, units))
        if kept <= budget:
            return ratios
        scale = budget / kept
        return np.clip(ratios * scale, config.min_keep_ratio, 1.0)

    def _masks_for(self, ratios: np.ndarray, units: list[ConvUnit],
                   context: PruningContext) -> dict[str, np.ndarray]:
        masks = {}
        for ratio, unit in zip(ratios, units):
            keep = max(1, int(round(ratio * unit.num_maps)))
            masks[unit.name] = self.selector.select(self.model, unit, keep,
                                                    context)
        return masks

    def _masked_accuracy(self, masks: dict[str, np.ndarray],
                         units: list[ConvUnit]) -> float:
        with contextlib.ExitStack() as stack:
            for unit in units:
                stack.enter_context(channel_mask(unit, masks[unit.name]))
            return evaluate(self.model, self.images, self.labels)

    def _search(self, config: AMCConfig) -> AMCResult:
        """The REINFORCE episode loop over a fresh policy state.

        The rng and the per-layer logits ``mu`` (``sigmoid(mu)`` is the
        keep ratio) are built from ``config`` on every call, so the
        outcome depends only on the config and the model.  Each
        episode's reward passes through the ``amc.reward`` fault/watchdog
        hook, making the sweep both injectable and budget-bounded.
        """
        rng = np.random.default_rng(config.seed)
        units = self.active_units()
        target = np.clip(1.0 / config.speedup, 0.02, 0.98)
        mu = np.full(len(units), float(np.log(target / (1.0 - target))))
        context = PruningContext(self.images, self.labels, rng)
        rec = get_recorder()
        with rec.span("pruner.run", engine="amc", layers=len(units)):
            baseline = None
            best = None
            history: list[float] = []
            for episode in range(config.episodes):
                ratios, noise = self._sample_ratios(config, rng, mu)
                ratios = self._enforce_budget(ratios, units, config)
                masks = self._masks_for(ratios, units, context)
                reward = self._masked_accuracy(masks, units)
                reward = faults.corrupt("amc.reward", reward)
                require_finite(reward, "amc.reward", iteration=episode)
                history.append(reward)
                if baseline is None:
                    baseline = reward
                advantage = reward - baseline
                baseline = 0.9 * baseline + 0.1 * reward
                # REINFORCE for a Gaussian-perturbed deterministic
                # policy: grad log pi ~ noise / sigma^2.
                mu += config.lr * advantage * noise / (config.sigma ** 2)
                if best is None or reward > best[0]:
                    best = (reward, ratios.copy(), masks)
                rec.series("amc/reward", episode, reward)
                rec.series("amc/baseline", episode, float(baseline))
                rec.counter("amc/episode_evals")
            best_reward, best_ratios, best_masks = best
            rec.gauge("amc/best_accuracy", best_reward)
        keep_counts = [int(best_masks[u.name].sum()) for u in units]
        return AMCResult(keep_ratios=best_ratios, keep_counts=keep_counts,
                         best_accuracy=best_reward, reward_history=history,
                         masks=best_masks)

    def run(self) -> AMCResult:
        """Train the ratio policy; returns the best episode's masks.

        The decision of the ``sweep`` step, as a journaled run's first
        attempt computes it; the model is left as it was, and
        :meth:`apply` prunes it with the masks.
        """
        return self._search(self.config)

    # -- stepped protocol (driven by repro.runtime.harness) -----------------
    def steps(self) -> list[StepSpec]:
        """One whole-model ratio sweep, then one surgery step per unit.

        The sweep only *decides* (its payload is every unit's mask);
        surgery is per-unit so a torn run resumes mid-model exactly like
        the other engines.  A failed sweep can degrade to metric masks
        for every unit; a failed unit step re-decides just that unit.
        """
        units = self.active_units()
        specs = [StepSpec(name="sweep", index=0, kind="sweep",
                          fallback_targets=tuple(u.name for u in units))]
        specs.extend(
            StepSpec(name=unit.name, index=index + 1, kind="unit",
                     fallback_targets=(unit.name,))
            for index, unit in enumerate(units))
        return specs

    def run_step(self, spec: StepSpec, state: StepState) -> StepOutcome:
        if spec.kind == "sweep":
            result = self._search(state.config_override or self.config)
            return StepOutcome(
                payload={"masks": {name: np.asarray(mask, dtype=bool)
                                   for name, mask in result.masks.items()},
                         "keep_ratios": [float(r)
                                         for r in result.keep_ratios]},
                log={"name": spec.name,
                     "best_accuracy": float(result.best_accuracy),
                     "episodes": len(result.reward_history)},
                accuracy=None,
                extra={"amc_result": result})
        sweep = state.payloads.get("sweep") or {}
        masks = sweep.get("masks") or {}
        if spec.name not in masks:
            # A skipped/failed sweep leaves the unit undecidable by the
            # primary policy; raising a DivergenceError lets the harness
            # degrade the unit to a fallback engine instead of crashing.
            raise DivergenceError("amc.missing_sweep", layer=spec.name,
                                  detail="no sweep mask for this unit "
                                         "(sweep step failed or skipped)")
        unit = _unit_by_name(self.model, spec.name)
        mask = np.asarray(masks[spec.name], dtype=bool)
        return StepOutcome(
            payload={"mask": mask},
            log={"name": spec.name, "maps_before": int(unit.num_maps),
                 "maps_after": int(np.count_nonzero(mask))})

    def apply_step(self, spec: StepSpec, outcome: StepOutcome,
                   state: StepState) -> None:
        if spec.kind == "sweep":
            # Decision-only step: surgery happens in the per-unit steps.
            return
        unit = _unit_by_name(self.model, spec.name)
        mask = np.asarray(outcome.payload["mask"], dtype=bool)
        outcome.removed = prune_unit(unit, mask)
        get_recorder().counter("pruner/maps_removed", outcome.removed)
        if state.need_accuracy:
            outcome.accuracy = self.current_accuracy()

    def replay_step(self, spec: StepSpec, payload: dict) -> None:
        if spec.kind == "sweep":
            return
        unit = _unit_by_name(self.model, spec.name)
        prune_unit(unit, np.asarray(payload["mask"], dtype=bool))

    def describe(self) -> EngineInfo:
        """Engine metadata (:class:`repro.pruning.PruningEngine` protocol)."""
        return EngineInfo(
            name="amc", kind="rl-ratio",
            action_space="continuous keep ratio per layer "
                         "(magnitude-ranked within the layer)",
            description="AMC-lite: REINFORCE over per-layer compression "
                        "ratios under a FLOPs-style budget.")
