"""Unified pruning-engine API: one protocol, one factory, one telemetry.

Historically every engine invented its own constructor and result shape
(``HeadStartPruner(model, train_set, ...)``,
``BlockHeadStart(model, images, labels, ...)``, per-class configs), so
callers and telemetry special-cased each one.  This module defines the
common surface:

* :class:`PruningEngine` — the protocol every engine satisfies:
  ``run()`` trains/scores and returns an engine-specific result,
  ``apply(result)`` physically prunes and returns the number of
  structures removed, ``describe()`` returns :class:`EngineInfo`.
* :func:`build_engine` — name-based factory replacing the per-class
  constructor zoo.  Calibration data may be a ``Dataset`` or an
  ``(images, labels)`` pair interchangeably.
* :class:`MetricEngine` — adapter lifting the one-shot metric baselines
  (``li17``, ``apoz``, ...) into the same protocol.
* :class:`SteppedEngine` — the *step-oriented* protocol the
  fault-tolerant runtime drives: an engine exposes its work as an
  ordered list of :class:`StepSpec`\\ s, each decided by ``run_step``
  (pure computation, journalable payload) and materialised by
  ``apply_step`` (surgery / fine-tune, mutates ``engine.model``).
  ``replay_step`` re-applies a journaled payload without re-deciding,
  which is what makes resume bit-for-bit exact.  All three engine kinds
  implement it (:class:`~repro.core.pruner.HeadStartPruner` per layer,
  :class:`~repro.core.blocks.BlockHeadStart` as one block-pattern step,
  :class:`MetricEngine` per unit).
  :meth:`SteppedEngineBase.run_steps` drives the same steps in process
  without a journal, and every engine's plain ``run()`` is defined
  through its steps, so a plain run decides what a journaled one does.

Old constructors keep working; the factory is the recommended entry
point for new code.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from ..data.datasets import as_arrays
from ..nn.modules import Module
from ..obs import get_recorder
from ..runtime import faults
from .baselines.common import (Pruner, PruningContext, available_pruners,
                               build_pruner)
from .pipeline import budget_keep_count
from .surgery import prune_unit
from .units import ConvUnit

__all__ = ["EngineInfo", "PruningEngine", "MetricEngine",
           "MetricEngineResult", "build_engine", "available_engines",
           "StepSpec", "StepOutcome", "StepState", "SteppedResult",
           "SteppedEngine", "SteppedEngineBase"]

#: RL engine names accepted by :func:`build_engine` (metric baseline
#: names from :func:`available_pruners` are accepted too).
RL_ENGINES = ("headstart", "block")


@dataclass(frozen=True)
class EngineInfo:
    """Metadata every engine reports through ``describe()``."""

    name: str
    kind: str            # "rl-map" | "rl-block" | "metric"
    action_space: str    # what the engine's decision variable ranges over
    description: str = ""


@runtime_checkable
class PruningEngine(Protocol):
    """The surface shared by every pruning engine.

    ``run()`` returns an engine-specific result object (masks, logs,
    histories); ``apply(result)`` physically prunes the engine's model
    and returns the number of structures (feature maps or blocks)
    removed; ``describe()`` returns :class:`EngineInfo`.
    """

    def run(self) -> Any: ...

    def apply(self, result: Any) -> int: ...

    def describe(self) -> EngineInfo: ...


# ---------------------------------------------------------------------------
# The step-oriented protocol driven by the fault-tolerant runtime.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSpec:
    """One unit of journalable work in a stepped engine's plan.

    Attributes
    ----------
    name:
        Stable identifier journaled with the step (a unit name, or
        ``"blocks"`` for the block pattern).
    index:
        Position in the engine's plan (0-based); doubles as the seed
        offset for per-step self-seeding.
    kind:
        ``"layer"`` (decide + surgery + fine-tune), ``"unit"`` (decide
        and prune one unit) or ``"blocks"`` (block pattern).
    """

    name: str
    index: int
    kind: str = "layer"

    @property
    def decides_unit(self) -> bool:
        """Whether the step decides one unit's mask.

        Only such a step can be re-decided by a
        :class:`~repro.runtime.fallback.FallbackChain` when it is
        exhausted; any other step is skipped instead.
        """
        return self.kind in ("layer", "unit")


@dataclass
class StepOutcome:
    """What one step produced.

    ``payload`` is the journaled decision — everything ``replay_step``
    needs to reproduce the step's surgery on resume.  ``log`` is the
    journaled human-facing row (a :class:`~repro.core.pruner.LayerLog`
    dict for layer steps).  ``accuracy`` feeds the harness's collapse
    guard; ``extra`` holds runtime-only objects (agent results) that are
    *not* journaled and therefore absent after a resume.
    """

    payload: dict
    log: dict | None = None
    accuracy: float | None = None
    removed: int = 0
    extra: dict = field(default_factory=dict)


@dataclass
class StepState:
    """Mutable context the harness threads through a step's attempts.

    ``baseline_accuracy`` is the pre-step calibration accuracy the
    harness measured (or carried over) for its collapse guard, ``None``
    when the guard is off; an engine may use it instead of evaluating
    the unchanged model again.
    """

    attempt: int = 0
    config_override: Any = None
    need_accuracy: bool = False
    baseline_accuracy: float | None = None


@dataclass
class SteppedResult:
    """Generic accumulated outcome of a stepped run (non-HeadStart engines)."""

    steps: list[dict] = field(default_factory=list)
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    final_accuracy: float | None = None


@runtime_checkable
class SteppedEngine(Protocol):
    """Step-oriented engine surface the fault-tolerant runtime drives.

    Beyond these three methods an engine exposes ``model`` (the object
    being pruned, replaced wholesale on rollback), plus the bookkeeping
    hooks :class:`SteppedEngineBase` provides default implementations
    for (``new_result``/``accumulate``/``finalize``,
    ``current_accuracy``, ``retry_config``, ``fallback_keep_count``/
    ``fallback_outcome``, ``fingerprint``, ``calibration_arrays``,
    ``replay_step``).
    """

    def steps(self) -> list[StepSpec]: ...

    def run_step(self, spec: StepSpec, state: StepState) -> StepOutcome: ...

    def apply_step(self, spec: StepSpec, outcome: StepOutcome,
                   state: StepState) -> None: ...


def _unit_by_name(model, name: str) -> ConvUnit:
    for unit in model.prune_units():
        if unit.name == name:
            return unit
    raise ValueError(f"model has no prunable unit named {name!r}")


class SteppedEngineBase:
    """Shared bookkeeping for stepped engines.

    Subclasses provide ``model``, a
    :class:`~repro.core.config.HeadStartConfig`-shaped ``config``,
    ``describe()`` and ``run_step``/``apply_step``; this base supplies
    the in-process driver :meth:`run_steps`, one step per active unit,
    result accumulation, mask replay (:meth:`apply`), the
    calibration-batch accuracy used by the collapse guard, retry
    reseeding and the metric-fallback plumbing.  Everything here
    re-derives units from ``self.model`` on each call — the harness
    replaces ``model`` wholesale on rollback, so cached
    :class:`~repro.pruning.units.ConvUnit` handles would go stale.
    """

    #: Whether a whole-model run leaves the final prunable unit intact
    #: (the classifier's feature extractor, paper protocol).
    skip_last: bool = True
    #: ``StepSpec.kind`` of the per-unit steps :meth:`steps` plans.
    step_kind: str = "unit"

    # -- plan ---------------------------------------------------------------
    def active_units(self) -> list[ConvUnit]:
        """The units a whole-model run prunes, in forward order."""
        units = self.model.prune_units()
        return units[:-1] if (self.skip_last and len(units) > 1) else units

    def steps(self) -> list[StepSpec]:
        return [StepSpec(name=unit.name, index=index, kind=self.step_kind)
                for index, unit in enumerate(self.active_units())]

    # -- the in-process driver ----------------------------------------------
    def run_steps(self):
        """Decide, apply and accumulate every step in order; the result.

        This is :class:`~repro.runtime.harness.ResumableRunner`'s loop
        without journal, checkpoints, collapse guard, retries or
        fallback, so a journaled run with ``collapse_ratio=0`` returns
        the same result and leaves the same model.
        """
        result = self.new_result()
        for spec in self.steps():
            state = StepState()
            outcome = self.run_step(spec, state)
            self.apply_step(spec, outcome, state)
            self.accumulate(result, spec, outcome)
        self.finalize(result)
        return result

    def apply(self, result) -> int:
        """Physically apply ``result.masks``; returns feature maps removed.

        A unit already at its mask's kept count is skipped, so applying
        a result whose run did the surgery is a no-op returning 0, and
        on a fresh copy of the architecture the masks are replayed in
        order.  A mask that does not fit its unit raises ``ValueError``.
        Part of the :class:`PruningEngine` protocol.
        """
        removed = 0
        for name, mask in result.masks.items():
            unit = _unit_by_name(self.model, name)
            mask = np.asarray(mask, dtype=bool)
            if unit.num_maps == int(np.count_nonzero(mask)):
                continue  # already applied
            if unit.num_maps != mask.size:
                raise ValueError(
                    f"mask for {name!r} covers {mask.size} maps but the "
                    f"unit has {unit.num_maps}")
            removed += prune_unit(unit, mask)
        return removed

    # -- result bookkeeping -------------------------------------------------
    def new_result(self) -> SteppedResult:
        return SteppedResult()

    def accumulate(self, result, spec: StepSpec,
                   outcome: StepOutcome) -> None:
        if outcome.log is not None:
            result.steps.append(dict(outcome.log))
        payload = outcome.payload or {}
        if "mask" in payload:
            result.masks[spec.name] = np.asarray(payload["mask"], dtype=bool)

    def finalize(self, result) -> None:
        result.final_accuracy = self.current_accuracy()

    # -- accuracy baseline --------------------------------------------------
    def calibration_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.images, self.labels

    def current_accuracy(self) -> float:
        from ..training import evaluate
        images, labels = self.calibration_arrays()
        return evaluate(self.model, images, labels)

    # -- retry / fallback ---------------------------------------------------
    def retry_config(self, spec: StepSpec, policy, attempt: int):
        """Config override for retry ``attempt`` (1-based) of ``spec``."""
        return policy.layer_config(self.config, spec.index, attempt)

    def fallback_keep_count(self, name: str) -> int:
        """The survivor budget a fallback engine must honour for a unit."""
        unit = _unit_by_name(self.model, name)
        return budget_keep_count(unit.num_maps, self.config.speedup)

    def fallback_outcome(self, spec: StepSpec, mask: np.ndarray,
                         engine_name: str) -> StepOutcome:
        """Wrap a fallback-selected mask as this engine's step outcome."""
        return StepOutcome(payload={"mask": np.asarray(mask, dtype=bool),
                                    "engine": engine_name},
                           log={"name": spec.name, "engine": engine_name})

    # -- resume -------------------------------------------------------------
    def replay_step(self, spec: StepSpec, payload: dict) -> None:
        """Re-apply a journaled decision without re-deciding it.

        The default re-runs the surgery of the payload's ``mask``; an
        engine whose surgery is not per-unit (block bypassing) overrides
        this.
        """
        payload = payload or {}
        if "mask" in payload:
            prune_unit(_unit_by_name(self.model, spec.name),
                       np.asarray(payload["mask"], dtype=bool))

    # -- identity -----------------------------------------------------------
    def fingerprint(self) -> dict:
        """Jsonable identity for the resume digest (config + engine name).

        Performance knobs (:data:`~repro.core.config.PERF_FIELDS`) are
        stripped so a journaled run can resume with caching toggled —
        they change how fast a step computes, never what it computes.
        """
        from ..core.config import resume_relevant

        return {"engine": self.describe().name,
                "config": resume_relevant(self.config)}


class MetricEngineResult(SteppedResult):
    """Outcome of a metric-baseline engine run, plain or journaled."""

    @property
    def keep_counts(self) -> dict[str, int]:
        return {name: int(np.count_nonzero(mask))
                for name, mask in self.masks.items()}


class MetricEngine(SteppedEngineBase):
    """One-shot metric baseline (Li'17, APoZ, ...) as a `PruningEngine`.

    Units are pruned one at a time in forward order, each scored on the
    model that earlier units' surgery left, as in
    :func:`~repro.pruning.pipeline.prune_whole_model` without
    fine-tuning.

    Parameters
    ----------
    pruner:
        A registered pruner name or a :class:`Pruner` instance.
    model:
        Model exposing ``prune_units()``.
    data:
        Calibration data — a ``Dataset`` or ``(images, labels)`` pair.
    speedup:
        Per-layer survivor budget ``C / sp`` (Eq. 1 constraint).
    """

    def __init__(self, pruner: Pruner | str, model: Module, data,
                 speedup: float = 2.0, eval_batch: int = 128, seed: int = 0,
                 skip_last: bool = True):
        self.pruner = build_pruner(pruner) if isinstance(pruner, str) \
            else pruner
        self.model = model
        self.images, self.labels = as_arrays(data, limit=eval_batch)
        self.speedup = float(speedup)
        self.seed = int(seed)
        self.skip_last = bool(skip_last)
        if not self.active_units():
            raise ValueError("model exposes no prunable units")

    def run(self) -> MetricEngineResult:
        """Decide every unit as a journaled run does; no surgery yet.

        The steps run on a copy of the model, so ``self.model`` is left
        as it was; :meth:`apply` then prunes it with the result's masks.
        """
        replica = copy.copy(self)
        replica.model = copy.deepcopy(self.model)
        with get_recorder().span("metric_engine.run",
                                 metric=self.pruner.name):
            return replica.run_steps()

    def new_result(self) -> MetricEngineResult:
        return MetricEngineResult()

    # -- stepped protocol ---------------------------------------------------
    def run_step(self, spec: StepSpec, state: StepState) -> StepOutcome:
        unit = _unit_by_name(self.model, spec.name)
        keep_count = budget_keep_count(unit.num_maps, self.speedup)
        context = PruningContext(
            self.images, self.labels,
            np.random.default_rng(self.seed + spec.index
                                  + 1009 * state.attempt))
        faults.crash_point("metric.select")
        with get_recorder().span("prune_layer", layer=unit.name,
                                 maps_before=unit.num_maps):
            mask = self.pruner.select(self.model, unit, keep_count, context)
        mask = np.asarray(mask, dtype=bool)
        return StepOutcome(
            payload={"mask": mask},
            log={"name": spec.name, "maps_before": int(unit.num_maps),
                 "maps_after": int(np.count_nonzero(mask))})

    def apply_step(self, spec: StepSpec, outcome: StepOutcome,
                   state: StepState) -> None:
        unit = _unit_by_name(self.model, spec.name)
        mask = np.asarray(outcome.payload["mask"], dtype=bool)
        outcome.removed = prune_unit(unit, mask)
        get_recorder().counter("pruner/layers_pruned")
        get_recorder().counter("pruner/maps_removed", outcome.removed)
        if state.need_accuracy:
            outcome.accuracy = self.current_accuracy()

    def retry_config(self, spec: StepSpec, policy, attempt: int):
        # Metric selection has no trainable config; retries reseed the
        # pruning context through ``state.attempt`` in run_step instead.
        return None

    def fallback_keep_count(self, name: str) -> int:
        unit = _unit_by_name(self.model, name)
        return budget_keep_count(unit.num_maps, self.speedup)

    def fingerprint(self) -> dict:
        return {"engine": self.describe().name, "speedup": self.speedup,
                "seed": self.seed, "skip_last": self.skip_last}

    def describe(self) -> EngineInfo:
        return EngineInfo(
            name=self.pruner.name or type(self.pruner).__name__,
            kind="metric",
            action_space="top-k feature maps per layer by a local score",
            description=(type(self.pruner).__doc__ or "").strip()
            .split("\n")[0])


def available_engines() -> list[str]:
    """Every name :func:`build_engine` accepts."""
    return sorted([*RL_ENGINES, *available_pruners()])


def build_engine(name: str, model: Module, data, config=None,
                 **kwargs) -> PruningEngine:
    """Construct any pruning engine from one uniform signature.

    Parameters
    ----------
    name:
        ``"headstart"`` (layer-wise RL), ``"block"`` (residual-block RL)
        or any registered metric baseline name (``li17``, ``apoz``, ...).
    model:
        The model to compress.
    data:
        Calibration/fine-tuning data — a ``Dataset`` or an
        ``(images, labels)`` pair; each engine coerces it through
        :func:`repro.data.datasets.as_arrays`.
    config:
        Engine config: :class:`~repro.core.config.HeadStartConfig` for
        ``headstart``/``block``; for metric engines, any object with
        ``speedup`` / ``eval_batch`` / ``seed`` attributes (or pass those
        as keyword arguments instead).
    kwargs:
        Forwarded to the engine constructor (e.g. ``test_set=``,
        ``finetune_config=`` for ``headstart``; ``skip_last=``).
    """
    # Engines live in repro.core, which imports this module for
    # EngineInfo — resolve them lazily to keep the import graph acyclic.
    from ..core.blocks import BlockHeadStart
    from ..core.config import HeadStartConfig
    from ..core.pruner import HeadStartPruner

    if name == "headstart":
        return HeadStartPruner(model, data,
                               config=config or HeadStartConfig(), **kwargs)
    if name == "block":
        return BlockHeadStart(model, data,
                              config=config or HeadStartConfig(), **kwargs)
    if name in available_pruners():
        if config is not None:
            kwargs.setdefault("speedup", config.speedup)
            kwargs.setdefault("eval_batch", config.eval_batch)
            kwargs.setdefault("seed", config.seed)
        return MetricEngine(name, model, data, **kwargs)
    raise ValueError(
        f"unknown engine {name!r}; available: {available_engines()}")
