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
* :class:`SteppedEngine` — the *step-oriented* protocol the
  fault-tolerant runtime drives: an engine exposes its work as an
  ordered list of :class:`StepSpec`\\ s, each decided by ``run_step``
  (pure computation, journalable payload) and materialised by
  ``apply_step`` (surgery / fine-tune, mutates ``engine.model``).
  ``replay_step`` re-applies a journaled payload without re-deciding,
  which is what makes resume bit-for-bit exact.  Two engine shapes
  implement it: the layer engines of :mod:`repro.core.pruner`
  (HeadStart and the metric baselines, one step per layer) and
  :class:`~repro.core.blocks.BlockHeadStart` (one block-pattern step).
  :meth:`SteppedEngineBase.run_steps` drives the same steps in process
  without a journal, so a plain run decides what a journaled one does.

The per-class constructors take the same ``(model, data, ...)`` order;
the factory is the recommended entry point for new code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from ..nn.modules import Module
from .baselines.common import Pruner, available_pruners
from .units import ConvUnit

__all__ = ["EngineInfo", "PruningEngine", "build_engine",
           "available_engines", "budget_keep_count",
           "StepSpec", "StepOutcome", "StepState", "SteppedResult",
           "SteppedEngine", "SteppedEngineBase"]

#: RL engine names accepted by :func:`build_engine` (metric baseline
#: names from :func:`available_pruners` are accepted too).
RL_ENGINES = ("headstart", "block")


def budget_keep_count(num_maps: int, speedup: float) -> int:
    """Survivor budget ``C / sp`` for a layer (Eq. 1 constraint)."""
    if speedup < 1.0:
        raise ValueError("speedup must be >= 1")
    return max(1, int(round(num_maps / speedup)))


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
        Position in the engine's plan (0-based); each step self-seeds
        from it.
    """

    name: str
    index: int


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
    """Accumulated outcome of a stepped run: each step's journaled log row."""

    steps: list[dict] = field(default_factory=list)
    final_accuracy: float | None = None


@runtime_checkable
class SteppedEngine(Protocol):
    """Step-oriented engine surface the fault-tolerant runtime drives.

    Beyond these three methods an engine exposes ``model`` (the object
    being pruned, replaced wholesale on rollback), ``replay_step``, the
    bookkeeping hooks :class:`SteppedEngineBase` provides default
    implementations for (``new_result``/``accumulate``/``finalize``,
    ``current_accuracy``, ``retry_config``, ``fingerprint``,
    ``calibration_arrays``).
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
    ``describe()``, ``steps()`` and ``run_step``/``apply_step``/
    ``replay_step``; this base supplies the in-process driver
    :meth:`run_steps`, result accumulation, the calibration-batch
    accuracy used by the collapse guard and retry reseeding.
    """

    # -- the in-process driver ----------------------------------------------
    def run_steps(self):
        """Decide, apply and accumulate every step in order; the result.

        This is :class:`~repro.runtime.harness.ResumableRunner`'s loop
        without journal, checkpoints, collapse guard or retries, so a
        journaled run with ``collapse_ratio=0`` returns the same result
        and leaves the same model.
        """
        result = self.new_result()
        for spec in self.steps():
            state = StepState()
            outcome = self.run_step(spec, state)
            self.apply_step(spec, outcome, state)
            self.accumulate(result, spec, outcome)
        self.finalize(result)
        return result

    # -- result bookkeeping -------------------------------------------------
    def new_result(self) -> SteppedResult:
        return SteppedResult()

    def accumulate(self, result, spec: StepSpec,
                   outcome: StepOutcome) -> None:
        if outcome.log is not None:
            result.steps.append(dict(outcome.log))

    def finalize(self, result) -> None:
        result.final_accuracy = self.current_accuracy()

    # -- accuracy baseline --------------------------------------------------
    def calibration_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.images, self.labels

    def current_accuracy(self) -> float:
        from ..training import evaluate
        images, labels = self.calibration_arrays()
        return evaluate(self.model, images, labels)

    # -- retry --------------------------------------------------------------
    def retry_config(self, spec: StepSpec, policy, attempt: int):
        """Config override for retry ``attempt`` (1-based) of ``spec``."""
        return policy.layer_config(self.config, spec.index, attempt)

    # -- identity -----------------------------------------------------------
    def fingerprint(self) -> dict:
        """Jsonable identity for the resume digest (config + engine name).

        Performance knobs (:data:`~repro.core.config.PERF_FIELDS`) are
        stripped so a journaled run can resume on another eval path —
        they change how fast a step computes, never what it computes.
        """
        from ..core.config import resume_relevant

        return {"engine": self.describe().name,
                "config": resume_relevant(self.config)}


def available_engines() -> list[str]:
    """Every name :func:`build_engine` accepts."""
    return sorted([*RL_ENGINES, *available_pruners()])


def build_engine(name: str | Pruner, model: Module, data, config=None,
                 **kwargs) -> PruningEngine:
    """Construct any pruning engine from one uniform signature.

    Parameters
    ----------
    name:
        ``"headstart"`` (layer-wise RL), ``"block"`` (residual-block RL),
        any registered metric baseline name (``li17``, ``apoz``, ...) or
        a configured :class:`~repro.pruning.baselines.Pruner` instance.
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
        ``finetune_config=``, ``input_shape=``, ``skip_last=`` for the
        layer engines).
    """
    # Engines live in repro.core, which imports this module for
    # EngineInfo — resolve them lazily to keep the import graph acyclic.
    from ..core.blocks import BlockHeadStart
    from ..core.config import HeadStartConfig
    from ..core.pruner import HeadStartPruner, MetricEngine

    if name == "headstart":
        return HeadStartPruner(model, data,
                               config=config or HeadStartConfig(), **kwargs)
    if name == "block":
        return BlockHeadStart(model, data,
                              config=config or HeadStartConfig(), **kwargs)
    if isinstance(name, Pruner) or name in available_pruners():
        if config is not None:
            kwargs.setdefault("speedup", config.speedup)
            kwargs.setdefault("eval_batch", config.eval_batch)
            kwargs.setdefault("seed", config.seed)
        return MetricEngine(name, model, data, **kwargs)
    raise ValueError(
        f"unknown engine {name!r}; available: {available_engines()}")
