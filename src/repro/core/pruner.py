"""Whole-model layer-by-layer pruning (paper Sections III & V.A.1).

Layers are pruned iteratively in forward order.  Each layer's keep mask
is decided — by a dedicated head-start network trained until its reward
stabilises (:class:`HeadStartPruner`), or by a metric baseline's
``select`` (:class:`MetricEngine`) — then applied with physical surgery;
the model is fine-tuned and the pipeline moves to the next layer.  That
tail is one implementation (:class:`LayerPruner`), so every arm of the
paper's Tables 1–3 prunes, fine-tunes and logs the same way.  The
per-layer log (surviving maps, inception accuracy, post-fine-tune
accuracy) is exactly the content of the paper's Table 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..data.datasets import Dataset, as_arrays, as_dataset
from ..nn.modules import Module
from ..obs import get_recorder
from ..pruning.baselines.common import Pruner, PruningContext, build_pruner
from ..pruning.engine import (EngineInfo, StepOutcome, StepSpec, StepState,
                              SteppedEngineBase, _unit_by_name,
                              budget_keep_count)
from ..pruning.graph import validate_units
from ..pruning.stats import ModelStats, profile_model
from ..pruning.surgery import prune_unit
from ..pruning.units import ConvUnit
from ..runtime import faults
from ..training import evaluate_dataset
from .agent import AgentResult, LayerAgent
from .config import HeadStartConfig, resume_relevant
from .finetune import FinetuneConfig, finetune

__all__ = ["LayerLog", "PruneResult", "LayerPruner", "HeadStartPruner",
           "MetricEngine"]

# Distinguishes "use a fresh default schedule" from finetune_config=None,
# which explicitly disables fine-tuning (the Figure-3 protocol).
_DEFAULT_FINETUNE = object()


@dataclass
class LayerLog:
    """One row of the Table-1-style whole-model pruning log."""

    name: str
    maps_before: int
    maps_after: int
    inception_accuracy: float
    finetuned_accuracy: float | None
    agent_iterations: int
    params_m: float | None = None
    flops_b: float | None = None


@dataclass
class PruneResult:
    """Full outcome of a whole-model layer-by-layer run.

    ``agent_results`` holds each HeadStart-searched layer's agent result;
    it stays empty for a metric engine.
    """

    layers: list[LayerLog] = field(default_factory=list)
    final_accuracy: float | None = None
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    agent_results: dict[str, AgentResult] = field(default_factory=dict)

    @property
    def learnt_compression(self) -> float:
        """Fraction of feature maps kept across pruned layers."""
        before = sum(l.maps_before for l in self.layers)
        after = sum(l.maps_after for l in self.layers)
        return after / before if before else 1.0


class LayerPruner(SteppedEngineBase):
    """Layer by layer: decide a unit's mask, cut it, fine-tune, log a row.

    A subclass decides each step's keep mask in ``run_step``; this base
    does the rest of the step (surgery, inception accuracy, fine-tuning,
    test accuracy, the :class:`LayerLog` row), the final accuracy, mask
    replay on resume and the fallback plumbing.  Units are re-derived
    from ``self.model`` on each call — the harness replaces ``model``
    wholesale on rollback, so cached
    :class:`~repro.pruning.units.ConvUnit` handles would go stale.

    Parameters
    ----------
    model:
        Model exposing ``prune_units()``.
    train_set / test_set:
        Fine-tuning data and the reporting test set.  Either may be a
        :class:`Dataset` or a raw ``(images, labels)`` pair — every
        engine shares one coercion path
        (:func:`repro.data.datasets.as_arrays`).
    speedup:
        Per-layer survivor budget ``C / sp`` (Eq. 1 constraint).
    finetune_config:
        Fine-tuning schedule between layers; ``None`` disables
        fine-tuning (the Figure-3 single-layer protocol).
    calibration:
        ``(images, labels)`` the masks are decided on and the inception
        accuracy is measured on.  Defaults to the first ``eval_batch``
        training examples.
    input_shape:
        Image shape for per-layer params/FLOPs logging; when ``None``
        the static columns are omitted.
    skip_last:
        Whether a whole-model run, plain or journaled, leaves the final
        prunable unit intact (the classifier's feature extractor, paper
        protocol).
    """

    def __init__(self, model: Module, train_set, test_set, *,
                 speedup: float, eval_batch: int,
                 finetune_config: FinetuneConfig | None,
                 calibration: tuple[np.ndarray, np.ndarray] | None,
                 input_shape: tuple[int, int, int] | None,
                 skip_last: bool):
        units = model.prune_units()
        if not units:
            raise ValueError("model exposes no prunable units")
        problems = validate_units(units)
        if problems:
            raise ValueError(
                "model's prune_units() wiring is inconsistent: "
                + "; ".join(problems))
        self.model = model
        self.train_set = as_dataset(train_set)
        self.test_set = as_dataset(test_set) if test_set is not None else None
        self.speedup = float(speedup)
        if finetune_config is _DEFAULT_FINETUNE:
            finetune_config = FinetuneConfig()
        self.finetune_config = finetune_config
        self.input_shape = input_shape
        if calibration is None:
            calibration = as_arrays(self.train_set, limit=eval_batch)
        self.calibration = calibration
        self.skip_last = bool(skip_last)

    def _stats(self) -> ModelStats | None:
        if self.input_shape is None:
            return None
        return profile_model(self.model, self.input_shape)

    # -- plan ---------------------------------------------------------------
    def active_units(self) -> list[ConvUnit]:
        """The units a whole-model run prunes, in forward order."""
        units = self.model.prune_units()
        return units[:-1] if (self.skip_last and len(units) > 1) else units

    def steps(self) -> list[StepSpec]:
        return [StepSpec(name=unit.name, index=index)
                for index, unit in enumerate(self.active_units())]

    def run_steps(self) -> PruneResult:
        """The in-process step loop under one ``pruner.run`` span."""
        with get_recorder().span("pruner.run", engine=self.describe().name):
            return super().run_steps()

    def run(self) -> PruneResult:
        """Prune every layer, fine-tuning in between if a schedule is set.

        The same steps a journaled run takes (:meth:`run_steps`): each
        layer is decided on the model earlier layers' surgery and
        fine-tuning left.
        """
        return self.run_steps()

    # -- stepped protocol (driven by repro.runtime.harness) -----------------
    def apply_step(self, spec: StepSpec, outcome: StepOutcome,
                   state: StepState) -> None:
        """Surgery + inter-layer fine-tune; fills the Table-1 log row."""
        unit = _unit_by_name(self.model, spec.name)
        mask = np.asarray(outcome.payload["mask"], dtype=bool)
        maps_before = unit.num_maps
        outcome.removed = prune_unit(unit, mask)
        agent_result = outcome.extra.get("agent_result")
        if agent_result is not None:
            inception = float(agent_result.inception_accuracy)
            iterations = int(agent_result.iterations)
        else:
            # A metric- or fallback-selected mask: no agent ran, so the
            # "inception" accuracy is the post-surgery calibration one.
            inception = self.current_accuracy()
            iterations = 0
        if self.finetune_config is not None:
            finetune(self.model, self.train_set, config=self.finetune_config)
        finetuned_accuracy = None
        if self.test_set is not None:
            finetuned_accuracy = evaluate_dataset(self.model, self.test_set)
        stats = self._stats()
        outcome.log = dataclasses.asdict(LayerLog(
            name=spec.name, maps_before=maps_before,
            maps_after=int(np.count_nonzero(mask)),
            inception_accuracy=inception,
            finetuned_accuracy=finetuned_accuracy,
            agent_iterations=iterations,
            params_m=stats.params_m if stats else None,
            flops_b=stats.flops_b if stats else None))
        rec = get_recorder()
        rec.counter("pruner/layers_pruned")
        rec.counter("pruner/maps_removed", outcome.removed)
        rec.gauge("pruner/inception_accuracy", inception, layer=spec.name)
        if finetuned_accuracy is not None:
            rec.gauge("pruner/finetuned_accuracy", finetuned_accuracy,
                      layer=spec.name)
        if state.need_accuracy:
            outcome.accuracy = self.current_accuracy()

    def replay_step(self, spec: StepSpec, payload: dict) -> None:
        """Re-run the surgery of a journaled ``mask`` without re-deciding."""
        payload = payload or {}
        if "mask" in payload:
            prune_unit(_unit_by_name(self.model, spec.name),
                       np.asarray(payload["mask"], dtype=bool))

    def apply(self, result: PruneResult) -> int:
        """Physically apply ``result.masks``; returns feature maps removed.

        A unit already at its mask's kept count is skipped, so applying
        a result whose run did the surgery is a no-op returning 0, and
        on a fresh copy of the architecture the masks are replayed in
        order.  A mask that does not fit its unit raises ``ValueError``.
        Part of the :class:`~repro.pruning.PruningEngine` protocol.
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

    # -- fallback -----------------------------------------------------------
    def fallback_keep_count(self, name: str) -> int:
        """The survivor budget a fallback engine must honour for a unit."""
        unit = _unit_by_name(self.model, name)
        return budget_keep_count(unit.num_maps, self.speedup)

    def fallback_outcome(self, spec: StepSpec, mask: np.ndarray,
                         engine_name: str) -> StepOutcome:
        """Wrap a fallback-selected mask as this engine's step outcome."""
        return StepOutcome(payload={"mask": np.asarray(mask, dtype=bool),
                                    "engine": engine_name})

    # -- result bookkeeping -------------------------------------------------
    def calibration_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.calibration

    def new_result(self) -> PruneResult:
        return PruneResult()

    def accumulate(self, result: PruneResult, spec: StepSpec,
                   outcome: StepOutcome) -> None:
        if outcome.log is not None:
            result.layers.append(LayerLog(**outcome.log))
        result.masks[spec.name] = np.asarray(outcome.payload["mask"],
                                             dtype=bool)
        agent_result = outcome.extra.get("agent_result")
        if agent_result is not None:
            result.agent_results[spec.name] = agent_result

    def finalize(self, result: PruneResult) -> None:
        """Final accuracy, plus the run's closing gauges.

        With a test set, the last layer row already measured the model
        the run ends with: a skipped or rolled-back step restores the
        model that row measured.  So its accuracy is reused, and only a
        run with no row evaluates the test set here.
        """
        if self.test_set is None:
            result.final_accuracy = self.current_accuracy()
        elif result.layers:
            result.final_accuracy = result.layers[-1].finetuned_accuracy
        else:
            result.final_accuracy = evaluate_dataset(self.model,
                                                     self.test_set)
        rec = get_recorder()
        rec.gauge("pruner/final_accuracy", result.final_accuracy)
        rec.gauge("pruner/learnt_compression", result.learnt_compression)


class HeadStartPruner(LayerPruner):
    """Drives layer-by-layer HeadStart pruning of a whole model.

    Prefer the :func:`repro.pruning.build_engine` factory over calling
    this constructor directly; the constructor remains supported.

    Parameters
    ----------
    config:
        RL hyper-parameters (shared by every layer's agent);
        ``config.eval_batch`` sizes the default calibration batch.
    finetune_config:
        Defaults to a fresh :class:`FinetuneConfig`.

    The other parameters are :class:`LayerPruner`'s.
    """

    def __init__(self, model: Module, train_set: Dataset,
                 test_set: Dataset | None = None,
                 config: HeadStartConfig | None = None,
                 finetune_config: FinetuneConfig | None = _DEFAULT_FINETUNE,
                 calibration: tuple[np.ndarray, np.ndarray] | None = None,
                 input_shape: tuple[int, int, int] | None = None,
                 skip_last: bool = True):
        self.config = config if config is not None else HeadStartConfig()
        super().__init__(model, train_set, test_set,
                         speedup=self.config.speedup,
                         eval_batch=self.config.eval_batch,
                         finetune_config=finetune_config,
                         calibration=calibration, input_shape=input_shape,
                         skip_last=skip_last)

    def run_step(self, spec: StepSpec, state: StepState) -> StepOutcome:
        """Train the layer's head-start agent; no surgery yet.

        The decision (keep mask) is the journalable payload; the trained
        agent result rides along in ``extra`` for :meth:`apply_step` and
        the in-memory result's ``agent_results``.  When the agent's batch
        is the whole calibration set, the harness's baseline accuracy
        is exactly the agent's original accuracy, and is passed on.
        """
        unit = _unit_by_name(self.model, spec.name)
        config = state.config_override
        if config is None:
            config = dataclasses.replace(
                self.config, seed=self.config.seed + spec.index)
        original_accuracy = None
        if len(self.calibration[0]) <= config.eval_batch:
            original_accuracy = state.baseline_accuracy
        with get_recorder().span("prune_layer", layer=unit.name,
                                 maps_before=unit.num_maps):
            agent_result = LayerAgent(self.model, unit, *self.calibration,
                                      config=config).run(original_accuracy)
        mask = np.asarray(agent_result.keep_mask, dtype=bool)
        return StepOutcome(payload={"mask": mask},
                           extra={"agent_result": agent_result})

    def fingerprint(self) -> dict:
        # Performance knobs (graph eval) do not change what a step
        # computes, so they stay out of the resume digest — a journaled
        # run may be resumed on another eval path.
        return {"engine": "headstart", "config": resume_relevant(self.config),
                "finetune": self.finetune_config}

    def describe(self) -> EngineInfo:
        """Engine metadata (:class:`repro.pruning.PruningEngine` protocol)."""
        return EngineInfo(
            name="headstart", kind="rl-map",
            action_space="binary keep decision per feature map, per layer",
            description="Layer-by-layer HeadStart: a REINFORCE-trained "
                        "head-start network learns each layer's optimal "
                        "inception, applied with surgery and fine-tuned.")


class MetricEngine(LayerPruner):
    """A metric baseline (Li'17, APoZ, ...) as a layer engine.

    Each step keeps the ``C / sp`` maps the pruner's ``select`` ranks
    highest on the calibration batch, on the model that earlier layers'
    surgery and fine-tuning left; the rest of the step is
    :class:`LayerPruner`'s.  Step ``i`` of attempt ``a`` draws from its
    own stream ``default_rng((seed, i, a))``, so runs at different
    seeds share no draws.

    Parameters
    ----------
    pruner:
        A registered pruner name or a :class:`Pruner` instance.
    speedup / eval_batch / seed:
        Survivor budget, calibration-batch size (the first ``eval_batch``
        training examples) and base seed.
    finetune_config:
        Defaults to ``None``: no fine-tuning between layers.

    The other parameters are :class:`LayerPruner`'s.
    """

    def __init__(self, pruner: Pruner | str, model: Module, train_set,
                 test_set=None, speedup: float = 2.0, eval_batch: int = 128,
                 seed: int = 0,
                 finetune_config: FinetuneConfig | None = None,
                 input_shape: tuple[int, int, int] | None = None,
                 skip_last: bool = True):
        self.pruner = build_pruner(pruner) if isinstance(pruner, str) \
            else pruner
        self.seed = int(seed)
        super().__init__(model, train_set, test_set, speedup=speedup,
                         eval_batch=eval_batch,
                         finetune_config=finetune_config,
                         calibration=None, input_shape=input_shape,
                         skip_last=skip_last)

    def run_step(self, spec: StepSpec, state: StepState) -> StepOutcome:
        unit = _unit_by_name(self.model, spec.name)
        keep_count = budget_keep_count(unit.num_maps, self.speedup)
        context = PruningContext(
            *self.calibration,
            np.random.default_rng((self.seed, spec.index, state.attempt)))
        faults.crash_point("metric.select")
        with get_recorder().span("prune_layer", layer=unit.name,
                                 maps_before=unit.num_maps):
            mask = self.pruner.select(self.model, unit, keep_count, context)
        return StepOutcome(payload={"mask": np.asarray(mask, dtype=bool)})

    def retry_config(self, spec: StepSpec, policy, attempt: int):
        # Metric selection has no trainable config; retries reseed the
        # pruning context through ``state.attempt`` in run_step instead.
        return None

    def fingerprint(self) -> dict:
        # ``streams`` names the per-step rng layout, so a journal whose
        # steps drew from another layout is refused, not resumed.
        return {"engine": self.describe().name, "pruner": vars(self.pruner),
                "speedup": self.speedup, "seed": self.seed,
                "skip_last": self.skip_last, "finetune": self.finetune_config,
                "streams": "seed-index-attempt"}

    def describe(self) -> EngineInfo:
        return EngineInfo(
            name=self.pruner.name or type(self.pruner).__name__,
            kind="metric",
            action_space="top-k feature maps per layer by a local score",
            description=(type(self.pruner).__doc__ or "").strip()
            .split("\n")[0])
