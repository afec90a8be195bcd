"""Whole-model HeadStart pruning (paper Sections III & V.A.1).

Layers are pruned iteratively in forward order.  For each layer a
dedicated head-start network is trained until its reward stabilises; the
resulting inception is applied with physical surgery, the model is
fine-tuned, and the pipeline moves to the next layer.  The per-layer log
(surviving maps, inception accuracy, post-fine-tune accuracy) is exactly
the content of the paper's Table 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..data.datasets import Dataset, as_arrays, as_dataset
from ..nn.modules import Module
from ..obs import get_recorder
from ..pruning.engine import (EngineInfo, StepOutcome, StepSpec, StepState,
                              SteppedEngineBase, _unit_by_name)
from ..pruning.graph import validate_units
from ..pruning.stats import ModelStats, profile_model
from ..pruning.surgery import prune_unit
from ..training import evaluate_dataset
from .agent import AgentResult, LayerAgent
from .config import HeadStartConfig, resume_relevant
from .finetune import FinetuneConfig, finetune

__all__ = ["LayerLog", "HeadStartResult", "HeadStartPruner"]

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
class HeadStartResult:
    """Full outcome of a whole-model HeadStart run."""

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


class HeadStartPruner(SteppedEngineBase):
    """Drives layer-by-layer HeadStart pruning of a whole model.

    Parameters
    ----------
    model:
        Model exposing ``prune_units()``.
    train_set / test_set:
        Fine-tuning data and the reporting test set.  Either may be a
        :class:`Dataset` or a raw ``(images, labels)`` pair — every
        engine shares one coercion path
        (:func:`repro.data.datasets.as_arrays`).  Prefer the
        :func:`repro.pruning.build_engine` factory over calling this
        constructor directly; the constructor remains supported.
    config:
        RL hyper-parameters (shared by every layer's agent).
    finetune_config:
        Fine-tuning schedule between layers; ``None`` disables
        fine-tuning (the Figure-3 single-layer protocol).
    calibration:
        ``(images, labels)`` used for reward evaluation.  Defaults to a
        stacked sample of the training set.
    input_shape:
        Image shape for per-layer params/FLOPs logging; when ``None``
        the static columns are omitted.
    skip_last:
        Whether a whole-model run, plain or journaled, leaves the final
        prunable unit intact (the classifier's feature extractor, paper
        protocol).
    """

    step_kind = "layer"

    def __init__(self, model: Module, train_set: Dataset,
                 test_set: Dataset | None = None,
                 config: HeadStartConfig | None = None,
                 finetune_config: FinetuneConfig | None = _DEFAULT_FINETUNE,
                 calibration: tuple[np.ndarray, np.ndarray] | None = None,
                 input_shape: tuple[int, int, int] | None = None,
                 skip_last: bool = True):
        problems = validate_units(model.prune_units())
        if problems:
            raise ValueError(
                "model's prune_units() wiring is inconsistent: "
                + "; ".join(problems))
        self.model = model
        self.train_set = as_dataset(train_set)
        self.test_set = as_dataset(test_set) if test_set is not None else None
        config = config if config is not None else HeadStartConfig()
        self.config = config
        if finetune_config is _DEFAULT_FINETUNE:
            finetune_config = FinetuneConfig()
        self.finetune_config = finetune_config
        self.input_shape = input_shape
        if calibration is None:
            calibration = as_arrays(self.train_set, limit=config.eval_batch)
        self.calibration = calibration
        self.skip_last = bool(skip_last)

    def _stats(self) -> ModelStats | None:
        if self.input_shape is None:
            return None
        return profile_model(self.model, self.input_shape)

    def run_steps(self) -> HeadStartResult:
        """The in-process step loop under one ``pruner.run`` span."""
        with get_recorder().span("pruner.run", engine="headstart"):
            return super().run_steps()

    def run(self) -> HeadStartResult:
        """Prune every layer, fine-tuning in between; returns the full log.

        The same steps a journaled run takes (:meth:`run_steps`): each
        layer is decided on the model earlier layers' surgery and
        fine-tuning left.
        """
        return self.run_steps()

    # -- stepped protocol (driven by repro.runtime.harness) -----------------
    def run_step(self, spec: StepSpec, state: StepState) -> StepOutcome:
        """Train the layer's head-start agent; no surgery yet.

        The decision (keep mask) is the journalable payload; the trained
        agent result rides along in ``extra`` for :meth:`apply_step` and
        the in-memory :class:`HeadStartResult`.  When the agent's batch
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
            # Fallback-produced mask: no agent ran, so the "inception"
            # accuracy is simply the post-surgery calibration accuracy.
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

    def calibration_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.calibration

    def new_result(self) -> HeadStartResult:
        return HeadStartResult()

    def accumulate(self, result: HeadStartResult, spec: StepSpec,
                   outcome: StepOutcome) -> None:
        if outcome.log is not None:
            result.layers.append(LayerLog(**outcome.log))
        result.masks[spec.name] = np.asarray(outcome.payload["mask"],
                                             dtype=bool)
        agent_result = outcome.extra.get("agent_result")
        if agent_result is not None:
            result.agent_results[spec.name] = agent_result

    def finalize(self, result: HeadStartResult) -> None:
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

    def fingerprint(self) -> dict:
        # Performance knobs (eval cache, graph eval, pool) do not
        # change what a step computes, so they stay out of the resume
        # digest — a journaled run may be resumed with caching toggled.
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
