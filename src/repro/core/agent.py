"""Per-layer HeadStart agent — paper Sections III.B/III.C.

For one prunable unit, the agent trains a head-start network with the
shared REINFORCE driver (:mod:`repro.core.reinforce`): actions are
per-feature-map keep decisions, the reward is ``R(A) = ACC - SPD``
(Eq. 2-4) measured by masking the unit and evaluating a calibration
batch, and the returned inception is the best candidate: re-scored on
the full calibration set when that is larger than the batch, otherwise
chosen by the rewards the search measured.  Each accuracy is measured
once: the inception accuracy is the chosen mask's batch accuracy, which
the driver's memo already holds, and a caller that already measured the
unmasked batch accuracy passes it to :meth:`LayerAgent.run`.

The agent picks the driver's evaluator from ``config.eval``: the static
graph executor's masked scoring (the default), or the eager
``channel_mask`` forward when the model cannot be traced or
``graph=False``.  Either scores the masks in process, one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..nn.graph import GraphTraceError
from ..nn.graph import compile as graph_compile
from ..nn.modules import Module
from ..nn.tensor import Tensor
from ..obs import get_recorder
from ..pruning.surgery import channel_mask
from ..pruning.units import ConvUnit
from ..training import evaluate
from .config import HeadStartConfig
from .policy import HeadStartNetwork
from .reinforce import ReinforceDriver
from .reward import reward as compute_reward

__all__ = ["AgentResult", "LayerAgent"]


@dataclass
class AgentResult:
    """Outcome of training one layer's head-start network.

    ``keep_mask`` is the learnt inception; the histories expose the
    RL dynamics for the ablation benchmarks.
    """

    keep_mask: np.ndarray
    probabilities: np.ndarray
    iterations: int
    reward_history: list[float] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)
    inception_accuracy: float = float("nan")

    @property
    def kept_maps(self) -> int:
        return int(np.count_nonzero(self.keep_mask))


class LayerAgent:
    """Trains a head-start network to find one layer's optimal inception.

    Parameters
    ----------
    model:
        The (possibly partially pruned) model being compressed.
    unit:
        The prunable unit this agent controls.
    images / labels:
        Calibration data for reward evaluation.  The per-iteration batch
        is capped at ``config.eval_batch``; when the full set is larger
        it re-scores the finalist actions, so a lucky small-batch action
        is not selected.  When the batch is the whole set, a re-score
        would repeat the search's own evaluations, and the finalist with
        the best measured reward is chosen instead.
    config:
        HeadStart hyper-parameters.
    """

    def __init__(self, model: Module, unit: ConvUnit,
                 images: np.ndarray, labels: np.ndarray,
                 config: HeadStartConfig | None = None):
        self.model = model
        self.unit = unit
        config = config if config is not None else HeadStartConfig()
        self.config = config
        batch = min(config.eval_batch, len(images))
        self.images = images[:batch]
        self.labels = labels[:batch]
        self.full_images = images
        self.full_labels = labels
        self.rng = np.random.default_rng(config.seed)
        self.policy = HeadStartNetwork(unit.num_maps,
                                       noise_size=config.noise_size,
                                       hidden_channels=config.hidden_channels,
                                       keep_ratio=1.0 / config.speedup,
                                       rng=self.rng)
        #: Static-graph executor for this layer's reward evals, built
        #: lazily by :meth:`run` when ``config.eval.graph`` is on.
        self._graph = None

    # -- reward plumbing ----------------------------------------------------
    def _build_graph(self):
        """Compile the model once for this layer, or fall back to eager.

        A model the tracer cannot express (data-dependent control flow)
        raises :class:`~repro.nn.graph.GraphTraceError`; the agent then
        keeps the eager path and journals nothing — the ``graph/*``
        counters are operational, so a fallen-back run still diffs clean
        against an eager one.
        """
        rec = get_recorder()
        try:
            executor = graph_compile(self.model, Tensor(self.images[:1]),
                                     fuse=self.config.eval.fused)
            executor.set_mask_unit(self.unit.conv, self.unit.bn)
        except GraphTraceError as error:
            rec.counter("graph/fallbacks", 1, operational=True,
                        layer=self.unit.name, reason=str(error))
            return None
        rec.counter("graph/compiled", 1, operational=True,
                    layer=self.unit.name, nodes=executor.num_nodes)
        return executor

    def _accuracies(self, masks: list[np.ndarray],
                    full: bool = False) -> list[float]:
        """Masked calibration accuracy of each mask, in order.

        The graph executor scores one mask per call — the eager path's
        granularity, so per-evaluation counts and timings compare one
        to one.
        """
        images = self.full_images if full else self.images
        labels = self.full_labels if full else self.labels
        masks = [np.asarray(mask) > 0.5 for mask in masks]
        if self._graph is None:
            accuracies = []
            for mask in masks:
                with channel_mask(self.unit, mask):
                    accuracies.append(evaluate(self.model, images, labels))
            return accuracies
        # Distinct prefix-cache keys: the batch and full calibration sets
        # feed different boundary activations.
        key = f"{self.unit.name}@{'full' if full else 'batch'}"
        return [float(self._graph.masked_accuracy(images, labels, [mask],
                                                  key=key)[0])
                for mask in masks]

    # -- main loop -----------------------------------------------------------
    def run(self, original_accuracy: float | None = None) -> AgentResult:
        """Train the policy until the reward stabilises; return the inception.

        ``original_accuracy`` is the unmasked model's accuracy on the
        calibration batch, for a caller that has already measured it
        (the journaled runner's collapse baseline, when the batch is
        the whole calibration set); otherwise the agent measures it as
        the all-ones mask's accuracy, which under graph eval computes
        the prefix the search reuses and costs one suffix.
        """
        if self.config.eval.graph:
            self._graph = self._build_graph()
        if original_accuracy is None:
            original_accuracy = self._accuracies(
                [np.ones(self.unit.num_maps, dtype=bool)])[0]
        config = self.config

        def reward(accuracy: float, action: np.ndarray) -> float:
            return compute_reward(accuracy, original_accuracy, action,
                                  config.speedup,
                                  acc_weight=config.acc_weight,
                                  spd_weight=config.spd_weight)

        # Finalists are re-scored only on data the search has not seen.
        rescore = len(self.full_images) > len(self.images)
        outcome = ReinforceDriver(
            self.policy, self._accuracies, reward, config, self.rng,
            final_evaluate=partial(self._accuracies, full=True)
            if rescore else None,
            scope=self.unit.name).run()
        return AgentResult(
            keep_mask=outcome.action.astype(bool),
            probabilities=outcome.probabilities,
            iterations=outcome.iterations,
            reward_history=outcome.reward_history,
            loss_history=outcome.loss_history,
            inception_accuracy=outcome.accuracy)
