"""Per-layer HeadStart agent — paper Sections III.B/III.C.

For one prunable unit, the agent trains a head-start network with the
shared REINFORCE driver (:mod:`repro.core.reinforce`): actions are
per-feature-map keep decisions, the reward is ``R(A) = ACC - SPD``
(Eq. 2-4) measured by masking the unit and evaluating a calibration
batch, and the returned inception is the best candidate re-scored on the
full calibration set.

The agent picks the driver's evaluator from ``config.eval``: the static
graph executor's masked scoring (the default), the eager
``channel_mask`` forward when the model cannot be traced or
``graph=False``, and either of them behind a worker pool's ``map`` when
``workers > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .evalcache import EvalCache
from .policy import HeadStartNetwork
from .reinforce import ReinforceDriver
from .reward import reward as compute_reward

__all__ = ["AgentResult", "LayerAgent"]


@dataclass
class AgentResult:
    """Outcome of training one layer's head-start network.

    ``keep_mask`` is the learnt inception; the histories expose the
    RL dynamics for the ablation benchmarks.  ``cache_stats`` is the
    reward-memoization summary when the eval cache was enabled
    (``None`` otherwise) — runtime telemetry only, never journaled.
    """

    keep_mask: np.ndarray
    probabilities: np.ndarray
    iterations: int
    reward_history: list[float] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)
    inception_accuracy: float = float("nan")
    cache_stats: dict | None = None

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
        is capped at ``config.eval_batch``; the full set re-scores
        finalist actions so a lucky small-batch action is not selected.
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
                                     fuse=self.config.eval.fused,
                                     mask_batch=self.config.eval.mask_batch)
            executor.set_mask_unit(
                self.unit.conv, self.unit.bn,
                tied=[(tie.conv, tie.bn) for tie in self.unit.tied])
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
        to one — unless ``eval.mask_batch`` folds them into one forward.
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
        calls = [masks] if self.config.eval.mask_batch \
            else [[mask] for mask in masks]
        return [float(accuracy) for call in calls
                for accuracy in self._graph.masked_accuracy(
                    images, labels, call, key=key)]

    def _evaluator(self, original_accuracy: float, full: bool = False):
        """The driver's list-of-masks -> list-of-rewards callable."""
        config = self.config

        def rewards(actions: list[np.ndarray]) -> list[float]:
            return [compute_reward(accuracy, original_accuracy, action,
                                   config.speedup,
                                   acc_weight=config.acc_weight,
                                   spd_weight=config.spd_weight)
                    for accuracy, action in
                    zip(self._accuracies(actions, full=full), actions)]
        return rewards

    def _build_pool(self, evaluate_batch, evaluate_full):
        """A supervised :class:`~repro.runtime.pool.EvalPool`.

        Workers score one action per task with the in-process
        evaluators (graph or eager — they fork after compilation) and
        keep private caches; the parent cache stays authoritative and
        only ever sees values through the driver's lookup/insert
        sequence.  Calibration arrays are moved into shared memory
        first, so the forked workers map one copy of the data.  Returns
        ``(pool, shared, originals)`` for the caller's finally-block to
        unwind.
        """
        from ..runtime.pool import EvalPool, SharedArrays
        shared = SharedArrays(images=self.images, labels=self.labels,
                              full_images=self.full_images,
                              full_labels=self.full_labels)
        originals = (self.images, self.labels,
                     self.full_images, self.full_labels)
        self.images = shared["images"]
        self.labels = shared["labels"]
        self.full_images = shared["full_images"]
        self.full_labels = shared["full_labels"]
        pool = EvalPool({"batch": lambda action: evaluate_batch([action])[0],
                         "final": lambda action: evaluate_full([action])[0]},
                        workers=self.config.eval.workers,
                        task_seconds=self.config.eval.task_seconds,
                        task_retries=self.config.eval.task_retries,
                        seed=self.config.seed,
                        scope=self.unit.name,
                        cache_size=self.config.eval.cache_size,
                        worker_cache=self.config.eval.cache)
        return pool, shared, originals

    # -- main loop -----------------------------------------------------------
    def run(self) -> AgentResult:
        """Train the policy until the reward stabilises; return the inception."""
        if self.config.eval.graph:
            self._graph = self._build_graph()
        original_accuracy = evaluate(self.model, self.images, self.labels)
        evaluate_batch = self._evaluator(original_accuracy)
        evaluate_full = self._evaluator(original_accuracy, full=True)
        # A fresh cache per run, scoped to this layer's current model
        # state; finalists (full calibration set) are never cached.
        cache = None
        if self.config.eval.cache:
            cache = EvalCache(maxsize=self.config.eval.cache_size,
                              scope=self.unit.name)
        pool = shared = originals = None
        if self.config.eval.workers > 0:
            pool, shared, originals = self._build_pool(evaluate_batch,
                                                       evaluate_full)
            evaluate_batch = lambda actions: pool.map(actions, fn="batch")
            evaluate_full = lambda actions: pool.map(actions, fn="final")
        try:
            outcome = ReinforceDriver(
                self.policy, evaluate_batch, self.config, self.rng,
                final_evaluate=evaluate_full, cache=cache).run()
        finally:
            if pool is not None:
                pool.close()
            if originals is not None:
                (self.images, self.labels,
                 self.full_images, self.full_labels) = originals
            if shared is not None:
                shared.close()
        keep_mask = outcome.action.astype(bool)
        cache_stats = None
        if cache is not None:
            cache_stats = cache.stats()
            get_recorder().gauge("evalcache/hit_rate", cache.hit_rate,
                                 layer=self.unit.name)
            if pool is not None:
                cache_stats["workers"] = pool.cache_summary()
        if self._graph is not None:
            arena = self._graph.arena_stats
            get_recorder().gauge("graph/arena_reuses", arena["reuses"],
                                 operational=True, layer=self.unit.name)
        return AgentResult(
            keep_mask=keep_mask, probabilities=outcome.probabilities,
            iterations=outcome.iterations,
            reward_history=outcome.reward_history,
            loss_history=outcome.loss_history,
            inception_accuracy=self._accuracies([keep_mask])[0],
            cache_stats=cache_stats)
