"""Block-level HeadStart for residual networks (paper Section V.A.2).

Instead of feature maps, the action vector covers the *droppable*
residual blocks of a ResNet (blocks with identity shortcuts; transition
blocks must survive).  A dropped block is bypassed — the shortcut
carries the signal, as in stochastic depth / BlockDrop — so masked
evaluation is exact and cheap.  The shared REINFORCE driver trains a
single head-start network whose chosen action is the learnt block
pattern (the paper learns ``<10, 10, 7>`` from ResNet-110's
``<18, 18, 18>``).

The speedup term counts whole blocks: ``SPD = |B / ||A||_0 - sp|`` where
``B`` is the total block count and ``||A||_0`` the surviving blocks
(transition blocks always count as kept).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from ..data.datasets import as_arrays
from ..models.resnet import ResNet
from ..obs import get_recorder
from ..pruning.engine import (EngineInfo, StepOutcome, StepSpec, StepState,
                              SteppedEngineBase)
from ..training import evaluate
from .config import HeadStartConfig
from .evalcache import EvalCache, mask_key
from .policy import HeadStartNetwork
from .reinforce import ReinforceDriver
from .reward import acc_term

__all__ = ["BlockAgentResult", "BlockHeadStart", "bypass_blocks"]


@contextlib.contextmanager
def bypass_blocks(model: ResNet, droppable: list[tuple[int, int]],
                  action: np.ndarray):
    """Temporarily make de-selected droppable blocks act as identity."""
    groups = model.groups()
    patched = []
    for (g, b), keep in zip(droppable, np.asarray(action).astype(bool)):
        if keep:
            continue
        block = groups[g][b]
        object.__setattr__(block, "forward", lambda x: x)
        patched.append(block)
    try:
        yield
    finally:
        for block in patched:
            object.__delattr__(block, "forward")


@dataclass
class BlockAgentResult:
    """Outcome of block-level HeadStart on a ResNet."""

    keep_action: np.ndarray
    probabilities: np.ndarray
    iterations: int
    reward_history: list[float] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)
    inception_accuracy: float = float("nan")
    blocks_per_group: tuple[int, int, int] = (0, 0, 0)
    #: ``keep_action`` expanded over the block layout of the model it was
    #: decided on: ``keep_by_group[g][b]`` keeps block ``b`` of group ``g``.
    keep_by_group: list[list[bool]] = field(default_factory=list)


class BlockHeadStart(SteppedEngineBase):
    """Learns which residual blocks of a ResNet to keep.

    Parameters
    ----------
    model:
        The ResNet to compress (e.g. ResNet-110).
    data:
        Calibration data for reward evaluation, a ``Dataset`` or an
        ``(images, labels)`` pair.  Rewards use the first
        ``config.eval_batch`` images; the whole set (usually the
        training set, so larger than the batch) re-scores the finalist
        actions.  The inception accuracy is the chosen action's batch
        accuracy, as the search measured it.
    config:
        HeadStart hyper-parameters; ``config.speedup`` is interpreted
        over blocks (sp=2 halves the block count).

    Each search reads the block layout from the model the engine holds
    at that moment, which :meth:`apply` replaces; :attr:`total_blocks`
    stays the block count of the model the engine was built with.
    """

    def __init__(self, model: ResNet, data, *,
                 config: HeadStartConfig | None = None):
        self.model = model
        self.config = config = config if config is not None \
            else HeadStartConfig()
        images, labels = as_arrays(data)
        batch = min(config.eval_batch, len(images))
        self.images = images[:batch]
        self.labels = labels[:batch]
        self.full_images = images
        self.full_labels = labels
        if not self.droppable:
            raise ValueError("model has no droppable residual blocks")
        self.total_blocks = sum(model.blocks_per_group)

    @property
    def droppable(self) -> list[tuple[int, int]]:
        """The current model's droppable ``(group, block)`` indices."""
        return self.model.droppable_blocks()

    # -- reward ----------------------------------------------------------
    def _accuracies(self, actions: list[np.ndarray],
                    full: bool = False) -> list[float]:
        """Calibration accuracy with each action's blocks bypassed."""
        images = self.full_images if full else self.images
        labels = self.full_labels if full else self.labels
        droppable = self.droppable
        accuracies = []
        for action in actions:
            with bypass_blocks(self.model, droppable, action):
                accuracies.append(evaluate(self.model, images, labels))
        return accuracies

    def _evaluator(self, config: HeadStartConfig, original_accuracy: float,
                   full: bool = False, measured: dict | None = None):
        """The driver's list-of-actions -> list-of-rewards callable.

        With ``measured``, each accuracy is also recorded there under
        its :func:`~repro.core.evalcache.mask_key`.  Graph eval does not
        apply here: block bypass rewires whole residual blocks, which
        the traced unit-mask split cannot express, so every reward is an
        eager forward.
        """
        total = sum(self.model.blocks_per_group)
        forced_keep = total - len(self.droppable)

        def rewards(actions: list[np.ndarray]) -> list[float]:
            accuracies = self._accuracies(actions, full)
            if measured is not None:
                measured.update(zip(map(mask_key, actions), accuracies))
            values = []
            for accuracy, action in zip(accuracies, actions):
                kept = forced_keep + int(np.count_nonzero(action))
                spd = abs(total / max(kept, 1) - config.speedup)
                values.append(config.acc_weight
                              * acc_term(accuracy, original_accuracy)
                              - config.spd_weight * spd)
            return values
        return rewards

    # -- keep pattern helpers ----------------------------------------------
    def keep_mask_by_group(self, action: np.ndarray) -> list[list[bool]]:
        """Expand a droppable-block action to the current model's layout.

        Raises ``ValueError`` when the action does not have one entry per
        droppable block of the current model.
        """
        droppable = self.droppable
        flags = np.asarray(action).astype(bool)
        if flags.shape != (len(droppable),):
            raise ValueError(
                f"action has {flags.size} entries but the model has "
                f"{len(droppable)} droppable blocks")
        keep = [[True] * len(group) for group in self.model.groups()]
        for (g, b), flag in zip(droppable, flags):
            keep[g][b] = bool(flag)
        return keep

    def blocks_per_group(self, action: np.ndarray) -> tuple[int, int, int]:
        """Surviving block counts per group for an action.

        Matches :meth:`~repro.models.resnet.ResNet.with_blocks` semantics:
        a group is never emptied, so counts are at least 1.
        """
        keep = self.keep_mask_by_group(action)
        return tuple(max(1, sum(flags)) for flags in keep)  # type: ignore[return-value]

    # -- main loop -----------------------------------------------------------
    def _search(self, config: HeadStartConfig) -> BlockAgentResult:
        """Train a fresh policy with the shared REINFORCE driver.

        The policy and its rng are built from ``config`` on every call,
        so the outcome depends only on the config and the model: one
        ``pruner.run`` span with the ``block/*`` gauges, shared by
        :meth:`run` and every attempt of the stepped protocol.
        """
        rng = np.random.default_rng(config.seed)
        policy = HeadStartNetwork(len(self.droppable),
                                  noise_size=config.noise_size,
                                  hidden_channels=config.hidden_channels,
                                  keep_ratio=1.0 / config.speedup, rng=rng)
        rec = get_recorder()
        with rec.span("pruner.run", engine="block",
                      droppable=len(self.droppable)):
            original_accuracy = evaluate(self.model, self.images,
                                         self.labels)
            # Block rewards are pure in the action for a fixed model
            # (bypass_blocks restores the wiring), so the layer agent's
            # exact-mask memoization applies verbatim.
            cache = EvalCache(maxsize=config.eval.cache_size,
                              scope="blocks") if config.eval.cache else None
            # Batch accuracy of every action the search scored.
            measured: dict[bytes, float] = {}
            outcome = ReinforceDriver(
                policy,
                self._evaluator(config, original_accuracy,
                                measured=measured),
                config, rng,
                final_evaluate=self._evaluator(config, original_accuracy,
                                               full=True),
                cache=cache).run()
            action = outcome.action
            inception_accuracy = measured.get(mask_key(action))
            if inception_accuracy is None:     # no iteration ran
                inception_accuracy = self._accuracies([action])[0]
            result = BlockAgentResult(
                keep_action=action.astype(bool),
                probabilities=outcome.probabilities,
                iterations=outcome.iterations,
                reward_history=outcome.reward_history,
                loss_history=outcome.loss_history,
                inception_accuracy=inception_accuracy,
                blocks_per_group=self.blocks_per_group(action),
                keep_by_group=self.keep_mask_by_group(action))
            rec.gauge("block/kept_blocks", sum(result.blocks_per_group))
            rec.gauge("block/inception_accuracy", result.inception_accuracy)
        return result

    def run(self) -> BlockAgentResult:
        """Train the block policy until the reward stabilises.

        The decision of the one ``blocks`` step, as a journaled run's
        first attempt computes it; the model is left as it was.
        """
        return self._search(self.config)

    # -- stepped protocol (driven by repro.runtime.harness) -----------------
    def steps(self) -> list[StepSpec]:
        # One all-or-nothing step; no per-unit fallback exists for block
        # bypassing, so an exhausted step is skipped rather than degraded.
        return [StepSpec(name="blocks", index=0, kind="blocks")]

    def run_step(self, spec: StepSpec, state: StepState) -> StepOutcome:
        result = self._search(state.config_override or self.config)
        return StepOutcome(
            payload={"keep": result.keep_by_group},
            log={"name": spec.name,
                 "blocks_per_group": [int(n) for n in
                                      result.blocks_per_group],
                 "inception_accuracy": float(result.inception_accuracy),
                 "agent_iterations": int(result.iterations)},
            extra={"agent_result": result})

    def apply_step(self, spec: StepSpec, outcome: StepOutcome,
                   state: StepState) -> None:
        before = sum(self.model.blocks_per_group)
        self.model = self.model.with_blocks(outcome.payload["keep"])
        outcome.removed = before - sum(self.model.blocks_per_group)
        get_recorder().counter("block/blocks_dropped", outcome.removed)
        if state.need_accuracy:
            outcome.accuracy = evaluate(self.model, self.images, self.labels)

    def replay_step(self, spec: StepSpec, payload: dict) -> None:
        self.model = self.model.with_blocks(payload["keep"])

    def apply(self, result: BlockAgentResult,
              rng: np.random.Generator | None = None) -> int:
        """Physically rebuild the ResNet with the learnt block pattern.

        The rebuilt network replaces :attr:`model`; the return value is
        the number of residual blocks it removed, per the
        :class:`repro.pruning.PruningEngine` protocol.  ``result`` must
        have been decided on the current model's block layout.  (Before
        the unified engine API this method *returned* the rebuilt ResNet
        — callers now read it from ``.model``.)
        """
        before = sum(self.model.blocks_per_group)
        self.model = self.model.with_blocks(result.keep_by_group, rng=rng)
        removed = before - sum(self.model.blocks_per_group)
        get_recorder().counter("block/blocks_dropped", removed)
        return removed

    def describe(self) -> EngineInfo:
        """Engine metadata (:class:`repro.pruning.PruningEngine` protocol)."""
        return EngineInfo(
            name="block", kind="rl-block",
            action_space="binary keep decision per droppable residual block",
            description="Block-level HeadStart: one policy selects which "
                        "identity-shortcut blocks of a ResNet survive.")
