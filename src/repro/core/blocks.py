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

Masks are scored along shared block prefixes (:class:`_PrefixWalk`): a
mask reuses the activations of an earlier forward up to the first block
where their keep flags differ, so only its remaining kept blocks and the
head run.  Every logit equals the per-mask :func:`bypass_blocks` forward
under :func:`repro.training.evaluate` bit for bit.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from ..data.datasets import as_arrays
from ..models.resnet import ResNet
from ..nn import Tensor, no_grad
from ..obs import get_recorder
from ..pruning.engine import (EngineInfo, StepOutcome, StepSpec, StepState,
                              SteppedEngineBase)
from ..training import EVAL_BATCH_SIZE, evaluate
from .config import HeadStartConfig
from .policy import HeadStartNetwork
from .reinforce import ReinforceDriver
from .reward import acc_term, spd_term

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


def _shared_prefix(a: tuple[bool, ...], b: tuple[bool, ...]) -> int:
    """The number of leading keep flags ``a`` and ``b`` agree on."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), len(a))


class _PrefixWalk:
    """Accuracies of block keep patterns on one image set, computed along
    shared block prefixes.

    ``keep`` expands an action to the model's layout (one flag list per
    group, transition blocks kept).  The images are sliced as
    :func:`repro.training.evaluate` slices them.  A *path* is one
    pattern's forward on one slice: its flags, then the stem output and
    the activation after every block, where a bypassed block's entry is
    its input.  A call scores its masks in descending lexicographic
    order of their flags, a trie's depth-first order.  Each mask starts
    from the stored path that shares its longest flag prefix and runs
    only its remaining kept blocks and the head.  The modules are the
    ones the per-mask forward calls, on the same arrays and in eval
    mode, so each logit is that forward's bit for bit.

    Per slice the walk stores the last scored mask's path and, with
    ``keep_unmasked``, the first all-ones path it scores.
    """

    def __init__(self, model: ResNet, images: np.ndarray, labels: np.ndarray,
                 keep: Callable[[np.ndarray], list[list[bool]]], *,
                 keep_unmasked: bool = False):
        self.model = model
        self.blocks = [block for group in model.groups() for block in group]
        self.images = images
        self.labels = labels
        self.keep = keep
        self.slices = [slice(start, start + EVAL_BATCH_SIZE)
                       for start in range(0, len(images), EVAL_BATCH_SIZE)]
        self.last: list[tuple | None] = [None] * len(self.slices)
        self.unmasked: list[tuple | None] = [None] * len(self.slices)
        self.keep_unmasked = keep_unmasked

    def accuracies(self, actions: list[np.ndarray]) -> list[float]:
        """Top-1 accuracy with each action's blocks bypassed."""
        flags = [tuple(chain.from_iterable(self.keep(action)))
                 for action in actions]
        order = sorted(range(len(flags)), key=flags.__getitem__,
                       reverse=True)
        correct = [0] * len(flags)
        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                for s, rows in enumerate(self.slices):
                    labels = self.labels[rows]
                    for i in order:
                        predictions = self._logits(s, flags[i]).argmax(axis=1)
                        correct[i] += int((predictions == labels).sum())
        finally:
            self.model.train(was_training)
        return [count / max(len(self.labels), 1) for count in correct]

    def _logits(self, s: int, flags: tuple[bool, ...]) -> np.ndarray:
        """One pattern's logits on slice ``s``; stores its path as the
        slice's last."""
        shared, path = -1, None
        for stored in (self.unmasked[s], self.last[s]):
            if stored is not None:
                n = _shared_prefix(stored[0], flags)
                if n > shared:
                    shared, path = n, stored[1]
        if path is None:
            shared = 0
            path = [self.model.stem(Tensor(self.images[self.slices[s]]))]
        else:
            path = path[:shared + 1]
        # Drop the previous last path before extending this one, so at
        # most the unmasked path and one other are alive.
        self.last[s] = None
        out = path[-1]
        for block, keep in zip(self.blocks[shared:], flags[shared:]):
            if keep:
                out = block(out)
            path.append(out)
        self.last[s] = (flags, path)
        if self.keep_unmasked and self.unmasked[s] is None and all(flags):
            self.unmasked[s] = self.last[s]
        return self.model.head(out).data


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

    #: The calibration batch's :class:`_PrefixWalk` while :meth:`_search`
    #: runs; ``None`` otherwise, so no stored path outlives a search.
    _batch_walk: _PrefixWalk | None = None

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
        """Calibration accuracy with each action's blocks bypassed.

        Scored along shared block prefixes (:class:`_PrefixWalk`), equal
        bit for bit to :func:`bypass_blocks` plus ``evaluate`` per
        action.  While :meth:`_search` runs, batch scores share its
        walk, whose paths outlive a call; any other call builds a walk
        of its own, so the full set keeps one running path per slice.
        """
        if not full and self._batch_walk is not None:
            return self._batch_walk.accuracies(actions)
        images = self.full_images if full else self.images
        labels = self.full_labels if full else self.labels
        return _PrefixWalk(self.model, images, labels,
                           self.keep_mask_by_group).accuracies(actions)

    def _reward(self, config: HeadStartConfig, original_accuracy: float):
        """Eq. 4 over blocks: the driver's ``(accuracy, action)`` reward.

        Transition blocks count as kept, so Eq. 3's ``C / ||A||_0`` is
        the current model's block count over the blocks an action keeps.
        """
        total = sum(self.model.blocks_per_group)
        forced_keep = total - len(self.droppable)

        def reward(accuracy: float, action: np.ndarray) -> float:
            kept = forced_keep + int(np.count_nonzero(action))
            return config.acc_weight * acc_term(accuracy, original_accuracy) \
                - config.spd_weight * spd_term(total, kept, config.speedup)
        return reward

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
            # The unmasked forward is the walk's first path, kept for
            # the whole search: a mask shares its blocks up to its first
            # bypassed one.
            self._batch_walk = _PrefixWalk(
                self.model, self.images, self.labels,
                self.keep_mask_by_group, keep_unmasked=True)
            try:
                original_accuracy = self._accuracies(
                    [np.ones(len(self.droppable))])[0]
                # Block accuracies are pure in the action for a fixed
                # model, so the driver's per-run memo applies verbatim.
                outcome = ReinforceDriver(
                    policy, self._accuracies,
                    self._reward(config, original_accuracy), config, rng,
                    final_evaluate=partial(self._accuracies, full=True),
                    scope="blocks").run()
            finally:
                self._batch_walk = None
            action = outcome.action
            result = BlockAgentResult(
                keep_action=action.astype(bool),
                probabilities=outcome.probabilities,
                iterations=outcome.iterations,
                reward_history=outcome.reward_history,
                loss_history=outcome.loss_history,
                inception_accuracy=outcome.accuracy,
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
        # One all-or-nothing step: an exhausted one leaves every block.
        return [StepSpec(name="blocks", index=0)]

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
