"""Shared REINFORCE driver for HeadStart agents (paper Eq. 5-10).

Both the per-layer agent (actions over feature maps) and the block
agent (actions over residual blocks) run the same loop:

1. sample keep probabilities from the policy conditioned on fresh noise;
2. draw ``k`` Bernoulli actions plus the greedy thresholded action;
3. reward every action (Eq. 2-4) from its masked accuracy;
4. step the policy on ``-(1/k) Σ (R(A^s) - b) log p_θ(A^s)``;
5. stop when the best reward stops improving, and return the best
   candidate: by the reward the search measured, or re-scored by an
   explicit finalist evaluator (e.g. on a larger calibration set).

The driver owns steps 1-2 and 4-5 and the one scoring path of step 3
(:meth:`ReinforceDriver._score`: dedup, memo, measure the misses).
Callers provide the :data:`Evaluator` of masked accuracies — eager
masked forwards or the graph executor — and the :data:`Reward` that
turns an accuracy into Eq. 4's reward.  The evaluator is pure within a
run (the model is restored after every masked evaluation and the
calibration batch is fixed), so each run memoizes one accuracy per
distinct mask, keyed by :func:`mask_key`.  The memo is created fresh in
every :meth:`ReinforceDriver.run` and never persisted: surgery changes
the model between runs, and a resumed run rebuilds it empty and
reproduces the same floats.  The candidate pool, exploration floor and
count-preserving exchange proposals are the miniature-scale stabilisers
documented in :class:`~repro.core.config.HeadStartConfig`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs import get_recorder
from ..runtime import faults
from ..runtime.guards import require_all_finite, require_finite
from ._optim import _policy_optimizer
from .config import HeadStartConfig
from .policy import (HeadStartNetwork, bernoulli_log_prob, sample_actions,
                     threshold_action)

__all__ = ["Evaluator", "Reward", "ReinforceOutcome", "ReinforceDriver",
           "mask_key"]

#: Masked accuracies of a list of binary actions, in order.  Must be
#: pure for the lifetime of one driver run: same mask, same accuracy.
Evaluator = Callable[[list[np.ndarray]], list[float]]
#: Eq. 4's reward of an action, given its measured accuracy.
Reward = Callable[[float, np.ndarray], float]


def mask_key(action: np.ndarray) -> bytes:
    """Memo key of a binary action: the packed boolean mask.

    Float and boolean encodings of the same mask (``0.0/1.0`` vs
    ``False/True``) map to the same key; ``np.packbits`` keeps keys
    8x smaller than raw boolean bytes for wide layers.
    """
    return np.packbits(np.asarray(action) > 0.5).tobytes()


@dataclass
class ReinforceOutcome:
    """What a driver run produced.

    ``accuracy`` is the chosen action's accuracy as the search measured
    it, on the :data:`Evaluator`'s data.
    """

    action: np.ndarray
    probabilities: np.ndarray
    iterations: int
    accuracy: float
    reward_history: list[float] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)


class ReinforceDriver:
    """Runs the HeadStart REINFORCE loop over a given policy.

    Parameters
    ----------
    policy:
        The head-start network emitting keep probabilities.
    evaluate:
        The :data:`Evaluator` measuring sampled, greedy and exchange
        actions.  It only ever sees masks the run has not measured yet,
        each at most once per run.
    reward:
        The :data:`Reward` (Eq. 4) of an action from its accuracy.
    config:
        Shared hyper-parameters.
    rng:
        Action-sampling randomness (the policy's own init randomness is
        the caller's concern).
    final_evaluate:
        Optional re-measuring of the finalist candidates on other data
        (e.g. a calibration set larger than ``evaluate``'s batch); never
        memoized.  Without it the finalist with the best reward the
        search already measured is chosen: ``evaluate`` is pure, so
        re-scoring with it would only repeat those evaluations.
    scope:
        The ``scope`` attribute of the emitted ``evalcache/*`` counters,
        so per-layer searches are distinguishable in a metrics stream.
    """

    def __init__(self, policy: HeadStartNetwork, evaluate: Evaluator,
                 reward: Reward, config: HeadStartConfig,
                 rng: np.random.Generator,
                 final_evaluate: Evaluator | None = None,
                 scope: str = ""):
        self.policy = policy
        self.evaluate = evaluate
        self.reward = reward
        self.final_evaluate = final_evaluate
        self.scope = scope
        self.config = config
        self.rng = rng
        self.optimizer = _policy_optimizer(policy, config)
        #: Accuracy of every mask measured in the current run, by
        #: :func:`mask_key`; :meth:`run` starts each run with it empty.
        self.accuracies: dict[bytes, float] = {}
        # run() restarts from this captured state every time, so calling
        # it twice on one driver yields identical outcomes (no policy
        # weights, optimizer momentum or RNG position leaks between
        # runs — the EnvCache-style shared-mutable-state pitfall).
        self._initial_policy_state = policy.state_dict()
        self._initial_rng_state = copy.deepcopy(rng.bit_generator.state)

    # -- candidate scoring ---------------------------------------------------
    def _score(self, candidates: list[np.ndarray],
               counter: str = "reinforce/unique_evals") -> np.ndarray:
        """Rewards for ``candidates``, measuring each distinct mask once.

        Distinct masks are taken in first-appearance order, and each is
        looked up once in :attr:`accuracies`, counting an
        ``evalcache/hits`` or ``evalcache/misses`` event.  The misses go
        to :attr:`evaluate` in one call.  Rewards equal the naive
        one-call-per-candidate loop's, whichever evaluator computes the
        accuracies.  Emits ``reinforce/reward_evals`` (every candidate)
        and ``counter`` (distinct masks).
        """
        rec = get_recorder()
        keys = [mask_key(action) for action in candidates]
        unique: dict[bytes, np.ndarray] = {}
        for key, action in zip(keys, candidates):
            unique.setdefault(key, action)
        misses = []
        for key in unique:
            hit = key in self.accuracies
            rec.counter("evalcache/hits" if hit else "evalcache/misses", 1,
                        scope=self.scope)
            if not hit:
                misses.append(key)
        if misses:
            measured = self.evaluate([unique[key] for key in misses])
            self.accuracies.update(zip(misses, map(float, measured)))
        rec.counter("reinforce/reward_evals", len(candidates))
        rec.counter(counter, len(unique))
        rewards = {key: self.reward(self.accuracies[key], action)
                   for key, action in unique.items()}
        return np.array([rewards[key] for key in keys])

    # -- candidate pool ----------------------------------------------------
    @staticmethod
    def _remember(candidates: dict, action: np.ndarray, reward: float,
                  limit: int = 6) -> None:
        key = action.astype(bool).tobytes()
        if key not in candidates or reward > candidates[key][0]:
            candidates[key] = (reward, action.copy())
        if len(candidates) > limit:
            worst = min(candidates, key=lambda k: candidates[k][0])
            del candidates[worst]

    @staticmethod
    def _exchange_mutation(action: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray | None:
        """Swap one kept element with one dropped one (count-preserving)."""
        kept = np.flatnonzero(action > 0.5)
        dropped = np.flatnonzero(action <= 0.5)
        if kept.size == 0 or dropped.size == 0:
            return None
        mutated = action.copy()
        mutated[rng.choice(kept)] = 0.0
        mutated[rng.choice(dropped)] = 1.0
        return mutated

    # -- main loop -----------------------------------------------------------
    def run(self) -> ReinforceOutcome:
        """Train until the reward stabilises; return the chosen action."""
        with get_recorder().span("reinforce.run",
                                 actions=self.policy.num_maps):
            return self._run()

    def _run(self) -> ReinforceOutcome:
        config = self.config
        rec = get_recorder()
        # Restart from the construction-time snapshot: policy weights,
        # RNG position and a fresh optimizer (no stale momentum).  On the
        # first run this is a no-op value-wise; on repeat runs it makes
        # the outcome identical instead of continuing a trained policy.
        self.policy.load_state_dict(self._initial_policy_state)
        self.rng.bit_generator.state = copy.deepcopy(self._initial_rng_state)
        self.optimizer = _policy_optimizer(self.policy, config)
        self.accuracies = {}
        best_reward = -np.inf
        candidates: dict[bytes, tuple[float, np.ndarray]] = {}
        stall = 0
        reward_history: list[float] = []
        loss_history: list[float] = []
        iterations = 0
        final_probs = np.full(self.policy.num_maps, 0.5)

        for iterations in range(1, config.max_iterations + 1):
            noise = self.policy.sample_noise(self.rng)
            probs = self.policy(noise)
            prob_values = probs.data.copy()
            require_all_finite(prob_values, "reinforce.policy",
                               iteration=iterations)
            final_probs = prob_values

            actions = sample_actions(prob_values, config.mc_samples, self.rng,
                                     exploration=config.exploration)
            greedy = threshold_action(prob_values, config.threshold)
            scored = self._score([*actions, greedy])
            rewards = scored[:-1]
            greedy_reward = faults.corrupt("reinforce.reward",
                                           float(scored[-1]))
            require_all_finite(rewards, "reinforce.reward",
                               iteration=iterations)
            require_finite(greedy_reward, "reinforce.reward",
                           iteration=iterations)

            if config.baseline == "greedy":
                baseline = greedy_reward
            elif config.baseline == "mean":
                baseline = float(rewards.mean())
            else:
                baseline = 0.0

            self.optimizer.zero_grad()
            loss = None
            for action, action_reward in zip(actions, rewards):
                advantage = action_reward - baseline
                term = bernoulli_log_prob(probs, action) * (-advantage)
                loss = term if loss is None else loss + term
            loss = loss / float(config.mc_samples)
            loss_value = faults.corrupt("reinforce.loss", loss.item())
            require_finite(loss_value, "reinforce.loss",
                           iteration=iterations)
            loss.backward()
            self.optimizer.step()

            iteration_reward = float(max(rewards.max(), greedy_reward))
            reward_history.append(iteration_reward)
            loss_history.append(loss_value)
            rec.series("reinforce/reward", iterations, iteration_reward)
            rec.series("reinforce/baseline", iterations, float(baseline))
            rec.series("reinforce/greedy_reward", iterations,
                       float(greedy_reward))
            rec.series("reinforce/action_l0", iterations,
                       int(np.count_nonzero(greedy)))
            rec.series("reinforce/loss", iterations, loss_value)

            if iteration_reward > best_reward + config.tolerance:
                best_reward = iteration_reward
                stall = 0
            else:
                stall += 1

            self._remember(candidates, greedy, greedy_reward)
            for action, action_reward in zip(actions, rewards):
                self._remember(candidates, action, action_reward)
            if config.exchange_proposals and candidates:
                base = max(candidates.values(), key=lambda c: c[0])[1]
                exchange = self._exchange_mutation(base, self.rng)
                if exchange is not None:
                    reward = self._score([exchange],
                                         counter="reinforce/exchange_evals")
                    self._remember(candidates, exchange, float(reward[0]))

            if iterations >= config.min_iterations and stall >= config.patience:
                break

        if config.use_best_action and candidates:
            finalists = [action for _, action in candidates.values()]
            if self.final_evaluate is None:
                final_rewards = [reward for reward, _ in candidates.values()]
            else:
                final_rewards = [
                    self.reward(accuracy, action) for accuracy, action
                    in zip(self.final_evaluate(finalists), finalists)]
                rec.counter("reinforce/finalist_evals", len(finalists))
            chosen = finalists[int(np.argmax(final_rewards))]
        else:
            chosen = threshold_action(final_probs, config.threshold)
        # Every finalist and greedy action was measured by the search;
        # only a run with no iteration has to measure its choice.
        accuracy = self.accuracies.get(mask_key(chosen))
        if accuracy is None:
            accuracy = float(self.evaluate([chosen])[0])
        return ReinforceOutcome(action=chosen, probabilities=final_probs,
                                iterations=iterations, accuracy=accuracy,
                                reward_history=reward_history,
                                loss_history=loss_history)
