"""Unit tests for the shared REINFORCE driver."""

import numpy as np
import pytest

from repro.core import HeadStartConfig, HeadStartNetwork
from repro.core.reinforce import ReinforceDriver, ReinforceOutcome


def per_mask(fn):
    """A per-action reward as the driver's list -> list evaluator."""
    return lambda actions: [fn(action) for action in actions]


def make_driver(reward_fn, num_maps=8, final_reward_fn=None, **overrides):
    defaults = dict(speedup=2.0, max_iterations=12, min_iterations=4,
                    patience=4, mc_samples=2, seed=0)
    defaults.update(overrides)
    config = HeadStartConfig(**defaults)
    rng = np.random.default_rng(config.seed)
    policy = HeadStartNetwork(num_maps, keep_ratio=1.0 / config.speedup,
                              rng=rng)
    final = per_mask(final_reward_fn) if final_reward_fn else None
    return ReinforceDriver(policy, per_mask(reward_fn), config, rng,
                           final_evaluate=final)


def count_reward(action):
    """Reward peaked at exactly half the elements kept."""
    kept = int(action.sum())
    return -abs(kept - action.size / 2)


class TestDriverMechanics:
    def test_outcome_structure(self):
        outcome = make_driver(count_reward).run()
        assert isinstance(outcome, ReinforceOutcome)
        assert outcome.action.shape == (8,)
        assert len(outcome.reward_history) == outcome.iterations
        assert len(outcome.loss_history) == outcome.iterations
        # Probabilities may saturate to exactly 0/1 in float once the
        # logits grow large; they must stay within [0, 1] and finite.
        assert np.all((outcome.probabilities >= 0)
                      & (outcome.probabilities <= 1))
        assert np.all(np.isfinite(outcome.probabilities))

    def test_finds_trivially_optimal_sparsity(self):
        outcome = make_driver(count_reward, max_iterations=25,
                              min_iterations=25, patience=25).run()
        assert abs(int(outcome.action.sum()) - 4) <= 1

    def test_respects_min_iterations(self):
        outcome = make_driver(lambda a: 0.0, min_iterations=7, patience=1,
                              max_iterations=20).run()
        assert outcome.iterations >= 7

    def test_respects_max_iterations(self):
        outcome = make_driver(count_reward, max_iterations=5,
                              min_iterations=5, patience=99).run()
        assert outcome.iterations == 5

    def test_deterministic_under_seed(self):
        a = make_driver(count_reward, seed=3).run()
        b = make_driver(count_reward, seed=3).run()
        assert np.array_equal(a.action, b.action)
        assert a.reward_history == b.reward_history

    def test_best_action_mode_returns_best_candidate(self):
        # Reward identifies one specific element as crucial.
        def reward(action):
            return float(action[0]) - 0.01 * abs(action.sum() - 4)

        outcome = make_driver(reward, max_iterations=15, min_iterations=15,
                              patience=15).run()
        assert outcome.action[0] == 1.0

    def test_threshold_mode(self):
        outcome = make_driver(count_reward, use_best_action=False).run()
        expected = (outcome.probabilities >= 0.5)
        if not expected.any():
            expected[int(outcome.probabilities.argmax())] = True
        assert np.array_equal(outcome.action.astype(bool), expected)

    def test_final_reward_fn_overrides_selection(self):
        # Iteration reward prefers fewer kept; finalist reward prefers more.
        driver = make_driver(lambda a: -a.sum(),
                             final_reward_fn=lambda a: a.sum(),
                             max_iterations=10, min_iterations=10,
                             patience=10)
        outcome = driver.run()
        # The chosen action comes from the candidate pool ranked by the
        # FINAL criterion, so it should keep more than the pool minimum
        # the iteration reward was pushing toward (a single element).
        assert outcome.action.sum() >= 1

    def test_exchange_mutation_preserves_count(self):
        rng = np.random.default_rng(0)
        action = np.array([1.0, 1.0, 0.0, 0.0])
        mutated = ReinforceDriver._exchange_mutation(action, rng)
        assert mutated.sum() == action.sum()
        assert not np.array_equal(mutated, action)

    def test_exchange_mutation_degenerate(self):
        rng = np.random.default_rng(0)
        assert ReinforceDriver._exchange_mutation(np.ones(3), rng) is None
        assert ReinforceDriver._exchange_mutation(np.zeros(3), rng) is None

    def test_candidate_pool_bounded(self):
        candidates = {}
        rng = np.random.default_rng(0)
        for i in range(20):
            action = (rng.random(6) > 0.5).astype(float)
            ReinforceDriver._remember(candidates, action, float(i), limit=4)
        assert len(candidates) <= 4
        # The best reward seen must survive eviction.
        assert max(r for r, _ in candidates.values()) == 19.0

    @pytest.mark.parametrize("baseline", ["greedy", "mean", "none"])
    def test_all_baselines(self, baseline):
        outcome = make_driver(count_reward, baseline=baseline).run()
        assert outcome.iterations >= 1
