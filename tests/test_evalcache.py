"""Fast-path lockdown: eval cache, the driver's one scorer, bit-exactness.

Three contracts, each enforced here:

1. :class:`repro.core.evalcache.EvalCache` memoizes on the exact binary
   mask with LRU bounds and accurate counters.
2. :meth:`ReinforceDriver._score` is the one path from masks to
   rewards: whichever evaluator computes the misses (per-mask eager
   calls or one batch call), rewards, ``reinforce/*`` and
   ``evalcache/*`` counters and cache contents are identical.
3. A cached pruning run is *bit-for-bit* identical to an uncached one
   at the same seed: same journal payloads, same final accuracy, same
   state dict — on the eager and the graph path alike, with the cache
   invoking the evaluator less — and the resume digest ignores the
   performance knobs.
"""

import copy

import numpy as np
import pytest

from repro.core import (EvalCache, EvalOptions, HeadStartConfig,
                        HeadStartNetwork, mask_key)
from repro.core.config import PERF_FIELDS, resume_relevant
from repro.core.reinforce import ReinforceDriver
from repro.obs import Recorder, use_recorder
from repro.runtime import ResumableRunner
from repro.runtime.journal import RunJournal, config_digest


# ---------------------------------------------------------------------------
# 1. The cache itself
# ---------------------------------------------------------------------------

class TestMaskKey:
    def test_dtype_invariant(self):
        as_float = np.array([1.0, 0.0, 1.0, 1.0])
        as_bool = np.array([True, False, True, True])
        assert mask_key(as_float) == mask_key(as_bool)

    def test_distinguishes_masks(self):
        assert mask_key(np.array([1.0, 0.0])) != mask_key(np.array([0.0, 1.0]))

    def test_threshold_at_half(self):
        # Probabilities are binarised exactly like threshold_action does.
        assert mask_key(np.array([0.51, 0.49])) == mask_key(np.array([1., 0.]))


class CountingReward:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, action):
        self.calls += 1
        return self.fn(action)


def _memoized(cache, fn, action):
    """One mask through the driver's lookup-then-insert sequence."""
    value = cache.lookup(action)
    if value is None:
        value = fn(action)
        cache.insert(action, value)
    return value


class TestEvalCache:
    def test_memoizes_exact_value(self):
        probe = CountingReward(lambda a: float(a.sum()) * 0.3339214)
        recorder = Recorder()
        cache = EvalCache(maxsize=8)
        action = np.array([1.0, 0.0, 1.0])
        with use_recorder(recorder):
            first = _memoized(cache, probe, action)
            second = _memoized(cache, probe, action)
        assert probe.calls == 1
        assert second == first                     # bitwise, not approx
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        assert cache.maxsize == 8 and cache.hit_rate == 0.5
        assert recorder.counters.get("evalcache/evictions", 0) == 0

    def test_lru_eviction_order(self):
        probe = CountingReward(lambda a: float(a[0]))
        recorder = Recorder()
        cache = EvalCache(maxsize=2)
        a, b, c = (np.eye(3)[i] for i in range(3))
        with use_recorder(recorder):
            _memoized(cache, probe, a), _memoized(cache, probe, b)
            _memoized(cache, probe, a)             # refresh a: b is now LRU
            _memoized(cache, probe, c)             # evicts b, not a
        assert mask_key(a) in cache and mask_key(c) in cache
        assert mask_key(b) not in cache
        assert recorder.counters["evalcache/evictions"] == 1
        _memoized(cache, probe, a)
        assert probe.calls == 3                    # a survived the eviction

    def test_zero_maxsize_is_unbounded(self):
        recorder = Recorder()
        cache = EvalCache(maxsize=0)
        with use_recorder(recorder):
            for i in range(64):
                _memoized(cache, lambda a: 0.0, np.arange(8) == i % 8)
        assert recorder.counters.get("evalcache/evictions", 0) == 0
        assert len(cache) == 8

    def test_counters_reach_recorder(self):
        recorder = Recorder()
        cache = EvalCache(maxsize=1, scope="conv1")
        with use_recorder(recorder):
            _memoized(cache, lambda a: 1.0, np.ones(4))
            _memoized(cache, lambda a: 1.0, np.ones(4))
            _memoized(cache, lambda a: 1.0, np.zeros(4))
        assert recorder.counters["evalcache/misses"] == 2
        assert recorder.counters["evalcache/hits"] == 1
        assert recorder.counters["evalcache/evictions"] == 1


# ---------------------------------------------------------------------------
# 3. Cached run == uncached run, bit for bit
# ---------------------------------------------------------------------------

def _pruner(tiny_task, trained_lenet, **config_overrides):
    from repro.core import FinetuneConfig, HeadStartPruner

    defaults = dict(speedup=2.0, max_iterations=6, min_iterations=3,
                    patience=3, eval_batch=16, mc_samples=2, seed=5)
    defaults.update(config_overrides)
    return HeadStartPruner(
        copy.deepcopy(trained_lenet), tiny_task.train, tiny_task.test,
        config=HeadStartConfig(**defaults),
        finetune_config=FinetuneConfig(epochs=1, batch_size=24, lr=0.02,
                                       seed=5),
        skip_last=False)


def _journal_payloads(run_dir):
    return [(record["name"], record["payload"])
            for record in RunJournal(run_dir / "journal.jsonl").read()
            if record["record"] == "layer_complete"]


class TestCachedRunBitForBit:
    def test_journal_outcome_and_state_identical(self, tmp_path, tiny_task,
                                                 trained_lenet):
        runs = {}
        for label, cached in (("uncached", False), ("cached", True)):
            pruner = _pruner(tiny_task, trained_lenet,
                             eval=EvalOptions(cache=cached))
            runner = ResumableRunner(engine=pruner)
            report = runner.run(tmp_path / label)
            runs[label] = (pruner, report)

        base_pruner, base_report = runs["uncached"]
        fast_pruner, fast_report = runs["cached"]
        assert _journal_payloads(tmp_path / "uncached") \
            == _journal_payloads(tmp_path / "cached")
        assert base_report.result.final_accuracy \
            == fast_report.result.final_accuracy
        base_state = base_pruner.model.state_dict()
        fast_state = fast_pruner.model.state_dict()
        assert set(base_state) == set(fast_state)
        for key in base_state:
            assert np.array_equal(base_state[key], fast_state[key]), key

    def test_eval_paths_prune_resnet_identically(self):
        """Uncached eager, cached eager and cached graph eval prune a
        residual model to the same weights, the cache evaluating less."""
        from repro.core import FinetuneConfig, HeadStartPruner
        from repro.data import make_cifar100_like
        from repro.models import build_model
        from repro.training import TrainConfig, evaluate_dataset, fit

        task = make_cifar100_like(num_classes=4, image_size=12,
                                  train_per_class=6, test_per_class=3,
                                  seed=0)
        original = build_model("resnet20", num_classes=4, input_size=12,
                               width_multiplier=0.25,
                               rng=np.random.default_rng(0))
        fit(original, task.train, None,
            TrainConfig(epochs=1, batch_size=24, lr=0.05, seed=0))
        arms = {"uncached": EvalOptions(cache=False, graph=False),
                "cached": EvalOptions(graph=False),
                "graph": EvalOptions()}
        runs = {}
        for label, options in arms.items():
            pruner = HeadStartPruner(
                copy.deepcopy(original), task.train, task.test,
                config=HeadStartConfig(speedup=2.0, max_iterations=8,
                                       min_iterations=4, patience=3,
                                       eval_batch=24, mc_samples=3, seed=0,
                                       eval=options),
                finetune_config=FinetuneConfig(epochs=1, batch_size=24,
                                               lr=0.02, seed=0),
                skip_last=False)
            recorder = Recorder()
            with use_recorder(recorder):
                pruner.run()
            runs[label] = (evaluate_dataset(pruner.model, task.test),
                           pruner.model.state_dict(), recorder.counters)

        accuracy, state, counters = runs["uncached"]
        # Without the cache, the driver invokes the evaluator once per
        # distinct mask of a batch plus once per exchange proposal.
        uncached_calls = (counters["reinforce/unique_evals"]
                          + counters["reinforce/exchange_evals"])
        for label in ("cached", "graph"):
            other_accuracy, other_state, other_counters = runs[label]
            assert other_accuracy == accuracy, label
            assert set(other_state) == set(state), label
            for key in state:
                assert other_state[key].tobytes() == state[key].tobytes(), \
                    (label, key)
            assert other_counters["evalcache/misses"] < uncached_calls, label

    def test_resume_digest_ignores_perf_knobs(self, tiny_task, trained_lenet):
        plain = _pruner(tiny_task, trained_lenet,
                        eval=EvalOptions(cache=False, graph=False))
        tuned = _pruner(tiny_task, trained_lenet,
                        eval=EvalOptions(cache_size=7, fused=True))
        assert config_digest(plain.fingerprint()) \
            == config_digest(tuned.fingerprint())
        # ... while semantic fields still change it.
        other = _pruner(tiny_task, trained_lenet, seed=6)
        assert config_digest(plain.fingerprint()) \
            != config_digest(other.fingerprint())

    def test_resume_relevant_strips_only_perf_fields(self):
        fields = resume_relevant(HeadStartConfig())
        for name in PERF_FIELDS:
            assert name not in fields
        assert "seed" in fields and "speedup" in fields
        # Non-config values pass through untouched.
        assert resume_relevant(42) == 42


# ---------------------------------------------------------------------------
# The driver's scorer, and repeatable run()
# ---------------------------------------------------------------------------

def _per_mask(fn):
    """A per-action reward as the driver's list -> list evaluator."""
    return lambda actions: [fn(action) for action in actions]


def _driver(reward_fn, seed=0, cache=None, **overrides):
    defaults = dict(speedup=2.0, max_iterations=10, min_iterations=4,
                    patience=4, mc_samples=3, seed=seed)
    defaults.update(overrides)
    config = HeadStartConfig(**defaults)
    rng = np.random.default_rng(config.seed)
    policy = HeadStartNetwork(8, keep_ratio=1.0 / config.speedup, rng=rng)
    return ReinforceDriver(policy, _per_mask(reward_fn), config, rng,
                           cache=cache)


def _count_reward(action):
    return -abs(int(action.sum()) - action.size / 2)


def _evaluator(kind, fn, seen):
    """The two evaluator shapes the driver accepts."""
    def record(actions):
        seen.append([mask_key(action) for action in actions])
        return actions

    if kind == "eager":             # one masked forward per mask
        return lambda actions: [fn(action) for action in record(actions)]
    # one call scoring the whole list
    return lambda actions: list(np.array(
        [fn(action) for action in record(actions)]))


class TestScorer:
    @pytest.mark.parametrize("kind", ["eager", "batch"])
    def test_evaluators_score_identically(self, kind):
        def reward(action):
            # Distinct per mask, so a mis-merged reward would show.
            return float(np.dot(action, np.arange(1, action.size + 1))
                         / 37.0) - abs(action.sum() - 4)

        def run(kind):
            seen, finals = [], []
            cache = EvalCache(maxsize=6, scope="probe")
            config = HeadStartConfig(speedup=2.0, max_iterations=10,
                                     min_iterations=10, patience=10,
                                     mc_samples=4, seed=7)
            rng = np.random.default_rng(config.seed)
            policy = HeadStartNetwork(8, keep_ratio=0.5, rng=rng)
            driver = ReinforceDriver(
                policy, _evaluator(kind, reward, seen), config, rng,
                final_evaluate=_evaluator(kind, reward, finals),
                cache=cache)
            recorder = Recorder()
            with use_recorder(recorder):
                outcome = driver.run()
            counters = {name: value
                        for name, value in recorder.counters.items()
                        if name.startswith(("reinforce/", "evalcache/"))}
            return outcome, counters, cache, seen, finals

        reference, ref_counters, ref_cache, _, _ = run("eager")
        outcome, counters, cache, seen, finals = run(kind)
        assert outcome.reward_history == reference.reward_history
        assert outcome.loss_history == reference.loss_history
        assert np.array_equal(outcome.action, reference.action)
        assert counters == ref_counters
        assert counters["evalcache/evictions"] > 0    # LRU is exercised
        assert list(cache._store.items()) == list(ref_cache._store.items())
        # The evaluator only ever sees cache misses, each once per call;
        # finalists are scored uncached, in one call.
        assert all(len(set(call)) == len(call) for call in seen)
        assert sum(map(len, seen)) == counters["evalcache/misses"]
        assert len(finals) == 1
        assert len(finals[0]) == counters["reinforce/finalist_evals"]


class TestDriverRegressions:
    def test_batched_scoring_deduplicates(self):
        calls = []
        driver = _driver(_count_reward)
        driver.evaluate = lambda actions: calls.append(
            [mask_key(action) for action in actions]) or [
            _count_reward(action) for action in actions]
        actions = [np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                   np.array([0.0, 1.0])]
        rewards = driver._score(actions)
        # One call with the two unique masks, in first-appearance order.
        assert calls == [[mask_key(actions[0]), mask_key(actions[2])]]
        assert list(rewards) == [_count_reward(a) for a in actions]

    def test_run_twice_identical(self):
        # Regression for shared-mutable-state reuse: a second run() on
        # the same driver must not continue the first one's training.
        driver = _driver(_count_reward, seed=11)
        first = driver.run()
        second = driver.run()
        assert np.array_equal(first.action, second.action)
        assert np.array_equal(first.probabilities, second.probabilities)
        assert first.iterations == second.iterations
        assert first.reward_history == second.reward_history
        assert first.loss_history == second.loss_history

    def test_run_twice_identical_with_cache(self):
        driver = _driver(_count_reward, seed=11,
                         cache=EvalCache(maxsize=32))
        plain = _driver(_count_reward, seed=11)
        assert np.array_equal(driver.run().action, plain.run().action)
        first = driver.run()
        second = driver.run()
        assert np.array_equal(first.action, second.action)
        assert first.reward_history == second.reward_history
