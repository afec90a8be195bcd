"""Fast-path lockdown: eval cache, the driver's one scorer, bit-exactness.

Three contracts, each enforced here:

1. :class:`repro.core.evalcache.EvalCache` memoizes on the exact binary
   mask with LRU bounds and accurate counters.
2. :meth:`ReinforceDriver._score` is the one path from masks to
   rewards: whichever evaluator computes the misses (per-mask eager
   calls, one batch call, a pool's ``map``), rewards, ``reinforce/*``
   and ``evalcache/*`` counters and cache contents are identical.
3. A cached pruning run is *bit-for-bit* identical to an uncached one
   at the same seed: same journal payloads, same final accuracy, same
   state dict — and the resume digest ignores the performance knobs.
"""

import copy
import json
import math

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


class TestEvalCache:
    def test_memoizes_exact_value(self):
        probe = CountingReward(lambda a: float(a.sum()) * 0.3339214)
        cache = EvalCache(probe, maxsize=8)
        action = np.array([1.0, 0.0, 1.0])
        first = cache(action)
        second = cache(action)
        assert probe.calls == 1
        assert second == first                     # bitwise, not approx
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                                 "size": 1, "maxsize": 8, "hit_rate": 0.5}

    def test_lru_eviction_order(self):
        probe = CountingReward(lambda a: float(a[0]))
        cache = EvalCache(probe, maxsize=2)
        a, b, c = (np.eye(3)[i] for i in range(3))
        cache(a), cache(b)
        cache(a)                                   # refresh a: b is now LRU
        cache(c)                                   # evicts b, not a
        assert mask_key(a) in cache and mask_key(c) in cache
        assert mask_key(b) not in cache
        assert cache.stats()["evictions"] == 1
        cache(a)
        assert probe.calls == 3                    # a survived the eviction

    def test_zero_maxsize_is_unbounded(self):
        cache = EvalCache(lambda a: 0.0, maxsize=0)
        for i in range(64):
            cache(np.arange(8) == i % 8)
        assert cache.stats()["evictions"] == 0
        assert len(cache) == 8

    def test_counters_reach_recorder(self):
        recorder = Recorder()
        cache = EvalCache(lambda a: 1.0, maxsize=4, scope="conv1")
        with use_recorder(recorder):
            cache(np.ones(4))
            cache(np.ones(4))
        assert recorder.counters["evalcache/misses"] == 1
        assert recorder.counters["evalcache/hits"] == 1

    def test_clear_resets_entries_not_counters(self):
        cache = EvalCache(lambda a: 2.0, maxsize=4)
        cache(np.ones(3))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1


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

    def test_resume_digest_ignores_perf_knobs(self, tiny_task, trained_lenet):
        plain = _pruner(tiny_task, trained_lenet,
                        eval=EvalOptions(cache=False, graph=False))
        tuned = _pruner(tiny_task, trained_lenet,
                        eval=EvalOptions(cache_size=7, fused=True,
                                         mask_batch=True, workers=2))
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


class _PoolStandIn:
    """In-process stand-in for :class:`repro.runtime.pool.EvalPool`."""

    def __init__(self, fns):
        self.fns = fns

    def map(self, actions, fn="batch"):
        return [self.fns[fn](action) for action in actions]


def _evaluator(kind, fn, seen):
    """The three evaluator shapes the agents hand the driver."""
    def record(actions):
        seen.append([mask_key(action) for action in actions])
        return actions

    if kind == "eager":             # one masked forward per mask
        return lambda actions: [fn(action) for action in record(actions)]
    if kind == "batch":             # one call scoring the whole list
        return lambda actions: list(np.array(
            [fn(action) for action in record(actions)]))
    pool = _PoolStandIn({"batch": fn})
    return lambda actions: pool.map(record(actions), fn="batch")


class TestScorer:
    @pytest.mark.parametrize("kind", ["eager", "batch", "pool"])
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


# ---------------------------------------------------------------------------
# Bench harness: schema + the >=30% reduction claim
# ---------------------------------------------------------------------------

class TestBenchSchema:
    @staticmethod
    def _valid_report():
        from repro.bench import SCHEMA_VERSION
        variant = {"wall_seconds": 0.5, "iterations": 4,
                   "requested_evals": 12, "unique_evals": 8,
                   "reward_invocations": 8, "evals_per_iteration": 3.0,
                   "final_accuracy": 0.5, "max_drift_vs_dense": 0.0,
                   "cache": None}
        cached = dict(variant, reward_invocations=3,
                      cache={"hits": 9, "misses": 3, "evictions": 0,
                             "hit_rate": 0.75})
        graph = dict(cached, wall_seconds=0.3)
        graph_fused = dict(cached, wall_seconds=0.25,
                           max_drift_vs_dense=2e-9)
        return {"bench": "reinforce", "schema_version": SCHEMA_VERSION,
                "quick": True, "seed": 0, "scenario": {},
                "variants": {"uncached": variant, "cached": cached,
                             "graph": graph, "graph_fused": graph_fused},
                "reduction": {"reward_invocations_pct": 62.5,
                              "wall_clock_speedup": 1.5,
                              "graph_wall_clock_speedup": 2.0},
                "determinism": {"identical_accuracy": True,
                                "identical_state": True,
                                "graph_identical_state": True}}

    def test_valid_report_passes(self):
        from repro.bench import validate_bench
        assert validate_bench(self._valid_report()) == []

    def test_missing_field_fails(self):
        from repro.bench import validate_bench
        report = self._valid_report()
        del report["variants"]["cached"]["wall_seconds"]
        assert any("wall_seconds" in p for p in validate_bench(report))

    def test_non_finite_fails(self):
        from repro.bench import validate_bench
        report = self._valid_report()
        report["reduction"]["reward_invocations_pct"] = math.nan
        assert any("non-finite" in p for p in validate_bench(report))

    def test_missing_variant_fails(self):
        from repro.bench import validate_bench
        report = self._valid_report()
        del report["variants"]["uncached"]
        assert any("uncached" in p for p in validate_bench(report))

    def test_hit_rate_bounds(self):
        from repro.bench import validate_bench
        report = self._valid_report()
        report["variants"]["cached"]["cache"]["hit_rate"] = 1.5
        assert any("outside" in p for p in validate_bench(report))

    def test_fused_drift_over_limit_fails(self):
        from repro.bench import validate_bench
        report = self._valid_report()
        report["variants"]["graph_fused"]["max_drift_vs_dense"] = 5e-6
        assert any("fused-op limit" in p for p in validate_bench(report))

    def test_bit_exact_variant_drift_fails(self):
        from repro.bench import validate_bench
        report = self._valid_report()
        report["variants"]["graph"]["max_drift_vs_dense"] = 1e-12
        assert any("bit-for-bit" in p for p in validate_bench(report))

    def test_missing_graph_variant_fails(self):
        from repro.bench import validate_bench
        report = self._valid_report()
        del report["variants"]["graph_fused"]
        assert any("graph_fused" in p for p in validate_bench(report))


class TestBenchEndToEnd:
    def test_quick_bench_meets_acceptance(self, tmp_path):
        from repro.bench import run_reinforce_bench, validate_bench, \
            write_report

        report = run_reinforce_bench(quick=True, seed=0)
        assert validate_bench(report) == []
        # The fast paths' load-bearing claims: the cache skips repeat
        # reward-function invocations, the graph executor changes nothing
        # behavioural (bit-exact unfused, <=1e-6 fused), and neither
        # perturbs the pruning outcome.  (The resnet20 quick scenario has
        # diverse masks, so the cache cut is real but modest.)
        assert report["reduction"]["reward_invocations_pct"] >= 10.0
        assert report["determinism"]["identical_accuracy"]
        assert report["determinism"]["identical_state"]
        assert report["determinism"]["graph_identical_state"]
        assert report["variants"]["graph"]["max_drift_vs_dense"] == 0.0
        assert report["variants"]["graph_fused"]["max_drift_vs_dense"] <= 1e-6
        # Wall-clock is machine-dependent, so the >=1.5x acceptance
        # number is asserted by `repro bench` runs, not here; the report
        # must still show the fused graph ahead of cached dense at all.
        assert report["reduction"]["graph_wall_clock_speedup"] > 1.0

        path = write_report(report, tmp_path / "BENCH_reinforce.json")
        reloaded = json.loads(path.read_text())
        assert validate_bench(reloaded) == []
