"""The REINFORCE driver's reward memo, and bit-exactness of the eval paths.

Three contracts, each enforced here:

1. :func:`repro.core.mask_key` keys a binary mask whatever its dtype.
2. Unfused graph eval prunes *bit-for-bit* like the dense eager path:
   same journal payloads, same final accuracy, same state dict — and the
   resume digest ignores the eval knobs.
3. :meth:`ReinforceDriver._score` is the one path from masks to
   rewards, and each :meth:`ReinforceDriver.run` memoizes one accuracy
   per distinct mask: the evaluator sees each mask at most once per run,
   exchange proposals included, whichever evaluator shape computes it,
   and ``evalcache/misses`` counts exactly the masks it saw.  The memo
   is fresh per run, so a second run repeats the first.
"""

import copy

import numpy as np
import pytest

from repro.core import (EvalOptions, HeadStartConfig, HeadStartNetwork,
                        mask_key)
from repro.core.config import PERF_FIELDS, resume_relevant
from repro.core.reinforce import ReinforceDriver
from repro.obs import Recorder, use_recorder
from repro.runtime import ResumableRunner
from repro.runtime.journal import RunJournal, config_digest


# ---------------------------------------------------------------------------
# 1. The memo key
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


# ---------------------------------------------------------------------------
# 2. Dense and graph eval prune identically, bit for bit
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
        """A journaled run under graph eval (prefix-cached) equals the
        dense eager run: journal, final accuracy and weights."""
        runs = {}
        for label, options in (("dense", EvalOptions(graph=False)),
                               ("graph", EvalOptions())):
            pruner = _pruner(tiny_task, trained_lenet, eval=options)
            runner = ResumableRunner(engine=pruner)
            report = runner.run(tmp_path / label)
            runs[label] = (pruner, report)

        base_pruner, base_report = runs["dense"]
        fast_pruner, fast_report = runs["graph"]
        assert _journal_payloads(tmp_path / "dense") \
            == _journal_payloads(tmp_path / "graph")
        assert base_report.result.final_accuracy \
            == fast_report.result.final_accuracy
        base_state = base_pruner.model.state_dict()
        fast_state = fast_pruner.model.state_dict()
        assert set(base_state) == set(fast_state)
        for key in base_state:
            assert np.array_equal(base_state[key], fast_state[key]), key

    def test_eval_paths_prune_resnet_identically(self):
        """Dense eager and graph eval prune a residual model to the same
        weights, the memo measuring fewer masks than the search scores."""
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
        arms = {"dense": EvalOptions(graph=False), "graph": EvalOptions()}
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
                           pruner.model.state_dict(),
                           {name: value
                            for name, value in recorder.counters.items()
                            if name.startswith(("reinforce/", "evalcache/"))})

        accuracy, state, counters = runs["dense"]
        other_accuracy, other_state, other_counters = runs["graph"]
        assert other_accuracy == accuracy
        assert set(other_state) == set(state)
        for key in state:
            assert other_state[key].tobytes() == state[key].tobytes(), key
        for label, (_, _, arm) in runs.items():
            # Without the memo, the driver would measure every distinct
            # mask of a batch plus every exchange proposal.
            assert arm["evalcache/misses"] < (
                arm["reinforce/unique_evals"]
                + arm["reinforce/exchange_evals"]), label
        assert other_counters == counters

    def test_resume_digest_ignores_perf_knobs(self, tiny_task, trained_lenet):
        plain = _pruner(tiny_task, trained_lenet,
                        eval=EvalOptions(graph=False))
        tuned = _pruner(tiny_task, trained_lenet,
                        eval=EvalOptions(fused=True))
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


# ---------------------------------------------------------------------------
# 3. The driver's scorer and its per-run memo
# ---------------------------------------------------------------------------

def _accuracy_is_reward(accuracy, action):
    """The driver's reward when the evaluator already measures it."""
    return accuracy


def _per_mask(fn):
    """A per-action score as the driver's list -> list evaluator."""
    return lambda actions: [fn(action) for action in actions]


def _driver(reward_fn, seed=0, **overrides):
    defaults = dict(speedup=2.0, max_iterations=10, min_iterations=4,
                    patience=4, mc_samples=3, seed=seed)
    defaults.update(overrides)
    config = HeadStartConfig(**defaults)
    rng = np.random.default_rng(config.seed)
    policy = HeadStartNetwork(8, keep_ratio=1.0 / config.speedup, rng=rng)
    return ReinforceDriver(policy, _per_mask(reward_fn), _accuracy_is_reward,
                           config, rng)


def _count_reward(action):
    return -abs(int(action.sum()) - action.size / 2)


def _distinct_reward(action):
    # Distinct per mask, so a mis-merged reward would show.
    return float(np.dot(action, np.arange(1, action.size + 1))
                 / 37.0) - abs(action.sum() - 4)


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


def _spied_driver(kind, seen, finals):
    config = HeadStartConfig(speedup=2.0, max_iterations=10,
                             min_iterations=10, patience=10,
                             mc_samples=4, seed=7)
    rng = np.random.default_rng(config.seed)
    policy = HeadStartNetwork(8, keep_ratio=0.5, rng=rng)
    return ReinforceDriver(
        policy, _evaluator(kind, _distinct_reward, seen),
        _accuracy_is_reward, config, rng,
        final_evaluate=_evaluator(kind, _distinct_reward, finals),
        scope="probe")


class _ScopeRecorder(Recorder):
    """A recorder that also keeps the ``scope`` of each memo event."""

    def __init__(self):
        super().__init__()
        self.scopes = set()

    def counter(self, name, value=1, operational=False, **attrs):
        if name.startswith("evalcache/"):
            self.scopes.add(attrs.get("scope"))
        super().counter(name, value, operational, **attrs)


def _recorded(driver):
    recorder = _ScopeRecorder()
    with use_recorder(recorder):
        outcome = driver.run()
    counters = {name: value for name, value in recorder.counters.items()
                if name.startswith(("reinforce/", "evalcache/"))}
    return outcome, counters, recorder.scopes


class TestScorer:
    @pytest.mark.parametrize("kind", ["eager", "batch"])
    def test_evaluators_score_identically(self, kind):
        reference, ref_counters, _ = _recorded(
            _spied_driver("eager", [], []))
        seen, finals = [], []
        outcome, counters, _ = _recorded(_spied_driver(kind, seen, finals))
        assert outcome.reward_history == reference.reward_history
        assert outcome.loss_history == reference.loss_history
        assert np.array_equal(outcome.action, reference.action)
        assert outcome.accuracy == reference.accuracy
        assert counters == ref_counters
        # Finalists are measured outside the memo, in one call.
        assert len(finals) == 1
        assert len(finals[0]) == counters["reinforce/finalist_evals"]


class TestMemo:
    def test_evaluator_sees_each_mask_once_per_run(self):
        seen, finals = [], []
        driver = _spied_driver("eager", seen, finals)
        first, counters, scopes = _recorded(driver)
        masks = [key for call in seen for key in call]
        assert len(masks) == len(set(masks))
        assert counters["evalcache/misses"] == len(masks)
        # Every distinct mask of every batch, exchange proposals
        # included, was looked up once: the repeats were hits.
        assert counters["reinforce/exchange_evals"] > 0
        assert counters["evalcache/hits"] > 0
        assert counters["evalcache/hits"] + counters["evalcache/misses"] \
            == counters["reinforce/unique_evals"] \
            + counters["reinforce/exchange_evals"]
        assert scopes == {"probe"}
        # The outcome's accuracy is the chosen mask's measured one.
        assert first.accuracy == _distinct_reward(first.action)

        # A second run starts from an empty memo and repeats the first.
        first_seen = list(seen)
        seen.clear()
        second, second_counters, _ = _recorded(driver)
        assert seen == first_seen
        assert second_counters == counters
        assert np.array_equal(second.action, first.action)
        assert second.reward_history == first.reward_history
        assert second.loss_history == first.loss_history
        assert second.accuracy == first.accuracy

    def test_no_iteration_measures_the_choice_once(self):
        seen = []
        config = HeadStartConfig(speedup=2.0, max_iterations=0,
                                 min_iterations=0, seed=3)
        rng = np.random.default_rng(config.seed)
        policy = HeadStartNetwork(8, keep_ratio=0.5, rng=rng)
        outcome = ReinforceDriver(
            policy, _evaluator("eager", _distinct_reward, seen),
            _accuracy_is_reward, config, rng).run()
        assert outcome.iterations == 0
        assert seen == [[mask_key(outcome.action)]]
        assert outcome.accuracy == _distinct_reward(outcome.action)


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
        # Measured masks are answered from the memo.
        assert list(driver._score(actions[::-1])) == list(rewards[::-1])
        assert len(calls) == 1

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
