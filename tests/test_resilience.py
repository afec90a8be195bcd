"""Watchdog budgets, graceful degradation and cross-engine resume.

Covers the engine-generic robustness layer: :class:`StepBudget`
deadlines enforced at the fault-hook sites (with virtual-clock stalls,
so nothing sleeps), :class:`FallbackChain` degradation of exhausted
steps to metric baselines, the collapse guard's "cannot judge" rule,
duplicate-free journals across kill/resume, and the chaos scenario
(kill, resume, bit-for-bit diff) for every stepped engine kind.
"""

import copy
import math

import numpy as np
import pytest

from repro import obs
from repro.core import (BlockHeadStart, FinetuneConfig, HeadStartConfig,
                        HeadStartPruner)
from repro.pruning import build_engine
from repro.runtime import (BudgetExceededError, DivergenceError,
                           FallbackChain, FaultPlan, ResumableRunner,
                           RetryPolicy, RunJournal, SimulatedCrash,
                           StepBudget, inject, model_problems)
from repro.runtime import watchdog
from repro.runtime.chaos import ENGINE_KINDS, run_chaos
from repro.runtime.guards import check_accuracy_collapse


def quick_config(seed=0):
    return HeadStartConfig(speedup=2.0, max_iterations=6, min_iterations=3,
                           patience=3, eval_batch=24, seed=seed,
                           mc_samples=2)


def make_engine(kind, model, task, seed=0):
    """One stepped engine of each kind over the tiny task."""
    if kind == "headstart":
        return HeadStartPruner(
            model, task.train, task.test, config=quick_config(seed),
            finetune_config=FinetuneConfig(epochs=1, batch_size=24, lr=0.02,
                                           seed=seed),
            skip_last=False)
    if kind == "block":
        return BlockHeadStart(model, task.train, config=quick_config(seed))
    return build_engine(kind, model, (task.train.images, task.train.labels),
                        speedup=2.0, eval_batch=24, seed=seed,
                        skip_last=False)


#: Fault-hook site each engine's inner loop passes through every
#: iteration — where a planted stall registers on the watchdog clock.
STALL_SITES = {"headstart": "reinforce.loss", "block": "reinforce.loss",
               "li17": "metric.select"}


def journal_records(run_dir, kind):
    return [r for r in RunJournal(run_dir / "journal.jsonl").read()
            if r["record"] == kind]


def assert_same_state(a, b):
    state_a, state_b = a.state_dict(), b.state_dict()
    assert state_a.keys() == state_b.keys()
    for key, value in state_a.items():
        assert value.tobytes() == state_b[key].tobytes(), key


class TestWatchdog:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            StepBudget(max_seconds=0.0)
        with pytest.raises(ValueError):
            StepBudget(max_evals=0)
        StepBudget()  # both limits optional

    def test_eval_budget_trips_on_excess_ticks(self):
        with watchdog.watch(StepBudget(max_evals=2), "conv1"):
            watchdog.tick("reinforce.loss")
            watchdog.tick("reinforce.loss")
            with pytest.raises(BudgetExceededError) as info:
                watchdog.tick("reinforce.loss")
        error = info.value
        assert isinstance(error, DivergenceError)
        assert error.stage == "watchdog.budget"
        assert error.layer == "conv1"
        assert error.what == "evals"
        assert error.site == "reinforce.loss"

    def test_virtual_stall_trips_seconds_budget_without_sleeping(self):
        with watchdog.watch(StepBudget(max_seconds=60.0), "conv1") as dog:
            watchdog.tick()  # within budget
            watchdog.advance(3600.0)
            assert dog.elapsed() >= 3600.0
            with pytest.raises(BudgetExceededError) as info:
                watchdog.tick("reinforce.reward")
        assert info.value.what == "seconds"
        assert info.value.elapsed >= 3600.0

    def test_no_budget_is_a_noop(self):
        with watchdog.watch(None, "conv1") as dog:
            assert dog is None
            watchdog.tick()
            watchdog.advance(1e9)  # nothing armed, nothing trips

    def test_watch_restores_previous_watchdog(self):
        with watchdog.watch(StepBudget(max_evals=100), "outer") as outer:
            with watchdog.watch(StepBudget(max_evals=100), "inner"):
                assert watchdog.active().step == "inner"
            assert watchdog.active() is outer
        assert watchdog.active() is None


class TestCollapseGuard:
    def test_zero_baseline_cannot_judge(self):
        # A dead-on-arrival model (accuracy 0) gives the ratio test no
        # information; the guard must pass instead of dividing by zero
        # logic into a guaranteed failure.
        check_accuracy_collapse(0.0, 0.0, 0.5)
        check_accuracy_collapse(-1.0, 0.1, 0.5)

    def test_nan_after_cannot_judge(self):
        check_accuracy_collapse(0.8, math.nan, 0.5)

    def test_collapse_still_raises_on_positive_baseline(self):
        with pytest.raises(DivergenceError):
            check_accuracy_collapse(0.8, 0.1, 0.5, layer="conv1")


class TestStallBudgets:
    @pytest.mark.parametrize("kind", ["headstart", "block", "li17"])
    def test_stalled_step_is_journaled_and_skipped(self, kind, tiny_task,
                                                   lenet_copy, resnet_copy,
                                                   tmp_path):
        model = resnet_copy if kind == "block" else lenet_copy
        engine = make_engine(kind, model, tiny_task)
        runner = ResumableRunner(engine=engine, collapse_ratio=0.0,
                                 retry_policy=RetryPolicy(max_retries=0),
                                 budget=StepBudget(max_seconds=60.0))
        with inject(FaultPlan().stall_at(STALL_SITES[kind], seconds=3600.0)):
            report = runner.run(tmp_path / "run")
        failed = journal_records(tmp_path / "run", "layer_attempt_failed")
        budget_failures = [f for f in failed
                           if f["stage"] == "watchdog.budget"]
        assert budget_failures, "stall never tripped the budget"
        # Without a fallback chain the exhausted step is skipped, and
        # the run still terminates with a journaled completion record.
        assert report.skipped_layers
        assert journal_records(tmp_path / "run", "run_complete")

    def test_budget_failure_can_degrade_to_fallback(self, tiny_task,
                                                    lenet_copy, tmp_path):
        engine = make_engine("li17", lenet_copy, tiny_task)
        runner = ResumableRunner(engine=engine, collapse_ratio=0.0,
                                 retry_policy=RetryPolicy(max_retries=0),
                                 budget=StepBudget(max_seconds=60.0),
                                 fallback=FallbackChain(engines=("taylor",)))
        with inject(FaultPlan().stall_at("metric.select", seconds=3600.0)):
            report = runner.run(tmp_path / "run")
        assert not report.skipped_layers
        assert set(report.degraded_steps.values()) == {"taylor"}
        degraded = journal_records(tmp_path / "run", "degraded")
        assert [r["engine"] for r in degraded] == \
            ["taylor"] * len(report.degraded_steps)


class TestGracefulDegradation:
    def test_exhausted_headstart_step_is_completed_by_metric_engine(
            self, tiny_task, lenet_copy, tmp_path):
        engine = make_engine("headstart", lenet_copy, tiny_task)
        runner = ResumableRunner(engine=engine,
                                 retry_policy=RetryPolicy(max_retries=1),
                                 fallback=FallbackChain(
                                     engines=("taylor", "thinet")))
        recorder = obs.Recorder()
        # Poison every REINFORCE loss: the primary engine can never
        # finish a step, so each one must be rescued by the chain.
        with obs.use_recorder(recorder), \
                inject(FaultPlan().nan_at("reinforce.loss")):
            report = runner.run(tmp_path / "run")

        names = [spec.name for spec in engine.steps()]
        assert report.skipped_layers == []
        assert report.degraded_steps == {name: "taylor" for name in names}
        degraded = journal_records(tmp_path / "run", "degraded")
        assert [(r["name"], r["engine"]) for r in degraded] == \
            [(name, "taylor") for name in names]
        # Same survivor budget as the primary engine was aiming for, and
        # a structurally sound pruned model.
        for log in report.result.layers:
            assert log.maps_after < log.maps_before
            assert log.agent_iterations == 0  # metric-ranked, not searched
        assert model_problems(runner.model) == []
        # Degradations are observable: counter + mark per rescued step.
        summary = recorder.aggregate()
        assert summary["counters"]["runtime/steps_degraded"] == len(names)
        assert summary["marks"]["runtime/degraded"] == len(names)
        complete = journal_records(tmp_path / "run", "run_complete")[0]
        assert complete["degraded"] == report.degraded_steps

    def test_degraded_steps_survive_resume(self, tiny_task, lenet_copy,
                                           tmp_path):
        engine = make_engine("headstart", lenet_copy, tiny_task)
        runner = ResumableRunner(engine=engine,
                                 retry_policy=RetryPolicy(max_retries=0),
                                 fallback=FallbackChain(engines=("taylor",)))
        plan = (FaultPlan().nan_at("reinforce.loss")
                .crash_at("runtime.layer_complete", 1))
        with inject(plan):
            with pytest.raises(SimulatedCrash):
                runner.run(tmp_path / "run")

        fresh = ResumableRunner(
            engine=make_engine("headstart", copy.deepcopy(lenet_copy),
                               tiny_task),
            retry_policy=RetryPolicy(max_retries=0),
            fallback=FallbackChain(engines=("taylor",)))
        with inject(FaultPlan().nan_at("reinforce.loss")):
            report = fresh.run(tmp_path / "run", resume=True)
        # The replayed prefix keeps its degraded attribution.
        names = [spec.name for spec in fresh.engine.steps()]
        assert report.degraded_steps == {name: "taylor" for name in names}
        assert report.resumed_layers == 1

    def test_degraded_metric_run_resumes_bit_for_bit(self, tiny_task,
                                                     lenet_copy, tmp_path):
        def runner_for(model):
            return ResumableRunner(
                engine=make_engine("li17", model, tiny_task),
                collapse_ratio=0.0, retry_policy=RetryPolicy(max_retries=0),
                budget=StepBudget(max_seconds=60.0),
                fallback=FallbackChain(engines=("taylor",)))

        def stalled():
            return FaultPlan().stall_at("metric.select", seconds=3600.0)

        baseline = runner_for(copy.deepcopy(lenet_copy))
        with inject(stalled()):
            expected = baseline.run(tmp_path / "baseline")
        with inject(stalled().crash_at("runtime.layer_complete", 1)):
            with pytest.raises(SimulatedCrash):
                runner_for(copy.deepcopy(lenet_copy)).run(tmp_path / "run")
        resumed = runner_for(copy.deepcopy(lenet_copy))
        with inject(stalled()):
            report = resumed.run(tmp_path / "run", resume=True)

        # The replayed step applies the fallback's journaled mask, and
        # the step after it degrades exactly as in the uninterrupted run.
        assert report.resumed_layers == 1
        assert report.degraded_steps == expected.degraded_steps == \
            {"conv1": "taylor", "conv2": "taylor"}
        strip = [{key: r[key] for key in ("name", "engine", "payload")}
                 for r in journal_records(tmp_path / "baseline",
                                          "layer_complete")]
        assert [{key: r[key] for key in ("name", "engine", "payload")}
                for r in journal_records(tmp_path / "run",
                                         "layer_complete")] == strip
        assert list(report.result.masks) == list(expected.result.masks)
        for name, mask in expected.result.masks.items():
            assert np.array_equal(report.result.masks[name], mask)
        assert_same_state(resumed.model, baseline.model)

    def test_exhausted_block_step_is_skipped_not_degraded(
            self, tiny_task, resnet_copy, tmp_path):
        engine = make_engine("block", resnet_copy, tiny_task)
        before = copy.deepcopy(engine.model)
        runner = ResumableRunner(engine=engine,
                                 retry_policy=RetryPolicy(max_retries=0),
                                 fallback=FallbackChain(engines=("taylor",)))
        with inject(FaultPlan().nan_at("reinforce.loss")):
            report = runner.run(tmp_path / "run")
        # The block pattern decides no unit's mask, so no metric engine
        # can finish it: the step is skipped and the model kept whole.
        assert report.skipped_layers == ["blocks"]
        assert report.degraded_steps == {}
        assert journal_records(tmp_path / "run", "degraded") == []
        assert journal_records(tmp_path / "run", "layer_attempt_failed")
        assert runner.model.blocks_per_group == before.blocks_per_group
        assert_same_state(runner.model, before)


class TestFallbackChain:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one engine"):
            FallbackChain(engines=())
        with pytest.raises(ValueError, match="unknown fallback engine"):
            FallbackChain(engines=("taylor", "magic"))

    @pytest.mark.parametrize("engine_name", FallbackChain().engines)
    def test_mask_for_is_one_mask_at_the_budget(self, engine_name,
                                                lenet_copy, calibration):
        images, labels = calibration
        unit = lenet_copy.prune_units()[1]
        maps = unit.num_maps
        chain = FallbackChain()
        mask = chain.mask_for(engine_name, lenet_copy, unit.name, 5,
                              images, labels, step_index=1)
        assert mask.dtype == np.bool_ and mask.shape == (maps,)
        assert np.count_nonzero(mask) == 5
        again = chain.mask_for(engine_name, lenet_copy, unit.name, 5,
                               images, labels, step_index=1)
        assert np.array_equal(mask, again)
        # Selecting decides only; the harness does the surgery.
        assert lenet_copy.prune_units()[1].num_maps == maps


class TestJournalHygiene:
    def test_resume_emits_no_duplicate_records_or_counters(
            self, tiny_task, lenet_copy, tmp_path):
        def runner_for(model):
            return ResumableRunner(engine=make_engine("headstart", model,
                                                      tiny_task))

        baseline_rec = obs.Recorder()
        with obs.use_recorder(baseline_rec):
            runner_for(copy.deepcopy(lenet_copy)).run(tmp_path / "baseline")

        killed_rec = obs.Recorder()
        with obs.use_recorder(killed_rec), \
                inject(FaultPlan().crash_at("runtime.layer_complete", 1)):
            with pytest.raises(SimulatedCrash):
                runner_for(copy.deepcopy(lenet_copy)).run(tmp_path / "run")
        resumed_rec = obs.Recorder()
        with obs.use_recorder(resumed_rec):
            runner_for(copy.deepcopy(lenet_copy)).run(tmp_path / "run",
                                                      resume=True)

        # Journal: each step completed exactly once, one terminal record.
        completed = journal_records(tmp_path / "run", "layer_complete")
        indices = [r["index"] for r in completed]
        assert indices == sorted(set(indices))
        assert len(journal_records(tmp_path / "run", "run_complete")) == 1

        # Replay must not re-emit per-step work: the kill+resume halves
        # add up to exactly the uninterrupted run's counters.
        base = baseline_rec.aggregate()["counters"]
        killed = killed_rec.aggregate()["counters"]
        resumed = resumed_rec.aggregate()["counters"]
        for name in ("pruner/layers_pruned", "pruner/maps_removed"):
            assert killed.get(name, 0) + resumed.get(name, 0) == base[name]


class TestChaosMatrix:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_killed_and_resumed_run_matches_baseline(self, kind, tmp_path):
        # Every column of the chaos matrix CI runs: one per stepped
        # engine, plus HeadStart on the eval-cache fast path and on the
        # graph executor.  test_fault_injection covers HeadStart's
        # kill/resume cases in more depth.
        assert run_chaos(kind, seed=1, root=tmp_path) == []
