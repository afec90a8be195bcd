"""Fault-injection suite for the resumable pruning harness.

The acceptance bar: a run killed after any layer and resumed must
reproduce the uninterrupted run's LayerLogs, masks and final accuracy
bit-for-bit, and injected NaNs must trigger rollback+retry (then
skip-and-continue when retries are exhausted) instead of crashing.
"""

import copy

import numpy as np
import pytest

import repro.core.agent as agent_module
import repro.training as training_module
from repro.core import FinetuneConfig, HeadStartConfig
from repro.runtime import (FaultPlan, JournalError, ResumableRunner,
                           ResumeMismatchError, RetryPolicy, RunJournal,
                           SimulatedCrash, inject, resume)
from repro.training import evaluate


def quick_config(**overrides):
    defaults = dict(speedup=2.0, max_iterations=8, min_iterations=3,
                    patience=3, eval_batch=24, seed=0, mc_samples=2)
    defaults.update(overrides)
    return HeadStartConfig(**defaults)


def runner_kwargs(**overrides):
    kwargs = dict(config=quick_config(),
                  finetune_config=FinetuneConfig(epochs=1, batch_size=24,
                                                 lr=0.02, seed=0),
                  retry_policy=RetryPolicy(max_retries=1),
                  skip_last=False)
    kwargs.update(overrides)
    return kwargs


def make_runner(model, task, **overrides):
    return ResumableRunner(model, task.train, task.test,
                           **runner_kwargs(**overrides))


def records_of_kind(run_dir, kind):
    return [r for r in RunJournal(run_dir / "journal.jsonl").read()
            if r["record"] == kind]


class TestCrashResume:
    @pytest.mark.parametrize("crash_after", [1, 2])
    def test_resume_reproduces_uninterrupted_run(self, trained_lenet,
                                                 tiny_task, tmp_path,
                                                 crash_after):
        baseline = make_runner(copy.deepcopy(trained_lenet), tiny_task)
        expected = baseline.run(tmp_path / "uninterrupted").result

        with inject(FaultPlan().crash_at("runtime.layer_complete",
                                         crash_after)):
            with pytest.raises(SimulatedCrash):
                make_runner(copy.deepcopy(trained_lenet),
                            tiny_task).run(tmp_path / "killed")

        report = resume(tmp_path / "killed", copy.deepcopy(trained_lenet),
                        tiny_task.train, tiny_task.test, **runner_kwargs())
        assert report.resumed_layers == crash_after
        assert report.result.layers == expected.layers
        assert sorted(report.result.masks) == sorted(expected.masks)
        for name, mask in expected.masks.items():
            assert np.array_equal(report.result.masks[name], mask)
        assert report.result.final_accuracy == expected.final_accuracy

    def test_resume_restores_initial_weights(self, trained_lenet, tiny_task,
                                             tmp_path):
        """Resume continues from journaled weights even if the passed
        model has drifted (e.g. was re-trained differently)."""
        baseline = make_runner(copy.deepcopy(trained_lenet), tiny_task)
        expected = baseline.run(tmp_path / "uninterrupted").result

        with inject(FaultPlan().crash_at("runtime.layer_complete", 1)):
            with pytest.raises(SimulatedCrash):
                make_runner(copy.deepcopy(trained_lenet),
                            tiny_task).run(tmp_path / "killed")

        drifted = copy.deepcopy(trained_lenet)
        drifted.conv1.weight.data += 0.05  # not the weights the run started from
        report = resume(tmp_path / "killed", drifted, tiny_task.train,
                        tiny_task.test, **runner_kwargs())
        assert report.result.layers == expected.layers

    def test_resume_of_completed_run_replays_journal(self, trained_lenet,
                                                     tiny_task, tmp_path):
        run_dir = tmp_path / "complete"
        expected = make_runner(copy.deepcopy(trained_lenet),
                               tiny_task).run(run_dir).result
        report = resume(run_dir, copy.deepcopy(trained_lenet),
                        tiny_task.train, tiny_task.test, **runner_kwargs())
        assert report.resumed_layers == len(expected.layers)
        assert report.result.layers == expected.layers
        assert report.result.final_accuracy == expected.final_accuracy
        # Replaying must not append a second run_complete record.
        assert len(records_of_kind(run_dir, "run_complete")) == 1

    def test_resume_twice_after_torn_journal_write(self, trained_lenet,
                                                   tiny_task, tmp_path):
        """A crash mid-journal-write leaves a torn trailing line with no
        newline.  The first resume must repair the tail before appending
        (not concatenate onto it), and a second resume must still parse
        every journal line."""
        baseline = make_runner(copy.deepcopy(trained_lenet), tiny_task)
        expected = baseline.run(tmp_path / "uninterrupted").result

        run_dir = tmp_path / "killed"
        with inject(FaultPlan().crash_at("runtime.layer_complete", 1)):
            with pytest.raises(SimulatedCrash):
                make_runner(copy.deepcopy(trained_lenet),
                            tiny_task).run(run_dir)
        journal_path = run_dir / "journal.jsonl"
        blob = journal_path.read_bytes().rstrip(b"\n")
        journal_path.write_bytes(blob[:-7])  # tear the last record mid-line

        report = resume(run_dir, copy.deepcopy(trained_lenet),
                        tiny_task.train, tiny_task.test, **runner_kwargs())
        assert report.result.layers == expected.layers
        assert report.result.final_accuracy == expected.final_accuracy

        second = resume(run_dir, copy.deepcopy(trained_lenet),
                        tiny_task.train, tiny_task.test, **runner_kwargs())
        assert second.resumed_layers == len(expected.layers)
        assert second.result.layers == expected.layers

    def test_fresh_run_refuses_existing_journal(self, trained_lenet,
                                                tiny_task, tmp_path):
        run_dir = tmp_path / "run"
        make_runner(copy.deepcopy(trained_lenet), tiny_task).run(run_dir)
        with pytest.raises(JournalError):
            make_runner(copy.deepcopy(trained_lenet),
                        tiny_task).run(run_dir)

    def test_resume_with_changed_config_is_refused(self, trained_lenet,
                                                   tiny_task, tmp_path):
        run_dir = tmp_path / "run"
        with inject(FaultPlan().crash_at("runtime.layer_complete", 1)):
            with pytest.raises(SimulatedCrash):
                make_runner(copy.deepcopy(trained_lenet),
                            tiny_task).run(run_dir)
        with pytest.raises(ResumeMismatchError):
            resume(run_dir, copy.deepcopy(trained_lenet), tiny_task.train,
                   tiny_task.test,
                   **runner_kwargs(config=quick_config(speedup=5.0)))


class TestDivergenceRetry:
    def test_nan_loss_triggers_rollback_and_retry(self, trained_lenet,
                                                  tiny_task, tmp_path):
        run_dir = tmp_path / "run"
        with inject(FaultPlan().nan_at("reinforce.loss", 1)):
            report = make_runner(copy.deepcopy(trained_lenet),
                                 tiny_task).run(run_dir)
        assert len(report.result.layers) == 2  # run completed regardless
        assert report.retried_layers == {"conv1": 1}
        failed = records_of_kind(run_dir, "layer_attempt_failed")
        assert len(failed) == 1
        assert failed[0]["stage"] == "reinforce.loss"
        assert records_of_kind(run_dir, "run_complete")

    def test_nan_during_finetune_rolls_back_surgery(self, trained_lenet,
                                                    tiny_task, tmp_path):
        original_maps = trained_lenet.prune_units()[0].num_maps
        with inject(FaultPlan().nan_at("training.loss", 1)):
            report = make_runner(copy.deepcopy(trained_lenet),
                                 tiny_task).run(tmp_path / "run")
        assert report.retried_layers == {"conv1": 1}
        # The retry re-pruned from the *unpruned* layer, so the log's
        # before-count matches the original width (surgery rolled back).
        assert report.result.layers[0].maps_before == original_maps

    def test_exhausted_retries_skip_layer_and_continue(self, trained_lenet,
                                                       tiny_task, tmp_path):
        model = copy.deepcopy(trained_lenet)
        widths = [unit.num_maps for unit in model.prune_units()]
        run_dir = tmp_path / "run"
        with inject(FaultPlan().nan_at("reinforce.loss")):
            report = make_runner(model, tiny_task).run(run_dir)
        assert report.skipped_layers == ["conv1", "conv2"]
        assert report.result.layers == []
        assert report.result.final_accuracy is not None
        skipped = records_of_kind(run_dir, "layer_skipped")
        assert [r["name"] for r in skipped] == ["conv1", "conv2"]
        assert all(len(r["failures"]) == 2 for r in skipped)  # 1 + 1 retry
        # Skip-and-continue left the model physically untouched.
        assert [u.num_maps for u in model.prune_units()] == widths
        assert records_of_kind(run_dir, "run_complete")

    def test_skipped_prefix_layer_survives_resume(self, trained_lenet,
                                                  tiny_task, tmp_path):
        run_dir = tmp_path / "run"
        # Each attempt dies on its first loss, so poisoning calls 1-2
        # fails both of conv1's attempts; conv2 then completes cleanly
        # and the crash fires right after it is journaled.
        plan = (FaultPlan().nan_at("reinforce.loss", 1, 2)
                .crash_at("runtime.layer_complete", 1))
        with inject(plan):
            with pytest.raises(SimulatedCrash):
                make_runner(copy.deepcopy(trained_lenet),
                            tiny_task).run(run_dir)
        report = resume(run_dir, copy.deepcopy(trained_lenet),
                        tiny_task.train, tiny_task.test, **runner_kwargs())
        assert report.skipped_layers == ["conv1"]
        assert [log.name for log in report.result.layers] == ["conv2"]
        assert report.result.final_accuracy is not None


class TestCollapseBaseline:
    """The collapse guard's baseline is measured once per model state."""

    @staticmethod
    def _count_calibration_evals(monkeypatch, runner):
        """Count ``evaluate`` calls on the runner's calibration set: the
        harness's (``engine.current_accuracy``) and the agents'."""
        images = runner.engine.calibration[0]
        calls = []

        def counting(model, batch, labels, *args, **kwargs):
            if batch.shape == images.shape and np.array_equal(batch, images):
                calls.append(1)
            return evaluate(model, batch, labels, *args, **kwargs)

        monkeypatch.setattr(training_module, "evaluate", counting)
        monkeypatch.setattr(agent_module, "evaluate", counting)
        return calls

    @staticmethod
    def _record_baselines(runner):
        """(baseline handed to each step, fresh calibration accuracy)."""
        engine = runner.engine
        run_step = engine.run_step
        seen = []

        def recording(spec, state):
            seen.append((state.baseline_accuracy, engine.current_accuracy()))
            return run_step(spec, state)

        engine.run_step = recording
        return seen

    def test_one_evaluation_per_model_state(self, trained_lenet, tiny_task,
                                            tmp_path, monkeypatch):
        runner = make_runner(copy.deepcopy(trained_lenet), tiny_task)
        steps = len(runner.engine.steps())
        calls = self._count_calibration_evals(monkeypatch, runner)
        runner.run(tmp_path / "run")
        # Before carrying: a baseline, a post-step accuracy and the
        # agent's original accuracy per step (3 x steps).
        assert len(calls) == 1 + steps

    @pytest.mark.parametrize("plan", ["clean", "rollback"])
    def test_every_baseline_is_the_current_accuracy(self, trained_lenet,
                                                    tiny_task, tmp_path,
                                                    plan):
        runner = make_runner(copy.deepcopy(trained_lenet), tiny_task)
        seen = self._record_baselines(runner)
        faults = FaultPlan()
        if plan == "rollback":
            faults.nan_at("training.loss", 1)   # conv1's first fine-tune
        with inject(faults):
            report = runner.run(tmp_path / "run")
        assert report.retried_layers == ({"conv1": 1} if plan == "rollback"
                                         else {})
        assert len(seen) == len(runner.engine.steps()) \
            + sum(report.retried_layers.values())
        assert all(baseline == fresh for baseline, fresh in seen)

    def test_resumed_run_writes_the_uninterrupted_journal(
            self, trained_lenet, tiny_task, tmp_path):
        make_runner(copy.deepcopy(trained_lenet),
                    tiny_task).run(tmp_path / "uninterrupted")
        with inject(FaultPlan().crash_at("runtime.layer_complete", 1)):
            with pytest.raises(SimulatedCrash):
                make_runner(copy.deepcopy(trained_lenet),
                            tiny_task).run(tmp_path / "killed")
        runner = make_runner(copy.deepcopy(trained_lenet), tiny_task)
        seen = self._record_baselines(runner)
        report = runner.run(tmp_path / "killed", resume=True)
        assert report.resumed_layers == 1
        # The resumed step's baseline was measured afresh, and matches.
        assert len(seen) == 1 and seen[0][0] == seen[0][1]
        assert (tmp_path / "killed" / "journal.jsonl").read_bytes() \
            == (tmp_path / "uninterrupted" / "journal.jsonl").read_bytes()

    @pytest.mark.parametrize("calibration_size", [24, 48])
    def test_handing_the_baseline_to_agents_changes_nothing(
            self, trained_lenet, tiny_task, tmp_path, calibration_size):
        # 24 images are the agents' whole batch, so they take the
        # baseline.  Of 48 they score the first 24 and measure their own
        # original accuracy: the shifted labels of the other 24 make the
        # full set's accuracy differ from the batch's.
        images = tiny_task.train.images[:calibration_size]
        labels = tiny_task.train.labels[:calibration_size].copy()
        labels[24:] = (labels[24:] + 1) % 6
        assert calibration_size == 24 or evaluate(
            trained_lenet, images, labels) != evaluate(
            trained_lenet, images[:24], labels[:24])
        runs = []
        for ratio in (0.5, 0.0):
            run_dir = tmp_path / f"ratio-{ratio}"
            report = make_runner(copy.deepcopy(trained_lenet), tiny_task,
                                 calibration=(images, labels),
                                 collapse_ratio=ratio).run(run_dir)
            runs.append((
                [record for record
                 in RunJournal(run_dir / "journal.jsonl").read()
                 if record["record"] == "layer_complete"],
                {name: result.reward_history for name, result
                 in report.result.agent_results.items()}))
        assert runs[0] == runs[1]
