"""Skip on exhaustion, structural checks, older journals and resume.

Covers the engine-generic robustness layer: an exhausted step is
journaled and skipped with its model left whole, the collapse guard's
"cannot judge" rule, rollback and retry on the always-on structural
checks, resuming a journal whose step another engine decided (as an
older version's fallback chain wrote them), duplicate-free journals
across kill/resume, and the chaos scenario (kill, resume, bit-for-bit
diff) for every stepped engine kind.
"""

import copy
import json
import math
import shutil

import pytest

from repro import obs
from repro.cli import main
from repro.core import (BlockHeadStart, FinetuneConfig, HeadStartConfig,
                        HeadStartPruner)
from repro.pruning import build_engine
from repro.runtime import (DivergenceError, FaultPlan, ResumableRunner,
                           RetryPolicy, RunJournal, SimulatedCrash, inject)
from repro.runtime.chaos import ENGINE_KINDS, run_chaos
from repro.runtime.guards import check_accuracy_collapse


def quick_config(seed=0):
    return HeadStartConfig(speedup=2.0, max_iterations=6, min_iterations=3,
                           patience=3, eval_batch=24, seed=seed,
                           mc_samples=2)


def make_engine(kind, model, task, seed=0, **kwargs):
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
                        skip_last=False, **kwargs)


def journal_records(run_dir, kind):
    return [r for r in RunJournal(run_dir / "journal.jsonl").read()
            if r["record"] == kind]


def assert_same_state(a, b):
    state_a, state_b = a.state_dict(), b.state_dict()
    assert state_a.keys() == state_b.keys()
    for key, value in state_a.items():
        assert value.tobytes() == state_b[key].tobytes(), key


def journal_first_step_as_degraded(run_dir, engine="taylor"):
    """Rewrite the first completed step of the journal in ``run_dir`` as
    an older version's fallback chain journaled a degraded step: its
    primary attempt blew a watchdog budget, then ``engine`` decided it.
    Returns the step's name."""
    journal = run_dir / "journal.jsonl"
    records = [json.loads(line)
               for line in journal.read_text().splitlines()]
    at = next(i for i, r in enumerate(records)
              if r["record"] == "layer_complete")
    name = records[at]["name"]
    failure = {"attempt": 0, "kind": "BudgetExceededError",
               "message": "1 evals > budget 1", "stage": "watchdog.budget",
               "value": "1", "layer": name, "iteration": None,
               "detail": "1 evals > budget 1"}
    records[at].update(engine=engine, attempts=2, failures=[failure])
    records[at:at] = [
        {"record": "layer_attempt_failed", "index": 0, "name": name,
         **failure},
        {"record": "degraded", "index": 0, "name": name, "engine": engine,
         "attempts": 1}]
    journal.write_text("".join(json.dumps(r) + "\n" for r in records))
    return name


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


class TestSkipOnExhaustion:
    # test_fault_injection covers HeadStart's exhausted layer step.
    def test_exhausted_block_step_is_skipped(self, tiny_task, resnet_copy,
                                             tmp_path):
        engine = make_engine("block", resnet_copy, tiny_task)
        before = copy.deepcopy(engine.model)
        runner = ResumableRunner(engine=engine,
                                 retry_policy=RetryPolicy(max_retries=0))
        with inject(FaultPlan().nan_at("reinforce.loss")):
            report = runner.run(tmp_path / "run")
        # The block pattern is one all-or-nothing step: skipped, and the
        # model kept whole.
        assert report.skipped_layers == ["blocks"]
        assert journal_records(tmp_path / "run", "layer_attempt_failed")
        assert runner.model.blocks_per_group == before.blocks_per_group
        assert_same_state(runner.model, before)

    def test_exhausted_metric_step_is_skipped(self, tiny_task, lenet_copy,
                                              tmp_path):
        # The chaos matrix's li17 column: a one-epoch fine-tune after
        # each step's surgery, whose every loss is poisoned here.
        engine = make_engine(
            "li17", lenet_copy, tiny_task, test_set=tiny_task.test,
            finetune_config=FinetuneConfig(epochs=1, batch_size=24,
                                           lr=0.02, seed=0))
        before = copy.deepcopy(engine.model)
        runner = ResumableRunner(engine=engine,
                                 retry_policy=RetryPolicy(max_retries=1))
        with inject(FaultPlan().nan_at("training.loss")):
            report = runner.run(tmp_path / "run")

        names = [spec.name for spec in engine.steps()]
        assert report.skipped_layers == names
        failed = journal_records(tmp_path / "run", "layer_attempt_failed")
        assert [(f["name"], f["attempt"]) for f in failed] == \
            [(name, attempt) for name in names for attempt in (0, 1)]
        assert {f["stage"] for f in failed} == {"training.loss"}
        [complete] = journal_records(tmp_path / "run", "run_complete")
        assert complete["skipped"] == names
        # Each rollback restored the surgery too: nothing was pruned.
        assert_same_state(runner.model, before)


class TestStructuralChecks:
    def test_invalid_surgery_is_rolled_back_and_retried(self, tiny_task,
                                                        lenet_copy,
                                                        tmp_path):
        """The post-step invariant checks always run: a step whose
        surgery leaves a non-finite weight is journaled at stage
        ``surgery.invariants`` and rolled back, and its retry lands
        where an unpoisoned run does."""
        clean = ResumableRunner(
            engine=make_engine("li17", copy.deepcopy(lenet_copy), tiny_task),
            collapse_ratio=0.0)
        clean.run(tmp_path / "clean")

        engine = make_engine("li17", lenet_copy, tiny_task)
        apply_step = engine.apply_step

        def poisoned_on_first_attempt(spec, outcome, state):
            apply_step(spec, outcome, state)
            if state.attempt == 0:
                engine.model.conv1.weight.data[0, 0, 0, 0] = math.nan

        engine.apply_step = poisoned_on_first_attempt
        runner = ResumableRunner(engine=engine, collapse_ratio=0.0,
                                 retry_policy=RetryPolicy(max_retries=1))
        report = runner.run(tmp_path / "run")

        names = [spec.name for spec in engine.steps()]
        failed = journal_records(tmp_path / "run", "layer_attempt_failed")
        assert [(f["name"], f["attempt"], f["stage"], f["kind"])
                for f in failed] == \
            [(name, 0, "surgery.invariants", "SurgeryInvariantError")
             for name in names]
        assert all("conv1.weight: 1/" in f["detail"] for f in failed)
        assert report.retried_layers == {name: 1 for name in names}
        assert report.skipped_layers == []
        assert_same_state(runner.model, clean.model)


class TestOlderJournal:
    def test_step_decided_by_a_fallback_engine_resumes(self, tiny_task,
                                                       lenet_copy, tmp_path):
        """A journal whose first step an older version's fallback chain
        finished resumes: replay applies the journaled mask, the step
        is reported under the engine its record names, and the run
        ends as an uninterrupted one does."""
        def runner_for(model):
            return ResumableRunner(engine=make_engine("li17", model,
                                                      tiny_task),
                                   collapse_ratio=0.0)

        baseline = runner_for(copy.deepcopy(lenet_copy))
        baseline.run(tmp_path / "baseline")
        run_dir = tmp_path / "run"
        with inject(FaultPlan().crash_at("runtime.layer_complete", 1)):
            with pytest.raises(SimulatedCrash):
                runner_for(copy.deepcopy(lenet_copy)).run(run_dir)

        assert journal_first_step_as_degraded(run_dir) == "conv1"

        resumed = runner_for(copy.deepcopy(lenet_copy))
        report = resumed.run(run_dir, resume=True)
        assert report.resumed_layers == 1
        assert report.degraded_steps == {"conv1": "taylor"}
        # Journal format v2 is unchanged: the footer still maps each
        # step another engine decided to that engine.
        [complete] = journal_records(run_dir, "run_complete")
        assert complete["degraded"] == {"conv1": "taylor"}
        payloads = [(r["name"], r["payload"])
                    for r in journal_records(run_dir, "layer_complete")]
        assert payloads == [(r["name"], r["payload"]) for r in
                            journal_records(tmp_path / "baseline",
                                            "layer_complete")]
        assert_same_state(resumed.model, baseline.model)

        out = tmp_path / "report.md"
        assert main(["report", str(run_dir), "--format", "md",
                     "--out", str(out)]) == 0
        [row] = [line for line in out.read_text().splitlines()
                 if "| conv1 |" in line]
        assert [cell.strip() for cell in row.split("|")][3] == "taylor"

    def test_prune_names_the_engine_of_a_replayed_step(self, journaled_run,
                                                       tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(journaled_run, run_dir)
        name = journal_first_step_as_degraded(run_dir, engine="thinet")
        assert main(["prune", "--model", "lenet", "--classes", "4",
                     "--image-size", "12", "--train-per-class", "6",
                     "--test-per-class", "3", "--epochs", "1",
                     "--iterations", "6", "--finetune-epochs", "1",
                     "--eval-batch", "16", "--run-dir", str(run_dir),
                     "--resume"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert any(line.startswith("resumed after 1 journaled step(s)")
                   for line in lines)
        assert f"step {name} completed by fallback engine thinet" in lines
        assert "skipped" not in captured.err


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
        # engine, plus HeadStart on the graph executor.
        # test_fault_injection covers HeadStart's kill/resume cases in
        # more depth.
        assert run_chaos(kind, seed=1, root=tmp_path) == []
