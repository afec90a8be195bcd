"""Crash-safe, self-healing driver for stepped pruning engines.

:class:`ResumableRunner` drives any engine implementing the
:class:`~repro.pruning.engine.SteppedEngine` protocol — layer-wise
HeadStart, block-level HeadStart and the metric baselines — under the
full fault-tolerant protocol:

* every completed step is journaled (:mod:`repro.runtime.journal`) with
  its engine payload, log row and an atomic model checkpoint, so a run
  killed at step ``k`` resumes from step ``k`` with results bit-for-bit
  identical to an uninterrupted run;
* divergence (:class:`~repro.runtime.errors.DivergenceError`, non-finite
  gradients), post-surgery accuracy collapse, structural invariant
  violations (:mod:`repro.runtime.validate`) and watchdog budget
  overruns (:mod:`repro.runtime.watchdog`) all trigger rollback to the
  pre-step model and a retry with a reseeded, more conservative config
  (:class:`~repro.runtime.retry.RetryPolicy`);
* when retries are exhausted, a :class:`~repro.runtime.fallback
  .FallbackChain` (if configured) re-decides a step that decides one
  unit with a cheaper metric engine at the same survivor budget and
  journals a ``degraded`` record; only when that too fails (or no chain
  is given, or the step is the block pattern) is the step skipped, and
  the run continues — degraded, not dead.

Per-step determinism is what makes resume exact: each step self-seeds
from its config and step index, so a step's outcome depends only on
(model state, configs, data) — all of which the journal and checkpoints
reconstruct.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..nn.numeric import NonFiniteError
from ..obs import get_recorder
from ..pruning.engine import StepOutcome, StepSpec, StepState
from ..utils.serialization import load_checkpoint, save_checkpoint
from . import faults, watchdog
from .errors import DivergenceError, JournalError, ResumeMismatchError
from .fallback import FallbackChain
from .guards import check_accuracy_collapse
from .journal import FORMAT_VERSION, RunJournal, config_digest
from .retry import RetryPolicy
from .validate import check_masks, check_model
from .watchdog import StepBudget

__all__ = ["RunReport", "ResumableRunner", "resume"]

INITIAL_CHECKPOINT = "initial.npz"


@dataclass
class RunReport:
    """What a fault-tolerant run produced, beyond the core result."""

    result: object
    run_dir: Path
    resumed_layers: int = 0
    skipped_layers: list[str] = field(default_factory=list)
    retried_layers: dict[str, int] = field(default_factory=dict)
    degraded_steps: dict[str, str] = field(default_factory=dict)

    @property
    def journal_path(self) -> Path:
        return self.run_dir / "journal.jsonl"


class ResumableRunner:
    """Runs any stepped pruning engine under journal + retry protection.

    The first positional argument may be a ready-made stepped engine
    (anything with ``run_step``, e.g. from
    :func:`repro.pruning.build_engine`) or — the historical calling
    convention — a model, in which case the remaining HeadStart
    constructor arguments build a
    :class:`~repro.core.pruner.HeadStartPruner`.

    Robustness knobs: ``collapse_ratio`` is the accuracy floor after a
    step relative to the pre-step calibration accuracy (0 disables the
    check; the pre-step accuracy is the previous step's post-step one,
    measured afresh after a resume, rollback or fallback);
    ``retry_policy`` governs rollback/reseed behaviour; ``budget`` arms a
    per-step :class:`~repro.runtime.watchdog.StepBudget`; ``fallback``
    degrades exhausted steps to metric baselines instead of skipping
    them; ``validate=False`` disables the post-surgery structural
    invariant checks.  None of these enter the resume digest — they are
    operational knobs a resume may legitimately tune.
    """

    def __init__(self, model=None, train_set=None, test_set=None, *,
                 engine=None, config=None, finetune_config="__default__",
                 calibration=None, input_shape=None,
                 retry_policy: RetryPolicy | None = None,
                 collapse_ratio: float = 0.5,
                 skip_last: bool = True,
                 budget: StepBudget | None = None,
                 fallback: FallbackChain | None = None,
                 validate: bool = True):
        if engine is None and hasattr(model, "run_step"):
            engine, model = model, None
        if engine is None:
            from ..core.pruner import _DEFAULT_FINETUNE, HeadStartPruner
            if finetune_config == "__default__":
                finetune_config = _DEFAULT_FINETUNE
            engine = HeadStartPruner(
                model, train_set, test_set, config=config,
                finetune_config=finetune_config, calibration=calibration,
                input_shape=input_shape, skip_last=skip_last)
        self.engine = engine
        self.retry_policy = retry_policy or RetryPolicy()
        self.collapse_ratio = float(collapse_ratio)
        self.budget = budget
        self.fallback = fallback
        self.validate = bool(validate)

    @property
    def model(self):
        return self.engine.model

    # -- identity ----------------------------------------------------------
    def _primary_name(self) -> str:
        return self.engine.describe().name

    def _calibration_digest(self) -> str:
        images, labels = self.engine.calibration_arrays()
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(images).tobytes())
        digest.update(np.ascontiguousarray(labels).tobytes())
        return digest.hexdigest()[:16]

    def _digest(self, names: list[str]) -> str:
        # budget / fallback / validate are deliberately excluded: they
        # shape *how* failures are handled, not what a successful step
        # computes, so a resume may tighten or relax them.  Engine
        # fingerprints likewise strip performance knobs (graph eval —
        # see repro.core.config.PERF_FIELDS); the driver's reward memo is
        # per-run, in-memory state that never enters the journal.
        return config_digest(self.engine.fingerprint(),
                             self.retry_policy,
                             {"collapse_ratio": self.collapse_ratio,
                              "units": names,
                              "calibration": self._calibration_digest()})

    # -- rollback ----------------------------------------------------------
    def _restore(self, backup) -> None:
        """Reinstate the pre-step model (architecture and weights)."""
        self.engine.model = copy.deepcopy(backup)

    # -- guards ------------------------------------------------------------
    def _check(self, spec: StepSpec, outcome: StepOutcome,
               pre_accuracy: float) -> None:
        """Post-apply invariants: masks, model wiring, accuracy floor."""
        if self.validate:
            payload = outcome.payload or {}
            if "mask" in payload:
                check_masks({spec.name: payload["mask"]}, layer=spec.name)
            check_model(self.engine.model, layer=spec.name)
        after = outcome.accuracy if outcome.accuracy is not None else math.nan
        check_accuracy_collapse(pre_accuracy, after, self.collapse_ratio,
                                layer=spec.name)

    def _journal_failure(self, journal: RunJournal, index: int, name: str,
                         attempt: int, error: Exception,
                         engine_name: str | None = None) -> dict:
        failure = {"attempt": attempt, "kind": type(error).__name__,
                   "message": str(error)}
        if isinstance(error, DivergenceError):
            failure.update(error.as_record())
        if engine_name is not None:
            failure["engine"] = engine_name
        journal.append({"record": "layer_attempt_failed",
                        "index": index, "name": name, **failure})
        # Mirror the journal's failure record into the metrics stream so
        # retries show up in summaries.
        get_recorder().counter("runtime/layer_retries", 1, layer=name,
                               kind=failure["kind"])
        return failure

    # -- graceful degradation ----------------------------------------------
    def _degrade(self, journal: RunJournal, spec: StepSpec, backup,
                 pre_accuracy: float, failures: list[dict]
                 ) -> tuple[StepOutcome | None, str | None]:
        """Finish an exhausted layer step with the fallback chain's engines."""
        images, labels = self.engine.calibration_arrays()
        for engine_name in self.fallback.engines:
            state = StepState(attempt=len(failures),
                              need_accuracy=self.collapse_ratio > 0.0)
            try:
                keep_count = self.engine.fallback_keep_count(spec.name)
                with watchdog.watch(self.budget, spec.name):
                    mask = self.fallback.mask_for(
                        engine_name, self.engine.model, spec.name,
                        keep_count, images, labels, step_index=spec.index)
                    outcome = self.engine.fallback_outcome(spec, mask,
                                                           engine_name)
                    self.engine.apply_step(spec, outcome, state)
                self._check(spec, outcome, pre_accuracy)
            except (DivergenceError, NonFiniteError) as error:
                failures.append(self._journal_failure(
                    journal, spec.index, spec.name, len(failures), error,
                    engine_name=engine_name))
                self._restore(backup)
                continue
            journal.append({"record": "degraded", "index": spec.index,
                            "name": spec.name, "engine": engine_name,
                            "attempts": len(failures)})
            rec = get_recorder()
            rec.counter("runtime/steps_degraded", 1, layer=spec.name,
                        engine=engine_name)
            rec.mark("runtime/degraded", step=spec.name, engine=engine_name)
            return outcome, engine_name
        return None, None

    # -- resume rebuild ----------------------------------------------------
    def _rebuild(self, journal: RunJournal, specs: list[StepSpec],
                 names: list[str], report: RunReport, result) -> int:
        """Replay the journal's completed prefix; returns the next index."""
        header = journal.header()
        if header.get("units") != names:
            raise ResumeMismatchError(
                f"journal covers units {header.get('units')!r} but this "
                f"engine yields {names!r}")
        if header.get("digest") != self._digest(names):
            raise ResumeMismatchError(
                "run configuration does not match the journal (engine "
                "config, calibration data or collapse ratio changed); "
                "resume requires identical settings")
        run_dir = journal.path.parent
        # The initial checkpoint pins the exact starting weights, so a
        # resumed run is a continuation even if the caller re-trained.
        load_checkpoint(self.engine.model, run_dir / INITIAL_CHECKPOINT)
        primary = self._primary_name()
        done = journal.completed_layers()
        prefix = journal.contiguous_prefix(done)
        last_checkpoint: str | None = None
        for index in range(prefix):
            record = done[index]
            name = record["name"]
            if record["record"] == "layer_complete":
                payload = record.get("payload") or {}
                self.engine.replay_step(specs[index], payload)
                self.engine.accumulate(
                    result, specs[index],
                    StepOutcome(payload=payload, log=record.get("log")))
                last_checkpoint = record.get("checkpoint")
                if record.get("attempts", 1) > 1:
                    report.retried_layers[name] = record["attempts"] - 1
                produced_by = record.get("engine")
                if produced_by and produced_by != primary:
                    report.degraded_steps[name] = produced_by
            else:
                report.skipped_layers.append(name)
        if last_checkpoint is not None:
            load_checkpoint(self.engine.model, run_dir / last_checkpoint)
        report.resumed_layers = prefix
        return prefix

    # -- main entry ---------------------------------------------------------
    def run(self, run_dir: str | Path, resume: bool = False) -> RunReport:
        """Execute (or continue) the whole run under ``run_dir``.

        With ``resume=True`` an existing journal is continued from its
        first incomplete step; without one, a fresh run starts (so
        ``resume=True`` is safe to pass unconditionally).  A fresh run
        refuses to write into a directory that already has a journal.
        """
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        journal = RunJournal(run_dir / "journal.jsonl")
        specs = self.engine.steps()
        names = [spec.name for spec in specs]
        result = self.engine.new_result()
        report = RunReport(result=result, run_dir=run_dir)

        already_complete = False
        if journal.exists():
            if not resume:
                raise JournalError(
                    f"{journal.path} already exists; pass resume=True to "
                    f"continue it or choose a fresh run directory")
            start = self._rebuild(journal, specs, names, report, result)
            already_complete = any(r.get("record") == "run_complete"
                                   for r in journal.read())
        else:
            save_checkpoint(self.engine.model, run_dir / INITIAL_CHECKPOINT)
            journal.append({"record": "run_start",
                            "version": FORMAT_VERSION,
                            "digest": self._digest(names),
                            "units": names,
                            "engine": self._primary_name(),
                            "fingerprint": self.engine.fingerprint()})
            start = 0

        guarded = self.collapse_ratio > 0.0
        # The previous step's post-step calibration accuracy, while it
        # still describes the model: None after a resume, a rollback or
        # a fallback, and then the next baseline is measured afresh.
        carried: float | None = None
        for index in range(start, len(specs)):
            spec = specs[index]
            name = spec.name
            failures: list[dict] = []
            # The baseline accuracy only feeds the collapse guard, so a
            # disabled guard skips the evaluation; NaN is "cannot judge"
            # and check_accuracy_collapse passes it.
            baseline = None
            if guarded:
                baseline = (carried if carried is not None
                            else self.engine.current_accuracy())
            carried = None
            pre_accuracy = math.nan if baseline is None else baseline
            backup = copy.deepcopy(self.engine.model)
            outcome: StepOutcome | None = None
            used_engine: str | None = None
            for attempt in range(self.retry_policy.max_retries + 1):
                override = None if attempt == 0 else self.engine.retry_config(
                    spec, self.retry_policy, attempt)
                state = StepState(attempt=attempt, config_override=override,
                                  need_accuracy=guarded,
                                  baseline_accuracy=baseline)
                try:
                    with watchdog.watch(self.budget, name):
                        out = self.engine.run_step(spec, state)
                        self.engine.apply_step(spec, out, state)
                    self._check(spec, out, pre_accuracy)
                    outcome = out
                    break
                except (DivergenceError, NonFiniteError) as error:
                    failures.append(self._journal_failure(
                        journal, index, name, attempt, error))
                    self._restore(backup)
            if outcome is None and self.fallback is not None \
                    and spec.decides_unit:
                outcome, used_engine = self._degrade(
                    journal, spec, backup, pre_accuracy, failures)
            if outcome is None:
                journal.append({"record": "layer_skipped", "index": index,
                                "name": name, "failures": failures})
                get_recorder().counter("runtime/layers_skipped", 1,
                                       layer=name)
                report.skipped_layers.append(name)
                continue
            if failures:
                report.retried_layers[name] = len(failures)
            if used_engine is not None:
                report.degraded_steps[name] = used_engine
            if not failures:        # neither rolled back nor degraded
                carried = outcome.accuracy
            checkpoint = save_checkpoint(self.engine.model,
                                         run_dir / f"layer_{index:02d}")
            journal.append({"record": "layer_complete", "index": index,
                            "name": name,
                            "engine": used_engine or self._primary_name(),
                            "payload": outcome.payload,
                            "log": outcome.log,
                            "checkpoint": checkpoint.name,
                            "attempts": len(failures) + 1,
                            "failures": failures})
            self.engine.accumulate(result, spec, outcome)
            faults.crash_point("runtime.layer_complete")

        self.engine.finalize(result)
        if not already_complete:
            journal.append({"record": "run_complete",
                            "final_accuracy": result.final_accuracy,
                            "skipped": report.skipped_layers,
                            "degraded": report.degraded_steps})
        return report

    def resume(self, run_dir: str | Path) -> RunReport:
        """Continue an interrupted run (alias for ``run(resume=True)``)."""
        return self.run(run_dir, resume=True)


def resume(run_dir: str | Path, model, train_set=None, test_set=None,
           **kwargs) -> RunReport:
    """Rebuild and continue the run journaled under ``run_dir``.

    ``model`` must be the *original* (unpruned) architecture — or a
    stepped engine wrapping it; its weights are replaced by the journal's
    initial checkpoint, completed steps' payloads are re-applied with
    physical surgery, the last per-step checkpoint is loaded, and the run
    continues from the first incomplete step.  Remaining keyword
    arguments mirror :class:`ResumableRunner`.
    """
    runner = ResumableRunner(model, train_set, test_set, **kwargs)
    return runner.run(run_dir, resume=True)
