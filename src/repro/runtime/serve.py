"""Multi-daemon job-queue fleet + daemon: ``repro serve``.

Multi-tenant front end over the fault-tolerant runtime: pruning jobs
are JSON spec files in a queue directory, any number of daemons claim
them one at a time, run each under
:class:`~repro.runtime.harness.ResumableRunner` in its own run
directory, and journal queue transitions to ``serve.jsonl`` (a
:class:`~repro.runtime.journal.RunJournal`, so queue history gets the
same torn-tail repair and cross-process append lock as run journals).

Layout under the queue root::

    pending/job-0001.json       submitted specs, claimed in id order
    active/job-0002.json        claimed by a daemon (atomic rename)
    active/job-0002.lease       heartbeat lease: owning daemon, pid,
                                host, deadline (renewed while running)
    done/…  failed/…            terminal states
    quarantined/job-0003.json   poison jobs parked after max_attempts,
                                with job-0003.failure.json alongside
    runs/job-0002/              per-job run dir: journal.jsonl,
                                checkpoints, metrics.jsonl
    health/<daemon>.json        per-daemon live status surface
    serve.jsonl                 queue-transition journal
    drain.json                  drain sentinel (``repro serve --drain``)

**Fleet safety.**  Claim races are settled by atomic rename (exactly
one ``pending/ -> active/`` rename wins); ownership *while running* is
a heartbeat lease next to the active spec, renewed by the owning
daemon.  :meth:`JobQueue.recover` only reclaims active jobs whose
lease is expired or whose owner process is dead, so N daemons share
one queue with every job executed exactly once.  A daemon that loses
its lease anyway (paused past the deadline, then taken over) discovers
the loss on its next renewal and abandons the job at the following
step boundary instead of double-executing to completion.

**Poison jobs.**  Failures requeue the job with a journaled
``job_retry``; after ``max_attempts`` total attempts (failed runs plus
crash recoveries, counted from ``serve.jsonl``) the job is moved to
``quarantined/`` with its captured failure record instead of
crash-looping the fleet.  The daemon's circuit breaker separately
pauses claiming with seeded exponential backoff when *distinct*
consecutive jobs fail — a run of different jobs failing points at a
bad host, not a bad job.

**Drain.**  SIGTERM/SIGINT (or the ``drain.json`` sentinel written by
``repro serve --drain``) put a daemon into drain mode: the current job
stops at the next step boundary with all completed steps journaled,
goes back to ``pending`` (``job_drained``), the lease is released, a
final health record is written, and the daemon exits 0.

Recovery needs no daemon state: a job's progress lives in
``runs/<id>/journal.jsonl``, so however its daemon died, the next
claim resumes from the first incomplete step —
``ResumableRunner.run(..., resume=True)`` makes the finished job
bit-for-bit identical to one that was never interrupted.

Job specs are flat JSON objects; every field is optional (see
``SPEC_DEFAULTS``).  ``engine`` picks the stepped engine kind
(``headstart``, ``block``, ``amc``, or a metric kind like ``li17``);
``workers``/``task_seconds``/``task_retries`` thread through to the
evaluation pool (:mod:`repro.runtime.pool`); ``eval_mode``
(``graph``, the :class:`repro.core.EvalOptions` default, or ``dense``)
picks the reward evaluation path.  Unknown or mistyped fields are
rejected at submission with the offending names (and a did-you-mean
hint), never silently dropped.
"""

from __future__ import annotations

import difflib
import itertools
import json
import os
import signal
import socket
import threading
import time
import uuid
import zlib
from pathlib import Path

import numpy as np

from ..core.config import EvalOptions
from ..obs import Recorder, get_recorder, use_recorder
from .errors import RunInterrupted
from .faults import SimulatedCrash
from .journal import RunJournal

__all__ = ["SPEC_DEFAULTS", "DEFAULT_LEASE_SECONDS", "DEFAULT_MAX_ATTEMPTS",
           "JobQueue", "ServeDaemon", "build_job_runner", "fold_jobs"]

#: Every legal job-spec field with its default.  Unknown fields fail the
#: job at submit time (a typo silently ignored would prune the wrong
#: thing); values are type-checked against these defaults too.
SPEC_DEFAULTS: dict = {
    "engine": "headstart",      # headstart | block | amc | <metric kind>
    "model": "lenet",           # any repro.models.build_model name
    "seed": 0,
    "classes": 4,
    "image_size": 12,
    "train_per_class": 6,
    "test_per_class": 3,
    "noise": 0.35,
    "epochs": 0,                # pre-training epochs (0 = random init)
    "speedup": 2.0,
    "mc_samples": 2,
    "max_iterations": 6,
    "min_iterations": 3,
    "patience": 3,
    "eval_batch": 16,
    "finetune_epochs": 1,
    "workers": 0,
    "task_seconds": None,
    "task_retries": 2,
    "eval_mode": EvalOptions().mode,    # graph | dense
    "collapse_ratio": None,     # None -> engine-appropriate default
}

#: Seconds a claim's lease stays valid without renewal.  Generous by
#: default: a takeover before expiry still happens instantly when the
#: owner's pid is provably dead on the same host.
DEFAULT_LEASE_SECONDS = 30.0

#: Total executions (failed runs + crash recoveries) a job gets before
#: it is quarantined instead of requeued.
DEFAULT_MAX_ATTEMPTS = 3

_STATES = ("pending", "active", "done", "failed", "quarantined")
#: Every directory a :class:`JobQueue` creates under its root.
_DIRS = (*_STATES, "runs", "health")
_HOSTNAME = socket.gethostname()

#: serve.jsonl record kinds that return a job to ``pending`` (the
#: moments a queue-wait clock starts ticking).
_PENDING_KINDS = ("job_submitted", "job_retry", "job_recovered",
                  "job_drained")

#: serve.jsonl state machine: record kind -> legal preceding kinds for
#: the same job (``job_submitted`` must come first; ``job_lease_lost``
#: is an out-of-band note from a displaced owner and is exempt).
_LEGAL_TRANSITIONS = {
    "job_claimed": ("job_submitted", "job_retry", "job_recovered",
                    "job_drained"),
    "job_complete": ("job_claimed",),
    "job_failed": ("job_claimed",),
    "job_retry": ("job_claimed",),
    # job_submitted is legal before job_recovered: a claimant that dies
    # in the rename->lease->journal instant never wrote job_claimed.
    "job_recovered": ("job_submitted", "job_claimed",),
    "job_quarantined": ("job_claimed",),
    "job_drained": ("job_claimed",),
}


def _atomic_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON via temp file + rename (never torn)."""
    scratch = path.with_suffix(path.suffix + ".tmp")
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, path)


def _resolve_spec(spec: dict) -> dict:
    """Validate a submitted spec against ``SPEC_DEFAULTS`` and fill it.

    Collects *all* problems — unknown fields (with close-match hints,
    so ``worker`` points at ``workers``) and type mismatches against
    each field's default — into one error, rather than failing them one
    at a time.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"job spec must be a JSON object, got "
                         f"{type(spec).__name__}")
    problems = []
    unknown = sorted(set(spec) - set(SPEC_DEFAULTS))
    for key in unknown:
        hint = difflib.get_close_matches(key, SPEC_DEFAULTS, n=1)
        suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
        problems.append(f"unknown field {key!r}{suffix}")
    for key, value in spec.items():
        if key in unknown or value is None:
            continue  # None always allowed: "use the engine default"
        default = SPEC_DEFAULTS[key]
        if default is None:
            continue  # no type signal to check against
        expected = type(default)
        if expected is float:
            ok = isinstance(value, (int, float)) \
                and not isinstance(value, bool)
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected)
        if not ok:
            problems.append(
                f"field {key!r} expects {expected.__name__}, got "
                f"{type(value).__name__} ({value!r})")
    if problems:
        raise ValueError(
            "invalid job spec: " + "; ".join(problems)
            + "; legal fields: " + ", ".join(sorted(SPEC_DEFAULTS)))
    resolved = dict(SPEC_DEFAULTS)
    resolved.update(spec)
    return resolved


def fold_jobs(records) -> dict[str, dict]:
    """Per-job fold of ``serve.jsonl`` records, in journal order.

    Pure, so the queue (attempt accounting, recovery, history checks,
    ``--status``) and :class:`repro.obs.FleetView` (gauges, SLO
    samples, reports) share one reading of the same records.  Each
    entry holds the job's record ``kinds`` in order, its submit-time
    ``trace_id``, ``claims`` (count), the last claimant ``daemon`` and
    every distinct claimant in ``daemons``, burned ``failures``
    (retries + crash recoveries), ``queue_waits`` as ``(claim ts,
    seconds pending)`` pairs, and the ``submitted_ts`` /
    ``claimed_ts`` (last claim) / ``completed_ts`` stamps.
    """
    jobs: dict[str, dict] = {}
    pending_since: dict[str, float] = {}
    for record in records:
        job_id = record.get("job")
        if not job_id:
            continue
        entry = jobs.setdefault(job_id, {
            "kinds": [], "trace_id": None, "claims": 0, "daemon": None,
            "daemons": [], "failures": 0, "queue_waits": [],
            "submitted_ts": None, "claimed_ts": None,
            "completed_ts": None})
        kind = record.get("record")
        ts = float(record.get("ts", 0.0))
        entry["kinds"].append(kind)
        if kind in _PENDING_KINDS:
            pending_since[job_id] = ts
        if kind == "job_submitted":
            entry["trace_id"] = record.get("trace_id")
            entry["submitted_ts"] = ts
        elif kind == "job_claimed":
            daemon = record.get("daemon")
            entry["claims"] += 1
            entry["daemon"] = daemon
            entry["claimed_ts"] = ts
            if daemon and daemon not in entry["daemons"]:
                entry["daemons"].append(daemon)
            if job_id in pending_since:
                entry["queue_waits"].append(
                    (ts, max(0.0, ts - pending_since.pop(job_id))))
        elif kind in ("job_retry", "job_recovered"):
            entry["failures"] += 1
        elif kind == "job_complete":
            entry["completed_ts"] = ts
    return jobs


def build_job_runner(spec: dict, workers: int | None = None,
                     stop_check=None):
    """A fresh :class:`ResumableRunner` for a resolved job spec.

    Deterministic end to end: the dataset, model init and optional
    pre-training all seed from the spec, so re-building the runner for
    a resumed job reproduces the exact inputs the journal digest pinned.
    ``workers`` overrides the spec's pool width (daemon-level knob);
    pool settings are PERF_FIELDS, so the override cannot invalidate an
    existing journal.  ``stop_check`` threads through to the runner's
    cooperative-drain hook (likewise outside the resume digest).
    """
    from ..core import (AMCConfig, AMCLitePruner, BlockHeadStart,
                        FinetuneConfig, HeadStartConfig, HeadStartPruner)
    from ..data import make_cifar100_like
    from ..models import build_model
    from ..pruning import build_engine
    from ..training import TrainConfig, fit
    from .harness import ResumableRunner

    spec = _resolve_spec(spec)
    if workers is not None:
        spec["workers"] = int(workers)
    seed = int(spec["seed"])
    task = make_cifar100_like(num_classes=spec["classes"],
                              image_size=spec["image_size"],
                              train_per_class=spec["train_per_class"],
                              test_per_class=spec["test_per_class"],
                              noise=spec["noise"], seed=seed)
    model = build_model(spec["model"], num_classes=spec["classes"],
                        input_size=spec["image_size"],
                        width_multiplier=0.25,
                        rng=np.random.default_rng(seed))
    if spec["epochs"]:
        fit(model, task.train, None,
            TrainConfig(epochs=int(spec["epochs"]), batch_size=24,
                        lr=0.05, seed=seed))
    kind = spec["engine"]
    mode = spec["eval_mode"]
    if mode not in ("dense", "graph"):
        raise ValueError(f"unknown eval_mode {mode!r} (expected dense or "
                         "graph)")
    eval_options = EvalOptions(graph=mode == "graph",
                               workers=int(spec["workers"]),
                               task_seconds=spec["task_seconds"],
                               task_retries=int(spec["task_retries"]))
    config = HeadStartConfig(speedup=spec["speedup"],
                             mc_samples=spec["mc_samples"],
                             max_iterations=spec["max_iterations"],
                             min_iterations=spec["min_iterations"],
                             patience=spec["patience"],
                             eval_batch=spec["eval_batch"],
                             seed=seed, eval=eval_options)
    if kind == "headstart":
        engine = HeadStartPruner(
            model, task.train, task.test, config=config,
            finetune_config=FinetuneConfig(epochs=spec["finetune_epochs"],
                                           batch_size=24, lr=0.02,
                                           seed=seed),
            skip_last=False)
        collapse = spec["collapse_ratio"]
        return ResumableRunner(engine=engine, stop_check=stop_check) \
            if collapse is None \
            else ResumableRunner(engine=engine, collapse_ratio=collapse,
                                 stop_check=stop_check)
    if kind == "block":
        engine = BlockHeadStart(model, task.train.images, task.train.labels,
                                config)
    elif kind == "amc":
        engine = AMCLitePruner(model, task.train.images, task.train.labels,
                               AMCConfig(speedup=spec["speedup"],
                                         episodes=8,
                                         eval_batch=spec["eval_batch"],
                                         seed=seed),
                               skip_last=False)
    else:
        engine = build_engine(kind, model,
                              (task.train.images, task.train.labels),
                              speedup=spec["speedup"],
                              eval_batch=spec["eval_batch"], seed=seed,
                              skip_last=False)
    collapse = spec["collapse_ratio"]
    return ResumableRunner(engine=engine,
                           collapse_ratio=0.0 if collapse is None
                           else collapse,
                           stop_check=stop_check)


class JobQueue:
    """Directory-backed job states with atomic-rename transitions.

    Rename within one filesystem is atomic, so two daemons polling the
    same queue cannot both claim a job: exactly one rename from
    ``pending/`` to ``active/`` succeeds, the loser moves on.  The
    winner immediately writes a heartbeat lease next to the active
    spec; :meth:`recover` honours live leases, so a second daemon's
    startup never steals a job the first is still running.  Specs,
    leases and failure records are written via temp-file +
    ``os.replace`` so a crash never leaves a half-written file.

    Parameters
    ----------
    root:
        The queue directory (created if missing).
    daemon_id:
        This claimant's identity, stamped into leases and journal
        records.  Defaults to ``<host>-<pid>`` — pass something unique
        per logical daemon when several share a process.
    lease_seconds:
        Lease validity window; the owning daemon renews well inside it.
    max_attempts:
        Total executions (failures + crash recoveries) before a job is
        quarantined instead of requeued.
    """

    def __init__(self, root: str | Path, *, daemon_id: str | None = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS):
        self.root = Path(root)
        self.daemon_id = daemon_id or f"{_HOSTNAME}-{os.getpid()}"
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        for sub in _DIRS:
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        self.journal = RunJournal(self.root / "serve.jsonl")

    # -- paths --------------------------------------------------------------
    def _state_dir(self, state: str) -> Path:
        return self.root / state

    def job_dir(self, job_id: str) -> Path:
        """The per-job run directory (journal, checkpoints, metrics)."""
        return self.root / "runs" / job_id

    def _jobs(self, state: str) -> list[str]:
        # Spec files only — "." in the stem means a sidecar such as
        # quarantined/job-0001.failure.json.
        return sorted(path.stem for path in
                      self._state_dir(state).glob("job-*.json")
                      if "." not in path.stem)

    # -- leases -------------------------------------------------------------
    def lease_path(self, job_id: str) -> Path:
        return self._state_dir("active") / f"{job_id}.lease"

    def read_lease(self, job_id: str) -> dict | None:
        """The job's lease record, or ``None`` if absent/unreadable."""
        try:
            with open(self.lease_path(job_id), "r",
                      encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def _write_lease(self, job_id: str,
                     acquired: float | None = None) -> dict:
        now = time.time()
        lease = {"job": job_id, "daemon": self.daemon_id,
                 "pid": os.getpid(), "host": _HOSTNAME,
                 "acquired": now if acquired is None else acquired,
                 "renewed": now, "deadline": now + self.lease_seconds}
        _atomic_json(self.lease_path(job_id), lease)
        return lease

    def renew_lease(self, job_id: str) -> bool:
        """Extend our lease; ``False`` means it was lost (taken over).

        A lost lease is the one case where a running daemon must stop:
        another daemon judged us dead and reclaimed the job, so
        finishing it here would execute it twice.
        """
        current = self.read_lease(job_id)
        if current is None or current.get("daemon") != self.daemon_id:
            return False
        self._write_lease(job_id, acquired=current.get("acquired"))
        return True

    def release_lease(self, job_id: str) -> None:
        try:
            self.lease_path(job_id).unlink()
        except FileNotFoundError:
            pass

    def lease_live(self, lease: dict) -> bool:
        """Is the lease's owner still to be treated as running its job?

        Same-host owners are checked by pid: a dead pid frees the job
        immediately, no need to wait out the deadline.  A lease written
        by this very process under a *different* daemon id is a
        previous in-process incarnation that aborted — dead.  Anything
        else (other hosts, unreadable pids, live foreign pids) falls
        back to the deadline, which is the contract that makes takeover
        safe: an owner that missed its renewal window must assume it
        lost the job (see :meth:`renew_lease`).
        """
        pid = lease.get("pid")
        if lease.get("host") == _HOSTNAME and isinstance(pid, int):
            if pid == os.getpid():
                return lease.get("daemon") == self.daemon_id
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            except PermissionError:
                pass  # exists, just not ours to signal
        try:
            deadline = float(lease.get("deadline", 0.0))
        except (TypeError, ValueError):
            return False
        return time.time() < deadline

    def _claim_window_expired(self, job_id: str) -> bool:
        """Has a *leaseless* active job outlived the claim window?

        :meth:`claim` renames the spec into ``active/`` an instant
        before writing the lease, so a leaseless active job is almost
        always a claim in flight on another daemon, not a corpse.  The
        rename refreshes the spec's status-change time, so its age
        tells the two apart: only after a full lease period with no
        lease appearing is the claimant presumed to have died inside
        that instant.
        """
        source = self._state_dir("active") / f"{job_id}.json"
        try:
            claimed_at = source.stat().st_ctime
        except OSError:
            return False  # already racing its owner; not ours to touch
        return time.time() - claimed_at >= self.lease_seconds

    # -- history ------------------------------------------------------------
    def _job_history(self) -> dict[str, dict]:
        """:func:`fold_jobs` over a fresh read of ``serve.jsonl``."""
        return fold_jobs(self.journal.read() if self.journal.exists()
                         else [])

    def trace_id_for(self, job_id: str) -> str | None:
        """The causal trace id minted at submit time, or ``None``.

        Every daemon that ever claims the job — the original owner, a
        lease takeover after a SIGKILL, a drain requeue — reads the
        *same* id from the ``job_submitted`` record, which is what
        stitches a job's spans across daemon incarnations into one
        causal timeline.
        """
        entry = self._job_history().get(job_id)
        return entry["trace_id"] if entry else None

    def failures(self, job_id: str) -> int:
        """Burned attempts so far: journaled retries + crash recoveries."""
        entry = self._job_history().get(job_id)
        return entry["failures"] if entry else 0

    def history_problems(self, history: dict | None = None) -> list[str]:
        """Validate ``serve.jsonl`` against the queue state machine.

        Returns human-readable problems: illegal record transitions,
        jobs in ``done/`` without exactly one ``job_complete``,
        quarantined jobs missing their failure record, and orphaned
        lease files.  Empty means the fleet's history is well-formed —
        the chaos scenarios and the two-daemon race test gate on this.
        ``history`` is a :func:`fold_jobs` result to check instead of a
        fresh read (a FleetView passes the one it already folded).
        """
        problems = []
        if history is None:
            history = self._job_history()
        for job_id in sorted(history):
            records = [kind for kind in history[job_id]["kinds"]
                       if kind != "job_lease_lost"]
            if records[:1] != ["job_submitted"]:
                problems.append(
                    f"{job_id}: history starts with "
                    f"{records[0] if records else 'nothing'}, "
                    f"not job_submitted")
                continue
            previous = "job_submitted"
            for kind in records[1:]:
                allowed = _LEGAL_TRANSITIONS.get(kind)
                if allowed is None or previous not in allowed:
                    problems.append(
                        f"{job_id}: illegal transition "
                        f"{previous} -> {kind}")
                previous = kind
        for job_id in self._jobs("done"):
            completions = history.get(job_id, {"kinds": []})[
                "kinds"].count("job_complete")
            if completions != 1:
                problems.append(f"{job_id}: in done/ with {completions} "
                                "job_complete record(s)")
        for job_id in self._jobs("quarantined"):
            if "job_quarantined" not in history.get(
                    job_id, {"kinds": []})["kinds"]:
                problems.append(f"{job_id}: in quarantined/ without a "
                                "job_quarantined record")
        active = set(self._jobs("active"))
        for path in self._state_dir("active").glob("job-*.lease"):
            if path.stem not in active:
                problems.append(f"orphaned lease {path.name} (no active "
                                "spec)")
        return problems

    # -- submission ---------------------------------------------------------
    def _next_id(self) -> str:
        highest = 0
        for state in _STATES:
            for job_id in self._jobs(state):
                try:
                    highest = max(highest, int(job_id.split("-")[1]))
                except (IndexError, ValueError):
                    continue
        return f"job-{highest + 1:04d}"

    def submit(self, spec: dict) -> str:
        """Validate and enqueue one job spec; returns its id.

        Mints the job's ``trace_id`` here — identity is assigned once,
        at the submission boundary, so every later claimant (including
        a takeover after the first owner is SIGKILLed) correlates its
        telemetry under the same id.
        """
        spec = _resolve_spec(spec)
        job_id = self._next_id()
        trace_id = f"{job_id}.{uuid.uuid4().hex[:12]}"
        _atomic_json(self._state_dir("pending") / f"{job_id}.json", spec)
        self.journal.append({"record": "job_submitted", "job": job_id,
                             "spec": spec, "trace_id": trace_id,
                             "ts": time.time()})
        return job_id

    # -- lifecycle ----------------------------------------------------------
    def claim(self) -> tuple[str, dict] | None:
        """Atomically claim the lowest-id pending job, or ``None``.

        The winning rename is immediately followed by the lease write.
        Another daemon's :meth:`recover` pass gives that rename->lease
        instant a full lease period of grace (the rename refreshes the
        spec's status-change time), so a live claimant is never
        recovered out from under itself; if recovery nonetheless stole
        the spec — this process stalled for a whole lease period mid
        claim — the claim is quietly dropped and the next pending job
        tried, because the job now belongs to whoever requeued it.
        """
        for job_id in self._jobs("pending"):
            source = self._state_dir("pending") / f"{job_id}.json"
            target = self._state_dir("active") / f"{job_id}.json"
            try:
                source.rename(target)
            except FileNotFoundError:
                continue  # another daemon won the race; try the next
            self._write_lease(job_id)
            try:
                with open(target, "r", encoding="utf-8") as handle:
                    spec = json.load(handle)
            except FileNotFoundError:
                self.release_lease(job_id)
                continue  # recovered away mid-claim; no longer ours
            except ValueError as error:
                # Spec unreadable (torn by something outside the atomic
                # write path): journal the claim so the failure is a
                # legal transition, then route it through the normal
                # retry/quarantine path instead of crashing the daemon.
                self.journal.append({"record": "job_claimed",
                                     "job": job_id,
                                     "daemon": self.daemon_id,
                                     "ts": time.time()})
                self.fail(job_id, error)
                continue
            self.journal.append({"record": "job_claimed", "job": job_id,
                                 "daemon": self.daemon_id,
                                 "ts": time.time()})
            return job_id, spec
        return None

    def _settle(self, job_id: str, state: str) -> None:
        source = self._state_dir("active") / f"{job_id}.json"
        source.rename(self._state_dir(state) / f"{job_id}.json")
        self.release_lease(job_id)

    def finish(self, job_id: str, result: dict | None = None) -> None:
        self._settle(job_id, "done")
        self.journal.append({"record": "job_complete", "job": job_id,
                             "result": result or {},
                             "daemon": self.daemon_id, "ts": time.time()})

    def fail(self, job_id: str, error: Exception) -> str:
        """Handle a failed run: requeue or quarantine; returns which.

        Attempt ``k`` (this failure plus journaled retries/recoveries)
        requeues the job while ``k < max_attempts``; the final allowed
        attempt's failure quarantines it instead — a deterministic
        crasher burns exactly ``max_attempts`` runs fleet-wide, never
        the whole queue's patience.
        """
        failure = {"kind": type(error).__name__, "message": str(error)}
        attempt = self.failures(job_id) + 1
        if attempt >= self.max_attempts:
            self.quarantine(job_id, failure, attempts=attempt)
            return "quarantined"
        self._settle(job_id, "pending")
        self.journal.append({"record": "job_retry", "job": job_id,
                             "attempt": attempt, **failure,
                             "daemon": self.daemon_id, "ts": time.time()})
        return "retry"

    def quarantine(self, job_id: str, failure: dict,
                   attempts: int) -> None:
        """Park a poison job with its captured failure record."""
        self._settle(job_id, "quarantined")
        record = {"job": job_id, "attempts": attempts,
                  "daemon": self.daemon_id, "ts": time.time(), **failure}
        _atomic_json(self._state_dir("quarantined")
                     / f"{job_id}.failure.json", record)
        self.journal.append({"record": "job_quarantined", **record})
        get_recorder().counter("serve/jobs_quarantined", 1,
                               operational=True, job=job_id)
        get_recorder().mark("serve/quarantine", operational=True,
                            job=job_id, kind=failure.get("kind"))

    def requeue_drained(self, job_id: str,
                        interruption: RunInterrupted) -> None:
        """Return a drained job to ``pending`` (progress journaled)."""
        self._settle(job_id, "pending")
        self.journal.append({"record": "job_drained", "job": job_id,
                             "reason": interruption.reason,
                             "steps_done": interruption.steps_done,
                             "daemon": self.daemon_id, "ts": time.time()})

    def abandon_lost(self, job_id: str) -> None:
        """Note that our lease was taken over; the job is not ours.

        The taker already renamed the spec and holds its own lease, so
        there is nothing to settle — only history to record.
        """
        self.journal.append({"record": "job_lease_lost", "job": job_id,
                             "daemon": self.daemon_id, "ts": time.time()})

    def recover(self) -> tuple[list[str], list[str]]:
        """Requeue dead daemons' ``active/`` jobs; quarantine crash-loops.

        Returns ``(recovered, quarantined)`` job-id lists.  Lease-aware:
        jobs whose lease is live (owner pid running, or deadline not
        yet passed) are left alone — that is what lets N daemons share
        one queue — and a leaseless active job gets a full lease period
        of grace before it is presumed dead, because :meth:`claim`
        writes the lease an instant *after* the rename and a recovery
        pass can land inside that instant.  A job whose owners have
        already died
        ``max_attempts - 1`` times is quarantined rather than requeued:
        re-claiming a daemon-killer would take this daemon down too.
        """
        recovered: list[str] = []
        quarantined: list[str] = []
        history = self._job_history()
        for job_id in self._jobs("active"):
            lease = self.read_lease(job_id)
            if lease is not None and self.lease_live(lease):
                continue
            if lease is None and not self._claim_window_expired(job_id):
                continue  # a live claim() caught mid rename->lease
            entry = history.get(job_id)
            attempt = (entry["failures"] if entry else 0) + 1
            previous = lease.get("daemon") if lease else None
            if attempt >= self.max_attempts:
                source = self._state_dir("active") / f"{job_id}.json"
                try:
                    source.rename(self._state_dir("quarantined")
                                  / f"{job_id}.json")
                except FileNotFoundError:
                    continue  # another daemon recovered it first
                self.release_lease(job_id)
                failure = {"kind": "CrashLoop",
                           "message": (f"owner daemon died on each of "
                                       f"{attempt} attempt(s); last owner "
                                       f"{previous!r}")}
                record = {"job": job_id, "attempts": attempt,
                          "daemon": self.daemon_id, "ts": time.time(),
                          **failure}
                _atomic_json(self._state_dir("quarantined")
                             / f"{job_id}.failure.json", record)
                self.journal.append({"record": "job_quarantined",
                                     **record})
                quarantined.append(job_id)
                continue
            source = self._state_dir("active") / f"{job_id}.json"
            try:
                source.rename(self._state_dir("pending")
                              / f"{job_id}.json")
            except FileNotFoundError:
                continue  # another daemon recovered it first
            self.release_lease(job_id)
            self.journal.append({"record": "job_recovered", "job": job_id,
                                 "attempt": attempt, "previous": previous,
                                 "daemon": self.daemon_id,
                                 "ts": time.time()})
            recovered.append(job_id)
        return recovered, quarantined

    # -- drain sentinel -----------------------------------------------------
    def request_drain(self) -> None:
        """Ask every currently-running daemon to drain (sentinel file).

        Daemons compare the sentinel's timestamp against their own start
        time, so a daemon started *after* the request ignores it — the
        sentinel stops the current fleet, not the queue forever.
        """
        _atomic_json(self.root / "drain.json",
                     {"record": "drain", "ts": time.time(),
                      "by": self.daemon_id})

    def drain_requested_since(self, started: float) -> bool:
        try:
            with open(self.root / "drain.json", "r",
                      encoding="utf-8") as handle:
                sentinel = json.load(handle)
            return float(sentinel.get("ts", 0.0)) >= started
        except (OSError, ValueError):
            return False

    # -- introspection ------------------------------------------------------
    def _progress(self, job_id: str) -> dict:
        journal = RunJournal(self.job_dir(job_id) / "journal.jsonl")
        if not journal.exists():
            return {"steps_done": 0, "complete": False}
        complete = False
        steps = 0
        degraded = 0
        for record in journal.read():
            kind = record.get("record")
            if kind == "layer_complete":
                steps += 1
            elif kind == "degraded":
                degraded += 1
            elif kind == "run_complete":
                complete = True
        progress = {"steps_done": steps, "complete": complete}
        if degraded:
            progress["degraded"] = degraded
        return progress

    def status(self) -> dict:
        """Queue snapshot: per-state job rows an operator can act on.

        Each row carries run-journal progress plus `attempts` (claims so
        far), `age_seconds` (since submission), and the owning `daemon`
        (from the live lease for active jobs, from the last claim
        otherwise); quarantined rows add their captured `failure`.
        """
        history = self._job_history()
        now = time.time()
        snapshot: dict[str, list[dict]] = {}
        for state in _STATES:
            rows = []
            for job_id in self._jobs(state):
                row = {"job": job_id, **self._progress(job_id)}
                entry = history.get(job_id)
                row["attempts"] = entry["claims"] if entry else 0
                row["daemon"] = entry["daemon"] if entry else None
                spec_path = self._state_dir(state) / f"{job_id}.json"
                try:
                    row["age_seconds"] = max(
                        0.0, now - spec_path.stat().st_mtime)
                except OSError:
                    row["age_seconds"] = None
                if state == "active":
                    lease = self.read_lease(job_id)
                    if lease is not None:
                        row["daemon"] = lease.get("daemon")
                        row["lease_deadline"] = lease.get("deadline")
                        row["lease_live"] = self.lease_live(lease)
                if state == "quarantined":
                    try:
                        with open(self._state_dir("quarantined")
                                  / f"{job_id}.failure.json", "r",
                                  encoding="utf-8") as handle:
                            failure = json.load(handle)
                        row["failure"] = {
                            "kind": failure.get("kind"),
                            "message": failure.get("message")}
                        row["attempts"] = failure.get(
                            "attempts", row["attempts"])
                    except (OSError, ValueError):
                        pass
                rows.append(row)
            snapshot[state] = rows
        return snapshot

    def daemons(self) -> list[dict]:
        """Fleet health: one row per daemon health file, liveness-checked."""
        rows = []
        now = time.time()
        for path in sorted((self.root / "health").glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    info = json.load(handle)
            except (OSError, ValueError):
                continue
            try:
                info["stale_seconds"] = max(
                    0.0, now - float(info.get("updated", 0.0)))
            except (TypeError, ValueError):
                info["stale_seconds"] = None
            pid = info.get("pid")
            alive = False
            if info.get("host") == _HOSTNAME and isinstance(pid, int):
                try:
                    os.kill(pid, 0)
                    alive = True
                except ProcessLookupError:
                    alive = False
                except PermissionError:
                    alive = True
            info["live"] = alive and info.get("state") not in ("stopped",
                                                               "drained")
            rows.append(info)
        return rows


class ServeDaemon:
    """Claims queued jobs and runs each under the resumable harness.

    Fleet-safe: the claim's heartbeat lease is renewed by a background
    thread while the job runs, SIGTERM/SIGINT (and the queue's drain
    sentinel) trigger graceful drain, distinct-job failure streaks open
    a seeded-backoff circuit breaker, and a periodically rewritten
    ``health/<daemon>.json`` exposes live status.

    Parameters
    ----------
    root:
        The queue directory (created if missing).
    workers:
        Pool-width override applied to every job (``None`` honours each
        spec's own ``workers`` field).
    poll_seconds:
        Idle sleep between empty queue polls when not in ``once`` mode.
    max_jobs:
        Stop after this many claim-run cycles (``None`` = run until
        drained; with ``once=True``, until the queue empties).
    daemon_id:
        Stable identity for leases/journal/health (default:
        ``<host>-<pid>-<n>``, unique per in-process instance).
    lease_seconds / max_attempts:
        Queue policy knobs, see :class:`JobQueue`.
    breaker_threshold:
        Consecutive *distinct* failed jobs that open the circuit
        breaker (pause claiming with seeded exponential backoff) —
        different jobs failing in a row points at this host, not at any
        one job.
    breaker_seconds:
        Base pause for the first breaker trip (doubles per trip, capped
        at 30s, with deterministic per-daemon jitter).
    health_seconds:
        Target interval between health-file rewrites (also bounded by
        a third of the lease window so renewals always fit).
    """

    _INSTANCE_IDS = itertools.count(1)

    def __init__(self, root: str | Path, *, workers: int | None = None,
                 poll_seconds: float = 1.0, max_jobs: int | None = None,
                 daemon_id: str | None = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 breaker_threshold: int = 3,
                 breaker_seconds: float = 0.25,
                 health_seconds: float = 1.0):
        self.daemon_id = daemon_id or (
            f"{_HOSTNAME}-{os.getpid()}-{next(self._INSTANCE_IDS)}")
        self.queue = JobQueue(root, daemon_id=self.daemon_id,
                              lease_seconds=lease_seconds,
                              max_attempts=max_attempts)
        self.workers = workers
        self.poll_seconds = float(poll_seconds)
        self.max_jobs = max_jobs
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_seconds = float(breaker_seconds)
        self.health_seconds = float(health_seconds)
        # Seeded per daemon id: backoff jitter is reproducible, so two
        # daemons never sync their pauses yet chaos runs are replayable.
        self._breaker_rng = np.random.default_rng(
            zlib.crc32(self.daemon_id.encode("utf-8")))
        self._breaker_window: list[str] = []
        self._breaker_opens = 0
        self._started = time.time()
        self._drain = False
        self._lease_lost = False
        self._current: str | None = None
        # Renewal (heartbeat thread) vs settle (main thread): settling
        # unlinks the lease, and a renewal interleaved with that unlink
        # would recreate it for a job no longer in active/.  The lock +
        # _detach() make the two mutually exclusive.
        self._lease_lock = threading.Lock()
        self._counts = {"done": 0, "retried": 0, "quarantined": 0,
                        "recovered": 0, "drained": 0, "lease_lost": 0}
        self._hb_stop: threading.Event | None = None

    # -- drain --------------------------------------------------------------
    def _on_signal(self, signum, frame) -> None:
        self._drain = True

    def _install_signals(self) -> dict:
        """SIGTERM/SIGINT -> drain; no-op off the main thread."""
        if threading.current_thread() is not threading.main_thread():
            return {}
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover - platform
                pass
        return previous

    def _restore_signals(self, previous: dict) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover - platform
                pass

    def _drain_requested(self) -> bool:
        if self._drain:
            return True
        if self.queue.drain_requested_since(self._started):
            self._drain = True
        return self._drain

    def _stop_check(self) -> str | None:
        """Cooperative-stop hook polled by the runner at step boundaries."""
        if self._lease_lost:
            return "lease-lost"
        if self._drain_requested():
            return "drain"
        return None

    # -- heartbeat / health -------------------------------------------------
    def _detach(self) -> None:
        """Stop lease renewal for the current job; call before settling.

        Blocks until any in-flight renewal finishes, so once this
        returns the heartbeat can never recreate a lease the settle is
        about to unlink.
        """
        with self._lease_lock:
            self._current = None

    def _heartbeat(self) -> None:
        interval = max(0.05, min(self.health_seconds,
                                 self.queue.lease_seconds / 3.0))
        while not self._hb_stop.wait(interval):
            with self._lease_lock:
                job = self._current
                if job is not None and not self._lease_lost:
                    if not self.queue.renew_lease(job):
                        self._lease_lost = True
            try:
                self._write_health()
            except OSError:  # pragma: no cover - health is best-effort
                pass

    def _write_health(self, state: str | None = None) -> None:
        """Rewrite ``health/<daemon>.json`` (atomic; operators poll it)."""
        job = self._current
        if state is None:
            if self._drain:
                state = "draining"
            elif job is not None:
                state = "running"
            else:
                state = "idle"
        now = time.time()
        info = {"daemon": self.daemon_id, "pid": os.getpid(),
                "host": _HOSTNAME, "state": state,
                "started": self._started, "updated": now,
                "uptime_seconds": max(0.0, now - self._started),
                "job": job, "jobs": dict(self._counts),
                "breaker": {"window": list(self._breaker_window),
                            "opens": self._breaker_opens}}
        if job is not None:
            lease = self.queue.read_lease(job)
            if lease is not None:
                info["lease_deadline"] = lease.get("deadline")
        _atomic_json(self.queue.root / "health"
                     / f"{self.daemon_id}.json", info)

    # -- circuit breaker ----------------------------------------------------
    def _note_failure(self, job_id: str) -> None:
        """Track distinct consecutive failures; pause when they streak.

        One job failing repeatedly is that job's problem (quarantine
        handles it); *different* jobs failing back-to-back suggests the
        fault travels with this daemon/host, so claiming is paused with
        seeded exponential backoff before the next attempt.
        """
        if not self._breaker_window or self._breaker_window[-1] != job_id:
            self._breaker_window.append(job_id)
        if len(self._breaker_window) < self.breaker_threshold:
            return
        self._breaker_opens += 1
        pause = min(
            30.0,
            self.breaker_seconds * (2.0 ** (self._breaker_opens - 1))
            * (1.0 + 0.5 * float(self._breaker_rng.random())))
        self.queue.journal.append(
            {"record": "breaker_open", "daemon": self.daemon_id,
             "pause_seconds": pause, "jobs": list(self._breaker_window),
             "opens": self._breaker_opens, "ts": time.time()})
        get_recorder().counter("serve/breaker_opens", 1, operational=True)
        get_recorder().mark("serve/breaker", operational=True,
                            pause=pause)
        self._write_health("paused")
        time.sleep(pause)
        self._breaker_window.clear()

    # -- main loop ----------------------------------------------------------
    def run(self, once: bool = False) -> int:
        """Process jobs; returns how many claim-run cycles happened.

        Startup recovers orphaned active jobs first (lease-aware, so
        live daemons' jobs are untouched).  The loop exits when the
        queue drains (``once``), ``max_jobs`` is reached, or drain is
        requested; either way the final health record and exit are
        clean.  A :class:`~repro.runtime.faults.SimulatedCrash`
        re-raises with no cleanup at all — it models this daemon dying,
        so the lease must stay on disk exactly as a SIGKILL would leave
        it.
        """
        self._started = time.time()
        self._drain = False
        previous_signals = self._install_signals()
        self._hb_stop = threading.Event()
        heartbeat = threading.Thread(target=self._heartbeat, daemon=True,
                                     name=f"lease-{self.daemon_id}")
        heartbeat.start()
        processed = 0
        crashed = False
        try:
            recovered, quarantined = self.queue.recover()
            if recovered:
                self._counts["recovered"] += len(recovered)
                get_recorder().counter("serve/jobs_recovered",
                                       len(recovered), operational=True)
            if quarantined:
                self._counts["quarantined"] += len(quarantined)
            self._write_health()
            while self.max_jobs is None or processed < self.max_jobs:
                if self._drain_requested():
                    break
                claimed = self.queue.claim()
                if claimed is None:
                    if once:
                        break
                    self._write_health("idle")
                    time.sleep(self.poll_seconds)
                    continue
                job_id = claimed[0]
                outcome = self._run_job(*claimed)
                if outcome == "done":
                    processed += 1
                    self._counts["done"] += 1
                    self._breaker_window.clear()
                    get_recorder().counter("serve/jobs_done", 1,
                                           operational=True)
                elif outcome == "retry":
                    processed += 1
                    self._counts["retried"] += 1
                    get_recorder().counter("serve/jobs_retried", 1,
                                           operational=True)
                    self._note_failure(job_id)
                elif outcome == "quarantined":
                    processed += 1
                    self._counts["quarantined"] += 1
                    self._note_failure(job_id)
                elif outcome == "drained":
                    self._counts["drained"] += 1
                    break
                elif outcome == "lease-lost":
                    self._counts["lease_lost"] += 1
                    get_recorder().counter("serve/lease_lost", 1,
                                           operational=True)
        except SimulatedCrash:
            crashed = True
            raise
        finally:
            self._hb_stop.set()
            heartbeat.join(timeout=5.0)
            self._restore_signals(previous_signals)
            if not crashed:
                if self._drain:
                    get_recorder().mark("serve/drain", operational=True)
                self._write_health("drained" if self._drain else "stopped")
        return processed

    def _run_job(self, job_id: str, spec: dict) -> str:
        """Run one claimed job; returns the outcome kind.

        ``done`` settles to ``done/``; ``retry``/``quarantined`` come
        from :meth:`JobQueue.fail`; ``drained`` requeues with progress
        journaled; ``lease-lost`` abandons a job another daemon took
        over.  A :class:`~repro.runtime.faults.SimulatedCrash`
        re-raises — it models this daemon dying, so the job must stay
        leased in ``active/`` for another daemon's recovery pass,
        exactly like a real SIGKILL.
        """
        run_dir = self.queue.job_dir(job_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        self._lease_lost = False
        self._current = job_id
        self._write_health()
        recorder = Recorder(run_dir, trace_id=self.queue.trace_id_for(job_id),
                            origin=self.daemon_id)
        try:
            try:
                try:
                    with use_recorder(recorder):
                        runner = build_job_runner(
                            spec, workers=self.workers,
                            stop_check=self._stop_check)
                        report = runner.run(run_dir, resume=True)
                except RunInterrupted as interruption:
                    # The final drain/lease-lost telemetry must land in
                    # the job's own (trace-stamped) stream and be flushed
                    # to disk *before* the job is requeued: a daemon
                    # killed right after handing the job back must not
                    # lose the record of why it let go.
                    recorder.mark("serve/interrupted", operational=True,
                                  reason=interruption.reason,
                                  steps_done=interruption.steps_done)
                    if interruption.reason != "lease-lost":
                        recorder.counter("serve/jobs_drained", 1,
                                         operational=True)
                    recorder.flush()
                    raise
            finally:
                recorder.close()
        except SimulatedCrash:
            raise
        except RunInterrupted as interruption:
            self._detach()
            if interruption.reason == "lease-lost":
                self.queue.abandon_lost(job_id)
                return "lease-lost"
            self.queue.requeue_drained(job_id, interruption)
            return "drained"
        except Exception as error:  # job isolation: one bad spec can't
            self._detach()
            return self.queue.fail(job_id, error)  # take the daemon down
        finally:
            self._detach()
        result = {"final_accuracy": report.result.final_accuracy,
                  "resumed_layers": report.resumed_layers,
                  "skipped": report.skipped_layers,
                  "degraded": report.degraded_steps}
        self.queue.finish(job_id, result)
        return "done"
