"""Fleet-wide observability over a serve queue root.

A running fleet leaves its whole story on disk under one directory:
``serve.jsonl`` (queue transitions, every record timestamped and job-
tagged), ``health/<daemon>.json`` (per-daemon live status), active
lease files, and one ``runs/<job>/`` directory per job with its journal
and trace-stamped ``metrics.jsonl``.  :class:`FleetView` reads each of
those sources once, at construction — read-only, torn-line tolerant —
so every answer it gives comes from one point-in-time snapshot:

* a **merged event timeline** (``events()``): queue transitions plus
  per-run mark events, each row normalised to
  ``{ts, kind, job, daemon, trace_id, detail}`` and sorted on one
  shared clock (``repro fleet tail``);
* **derived gauges** (``gauges()``): queue depth, in-flight, per-state
  counts, claim latency and job wall-time percentiles, retry /
  recovery / drain / quarantine / lease-loss / breaker totals,
  degraded-step counts, live-daemon counts (``repro fleet status``);
* **SLO samples** (``slo_samples()``): the ``(ts, value)`` series the
  burn-rate evaluator (:mod:`repro.obs.slo`) consumes.

:func:`fleet_report` turns a view into the title, headline and sections
that :mod:`repro.obs.report` renders as Markdown or HTML.

Everything is computed from files; a FleetView needs no daemon alive
and never writes into the queue, so it is safe to point at a fleet
mid-chaos (daemons being SIGKILLed, journals being appended, health
files being replaced) — exactly the moment an operator needs it.
"""

from __future__ import annotations

from pathlib import Path

from .sink import METRICS_FILENAME, read_events_report

__all__ = ["FleetError", "FleetView", "percentile", "daemon_swimlanes",
           "format_event", "render_status", "fleet_report"]

#: record kinds that end a daemon's ownership of a job (the moments a
#: swimlane interval closes).
_SETTLE_KINDS = ("job_complete", "job_retry", "job_quarantined",
                 "job_drained", "job_lease_lost")

#: serve.jsonl record kind -> the lifetime total it counts towards.
_TOTALS = {"job_submitted": "submitted", "job_claimed": "claims",
           "job_complete": "completions", "job_retry": "retries",
           "job_recovered": "recoveries", "job_drained": "drains",
           "job_quarantined": "quarantines", "job_lease_lost": "lease_lost",
           "breaker_open": "breaker_opens"}


class FleetError(RuntimeError):
    """The queue root is missing or not a serve queue."""


def percentile(values, q: float) -> float | None:
    """Linear-interpolated percentile of a sequence (None when empty)."""
    data = sorted(values)
    if not data:
        return None
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    frac = rank - low
    return float(data[low] * (1.0 - frac) + data[high] * frac)


def _summary(values) -> dict:
    """count/p50/p99/max summary of a value list (None when empty)."""
    values = list(values)
    return {"count": len(values),
            "p50": percentile(values, 50.0),
            "p99": percentile(values, 99.0),
            "max": max(values) if values else None}


class FleetView:
    """Read-only, point-in-time join of one serve queue's on-disk state.

    ``serve.jsonl``, every run journal and every metrics stream are read
    once, here; the methods only derive from that snapshot, so a view
    of a live fleet never mixes reads taken at different moments.

    Parameters
    ----------
    root:
        The queue directory (the ``repro serve`` root).  It must hold
        every directory a :class:`~repro.runtime.serve.JobQueue`
        creates; :class:`FleetError` otherwise, so ``repro fleet``
        neither reports an empty fleet for a typo'd path nor creates
        queue directories in it.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        # Lazy import: runtime.serve itself imports repro.obs, so the
        # obs package cannot import it at module load time.
        from ..runtime.serve import _DIRS, _STATES, JobQueue, fold_jobs
        missing = [sub for sub in _DIRS if not (self.root / sub).is_dir()]
        if missing:
            raise FleetError(f"no serve queue at {self.root} (missing "
                             f"{missing[0]}/)")
        # Every directory the queue would create exists: constructing
        # it writes nothing.
        queue = JobQueue(self.root, daemon_id="fleet-view")
        self._records = queue.journal.read() if queue.journal.exists() \
            else []
        history = fold_jobs(self._records)
        self._states = {state: queue._jobs(state) for state in _STATES}
        state_of = {job_id: state for state, job_ids in self._states.items()
                    for job_id in job_ids}
        self._jobs = {job_id: _job_row(job_id, entry, state_of.get(job_id),
                                       queue._progress(job_id))
                      for job_id, entry in history.items()}
        self._daemons = queue.daemons()
        leases = [queue.read_lease(path.stem) for path in
                  (self.root / "active").glob("job-*.lease")]
        self._leases = {"count": len(leases),
                        "live": sum(1 for lease in leases if lease is not None
                                    and queue.lease_live(lease))}
        self._marks = _run_marks(self.root)
        self._problems = queue.history_problems(history)

    def run_marks(self) -> list[dict]:
        """Mark events from every job's metrics stream, normalised.

        Marks are the run-level annotations worth surfacing on a fleet
        timeline (degraded steps, drain interruptions); spans and
        counters stay in the per-run streams where ``repro metrics``
        and ``repro report`` already render them.
        """
        return self._marks

    # -- the merged timeline ------------------------------------------------
    def events(self) -> list[dict]:
        """The merged fleet timeline, sorted on the shared clock."""
        rows = [{"ts": float(record.get("ts", 0.0)),
                 "kind": record.get("record"),
                 "job": record.get("job"),
                 "daemon": record.get("daemon"),
                 "trace_id": record.get("trace_id"),
                 "detail": _record_detail(record)}
                for record in self._records]
        rows.extend(dict(row) for row in self._marks)
        for row in rows:
            if row["trace_id"] is None and row["job"] in self._jobs:
                row["trace_id"] = self._jobs[row["job"]]["trace_id"]
        rows.sort(key=lambda row: row["ts"])
        return rows

    # -- per-job join -------------------------------------------------------
    def jobs(self) -> dict[str, dict]:
        """Per-job lifecycle join: state, trace, attempts, latencies."""
        return self._jobs

    # -- gauges -------------------------------------------------------------
    def gauges(self) -> dict:
        """Fleet-level derived gauges from the joined sources."""
        jobs = self._jobs.values()
        counts = {state: len(job_ids)
                  for state, job_ids in self._states.items()}
        totals = dict.fromkeys(_TOTALS.values(), 0)
        for record in self._records:
            key = _TOTALS.get(record.get("record"))
            if key:
                totals[key] += 1
        return {
            "queue_depth": counts["pending"],
            "in_flight": counts["active"],
            "states": counts,
            "totals": totals,
            "daemons_total": len(self._daemons),
            "daemons_live": sum(1 for row in self._daemons
                                if row.get("live")),
            "leases": self._leases,
            "claim_latency_s": _summary(wait for info in jobs
                                        for _, wait in info["queue_waits"]),
            "job_latency_s": _summary(info["latency_s"] for info in jobs
                                      if info["latency_s"] is not None),
            "job_wall_s": _summary(info["wall_s"] for info in jobs
                                   if info["wall_s"] is not None),
            "degraded_steps": sum(info["degraded_steps"] for info in jobs),
        }

    # -- SLO sample series --------------------------------------------------
    def slo_samples(self) -> dict[str, list[tuple[float, float]]]:
        """The ``(ts, value)`` series each SLO metric is evaluated over.

        ``job_latency_seconds``: per completion, submit -> complete.
        ``queue_wait_seconds``: per claim, entered-pending -> claimed.
        ``failure_rate``: per settle, 1.0 for a retry/quarantine, 0.0
        for a completion (the burn-rate evaluator averages these).
        """
        jobs = self._jobs.values()
        settles = {"job_complete": 0.0, "job_retry": 1.0,
                   "job_quarantined": 1.0}
        return {"job_latency_seconds": sorted(
                    (info["completed_ts"], info["latency_s"])
                    for info in jobs if info["latency_s"] is not None),
                "queue_wait_seconds": sorted(
                    pair for info in jobs for pair in info["queue_waits"]),
                "failure_rate": sorted(
                    (float(record.get("ts", 0.0)),
                     settles[record.get("record")])
                    for record in self._records
                    if record.get("record") in settles)}

    def snapshot(self) -> dict:
        """Everything ``repro fleet status`` renders, one dict."""
        return {"root": str(self.root),
                "gauges": self.gauges(),
                "daemons": self._daemons,
                "history_problems": self._problems}


def _job_row(job_id: str, entry: dict, state: str | None,
             progress: dict) -> dict:
    """One :meth:`FleetView.jobs` row: a ``fold_jobs`` entry joined with
    the job's directory state and run-journal progress."""
    done = entry["completed_ts"]
    submitted = entry["submitted_ts"]
    claimed = entry["claimed_ts"]
    return {**entry, "job": job_id, "state": state,
            "attempts": entry["claims"],
            "latency_s": done - submitted
            if done is not None and submitted is not None else None,
            "wall_s": done - claimed
            if done is not None and claimed is not None else None,
            "steps_done": progress.get("steps_done", 0),
            "degraded_steps": progress.get("degraded", 0)}


def _run_marks(root: Path) -> list[dict]:
    """Mark events from every ``runs/<job>/`` metrics stream under root."""
    rows = []
    for stream in sorted((root / "runs").glob(f"*/{METRICS_FILENAME}")):
        try:
            events, _ = read_events_report(stream)
        except Exception:  # torn / vanished mid-read: skip the run
            continue
        job_id = stream.parent.name
        for record in events:
            if record.get("event") != "mark":
                continue
            rows.append({"ts": float(record.get("t", 0.0)),
                         "kind": f"mark:{record.get('name')}",
                         "job": job_id,
                         "daemon": record.get("origin"),
                         "trace_id": record.get("trace_id"),
                         "detail": _attr_detail(record.get("attrs"))})
    return rows


# -- detail formatting -------------------------------------------------------
def _attr_detail(attrs) -> str:
    if not attrs:
        return ""
    return " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))


def _record_detail(record: dict) -> str:
    kind = record.get("record")
    if kind == "job_submitted":
        spec = record.get("spec") or {}
        return f"engine={spec.get('engine')} model={spec.get('model')}"
    if kind == "job_complete":
        result = record.get("result") or {}
        acc = result.get("final_accuracy")
        return f"accuracy={acc:.4f}" if isinstance(acc, float) else ""
    if kind == "job_retry":
        return (f"attempt={record.get('attempt')} "
                f"{record.get('kind')}: {record.get('message', '')}"[:80])
    if kind == "job_recovered":
        return (f"attempt={record.get('attempt')} "
                f"previous={record.get('previous')}")
    if kind == "job_drained":
        return (f"reason={record.get('reason')} "
                f"steps_done={record.get('steps_done')}")
    if kind == "job_quarantined":
        return f"{record.get('kind')}: {record.get('message', '')}"[:80]
    if kind == "breaker_open":
        return (f"pause={record.get('pause_seconds', 0.0):.2f}s "
                f"opens={record.get('opens')}")
    return ""


def _fmt_seconds(value) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}s" if value >= 0.095 else f"{value * 1000:.0f}ms"


def format_event(row: dict) -> str:
    """One ``repro fleet tail`` line for a normalised timeline row."""
    trace = row.get("trace_id") or "-"
    return (f"{row['ts']:.3f} {row['kind']:<18} "
            f"{row.get('job') or '-':<10} {row.get('daemon') or '-':<22} "
            f"trace={trace} {row.get('detail') or ''}".rstrip())


# -- swimlanes ---------------------------------------------------------------
def daemon_swimlanes(events, width: int = 60) -> list[dict]:
    """Per-daemon busy intervals rendered as fixed-width strips.

    Each daemon's lane shows, across the fleet's full clock span, when
    it owned a job (``█``), when it hit a breaker/quarantine (``!``)
    and when it lost a lease (``x``); idle time is ``·``.  Character
    strips render identically in Markdown code blocks, HTML ``<pre>``
    and terminals, so one implementation serves all three surfaces.
    """
    stamped = [row for row in events if row["ts"] > 0.0]
    if not stamped:
        return []
    t_min = min(row["ts"] for row in stamped)
    t_max = max(row["ts"] for row in stamped)
    span = max(t_max - t_min, 1e-9)

    def column(ts: float) -> int:
        return min(width - 1, int((ts - t_min) / span * width))

    intervals: dict[str, list[tuple[float, float]]] = {}
    open_claims: dict[tuple[str, str], float] = {}
    points: dict[str, list[tuple[float, str]]] = {}
    for row in stamped:
        daemon = row.get("daemon")
        job = row.get("job")
        kind = row["kind"]
        if not daemon:
            continue
        if kind == "job_claimed" and job:
            open_claims[(daemon, job)] = row["ts"]
        elif kind in _SETTLE_KINDS and job:
            started = open_claims.pop((daemon, job), None)
            if started is not None:
                intervals.setdefault(daemon, []).append(
                    (started, row["ts"]))
        if kind in ("breaker_open", "job_quarantined"):
            points.setdefault(daemon, []).append((row["ts"], "!"))
        elif kind == "job_lease_lost":
            points.setdefault(daemon, []).append((row["ts"], "x"))
    # A SIGKILLed daemon never settles: close its claim at the fleet's
    # last clock tick so the takeover gap stays visible.
    for (daemon, job), started in open_claims.items():
        intervals.setdefault(daemon, []).append((started, t_max))
    lanes = []
    daemons = sorted(set(intervals) | set(points))
    for daemon in daemons:
        strip = ["·"] * width
        for started, ended in intervals.get(daemon, []):
            for col in range(column(started), column(ended) + 1):
                strip[col] = "█"
        for ts, glyph in points.get(daemon, []):
            strip[column(ts)] = glyph
        lanes.append({"daemon": daemon, "strip": "".join(strip)})
    return lanes


# -- rendering ---------------------------------------------------------------
def render_status(snapshot: dict, slo_result: dict | None = None) -> str:
    """Human-readable ``repro fleet status`` text."""
    gauges = snapshot["gauges"]
    lines = [f"fleet @ {snapshot['root']}"]
    states = gauges["states"]
    lines.append(
        "  queue: " + "  ".join(f"{state}={states[state]}"
                                for state in ("pending", "active", "done",
                                              "failed", "quarantined")))
    totals = gauges["totals"]
    lines.append(
        "  totals: " + "  ".join(f"{key}={totals[key]}"
                                 for key in sorted(totals)))
    lines.append(
        f"  daemons: {gauges['daemons_live']}/{gauges['daemons_total']} "
        f"live  leases: {gauges['leases']['live']}/"
        f"{gauges['leases']['count']} live  degraded_steps="
        f"{gauges['degraded_steps']}")
    for label, key in (("claim latency", "claim_latency_s"),
                       ("job latency", "job_latency_s"),
                       ("job wall", "job_wall_s")):
        summary = gauges[key]
        lines.append(
            f"  {label}: n={summary['count']} "
            f"p50={_fmt_seconds(summary['p50'])} "
            f"p99={_fmt_seconds(summary['p99'])} "
            f"max={_fmt_seconds(summary['max'])}")
    for row in snapshot["daemons"]:
        state = row.get("state", "?")
        live = "live" if row.get("live") else "gone"
        jobs = row.get("jobs") or {}
        lines.append(
            f"  daemon {row.get('daemon')}: {state} ({live}) "
            f"job={row.get('job') or '-'} done={jobs.get('done', 0)} "
            f"retried={jobs.get('retried', 0)} "
            f"drained={jobs.get('drained', 0)}")
    if slo_result is not None:
        lines.append("  slo: " + ("OK" if slo_result["ok"] else "BURNING"))
        for objective in slo_result["objectives"]:
            status = "burning" if objective["burning"] else "ok"
            lines.append(
                f"    {objective['name']} [{objective['metric']}]: "
                f"{status} worst_burn={objective['worst_burn']:.2f}")
    problems = snapshot.get("history_problems") or []
    for problem in problems:
        lines.append(f"  history problem: {problem}")
    return "\n".join(lines)


def fleet_report(view: FleetView, slo_result: dict | None = None) -> tuple:
    """``(title, headline, sections)`` of a fleet report.

    :func:`repro.obs.report.write_page` renders them as Markdown or
    HTML: gauges, the SLO verdict (when objectives are given), daemon
    swimlanes, per-job attempts and latencies, and the event tail.
    """
    gauges = view.gauges()
    events = view.events()
    jobs = view.jobs()
    headline = [f"Queue root: {view.root}"]
    gauge_rows = [[f"jobs {state}", str(count)]
                  for state, count in gauges["states"].items()]
    gauge_rows += [[key, str(value)]
                   for key, value in gauges["totals"].items()]
    gauge_rows += [["daemons live",
                    f"{gauges['daemons_live']}/{gauges['daemons_total']}"],
                   ["degraded steps", str(gauges["degraded_steps"])]]
    for label, key in (("claim latency", "claim_latency_s"),
                       ("job latency", "job_latency_s"),
                       ("job wall", "job_wall_s")):
        gauge_rows.append([f"{label} p50/p99",
                           f"{_fmt_seconds(gauges[key]['p50'])} / "
                           f"{_fmt_seconds(gauges[key]['p99'])}"])
    sections = [("Gauges", ["gauge", "value"], gauge_rows)]
    if slo_result is not None:
        headline.append("SLO: " + ("OK" if slo_result["ok"] else "BURNING"))
        sections.append((
            "SLO", ["objective", "metric", "status", "worst burn", "windows"],
            [[objective["name"], objective["metric"],
              "burning" if objective["burning"] else "ok",
              f"{objective['worst_burn']:.2f}",
              ", ".join(f"{w['seconds']:.0f}s: {w['burn_rate']:.2f}"
                        for w in objective["windows"])]
             for objective in slo_result["objectives"]]))
    lanes = [f"{lane['daemon']:<28} {lane['strip']}"
             for lane in daemon_swimlanes(events)]
    sections.append(("Daemon swimlanes", "\n".join(
        lanes + ["", "█ owning a job, ! breaker/quarantine, x lease lost, "
                 "· idle"]) if lanes else "(no daemon activity journaled)"))
    job_rows = []
    for job_id in sorted(jobs):
        info = jobs[job_id]
        waits = [wait for _, wait in info["queue_waits"]]
        job_rows.append([
            job_id, f"`{info['trace_id'] or '-'}`", str(info["state"]),
            str(info["attempts"]), ", ".join(info["daemons"]) or "-",
            str(info["steps_done"]),
            _fmt_seconds(max(waits) if waits else None),
            _fmt_seconds(info["latency_s"])])
    sections.append(("Jobs", ["job", "trace", "state", "attempts", "daemons",
                              "steps", "queue wait", "latency"], job_rows))
    sections.append(("Event tail",
                     "\n".join(format_event(row) for row in events[-30:])))
    return (f"Fleet report — {view.root.absolute().name}", headline,
            sections)
