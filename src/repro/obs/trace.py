"""Chrome trace-event export of a ``metrics.jsonl`` stream.

:func:`to_chrome_trace` converts the event stream of one run into the
Trace Event Format consumed by ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev): spans become ``B``/``E`` duration pairs on
thread 1, profiled ops (:mod:`repro.obs.profile`) become ``X`` complete
events on thread 2, marks become ``i`` instant events, and counters /
gauges / series become ``C`` counter tracks.  Timestamps are
microseconds relative to the first timestamped event, so a trace always
starts at zero regardless of when the run happened.

Streams from crashed runs are handled: spans still open at the end of
the stream are auto-closed at the last seen timestamp so the trace
stays loadable (Perfetto rejects unbalanced ``B`` events in JSON
traces).

CLI: ``repro metrics <run-dir> --trace out.trace.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .summary import load_metrics

__all__ = ["to_chrome_trace", "write_chrome_trace", "validate_chrome_trace"]

#: tid of the span timeline and of the profiled-op timeline.
SPAN_TID = 1
OP_TID = 2

_PID = 1


def _micros(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def to_chrome_trace(events, process_name: str = "repro") -> dict:
    """Convert a list of metrics events into a Chrome trace object.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}``; dump it
    with ``json.dump`` (or use :func:`write_chrome_trace`) and load the
    file in ``chrome://tracing`` or Perfetto.
    """
    trace: list[dict] = [
        {"ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
         "args": {"name": process_name}},
        {"ph": "M", "pid": _PID, "tid": SPAN_TID, "name": "thread_name",
         "args": {"name": "spans"}},
        {"ph": "M", "pid": _PID, "tid": OP_TID, "name": "thread_name",
         "args": {"name": "ops"}},
    ]
    t0: float | None = None
    last_ts = 0.0  # for events that carry no wall-clock of their own
    counters: dict[str, float] = {}
    open_spans: dict[int, str] = {}

    def rel(t: float) -> float:
        nonlocal t0, last_ts
        if t0 is None:
            t0 = t
        last_ts = max(last_ts, _micros(t - t0))
        return _micros(t - t0)

    for record in events:
        kind = record.get("event")
        name = record.get("name", "?")
        attrs = record.get("attrs") or {}
        if kind == "span_start":
            open_spans[record.get("span", -1)] = name
            trace.append({"ph": "B", "pid": _PID, "tid": SPAN_TID,
                          "name": name, "ts": rel(record["t"]),
                          "args": dict(attrs)})
        elif kind == "span_end":
            open_spans.pop(record.get("span", -1), None)
            trace.append({"ph": "E", "pid": _PID, "tid": SPAN_TID,
                          "name": name, "ts": rel(record["t"]),
                          "args": {"ok": record.get("ok", True)}})
        elif kind == "mark":
            event = {"ph": "i", "pid": _PID, "tid": SPAN_TID,
                     "name": name, "ts": rel(record["t"]), "s": "p"}
            if attrs:
                event["args"] = dict(attrs)
            trace.append(event)
        elif kind == "op":
            end = rel(record["t"])
            dur = _micros(record.get("dur", 0.0))
            args = {"kind": record.get("kind"),
                    "phase": record.get("phase")}
            for field in ("flops", "bytes"):
                if field in record:
                    args[field] = record[field]
            args.update(attrs)
            trace.append({"ph": "X", "pid": _PID, "tid": OP_TID,
                          "name": f"{name} [{record.get('phase')}]",
                          "cat": record.get("kind", "op"),
                          "ts": max(end - dur, 0.0), "dur": dur,
                          "args": args})
        elif kind == "counter":
            counters[name] = counters.get(name, 0) + record.get("value", 0)
            trace.append({"ph": "C", "pid": _PID, "tid": 0, "name": name,
                          "ts": last_ts, "args": {"value": counters[name]}})
        elif kind in ("gauge", "series"):
            trace.append({"ph": "C", "pid": _PID, "tid": 0, "name": name,
                          "ts": last_ts,
                          "args": {"value": record.get("value", 0)}})
    # Auto-close spans a crashed run never ended, innermost first.
    for span_id in sorted(open_spans, reverse=True):
        trace.append({"ph": "E", "pid": _PID, "tid": SPAN_TID,
                      "name": open_spans[span_id], "ts": last_ts,
                      "args": {"ok": False, "auto_closed": True}})
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(source, out_path) -> dict:
    """Export a run's metrics stream as a Chrome trace JSON file.

    ``source`` is a run directory / ``metrics.jsonl`` path or an
    already-loaded list of events.  Returns the trace object written.
    """
    if isinstance(source, (str, Path)):
        source = load_metrics(source)
    trace = to_chrome_trace(source)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return trace


_PHASES = {"B", "E", "X", "i", "C", "M"}


def validate_chrome_trace(trace) -> list[str]:
    """Problems with a trace object (empty list when loadable).

    Checks the containing object shape, per-event required fields, that
    timestamps are non-negative numbers, that ``X`` durations are
    non-negative, and that ``B``/``E`` events balance as a stack per
    thread — the invariant Perfetto enforces when importing JSON.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace.traceEvents must be an array"]
    stacks: dict[tuple, list[str]] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string name")
        if ph != "M":
            ts = event.get("ts")
            if isinstance(ts, bool) or not isinstance(ts, (int, float)):
                problems.append(f"{where}: missing numeric ts")
            elif ts < 0:
                problems.append(f"{where}: negative ts {ts}")
        if ph == "X":
            dur = event.get("dur")
            if isinstance(dur, bool) or not isinstance(dur, (int, float)):
                problems.append(f"{where}: X event missing numeric dur")
            elif dur < 0:
                problems.append(f"{where}: negative dur {dur}")
        if ph in ("B", "E"):
            key = (event.get("pid"), event.get("tid"))
            stack = stacks.setdefault(key, [])
            if ph == "B":
                stack.append(event.get("name", "?"))
            elif not stack:
                problems.append(f"{where}: E without matching B")
            else:
                started = stack.pop()
                if started != event.get("name"):
                    problems.append(
                        f"{where}: E names {event.get('name')!r} but "
                        f"innermost open span is {started!r}")
    for (pid, tid), stack in stacks.items():
        if stack:
            problems.append(
                f"unclosed B event(s) on pid={pid} tid={tid}: "
                + ", ".join(stack))
    return problems
