"""Event schema of the metrics stream, with validation helpers.

Every line of ``metrics.jsonl`` is one JSON object carrying an
``event`` discriminator:

======================  =====================================================
event                   required fields
======================  =====================================================
``span_start``          ``name`` (str), ``span`` (int), ``parent``
                        (int or null), ``t`` (number); optional ``attrs``
``span_end``            ``name`` (str), ``span`` (int), ``dur`` (number),
                        ``ok`` (bool), ``t`` (number)
``counter``             ``name`` (str), ``value`` (number); optional ``attrs``
``gauge``               ``name`` (str), ``value`` (number); optional ``attrs``
``series``              ``name`` (str), ``step`` (int), ``value`` (number);
                        optional ``attrs``, optional ``timing`` (bool)
``mark``                ``name`` (str), ``t`` (number); optional ``attrs`` —
                        a point-in-time annotation (e.g. a runtime
                        degradation), no value attached
``op``                  ``name`` (str), ``kind`` (str), ``phase``
                        (``"forward"`` or ``"backward"``), ``dur`` (number),
                        ``t`` (number); optional ``flops``/``bytes`` (int),
                        ``attrs`` — one profiled module-level operation
                        (see :mod:`repro.obs.profile`)
======================  =====================================================

Wall-clock data lives only in ``t``/``dur`` and in events flagged
``timing: true``; :func:`deterministic_view` strips exactly those, so
two identically-seeded runs compare equal on the stripped stream (an
``op`` event keeps its deterministic ``flops``/``bytes`` accounting but
loses its timings).  Events may additionally carry ``operational: true``
— evaluator bookkeeping (the ``graph/*`` counters: compilations and
fallbacks) whose occurrence depends on how rewards were
computed, not on what the run computed; the deterministic view drops
those too, which is what lets a graph-executor run diff clean against
an eager one.
"""

from __future__ import annotations

from numbers import Number

__all__ = ["EVENT_TYPES", "OP_PHASES", "validate_event", "validate_events",
           "deterministic_view"]

EVENT_TYPES = ("span_start", "span_end", "counter", "gauge", "series",
               "mark", "op")

#: Legal ``phase`` values of an ``op`` event.
OP_PHASES = ("forward", "backward")

#: event -> {field: type or tuple of types}; None marks "int or null".
_REQUIRED: dict[str, dict] = {
    "span_start": {"name": str, "span": int, "parent": (int, type(None)),
                   "t": Number},
    "span_end": {"name": str, "span": int, "dur": Number, "ok": bool,
                 "t": Number},
    "counter": {"name": str, "value": Number},
    "gauge": {"name": str, "value": Number},
    "series": {"name": str, "step": int, "value": Number},
    "mark": {"name": str, "t": Number},
    "op": {"name": str, "kind": str, "phase": str, "dur": Number,
           "t": Number},
}


def validate_event(record) -> list[str]:
    """Problems with a single event record (empty list when valid)."""
    if not isinstance(record, dict):
        return [f"event is not an object: {record!r}"]
    kind = record.get("event")
    if kind not in EVENT_TYPES:
        return [f"unknown event type {kind!r}"]
    problems = []
    for field, expected in _REQUIRED[kind].items():
        if field not in record:
            problems.append(f"{kind} missing field {field!r}")
            continue
        value = record[field]
        # bool is an int/Number subclass; only 'ok' and 'timing' are bools.
        if isinstance(value, bool) and expected is not bool:
            problems.append(f"{kind}.{field} must not be a boolean")
        elif not isinstance(value, expected):
            problems.append(
                f"{kind}.{field} has type {type(value).__name__}, "
                f"expected {expected}")
    if "attrs" in record and not isinstance(record["attrs"], dict):
        problems.append(f"{kind}.attrs must be an object")
    if "timing" in record and not isinstance(record["timing"], bool):
        problems.append(f"{kind}.timing must be a boolean")
    if "operational" in record \
            and not isinstance(record["operational"], bool):
        problems.append(f"{kind}.operational must be a boolean")
    if kind == "op":
        if record.get("phase") not in OP_PHASES:
            problems.append(
                f"op.phase must be one of {OP_PHASES}, "
                f"got {record.get('phase')!r}")
        for field in ("flops", "bytes"):
            value = record.get(field)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)):
                problems.append(f"op.{field} must be an integer")
    return problems


def validate_events(records, require_closed: bool = True) -> list[str]:
    """Problems across a whole stream, including span pairing.

    Checks every record individually, that span ids are unique and
    strictly increasing, that ``span_end`` matches an open span of the
    same name, that parents are open at start time, and (unless
    ``require_closed=False``, for streams from crashed runs) that every
    span is closed by the end of the stream.
    """
    problems: list[str] = []
    open_spans: dict[int, str] = {}
    seen_ids: set[int] = set()
    last_id = 0
    for index, record in enumerate(records, start=1):
        local = validate_event(record)
        problems.extend(f"line {index}: {p}" for p in local)
        if local or not isinstance(record, dict):
            continue
        kind = record["event"]
        if kind == "span_start":
            span_id = record["span"]
            if span_id in seen_ids:
                problems.append(f"line {index}: span id {span_id} reused")
            if span_id <= last_id:
                problems.append(
                    f"line {index}: span id {span_id} not increasing")
            last_id = max(last_id, span_id)
            seen_ids.add(span_id)
            parent = record["parent"]
            if parent is not None and parent not in open_spans:
                problems.append(
                    f"line {index}: span {span_id} parent {parent} not open")
            open_spans[span_id] = record["name"]
        elif kind == "span_end":
            span_id = record["span"]
            name = open_spans.pop(span_id, None)
            if name is None:
                problems.append(
                    f"line {index}: span_end for unopened span {span_id}")
            elif name != record["name"]:
                problems.append(
                    f"line {index}: span {span_id} ends as "
                    f"{record['name']!r} but started as {name!r}")
    if require_closed and open_spans:
        names = ", ".join(sorted(set(open_spans.values())))
        problems.append(f"unclosed span(s): {names}")
    return problems


def deterministic_view(records) -> list[dict]:
    """The stream with all wall-clock and scheduling-derived data removed.

    Drops events flagged ``timing: true`` or ``operational: true`` and
    strips the ``t``/``dur`` keys; what remains is identical across
    identically-seeded runs regardless of parallelism or injected
    faults.
    """
    view = []
    for record in records:
        if record.get("timing") or record.get("operational"):
            continue
        view.append({k: v for k, v in record.items()
                     if k not in ("t", "dur")})
    return view
