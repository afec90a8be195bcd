"""Regression-gating diff of two runs' metrics streams.

:func:`diff_metrics_dirs` compares two ``--metrics-dir`` streams.  The
deterministic views (:func:`repro.obs.schema.deterministic_view`) must
match record-for-record — two identically-seeded runs that diverge
there changed *behaviour*, not speed — and so must their counter
totals.  On top of that, per-span and per-op wall-clock totals are
compared against configurable regression thresholds: a name regresses
when its time in ``b`` exceeds its time in ``a`` by more than
``wall_tolerance`` percent *and* the absolute slowdown is at least
``min_seconds`` (so microsecond jitter on tiny spans never gates).

CLI: ``repro metrics diff <a> <b>`` — exit 0 when clean, 1 on any
difference or regression, 2 on unreadable input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .schema import deterministic_view
from .summary import load_metrics_report, summarize

__all__ = ["DiffResult", "diff_metrics_dirs"]

#: Cap on per-category detail lines so a totally divergent pair of runs
#: produces a readable report, not a megabyte of noise.
_MAX_DETAILS = 10


@dataclass
class DiffResult:
    """Outcome of a diff: behavioural differences, perf regressions, notes.

    ``differences`` are deterministic-view / structural mismatches (the
    runs did different things); ``regressions`` are counter-total
    mismatches and threshold-violating wall-time drifts; ``notes`` are
    informational only.
    """

    a: str
    b: str
    differences: list[str] = field(default_factory=list)
    regressions: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.differences and not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        lines = [f"diff {self.a} -> {self.b}"]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for item in self.differences:
            lines.append(f"  DIFFERENT: {item}")
        for item in self.regressions:
            lines.append(f"  REGRESSION: {item}")
        if self.ok:
            lines.append("  no differences, no regressions")
        return "\n".join(lines)


def _wall_regressed(base: float, new: float, wall_tolerance: float,
                    min_seconds: float) -> bool:
    return (new - base) >= min_seconds \
        and new > base * (1 + wall_tolerance / 100.0)


def _canonical_span_ids(view: list[dict]) -> list[dict]:
    """Renumber span ids by order of appearance (parents remapped too).

    Span ids are per-recorder allocation order, so they restart at 1
    whenever a process picks a run back up — a killed
    ``repro prune --run-dir ... --metrics-dir ...`` continued with
    ``--resume`` appends a second id sequence to the same
    ``metrics.jsonl``.  The *structure* (names, nesting, attrs) is
    what the deterministic view guarantees; renumbering in appearance
    order compares exactly that.  For a single-process run the mapping
    is the identity.  ``span_end`` resolves through the latest mapping
    of its raw id, which is correct for concatenated sequences because
    each phase closes a span before its id can be reallocated.
    """
    mapping: dict[int, int] = {}
    next_id = 1
    canonical = []
    for record in view:
        event = record.get("event")
        if event == "span_start":
            record = dict(record)
            mapping[record["span"]] = next_id
            record["span"] = next_id
            parent = record.get("parent")
            if parent is not None:
                record["parent"] = mapping.get(parent, parent)
            next_id += 1
        elif event == "span_end":
            record = dict(record)
            record["span"] = mapping.get(record["span"], record["span"])
        canonical.append(record)
    return canonical


def _counter_totals(view: list[dict]) -> dict[str, float]:
    """Per-name counter totals of a deterministic view.

    The view has ``t``/``dur`` stripped, so it cannot go back through
    :func:`~repro.obs.summary.summarize` (which needs span durations);
    counters carry no wall-clock data, so totalling them here is exact.
    """
    totals: dict[str, float] = {}
    for record in view:
        if record.get("event") == "counter":
            name = record["name"]
            totals[name] = totals.get(name, 0) + record["value"]
    return totals


def diff_metrics_dirs(a: str | Path, b: str | Path,
                      wall_tolerance: float = 50.0,
                      min_seconds: float = 0.05,
                      check_wall: bool = True) -> DiffResult:
    """Diff two metrics directories (or ``metrics.jsonl`` paths)."""
    result = DiffResult(a=str(a), b=str(b))
    events_a, torn_a = load_metrics_report(a)
    events_b, torn_b = load_metrics_report(b)
    if torn_a:
        result.notes.append(f"{a}: torn final line dropped")
    if torn_b:
        result.notes.append(f"{b}: torn final line dropped")

    view_a = _canonical_span_ids(deterministic_view(events_a))
    view_b = _canonical_span_ids(deterministic_view(events_b))
    if len(view_a) != len(view_b):
        result.differences.append(
            f"deterministic view lengths differ: {len(view_a)} vs "
            f"{len(view_b)} events")
    mismatches = 0
    for index, (ra, rb) in enumerate(zip(view_a, view_b)):
        if ra != rb:
            mismatches += 1
            if mismatches <= _MAX_DETAILS:
                result.differences.append(
                    f"deterministic event {index} differs: "
                    f"{json.dumps(ra, sort_keys=True)} vs "
                    f"{json.dumps(rb, sort_keys=True)}")
    if mismatches > _MAX_DETAILS:
        result.differences.append(
            f"... and {mismatches - _MAX_DETAILS} more differing events")

    # Counter totals are compared on the deterministic views so that
    # operational counters (graph/* executor bookkeeping, present only
    # when a run evaluated through the graph executor) never fail the gate;
    # spans/ops below keep the full streams — wall time is their point.
    summary_a, summary_b = summarize(events_a), summarize(events_b)
    det_a, det_b = _counter_totals(view_a), _counter_totals(view_b)
    for name in sorted(set(det_a) | set(det_b)):
        base = det_a.get(name, 0)
        new = det_b.get(name, 0)
        if base != new:
            result.regressions.append(f"counter {name}: {base} -> {new}")
    if check_wall:
        spans_a, spans_b = summary_a["spans"], summary_b["spans"]
        for name in sorted(set(spans_a) & set(spans_b)):
            base, new = spans_a[name]["total_s"], spans_b[name]["total_s"]
            if _wall_regressed(base, new, wall_tolerance, min_seconds):
                result.regressions.append(
                    f"span {name}: {base:.4f}s -> {new:.4f}s "
                    f"(> {wall_tolerance:g}% slower and >= "
                    f"{min_seconds:g}s absolute)")
        ops_a, ops_b = summary_a.get("ops", {}), summary_b.get("ops", {})
        for name in sorted(set(ops_a) & set(ops_b)):
            for phase in sorted(set(ops_a[name]) & set(ops_b[name])):
                base = ops_a[name][phase]["total_s"]
                new = ops_b[name][phase]["total_s"]
                if _wall_regressed(base, new, wall_tolerance, min_seconds):
                    result.regressions.append(
                        f"op {name} [{phase}]: {base:.4f}s -> {new:.4f}s")
    else:
        result.notes.append("wall-time checks skipped (--no-wall)")
    return result
