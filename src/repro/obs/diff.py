"""Regression-gating diffs of two runs: metrics streams or bench reports.

Two entry points, one result type:

* :func:`diff_metrics_dirs` compares two ``--metrics-dir`` streams.  The
  deterministic views (:func:`repro.obs.schema.deterministic_view`) must
  match record-for-record — two identically-seeded runs that diverge
  there changed *behaviour*, not speed.  On top of that, per-span and
  per-op wall-clock totals are compared against configurable regression
  thresholds: a name regresses when its time in ``b`` exceeds its time
  in ``a`` by more than ``wall_tolerance`` percent *and* the absolute
  slowdown is at least ``min_seconds`` (so microsecond jitter on tiny
  spans never gates).

* :func:`diff_bench_reports` compares two ``BENCH_reinforce.json``
  documents (see :mod:`repro.bench.schema`): scenario/seed must match
  for the comparison to mean anything, determinism booleans must not
  regress, counters (eval counts, hit rates, reduction percentages,
  accuracies) are compared within ``counter_tolerance`` percent, and
  wall timings within ``wall_tolerance`` (skippable with
  ``check_wall=False`` for cross-machine CI gates, where only the
  counters are stable).  Each variant's ``max_drift_vs_dense`` is
  reported as a first-class note and gated **absolutely**, never by
  percentage: a variant drifting from exactly 0 to any nonzero value,
  or a fused variant exceeding the 1e-6 fused-op limit, is a
  behavioural difference regardless of tolerances — float drift is a
  contract, not a performance counter.

CLI: ``repro metrics diff <a> <b>`` — exit 0 when clean, 1 on any
difference or regression, 2 on unreadable input.  CI uses the bench
mode to gate against the committed ``BENCH_reinforce.json`` baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .schema import deterministic_view
from .summary import load_metrics_report, summarize

__all__ = ["DiffResult", "diff_metrics_dirs", "diff_bench_reports",
           "load_diff_source", "diff_sources"]

#: Cap on per-category detail lines so a totally divergent pair of runs
#: produces a readable report, not a megabyte of noise.
_MAX_DETAILS = 10


@dataclass
class DiffResult:
    """Outcome of a diff: behavioural differences, perf regressions, notes.

    ``differences`` are deterministic-view / structural mismatches (the
    runs did different things); ``regressions`` are threshold-violating
    wall-time or counter drifts; ``notes`` are informational only.
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


def _pct_off(base: float, new: float) -> float:
    if base == new:
        return 0.0
    scale = max(abs(base), abs(new), 1e-12)
    return abs(new - base) / scale * 100.0


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
                      counter_tolerance: float = 0.0,
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
    # operational counters (pool/* supervision bookkeeping, present only
    # when a run was parallel or lost workers) never fail the gate;
    # spans/ops below keep the full streams — wall time is their point.
    summary_a, summary_b = summarize(events_a), summarize(events_b)
    det_a, det_b = _counter_totals(view_a), _counter_totals(view_b)
    for name in sorted(set(det_a) | set(det_b)):
        base = det_a.get(name, 0)
        new = det_b.get(name, 0)
        off = _pct_off(base, new)
        if off > counter_tolerance:
            result.regressions.append(
                f"counter {name}: {base} -> {new} ({off:.1f}% off, "
                f"tolerance {counter_tolerance:g}%)")
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


#: Deterministic integer counters of one bench variant.
_VARIANT_COUNTERS = ("iterations", "requested_evals", "unique_evals",
                     "reward_invocations")
#: Derived rates/accuracies compared with the same counter tolerance.
_VARIANT_RATES = ("evals_per_iteration", "final_accuracy")
#: Absolute ceiling on any variant's numeric drift vs dense — matches
#: :data:`repro.bench.schema.FUSED_DRIFT_LIMIT`; duplicated here so the
#: observability layer stays import-free of the bench package.
_DRIFT_LIMIT = 1e-6


def diff_bench_reports(a: dict, b: dict,
                       wall_tolerance: float = 50.0,
                       min_seconds: float = 0.05,
                       counter_tolerance: float = 0.0,
                       check_wall: bool = True,
                       a_name: str = "a", b_name: str = "b") -> DiffResult:
    """Diff two bench JSON documents (see :mod:`repro.bench.schema`)."""
    result = DiffResult(a=a_name, b=b_name)
    for key in ("bench", "schema_version", "quick", "seed", "scenario"):
        if a.get(key) != b.get(key):
            result.differences.append(
                f"{key} differs: {a.get(key)!r} vs {b.get(key)!r} "
                "(reports are not comparable)")
    for key in ("identical_accuracy", "identical_state",
                "graph_identical_state"):
        was = (a.get("determinism") or {}).get(key)
        now = (b.get("determinism") or {}).get(key)
        if was is True and now is not True:
            result.differences.append(
                f"determinism.{key} regressed: {was!r} -> {now!r}")

    variants_a = a.get("variants") or {}
    variants_b = b.get("variants") or {}
    missing = sorted(set(variants_a) ^ set(variants_b))
    if missing:
        result.differences.append(
            f"variant sets differ (only on one side: {', '.join(missing)})")
    for name in sorted(set(variants_a) & set(variants_b)):
        va, vb = variants_a[name], variants_b[name]
        where = f"variants.{name}"
        for key in _VARIANT_COUNTERS + _VARIANT_RATES:
            off = _pct_off(va.get(key, 0), vb.get(key, 0))
            if off > counter_tolerance:
                result.regressions.append(
                    f"{where}.{key}: {va.get(key)} -> {vb.get(key)} "
                    f"({off:.1f}% off, tolerance {counter_tolerance:g}%)")
        # Numeric drift is gated absolutely, never through the pct
        # tolerance loop: 0 -> anything nonzero is a broken bit-exactness
        # contract, and anything above the fused-op limit is a wrong
        # fusion — both count as differences even under loose tolerances.
        drift_a = va.get("max_drift_vs_dense")
        drift_b = vb.get("max_drift_vs_dense")
        if drift_a is not None or drift_b is not None:
            old = float(drift_a or 0.0)
            new = float(drift_b or 0.0)
            result.notes.append(
                f"{where}.max_drift_vs_dense: {old:.3e} -> {new:.3e}")
            if old == 0.0 and new != 0.0:
                result.differences.append(
                    f"{where}.max_drift_vs_dense: bit-exact variant now "
                    f"drifts by {new:.3e}")
            elif new > _DRIFT_LIMIT:
                result.differences.append(
                    f"{where}.max_drift_vs_dense: {new:.3e} exceeds the "
                    f"{_DRIFT_LIMIT:g} fused-op limit")
        cache_a, cache_b = va.get("cache"), vb.get("cache")
        if (cache_a is None) != (cache_b is None):
            result.differences.append(f"{where}.cache present on one side "
                                      "only")
        elif cache_a is not None:
            for key in ("hits", "misses", "evictions"):
                off = _pct_off(cache_a.get(key, 0), cache_b.get(key, 0))
                if off > counter_tolerance:
                    result.regressions.append(
                        f"{where}.cache.{key}: {cache_a.get(key)} -> "
                        f"{cache_b.get(key)} ({off:.1f}% off)")
        if check_wall:
            base = float(va.get("wall_seconds", 0.0))
            new = float(vb.get("wall_seconds", 0.0))
            if _wall_regressed(base, new, wall_tolerance, min_seconds):
                result.regressions.append(
                    f"{where}.wall_seconds: {base:.4f}s -> {new:.4f}s "
                    f"(> {wall_tolerance:g}% slower)")
    if not check_wall:
        result.notes.append("wall-time checks skipped (--no-wall)")
    return result


def load_diff_source(path: str | Path) -> tuple[str, object]:
    """Classify a diff operand: ``("bench", dict)`` or ``("metrics", path)``.

    A ``.json`` file is parsed as a bench report; a directory or
    ``.jsonl`` file is treated as a metrics stream.
    """
    path = Path(path)
    if path.is_file() and path.suffix == ".json":
        with open(path, "r", encoding="utf-8") as handle:
            return "bench", json.load(handle)
    if path.is_dir() or path.suffix == ".jsonl":
        return "metrics", path
    raise FileNotFoundError(
        f"{path}: not a bench .json, a metrics directory or a .jsonl file")


def diff_sources(a: str | Path, b: str | Path, **options) -> DiffResult:
    """Diff two operands, auto-detecting bench-JSON vs metrics-dir mode."""
    kind_a, payload_a = load_diff_source(a)
    kind_b, payload_b = load_diff_source(b)
    if kind_a != kind_b:
        raise ValueError(
            f"cannot diff a {kind_a} source against a {kind_b} source")
    if kind_a == "bench":
        return diff_bench_reports(payload_a, payload_b,
                                  a_name=str(a), b_name=str(b), **options)
    return diff_metrics_dirs(payload_a, payload_b, **options)
