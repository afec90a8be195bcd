"""Metrics and tracing recorder: spans, counters, gauges, series.

The process-wide recorder is what instrumented code talks to::

    from repro.obs import get_recorder
    rec = get_recorder()
    with rec.span("prune_layer", layer=unit.name):
        rec.series("reinforce/reward", step=i, value=r)
        rec.counter("reinforce/reward_evals", 4)

By default the current recorder is a :class:`NullRecorder` whose every
method is a no-op, so the hot path pays only an attribute lookup and an
empty call when observability is disabled.  A real :class:`Recorder`
keeps an in-memory aggregate view (totals, last values, series and span
summaries) and optionally streams every event to an append-only JSONL
sink (:class:`~repro.obs.sink.MetricsSink`).

Determinism contract: ``counter``/``gauge``/``series`` values come from
the (seeded) computation, so two identically-seeded runs emit identical
values.  Wall-clock fields are confined to the ``t``/``dur`` keys of
span events plus any event flagged ``timing=True`` (e.g. throughput);
:func:`repro.obs.schema.deterministic_view` strips exactly those.
Events flagged ``operational=True`` (the ``graph/*`` executor counters:
compilations and fallbacks) describe *how* a value was
computed rather than the value itself — they too are excluded from
determinism comparisons, since a graph-executor run must still diff
clean against an eager one.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path

from .sink import METRICS_FILENAME, MetricsSink

__all__ = ["NullRecorder", "Recorder", "SpanStats", "NULL_RECORDER",
           "get_recorder", "set_recorder", "use_recorder"]


class _NullSpan:
    """Reusable no-op context manager returned by disabled spans."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder with every operation a no-op (the disabled default)."""

    enabled = False

    def span(self, name: str, **attrs):
        return _NULL_SPAN

    def counter(self, name: str, value: float = 1, **attrs) -> None:
        pass

    def gauge(self, name: str, value: float, **attrs) -> None:
        pass

    def series(self, name: str, step: int, value: float,
               timing: bool = False, **attrs) -> None:
        pass

    def mark(self, name: str, **attrs) -> None:
        pass

    def op(self, name: str, kind: str, phase: str, dur: float,
           flops: int | None = None, bytes: int | None = None,
           **attrs) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_RECORDER = NullRecorder()


@dataclass
class SpanStats:
    """Aggregate timing of all spans sharing a name."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


class _Span:
    """Context manager recording one hierarchical timed section."""

    __slots__ = ("recorder", "name", "attrs", "span_id", "_start")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self.span_id, self._start = self.recorder._span_start(
            self.name, self.attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.recorder._span_end(self.name, self.span_id, self._start,
                                ok=exc_type is None)
        return False


class Recorder:
    """Aggregating recorder with an optional JSONL event stream.

    Parameters
    ----------
    sink:
        ``None`` (aggregates only), a :class:`MetricsSink`, or a path.
        A *directory* path streams to ``<dir>/metrics.jsonl``; any other
        path is used verbatim as the stream file.
    """

    enabled = True

    def __init__(self, sink: MetricsSink | str | Path | None = None):
        if sink is not None and not isinstance(sink, MetricsSink):
            path = Path(sink)
            if path.suffix != ".jsonl":
                path = path / METRICS_FILENAME
            sink = MetricsSink(path)
        self.sink = sink
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.series_data: dict[str, list[tuple[int, float]]] = {}
        self.marks: dict[str, int] = {}
        self.span_stats: dict[str, SpanStats] = {}
        self.op_stats: dict[str, dict[str, dict]] = {}
        self._stack: list[int] = []
        self._next_span_id = 1

    # -- emission ---------------------------------------------------------
    def _emit(self, record: dict) -> None:
        if self.sink is not None:
            self.sink.emit(record)

    # -- spans ------------------------------------------------------------
    def span(self, name: str, **attrs):
        """Timed hierarchical section; use as a context manager."""
        return _Span(self, name, attrs)

    def _span_start(self, name: str, attrs: dict) -> tuple[int, float]:
        span_id = self._next_span_id
        self._next_span_id += 1
        record = {"event": "span_start", "name": name, "span": span_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "t": time.time()}
        if attrs:
            record["attrs"] = attrs
        self._stack.append(span_id)
        self._emit(record)
        return span_id, time.perf_counter()

    def _span_end(self, name: str, span_id: int, start: float,
                  ok: bool) -> None:
        duration = time.perf_counter() - start
        # Tolerate exits out of order (a caller leaking a span): unwind
        # the stack down to this span rather than corrupting parentage.
        while self._stack and self._stack[-1] != span_id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self.span_stats.setdefault(name, SpanStats()).add(duration)
        self._emit({"event": "span_end", "name": name, "span": span_id,
                    "dur": duration, "ok": ok, "t": time.time()})

    # -- metrics ----------------------------------------------------------
    def counter(self, name: str, value: float = 1,
                operational: bool = False, **attrs) -> None:
        """Increment a monotonic counter by ``value``.

        ``operational=True`` marks the count as evaluator bookkeeping
        (the ``graph/*`` executor counters) rather than computed
        behaviour, excluding it from determinism comparisons.
        """
        self.counters[name] = self.counters.get(name, 0) + value
        record = {"event": "counter", "name": name, "value": value}
        if operational:
            record["operational"] = True
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def gauge(self, name: str, value: float,
              operational: bool = False, **attrs) -> None:
        """Record the current value of a quantity (last write wins)."""
        self.gauges[name] = value
        record = {"event": "gauge", "name": name, "value": value}
        if operational:
            record["operational"] = True
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def series(self, name: str, step: int, value: float,
               timing: bool = False, **attrs) -> None:
        """Append one ``(step, value)`` point to a named series.

        ``timing=True`` marks the value as wall-clock-derived (e.g. a
        throughput), excluding it from determinism comparisons.
        """
        self.series_data.setdefault(name, []).append((int(step), value))
        record = {"event": "series", "name": name, "step": int(step),
                  "value": value}
        if timing:
            record["timing"] = True
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def mark(self, name: str, operational: bool = False, **attrs) -> None:
        """Record a point-in-time annotation with no value attached.

        Marks flag notable run events (a degraded step, a rollback) so
        they are visible on a timeline without abusing counters; the
        aggregate view only keeps per-name occurrence counts.
        """
        self.marks[name] = self.marks.get(name, 0) + 1
        record = {"event": "mark", "name": name, "t": time.time()}
        if operational:
            record["operational"] = True
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def op(self, name: str, kind: str, phase: str, dur: float,
           flops: int | None = None, bytes: int | None = None,
           **attrs) -> None:
        """Record one profiled module-level operation.

        Emitted by :class:`repro.obs.profile.ModuleProfiler` for every
        forward/backward of a hooked layer; ``flops``/``bytes`` carry
        the deterministic work accounting (forward only), ``dur`` the
        wall time of this call.
        """
        stats = self.op_stats.setdefault(name, {}).setdefault(
            phase, {"count": 0, "total_s": 0.0, "flops": 0, "bytes": 0,
                    "kind": kind})
        stats["count"] += 1
        stats["total_s"] += dur
        if flops:
            stats["flops"] += flops
        if bytes:
            stats["bytes"] += bytes
        record = {"event": "op", "name": name, "kind": kind,
                  "phase": phase, "dur": dur, "t": time.time()}
        if flops is not None:
            record["flops"] = int(flops)
        if bytes is not None:
            record["bytes"] = int(bytes)
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    # -- aggregate view ----------------------------------------------------
    def aggregate(self) -> dict:
        """In-memory summary: counters, gauges, series and span timings.

        The shape matches :func:`repro.obs.summary.summarize` applied to
        the emitted event stream, so consumers (for instance
        :meth:`repro.analysis.records.ExperimentRecord.attach_metrics`)
        can ingest either interchangeably.
        """
        series = {}
        for name, points in self.series_data.items():
            values = [v for _, v in points]
            series[name] = {
                "count": len(values),
                "first": values[0], "last": values[-1],
                "min": min(values), "max": max(values),
                "mean": sum(values) / len(values),
            }
        spans = {name: {"count": s.count, "total_s": s.total_s,
                        "mean_s": s.mean_s, "min_s": s.min_s,
                        "max_s": s.max_s}
                 for name, s in self.span_stats.items()}
        ops = {name: {phase: dict(stats) for phase, stats in phases.items()}
               for name, phases in self.op_stats.items()}
        return {"counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "series": series,
                "marks": dict(self.marks),
                "spans": spans,
                "ops": ops}

    # -- lifecycle ---------------------------------------------------------
    def flush(self) -> None:
        if self.sink is not None:
            self.sink.flush()

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- process-wide current recorder -----------------------------------------
_CURRENT: NullRecorder | Recorder = NULL_RECORDER


def get_recorder() -> NullRecorder | Recorder:
    """The process-wide recorder instrumented code should emit to."""
    return _CURRENT


def set_recorder(recorder: NullRecorder | Recorder | None):
    """Install ``recorder`` globally; ``None`` restores the no-op default.

    Returns the previously installed recorder.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextlib.contextmanager
def use_recorder(recorder: NullRecorder | Recorder | None):
    """Temporarily install a recorder (restores the previous one on exit)."""
    previous = set_recorder(recorder)
    try:
        yield get_recorder()
    finally:
        set_recorder(previous)
