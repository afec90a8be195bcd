"""``repro.obs`` — lightweight metrics and tracing for pruning runs.

Hierarchical :meth:`~repro.obs.recorder.Recorder.span` timers,
``counter``/``gauge``/``series`` metrics, a process-wide recorder with
an in-memory aggregate view plus an append-only JSONL sink, and a no-op
default (:class:`~repro.obs.recorder.NullRecorder`) so instrumented hot
paths cost nothing when observability is disabled.

Enable for a run::

    from repro import obs
    with obs.use_recorder(obs.Recorder("runs/exp1")):
        HeadStartPruner(model, train, test).run()
    summary = obs.summarize_dir("runs/exp1")

Deeper tooling layered on the same event stream:

* :class:`~repro.obs.profile.ModuleProfiler` — op-level forward/backward
  wall time with FLOP/byte accounting (``op`` events);
* :mod:`repro.obs.trace` — Chrome trace-event export for
  ``chrome://tracing`` / Perfetto;
* :mod:`repro.obs.report` — self-contained HTML/Markdown run reports
  joining metrics with the runtime journal, and the two page writers
  the fleet report shares;
* :mod:`repro.obs.diff` — regression-gating diffs of two runs;
* :mod:`repro.obs.fleet` — point-in-time view over a serve queue root
  (merged event timeline, gauges, per-daemon swimlane reports);
* :mod:`repro.obs.slo` — declarative SLOs with multi-window burn-rate
  evaluation (``repro fleet slo --check``).

See ``docs/OBSERVABILITY.md`` for the event schema.
"""

from .recorder import (NULL_RECORDER, NullRecorder, Recorder, SpanStats,
                       get_recorder, set_recorder, use_recorder)
from .schema import (EVENT_TYPES, OP_PHASES, deterministic_view,
                     validate_event, validate_events)
from .sink import (METRICS_FILENAME, MetricsError, MetricsSink, jsonable,
                   read_events, read_events_report, repair_torn_tail)
from .summary import (load_metrics, load_metrics_report, slowest_spans,
                      summarize, summarize_dir)
from .trace import (to_chrome_trace, validate_chrome_trace,
                    write_chrome_trace)
from .report import (collect_report_data, render_html, render_markdown,
                     write_page, write_run_report)
from .diff import (DiffResult, diff_bench_reports, diff_metrics_dirs,
                   diff_sources)
from .fleet import (FleetError, FleetView, daemon_swimlanes, fleet_report,
                    format_event, render_status)
from .slo import (SLO_FILENAME, SLO_METRICS, SLOError, evaluate_slo,
                  load_slo, render_slo)
# Imported last: profile depends on .recorder being fully initialised.
from .profile import (ModuleProfiler, label_modules, module_name,
                      profiler_active)

__all__ = [
    "Recorder", "NullRecorder", "NULL_RECORDER", "SpanStats",
    "get_recorder", "set_recorder", "use_recorder",
    "MetricsSink", "MetricsError", "METRICS_FILENAME",
    "jsonable", "read_events", "read_events_report", "repair_torn_tail",
    "EVENT_TYPES", "OP_PHASES", "validate_event", "validate_events",
    "deterministic_view",
    "load_metrics", "load_metrics_report", "slowest_spans",
    "summarize", "summarize_dir",
    "to_chrome_trace", "write_chrome_trace", "validate_chrome_trace",
    "collect_report_data", "render_markdown", "render_html",
    "write_run_report", "write_page",
    "DiffResult", "diff_metrics_dirs", "diff_bench_reports", "diff_sources",
    "FleetError", "FleetView", "daemon_swimlanes", "format_event",
    "render_status", "fleet_report",
    "SLOError", "SLO_FILENAME", "SLO_METRICS", "load_slo", "evaluate_slo",
    "render_slo",
    "ModuleProfiler", "label_modules", "module_name", "profiler_active",
]
