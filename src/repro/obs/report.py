"""Self-contained run reports: metrics stream + runtime journal, joined.

:func:`collect_report_data` reads a run directory (the ``--run-dir`` of
a journaled prune, which is also a valid ``--metrics-dir``) and joins
the ``metrics.jsonl`` event stream with the ``journal.jsonl`` outcome
records into one structure; :func:`render_markdown` /
:func:`render_html` turn it into a report a human can read without any
other file from the run:

* phase timeline (top-level spans, with start offset and duration);
* per-layer outcome table from the journal (maps kept, inception and
  finetuned accuracy, attempts, degraded/skip annotations);
* per-layer reward/accuracy series, attributed by the enclosing
  ``prune_layer`` span and drawn as unicode sparklines;
* hit rates of the REINFORCE driver's reward memo;
* top-N slowest individual spans;
* per-op forward/backward wall-time attribution from the profiler
  (:mod:`repro.obs.profile`), when the run recorded ``op`` events;
* mark annotations (degradations, rollbacks) on the timeline.

CLI: ``repro report <run-dir> [--format html|md] [--out FILE]``.
"""

from __future__ import annotations

import html as _html
from pathlib import Path

from .summary import load_metrics_report, slowest_spans, summarize

__all__ = ["collect_report_data", "render_markdown", "render_html",
           "write_run_report"]

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Series attributed per layer when emitted inside a ``prune_layer`` span.
_LAYER_SERIES = ("reinforce/reward", "reinforce/greedy_reward",
                 "reinforce/baseline")


def sparkline(values, width: int = 24) -> str:
    """Unicode sparkline of a numeric series, downsampled to ``width``."""
    values = [float(v) for v in values]
    if not values:
        return ""
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    return "".join(
        _SPARK_BLOCKS[int((v - low) / span * (len(_SPARK_BLOCKS) - 1))]
        for v in values)


def _span_timeline(events) -> tuple[list[dict], list[dict]]:
    """(top-level span instances, mark instances) with relative times."""
    t0: float | None = None
    open_spans: dict[int, dict] = {}
    phases: list[dict] = []
    marks: list[dict] = []
    for record in events:
        kind = record.get("event")
        t = record.get("t")
        if t is not None and t0 is None:
            t0 = t
        if kind == "span_start":
            open_spans[record["span"]] = {
                "name": record["name"],
                "start": (t or 0) - (t0 or 0),
                "parent": record.get("parent"),
                "attrs": record.get("attrs") or {},
            }
        elif kind == "span_end":
            info = open_spans.pop(record["span"], None)
            if info is None:
                continue
            if info["parent"] is None:
                phases.append({"name": info["name"],
                               "start": info["start"],
                               "dur": record.get("dur", 0.0),
                               "ok": record.get("ok", True),
                               "attrs": info["attrs"]})
        elif kind == "mark":
            marks.append({"name": record["name"],
                          "offset": (t or 0) - (t0 or 0),
                          "attrs": record.get("attrs") or {}})
    # A crashed run leaves its top-level span open; still show it.
    for info in open_spans.values():
        if info["parent"] is None:
            phases.append({"name": info["name"], "start": info["start"],
                           "dur": None, "ok": False, "attrs": info["attrs"]})
    phases.sort(key=lambda p: p["start"])
    return phases, marks


def _layer_series(events) -> dict[str, dict[str, list[float]]]:
    """layer name -> series name -> values, joined via span nesting."""
    open_layers: dict[int, str] = {}   # span id -> layer name
    stack: list[int] = []
    out: dict[str, dict[str, list[float]]] = {}
    for record in events:
        kind = record.get("event")
        if kind == "span_start":
            span_id = record["span"]
            stack.append(span_id)
            attrs = record.get("attrs") or {}
            if "layer" in attrs:
                open_layers[span_id] = str(attrs["layer"])
        elif kind == "span_end":
            span_id = record["span"]
            while stack and stack[-1] != span_id:
                open_layers.pop(stack.pop(), None)
            if stack:
                stack.pop()
            open_layers.pop(span_id, None)
        elif kind == "series" and record.get("name") in _LAYER_SERIES:
            layer = next((open_layers[s] for s in reversed(stack)
                          if s in open_layers), None)
            if layer is not None:
                out.setdefault(layer, {}).setdefault(
                    record["name"], []).append(float(record["value"]))
    return out


def _cache_stats(counters: dict) -> dict:
    hits = counters.get("evalcache/hits", 0)
    misses = counters.get("evalcache/misses", 0)
    total = hits + misses
    return {"hits": hits, "misses": misses,
            "hit_rate": hits / total if total else None}


def collect_report_data(run_dir: str | Path,
                        metrics_dir: str | Path | None = None,
                        top: int = 5) -> dict:
    """Join a run directory's journal and metrics into report data.

    ``run_dir`` should hold ``journal.jsonl`` (a journaled prune's
    ``--run-dir``); ``metrics_dir`` defaults to the same directory.
    Either file may be missing — the report covers what exists.
    """
    run_dir = Path(run_dir)
    metrics_dir = Path(metrics_dir) if metrics_dir is not None else run_dir

    journal = None
    journal_path = run_dir / "journal.jsonl"
    if journal_path.exists():
        from ..runtime.journal import RunJournal, run_overview
        journal = run_overview(RunJournal(journal_path).read())

    events: list[dict] = []
    torn = False
    metrics_path = metrics_dir / "metrics.jsonl"
    if metrics_path.exists():
        events, torn = load_metrics_report(metrics_dir)
    if journal is None and not events:
        raise FileNotFoundError(
            f"no journal.jsonl or metrics.jsonl under {run_dir}"
            + (f" / {metrics_dir}" if metrics_dir != run_dir else ""))

    phases, marks = _span_timeline(events)
    summary = summarize(events)
    return {
        "run_dir": str(run_dir),
        "journal": journal,
        "summary": summary,
        "torn_tail": torn,
        "phases": phases,
        "marks": marks,
        "slowest": slowest_spans(events, top),
        "layer_series": _layer_series(events),
        "cache": _cache_stats(summary.get("counters", {})),
        "top": top,
    }


# -- shared row assembly (both renderers feed from these) -------------------

def _layer_rows(journal) -> list[list[str]]:
    rows = []
    for layer in (journal or {}).get("layers", []):
        log = layer.get("log") or {}
        notes = []
        if layer["status"] == "skipped":
            notes.append("SKIPPED")
        if layer.get("degraded"):
            notes.append(f"degraded→{layer.get('degraded_engine')}")
        if layer.get("failures"):
            notes.append(f"{len(layer['failures'])} failed attempt(s)"
                         " (rolled back)")
        rows.append([
            str(layer["index"]), str(layer.get("name", "")),
            str(layer.get("engine") or ""),
            _maps(log), _acc(log.get("inception_accuracy")),
            _acc(log.get("finetuned_accuracy")),
            str(layer.get("attempts") or ""),
            "; ".join(notes)])
    return rows


def _maps(log: dict) -> str:
    before, after = log.get("maps_before"), log.get("maps_after")
    if before is None or after is None:
        return ""
    return f"{before}→{after}"


def _acc(value) -> str:
    return f"{value:.4f}" if isinstance(value, (int, float)) else ""


def _fmt_s(seconds) -> str:
    return "—" if seconds is None else f"{seconds:.3f}s"


def _phase_rows(phases) -> list[list[str]]:
    return [[p["name"], f"+{p['start']:.3f}s", _fmt_s(p["dur"]),
             "ok" if p["ok"] else ("open" if p["dur"] is None else "error")]
            for p in phases]


def _slowest_rows(slowest) -> list[list[str]]:
    return [[str(i + 1), s["name"], f"{s['dur']:.4f}s",
             f"+{s['start']:.3f}s",
             ", ".join(f"{k}={v}" for k, v in (s.get("attrs") or {}).items())]
            for i, s in enumerate(slowest)]


def _op_rows(ops: dict) -> list[list[str]]:
    rows = []
    for name in sorted(ops, key=lambda n: -sum(
            p["total_s"] for p in ops[n].values())):
        phases = ops[name]
        fwd = phases.get("forward", {})
        bwd = phases.get("backward", {})
        kind = (fwd or bwd or {}).get("kind", "")
        rows.append([
            name, kind,
            str(fwd.get("count", 0)), f"{fwd.get('total_s', 0.0):.4f}s",
            str(bwd.get("count", 0)), f"{bwd.get('total_s', 0.0):.4f}s",
            f"{fwd.get('flops', 0):,}", f"{fwd.get('bytes', 0):,}"])
    return rows


def _series_rows(layer_series) -> list[list[str]]:
    rows = []
    for layer, by_name in layer_series.items():
        for name, values in sorted(by_name.items()):
            rows.append([layer, name, str(len(values)),
                         f"{values[0]:.4f}", f"{max(values):.4f}",
                         f"{values[-1]:.4f}", sparkline(values)])
    return rows


_SECTIONS = {
    "phases": ("Phase timeline",
               ["phase", "start", "duration", "status"]),
    "layers": ("Layers",
               ["#", "layer", "engine", "maps", "inception acc",
                "finetuned acc", "attempts", "notes"]),
    "series": ("Reward / accuracy series per layer",
               ["layer", "series", "points", "first", "best", "last",
                "trend"]),
    "slowest": ("Slowest spans",
                ["rank", "span", "duration", "start", "attrs"]),
    "ops": ("Op-level attribution (profiler)",
            ["module", "kind", "fwd calls", "fwd time", "bwd calls",
             "bwd time", "flops", "bytes"]),
}


def _assemble(data) -> list[tuple[str, list[str], list[list[str]]]]:
    """Ordered (title, header, rows) table sections present in the data."""
    journal = data["journal"]
    summary = data["summary"]
    sections = []
    for key, rows in (
            ("phases", _phase_rows(data["phases"])),
            ("layers", _layer_rows(journal)),
            ("series", _series_rows(data["layer_series"])),
            ("slowest", _slowest_rows(data["slowest"])),
            ("ops", _op_rows(summary.get("ops", {})))):
        if rows:
            title, header = _SECTIONS[key]
            if key == "slowest":
                title = f"Top {len(rows)} slowest spans"
            sections.append((title, header, rows))
    return sections


def _headline(data) -> list[str]:
    """Status lines shown before the tables, renderer-neutral."""
    lines = [f"Run directory: {data['run_dir']}"]
    journal = data["journal"]
    if journal is not None:
        header = journal.get("header") or {}
        lines.append(
            f"Engine: {header.get('engine', '?')} · config digest "
            f"{header.get('digest', '?')} · "
            f"{len(journal['layers'])} journaled layer(s)")
        final = journal.get("final")
        if final is not None:
            accuracy = final.get("final_accuracy")
            extra = f", final accuracy {accuracy:.4f}" \
                if isinstance(accuracy, (int, float)) else ""
            lines.append(f"Status: complete{extra}")
        else:
            lines.append("Status: INCOMPLETE (no run_complete record — "
                         "crashed or still running)")
        skipped = [l["name"] for l in journal["layers"]
                   if l["status"] == "skipped"]
        degraded = [l["name"] for l in journal["layers"] if l["degraded"]]
        if skipped:
            lines.append(f"Skipped layers: {', '.join(skipped)}")
        if degraded:
            lines.append(f"Degraded layers: {', '.join(degraded)}")
    cache = data["cache"]
    if cache["hits"] or cache["misses"]:
        lines.append(
            f"Eval cache: {cache['hits']} hits / {cache['misses']} misses "
            f"({cache['hit_rate']:.1%} hit rate)")
    for mark in data["marks"]:
        attrs = ", ".join(f"{k}={v}" for k, v in mark["attrs"].items())
        lines.append(f"Annotation at +{mark['offset']:.3f}s: "
                     f"{mark['name']}" + (f" ({attrs})" if attrs else ""))
    if data["torn_tail"]:
        lines.append("Note: metrics stream ended mid-line (torn tail "
                     "repaired — expected after a crash).")
    return lines


def render_markdown(data) -> str:
    """Render run report data as a GitHub-flavoured Markdown document."""
    out = [f"# Run report — {Path(data['run_dir']).name}", ""]
    out.extend(f"- {line}" for line in _headline(data))
    for title, header, rows in _assemble(data):
        out.extend(["", f"## {title}", ""])
        out.append("| " + " | ".join(header) + " |")
        out.append("|" + "|".join("---" for _ in header) + "|")
        out.extend("| " + " | ".join(row) + " |" for row in rows)
    out.append("")
    return "\n".join(out)


_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #4361ee; padding-bottom: .3rem; }
h2 { color: #3a0ca3; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: .9rem; }
th, td { border: 1px solid #d0d0e0; padding: .35rem .6rem;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #eef0fb; }
tr:nth-child(even) td { background: #f8f8fd; }
ul.headline { background: #f4f6ff; border-left: 4px solid #4361ee;
              padding: .8rem 1rem .8rem 2rem; }
.spark { font-family: monospace; }
"""


def render_html(data) -> str:
    """Render run report data as one self-contained HTML page."""
    esc = _html.escape
    parts = ["<!DOCTYPE html>", "<html lang=\"en\"><head>",
             "<meta charset=\"utf-8\">",
             f"<title>Run report — {esc(Path(data['run_dir']).name)}</title>",
             f"<style>{_CSS}</style>", "</head><body>",
             f"<h1>Run report — {esc(Path(data['run_dir']).name)}</h1>",
             "<ul class=\"headline\">"]
    parts.extend(f"<li>{esc(line)}</li>" for line in _headline(data))
    parts.append("</ul>")
    for title, header, rows in _assemble(data):
        parts.append(f"<h2>{esc(title)}</h2>")
        parts.append("<table><thead><tr>"
                     + "".join(f"<th>{esc(h)}</th>" for h in header)
                     + "</tr></thead><tbody>")
        for row in rows:
            parts.append("<tr>" + "".join(
                f"<td class=\"spark\">{esc(cell)}</td>" for cell in row)
                + "</tr>")
        parts.append("</tbody></table>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_run_report(run_dir: str | Path, out_path: str | Path | None = None,
                     metrics_dir: str | Path | None = None,
                     fmt: str = "html", top: int = 5) -> Path:
    """Generate a run report file; returns the path written.

    ``fmt`` is ``"html"`` or ``"md"``; the default output path is
    ``<run_dir>/report.<fmt>``.
    """
    if fmt not in ("html", "md"):
        raise ValueError(f"unknown report format {fmt!r} (html or md)")
    data = collect_report_data(run_dir, metrics_dir=metrics_dir, top=top)
    render = render_html if fmt == "html" else render_markdown
    out_path = Path(out_path) if out_path is not None \
        else Path(run_dir) / f"report.{fmt}"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(render(data), encoding="utf-8")
    return out_path
