"""Run reports and run diffs: journal join, report content, regression gates."""

from __future__ import annotations

import json
import shutil

import pytest

from repro import obs
from repro.obs.report import sparkline
from repro.runtime.journal import run_overview


def _mutate_stream(src_dir, dst_dir, mutate):
    """Copy a metrics stream applying ``mutate(record) -> record|None``."""
    dst_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for line in (src_dir / "metrics.jsonl").read_text().splitlines():
        record = mutate(json.loads(line))
        if record is not None:
            out.append(json.dumps(record))
    (dst_dir / "metrics.jsonl").write_text("\n".join(out) + "\n")
    return dst_dir


class TestRunOverview:
    def test_groups_layers_and_annotations(self):
        records = [
            {"record": "run_start", "version": 2, "digest": "d", "units": ["a", "b", "c"],
             "engine": "headstart", "fingerprint": "f"},
            {"record": "layer_attempt_failed", "index": 0, "name": "a",
             "attempt": 0, "kind": "DivergenceError", "message": "nan"},
            {"record": "layer_complete", "index": 0, "name": "a",
             "engine": "headstart", "attempts": 2,
             "log": {"maps_before": 8, "maps_after": 4}},
            {"record": "degraded", "index": 1, "name": "b", "engine": "taylor",
             "attempts": 3},
            {"record": "layer_complete", "index": 1, "name": "b",
             "engine": "taylor", "attempts": 1, "log": {}},
            {"record": "layer_skipped", "index": 2, "name": "c",
             "failures": []},
            {"record": "run_complete", "final_accuracy": 0.5, "skipped": ["c"],
             "degraded": {"b": "taylor"}},
        ]
        overview = run_overview(records)
        assert overview["complete"]
        assert overview["header"]["engine"] == "headstart"
        assert [l["status"] for l in overview["layers"]] == \
            ["complete", "complete", "skipped"]
        assert overview["layers"][0]["failures"][0]["kind"] == \
            "DivergenceError"
        # An older version's ``degraded`` record adds nothing: the step's
        # own record names the engine that decided it.
        assert overview["layers"][1]["engine"] == "taylor"
        assert overview["final"]["final_accuracy"] == 0.5

    def test_partial_journal_from_crash(self):
        records = [{"record": "run_start", "version": 2, "digest": "d",
                    "units": ["a"], "engine": "headstart",
                    "fingerprint": "f"}]
        overview = run_overview(records)
        assert not overview["complete"]
        assert overview["layers"] == []


class TestSparkline:
    def test_maps_range_to_blocks(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series_and_empty(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_downsamples_to_width(self):
        assert len(sparkline(list(range(100)), width=10)) == 10


class TestRunReport:
    def test_report_names_top5_spans_and_op_attribution(self, journaled_run):
        data = obs.collect_report_data(journaled_run)
        assert len(data["slowest"]) == 5
        text = obs.render_markdown(data)
        assert "Top 5 slowest spans" in text
        for span in data["slowest"]:
            assert span["name"] in text
        # Per-op forward/backward attribution from --profile-ops.
        assert "Op-level attribution" in text
        assert "fwd time" in text and "bwd time" in text
        assert "conv1" in text

    def test_report_joins_journal_outcomes(self, journaled_run):
        data = obs.collect_report_data(journaled_run)
        assert data["journal"] is not None
        assert data["journal"]["complete"]
        text = obs.render_markdown(data)
        assert "Status: complete" in text
        assert "Eval cache:" in text

    def test_html_report_is_self_contained(self, journaled_run, tmp_path):
        out = tmp_path / "r.html"
        path = obs.write_run_report(journaled_run, out_path=out, fmt="html")
        html = path.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html            # inline CSS, no external refs
        assert "href=" not in html and "src=" not in html
        assert "Op-level attribution" in html

    def test_default_output_path_and_format_validation(self, journaled_run):
        path = obs.write_run_report(journaled_run, fmt="md")
        assert path == journaled_run / "report.md"
        with pytest.raises(ValueError, match="unknown report format"):
            obs.write_run_report(journaled_run, fmt="pdf")

    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            obs.collect_report_data(tmp_path / "nope")

    def test_report_without_journal_covers_metrics_only(self, journaled_run,
                                                        tmp_path):
        metrics_only = tmp_path / "metrics_only"
        metrics_only.mkdir()
        shutil.copy(journaled_run / "metrics.jsonl",
                    metrics_only / "metrics.jsonl")
        data = obs.collect_report_data(metrics_only)
        assert data["journal"] is None
        text = obs.render_markdown(data)
        assert "slowest spans" in text


class TestMetricsDiff:
    def test_identically_seeded_runs_diff_clean(self, journaled_run,
                                                tmp_path):
        # Re-running the diff against a byte-identical copy models two
        # same-seed runs (CI does the real two-run comparison).
        copy = tmp_path / "copy"
        copy.mkdir()
        shutil.copy(journaled_run / "metrics.jsonl", copy / "metrics.jsonl")
        result = obs.diff_metrics_dirs(journaled_run, copy)
        assert result.ok
        assert result.exit_code == 0
        assert result.differences == [] and result.regressions == []

    def test_injected_wall_regression_is_flagged(self, journaled_run,
                                                 tmp_path):
        def slow(record):
            if record.get("event") == "span_end" \
                    and record["name"] == "prune_layer":
                record = dict(record, dur=record["dur"] + 1.0)
            return record

        slow_dir = _mutate_stream(journaled_run, tmp_path / "slow", slow)
        result = obs.diff_metrics_dirs(journaled_run, slow_dir)
        assert not result.ok
        assert result.exit_code == 1
        assert result.differences == []     # timing only — same behaviour
        assert any("prune_layer" in r for r in result.regressions)

    def test_wall_regression_respects_thresholds(self, journaled_run,
                                                 tmp_path):
        def slow(record):
            if record.get("event") == "span_end" \
                    and record["name"] == "prune_layer":
                record = dict(record, dur=record["dur"] + 1.0)
            return record

        slow_dir = _mutate_stream(journaled_run, tmp_path / "slow2", slow)
        lax = obs.diff_metrics_dirs(journaled_run, slow_dir,
                                    min_seconds=10.0)
        assert lax.ok                       # absolute floor not reached
        skipped = obs.diff_metrics_dirs(journaled_run, slow_dir,
                                        check_wall=False)
        assert skipped.ok                   # --no-wall skips entirely

    def test_behavioural_change_is_a_difference(self, journaled_run,
                                                tmp_path):
        def drift(record):
            if record.get("event") == "counter" \
                    and record["name"] == "reinforce/reward_evals":
                record = dict(record, value=record["value"] + 1)
            return record

        drift_dir = _mutate_stream(journaled_run, tmp_path / "drift", drift)
        result = obs.diff_metrics_dirs(journaled_run, drift_dir)
        assert not result.ok
        assert any("deterministic event" in d for d in result.differences)
        # Counter totals are compared exactly, as their own line.
        assert any("counter reinforce/reward_evals" in r
                   for r in result.regressions)

    def test_resumed_stream_span_ids_diff_clean(self, tmp_path):
        """A killed-and-resumed job's stream matches an uninterrupted one.

        The resumed phase's recorder restarts span ids at 1 in the same
        ``metrics.jsonl``; the diff canonicalises ids by appearance
        order, so identical *behaviour* diffs clean regardless of how
        many processes produced the stream.
        """
        whole = tmp_path / "whole"
        with obs.Recorder(whole) as recorder:
            with recorder.span("step", layer="a"):
                recorder.counter("probe/work")
            with recorder.span("step", layer="b"):
                recorder.counter("probe/work")
        pieced = tmp_path / "pieced"
        with obs.Recorder(pieced) as recorder:
            with recorder.span("step", layer="a"):
                recorder.counter("probe/work")
        with obs.Recorder(pieced) as recorder:  # resume: ids restart
            with recorder.span("step", layer="b"):
                recorder.counter("probe/work")
        result = obs.diff_metrics_dirs(whole, pieced, check_wall=False)
        assert result.differences == [] and result.regressions == []

    def test_canonicalisation_keeps_structure_differences(self, tmp_path):
        nested = tmp_path / "nested"
        with obs.Recorder(nested) as recorder:
            with recorder.span("outer"):
                with recorder.span("inner"):
                    pass
        flat = tmp_path / "flat"
        with obs.Recorder(flat) as recorder:
            with recorder.span("outer"):
                pass
            with recorder.span("inner"):
                pass
        result = obs.diff_metrics_dirs(nested, flat, check_wall=False)
        assert not result.ok  # different parentage is different behaviour

    def test_torn_tail_is_noted(self, journaled_run, tmp_path):
        torn = tmp_path / "torn"
        torn.mkdir()
        stream = (journaled_run / "metrics.jsonl").read_text()
        (torn / "metrics.jsonl").write_text(stream + '{"event": "cou')
        result = obs.diff_metrics_dirs(journaled_run, torn)
        assert any("torn final line" in n for n in result.notes)
        assert result.ok                    # intact prefix is identical


class TestDiffSources:
    """Both operands must be metrics streams; anything else exits 2."""

    def test_mixed_modes_rejected(self, journaled_run, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "a.json"     # a pretty-printed JSON document
        report.write_text(json.dumps({"bench": "reinforce", "seed": 0},
                                     indent=2))
        with pytest.raises(obs.MetricsError, match="corrupt metrics line"):
            obs.diff_metrics_dirs(report, journaled_run)
        assert main(["metrics", "diff", str(report),
                     str(journaled_run)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_operand_rejected(self, journaled_run, tmp_path):
        with pytest.raises(obs.MetricsError, match="no metrics stream"):
            obs.diff_metrics_dirs(journaled_run, tmp_path / "missing.txt")
