"""Observability layer: recorder, sink, schema and summary round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import (NULL_RECORDER, MetricsError, MetricsSink, NullRecorder,
                       Recorder, deterministic_view, get_recorder,
                       load_metrics, read_events, repair_torn_tail,
                       set_recorder, summarize, summarize_dir, use_recorder,
                       validate_event, validate_events)


class TestNullRecorder:
    def test_default_recorder_is_the_noop_singleton(self):
        assert get_recorder() is NULL_RECORDER
        assert not get_recorder().enabled

    def test_every_operation_is_a_noop(self):
        rec = NullRecorder()
        with rec.span("anything", layer="conv1") as span:
            rec.counter("c")
            rec.gauge("g", 1.0)
            rec.series("s", 0, 1.0)
        rec.flush()
        rec.close()
        # Same reusable span object every time: no allocation per call.
        assert rec.span("a") is rec.span("b")
        assert span is rec.span("c")

    def test_null_recorder_has_no_state(self):
        rec = NullRecorder()
        rec.counter("c", 5)
        assert not hasattr(rec, "counters")


class TestRecorderAggregates:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.counter("evals")
        rec.counter("evals", 4)
        assert rec.counters["evals"] == 5

    def test_gauges_last_write_wins(self):
        rec = Recorder()
        rec.gauge("accuracy", 0.3)
        rec.gauge("accuracy", 0.7)
        assert rec.gauges["accuracy"] == 0.7

    def test_series_collects_step_value_points(self):
        rec = Recorder()
        for step, value in enumerate([1.0, 2.0, 0.5]):
            rec.series("reward", step, value)
        assert rec.series_data["reward"] == [(0, 1.0), (1, 2.0), (2, 0.5)]

    def test_span_stats_track_count_and_total(self):
        rec = Recorder()
        for _ in range(3):
            with rec.span("work"):
                pass
        stats = rec.span_stats["work"]
        assert stats.count == 3
        assert stats.total_s >= 0.0
        assert stats.min_s <= stats.mean_s <= stats.max_s

    def test_aggregate_shape(self):
        rec = Recorder()
        rec.counter("c", 2)
        rec.gauge("g", 0.5)
        rec.series("s", 0, 1.0)
        rec.series("s", 1, 3.0)
        with rec.span("w"):
            pass
        agg = rec.aggregate()
        assert agg["counters"] == {"c": 2}
        assert agg["gauges"] == {"g": 0.5}
        assert agg["series"]["s"] == {"count": 2, "first": 1.0, "last": 3.0,
                                      "min": 1.0, "max": 3.0, "mean": 2.0}
        assert agg["spans"]["w"]["count"] == 1


class TestSpanNesting:
    def test_nested_spans_record_parent_ids(self, tmp_path):
        with Recorder(tmp_path) as rec:
            with rec.span("outer"):
                with rec.span("inner"):
                    pass
                with rec.span("inner"):
                    pass
        events = load_metrics(tmp_path)
        starts = {e["span"]: e for e in events if e["event"] == "span_start"}
        outer = next(e for e in starts.values() if e["name"] == "outer")
        inners = [e for e in starts.values() if e["name"] == "inner"]
        assert outer["parent"] is None
        assert all(e["parent"] == outer["span"] for e in inners)

    def test_span_ids_are_unique_and_increasing(self, tmp_path):
        with Recorder(tmp_path) as rec:
            for _ in range(4):
                with rec.span("a"):
                    with rec.span("b"):
                        pass
        ids = [e["span"] for e in load_metrics(tmp_path)
               if e["event"] == "span_start"]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_span_records_failure(self, tmp_path):
        with Recorder(tmp_path) as rec:
            with pytest.raises(ValueError):
                with rec.span("doomed"):
                    raise ValueError("boom")
        end = next(e for e in load_metrics(tmp_path)
                   if e["event"] == "span_end")
        assert end["ok"] is False

    def test_span_attrs_serialised(self, tmp_path):
        with Recorder(tmp_path) as rec:
            with rec.span("prune_layer", layer="conv1", maps_before=16):
                pass
        start = next(e for e in load_metrics(tmp_path)
                     if e["event"] == "span_start")
        assert start["attrs"] == {"layer": "conv1", "maps_before": 16}


class TestSinkRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsSink(path) as sink:
            sink.emit({"event": "counter", "name": "c", "value": 1})
            sink.emit({"event": "gauge", "name": "g", "value": 0.5})
        assert read_events(path) == [
            {"event": "counter", "name": "c", "value": 1},
            {"event": "gauge", "name": "g", "value": 0.5},
        ]

    def test_numpy_values_become_json_types(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsSink(path) as sink:
            sink.emit({"event": "gauge", "name": "g",
                       "value": np.float64(0.25),
                       "attrs": {"n": np.int64(3)}})
        [event] = read_events(path)
        assert event["value"] == 0.25
        assert event["attrs"]["n"] == 3
        assert type(event["value"]) is float

    def test_torn_final_line_is_dropped_on_read(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"event":"counter","name":"c","value":1}\n'
                        '{"event":"gauge","na')
        events = read_events(path)
        assert events == [{"event": "counter", "name": "c", "value": 1}]

    def test_append_after_tear_repairs_first(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"event":"counter","name":"c","value":1}\n'
                        '{"event":"gauge","na')
        with MetricsSink(path) as sink:
            sink.emit({"event": "counter", "name": "c", "value": 2})
        events = read_events(path)
        assert [e["value"] for e in events] == [1, 2]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('not json\n'
                        '{"event":"counter","name":"c","value":1}\n')
        with pytest.raises(MetricsError, match="corrupt"):
            read_events(path)

    @pytest.mark.parametrize("line", ["[1, 2]", '"str"', "3"])
    def test_non_object_line_is_corrupt(self, tmp_path, line):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"event":"counter","name":"c","value":1}\n'
                        f"{line}\n")
        with pytest.raises(MetricsError,
                           match="line 2 .*not a JSON object"):
            obs.read_events_report(path)

    @pytest.mark.parametrize("line", ['{"seed": 0}', "{}"])
    def test_object_without_event_is_corrupt(self, tmp_path, line):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"event":"counter","name":"c","value":1}\n'
                        f"{line}\n")
        with pytest.raises(MetricsError,
                           match='line 2 .*no "event" field'):
            obs.read_events_report(path)

    def test_missing_stream_raises(self, tmp_path):
        with pytest.raises(MetricsError, match="no metrics stream"):
            read_events(tmp_path / "absent.jsonl")

    def test_metrics_error_on_directory_shaped_stream(self, tmp_path):
        stream = tmp_path / obs.METRICS_FILENAME
        stream.mkdir()
        with pytest.raises(obs.MetricsError, match="unreadable"):
            obs.read_events_report(stream)

    def test_repair_torn_tail_is_idempotent(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"a":1}\npartial')
        repair_torn_tail(path)
        repair_torn_tail(path)
        assert path.read_text() == '{"a":1}\n'

    def test_recorder_dir_path_creates_metrics_jsonl(self, tmp_path):
        target = tmp_path / "deep" / "run"
        with Recorder(target) as rec:
            rec.counter("c")
        assert (target / "metrics.jsonl").exists()


class TestSchema:
    def test_recorder_stream_is_schema_valid(self, tmp_path):
        with Recorder(tmp_path) as rec:
            with rec.span("outer", layer="conv1"):
                rec.counter("c", 2, layer="conv1")
                rec.gauge("g", 0.5)
                rec.series("s", 0, 1.0)
                rec.series("tp", 0, 9.9, timing=True)
        assert validate_events(load_metrics(tmp_path)) == []

    def test_unknown_event_type_rejected(self):
        assert validate_event({"event": "trace", "name": "x"})

    def test_missing_field_reported(self):
        problems = validate_event({"event": "counter", "name": "c"})
        assert any("missing field 'value'" in p for p in problems)

    def test_boolean_not_accepted_as_number(self):
        problems = validate_event({"event": "gauge", "name": "g",
                                   "value": True})
        assert any("must not be a boolean" in p for p in problems)

    def test_unclosed_span_flagged(self):
        stream = [{"event": "span_start", "name": "w", "span": 1,
                   "parent": None, "t": 0.0}]
        assert any("unclosed" in p for p in validate_events(stream))
        assert validate_events(stream, require_closed=False) == []

    def test_span_end_name_mismatch_flagged(self):
        stream = [
            {"event": "span_start", "name": "a", "span": 1,
             "parent": None, "t": 0.0},
            {"event": "span_end", "name": "b", "span": 1, "dur": 0.1,
             "ok": True, "t": 0.1},
        ]
        assert any("started as" in p for p in validate_events(stream))

    def test_reused_span_id_flagged(self):
        stream = [
            {"event": "span_start", "name": "a", "span": 1,
             "parent": None, "t": 0.0},
            {"event": "span_end", "name": "a", "span": 1, "dur": 0.1,
             "ok": True, "t": 0.1},
            {"event": "span_start", "name": "a", "span": 1,
             "parent": None, "t": 0.2},
            {"event": "span_end", "name": "a", "span": 1, "dur": 0.1,
             "ok": True, "t": 0.3},
        ]
        assert any("reused" in p for p in validate_events(stream))

    def test_deterministic_view_strips_wall_clock(self):
        stream = [
            {"event": "span_start", "name": "a", "span": 1,
             "parent": None, "t": 123.4},
            {"event": "series", "name": "tp", "step": 0, "value": 99.0,
             "timing": True},
            {"event": "span_end", "name": "a", "span": 1, "dur": 0.5,
             "ok": True, "t": 123.9},
        ]
        view = deterministic_view(stream)
        assert view == [
            {"event": "span_start", "name": "a", "span": 1, "parent": None},
            {"event": "span_end", "name": "a", "span": 1, "ok": True},
        ]


class TestSummary:
    def test_summarize_matches_live_aggregate(self, tmp_path):
        with Recorder(tmp_path) as rec:
            rec.counter("c", 2)
            rec.counter("c")
            rec.gauge("g", 0.25)
            for step, value in enumerate([1.0, 4.0, 2.5]):
                rec.series("s", step, value)
            live = rec.aggregate()
        replayed = summarize_dir(tmp_path)
        assert replayed["counters"] == live["counters"]
        assert replayed["gauges"] == live["gauges"]
        assert replayed["series"] == live["series"]

    def test_summarize_span_timings(self):
        stream = [
            {"event": "span_end", "name": "w", "span": 1, "dur": 1.0,
             "ok": True, "t": 0.0},
            {"event": "span_end", "name": "w", "span": 2, "dur": 3.0,
             "ok": True, "t": 0.0},
        ]
        spans = summarize(stream)["spans"]["w"]
        assert spans == {"count": 2, "total_s": 4.0, "mean_s": 2.0,
                         "min_s": 1.0, "max_s": 3.0}

    def test_load_metrics_accepts_file_or_dir(self, tmp_path):
        with Recorder(tmp_path) as rec:
            rec.counter("c")
        by_dir = load_metrics(tmp_path)
        by_file = load_metrics(tmp_path / "metrics.jsonl")
        assert by_dir == by_file


class TestCurrentRecorder:
    def test_set_recorder_returns_previous(self):
        rec = Recorder()
        previous = set_recorder(rec)
        try:
            assert get_recorder() is rec
        finally:
            assert set_recorder(previous) is rec
        assert get_recorder() is previous

    def test_use_recorder_restores_on_exit(self):
        rec = Recorder()
        with use_recorder(rec):
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_recorder(Recorder()):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER

    def test_none_installs_the_noop_default(self):
        previous = set_recorder(None)
        try:
            assert get_recorder() is NULL_RECORDER
        finally:
            set_recorder(previous)


class TestExperimentRecordIngestion:
    def test_attach_metrics_from_recorder_and_dir(self, tmp_path):
        from repro.analysis import ExperimentRecord
        with Recorder(tmp_path) as rec:
            rec.counter("c", 3)
            rec.gauge("g", 0.5)
            record = ExperimentRecord("table2", "test")
            record.attach_metrics(rec)
        assert record.metrics["counters"] == {"c": 3}

        from_dir = ExperimentRecord("table2", "test")
        from_dir.attach_metrics(tmp_path)
        assert from_dir.metrics["counters"] == record.metrics["counters"]

    def test_metrics_survive_save_load_round_trip(self, tmp_path):
        from repro.analysis import ExperimentRecord
        record = ExperimentRecord("fig3", "test")
        record.attach_metrics({"counters": {"c": 1}, "gauges": {},
                               "series": {}, "spans": {}})
        path = record.save(tmp_path / "record.json")
        loaded = ExperimentRecord.load(path)
        assert loaded.metrics == record.metrics

    def test_no_metrics_key_when_empty(self, tmp_path):
        from repro.analysis import ExperimentRecord
        record = ExperimentRecord("fig3", "test")
        assert "metrics" not in json.loads(record.to_json())
