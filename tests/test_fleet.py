"""Fleet observability: trace correlation, FleetView, SLOs, reports.

Covers the observability layer stacked on the serve queue
(:mod:`repro.obs.fleet`, :mod:`repro.obs.slo`, and the fleet report
rendered through :mod:`repro.obs.report`) — including that a
FleetView is a read-only, point-in-time snapshot — plus the
cross-daemon correlation contract from :mod:`repro.runtime.serve`:
every metrics record a daemon emits while running a job carries the
job's submit-time ``trace_id`` and the daemon's ``origin``, so a
takeover (daemon A crashes mid-job, daemon B resumes into the same
stream) stitches into one causal timeline that the Chrome-trace
exporter renders as two process rows of a single trace.
"""

import json

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.runtime import JobQueue, ServeDaemon
from repro.runtime.faults import FaultPlan, SimulatedCrash, inject

QUICK_SPEC = {"engine": "li17", "seed": 4}


def run_fleet(tmp_path, seeds=(1, 2), daemon_id="d1"):
    """Submit one job per seed and drain the queue with one daemon."""
    queue = JobQueue(tmp_path, daemon_id="observer")
    jobs = [queue.submit({"engine": "li17", "seed": seed})
            for seed in seeds]
    ServeDaemon(tmp_path, daemon_id=daemon_id).run(once=True)
    return queue, jobs


def job_events(queue, job_id):
    return obs.load_metrics(queue.job_dir(job_id))


class TestTraceCorrelation:
    def test_every_run_event_is_trace_stamped(self, tmp_path):
        queue, (job_id,) = run_fleet(tmp_path, seeds=(4,))
        trace_id = queue.trace_id_for(job_id)
        assert trace_id is not None and trace_id.startswith(job_id)
        events = job_events(queue, job_id)
        assert events
        assert {record["trace_id"] for record in events} == {trace_id}
        assert {record["origin"] for record in events} == {"d1"}

    def test_trace_identity_is_not_behaviour(self, tmp_path):
        """deterministic_view must strip trace_id/origin: two daemons
        running the same spec must still compare equal."""
        queue, (job_id,) = run_fleet(tmp_path, seeds=(4,))
        views = obs.deterministic_view(job_events(queue, job_id))
        assert views
        for view in views:
            assert "trace_id" not in view
            assert "origin" not in view

    def test_takeover_stitches_one_trace_across_daemons(self, tmp_path):
        """The headline correlation scenario: daemon A dies mid-job,
        daemon B resumes.  Both incarnations append to the same stream
        under the submit-time trace id, and the split-origin Chrome
        export of the stitched stream is loadable."""
        queue = JobQueue(tmp_path, daemon_id="observer")
        job_id = queue.submit(dict(QUICK_SPEC))
        with inject(FaultPlan().crash_at("runtime.layer_complete", 1)):
            with pytest.raises(SimulatedCrash):
                ServeDaemon(tmp_path, daemon_id="first").run(once=True)
        assert ServeDaemon(tmp_path, daemon_id="second") \
            .run(once=True) == 1

        events = job_events(queue, job_id)
        trace_ids = {record.get("trace_id") for record in events}
        assert trace_ids == {queue.trace_id_for(job_id)}
        origins = [record.get("origin") for record in events]
        assert set(origins) == {"first", "second"}
        # The stream is stitched, not interleaved: A's suffix precedes
        # B's prefix on disk.
        switch = origins.index("second")
        assert all(origin == "second" for origin in origins[switch:])

        trace = obs.to_chrome_trace(events, split_origins=True)
        assert obs.validate_chrome_trace(trace) == []
        rows = {event["args"]["name"] for event in trace["traceEvents"]
                if event["ph"] == "M" and event["name"] == "process_name"}
        assert rows == {"first", "second"}

    def test_fleet_journal_records_carry_the_trace(self, tmp_path):
        queue, (job_id,) = run_fleet(tmp_path, seeds=(4,))
        submitted = [record for record in queue.journal.read()
                     if record["record"] == "job_submitted"]
        assert submitted[0]["trace_id"] == queue.trace_id_for(job_id)


class TestDrainFlush:
    def test_drain_telemetry_is_flushed_before_requeue(self, tmp_path):
        """A daemon interrupted mid-job must land the interruption
        record in the job's own trace-stamped stream *before* the job
        is requeued — killing the daemon right after the requeue must
        not lose the record of why it let go."""
        queue = JobQueue(tmp_path, daemon_id="observer")
        job_id = queue.submit(dict(QUICK_SPEC))
        daemon = ServeDaemon(tmp_path, daemon_id="drainer")
        calls = {"n": 0}

        def stop_after_one_step():
            calls["n"] += 1
            if calls["n"] > 1:
                daemon._drain = True
                return "drain"
            return None

        daemon._stop_check = stop_after_one_step
        daemon.run(once=True)
        kinds = [record["record"] for record in queue.journal.read()]
        assert "job_drained" in kinds

        # The sink tail: interruption mark + drain counter, both
        # stamped with the job's trace and the dying daemon's origin.
        events = job_events(queue, job_id)
        marks = [record for record in events
                 if record.get("event") == "mark"
                 and record["name"] == "serve/interrupted"]
        assert marks
        assert marks[-1]["attrs"]["reason"] == "drain"
        assert marks[-1]["attrs"]["steps_done"] == 1
        counters = [record for record in events
                    if record.get("event") == "counter"
                    and record["name"] == "serve/jobs_drained"]
        assert len(counters) == 1
        for record in marks + counters:
            assert record["origin"] == "drainer"
            assert record["trace_id"] == queue.trace_id_for(job_id)

        # The requeued job resumes cleanly on a fresh daemon.
        assert ServeDaemon(tmp_path, daemon_id="finisher") \
            .run(once=True) == 1
        assert [row["job"] for row in queue.status()["done"]] == [job_id]
        assert queue.history_problems() == []


class TestTornReads:
    def test_serve_status_tolerates_a_torn_health_file(self, tmp_path,
                                                       capsys):
        queue, _ = run_fleet(tmp_path, seeds=(4,))
        (tmp_path / "health" / "torn.json").write_text('{"daemon": "to')
        assert [row["daemon"] for row in queue.daemons()] == ["d1"]
        assert cli_main(["serve", str(tmp_path), "--status"]) == 0
        assert "job-0001" in capsys.readouterr().out

    def test_fleetview_tolerates_a_torn_journal_tail(self, tmp_path):
        queue, jobs = run_fleet(tmp_path)
        with open(tmp_path / "serve.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"record": "job_comp')  # crash mid-append
        view = obs.FleetView(tmp_path)
        assert view.gauges()["totals"]["completions"] == len(jobs)

    def test_fleetview_skips_unreadable_run_streams(self, tmp_path):
        queue, _ = run_fleet(tmp_path, seeds=(4,))
        bogus = tmp_path / "runs" / "job-9999" / obs.METRICS_FILENAME
        bogus.mkdir(parents=True)  # a directory where a stream should be
        view = obs.FleetView(tmp_path)
        assert all(row["job"] != "job-9999" for row in view.run_marks())

    def test_fleetview_rejects_a_non_queue_root(self, tmp_path):
        with pytest.raises(obs.FleetError, match="no serve queue"):
            obs.FleetView(tmp_path / "nowhere")
        # A lone serve.jsonl is not a queue either — and the view must
        # not turn it into one by creating the queue directories.
        (tmp_path / "serve.jsonl").write_text("")
        with pytest.raises(obs.FleetError, match="no serve queue"):
            obs.FleetView(tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == ["serve.jsonl"]

    def test_metrics_error_on_directory_shaped_stream(self, tmp_path):
        stream = tmp_path / obs.METRICS_FILENAME
        stream.mkdir()
        with pytest.raises(obs.MetricsError, match="unreadable"):
            obs.read_events_report(stream)


class TestFleetView:
    def test_gauges_match_ground_truth(self, tmp_path):
        queue, jobs = run_fleet(tmp_path)
        gauges = obs.FleetView(tmp_path).gauges()
        assert gauges["states"]["done"] == len(jobs)
        assert gauges["queue_depth"] == 0
        assert gauges["in_flight"] == 0
        totals = gauges["totals"]
        assert totals["submitted"] == len(jobs)
        assert totals["claims"] == len(jobs)
        assert totals["completions"] == len(jobs)
        assert totals["retries"] == 0
        assert gauges["daemons_total"] == 1
        assert gauges["leases"] == {"count": 0, "live": 0}
        assert gauges["job_latency_s"]["count"] == len(jobs)
        assert gauges["job_latency_s"]["p50"] > 0.0
        assert gauges["claim_latency_s"]["count"] == len(jobs)

    def test_jobs_join(self, tmp_path):
        queue, (job_id, _) = run_fleet(tmp_path)
        info = obs.FleetView(tmp_path).jobs()[job_id]
        assert info["state"] == "done"
        assert info["attempts"] == 1
        assert info["daemons"] == ["d1"]
        assert info["trace_id"] == queue.trace_id_for(job_id)
        assert info["steps_done"] > 0
        assert info["latency_s"] >= info["wall_s"] >= 0.0

    def test_events_timeline_is_sorted_and_trace_stamped(self, tmp_path):
        queue, jobs = run_fleet(tmp_path)
        events = obs.FleetView(tmp_path).events()
        stamps = [row["ts"] for row in events]
        assert stamps == sorted(stamps)
        kinds = {row["kind"] for row in events}
        assert {"job_submitted", "job_claimed", "job_complete"} <= kinds
        # Queue records that never carried a trace id (claims,
        # completions) are backfilled from the submission record.
        for row in events:
            if row["job"] in jobs:
                assert row["trace_id"] == queue.trace_id_for(row["job"])

    def test_slo_samples_ground_truth(self, tmp_path):
        _, jobs = run_fleet(tmp_path)
        samples = obs.FleetView(tmp_path).slo_samples()
        assert len(samples["job_latency_seconds"]) == len(jobs)
        assert len(samples["queue_wait_seconds"]) == len(jobs)
        assert [value for _, value in samples["failure_rate"]] \
            == [0.0] * len(jobs)
        for series in samples.values():
            assert series == sorted(series)

    def test_view_is_a_snapshot(self, tmp_path):
        """Every answer comes from the read taken at construction: a job
        submitted afterwards shows in no view method."""
        queue, jobs = run_fleet(tmp_path)
        view = obs.FleetView(tmp_path)
        before = (view.events(), view.jobs(), view.gauges(),
                  view.slo_samples())
        late = queue.submit({"engine": "li17", "seed": 9})
        after = (view.events(), view.jobs(), view.gauges(),
                 view.slo_samples())
        assert after == before
        assert late not in view.jobs()
        assert all(row["job"] != late for row in view.events())
        assert view.gauges()["totals"]["submitted"] == len(jobs)
        assert view.gauges()["queue_depth"] == 0
        assert obs.FleetView(tmp_path).gauges()["queue_depth"] == 1

    def test_percentile(self):
        assert obs.fleet.percentile([], 50.0) is None
        assert obs.fleet.percentile([3.0], 99.0) == 3.0
        assert obs.fleet.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert obs.fleet.percentile([1.0, 2.0], 100.0) == 2.0


class TestSwimlanes:
    def test_busy_points_and_unsettled_claims(self):
        events = [
            {"ts": 100.0, "kind": "job_claimed", "job": "job-0001",
             "daemon": "a"},
            {"ts": 104.0, "kind": "job_complete", "job": "job-0001",
             "daemon": "a"},
            {"ts": 101.0, "kind": "job_claimed", "job": "job-0002",
             "daemon": "b"},
            {"ts": 102.0, "kind": "breaker_open", "job": None,
             "daemon": "b"},
        ]
        lanes = obs.daemon_swimlanes(events, width=10)
        assert [lane["daemon"] for lane in lanes] == ["a", "b"]
        assert set(lanes[0]["strip"]) == {"█"}  # busy the whole span
        strip = lanes[1]["strip"]
        assert strip[:2] == "··"      # idle before its claim
        assert strip[5] == "!"        # breaker trip marker
        assert strip[-1] == "█"       # unsettled claim closed at t_max

    def test_lease_loss_marker(self):
        events = [
            {"ts": 10.0, "kind": "job_claimed", "job": "j", "daemon": "a"},
            {"ts": 20.0, "kind": "job_lease_lost", "job": "j",
             "daemon": "a"},
        ]
        (lane,) = obs.daemon_swimlanes(events, width=10)
        assert lane["strip"][-1] == "x"

    def test_empty_timeline(self):
        assert obs.daemon_swimlanes([]) == []


class TestSLO:
    def objective(self, **overrides):
        base = {"name": "latency", "metric": "job_latency_seconds",
                "threshold_seconds": 1.0, "budget": 0.5,
                "windows_seconds": [10.0]}
        base.update(overrides)
        return base

    def write_slo(self, tmp_path, objectives):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"objectives": objectives}))
        return path

    def test_load_valid(self, tmp_path):
        path = self.write_slo(tmp_path, [self.objective()])
        slo = obs.load_slo(path)
        assert slo["objectives"][0]["windows_seconds"] == [10.0]

    def test_load_rejects_bad_files(self, tmp_path):
        with pytest.raises(obs.SLOError, match="no SLO file"):
            obs.load_slo(tmp_path / "missing.json")
        path = tmp_path / "slo.json"
        path.write_text("not json")
        with pytest.raises(obs.SLOError, match="unreadable"):
            obs.load_slo(path)
        path.write_text("{}")
        with pytest.raises(obs.SLOError, match="objectives"):
            obs.load_slo(path)
        for bad, pattern in (
                (self.objective(metric="nope"), "unknown metric"),
                (self.objective(budget=0.0), "budget"),
                (self.objective(budget=2.0), "budget"),
                (self.objective(threshold_seconds=None), "threshold"),
                (self.objective(metric="failure_rate",
                                threshold_seconds=1.0),
                 "no threshold"),
                (self.objective(windows_seconds=[]), "windows"),
                (self.objective(windows_seconds=[-1.0]), "windows"),
                (self.objective(typo=1), "unknown field"),
        ):
            self.write_slo(tmp_path, [bad])
            with pytest.raises(obs.SLOError, match=pattern):
                obs.load_slo(path)
        self.write_slo(tmp_path, [self.objective(), self.objective()])
        with pytest.raises(obs.SLOError, match="duplicate"):
            obs.load_slo(path)
        self.write_slo(tmp_path, [])
        with pytest.raises(obs.SLOError, match="no objectives"):
            obs.load_slo(path)

    def test_burning_needs_every_window(self):
        slo = {"objectives": [self.objective(
            windows_seconds=[10.0, 200.0])]}
        # Recent samples all bad; older ones fine: the short window
        # burns (proves "now"), the long one does not (not significant).
        samples = {"job_latency_seconds":
                   [(20.0, 0.5)] * 4 + [(100.0, 2.0), (105.0, 2.0)]}
        result = obs.evaluate_slo(slo, samples)
        assert result["now"] == 105.0  # anchored on the newest sample
        (objective,) = result["objectives"]
        short, long_ = objective["windows"]
        assert short["burn_rate"] == pytest.approx(2.0)
        assert long_["burn_rate"] < 1.0
        assert objective["burning"] is False
        assert result["ok"] is True

    def test_burning_when_all_windows_burn(self):
        slo = {"objectives": [self.objective()]}
        samples = {"job_latency_seconds": [(100.0, 2.0), (105.0, 2.0)]}
        result = obs.evaluate_slo(slo, samples)
        (objective,) = result["objectives"]
        assert objective["burning"] is True
        assert objective["worst_burn"] == pytest.approx(2.0)
        assert result["ok"] is False
        assert "BURNING" in obs.render_slo(result)

    def test_empty_window_is_vacuously_healthy(self):
        slo = {"objectives": [self.objective()]}
        samples = {"job_latency_seconds": [(100.0, 2.0)]}
        # All samples fell out of the window: no evidence, no page.
        result = obs.evaluate_slo(slo, samples, now=500.0)
        assert result["objectives"][0]["burning"] is False
        assert result["ok"] is True

    def test_failure_rate_counts_positive_samples(self):
        slo = {"objectives": [{"name": "failures",
                               "metric": "failure_rate",
                               "threshold_seconds": None,
                               "budget": 0.25,
                               "windows_seconds": [100.0]}]}
        samples = {"failure_rate": [(1.0, 0.0), (2.0, 1.0),
                                    (3.0, 0.0), (4.0, 1.0)]}
        result = obs.evaluate_slo(slo, samples)
        (window,) = result["objectives"][0]["windows"]
        assert window["bad"] == 2
        assert window["burn_rate"] == pytest.approx(2.0)


class TestFleetCli:
    def test_status_and_tail(self, tmp_path, capsys):
        queue, jobs = run_fleet(tmp_path)
        root = str(tmp_path)
        assert cli_main(["fleet", "status", root]) == 0
        out = capsys.readouterr().out
        assert f"fleet @ {root}" in out
        assert "done=2" in out
        assert "daemon d1" in out
        assert cli_main(["fleet", "tail", root]) == 0
        out = capsys.readouterr().out
        assert "job_submitted" in out and "job_complete" in out
        assert f"trace={queue.trace_id_for(jobs[0])}" in out

    def test_commands_never_write_into_the_root(self, tmp_path, capsys):
        root = tmp_path / "queue"
        run_fleet(root)
        (root / obs.SLO_FILENAME).write_text(json.dumps({"objectives": [
            {"name": "lat", "metric": "job_latency_seconds",
             "threshold_seconds": 3600.0, "budget": 0.5}]}))

        def listing():
            return sorted((str(path.relative_to(root)), path.is_dir(),
                           path.stat().st_size, path.stat().st_mtime_ns)
                          for path in root.rglob("*"))

        before = listing()
        out = tmp_path / "out"
        for argv in (["status"], ["tail"], ["slo", "--check"],
                     ["report", "--format", "md", "--out",
                      str(out / "r.md")],
                     ["report", "--out", str(out / "r.html")],
                     ["trace", "job-0001", "--out", str(out / "t.json")]):
            assert cli_main(["fleet", argv[0], str(root), *argv[1:]]) == 0
            assert listing() == before, argv
        capsys.readouterr()

    def test_missing_root_is_a_typed_error(self, tmp_path, capsys):
        assert cli_main(["fleet", "status",
                         str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no serve queue" in err

    def test_report_markdown_and_html(self, tmp_path, capsys):
        # --daemon-id is operator input: the HTML writer must escape it.
        run_fleet(tmp_path, daemon_id="d<b>1")
        (tmp_path / obs.SLO_FILENAME).write_text(json.dumps({"objectives": [
            {"name": "lat", "metric": "job_latency_seconds",
             "threshold_seconds": 3600.0, "budget": 0.5}]}))
        texts = {}
        for fmt, needle, slo in (
                ("md", "## Daemon swimlanes", "## SLO"),
                ("html", "<h2>Daemon swimlanes</h2>", "<h2>SLO</h2>")):
            out = tmp_path / f"report.{fmt}"
            assert cli_main(["fleet", "report", str(tmp_path),
                             "--format", fmt, "--out", str(out)]) == 0
            text = texts[fmt] = out.read_text(encoding="utf-8")
            assert needle in text
            assert slo in text and "job_latency_seconds" in text
            assert "job-0001" in text
        assert "d<b>1" in texts["md"]
        assert "d&lt;b&gt;1" in texts["html"] and "<b>" not in texts["html"]
        capsys.readouterr()

    def test_slo_check_exit_codes(self, tmp_path, capsys):
        run_fleet(tmp_path)
        root = str(tmp_path)
        permissive = tmp_path / "ok.json"
        permissive.write_text(json.dumps({"objectives": [
            {"name": "lat", "metric": "job_latency_seconds",
             "threshold_seconds": 3600.0, "budget": 0.5}]}))
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({"objectives": [
            {"name": "lat", "metric": "job_latency_seconds",
             "threshold_seconds": 0.0, "budget": 0.01}]}))
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"objectives": [
            {"name": "lat", "metric": "nope", "budget": 0.5}]}))
        assert cli_main(["fleet", "slo", root, "--file",
                         str(permissive), "--check"]) == 0
        assert "OK" in capsys.readouterr().out
        assert cli_main(["fleet", "slo", root, "--file",
                         str(strict), "--check"]) == 1
        assert "BURNING" in capsys.readouterr().out
        assert cli_main(["fleet", "slo", root, "--file",
                         str(invalid), "--check"]) == 2
        assert "unknown metric" in capsys.readouterr().err
        # Without a declared SLO file the check is a typed error, not
        # a silent pass.
        assert cli_main(["fleet", "slo", root, "--check"]) == 2
        capsys.readouterr()

    def test_fleet_trace_over_a_takeover(self, tmp_path, capsys):
        queue = JobQueue(tmp_path, daemon_id="observer")
        job_id = queue.submit(dict(QUICK_SPEC))
        with inject(FaultPlan().crash_at("runtime.layer_complete", 1)):
            with pytest.raises(SimulatedCrash):
                ServeDaemon(tmp_path, daemon_id="first").run(once=True)
        ServeDaemon(tmp_path, daemon_id="second").run(once=True)
        out = tmp_path / "takeover.trace.json"
        assert cli_main(["fleet", "trace", str(tmp_path), job_id,
                         "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "2 daemon row(s)" in printed
        assert queue.trace_id_for(job_id) in printed
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert obs.validate_chrome_trace(trace) == []

    def test_metrics_check_typed_errors(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert cli_main(["metrics", str(missing), "--check"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / obs.METRICS_FILENAME).write_text("")
        assert cli_main(["metrics", str(empty), "--check"]) == 2
        assert "empty metrics stream" in capsys.readouterr().err
        shaped = tmp_path / "shaped"
        (shaped / obs.METRICS_FILENAME).mkdir(parents=True)
        assert cli_main(["metrics", str(shaped), "--check"]) == 2
        assert "error:" in capsys.readouterr().err
