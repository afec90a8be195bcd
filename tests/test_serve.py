"""Job queue + serve daemon: lifecycle, isolation, crash recovery.

Covers :mod:`repro.runtime.serve` — submission/claim/settle state
transitions with their ``serve.jsonl`` records, spec validation, the
daemon's per-job isolation (one bad job cannot take it down), and the
headline robustness property: a daemon killed mid-job leaves the job
recoverable, and the restarted daemon resumes it through the run
journal to a bit-for-bit identical result.

The ``li17`` metric engine keeps these runs fast; the resume contract
it exercises is engine-generic (test_resilience covers the others).
"""

import json
import time

import pytest

from repro.cli import main as cli_main
from repro.runtime import JobQueue, ServeDaemon
from repro.runtime.faults import FaultPlan, SimulatedCrash, inject
from repro.runtime.journal import RunJournal

QUICK_SPEC = {"engine": "li17", "seed": 4}


def journal_kinds(queue):
    return [record["record"] for record in queue.journal.read()]


def run_payloads(queue, job_id):
    journal = RunJournal(queue.job_dir(job_id) / "journal.jsonl")
    return {record["name"]: record["payload"] for record in journal.read()
            if record["record"] == "layer_complete"}


class TestJobQueue:
    def test_submit_claim_settle_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path)
        first = queue.submit(dict(QUICK_SPEC))
        second = queue.submit(dict(QUICK_SPEC))
        assert (first, second) == ("job-0001", "job-0002")
        job_id, spec = queue.claim()
        assert job_id == first
        assert spec["engine"] == "li17"
        assert spec["workers"] == 0  # defaults filled at submit time
        queue.finish(job_id, {"final_accuracy": 0.5})
        status = queue.status()
        assert [job["job"] for job in status["done"]] == [first]
        assert [job["job"] for job in status["pending"]] == [second]
        assert journal_kinds(queue) == ["job_submitted", "job_submitted",
                                        "job_claimed", "job_complete"]

    def test_unknown_spec_field_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sed"):
            JobQueue(tmp_path).submit({"engine": "li17", "sed": 3})

    def test_recover_honours_a_live_lease(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(dict(QUICK_SPEC))
        queue.claim()
        assert queue.claim() is None
        # Our own lease is live, so recover (from any daemon) skips it.
        assert queue.recover() == ([], [])
        other = JobQueue(tmp_path, daemon_id="other-daemon")
        lease = queue.read_lease(job_id)
        assert other.lease_live(lease) is False  # same pid, other daemon
        assert other.recover() == ([job_id], [])
        reclaimed, _ = other.claim()
        assert reclaimed == job_id
        assert other.read_lease(job_id)["daemon"] == "other-daemon"
        assert "job_recovered" in journal_kinds(queue)

    def test_recover_skips_foreign_live_lease_until_expiry(self, tmp_path):
        queue = JobQueue(tmp_path, lease_seconds=0.2)
        job_id = queue.submit(dict(QUICK_SPEC))
        queue.claim()
        # Rewrite the lease as a foreign host's: liveness falls back to
        # the deadline (no pid to probe here).
        lease = queue.read_lease(job_id)
        lease["host"] = "elsewhere"
        lease["daemon"] = "elsewhere-1"
        queue.lease_path(job_id).write_text(json.dumps(lease))
        other = JobQueue(tmp_path, daemon_id="other-daemon")
        assert other.recover() == ([], [])  # deadline not reached
        time.sleep(0.25)
        assert other.recover() == ([job_id], [])  # lease expired

    def test_recover_grants_a_leaseless_claim_a_grace_window(self, tmp_path):
        """claim() leases an instant *after* its rename; a recovery pass
        landing inside that instant must not steal the live claim."""
        queue = JobQueue(tmp_path, lease_seconds=0.2)
        job_id = queue.submit(dict(QUICK_SPEC))
        # Freeze a claim mid-flight: renamed into active/, no lease yet.
        (tmp_path / "pending" / f"{job_id}.json").rename(
            tmp_path / "active" / f"{job_id}.json")
        assert queue.recover() == ([], [])  # claimant presumed alive
        time.sleep(0.25)
        # A full lease period with no lease: the claimant really died.
        assert queue.recover() == ([job_id], [])
        assert queue.history_problems() == []

    def test_failed_jobs_requeue_then_quarantine(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=2)
        job_id = queue.submit(dict(QUICK_SPEC))
        queue.claim()
        assert queue.fail(job_id, ValueError("boom")) == "retry"
        record = [r for r in queue.journal.read()
                  if r["record"] == "job_retry"][0]
        assert record["kind"] == "ValueError"
        assert record["message"] == "boom"
        assert record["attempt"] == 1
        assert [job["job"] for job in queue.status()["pending"]] == [job_id]
        queue.claim()
        assert queue.fail(job_id, ValueError("boom")) == "quarantined"
        rows = queue.status()["quarantined"]
        assert [job["job"] for job in rows] == [job_id]
        assert rows[0]["failure"]["kind"] == "ValueError"
        assert rows[0]["attempts"] == 2
        failure_file = (tmp_path / "quarantined"
                        / f"{job_id}.failure.json")
        assert json.loads(failure_file.read_text())["message"] == "boom"
        assert not queue.lease_path(job_id).exists()
        assert queue.history_problems() == []


class TestServeDaemon:
    def test_runs_queued_jobs_to_completion(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(dict(QUICK_SPEC))
        assert ServeDaemon(tmp_path).run(once=True) == 1
        status = queue.status()
        assert status["done"][0]["complete"]
        assert status["done"][0]["steps_done"] > 0
        result = [r for r in queue.journal.read()
                  if r["record"] == "job_complete"][0]["result"]
        assert "final_accuracy" in result

    def test_bad_job_quarantines_without_killing_the_daemon(self, tmp_path):
        queue = JobQueue(tmp_path)
        bad = queue.submit({"engine": "no-such-engine"})
        good = queue.submit(dict(QUICK_SPEC))
        # Three attempts burn on the poison job, one on the good one.
        assert ServeDaemon(tmp_path, breaker_seconds=0.01) \
            .run(once=True) == 4
        status = queue.status()
        assert [job["job"] for job in status["quarantined"]] == [bad]
        assert status["quarantined"][0]["attempts"] == 3
        assert [job["job"] for job in status["done"]] == [good]
        kinds = journal_kinds(queue)
        assert kinds.count("job_retry") == 2
        assert kinds.count("job_quarantined") == 1
        assert queue.history_problems() == []

    def test_removed_eval_mode_fails_naming_accepted_values(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=1)
        job_id = queue.submit({"engine": "headstart",
                               "eval_mode": "compressed"})
        assert ServeDaemon(tmp_path, max_attempts=1).run(once=True) == 1
        failure = json.loads((tmp_path / "quarantined"
                              / f"{job_id}.failure.json").read_text())
        assert failure["kind"] == "ValueError"
        assert "'compressed'" in failure["message"]
        assert "expected dense or graph" in failure["message"]

    def test_max_jobs_bounds_a_drain(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(dict(QUICK_SPEC))
        queue.submit(dict(QUICK_SPEC))
        assert ServeDaemon(tmp_path, max_jobs=1).run(once=True) == 1
        assert len(queue.status()["pending"]) == 1

    def test_daemon_death_recovery_is_bit_for_bit(self, tmp_path):
        """The headline scenario: kill the daemon mid-job, restart, resume.

        The resumed job's run journal and result must match a reference
        job of the same spec that was never interrupted.
        """
        spec = {"engine": "li17", "seed": 2}
        reference = JobQueue(tmp_path / "reference")
        reference.submit(dict(spec))
        ServeDaemon(tmp_path / "reference").run(once=True)
        ref_result = [r for r in reference.journal.read()
                      if r["record"] == "job_complete"][0]["result"]

        queue = JobQueue(tmp_path / "queue")
        job_id = queue.submit(dict(spec))
        with inject(FaultPlan().crash_at("runtime.layer_complete", 1)):
            with pytest.raises(SimulatedCrash):
                ServeDaemon(tmp_path / "queue").run(once=True)
        # The dying daemon must leave the job claimable, not lose it.
        assert [job["job"] for job in queue.status()["active"]] == [job_id]

        assert ServeDaemon(tmp_path / "queue").run(once=True) == 1
        kinds = journal_kinds(queue)
        assert "job_recovered" in kinds
        assert kinds.count("job_claimed") == 2
        result = [r for r in queue.journal.read()
                  if r["record"] == "job_complete"][0]["result"]
        assert result["final_accuracy"] == ref_result["final_accuracy"]
        assert result["resumed_layers"] == 1
        assert run_payloads(queue, job_id) == \
            run_payloads(reference, "job-0001")


class TestServeCli:
    def test_submit_run_status_roundtrip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"engine": "li17", "seed": 5}))
        root = str(tmp_path / "queue")
        assert cli_main(["serve", root, "--submit", str(spec_path)]) == 0
        assert "submitted job-0001" in capsys.readouterr().out
        assert cli_main(["serve", root, "--once"]) == 0
        assert "processed 1 job(s)" in capsys.readouterr().out
        assert cli_main(["serve", root, "--status"]) == 0
        out = capsys.readouterr().out
        assert "job-0001" in out
        assert "complete" in out

    def test_rejects_bad_spec_files(self, tmp_path, capsys):
        root = str(tmp_path / "queue")
        not_an_object = tmp_path / "list.json"
        not_an_object.write_text("[1, 2]")
        assert cli_main(["serve", root, "--submit",
                         str(not_an_object)]) == 2
        assert cli_main(["serve", root, "--submit",
                         str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()
