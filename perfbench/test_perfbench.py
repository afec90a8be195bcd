"""Tests of the benchmark itself, at the smoke geometry (a few seconds).

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One traced smoke run of every workload, through the command line."""
    out = tmp_path_factory.mktemp("bench") / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", "3", "--smoke", "--repeats", "1", "--trace", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), json.loads(
        proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_and_finite(smoke_report):
    report, last_line = smoke_report
    spec = run.load_spec()
    assert set(report["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, workload in report["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                value = workload[kind][metric["name"]]["value"]
                assert run.finite(value), (name, metric["name"], value)
        # With --trace 1 the last line holds the per-layer metrics.
        for metric in spec["per_layer"]:
            assert f"{name}/{metric['name']}" in last_line["metrics"]
    assert last_line["correct"] is True
    assert last_line["attempted"] >= 1 and last_line["failed"] == 0
    assert all(math.isfinite(m["value"])
               for m in last_line["metrics"].values())


def test_traced_digest_equals_untraced(smoke_report):
    report, _ = smoke_report
    for workload in report["workloads"].values():
        assert len(workload["digests"]) == 2
        assert len(set(workload["digests"])) == 1
        assert workload["problems"] == []


def test_chrome_trace_is_valid(smoke_report):
    from repro.obs.trace import validate_chrome_trace
    trace = json.loads((run.OUT_DIR / "trace-all-seed3.json").read_text())
    assert validate_chrome_trace(trace) == []
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {"pipeline", "LayerAgent.run", "ReinforceDriver.run",
            "BlockHeadStart.run", "RunJournal.append"} <= \
        {span["name"] for span in spans}


def test_wrapped_callables_are_restored():
    import repro.core.pruner
    import repro.pruning.surgery
    from repro.core import LayerAgent

    original_run = LayerAgent.run
    tracer = tracing.SpanTracer("w", "s")
    with tracer.installed():
        assert repro.core.pruner.prune_unit \
            is not repro.pruning.surgery.prune_unit
        assert not tracing.restored()
    assert repro.core.pruner.prune_unit is repro.pruning.surgery.prune_unit
    assert LayerAgent.run is original_run
    assert tracing.restored()


def test_traced_span_with_no_work_is_near_zero(monkeypatch, tmp_path):
    """No host-reference pass runs inside the traced pipeline's spans."""
    import workloads

    pipeline = workloads.PIPELINES["layer"]
    timers = []

    def busy(prep, tracer, run_dir):
        outcome = pipeline(prep, tracer, run_dir)
        timers.append(signal.getitimer(signal.ITIMER_PROF))
        # Over two sampling periods of CPU time, in and out of empty spans.
        deadline = time.thread_time() + 0.6
        while time.thread_time() < deadline:
            with tracer.span("empty"):
                pass
        return outcome

    monkeypatch.setitem(workloads.PIPELINES, "layer", busy)
    prep = workloads.setup("finetune-vgg11", 3, smoke=True)
    tracer = tracing.SpanTracer("finetune-vgg11", "traced")
    result = workloads.run_sample(prep, tmp_path, tracer)
    assert timers == [(0.0, 0.0)]
    # Only the passes bracketing the pipeline.
    assert len(result["reference_pipeline_ms"]) == 2
    empty = [tracing.duration(s) for s in tracer.spans if s["name"] == "empty"]
    assert statistics.median(empty) < 1e-4


@pytest.mark.parametrize("kind, final, inception, budget, problems, notes", [
    ("layer", 0.7, 0.6, 0.01, 0, 0),
    # Seed 68 of block-resnet56 keeps 26 of 27 blocks: not a failure.
    ("block", 0.8, 0.73, 0.163, 0, 0),
    ("layer", 0.7, 0.6, 0.2, 1, 0),
    ("block", 0.7, 0.2, 0.02, 0, 1),
    ("layer", 0.99, 0.6, 0.01, 0, 1),
    ("block", 0.7, 0.1, 0.02, 1, 0),
])
def test_quality_band_notes_and_failures(kind, final, inception, budget,
                                         problems, notes):
    import types

    import workloads

    prep = types.SimpleNamespace(smoke=False,
                                 workload=types.SimpleNamespace(kind=kind),
                                 geometry=types.SimpleNamespace(classes=10))
    found = workloads._quality_checks(prep, {
        "final_accuracy": final, "inception_accuracy": inception,
        "budget_error": budget})
    assert [len(found[0]), len(found[1])] == [problems, notes], found


def test_span_self_time_subtracts_children():
    spans = [{"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
             {"id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0},
             {"id": 2, "name": "c", "start": 5.0, "end": 6.0, "parent": 0},
             {"id": 3, "name": "d", "start": 2.0, "end": 3.0, "parent": 1}]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def _sample(digest: str) -> dict:
    """A sample result as ``run.run_sample`` returns it."""
    return {"problems": [], "notes": [], "digest": digest, "quality": {},
            "attempted": 4, "failed": 0, "blas_threads": {},
            "setup_cpu_s": 0.4, "setup_wall_s": 0.4,
            "pipeline_cpu_s": 3.0, "pipeline_wall_s": 3.0,
            "orig_ms": [2.0, 2.1], "pruned_ms": [1.0, 1.1],
            "peak_rss_mb": 100.0, "reference_before_ms": 7.5,
            "reference_pipeline_ms": [7.5], "reference_ms": [7.5, 7.5]}


def test_planted_digest_mismatch_exits_nonzero(monkeypatch, capsys):
    digests = iter(["a" * 64, "b" * 64])
    monkeypatch.setattr(run, "run_sample",
                        lambda *args, **kwargs: _sample(next(digests)))
    code = run.main(["--workload", "finetune-vgg11", "--smoke",
                     "--repeats", "2"])
    assert code == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["correct"] is False


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0] * 5 + [10.2] * 5, [12.0] * 10, "regression"),
    ([10.0 + 0.01 * i for i in range(10)],
     [9.0 + 0.01 * i for i in range(10)], "improvement"),
    ([10.0 + 0.01 * i for i in range(10)],
     [10.0 + 0.01 * i for i in range(10)], "unchanged"),
    ([8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0, 10.5, 9.5, 10.0],
     [9.0, 12.5, 8.0, 11.0, 10.0, 12.0, 7.5, 10.0, 9.0, 11.0], "unresolved"),
    # Eight of ten pairs won is not enough to claim a gain.
    ([10.0] * 10, [9.0] * 8 + [10.5] * 2, "unchanged"),
])
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, 0.1, "lower") == expected


def test_compare_respects_direction():
    assert compare.verdict([2.0] * 10, [1.5] * 10, 0.05, "higher") \
        == "regression"
    assert compare.verdict([2.0] * 10, [2.5] * 10, 0.05, "higher") \
        == "improvement"
