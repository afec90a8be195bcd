"""Pipeline benchmark of the HeadStart reproduction.

    python3 perfbench/run.py --workload NAME|all --seed N
        [--seconds S | --repeats N] [--trace 0|1] [--out FILE] [--smoke]

For each workload this runs one untimed warm-up sample, then untraced
samples one at a time, each in a fresh ``sample.py`` process, until the
next one would end past ``--seconds`` (at least three), or exactly
``--repeats`` of them.  ``--trace 1`` adds one traced sample.  End-to-end
metrics are medians over the untraced samples, with times scaled to a
reference host speed (:data:`REFERENCE_MS`); per-layer metrics come from
the traced sample.  Every metric is printed by name with its unit, and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

holding the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``), named as in ``BENCHMARK.json``.  The run exits 1 when a
correctness check fails, and 2, printing no result, when a sample cannot
run at all.  Spans of the traced samples are written as a Chrome trace
under ``.perfbench_out/``; ``--out`` writes the full report, which
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: A sample takes a few seconds; this only stops a hung one.
SAMPLE_TIMEOUT_S = 120
MIN_SAMPLES = 3
#: CPU ms of one ``workloads.HostReference`` pass on the 2-core x86 VM
#: the benchmark was calibrated on.  Gated times are CPU times scaled by
#: ``REFERENCE_MS / reference ms measured beside them``: seconds on a
#: host running at that speed.  On a shared host the speed drifts by
#: tens of percent within seconds, and the scaling cancels most of it.
REFERENCE_MS = 15.2


class SampleError(RuntimeError):
    """A sample process failed to produce a result."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_sample(workload: str, seed: int, tag: str, trace: bool,
               smoke: bool) -> dict:
    """Run one sample in a fresh process and return its result."""
    name = f"{workload}-{seed}-{tag}"
    result_path = OUT_DIR / f"{name}.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "sample.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace)), "--result", str(result_path),
               "--run-dir", str(OUT_DIR / "runs" / name)]
    if smoke:
        command.append("--smoke")
    spawned = time.time()
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SampleError(f"sample {name} did not finish within "
                          f"{SAMPLE_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.exists():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise SampleError(f"sample {name} exited with code "
                          f"{proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["setup_wall_s"] = result["ready_wall"] - spawned
    return result


def host_factors(sample: dict) -> dict[str, float]:
    """``REFERENCE_MS / measured reference ms`` for a sample's phases.

    Set-up uses the passes right after it, and the pipeline the mean of
    the passes sampled across it (or run just before and after it, when
    it was traced or too short to be sampled).
    """
    return {"setup": REFERENCE_MS / sample["reference_before_ms"],
            "pipeline": REFERENCE_MS
            / statistics.fmean(sample["reference_pipeline_ms"])}


def scaled_infer_ms(sample: dict) -> list[float]:
    """Each pruned batch's CPU ms, scaled by the pass that follows it."""
    return [REFERENCE_MS * ms / reference for ms, reference
            in zip(sample["pruned_ms"], sample["reference_ms"])]


def end_to_end(sample: dict) -> dict[str, float]:
    """The end-to-end metrics of one sample, in reference-host time.

    Inference metrics come from per-batch ratios, so that the host's
    speed cancels within each batch pair and its reference pass.
    ``infer_ms`` is their lower quartile: the batches that other tenants
    disturbed least, whose ten-seed spread was about half the median's.
    """
    factor = host_factors(sample)
    return {"setup_s": sample["setup_cpu_s"] * factor["setup"],
            "pipeline_s": sample["pipeline_cpu_s"] * factor["pipeline"],
            "infer_ms": statistics.quantiles(scaled_infer_ms(sample),
                                             n=4)[0],
            "host_speedup": statistics.median(
                orig / pruned for orig, pruned
                in zip(sample["orig_ms"], sample["pruned_ms"])),
            "peak_rss_mb": sample["peak_rss_mb"]}


def finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def summarize(spec: dict, samples: list[dict], traced: dict | None) -> dict:
    """Medians, quartiles, checks and per-layer metrics of one workload."""
    values = [end_to_end(sample) for sample in samples]
    metrics = {}
    for metric in spec["end_to_end"]:
        q1, median, q3 = quartiles([v[metric["name"]] for v in values])
        metrics[metric["name"]] = {"value": median, "unit": metric["unit"],
                                   "q1": q1, "q3": q3, "n": len(values)}
    everything = samples + ([traced] if traced else [])
    problems = list(dict.fromkeys(problem for sample in everything
                                  for problem in sample["problems"]))
    notes = list(dict.fromkeys(note for sample in everything
                               for note in sample["notes"]))
    digests = [sample["digest"] for sample in everything]
    if len(set(digests)) > 1:
        problems.append("model-state digests differ between samples of "
                        f"one seed: {sorted(set(d[:12] for d in digests))}")
    report = {"samples": values, "end_to_end": metrics,
              # Unscaled medians, for reading next to the gated ones.
              "raw": {**{key: statistics.median(s[key] for s in samples)
                         for key in ("setup_cpu_s", "setup_wall_s",
                                     "pipeline_cpu_s", "pipeline_wall_s",
                                     "reference_before_ms")},
                      "infer_cpu_ms": statistics.median(
                          statistics.median(s["pruned_ms"])
                          for s in samples)},
              "quality": samples[0]["quality"], "digests": digests,
              "attempted": sum(s["attempted"] for s in everything),
              "failed": sum(s["failed"] for s in everything),
              "blas_threads": samples[0]["blas_threads"]}
    if traced is not None:
        per_layer = dict(traced["per_layer"])
        median_s = metrics["pipeline_s"]["value"]
        per_layer["trace_overhead_pct"] = \
            100.0 * (end_to_end(traced)["pipeline_s"] - median_s) / median_s
        pooled = [ms for sample in samples for ms in scaled_infer_ms(sample)]
        per_layer["infer.p90_ms"] = statistics.quantiles(pooled, n=10)[-1]
        units = {metric["name"]: metric["unit"]
                 for metric in spec["per_layer"]}
        missing = [name for name in units
                   if not finite(per_layer.get(name))]
        if missing:
            problems.append(f"per-layer metrics missing or not finite: "
                            f"{missing}")
        report["per_layer"] = {name: {"value": per_layer.get(name),
                                      "unit": unit}
                               for name, unit in units.items()}
        report["host_fit"] = traced["host_fit"]
        report["host_table"] = traced["host_table"]
        report["spans"] = traced["spans"]
    report["problems"] = problems
    report["notes"] = notes
    report["correct"] = not problems
    return report


def run_workload(spec: dict, workload: str, args) -> dict:
    if not args.smoke:
        run_sample(workload, args.seed, "warmup", trace=False, smoke=True)
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        samples.append(run_sample(workload, args.seed, f"s{len(samples)}",
                                  trace=False, smoke=args.smoke))
        if args.repeats:
            if len(samples) >= args.repeats:
                break
            continue
        elapsed = time.perf_counter() - start
        if len(samples) >= MIN_SAMPLES \
                and elapsed * (len(samples) + 1) / len(samples) > args.seconds:
            break
    traced = None
    if args.trace:
        traced = run_sample(workload, args.seed, "traced", trace=True,
                            smoke=args.smoke)
    return summarize(spec, samples, traced)


def print_report(workload: str, report: dict, out) -> None:
    print(f"== {workload}: {len(report['samples'])} samples, "
          f"BLAS threads {report['blas_threads']}", file=out)
    for name, metric in report["end_to_end"].items():
        print(f"  {name:<34} {metric['value']:>12.4f} {metric['unit']:<8}"
              f" [q1 {metric['q1']:.4f}, q3 {metric['q3']:.4f}]", file=out)
    for name, value in report["raw"].items():
        print(f"  {name:<34} {value:>12.4f} (unscaled, not gated)",
              file=out)
    for name, value in report["quality"].items():
        print(f"  quality.{name:<26} {value:>12.4f}", file=out)
    for name, metric in report.get("per_layer", {}).items():
        value = metric["value"]
        shown = f"{value:>12.4f}" if finite(value) else f"{value!s:>12}"
        print(f"  {name:<34} {shown} {metric['unit']}", file=out)
    if "host_table" in report:
        print(report["host_table"], file=out)
    for note in report["notes"]:
        print(f"  note: {note}", file=out)
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}", file=out)


def _terminate(signum, frame):
    # Raised inside ``subprocess.run``, which kills and reaps the sample.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="HeadStart pipeline benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="time box for the untraced samples")
    parser.add_argument("--repeats", type=int, default=0,
                        help="run exactly this many untraced samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="write the full JSON report here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny geometry, no warm-up (for tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    selected = names if args.workload == "all" else [args.workload]
    reports = {}
    try:
        for workload in selected:
            reports[workload] = run_workload(spec, workload, args)
            print_report(workload, reports[workload], sys.stderr)
    except SampleError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.trace:
        trace = tracing.chrome_trace([r.pop("spans") for r in
                                      reports.values()])
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(trace))
        print(f"chrome trace: {path}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "smoke": args.smoke, "workloads": reports},
            indent=1))

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for workload, report in reports.items():
        prefix = "" if len(reports) == 1 else f"{workload}/"
        for name, metric in report[kind].items():
            metrics[prefix + name] = {"value": metric["value"],
                                      "unit": metric["unit"]}
    correct = all(report["correct"] for report in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
