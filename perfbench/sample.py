"""One benchmark sample in a fresh process: ``run.py`` starts this.

    python3 perfbench/sample.py --workload NAME --seed N --trace 0|1
        --result FILE --run-dir DIR [--smoke]

BLAS is pinned to one thread before numpy is imported, so a sample is
single-threaded and its CPU time equals its wall time on an idle host.
The sample writes one JSON object to ``--result`` with raw CPU times and
the host reference passes measured beside them, from which ``run.py``
derives the gated metrics.  ``setup_cpu_s`` is the CPU time from process
start (interpreter, imports, data synthesis, model build); ``ready_wall``
is the wall-clock moment set-up ended, from which the parent derives
set-up wall time.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.obs import ModuleProfiler, Recorder, use_recorder  # noqa: E402


def traced_sample(prep, run_dir: Path) -> dict:
    """The traced sample: spans, library counters and per-op times."""
    # Imported here so that scipy stays out of every sample's set-up time.
    import hostfit

    tracer = tracing.SpanTracer(prep.workload.name, "traced")
    recorder = Recorder()
    with use_recorder(recorder), ModuleProfiler(), tracer.installed():
        result = workloads.run_sample(prep, run_dir, tracer)
    original, pruned = result["models"]
    graph_ms = workloads.time_graph_inference(pruned, result["batches"])

    metrics = tracing.span_metrics(tracer.spans, recorder.aggregate())
    metrics.update(tracing.op_metrics(recorder.aggregate()["ops"],
                                      tracer.infer_recorder.aggregate()["ops"]))
    rows = hostfit.conv_rows(tracer.infer_recorder.aggregate()["ops"],
                             {"original": original, "pruned": pruned},
                             result["input_shape"],
                             prep.geometry.infer_batch)
    fitted = hostfit.fit(rows)
    host_speedup = statistics.median(result["orig_ms"]) \
        / statistics.median(result["pruned_ms"])
    metrics.update({
        "graph.infer_ms": statistics.median(graph_ms),
        "surgery.maps_removed": result["maps_removed"],
        "gpusim.sim_speedup": result["sim_speedup"],
        "gpusim.fit_r2": fitted["r2"],
        "gpusim.pred_host_speedup": fitted["pred_conv_speedup"],
        "gpusim.host_peak_gmacs_per_s": fitted["peak_gmacs_per_s"],
        "gpusim.host_overhead_us": fitted["overhead_us"],
        "gpusim.residual_abs_median_pct": fitted["residual_abs_median_pct"],
        "gpusim.residual_abs_max_pct": fitted["residual_abs_max_pct"],
    })
    for key, value in result["quality"].items():
        metrics[f"quality.{key}"] = value
    result["per_layer"] = metrics
    result["spans"] = tracer.spans
    result["host_fit"] = {k: v for k, v in fitted.items() if k != "rows"}
    result["host_table"] = hostfit.host_table(fitted, host_speedup)
    if not tracing.restored():
        result["problems"].append("a wrapped library callable was not "
                                  "restored after the traced sample")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    prep = workloads.setup(args.workload, args.seed, smoke=args.smoke)
    ready_wall = time.time()
    # CPU time since the process started: interpreter, imports, data, model.
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setup_cpu_s = usage.ru_utime + usage.ru_stime
    if args.trace:
        result = traced_sample(prep, args.run_dir)
    else:
        result = workloads.run_sample(prep, args.run_dir)
    for key in ("models", "batches", "input_shape"):
        result.pop(key)
    result["ready_wall"] = ready_wall
    result["setup_cpu_s"] = setup_cpu_s
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["blas_threads"] = {var: os.environ[var]
                              for var in BLAS_THREAD_VARS}
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
