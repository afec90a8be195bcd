"""Chaos harness: kill a journaled prune mid-run, resume, diff vs baseline.

Runnable check used by CI's chaos matrix and by hand::

    PYTHONPATH=src python -m repro.runtime.chaos --engine headstart --seed 3

For the chosen engine kind it builds a tiny deterministic task+model,
then performs three runs:

1. *baseline* — uninterrupted journaled run;
2. *killed* — identical run with a :class:`~repro.runtime.faults.FaultPlan`
   crash planted at ``runtime.layer_complete``, at a **seed-derived**
   step (``1 + seed % num_steps``, printed so a failure is replayable);
3. *resumed* — the killed run continued with ``resume=True``.

Each phase records its metrics stream: the baseline into
``<root>/baseline``, the killed and resumed phases both into
``<root>/chaos``, so the resumed phase appends to the killed phase's
stream exactly as a resumed ``repro prune --metrics-dir`` does.

The resumed run must reproduce the baseline bit-for-bit: identical
journal payloads per step, identical final accuracy, an identical
model ``state_dict`` array-for-array, and a metrics stream that
``repro metrics diff --no-wall`` finds identical to the baseline's.
Exit status 0 on match, 1 with a diff report on divergence — which is
exactly the resume contract the stepped-engine protocol promises for
every engine kind.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from ..data import make_cifar100_like
from ..models import build_model
from ..obs import Recorder, use_recorder
from ..obs.diff import diff_metrics_dirs
from .faults import FaultPlan, SimulatedCrash, inject
from .harness import ResumableRunner
from .journal import RunJournal

__all__ = ["ENGINE_KINDS", "run_chaos", "main"]

#: Engine kinds the matrix covers: one per stepped-engine implementation,
#: plus a fast-path column (``headstart-cached``) that reruns the HeadStart
#: scenario on the default ``EvalOptions()`` (reward eval-cache and graph
#: eval on) — the kill/resume contract must hold identically on the fast
#: path — and a graph-executor column (``headstart-graph``) whose
#: baseline runs the *dense eager* path while the killed and resumed
#: phases run under ``--eval-mode graph`` (unfused): a crash under graph
#: eval must resume to the dense baseline's exact journal, accuracy and
#: weights, which is the executor's bit-exactness contract under fire.
ENGINE_KINDS = ("headstart", "headstart-cached", "headstart-graph",
                "block", "li17")


def _make_task(seed: int):
    return make_cifar100_like(num_classes=4, image_size=12,
                              train_per_class=6, test_per_class=3,
                              seed=seed)


def _make_runner(kind: str, task, seed: int,
                 graph: bool = False) -> ResumableRunner:
    """A fresh model + engine + runner; called once per run phase.

    Every phase rebuilds from scratch so the killed and resumed runs
    share nothing in memory with the baseline — only the journal.
    ``graph`` switches the headstart-graph column's chaos phases onto
    the static-graph executor while its baseline stays dense.
    """
    from ..core import (BlockHeadStart, EvalOptions, FinetuneConfig,
                        HeadStartConfig)
    from ..pruning import build_engine

    model_name = "resnet20" if kind == "block" else "lenet"
    model = build_model(model_name, num_classes=4, input_size=12,
                        width_multiplier=0.25,
                        rng=np.random.default_rng(seed))
    # The plain column (and every non-HeadStart kind) pins the eager slow
    # path with no memoization so the matrix keeps covering it; the
    # -cached column runs the library defaults (cache + graph eval); the
    # -graph column keeps the cache on and flips only the executor
    # between phases, from its eager baseline to graph (graph eval is a
    # PERF_FIELD, so the digest matches).
    graphed = kind == "headstart-graph"
    options = EvalOptions() if kind == "headstart-cached" else EvalOptions(
        cache=graphed, graph=graphed and graph)
    config = HeadStartConfig(
        speedup=2.0, max_iterations=6, min_iterations=3,
        patience=3, eval_batch=16, seed=seed, mc_samples=2, eval=options)
    if kind == "block":
        # The block step does not finetune in place, so the
        # accuracy-collapse guard has no meaningful baseline; disable it.
        engine = BlockHeadStart(model, task.train, config=config)
        return ResumableRunner(engine=engine, collapse_ratio=0.0)
    # HeadStart and metric layer steps share one tail: surgery, then a
    # one-epoch fine-tune and the test-split accuracy.
    tune = FinetuneConfig(epochs=1, batch_size=24, lr=0.02, seed=seed)
    name = "headstart" if kind.startswith("headstart") else kind
    engine = build_engine(name, model, task.train, config=config,
                          test_set=task.test, finetune_config=tune,
                          skip_last=False)
    return ResumableRunner(engine=engine)


def _payloads(run_dir) -> dict[str, object]:
    """``name -> payload`` of every completed step in a run's journal."""
    return {record["name"]: record["payload"]
            for record in RunJournal(run_dir / "journal.jsonl").read()
            if record["record"] == "layer_complete"}


def _state_diff(baseline: dict, resumed: dict) -> list[str]:
    problems = []
    for key in sorted(set(baseline) | set(resumed)):
        if key not in baseline or key not in resumed:
            problems.append(f"state key {key!r} only on one side")
        elif not np.array_equal(baseline[key], resumed[key]):
            problems.append(f"state array {key!r} differs")
    return problems


@contextlib.contextmanager
def _recorded(run_dir):
    """Stream one phase's metrics events to ``run_dir/metrics.jsonl``."""
    with Recorder(run_dir) as recorder, use_recorder(recorder):
        yield


def run_chaos(kind: str, seed: int, root) -> list[str]:
    """Run the kill/resume scenario for one engine kind.

    Returns the list of divergences (empty means the resumed run matched
    the baseline exactly).
    """
    from pathlib import Path

    root = Path(root)
    task = _make_task(seed)

    baseline = _make_runner(kind, task, seed)
    with _recorded(root / "baseline"):
        baseline_report = baseline.run(root / "baseline")
    baseline_steps = _payloads(root / "baseline")

    num_steps = len(baseline.engine.steps())
    crash_step = 1 + seed % num_steps
    print(f"[chaos] engine={kind} steps={num_steps} "
          f"crash after step #{crash_step} (seed {seed})")

    killed_plan = FaultPlan().crash_at("runtime.layer_complete", crash_step)

    # headstart-graph: the baseline above ran dense; the killed and
    # resumed phases run under the (bit-exact, unfused) graph executor.
    use_graph = kind == "headstart-graph"
    killed = _make_runner(kind, task, seed, graph=use_graph)
    with inject(killed_plan), _recorded(root / "chaos"):
        try:
            killed.run(root / "chaos")
        except SimulatedCrash:
            pass
        else:
            return [f"crash at step {crash_step} did not fire"]

    resumed = _make_runner(kind, task, seed, graph=use_graph)
    with _recorded(root / "chaos"):
        resumed_report = resumed.run(root / "chaos", resume=True)

    problems = []
    if resumed_report.resumed_layers != crash_step:
        problems.append(f"expected {crash_step} replayed step(s), got "
                        f"{resumed_report.resumed_layers}")
    resumed_steps = _payloads(root / "chaos")
    if baseline_steps != resumed_steps:
        names = [name for name in baseline_steps
                 if baseline_steps.get(name) != resumed_steps.get(name)]
        problems.append(
            f"journal payloads differ: {names or sorted(resumed_steps)}")
    base_acc = baseline_report.result.final_accuracy
    res_acc = resumed_report.result.final_accuracy
    if base_acc != res_acc:
        problems.append(f"final accuracy differs: {base_acc} vs {res_acc}")
    problems.extend(_state_diff(baseline.engine.model.state_dict(),
                                resumed.engine.model.state_dict()))
    metrics = diff_metrics_dirs(root / "baseline", root / "chaos",
                                check_wall=False)
    problems.extend(f"metrics diff: {item}"
                    for item in metrics.differences + metrics.regressions)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.chaos",
        description="kill a journaled prune mid-run, resume, diff vs an "
                    "uninterrupted baseline")
    parser.add_argument("--engine", choices=ENGINE_KINDS, default="headstart")
    parser.add_argument("--seed", type=int, default=0,
                        help="derives both the run seed and the crash step")
    parser.add_argument("--root", default=None,
                        help="working directory (default: a fresh tempdir)")
    args = parser.parse_args(argv)

    root = args.root
    if root is None:
        import tempfile
        root = tempfile.mkdtemp(prefix=f"chaos-{args.engine}-")
    problems = run_chaos(args.engine, args.seed, root)
    if problems:
        for problem in problems:
            print(f"[chaos] DIVERGENCE: {problem}", file=sys.stderr)
        return 1
    print(f"[chaos] {args.engine}: resumed run matches baseline "
          f"bit-for-bit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
