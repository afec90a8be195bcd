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

The resumed run must reproduce the baseline bit-for-bit: identical
journal payloads per step, identical final accuracy, and an identical
model ``state_dict`` array-for-array.  Exit status 0 on match, 1 with a
diff report on divergence — which is exactly the resume contract the
stepped-engine protocol promises for every engine kind.
"""

from __future__ import annotations

import argparse
import signal
import sys

import numpy as np

from ..data import make_cifar100_like
from ..models import build_model
from .faults import FaultPlan, SimulatedCrash, inject
from .harness import ResumableRunner
from .journal import RunJournal

__all__ = ["ENGINE_KINDS", "SERVE_SCENARIOS", "run_chaos",
           "run_serve_chaos", "main"]

#: Engine kinds the matrix covers: one per stepped-engine implementation,
#: plus a fast-path column (``headstart-cached``) that reruns the HeadStart
#: scenario on the default ``EvalOptions()`` (reward eval-cache and graph
#: eval on) — the kill/resume contract must hold identically on the fast
#: path — a worker-kill column (``headstart-pool``) that runs the scenario
#: with a 2-process evaluation pool whose workers are SIGKILLed on their
#: first task in the killed *and* resumed phases: the pool must degrade
#: to serial (journaled), and the degraded resume must still match the
#: healthy parallel baseline bit-for-bit — and a graph-executor column
#: (``headstart-graph``) whose baseline runs the *dense eager* path while
#: the killed and resumed phases run under ``--eval-mode graph``
#: (unfused): a crash under graph eval must resume to the dense
#: baseline's exact journal, accuracy and weights, which is the
#: executor's bit-exactness contract under fire.
#: The ``headstart-googlenet`` column reruns the plain HeadStart
#: scenario on a multi-branch (Inception) model whose concat-coupled
#: units exercise the shared ConcatLayout bookkeeping through
#: kill/resume.
ENGINE_KINDS = ("headstart", "headstart-cached", "headstart-pool",
                "headstart-graph", "headstart-googlenet", "block", "amc",
                "li17")


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
    from ..core import (AMCConfig, AMCLitePruner, BlockHeadStart,
                        EvalOptions, FinetuneConfig, HeadStartConfig,
                        HeadStartPruner)
    from ..pruning import build_engine

    model_name = {"block": "resnet20",
                  "headstart-googlenet": "googlenet"}.get(kind, "lenet")
    model = build_model(model_name, num_classes=4, input_size=12,
                        width_multiplier=0.25,
                        rng=np.random.default_rng(seed))
    # The plain column (and every non-HeadStart kind) pins the eager slow
    # path with no memoization so the matrix keeps covering it; the
    # -cached column runs the library defaults (cache + graph eval); the
    # -pool column shards eager reward evaluations across worker
    # processes; the -graph column keeps the cache on and flips only the
    # executor between phases, from its eager baseline to graph (graph
    # eval is a PERF_FIELD, so the digest matches).
    pooled = kind == "headstart-pool"
    graphed = kind == "headstart-graph"
    options = EvalOptions() if kind == "headstart-cached" else EvalOptions(
        cache=pooled or graphed, graph=graphed and graph,
        workers=2 if pooled else 0)
    config = HeadStartConfig(
        speedup=2.0, max_iterations=6, min_iterations=3,
        patience=3, eval_batch=16, seed=seed, mc_samples=2, eval=options)
    if kind in ("headstart", "headstart-cached", "headstart-pool",
                "headstart-graph", "headstart-googlenet"):
        engine = HeadStartPruner(
            model, task.train, task.test, config=config,
            finetune_config=FinetuneConfig(epochs=1, batch_size=24, lr=0.02,
                                           seed=seed),
            skip_last=False)
        return ResumableRunner(engine=engine)
    if kind == "block":
        engine = BlockHeadStart(model, task.train.images, task.train.labels,
                                config)
    elif kind == "amc":
        engine = AMCLitePruner(model, task.train.images, task.train.labels,
                               AMCConfig(speedup=2.0, episodes=8,
                                         eval_batch=16, seed=seed),
                               skip_last=False)
    else:
        engine = build_engine(kind, model,
                              (task.train.images, task.train.labels),
                              speedup=2.0, eval_batch=16, seed=seed,
                              skip_last=False)
    # Block/AMC/metric steps do not finetune in place, so the
    # accuracy-collapse guard has no meaningful baseline; disable it.
    return ResumableRunner(engine=engine, collapse_ratio=0.0)


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


def run_chaos(kind: str, seed: int, root) -> list[str]:
    """Run the kill/resume scenario for one engine kind.

    Returns the list of divergences (empty means the resumed run matched
    the baseline exactly).
    """
    from pathlib import Path

    root = Path(root)
    task = _make_task(seed)

    baseline = _make_runner(kind, task, seed)
    baseline_report = baseline.run(root / "baseline")
    baseline_steps = _payloads(root / "baseline")

    num_steps = len(baseline.engine.steps())
    crash_step = 1 + seed % num_steps
    print(f"[chaos] engine={kind} steps={num_steps} "
          f"crash after step #{crash_step} (seed {seed})")

    # The pool column additionally SIGKILLs every fresh worker on its
    # first pooled task — in the killed AND resumed phases — so both
    # phases run under pool exhaustion while the baseline ran healthy.
    killed_plan = FaultPlan().crash_at("runtime.layer_complete", crash_step)
    resumed_plan = FaultPlan()
    if kind == "headstart-pool":
        killed_plan.crash_at("pool.task", 1)
        resumed_plan.crash_at("pool.task", 1)

    # headstart-graph: the baseline above ran dense; the killed and
    # resumed phases run under the (bit-exact, unfused) graph executor.
    use_graph = kind == "headstart-graph"
    killed = _make_runner(kind, task, seed, graph=use_graph)
    with inject(killed_plan):
        try:
            killed.run(root / "chaos")
        except SimulatedCrash:
            pass
        else:
            return [f"crash at step {crash_step} did not fire"]

    resumed = _make_runner(kind, task, seed, graph=use_graph)
    with inject(resumed_plan):
        resumed_report = resumed.run(root / "chaos", resume=True)

    problems = []
    if kind == "headstart-pool":
        degraded = [record for record
                    in RunJournal(root / "chaos" / "journal.jsonl").read()
                    if record.get("record") == "degraded"
                    and record.get("engine") == "pool-serial"]
        if not degraded:
            problems.append("worker kills journaled no pool-serial "
                            "degraded records")
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
    return problems


#: Fleet scenarios covering the multi-daemon serve scheduler:
#: ``takeover`` SIGKILLs a daemon mid-lease and requires a second
#: daemon's takeover to finish the job bit-for-bit identical to an
#: uninterrupted reference (journal payloads, result, *and* the
#: ``repro metrics diff`` deterministic view of its metrics stream);
#: ``race`` points two real daemon processes at one queue and requires
#: every job to run exactly once; ``poison`` submits an always-failing
#: job and requires it quarantined after ``max_attempts`` while the
#: rest of the queue drains to ``done/``.
SERVE_SCENARIOS = ("takeover", "race", "poison")


def _run_daemon_to_sigkill(root, daemon_id: str, crash_step: int) -> None:
    """Forked child body: run a daemon that dies by real SIGKILL.

    The planted fault fires at the deterministic step boundary
    ``crash_step`` (right after that step's journal append); catching
    the :class:`SimulatedCrash` and SIGKILLing ourselves turns it into
    a genuine uncatchable death — no cleanup, lease left on disk, health
    file frozen — at a reproducible point, which is what lets the
    takeover gate demand a bit-for-bit metrics match afterwards.
    """
    import os
    import signal

    from .serve import ServeDaemon

    with inject(FaultPlan().crash_at("runtime.layer_complete", crash_step)):
        try:
            ServeDaemon(root, daemon_id=daemon_id,
                        health_seconds=0.1).run(once=True)
        except SimulatedCrash:
            os.kill(os.getpid(), signal.SIGKILL)
    os._exit(3)  # the planted crash never fired: scenario bug


def _run_daemon_once(root, daemon_id: str) -> None:
    """Forked child body: drain the queue once, exit 0/1."""
    import os

    from .serve import ServeDaemon

    try:
        ServeDaemon(root, daemon_id=daemon_id, poll_seconds=0.05,
                    health_seconds=0.1).run(once=True)
    except Exception:  # noqa: BLE001 - exit code is the channel here
        os._exit(1)
    os._exit(0)


def _serve_journal_kinds(queue) -> list[str]:
    return [record.get("record") for record in queue.journal.read()]


def run_serve_chaos(scenario: str, seed: int, root) -> list[str]:
    """Run one fleet scenario; returns divergences (empty = pass).

    Daemons run as real forked processes (takeover's victim dies by
    actual SIGKILL), so these scenarios exercise the same lease and
    recovery machinery production multi-daemon fleets rely on.
    """
    import multiprocessing
    from pathlib import Path

    from ..obs.diff import diff_metrics_dirs
    from .serve import JobQueue, ServeDaemon, build_job_runner

    context = multiprocessing.get_context("fork")
    root = Path(root)
    spec = {"engine": "li17", "seed": seed}
    problems: list[str] = []

    if scenario == "takeover":
        reference = JobQueue(root / "reference", daemon_id="ref")
        reference.submit(dict(spec))
        ServeDaemon(root / "reference", daemon_id="ref").run(once=True)
        ref_complete = [r for r in reference.journal.read()
                        if r.get("record") == "job_complete"]
        if not ref_complete:
            return ["reference run did not complete"]

        num_steps = len(build_job_runner(dict(spec)).engine.steps())
        crash_step = 1 + seed % num_steps
        print(f"[chaos] serve takeover: steps={num_steps} victim dies "
              f"after step #{crash_step} (seed {seed})")
        fleet = JobQueue(root / "fleet", daemon_id="observer")
        job_id = fleet.submit(dict(spec))
        victim = context.Process(
            target=_run_daemon_to_sigkill,
            args=(root / "fleet", "victim", crash_step))
        victim.start()
        victim.join(timeout=300)
        if victim.is_alive():
            victim.kill()
            victim.join()
            return ["victim daemon hung instead of dying"]
        if victim.exitcode != -signal.SIGKILL:
            return [f"victim exited {victim.exitcode}, expected SIGKILL "
                    f"(-9)"]
        lease = fleet.read_lease(job_id)
        if lease is None or lease.get("daemon") != "victim":
            problems.append("victim's death did not leave its lease on "
                            "disk")
        ServeDaemon(root / "fleet", daemon_id="successor").run(once=True)
        kinds = _serve_journal_kinds(fleet)
        if "job_recovered" not in kinds:
            problems.append("takeover journaled no job_recovered record")
        if kinds.count("job_claimed") != 2:
            problems.append(f"expected 2 claims (victim + successor), "
                            f"got {kinds.count('job_claimed')}")
        complete = [r for r in fleet.journal.read()
                    if r.get("record") == "job_complete"]
        if not complete:
            problems.append("successor did not complete the job")
        else:
            ref_result = ref_complete[0]["result"]
            result = complete[0]["result"]
            if result["final_accuracy"] != ref_result["final_accuracy"]:
                problems.append(
                    f"final accuracy differs: {ref_result['final_accuracy']}"
                    f" vs {result['final_accuracy']}")
            if result.get("resumed_layers", 0) != crash_step:
                problems.append(
                    f"expected {crash_step} replayed step(s), got "
                    f"{result.get('resumed_layers')}")
        ref_payloads = _payloads(reference.job_dir("job-0001"))
        fleet_payloads = _payloads(fleet.job_dir(job_id))
        if ref_payloads != fleet_payloads:
            problems.append("run journal payloads differ between the "
                            "reference and the taken-over job")
        leases = list((root / "fleet" / "active").glob("*.lease"))
        if leases:
            problems.append(f"leases left behind: "
                            f"{[p.name for p in leases]}")
        metrics = diff_metrics_dirs(reference.job_dir("job-0001"),
                                    fleet.job_dir(job_id),
                                    check_wall=False)
        problems.extend(f"metrics diff: {item}"
                        for item in metrics.differences
                        + metrics.regressions)
        problems.extend(fleet.history_problems())
        return problems

    if scenario == "race":
        queue = JobQueue(root, daemon_id="observer")
        jobs = [queue.submit({"engine": "li17", "seed": seed + offset})
                for offset in range(6)]
        daemons = [context.Process(target=_run_daemon_once,
                                   args=(root, f"racer-{index}"))
                   for index in range(2)]
        for daemon in daemons:
            daemon.start()
        for daemon in daemons:
            daemon.join(timeout=600)
        for index, daemon in enumerate(daemons):
            if daemon.is_alive():
                daemon.kill()
                daemon.join()
                problems.append(f"daemon racer-{index} hung")
            elif daemon.exitcode != 0:
                problems.append(f"daemon racer-{index} exited "
                                f"{daemon.exitcode}")
        status = queue.status()
        done = [row["job"] for row in status["done"]]
        if sorted(done) != sorted(jobs):
            problems.append(f"expected all {len(jobs)} jobs done, got "
                            f"{done}")
        history = queue._job_history()
        for job_id in jobs:
            claims = history.get(job_id, {}).get("claims", 0)
            if claims != 1:
                problems.append(f"{job_id} claimed {claims} time(s), "
                                "expected exactly once")
        kinds = _serve_journal_kinds(queue)
        for kind in ("job_recovered", "job_retry", "job_quarantined"):
            if kind in kinds:
                problems.append(f"race produced a spurious {kind} record")
        leases = list((root / "active").glob("*.lease"))
        if leases:
            problems.append(f"leases left behind: "
                            f"{[p.name for p in leases]}")
        problems.extend(queue.history_problems())
        return problems

    if scenario == "poison":
        queue = JobQueue(root, daemon_id="observer")
        poison = queue.submit({"engine": "no-such-engine"})
        goods = [queue.submit({"engine": "li17", "seed": seed + offset})
                 for offset in range(2)]
        ServeDaemon(root, daemon_id="handler",
                    breaker_seconds=0.01).run(once=True)
        status = queue.status()
        quarantined = [row["job"] for row in status["quarantined"]]
        if quarantined != [poison]:
            problems.append(f"expected {poison} quarantined, got "
                            f"{quarantined}")
        elif status["quarantined"][0]["attempts"] != 3:
            problems.append(f"poison job burned "
                            f"{status['quarantined'][0]['attempts']} "
                            "attempt(s), expected 3")
        failure_file = root / "quarantined" / f"{poison}.failure.json"
        if not failure_file.exists():
            problems.append("quarantine wrote no captured failure record")
        done = [row["job"] for row in status["done"]]
        if sorted(done) != sorted(goods):
            problems.append(f"queue did not drain around the poison job: "
                            f"done={done}")
        kinds = _serve_journal_kinds(queue)
        if kinds.count("job_retry") != 2:
            problems.append(f"expected 2 retries before quarantine, got "
                            f"{kinds.count('job_retry')}")
        if kinds.count("job_quarantined") != 1:
            problems.append("expected exactly one job_quarantined record")
        problems.extend(queue.history_problems())
        return problems

    raise ValueError(f"unknown serve scenario {scenario!r} "
                     f"(expected one of {SERVE_SCENARIOS})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.chaos",
        description="kill a journaled prune mid-run, resume, diff vs an "
                    "uninterrupted baseline; --serve runs multi-daemon "
                    "fleet scenarios instead")
    parser.add_argument("--engine", choices=ENGINE_KINDS, default="headstart")
    parser.add_argument("--serve", choices=SERVE_SCENARIOS, default=None,
                        help="run a serve-fleet scenario instead of the "
                             "engine kill/resume matrix")
    parser.add_argument("--seed", type=int, default=0,
                        help="derives both the run seed and the crash step")
    parser.add_argument("--root", default=None,
                        help="working directory (default: a fresh tempdir)")
    args = parser.parse_args(argv)

    root = args.root
    if root is None:
        import tempfile
        label = args.serve or args.engine
        root = tempfile.mkdtemp(prefix=f"chaos-{label}-")
    if args.serve:
        problems = run_serve_chaos(args.serve, args.seed, root)
        if problems:
            for problem in problems:
                print(f"[chaos] FLEET DIVERGENCE: {problem}",
                      file=sys.stderr)
            return 1
        print(f"[chaos] serve {args.serve}: fleet behaved (exactly-once, "
              f"leases clean, history well-formed)")
        return 0
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
