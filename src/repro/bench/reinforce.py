"""Microbenchmark: reward fast-path on the synthetic CIFAR-100 scenario.

Runs the same HeadStart layer-pruning job once per evaluation variant —
eager reward evaluation with memoization off and on, and the
static-graph executor (unfused, and fused+mask-batch) — and reports,
per variant:

* reward evaluations *requested* by the REINFORCE loop vs the
  *invocations* that actually hit the masked calibration evaluation
  (the expensive part the fast path exists to avoid);
* evaluations per REINFORCE iteration and the cache hit rate;
* ``max_drift_vs_dense``: the variant's worst absolute logit deviation
  from the dense masked forward, measured on float64-cast calibration
  inputs so fusion arithmetic is isolated from input-precision rounding
  (first-class, per the drift contract: 0.0 for dense/cached/unfused
  graph, ~1e-8 for fused graph —
  :func:`~repro.bench.schema.validate_bench` fails the report when the
  fused drift exceeds 1e-6 or a bit-exact variant drifts at all);
* end-to-end layer-pruning wall-clock.

The report also carries a ``determinism`` section asserting the cached
and unfused-graph runs reproduced the uncached one bit-for-bit (final
accuracy and model state) — the fast path's core contract, locked down
independently by ``tests/test_evalcache.py`` and ``tests/test_graph.py``
— and the ``reduction`` section's ``graph_wall_clock_speedup``: the
fused graph variant's speedup over the cached dense path.

Counters come from :mod:`repro.obs`: each variant runs under its own
in-memory :class:`~repro.obs.recorder.Recorder`, so the benchmark reads
the same instrumentation users see via ``--metrics-dir``.
"""

from __future__ import annotations

import copy
import json
import time
from pathlib import Path

import numpy as np

from ..data import make_cifar100_like
from ..models import build_model
from ..obs import Recorder, use_recorder
from ..training import TrainConfig, evaluate_dataset, fit
from .schema import SCHEMA_VERSION, validate_bench

__all__ = ["DEFAULT_OUT", "run_reinforce_bench", "write_report"]

DEFAULT_OUT = "BENCH_reinforce.json"


def _scenario(quick: bool, seed: int) -> dict:
    """Workload geometry: a miniature in quick mode, a fuller sweep else.

    Quick mode runs resnet20 rather than lenet: the graph executor's
    wins (prefix caching across candidate masks, no per-module Python
    dispatch) scale with depth, so a 2-conv lenet under-reports them
    while the 9-unit resnet makes reward evaluation the dominant cost —
    which is the hot path this benchmark exists to measure.
    """
    if quick:
        return {"model": "resnet20", "width": 0.25, "num_classes": 4,
                "image_size": 12, "train_per_class": 6, "test_per_class": 3,
                "train_epochs": 1, "max_iterations": 8, "mc_samples": 3,
                "eval_batch": 24, "finetune_epochs": 1, "seed": seed}
    return {"model": "lenet", "width": 0.5, "num_classes": 8,
            "image_size": 16, "train_per_class": 12, "test_per_class": 6,
            "train_epochs": 3, "max_iterations": 20, "mc_samples": 4,
            "eval_batch": 48, "finetune_epochs": 1, "seed": seed}


def _trained_model(scenario: dict, task):
    rng = np.random.default_rng(scenario["seed"])
    model = build_model(scenario["model"],
                        num_classes=scenario["num_classes"],
                        input_size=scenario["image_size"],
                        width_multiplier=scenario["width"], rng=rng)
    fit(model, task.train, None,
        TrainConfig(epochs=scenario["train_epochs"], batch_size=24, lr=0.05,
                    seed=scenario["seed"]))
    return model


def _numeric_drift(original, task, options) -> float:
    """Worst |logit| deviation of the variant's masked forward vs dense.

    Measured on float64-cast calibration images so the only rounding in
    play is the variant's own arithmetic (BN-fold, fused ReLU), not
    input-precision noise.  The reference is the dense eager
    ``channel_mask`` forward with a fixed keep-every-other mask on the
    first prunable unit — the exact comparison CI's determinism gates
    make, distilled to one number.
    """
    from ..nn import Tensor, no_grad
    from ..nn.graph import compile as graph_compile
    from ..pruning.surgery import channel_mask

    if not options.graph:
        return 0.0     # dense paths ARE the reference, by construction
    original.eval()    # BN running stats: what every eval path uses
    unit = original.prune_units()[0]
    mask = np.ones(unit.num_maps, dtype=bool)
    mask[1::2] = False
    images = task.train.images.astype(np.float64)
    with channel_mask(unit, mask), no_grad():
        reference = original(Tensor(images)).data
    executor = graph_compile(original, Tensor(images[:1]),
                             fuse=options.fused,
                             mask_batch=options.mask_batch)
    executor.set_mask_unit(unit.conv, unit.bn)
    logits = executor.masked_logits(images, [mask])[0]
    return float(np.max(np.abs(logits - reference)))


def _run_variant(scenario: dict, task, original, *,
                 options) -> tuple[dict, dict]:
    """One pruning run; returns ``(variant_report, final_state_dict)``."""
    from ..core import FinetuneConfig, HeadStartConfig, HeadStartPruner

    seed = scenario["seed"]
    config = HeadStartConfig(
        speedup=2.0, max_iterations=scenario["max_iterations"],
        min_iterations=max(3, scenario["max_iterations"] // 2),
        patience=3, eval_batch=scenario["eval_batch"],
        mc_samples=scenario["mc_samples"], seed=seed,
        eval=options)
    model = copy.deepcopy(original)
    pruner = HeadStartPruner(
        model, task.train, task.test, config=config,
        finetune_config=FinetuneConfig(epochs=scenario["finetune_epochs"],
                                       batch_size=24, lr=0.02, seed=seed),
        skip_last=False)

    recorder = Recorder()          # in-memory: counters only, no sink
    start = time.perf_counter()
    with use_recorder(recorder):
        pruner.run()
    wall_seconds = time.perf_counter() - start

    aggregate = recorder.aggregate()
    counters = aggregate["counters"]
    requested = int(counters.get("reinforce/reward_evals", 0))
    unique = int(counters.get("reinforce/unique_evals", 0))
    exchange = int(counters.get("reinforce/exchange_evals", 0))
    hits = int(counters.get("evalcache/hits", 0))
    misses = int(counters.get("evalcache/misses", 0))
    evictions = int(counters.get("evalcache/evictions", 0))
    # With the cache on, every driver request (batch dedup and exchange
    # proposals alike) routes through it, so misses are the underlying
    # invocations; off, the per-batch dedup still collapses duplicates,
    # leaving unique + exchange calls.
    invocations = misses if options.cache else unique + exchange
    reward_series = aggregate["series"].get("reinforce/reward", {})
    iterations = int(reward_series.get("count", 0))

    variant = {
        "wall_seconds": wall_seconds,
        "iterations": iterations,
        "requested_evals": requested,
        "unique_evals": unique,
        "reward_invocations": invocations,
        "evals_per_iteration": requested / iterations if iterations else 0.0,
        "final_accuracy": float(evaluate_dataset(model, task.test)),
        "max_drift_vs_dense": _numeric_drift(original, task, options),
        "cache": None,
    }
    if options.cache:
        total = hits + misses
        variant["cache"] = {"hits": hits, "misses": misses,
                            "evictions": evictions,
                            "hit_rate": hits / total if total else 0.0}
    return variant, model.state_dict()


def _states_equal(left: dict, right: dict) -> bool:
    return set(left) == set(right) and all(
        np.array_equal(left[key], right[key]) for key in left)


def run_reinforce_bench(quick: bool = False, seed: int = 0) -> dict:
    """Run every variant and assemble the ``BENCH_reinforce`` report."""
    scenario = _scenario(quick, seed)
    task = make_cifar100_like(num_classes=scenario["num_classes"],
                              image_size=scenario["image_size"],
                              train_per_class=scenario["train_per_class"],
                              test_per_class=scenario["test_per_class"],
                              seed=seed)
    original = _trained_model(scenario, task)

    from ..core import EvalOptions

    variants: dict[str, dict] = {}
    states: dict[str, dict] = {}
    # The dense variants pin graph=False: they are the eager reference
    # every other variant (and the committed baseline) is compared with.
    plans = [("uncached", EvalOptions(cache=False, graph=False)),
             ("cached", EvalOptions(graph=False)),
             ("graph", EvalOptions(graph=True)),
             ("graph_fused", EvalOptions(graph=True, fused=True,
                                         mask_batch=True))]
    for name, options in plans:
        variants[name], states[name] = _run_variant(
            scenario, task, original, options=options)

    uncached, cached = variants["uncached"], variants["cached"]
    fused = variants["graph_fused"]
    baseline_inv = uncached["reward_invocations"]
    reduction_pct = (100.0 * (1 - cached["reward_invocations"] / baseline_inv)
                     if baseline_inv else 0.0)
    speedup = (uncached["wall_seconds"] / cached["wall_seconds"]
               if cached["wall_seconds"] else 0.0)
    graph_speedup = (cached["wall_seconds"] / fused["wall_seconds"]
                     if fused["wall_seconds"] else 0.0)
    report = {
        "bench": "reinforce",
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "seed": seed,
        "scenario": scenario,
        "variants": variants,
        "reduction": {"reward_invocations_pct": reduction_pct,
                      "wall_clock_speedup": speedup,
                      "graph_wall_clock_speedup": graph_speedup},
        "determinism": {
            "identical_accuracy": uncached["final_accuracy"]
            == cached["final_accuracy"],
            "identical_state": _states_equal(states["uncached"],
                                             states["cached"]),
            "graph_identical_state": _states_equal(states["uncached"],
                                                   states["graph"]),
        },
    }
    problems = validate_bench(report)
    if problems:       # a bug in the harness itself — never write it out
        raise RuntimeError("benchmark produced an invalid report: "
                           + "; ".join(problems))
    return report


def write_report(report: dict, out: str | Path = DEFAULT_OUT) -> Path:
    """Write the report as pretty JSON; returns the path written."""
    path = Path(out)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
