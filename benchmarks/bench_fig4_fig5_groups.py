"""Figures 4 & 5: per-group #parameters and #FLOPs of the block-pruned
ResNet versus the hand-balanced shallow ResNet.

The paper's point: HeadStart learns an *asymmetric* block pattern
(<10,10,7> from ResNet-110) whose per-group parameter/FLOP split differs
from the symmetric hand design (<9,9,9>) while total cost is comparable
— and the asymmetric inception performs better.

Paper shape: total parameters of the learnt pattern are in the same
range as the balanced design, the per-group distribution differs, and
the learnt pattern's accuracy is at least competitive.
"""

import numpy as np

from conftest import INPUT_SHAPE, run_once
from repro.analysis import ExperimentRecord, Table
from repro.core import BlockHeadStart, HeadStartConfig
from repro.models import ResNet
from repro.pruning import profile_model
from repro.training import TrainConfig, evaluate_dataset, fit

DEEP_BLOCKS = (6, 6, 6)
SHALLOW_BLOCKS = (3, 3, 3)
WIDTH = 0.5


def group_breakdown(model):
    stats = profile_model(model, INPUT_SHAPE)
    groups = {g: {"params": 0, "flops": 0} for g in (1, 2, 3)}
    for layer in stats.layers:
        for g in (1, 2, 3):
            if layer.name.startswith(f"group{g}."):
                groups[g]["params"] += layer.params
                groups[g]["flops"] += layer.flops
    return groups


def _experiment(task):
    classes = task.spec.num_classes
    deep = ResNet(DEEP_BLOCKS, num_classes=classes, width_multiplier=WIDTH,
                  rng=np.random.default_rng(1))
    fit(deep, task.train, None,
        TrainConfig(epochs=8, batch_size=32, lr=0.05, seed=0))

    agent = BlockHeadStart(
        deep, task.train,
        config=HeadStartConfig(speedup=2.0, max_iterations=40,
                               min_iterations=20, patience=10,
                               eval_batch=96, seed=11))
    result = agent.run()
    agent.apply(result)
    pruned = agent.model
    fit(pruned, task.train, None,
        TrainConfig(epochs=4, batch_size=32, lr=0.02, seed=0))

    balanced = ResNet(SHALLOW_BLOCKS, num_classes=classes,
                      width_multiplier=WIDTH, rng=np.random.default_rng(2))
    fit(balanced, task.train, None,
        TrainConfig(epochs=8, batch_size=32, lr=0.05, seed=0))

    return {
        "learnt_blocks": list(pruned.blocks_per_group),
        "balanced_blocks": list(balanced.blocks_per_group),
        "headstart_groups": group_breakdown(pruned),
        "balanced_groups": group_breakdown(balanced),
        "headstart_accuracy": evaluate_dataset(pruned, task.test),
        "balanced_accuracy": evaluate_dataset(balanced, task.test),
    }


def test_fig4_fig5_group_statistics(benchmark, cifar_task, record_path):
    results = run_once(benchmark, lambda: _experiment(cifar_task))

    table = Table(["GROUP", "HEADSTART #PARAM", "BALANCED #PARAM",
                   "HEADSTART #FLOPS", "BALANCED #FLOPS"],
                  title=f"Figures 4-5: per-group statistics — learnt "
                        f"{tuple(results['learnt_blocks'])} vs balanced "
                        f"{tuple(results['balanced_blocks'])}")
    for g in (1, 2, 3):
        table.add_row([f"Group{g}",
                       results["headstart_groups"][g]["params"],
                       results["balanced_groups"][g]["params"],
                       results["headstart_groups"][g]["flops"],
                       results["balanced_groups"][g]["flops"]])
    print("\n" + table.render())
    print(f"accuracy: headstart {100 * results['headstart_accuracy']:.2f}% "
          f"vs balanced {100 * results['balanced_accuracy']:.2f}%")

    record = ExperimentRecord(
        "figure4_5", "Per-group parameters and FLOPs after block pruning",
        parameters={"deep_blocks": DEEP_BLOCKS,
                    "shallow_blocks": SHALLOW_BLOCKS},
        results=results)

    hs_total = sum(g["params"] for g in results["headstart_groups"].values())
    bal_total = sum(g["params"] for g in results["balanced_groups"].values())
    record.check("total_params_comparable", 0.4 < hs_total / bal_total < 2.5)
    record.check("block_budget_half",
                 sum(results["learnt_blocks"]) <=
                 sum(DEEP_BLOCKS) // 2 + 2)
    record.check("accuracy_competitive_with_balanced",
                 results["headstart_accuracy"] >=
                 results["balanced_accuracy"] - 0.08)
    record.save(record_path / "figure4_5.json")
    assert record.all_checks_passed, record.shape_checks
