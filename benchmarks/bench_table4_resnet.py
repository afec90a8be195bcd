"""Table 4: block-level HeadStart pruning of a deep ResNet (CIFAR).

A deep ResNet (the ResNet-110 stand-in) is compressed at sp=2 over
residual blocks; the comparison includes the hand-balanced shallow
ResNet of matching cost (the ResNet-56 analogue) and the learnt layout
trained from scratch.

Paper shape: the HeadStart-pruned deep network lands close to the
original deep network's accuracy at roughly half the FLOPs, beats the
hand-balanced shallow network trained for the same budget, and beats the
same (usually asymmetric) layout trained from scratch.
"""

import numpy as np

from conftest import INPUT_SHAPE, run_once
from repro.analysis import ExperimentRecord, Table
from repro.core import BlockHeadStart, HeadStartConfig, resnet_like_pruned
from repro.models import ResNet
from repro.pruning import profile_model
from repro.training import TrainConfig, evaluate_dataset, fit

DEEP_BLOCKS = (6, 6, 6)
SHALLOW_BLOCKS = (3, 3, 3)
WIDTH = 0.5
TRAIN = dict(epochs=8, batch_size=32, lr=0.05)
FINETUNE = dict(epochs=6, batch_size=32, lr=0.02)


def _train(model, task, **overrides):
    params = dict(TRAIN)
    params.update(overrides)
    fit(model, task.train, None, TrainConfig(seed=0, **params))
    return model


def _experiment(task):
    classes = task.spec.num_classes
    deep = _train(ResNet(DEEP_BLOCKS, num_classes=classes,
                         width_multiplier=WIDTH,
                         rng=np.random.default_rng(1)), task)
    shallow = _train(ResNet(SHALLOW_BLOCKS, num_classes=classes,
                            width_multiplier=WIDTH,
                            rng=np.random.default_rng(2)), task)

    agent = BlockHeadStart(
        deep, task.train,
        config=HeadStartConfig(speedup=2.0, max_iterations=40,
                               min_iterations=20, patience=10,
                               eval_batch=96, seed=11))
    block_result = agent.run()
    agent.apply(block_result)
    pruned = agent.model
    fit(pruned, task.train, None, TrainConfig(seed=0, **FINETUNE))

    scratch = resnet_like_pruned(pruned, rng=np.random.default_rng(5))
    fit(scratch, task.train, None, TrainConfig(seed=0, **FINETUNE))

    deep_stats = profile_model(deep, INPUT_SHAPE)

    def row(model, accuracy):
        stats = profile_model(model, INPUT_SHAPE)
        return {"blocks": list(model.blocks_per_group),
                "params_m": stats.params_m,
                "flops_m": stats.flops / 1e6,
                "accuracy": accuracy,
                "ratio": stats.params / deep_stats.params}

    return {
        "DEEP ORIGINAL": row(deep, evaluate_dataset(deep, task.test)),
        "SHALLOW ORIGINAL": row(shallow,
                                evaluate_dataset(shallow, task.test)),
        "HEADSTART": row(pruned, evaluate_dataset(pruned, task.test)),
        "HEADSTART F. SCRATCH": row(scratch,
                                    evaluate_dataset(scratch, task.test)),
    }


def test_table4_resnet_block_pruning(benchmark, cifar_task, record_path):
    rows = run_once(benchmark, lambda: _experiment(cifar_task))

    table = Table(["MODEL", "BLOCKS", "#PARAM. (M)", "#FLOPS (M)",
                   "ACC. (%)", "C.R. (%)"],
                  title="Table 4: block-level pruning of the deep ResNet "
                        "(CIFAR stand-in, sp=2 over blocks)")
    for name, row in rows.items():
        table.add_row([name, str(tuple(row["blocks"])), row["params_m"],
                       row["flops_m"], 100 * row["accuracy"],
                       100 * row["ratio"]])
    print("\n" + table.render())

    record = ExperimentRecord(
        "table4", "ResNet block-level pruning",
        parameters={"deep_blocks": DEEP_BLOCKS,
                    "shallow_blocks": SHALLOW_BLOCKS, "speedup": 2.0},
        results=rows)
    record.check("flops_roughly_halved",
                 0.35 < rows["HEADSTART"]["flops_m"]
                 / rows["DEEP ORIGINAL"]["flops_m"] < 0.75)
    record.check("headstart_close_to_deep_original",
                 rows["HEADSTART"]["accuracy"] >=
                 rows["DEEP ORIGINAL"]["accuracy"] - 0.10)
    record.check("headstart_at_least_matches_shallow",
                 rows["HEADSTART"]["accuracy"] >=
                 rows["SHALLOW ORIGINAL"]["accuracy"] - 0.05)
    record.check("headstart_beats_or_matches_scratch",
                 rows["HEADSTART"]["accuracy"] >=
                 rows["HEADSTART F. SCRATCH"]["accuracy"] - 0.02)
    record.save(record_path / "table4.json")
    assert record.all_checks_passed, record.shape_checks
