"""Block-level HeadStart on a ResNet — the paper's Section V.A.2.

Learns which residual blocks to keep (the paper finds <10,10,7> when
pruning ResNet-110), rebuilds the compressed network, fine-tunes it, and
compares per-group parameters/FLOPs against a hand-balanced ResNet of
similar depth (the paper's Figures 4 and 5).

    python examples/resnet_block_pruning.py
"""

import time

import numpy as np

from repro import HeadStartConfig, TrainConfig, evaluate_dataset, fit
from repro.analysis import Table
from repro.core import BlockHeadStart, resnet_like_pruned
from repro.data import make_cifar100_like
from repro.models import ResNet
from repro.pruning import profile_model


def group_stats(model, input_shape):
    """(params, flops) per residual group."""
    stats = profile_model(model, input_shape)
    totals = {1: [0, 0], 2: [0, 0], 3: [0, 0]}
    for layer in stats.layers:
        for g in (1, 2, 3):
            if layer.name.startswith(f"group{g}."):
                totals[g][0] += layer.params
                totals[g][1] += layer.flops
    return totals


def main():
    task = make_cifar100_like(num_classes=12, image_size=16,
                              train_per_class=18, test_per_class=10,
                              noise=0.8, seed=3)
    input_shape = (3, 16, 16)

    # Deep ResNet stand-in for ResNet-110 (three groups of 6 blocks).
    print("training the deep ResNet (6,6,6) ...")
    deep = ResNet((6, 6, 6), num_classes=12, width_multiplier=0.5,
                  rng=np.random.default_rng(1))
    fit(deep, task.train, None,
        TrainConfig(epochs=8, batch_size=32, lr=0.05, seed=0))
    deep_accuracy = evaluate_dataset(deep, task.test)

    # Shallower hand-balanced control, the "ResNet-56" of this setup.
    print("training the balanced shallow ResNet (3,3,3) ...")
    shallow = ResNet((3, 3, 3), num_classes=12, width_multiplier=0.5,
                     rng=np.random.default_rng(2))
    fit(shallow, task.train, None,
        TrainConfig(epochs=8, batch_size=32, lr=0.05, seed=0))
    shallow_accuracy = evaluate_dataset(shallow, task.test)

    # Block-level HeadStart at sp=2 over blocks.
    print("HeadStart block pruning (sp=2) ...")
    started = time.time()
    agent = BlockHeadStart(
        deep, (task.train.images[:96], task.train.labels[:96]),
        config=HeadStartConfig(speedup=2.0, max_iterations=40,
                               min_iterations=20, patience=10,
                               eval_batch=96, seed=11))
    result = agent.run()
    agent.apply(result)
    pruned = agent.model
    fit(pruned, task.train, None,
        TrainConfig(epochs=6, batch_size=32, lr=0.02, seed=0))
    pruned_accuracy = evaluate_dataset(pruned, task.test)
    print(f"learnt block pattern {result.blocks_per_group} "
          f"in {time.time() - started:.0f}s\n")

    # From-scratch control with the learnt layout.
    print("training the learnt layout from scratch ...")
    # Same post-pruning training budget as the fine-tune, for fairness.
    scratch = resnet_like_pruned(pruned, rng=np.random.default_rng(5))
    fit(scratch, task.train, None,
        TrainConfig(epochs=6, batch_size=32, lr=0.05, seed=0))
    scratch_accuracy = evaluate_dataset(scratch, task.test)

    # Table 4 analogue.
    table = Table(["MODEL", "#PARAM. (M)", "#FLOPS (M)", "ACC. (%)", "C.R. (%)"],
                  title="ResNet block pruning (cf. paper Table 4)")
    deep_stats = profile_model(deep, input_shape)
    shallow_stats = profile_model(shallow, input_shape)
    pruned_stats = profile_model(pruned, input_shape)
    table.add_row([f"DEEP {deep.blocks_per_group} ORIGINAL",
                   deep_stats.params_m, deep_stats.flops / 1e6,
                   100 * deep_accuracy, 100.0])
    table.add_row([f"SHALLOW {shallow.blocks_per_group} ORIGINAL",
                   shallow_stats.params_m, shallow_stats.flops / 1e6,
                   100 * shallow_accuracy,
                   100 * shallow_stats.params / deep_stats.params])
    table.add_row([f"HEADSTART {pruned.blocks_per_group}",
                   pruned_stats.params_m, pruned_stats.flops / 1e6,
                   100 * pruned_accuracy,
                   100 * pruned_stats.params / deep_stats.params])
    table.add_row([f"FROM SCRATCH {scratch.blocks_per_group}",
                   pruned_stats.params_m, pruned_stats.flops / 1e6,
                   100 * scratch_accuracy,
                   100 * pruned_stats.params / deep_stats.params])
    print(table.render(), "\n")

    # Figures 4/5 analogue: per-group parameters and FLOPs.
    per_group = Table(["GROUP", "HEADSTART #PARAM", "BALANCED #PARAM",
                       "HEADSTART #FLOPS", "BALANCED #FLOPS"],
                      title="Per-group statistics (cf. paper Figures 4-5)")
    hs_groups = group_stats(pruned, input_shape)
    bal_groups = group_stats(shallow, input_shape)
    for g in (1, 2, 3):
        per_group.add_row([f"Group{g}", hs_groups[g][0], bal_groups[g][0],
                           hs_groups[g][1], bal_groups[g][1]])
    print(per_group.render())


if __name__ == "__main__":
    main()
