"""Integration: HeadStart channel pruning *inside* ResNet blocks.

The paper notes (Section V.A.2) that besides block-level pruning, "the
HeadStart concept could be directly applied to prune the convolutional
layers in each block just like VGG".  The ResNet ``prune_units()``
interface exposes each block's first convolution, so the generic
whole-model pruner must work unchanged.
"""

import numpy as np

from repro.core import HeadStartConfig, HeadStartPruner
from repro.pruning import profile_model
from repro.training import evaluate_dataset


def test_headstart_channel_prunes_resnet(resnet_copy, tiny_task):
    before = profile_model(resnet_copy, (3, 12, 12))
    pruner = HeadStartPruner(
        resnet_copy, tiny_task.train, tiny_task.test,
        config=HeadStartConfig(speedup=2.0, max_iterations=8,
                               min_iterations=4, patience=4,
                               eval_batch=32, seed=0, mc_samples=2),
        finetune_config=None, skip_last=False)
    result = pruner.run()
    after = profile_model(resnet_copy, (3, 12, 12))
    assert len(result.layers) == 9  # 3 groups x 3 blocks
    assert after.flops < before.flops
    assert after.params < before.params
    accuracy = evaluate_dataset(resnet_copy, tiny_task.test)
    assert accuracy > 0.0


def test_resnet_block_outputs_keep_width(resnet_copy, tiny_task):
    """Channel pruning must never touch block outputs (shortcut widths)."""
    widths_before = [block.conv2.out_channels
                     for group in resnet_copy.groups() for block in group]
    pruner = HeadStartPruner(
        resnet_copy, tiny_task.train, None,
        config=HeadStartConfig(speedup=2.0, max_iterations=6,
                               min_iterations=3, patience=3,
                               eval_batch=32, seed=1, mc_samples=2),
        finetune_config=None, skip_last=False)
    pruner.run()
    widths_after = [block.conv2.out_channels
                    for group in resnet_copy.groups() for block in group]
    assert widths_before == widths_after
