"""From-scratch controls (the paper's FROM SCRATCH table rows).

The paper's key claim is that the *inception* — surviving filters with
their inherited weights — carries knowledge that training the same
pruned architecture from random initialisation cannot recover.  These
helpers build the freshly-initialised twins of a pruned model.
"""

from __future__ import annotations

import numpy as np

from ..models.resnet import ResNet
from ..models.vgg import VGG

__all__ = ["vgg_like_pruned", "resnet_like_pruned"]


def vgg_like_pruned(original: VGG, masks: dict[str, np.ndarray],
                    rng: np.random.Generator | None = None) -> VGG:
    """A freshly-initialised VGG with the pruned model's layer widths.

    ``masks`` maps conv names (``conv3_1`` ...) to keep masks, as
    returned by :class:`~repro.core.pruner.PruneResult`.  Layers
    without a mask keep their original width.
    """
    plan: list[list[int]] = []
    for stage_index, stage in enumerate(original.plan, start=1):
        stage_widths = []
        for conv_index, width in enumerate(stage, start=1):
            name = f"conv{stage_index}_{conv_index}"
            if name in masks:
                width = int(np.count_nonzero(masks[name]))
            stage_widths.append(max(1, width))
        plan.append(stage_widths)
    return VGG(plan, num_classes=original.num_classes,
               input_size=original.input_size,
               rng=rng or np.random.default_rng())


def resnet_like_pruned(pruned: ResNet,
                       rng: np.random.Generator | None = None) -> ResNet:
    """A freshly-initialised ResNet with the pruned model's block layout."""
    return ResNet(pruned.blocks_per_group, num_classes=pruned.num_classes,
                  in_channels=pruned.conv1.in_channels,
                  base_width=pruned.widths[0],
                  rng=rng or np.random.default_rng())
