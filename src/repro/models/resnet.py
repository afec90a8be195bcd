"""CIFAR-style ResNets (He et al.) with block-level pruning support.

ResNet-(6n+2) has a stem convolution followed by three groups of ``n``
basic blocks at widths 16/32/64 (times ``width_multiplier``), with
stride-2 transitions between groups, global average pooling and a linear
head.  ResNet-56 is n=9, ResNet-110 is n=18 — the two models in the
paper's Table 4.

HeadStart prunes ResNet at *block* granularity (paper Section V.A.2):
a residual block whose input and output shapes match can be dropped
entirely because the shortcut carries the signal.  :meth:`ResNet.with_blocks`
rebuilds a model keeping only the selected blocks, copying surviving
weights — learning the keep pattern is the job of
:class:`repro.core.blocks.BlockHeadStart`.

Per-layer channel pruning inside blocks is also supported: the first
convolution of every block is a prunable unit whose sole consumer is the
block's second convolution (the block output itself must keep its width
to match the shortcut).
"""

from __future__ import annotations

import numpy as np

from ..nn.modules import (BatchNorm2d, Conv2d, GlobalAvgPool2d, Identity,
                          Linear, Module, ReLU, Sequential)
from ..pruning.units import Consumer, ConvUnit

__all__ = ["BasicBlock", "ResNet", "resnet20", "resnet56", "resnet110"]


class BasicBlock(Module):
    """Two 3x3 convolutions with a residual shortcut.

    When the block changes width or stride, the shortcut is a projection
    (1x1 convolution + batch norm); otherwise it is the identity.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride,
                            padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.relu = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, padding=1,
                            bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride,
                       bias=False, rng=rng),
                BatchNorm2d(out_channels))
        else:
            self.shortcut = Identity()

    @property
    def is_transition(self) -> bool:
        """True when the block changes shape and therefore cannot be dropped."""
        return not isinstance(self.shortcut, Identity)

    def forward(self, x):
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return (out + self.shortcut(x)).relu()


class ResNet(Module):
    """CIFAR-style residual network with three groups of basic blocks.

    Parameters
    ----------
    blocks_per_group:
        Number of basic blocks in each of the three groups, e.g.
        ``(18, 18, 18)`` for ResNet-110 or an uneven pattern such as the
        ``(10, 10, 7)`` HeadStart learns in the paper.
    base_width:
        Width of the first group (16 in the original design).
    """

    GROUP_WIDTH_FACTORS = (1, 2, 4)

    def __init__(self, blocks_per_group: tuple[int, int, int] = (9, 9, 9),
                 num_classes: int = 10, in_channels: int = 3,
                 base_width: int = 16, width_multiplier: float = 1.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        if len(blocks_per_group) != 3 or any(n < 1 for n in blocks_per_group):
            raise ValueError("blocks_per_group must be three positive counts")
        self.blocks_per_group = tuple(int(n) for n in blocks_per_group)
        self.num_classes = num_classes
        width = max(1, int(round(base_width * width_multiplier)))
        self.widths = tuple(width * f for f in self.GROUP_WIDTH_FACTORS)

        self.conv1 = Conv2d(in_channels, self.widths[0], 3, padding=1,
                            bias=False, rng=rng)
        self.bn1 = BatchNorm2d(self.widths[0])
        self.relu = ReLU()

        groups: list[Sequential] = []
        channels = self.widths[0]
        for group_index, (count, group_width) in enumerate(
                zip(self.blocks_per_group, self.widths)):
            blocks: list[BasicBlock] = []
            for block_index in range(count):
                stride = 2 if (group_index > 0 and block_index == 0) else 1
                blocks.append(BasicBlock(channels, group_width, stride, rng=rng))
                channels = group_width
            groups.append(Sequential(*blocks))
        self.group1, self.group2, self.group3 = groups
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(channels, num_classes, rng=rng)

    @property
    def depth(self) -> int:
        """Nominal depth 2 + 2 * total blocks (the 6n+2 convention)."""
        return 2 + 2 * sum(self.blocks_per_group)

    def groups(self) -> tuple[Sequential, Sequential, Sequential]:
        return self.group1, self.group2, self.group3

    def stem(self, x):
        """The first convolution, its BatchNorm and ReLU: group 1's input."""
        return self.relu(self.bn1(self.conv1(x)))

    def head(self, x):
        """Global average pooling and the classifier: group 3's output to
        logits."""
        return self.fc(self.pool(x))

    def forward(self, x):
        return self.head(self.group3(self.group2(self.group1(self.stem(x)))))

    # -- block-level pruning ----------------------------------------------
    def droppable_blocks(self) -> list[tuple[int, int]]:
        """(group, block) indices of blocks that may be dropped.

        Transition blocks (shape-changing shortcuts) must survive so the
        tensor shapes through the network stay valid.
        """
        droppable = []
        for g, group in enumerate(self.groups()):
            for b, block in enumerate(group):
                if not block.is_transition:
                    droppable.append((g, b))
        return droppable

    def with_blocks(self, keep: list[list[bool]],
                    rng: np.random.Generator | None = None) -> "ResNet":
        """Rebuild the network keeping only the selected blocks.

        ``keep[g][b]`` says whether block ``b`` of group ``g`` survives.
        Transition blocks are always kept regardless of the mask.  The
        stem, head and all surviving blocks keep their trained weights.
        """
        groups = self.groups()
        if len(keep) != 3 or any(len(k) != len(g) for k, g in zip(keep, groups)):
            raise ValueError("keep mask does not match the block layout")
        counts = []
        kept_blocks: list[list[BasicBlock]] = []
        for g, group in enumerate(groups):
            survivors = [block for b, block in enumerate(group)
                         if keep[g][b] or block.is_transition]
            if not survivors:
                # A group cannot be empty; keep its first block.
                survivors = [group[0]]
            counts.append(len(survivors))
            kept_blocks.append(survivors)

        pruned = ResNet(tuple(counts), num_classes=self.num_classes,
                        in_channels=self.conv1.in_channels,
                        base_width=self.widths[0], width_multiplier=1.0,
                        rng=rng or np.random.default_rng())
        # Copy stem and head.
        _copy_module_state(self.conv1, pruned.conv1)
        _copy_module_state(self.bn1, pruned.bn1)
        _copy_module_state(self.fc, pruned.fc)
        for new_group, survivors in zip(pruned.groups(), kept_blocks):
            for new_block, old_block in zip(new_group, survivors):
                new_block.load_state_dict(old_block.state_dict())
        return pruned

    # -- channel-level pruning ----------------------------------------------
    def prune_units(self) -> list[ConvUnit]:
        """Prunable units: the first conv of every basic block.

        Block outputs must match the shortcut width, so only the
        intra-block bottleneck (conv1 -> conv2) is prunable — the
        standard safe scheme for residual channel pruning.
        """
        units = []
        for g, group in enumerate(self.groups(), start=1):
            for b, block in enumerate(group, start=1):
                units.append(ConvUnit(
                    name=f"group{g}.block{b}.conv1",
                    conv=block.conv1, bn=block.bn1,
                    consumers=[Consumer(block.conv2)]))
        return units


def _copy_module_state(source: Module, target: Module) -> None:
    target.load_state_dict(source.state_dict())


def resnet20(num_classes: int = 10, width_multiplier: float = 1.0,
             rng: np.random.Generator | None = None) -> ResNet:
    """ResNet-20 (n=3) — the miniature family member used in tests."""
    return ResNet((3, 3, 3), num_classes=num_classes,
                  width_multiplier=width_multiplier, rng=rng)


def resnet56(num_classes: int = 10, width_multiplier: float = 1.0,
             rng: np.random.Generator | None = None) -> ResNet:
    """ResNet-56 (n=9), the comparison model in the paper's Table 4."""
    return ResNet((9, 9, 9), num_classes=num_classes,
                  width_multiplier=width_multiplier, rng=rng)


def resnet110(num_classes: int = 10, width_multiplier: float = 1.0,
              rng: np.random.Generator | None = None) -> ResNet:
    """ResNet-110 (n=18), the model HeadStart prunes in the paper's Table 4."""
    return ResNet((18, 18, 18), num_classes=num_classes,
                  width_multiplier=width_multiplier, rng=rng)
