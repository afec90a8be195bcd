"""Prunable-unit description shared between models and pruning code.

Structured (channel/filter) pruning must keep three things consistent
when feature maps of a convolution are removed (paper Section III.A,
Figure 2):

* the producing convolution loses *filters* (rows of its weight);
* its batch-norm loses the matching statistics and affine parameters;
* every *consumer* loses the matching input slice — the next convolution
  loses weight *channels*, a linear head loses the corresponding input
  features (one block of ``spatial`` features per channel).

A :class:`ConvUnit` records exactly these references for one prunable
convolution.  Models expose an ordered list of units via their
``prune_units()`` method; :mod:`repro.pruning.surgery` then performs the
actual tensor surgery without knowing anything else about the topology.
Each consumer sees the unit's feature maps alone: its input channels
(or, for a linear layer, its blocks of ``spatial`` features) are
exactly the unit's maps, in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nn.modules import BatchNorm2d, Conv2d, Linear

__all__ = ["Consumer", "ConvUnit"]


@dataclass
class Consumer:
    """One downstream layer that consumes the unit's feature maps.

    ``spatial`` is the number of flattened positions per channel at the
    consumer's input — 1 for a convolution, ``H*W`` for a linear layer
    fed by a flatten.
    """

    module: Conv2d | Linear
    spatial: int = 1


@dataclass
class ConvUnit:
    """A convolution whose output feature maps may be pruned together.

    Attributes
    ----------
    name:
        Human-readable layer name (e.g. ``conv3_1``), used in reports.
    conv:
        The producing convolution (filters are removed from it).
    bn:
        Optional batch norm normalising the unit's output.
    consumers:
        Downstream layers whose input slices must be removed in sync.
    """

    name: str
    conv: Conv2d
    bn: BatchNorm2d | None = None
    consumers: list[Consumer] = field(default_factory=list)

    @property
    def num_maps(self) -> int:
        """Number of currently surviving feature maps."""
        return self.conv.out_channels
