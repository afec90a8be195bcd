"""Structured-pruning surgery: masking and physical filter removal.

Two mechanisms are provided for the same logical operation (removing a
set of feature maps from a :class:`~repro.pruning.units.ConvUnit`):

* :func:`channel_mask` — a context manager that temporarily *zeroes*
  the masked maps.  This is what the HeadStart agent uses thousands of
  times while exploring actions: it is cheap and exactly reversible.
* :func:`prune_unit` / :func:`prune_model` — *physical* surgery that
  rebuilds the weight tensors without the pruned maps, shrinking the
  producing convolution, its batch norm, and every consumer's input
  slice (paper Figure 2: ``ΔN×C×k×k`` filters in Conv i plus
  ``M×ΔN×k×k`` channels in Conv i+1).

Masked evaluation and physical pruning are equivalent up to floating
point: the test suite asserts their outputs agree.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..nn.modules import Conv2d, Linear, Parameter
from .units import Consumer, ConvUnit

__all__ = ["channel_mask", "prune_unit", "prune_model", "keep_indices"]


def keep_indices(keep_mask: np.ndarray) -> np.ndarray:
    """Validated indices of surviving maps from a boolean/binary mask."""
    keep_mask = np.asarray(keep_mask).astype(bool)
    if keep_mask.ndim != 1:
        raise ValueError("keep mask must be one-dimensional")
    kept = np.flatnonzero(keep_mask)
    if kept.size == 0:
        raise ValueError("cannot prune every feature map of a layer")
    return kept


@contextlib.contextmanager
def channel_mask(unit: ConvUnit, keep_mask: np.ndarray):
    """Temporarily zero the unit's masked feature maps.

    Zeroing the convolution's filters and bias (and, when present, the
    batch norm's affine parameters and running mean) makes the masked
    maps output exactly zero in eval mode, which is numerically identical
    to removing them as far as downstream layers are concerned.
    """
    keep_mask = np.asarray(keep_mask).astype(bool)
    if keep_mask.shape != (unit.conv.out_channels,):
        raise ValueError(
            f"mask length {keep_mask.size} != {unit.conv.out_channels} maps")
    drop = ~keep_mask

    saved: list[tuple[object, str, np.ndarray]] = []

    def stash(owner, attr):
        array = getattr(owner, attr)
        data = array.data if isinstance(array, Parameter) else array
        saved.append((owner, attr, data.copy()))
        return data

    conv_weight = stash(unit.conv, "weight")
    conv_weight[drop] = 0.0
    if unit.conv.bias is not None:
        stash(unit.conv, "bias")[drop] = 0.0
    if unit.bn is not None:
        stash(unit.bn, "weight")[drop] = 0.0
        stash(unit.bn, "bias")[drop] = 0.0
        stash(unit.bn, "running_mean")[drop] = 0.0
    try:
        yield
    finally:
        for owner, attr, original in saved:
            array = getattr(owner, attr)
            data = array.data if isinstance(array, Parameter) else array
            data[...] = original


def _shrink_consumer(consumer: Consumer, kept: np.ndarray) -> None:
    """Remove the unit's dropped channels from one consumer's input."""
    module = consumer.module
    if isinstance(module, Conv2d):
        module.weight = Parameter(module.weight.data[:, kept])
        module.in_channels = kept.size
    elif isinstance(module, Linear):
        spatial = consumer.spatial
        columns = (kept[:, None] * spatial
                   + np.arange(spatial)[None]).reshape(-1)
        module.weight = Parameter(module.weight.data[:, columns])
        module.in_features = columns.size
    else:
        raise TypeError(f"unsupported consumer type {type(module).__name__}")


def prune_unit(unit: ConvUnit, keep_mask: np.ndarray) -> int:
    """Physically remove the unit's masked feature maps.

    Returns the number of maps removed.  The unit's ``conv``/``bn`` and
    all consumers are updated in place, so the owning model keeps
    working with the smaller tensors immediately.
    """
    kept = keep_indices(keep_mask)
    conv = unit.conv
    if kept.size == conv.out_channels:
        return 0
    removed = conv.out_channels - kept.size

    for consumer in unit.consumers:
        _shrink_consumer(consumer, kept)

    conv.weight = Parameter(conv.weight.data[kept])
    if conv.bias is not None:
        conv.bias = Parameter(conv.bias.data[kept])
    conv.out_channels = kept.size

    if unit.bn is not None:
        bn = unit.bn
        bn.weight = Parameter(bn.weight.data[kept])
        bn.bias = Parameter(bn.bias.data[kept])
        bn.register_buffer("running_mean", bn.running_mean[kept].copy())
        bn.register_buffer("running_var", bn.running_var[kept].copy())
        bn.num_features = kept.size
    return removed


def prune_model(units: list[ConvUnit], masks: dict[str, np.ndarray]) -> int:
    """Apply :func:`prune_unit` for every named mask; returns maps removed."""
    by_name = {unit.name: unit for unit in units}
    removed = 0
    for name, mask in masks.items():
        if name not in by_name:
            raise KeyError(f"no prunable unit named {name!r}")
        removed += prune_unit(by_name[name], mask)
    return removed
