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

Both mechanisms honour the coupled-channel annotations on the unit:

* a :class:`~repro.pruning.units.Consumer` with a ``layout``/``slot``
  is fed through a channel concatenation — surgery removes only the
  unit's window of the consumer's input dimension (offset by the
  widths of the earlier slots) and shrinks the shared layout so
  sibling branches' offsets stay correct;
* each :class:`~repro.pruning.units.DepthwiseTie` names a depthwise
  convolution whose filters are indexed one-for-one by the unit's
  mask — masking zeroes its batch-norm path (a depthwise filter over
  an all-zero channel already outputs zero), surgery removes the
  filter rows, the batch-norm statistics and the conv's channel
  bookkeeping (``groups`` included).

Masked evaluation and physical pruning are equivalent up to floating
point: the test suite asserts their outputs agree.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..nn.modules import BatchNorm2d, Conv2d, Linear, Parameter
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

    Tied depthwise convolutions need the same treatment one layer down:
    a depthwise filter over an all-zero input channel already outputs
    zero, but its bias and batch norm would map that zero back to
    ``β − μ·γ/σ``, so their parameters are zeroed for the dropped
    channels too.
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

    def zero_bn(bn: BatchNorm2d) -> None:
        stash(bn, "weight")[drop] = 0.0
        stash(bn, "bias")[drop] = 0.0
        stash(bn, "running_mean")[drop] = 0.0

    conv_weight = stash(unit.conv, "weight")
    conv_weight[drop] = 0.0
    if unit.conv.bias is not None:
        stash(unit.conv, "bias")[drop] = 0.0
    if unit.bn is not None:
        zero_bn(unit.bn)
    for tie in unit.tied:
        if tie.conv.bias is not None:
            stash(tie.conv, "bias")[drop] = 0.0
        if tie.bn is not None:
            zero_bn(tie.bn)
    try:
        yield
    finally:
        for owner, attr, original in saved:
            array = getattr(owner, attr)
            data = array.data if isinstance(array, Parameter) else array
            data[...] = original


def _shrink_consumer(consumer: Consumer, kept: np.ndarray,
                     width: int) -> None:
    """Remove the unit's dropped channels from one consumer's input.

    ``width`` is the unit's pre-surgery output width.  For a slotted
    (concat-fed) consumer the unit's channels occupy the window
    ``[offset, offset + width)`` of the consumer's input; a straight
    consumer is the degenerate single-slot case with ``offset == 0``
    and ``width`` covering the whole input.
    """
    module = consumer.module
    offset = consumer.layout.offset(consumer.slot) \
        if consumer.layout is not None else 0
    if isinstance(module, Conv2d):
        channels = module.in_channels
    elif isinstance(module, Linear):
        channels = module.in_features // consumer.spatial
    else:
        raise TypeError(f"unsupported consumer type {type(module).__name__}")
    keep_channels = np.concatenate([
        np.arange(offset), offset + kept,
        np.arange(offset + width, channels)])
    if isinstance(module, Conv2d):
        module.weight = Parameter(module.weight.data[:, keep_channels])
        module.in_channels = keep_channels.size
    else:
        spatial = consumer.spatial
        columns = (keep_channels[:, None] * spatial
                   + np.arange(spatial)[None]).reshape(-1)
        module.weight = Parameter(module.weight.data[:, columns])
        module.in_features = columns.size


def _shrink_bn(bn: BatchNorm2d, kept: np.ndarray) -> None:
    bn.weight = Parameter(bn.weight.data[kept])
    bn.bias = Parameter(bn.bias.data[kept])
    bn.register_buffer("running_mean", bn.running_mean[kept].copy())
    bn.register_buffer("running_var", bn.running_var[kept].copy())
    bn.num_features = kept.size


def prune_unit(unit: ConvUnit, keep_mask: np.ndarray) -> int:
    """Physically remove the unit's masked feature maps.

    Returns the number of maps removed.  The unit's ``conv``/``bn``,
    tied depthwise layers, all consumers and any shared
    :class:`~repro.pruning.units.ConcatLayout` are updated in place, so
    the owning model keeps working with the smaller tensors immediately.
    """
    kept = keep_indices(keep_mask)
    conv = unit.conv
    if kept.size == conv.out_channels:
        return 0
    width = conv.out_channels
    removed = width - kept.size

    # Consumers first: their offsets read the pre-surgery layout widths.
    for consumer in unit.consumers:
        _shrink_consumer(consumer, kept, width)
    shrunk: set[tuple[int, int]] = set()
    for consumer in unit.consumers:
        if consumer.layout is None:
            continue
        key = (id(consumer.layout), consumer.slot)
        if key not in shrunk:
            shrunk.add(key)
            consumer.layout.shrink(consumer.slot, kept.size)

    conv.weight = Parameter(conv.weight.data[kept])
    if conv.bias is not None:
        conv.bias = Parameter(conv.bias.data[kept])
    conv.out_channels = kept.size

    if unit.bn is not None:
        _shrink_bn(unit.bn, kept)

    for tie in unit.tied:
        dw = tie.conv
        dw.weight = Parameter(dw.weight.data[kept])
        if dw.bias is not None:
            dw.bias = Parameter(dw.bias.data[kept])
        dw.in_channels = dw.out_channels = dw.groups = kept.size
        if tie.bn is not None:
            _shrink_bn(tie.bn, kept)
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
