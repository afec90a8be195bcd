"""Shared infrastructure for baseline (metric-driven) pruners.

Every baseline answers the same question HeadStart answers with RL:
*given a prunable unit and a survivor budget, which feature maps keep?*
The :class:`Pruner` interface makes them interchangeable in the
whole-model pipeline and in the paper's comparison tables.

Activation-based metrics (APoZ, ThiNet) need the unit's output
feature maps on calibration data; :func:`collect_unit_outputs` captures
them by temporarily instrumenting the unit's normalisation layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...nn.modules import Module
from ...nn.tensor import Tensor, no_grad
from ..units import ConvUnit

__all__ = ["PruningContext", "Pruner", "collect_unit_outputs",
           "mask_from_scores", "register_pruner", "build_pruner",
           "available_pruners"]


@dataclass
class PruningContext:
    """Everything a metric pruner may consult.

    Attributes
    ----------
    images / labels:
        Calibration batch (training data in the paper's setups).
    rng:
        Source of randomness for stochastic pruners.
    """

    images: np.ndarray
    labels: np.ndarray
    rng: np.random.Generator


class Pruner:
    """Interface: select surviving feature maps for one unit."""

    #: registry name, set by :func:`register_pruner`
    name: str = ""

    def select(self, model: Module, unit: ConvUnit, keep_count: int,
               context: PruningContext) -> np.ndarray:
        """Return a boolean keep mask with exactly ``keep_count`` True."""
        raise NotImplementedError


_REGISTRY: dict[str, type[Pruner]] = {}


def register_pruner(name: str):
    """Class decorator adding a pruner to the global registry."""

    def decorate(cls: type[Pruner]) -> type[Pruner]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def available_pruners() -> list[str]:
    """Names accepted by :func:`build_pruner`."""
    return sorted(_REGISTRY)


def build_pruner(name: str, **kwargs) -> Pruner:
    """Instantiate a registered pruner by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown pruner {name!r}; available: {available_pruners()}") from None
    return cls(**kwargs)


def mask_from_scores(scores: np.ndarray, keep_count: int) -> np.ndarray:
    """Keep the ``keep_count`` highest-scoring maps (stable ties)."""
    scores = np.asarray(scores, dtype=np.float64)
    keep_count = int(np.clip(keep_count, 1, scores.size))
    order = np.argsort(-scores, kind="stable")
    mask = np.zeros(scores.size, dtype=bool)
    mask[order[:keep_count]] = True
    return mask


def collect_unit_outputs(model: Module, unit: ConvUnit,
                         images: np.ndarray, batch_size: int = 64,
                         post_relu: bool = True) -> np.ndarray:
    """Feature maps produced by ``unit`` on ``images``.

    Returns an array of shape (N, C, H, W) — the unit's normalised
    output, optionally after ReLU (APoZ is defined on post-activation
    zeros).  Captured by temporarily instrumenting the batch norm (or
    the convolution when the unit has no batch norm).
    """
    target = unit.bn if unit.bn is not None else unit.conv
    captured: list[np.ndarray] = []
    original = type(target).forward

    def recording(x, _m=target):
        out = original(_m, x)
        captured.append(out.data.copy())
        return out

    object.__setattr__(target, "forward", recording)
    was_training = model.training
    try:
        model.eval()
        with no_grad():
            for start in range(0, len(images), batch_size):
                model(Tensor(images[start:start + batch_size]))
    finally:
        object.__delattr__(target, "forward")
        model.train(was_training)

    maps = np.concatenate(captured, axis=0)
    if post_relu:
        maps = np.maximum(maps, 0.0)
    return maps
