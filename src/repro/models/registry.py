"""Model registry: build any evaluated architecture by name.

The experiments reference models by string (``"vgg16"``, ``"resnet110"``)
plus task geometry; the registry keeps construction uniform across
benchmarks and examples.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..nn.modules import Module
from .alexnet import AlexNet
from .lenet import LeNet
from .resnet import ResNet
from .vgg import VGG

__all__ = ["MODEL_BUILDERS", "build_model", "available_models"]


def _build_vgg(plan: str) -> Callable[..., Module]:
    def build(num_classes: int, input_size: int, width_multiplier: float,
              rng: np.random.Generator) -> Module:
        return VGG(plan, num_classes=num_classes, input_size=input_size,
                   width_multiplier=width_multiplier, rng=rng)
    return build


def _build_resnet(blocks: tuple[int, int, int]) -> Callable[..., Module]:
    def build(num_classes: int, input_size: int, width_multiplier: float,
              rng: np.random.Generator) -> Module:
        del input_size  # ResNet adapts via global average pooling.
        return ResNet(blocks, num_classes=num_classes,
                      width_multiplier=width_multiplier, rng=rng)
    return build


def _build_lenet(num_classes: int, input_size: int, width_multiplier: float,
                 rng: np.random.Generator) -> Module:
    return LeNet(num_classes=num_classes, input_size=input_size,
                 width_multiplier=width_multiplier, rng=rng)


def _build_alexnet(num_classes: int, input_size: int, width_multiplier: float,
                   rng: np.random.Generator) -> Module:
    return AlexNet(num_classes=num_classes, input_size=input_size,
                   width_multiplier=width_multiplier, rng=rng)


MODEL_BUILDERS: dict[str, Callable[..., Module]] = {
    "vgg11": _build_vgg("vgg11"),
    "vgg13": _build_vgg("vgg13"),
    "vgg16": _build_vgg("vgg16"),
    "vgg19": _build_vgg("vgg19"),
    "resnet20": _build_resnet((3, 3, 3)),
    "resnet32": _build_resnet((5, 5, 5)),
    "resnet56": _build_resnet((9, 9, 9)),
    "resnet110": _build_resnet((18, 18, 18)),
    "lenet": _build_lenet,
    "alexnet": _build_alexnet,
}


def available_models() -> list[str]:
    """Names accepted by :func:`build_model`."""
    return sorted(MODEL_BUILDERS)


def build_model(name: str, num_classes: int = 10, input_size: int = 32,
                width_multiplier: float = 1.0,
                rng: np.random.Generator | None = None) -> Module:
    """Construct a registered model for the given task geometry."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {available_models()}") from None
    return builder(num_classes=num_classes, input_size=input_size,
                   width_multiplier=width_multiplier,
                   rng=rng or np.random.default_rng())
