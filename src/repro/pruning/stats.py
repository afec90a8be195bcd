"""Parameter and FLOP accounting (the #PARAMETERS / #FLOPS table columns).

Following the paper's convention (checked against its Tables 1-4), a
"FLOP" here is one multiply-accumulate: VGG-16 at 224x224 counts 15.4 B,
at 32x32 it counts 0.31 B, and ResNet-110 at 32x32 counts 0.25 B —
matching the paper's reported numbers.

Shapes are obtained by tracing a real forward pass with a dummy input,
so the accounting works for any model built from ``repro.nn`` modules,
including models after arbitrary pruning surgery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.modules import BatchNorm2d, Conv2d, Linear, Module
from ..nn.tensor import Tensor, no_grad

__all__ = ["LayerStats", "ModelStats", "layer_cost", "profile_model",
           "compression_ratio"]


@dataclass(frozen=True)
class LayerStats:
    """Static cost of one traced layer (per input image)."""

    name: str
    kind: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    params: int
    flops: int


@dataclass(frozen=True)
class ModelStats:
    """Aggregate cost of a model plus its per-layer breakdown."""

    layers: tuple[LayerStats, ...]

    @property
    def params(self) -> int:
        return sum(layer.params for layer in self.layers)

    @property
    def flops(self) -> int:
        return sum(layer.flops for layer in self.layers)

    @property
    def params_m(self) -> float:
        """Parameters in millions (the tables' M unit)."""
        return self.params / 1e6

    @property
    def flops_b(self) -> float:
        """FLOPs in billions (the tables' B unit)."""
        return self.flops / 1e9

    def by_name(self, name: str) -> LayerStats:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no traced layer named {name!r}")


def layer_cost(module: Module, in_shape: tuple[int, ...],
               out_shape: tuple[int, ...]) -> tuple[int, int]:
    """(params, flops-per-image) for one layer.

    The single source of FLOP accounting, shared by :func:`profile_model`
    (static tables), the :mod:`repro.gpusim` roofline model and the
    op-level profiler (:mod:`repro.obs.profile`).
    """
    if isinstance(module, Conv2d):
        params = module.weight.size + (module.bias.size if module.bias is not None else 0)
        _, _, oh, ow = out_shape
        macs = module.out_channels * module.in_channels \
            * module.kernel_size ** 2 * oh * ow
        return params, macs
    if isinstance(module, Linear):
        params = module.weight.size + (module.bias.size if module.bias is not None else 0)
        return params, module.in_features * module.out_features
    if isinstance(module, BatchNorm2d):
        # Affine parameters count toward storage; cost folds into conv.
        return module.weight.size + module.bias.size, 0
    return 0, 0


def profile_model(model: Module, input_shape: tuple[int, int, int],
                  include_batchnorm: bool = True) -> ModelStats:
    """Trace a forward pass and return per-layer parameter/FLOP stats.

    ``input_shape`` is (channels, height, width) of one image.
    """
    records: list[LayerStats] = []
    patched: list[Module] = []

    def wrap(name: str, module: Module):
        original = type(module).forward

        def traced(x, _module=module, _name=name, _original=original):
            out = _original(_module, x)
            params, flops = layer_cost(_module, x.shape, out.shape)
            records.append(LayerStats(
                name=_name, kind=type(_module).__name__,
                input_shape=tuple(x.shape), output_shape=tuple(out.shape),
                params=params, flops=flops))
            return out

        object.__setattr__(module, "forward", traced)
        patched.append(module)

    kinds = (Conv2d, Linear, BatchNorm2d) if include_batchnorm else (Conv2d, Linear)
    for name, module in model.named_modules():
        if isinstance(module, kinds):
            wrap(name, module)

    was_training = model.training
    try:
        model.eval()
        with no_grad():
            dummy = Tensor(np.zeros((1, *input_shape), dtype=np.float32))
            model(dummy)
    finally:
        for module in patched:
            object.__delattr__(module, "forward")
        model.train(was_training)
    return ModelStats(tuple(records))


def compression_ratio(pruned_params: float, original_params: float) -> float:
    """Paper Eq. (11): compression ratio = |W'| / |W| (in percent/100).

    Smaller is more compressed; 1.0 means no pruning.
    """
    if original_params <= 0:
        raise ValueError("original parameter count must be positive")
    return pruned_params / original_params
