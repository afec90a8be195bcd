"""Module system for the numpy NN substrate.

Mirrors the small subset of the familiar ``torch.nn`` surface that the
HeadStart reproduction needs: a :class:`Module` base class with parameter
and submodule registration, train/eval modes, state dicts, and the layer
types used by VGG/ResNet (convolution, linear, batch norm, pooling,
activations, dropout, containers).

Layer attributes such as ``in_channels`` and the ``weight``/``bias``
tensors are plain mutable attributes on purpose: the pruning surgery in
:mod:`repro.pruning.surgery` rebuilds them when filters are removed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

__all__ = [
    "Parameter", "Module", "Conv2d", "Linear", "BatchNorm2d", "ReLU",
    "Sigmoid", "Tanh", "MaxPool2d", "AvgPool2d", "GlobalAvgPool2d",
    "Upsample", "Flatten", "Dropout", "Identity", "Sequential",
]


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a module."""

    def __init__(self, data):
        super().__init__(np.asarray(data), requires_grad=True)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration happens automatically through
    ``__setattr__``.  Buffers (non-trainable state such as batch-norm
    running statistics) are registered with :meth:`register_buffer`.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration ---------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        elif name in getattr(self, "_parameters", {}):
            if value is None:
                del self._parameters[name]
            else:
                self._parameters[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state saved in the state dict."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_parameters(child_prefix)

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            # Read through the attribute so in-place replacement is visible.
            yield (f"{prefix}.{name}" if prefix else name), getattr(self, name)
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_buffers(child_prefix)

    # -- modes -----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of all parameters."""
        for param in self.parameters():
            param.grad = None

    # -- state -----------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy all parameters and buffers into a flat mapping."""
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Load parameters and buffers from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        missing = []
        for name, param in params.items():
            if name not in state:
                missing.append(name)
                continue
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.data.shape}, got {value.shape}")
            param.data = value.astype(param.data.dtype, copy=True)
        buffer_owners = {}
        for prefix, module in self.named_modules():
            for bname in module._buffers:
                full = f"{prefix}.{bname}" if prefix else bname
                buffer_owners[full] = (module, bname)
        for name, (module, bname) in buffer_owners.items():
            if name not in state:
                missing.append(name)
                continue
            current = getattr(module, bname)
            value = np.asarray(state[name]).astype(current.dtype)
            module.register_buffer(bname, value.copy())
        if missing:
            raise KeyError(f"missing keys in state dict: {missing}")

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- call ------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, module in self._modules.items():
            body = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {body}")
        lines.append(")")
        return "\n".join(lines) if self._modules else self.__class__.__name__ + "()"


class Conv2d(Module):
    """2-D convolution over NCHW input.

    Parameters mirror the common convention: weight shape is
    ``(out_channels, in_channels, k, k)``.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 groups: int = 1, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        if groups != 1 and not (groups == in_channels == out_channels):
            raise ValueError(
                "groups must be 1 (dense) or equal to both channel counts "
                f"(depthwise); got groups={groups} for "
                f"{in_channels}->{out_channels}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.groups != 1:
            return F.conv2d_depthwise(x, self.weight, self.bias,
                                      stride=self.stride,
                                      padding=self.padding)
        return F.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        groups = f", g={self.groups}" if self.groups != 1 else ""
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, "
                f"p={self.padding}{groups})")


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with weight shape (out, in)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class BatchNorm2d(Module):
    """Batch normalisation over the channel axis of NCHW input."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(x, self.weight, self.bias,
                              self.running_mean, self.running_var,
                              training=self.training, momentum=self.momentum,
                              eps=self.eps)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Logistic sigmoid."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class MaxPool2d(Module):
    """Max pooling (``-inf``-padded when ``padding`` is set)."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None,
                 padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)

    def __repr__(self) -> str:
        return (f"MaxPool2d(k={self.kernel_size}, s={self.stride}, "
                f"p={self.padding})")


class AvgPool2d(Module):
    """Average pooling (no padding)."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"


class GlobalAvgPool2d(Module):
    """Spatial mean reducing NCHW to (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Upsample(Module):
    """Nearest-neighbour spatial upsampling by an integer factor."""

    def __init__(self, scale: int = 2):
        super().__init__()
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_nearest(x, self.scale)

    def __repr__(self) -> str:
        return f"Upsample(x{self.scale})"


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Identity(Module):
    """Pass-through module (used when a residual block is pruned away)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Chain of modules applied in order; supports indexing and iteration."""

    def __init__(self, *layers: Module):
        super().__init__()
        for index, layer in enumerate(layers):
            setattr(self, str(index), layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._modules.values():
            x = layer(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __setitem__(self, index: int, module: Module) -> None:
        key = list(self._modules.keys())[index]
        setattr(self, key, module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)
