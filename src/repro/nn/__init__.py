"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

Provides reverse-mode autograd (:mod:`repro.nn.tensor`), NN operators
(:mod:`repro.nn.functional`), a module system (:mod:`repro.nn.modules`),
optimizers (:mod:`repro.nn.optim`) and gradient checking utilities.  This
stands in for PyTorch, which the original paper used; see DESIGN.md for
the substitution rationale.
"""

from . import functional, init, optim
from .grad_check import check_gradients, numerical_gradient
from .graph import GraphExecutor, GraphTraceError, compile
from .metrics import accuracy, topk_accuracy
from .modules import (AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten,
                      GlobalAvgPool2d, Identity, Linear, MaxPool2d, Module,
                      Parameter, ReLU, Sequential, Sigmoid, Tanh)
from .numeric import NonFiniteError, any_nonfinite
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "functional", "init", "optim",
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "Module", "Parameter", "Conv2d", "Linear", "BatchNorm2d", "ReLU",
    "Sigmoid", "Tanh", "MaxPool2d", "AvgPool2d", "GlobalAvgPool2d",
    "Flatten", "Dropout", "Identity", "Sequential",
    "accuracy", "topk_accuracy",
    "compile", "GraphExecutor", "GraphTraceError",
    "any_nonfinite", "NonFiniteError",
    "check_gradients", "numerical_gradient",
]
