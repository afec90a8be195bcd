"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the ``repro.nn`` deep-learning substrate.
A :class:`Tensor` wraps a ``numpy.ndarray`` together with an optional
gradient buffer and a closure that knows how to propagate an incoming
gradient to the tensor's parents.  Calling :meth:`Tensor.backward` on a
scalar output walks the recorded graph in reverse topological order and
accumulates gradients into every tensor that has ``requires_grad=True``.

The engine is deliberately small: only the primitives the HeadStart
reproduction needs are implemented, each with a hand-written backward
rule (verified by numerical gradient checks in the test suite).
Broadcasting follows numpy semantics; gradients flowing into a broadcast
operand are summed back down to the operand's shape.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor",
           "creator_closures"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Inside the block every operation produces constant tensors, which makes
    inference (and policy-network sampling at evaluation time) cheaper.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _times_mask(grad: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``grad * mask`` for a bool ``mask``, bit for bit and stride for
    stride, without numpy's buffered bool-to-float cast.

    Multiplying by the mask cast to ``grad.dtype`` is about four times
    faster, but numpy may lay that product out differently (channels-last
    where ``grad * mask`` is C-order), and a later reduction over the
    gradient sums in memory order.  So the output is allocated by the
    iterator over the ``(grad, mask)`` pair, which lays it out as
    ``grad * mask`` does.
    """
    out = np.nditer([grad, mask, None], flags=["zerosize_ok"],
                    op_flags=[["readonly"], ["readonly"],
                              ["writeonly", "allocate"]],
                    op_dtypes=[None, None, grad.dtype]).operands[2]
    return np.multiply(grad, mask.astype(grad.dtype), out=out)


def _released(grad: np.ndarray) -> None:
    """The backward rule of a node whose graph a backward pass consumed."""
    raise RuntimeError(
        "backward through a graph that was already backpropagated; its "
        "saved buffers were freed")


class Tensor:
    """An ndarray with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray``.  Floating point data is
        kept at its own dtype; integers are accepted for index-like tensors.
    requires_grad:
        When True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError("only floating point tensors can require gradients")
        self.requires_grad = bool(requires_grad and _GRAD_ENABLED)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self.data.item()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a constant tensor sharing this tensor's data."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a result tensor, recording the graph edge if needed."""
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor, releasing the graph as it goes.

        ``grad`` defaults to ones (the tensor must then be scalar-sized or
        the caller genuinely wants a sum over all elements).

        Each interior node is released once its gradient has propagated:
        its closure (and the buffers it saved) and its parent links are
        dropped.  Intermediates nobody else holds are freed with their
        ``.grad`` before the walk ends; a tensor the caller still holds
        keeps its ``.grad``.  Backpropagating through a released node
        again raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward = _released
            node._parents = ()

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data ** 2), other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        data = self.data ** exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(g, other.data) if self.data.ndim == 2
                                     else g * other.data)
                else:
                    grad_self = g @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, g))
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ g
                    other._accumulate(_unbroadcast(grad_other, other.shape))

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        original = self.shape

        def backward(g: np.ndarray) -> None:
            full = np.zeros(original, dtype=g.dtype)
            np.add.at(full, index, g)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    def pad(self, pad_width: Sequence[tuple[int, int]]) -> "Tensor":
        """Zero-pad with per-axis ``(before, after)`` widths."""
        pad_width = tuple(tuple(p) for p in pad_width)
        data = np.pad(self.data, pad_width)
        slices = tuple(slice(b, b + s) for (b, _), s in zip(pad_width, self.shape))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g[slices])

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        original = self.shape

        def backward(g: np.ndarray) -> None:
            if axis is None:
                self._accumulate(np.broadcast_to(g, original).copy()
                                 if np.ndim(g) == 0 or g.shape != original
                                 else g)
                return
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, axes)
            self._accumulate(np.broadcast_to(g, original).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            expanded = data
            grad = g
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                expanded = np.expand_dims(data, axes)
                grad = np.expand_dims(g, axes)
            mask = (self.data == expanded)
            # Split gradient equally among ties for a well-defined subgradient.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
                else mask.sum()
            self._accumulate(mask * grad / counts)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * np.sign(self.data))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(g: np.ndarray) -> None:
            self._accumulate(_times_mask(g, mask))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Stable formulation: exp is only taken of non-positive values.
        x = self.data
        data = np.where(x >= 0,
                        1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                        np.exp(np.clip(x, None, 0))
                        / (1.0 + np.exp(np.clip(x, None, 0))))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return Tensor._make(data, (self,), backward)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (constants stay constant)."""
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value))


def creator_closures(root: Tensor,
                     boundary: Iterable[Tensor] = ()) -> list[Tensor]:
    """Tensors with a recorded backward rule created under ``root``.

    Walks the autograd graph from ``root`` towards the leaves without
    crossing any tensor in ``boundary`` (compared by identity), and
    returns every reached tensor whose ``_backward`` closure is set.
    With ``boundary`` holding a module's *input*, the result is exactly
    the closures that module's forward created — the hook points
    :class:`repro.obs.profile.ModuleProfiler` wraps to attribute
    backward wall time to the module.  The engine reads ``_backward``
    at execution time, so rebinding it after the forward is safe.
    """
    stop = {id(t) for t in boundary}
    found: list[Tensor] = []
    seen: set[int] = set()
    stack: list[Tensor] = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or id(node) in stop:
            continue
        seen.add(id(node))
        if node._backward is not None:
            found.append(node)
        stack.extend(node._parents)
    return found
