"""Static-graph inference executor for the ``repro.nn`` substrate.

:func:`compile` traces a :class:`~repro.nn.modules.Module` tree once —
by patching the leaf layer classes and the two tensor methods model
forwards use directly (``+`` and ``.relu()``) — into a flat,
topologically ordered op list, then returns a :class:`GraphExecutor`
that replays it without any Python module dispatch.

Three properties make it the reward-evaluation fast path:

* **Buffer reuse.**  Every intermediate (padded inputs, im2col patches,
  GEMM outputs, activations) lives in a shape-keyed :class:`_Arena`;
  buffers are recycled the moment their last consumer has run and
  persist across calls, so steady-state evaluation allocates nothing.
  Patches are gathered into their arena buffer with the eager
  :func:`~repro.nn.functional.im2col`'s memoized index
  (:func:`~repro.nn.functional.patch_index`), so the conv GEMM operand
  is byte-identical to the eager one.
* **Bit-exact by default.**  With ``fuse=False`` every node replays the
  eager op's exact numpy expression (same operands, same order, same
  dtype promotion, same memory layout where reductions could care), so
  executor logits are bit-for-bit identical to ``model(x)``.  With
  ``fuse=True`` BatchNorm folds into the preceding convolution's
  weights (the fold and the fused GEMM accumulate in float64, then
  round once to the eager dtype) and a trailing ReLU joins the conv /
  linear epilogue — approximate, but within ~1e-8 of an eager float64
  forward; see ``docs/PERFORMANCE.md`` for the float32 story.
* **Mask-aware splitting.**  :meth:`GraphExecutor.set_mask_unit` splits
  the op list at a prunable unit's output.  All candidate masks share
  the prefix (cached per calibration slice), each mask re-runs only the
  suffix after zeroing its dropped channels — bitwise equivalent to the
  dense masked forward of :func:`repro.pruning.surgery.channel_mask`,
  because a zeroed filter row plus zeroed BN affine produces exact
  ``+0.0`` in the eager path too.  With ``mask_batch=True`` a whole
  batch of candidate masks folds into the suffix's batch dimension and
  is scored in one forward (perf mode: the larger GEMM rounds
  differently, so this rides with ``fuse`` rather than the bit-exact
  contract).

The executor captures *references* to module parameters (unfused nodes
read weights live) but folds fused constants at compile time: recompile
after mutating weights when ``fuse=True``.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .functional import depthwise_windows, patch_index
from .modules import (AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten,
                      GlobalAvgPool2d, Identity, Linear, MaxPool2d, Module,
                      ReLU, Sigmoid, Tanh, Upsample)
from .tensor import Tensor, no_grad

__all__ = ["compile", "GraphExecutor", "GraphTraceError"]


class GraphTraceError(RuntimeError):
    """The module tree used an operation the tracer cannot record.

    Callers are expected to fall back to eager evaluation (the agent
    does, counting ``graph/fallbacks``); the model itself is fine.
    """


# ----------------------------------------------------------------------
# Arena
# ----------------------------------------------------------------------
class _Arena:
    """Shape/dtype-keyed free lists of reusable numpy buffers.

    ``get`` pops a previously released buffer of the exact shape and
    dtype or allocates a fresh one; ``put`` returns a buffer to its
    free list.  The executor releases every intermediate as soon as its
    last consumer has run, so across calls the arena converges on the
    peak working set and steady-state evaluation allocates nothing.
    """

    def __init__(self):
        self._free: dict[tuple, list[np.ndarray]] = {}
        self.allocations = 0
        self.reuses = 0

    def get(self, shape: tuple, dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype))
        stack = self._free.get(key)
        if stack:
            self.reuses += 1
            return stack.pop()
        self.allocations += 1
        return np.empty(key[0], dtype=key[1])

    def put(self, array: np.ndarray) -> None:
        # Kernels assume buffers from ``get`` are C-contiguous; arrays
        # with another base layout (np.concatenate outputs tracking
        # channels-last inputs) are simply dropped to the allocator.
        if not array.flags.c_contiguous:
            return
        self._free.setdefault((array.shape, array.dtype), []).append(array)


# ----------------------------------------------------------------------
# Trace
# ----------------------------------------------------------------------
class _Node:
    """One traced op: ``kind`` + producing module + value ids."""

    __slots__ = ("kind", "module", "inputs", "out",
                 "fused_weight", "fused_bias", "fused_relu")

    def __init__(self, kind: str, module: Module | None,
                 inputs: list[int], out: int):
        self.kind = kind
        self.module = module
        self.inputs = inputs
        self.out = out
        self.fused_weight = None
        self.fused_bias = None
        self.fused_relu = False


#: Leaf module classes the tracer hooks; anything else (containers,
#: blocks, whole models) runs its Python forward normally and is traced
#: through the leaves it calls.
_LEAF_KINDS: dict[type, str] = {
    Conv2d: "conv", Linear: "linear", BatchNorm2d: "bn", ReLU: "relu",
    Sigmoid: "sigmoid", Tanh: "tanh", MaxPool2d: "maxpool",
    AvgPool2d: "avgpool", GlobalAvgPool2d: "gap", Upsample: "upsample",
    Flatten: "flatten", Dropout: "dropout", Identity: "identity",
}

#: The active tracer (at most one; class-level hooks are global).
_TRACE: "_Tracer | None" = None


class _Tracer:
    """Records leaf-module and tensor-method calls as graph nodes."""

    def __init__(self, batch: int):
        self.batch = batch
        self.nodes: list[_Node] = []
        self._vids: dict[int, int] = {}
        self._refs: list[Tensor] = []          # keep ids stable
        self.shapes: list[tuple] = []
        self.suspended = 0

    def register(self, tensor: Tensor) -> int:
        vid = len(self.shapes)
        if tensor.ndim < 1 or tensor.shape[0] != self.batch:
            raise GraphTraceError(
                "traced values must keep the batch as their leading "
                f"axis; got shape {tensor.shape}")
        self._vids[id(tensor)] = vid
        self._refs.append(tensor)
        self.shapes.append(tensor.shape)
        return vid

    def vid_of(self, tensor) -> int | None:
        return self._vids.get(id(tensor)) if isinstance(tensor, Tensor) \
            else None

    def record(self, kind: str, module: Module | None,
               inputs: list[int], out: Tensor) -> None:
        self.nodes.append(_Node(kind, module, inputs, self.register(out)))


class _suspend_trace:
    """Run the wrapped eager op without recording its inner tensor ops."""

    def __enter__(self):
        _TRACE.suspended += 1

    def __exit__(self, *exc):
        _TRACE.suspended -= 1


def _traced_module_forward(original, kind):
    def forward(module, x):
        tracer = _TRACE
        if tracer is None or tracer.suspended:
            return original(module, x)
        vin = tracer.vid_of(x)
        if vin is None:
            raise GraphTraceError(
                f"{type(module).__name__} consumed a tensor the tracer "
                "did not see being produced (unsupported op upstream?)")
        with _suspend_trace():
            out = original(module, x)
        if out is x:                     # eval-mode no-op: alias, no node
            return out
        tracer.record(kind, module, [vin], out)
        return out
    forward._repro_tracer = True
    return forward


def _traced_binary(original, kind):
    def method(self, other):
        tracer = _TRACE
        if tracer is None or tracer.suspended:
            return original(self, other)
        a = tracer.vid_of(self)
        b = tracer.vid_of(other)
        if a is None or b is None:       # constants stay untraced; a later
            return original(self, other)  # consumer raises GraphTraceError
        with _suspend_trace():
            out = original(self, other)
        tracer.record(kind, None, [a, b], out)
        return out
    method._repro_tracer = True
    return method


def _traced_unary(original, kind):
    def method(self):
        tracer = _TRACE
        if tracer is None or tracer.suspended:
            return original(self)
        vin = tracer.vid_of(self)
        if vin is None:
            return original(self)
        with _suspend_trace():
            out = original(self)
        tracer.record(kind, None, [vin], out)
        return out
    method._repro_tracer = True
    return method


def _traced_cat(original):
    def cat(tensors, axis: int = 0):
        tracer = _TRACE
        if tracer is None or tracer.suspended:
            return original(tensors, axis=axis)
        vids = [tracer.vid_of(t) for t in tensors]
        if any(vid is None for vid in vids):
            return original(tensors, axis=axis)
        if axis != 1:
            raise GraphTraceError(
                f"only channel (axis=1) concatenation is traceable, "
                f"got axis={axis}")
        with _suspend_trace():
            out = original(tensors, axis=axis)
        tracer.record("cat", None, vids, out)
        return out
    cat._repro_tracer = True
    return cat


def _trace(model: Module, example: Tensor) -> tuple[_Tracer, int, int]:
    """Run one eval forward under the hooks; return (tracer, in, out)."""
    global _TRACE
    if _TRACE is not None:
        raise RuntimeError("a graph trace is already in progress")
    tracer = _Tracer(example.shape[0])
    saved_forwards = {cls: cls.forward for cls in _LEAF_KINDS}
    saved_add = Tensor.__add__
    saved_relu = Tensor.relu
    saved_cat = Tensor.__dict__["cat"]   # the staticmethod object itself
    was_training = model.training
    _TRACE = tracer
    try:
        for cls, kind in _LEAF_KINDS.items():
            cls.forward = _traced_module_forward(saved_forwards[cls], kind)
        Tensor.__add__ = _traced_binary(saved_add, "add")
        Tensor.relu = _traced_unary(saved_relu, "relu")
        Tensor.cat = staticmethod(_traced_cat(saved_cat.__func__))
        model.eval()
        input_vid = tracer.register(example)
        with no_grad():
            out = model(example)
        output_vid = tracer.vid_of(out)
        if output_vid is None:
            raise GraphTraceError(
                "the model's output was not produced by a traced op")
    finally:
        _TRACE = None
        for cls, forward in saved_forwards.items():
            cls.forward = forward
        Tensor.__add__ = saved_add
        Tensor.relu = saved_relu
        Tensor.cat = saved_cat
        model.train(was_training)
    return tracer, input_vid, output_vid


# ----------------------------------------------------------------------
# Fusion
# ----------------------------------------------------------------------
def _fold_bn_into_conv(conv_node: _Node, bn: BatchNorm2d) -> None:
    """Precompute float64 folded weights: BN(conv(x)) == conv'(x).

    ``y·s + (b − μ)·s + β`` with ``s = γ / sqrt(σ² + ε)``; accumulating
    the fold and the fused GEMM in float64 keeps the single rounding
    step (back to the eager dtype) as the only drift source.
    """
    conv = conv_node.module
    weight = conv.weight.data.astype(np.float64)
    scale = (bn.weight.data.astype(np.float64)
             / np.sqrt(bn.running_var.astype(np.float64) + bn.eps))
    bias = conv.bias.data.astype(np.float64) if conv.bias is not None \
        else np.zeros(weight.shape[0])
    folded = weight * scale[:, None, None, None]
    conv_node.fused_weight = np.ascontiguousarray(
        folded.reshape(weight.shape[0], -1))
    conv_node.fused_bias = ((bias - bn.running_mean.astype(np.float64))
                            * scale + bn.bias.data.astype(np.float64))


def _fuse(nodes: list[_Node], input_vid: int, output_vid: int,
          alias: dict[int, int]) -> list[_Node]:
    """Fold conv→bn pairs and absorb trailing ReLUs into epilogues.

    ``alias`` is filled with removed-value remappings (bn / relu outputs
    now point at the producing conv / linear output) and applied to the
    surviving nodes' inputs.
    """
    producer: dict[int, int] = {node.out: i for i, node in enumerate(nodes)}
    consumers: dict[int, list[int]] = {}
    for i, node in enumerate(nodes):
        for vid in node.inputs:
            consumers.setdefault(vid, []).append(i)

    removed: set[int] = set()
    for i, node in enumerate(nodes):
        if node.kind != "bn":
            continue
        vin = node.inputs[0]
        j = producer.get(vin)
        if j is None or nodes[j].kind != "conv" or j in removed:
            continue
        if getattr(nodes[j].module, "groups", 1) != 1:
            # The im2col fold below assumes a dense filter bank; a
            # depthwise conv's BN stays a separate node.
            continue
        if consumers.get(vin, []) != [i] or vin == output_vid:
            continue
        _fold_bn_into_conv(nodes[j], node.module)
        alias[node.out] = nodes[j].out
        removed.add(i)

    def resolve(vid: int) -> int:
        while vid in alias:
            vid = alias[vid]
        return vid

    for i, node in enumerate(nodes):
        if node.kind != "relu" or i in removed:
            continue
        vin = resolve(node.inputs[0])
        j = producer.get(vin)
        if j is None or j in removed:
            continue
        prod = nodes[j]
        if prod.kind not in ("conv", "linear"):
            continue
        users = [k for k in range(len(nodes)) if k not in removed
                 and k != i and vin in [resolve(v) for v in nodes[k].inputs]]
        if users or vin == output_vid:
            continue
        prod.fused_relu = True
        alias[node.out] = prod.out
        removed.add(i)

    kept = [node for i, node in enumerate(nodes) if i not in removed]
    for node in kept:
        node.inputs = [resolve(v) for v in node.inputs]
    return kept


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
def _conv_geometry(conv: Conv2d, x: np.ndarray) -> tuple:
    n, c, h, w = x.shape
    k, s, p = conv.kernel_size, conv.stride, conv.padding
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    return n, c, h, w, k, s, p, oh, ow


class GraphExecutor:
    """Replays a traced op list with arena-backed buffers.

    Produced by :func:`compile`; see the module docstring for the
    trace / fuse / arena lifecycle and the numeric contract.  Arrays
    returned by :meth:`run` are arena buffers that stay valid until the
    next call on this executor — copy them to keep them longer.
    """

    def __init__(self, model: Module, nodes: list[_Node], shapes: list[tuple],
                 input_vid: int, output_vid: int, *, fused: bool,
                 mask_batch: bool):
        self.model = model
        self.nodes = nodes
        self.fused = fused
        self.mask_batch = mask_batch
        self._shapes = shapes
        self._input_vid = input_vid
        self._output_vid = output_vid
        self._arena = _Arena()
        self._producer = {node.out: i for i, node in enumerate(nodes)}
        self._module_vid: dict[int, int] = {}
        self._full_pending = self._pending_template(nodes)
        self._deferred_release: list[np.ndarray] = []
        # Mask split state (set_mask_unit)
        self._mask_vid: int | None = None
        self._rezero_vids: list[int] = []
        self._prefix: list[_Node] = []
        self._suffix: list[_Node] = []
        self._boundary: list[int] = []
        self._prefix_pending: dict[int, int] = {}
        self._suffix_pending: dict[int, int] = {}
        self._prefix_cache: dict[tuple, dict[int, np.ndarray]] = {}

    # -- plumbing ----------------------------------------------------------
    def _pending_template(self, nodes: list[_Node]) -> dict[int, int]:
        pending: dict[int, int] = {}
        for node in nodes:
            for vid in node.inputs:
                pending[vid] = pending.get(vid, 0) + 1
        return pending

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def arena_stats(self) -> dict:
        return {"allocations": self._arena.allocations,
                "reuses": self._arena.reuses}

    def clear_cache(self) -> None:
        """Drop cached mask-split prefixes (e.g. after weight updates)."""
        self._prefix_cache.clear()

    # -- node kernels --------------------------------------------------------
    # Each kernel returns (out_array, backing) where ``backing`` is the
    # arena allocation that owns the output's memory (None when the
    # output aliases an input's storage).  Bit-exact kernels replay the
    # eager expressions operand-for-operand; see tests/test_graph.py.
    #
    # Layout matters: numpy ufuncs allocate results in K order, so the
    # eager path propagates the conv GEMM's channels-last transpose view
    # through BN/ReLU/add — and reductions downstream (global average
    # pooling) sum pairwise in *that* memory order.  Elementwise kernels
    # therefore allocate their buffers with the input's memory order
    # (:meth:`_alloc_like`), keeping every reduction bit-identical.

    def _alloc_like(self, ref: np.ndarray, dtype):
        """Arena buffer matching ``ref``'s shape *and* memory order.

        Returns ``(view, base)``: ``view`` has ``ref.shape`` with axes
        strided like ``ref`` (numpy's K order), ``base`` is the arena
        allocation backing it.
        """
        if ref.flags.c_contiguous or ref.ndim < 2:
            base = self._arena.get(ref.shape, dtype)
            return base, base
        order = sorted(range(ref.ndim), key=lambda i: (-ref.strides[i], i))
        base = self._arena.get(tuple(ref.shape[i] for i in order), dtype)
        return base.transpose(np.argsort(order)), base

    def _run_conv(self, node: _Node, x: np.ndarray):
        conv = node.module
        if getattr(conv, "groups", 1) != 1:
            return self._run_conv_depthwise(node, x)
        arena = self._arena
        n, c, h, w, k, s, p, oh, ow = _conv_geometry(conv, x)
        if p:
            padded = arena.get((n, c, h + 2 * p, w + 2 * p), x.dtype)
            padded.fill(0)
            padded[:, :, p:p + h, p:p + w] = x
        else:
            padded = x
        # The eager im2col's gather, written straight into the arena
        # buffer (``clip``: the index is in range by construction, and
        # ``take`` then fills ``out`` without an intermediate buffer).
        index = patch_index(c, h, w, k, k, s, p)
        cols = arena.get((n * oh * ow, c * k * k), x.dtype)
        padded.reshape(n, -1).take(index, axis=1, mode="clip",
                                   out=cols.reshape(n, oh * ow, -1))
        if p:
            arena.put(padded)
        if node.fused_weight is not None:
            return self._conv_epilogue_fused(node, cols, n, oh, ow)
        w_mat = conv.weight.data.reshape(conv.weight.data.shape[0], -1)
        f = w_mat.shape[0]
        gemm = arena.get((n * oh * ow, f), np.result_type(cols, w_mat))
        np.matmul(cols, w_mat.T, out=gemm)
        arena.put(cols)
        if conv.bias is not None:
            np.add(gemm, conv.bias.data, out=gemm)
        if node.fused_relu:          # fuse=True only; approximate mode
            np.maximum(gemm, 0, out=gemm)
        out = gemm.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
        return out, gemm

    def _conv_epilogue_fused(self, node: _Node, cols: np.ndarray,
                             n: int, oh: int, ow: int):
        # Folded conv+BN stays float64: the unfused BN output is float64
        # too (``var + eps`` promotes through a 0-d float64 scalar), so
        # this matches the eager dtype while accumulating exactly.
        arena = self._arena
        f = node.fused_weight.shape[0]
        acc = arena.get((n * oh * ow, f), np.float64)
        np.matmul(cols, node.fused_weight.T, out=acc)
        arena.put(cols)
        acc += node.fused_bias
        if node.fused_relu:
            np.maximum(acc, 0.0, out=acc)
        out = acc.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
        return out, acc

    def _run_conv_depthwise(self, node: _Node, x: np.ndarray):
        # Same windows helper and einsum as the eager
        # :func:`repro.nn.functional.conv2d_depthwise`, so the reduction
        # visits the same elements in the same order (bit-exact).  BN is
        # never folded into a depthwise conv (see :func:`_fuse`).
        conv = node.module
        windows = depthwise_windows(x, conv.kernel_size, conv.stride,
                                    conv.padding)
        out = np.einsum("nchwij,cij->nchw", windows,
                        conv.weight.data[:, 0])
        if conv.bias is not None:
            out = out + conv.bias.data.reshape(1, -1, 1, 1)
        if node.fused_relu:          # fuse=True only; approximate mode
            np.maximum(out, 0, out=out)
        return out, out

    def _run_linear(self, node: _Node, x: np.ndarray):
        layer = node.module
        w = layer.weight.data
        buf = self._arena.get((x.shape[0], w.shape[0]),
                              np.result_type(x, w))
        np.matmul(x, w.T, out=buf)
        if layer.bias is not None:
            np.add(buf, layer.bias.data, out=buf)
        if node.fused_relu:
            np.maximum(buf, 0, out=buf)
        return buf, buf

    def _run_bn(self, node: _Node, x: np.ndarray):
        # Replays the eager eval-mode chain exactly, including its dtype
        # promotion: ``var + eps`` goes through a 0-d float64 scalar, so
        # inv_std — and therefore the BN output — is always float64.
        bn = node.module
        arena = self._arena
        column = lambda v: v.reshape(1, -1, 1, 1)
        mean = column(bn.running_mean)
        inv_std = (column(bn.running_var) + np.asarray(bn.eps)) ** -0.5
        sub_dtype = np.result_type(x, mean)
        out_dtype = np.result_type(sub_dtype, inv_std)
        buf, base = self._alloc_like(x, out_dtype)
        if sub_dtype == out_dtype:
            np.subtract(x, mean, out=buf)
            np.multiply(buf, inv_std, out=buf)
        else:
            sub, sub_base = self._alloc_like(x, sub_dtype)
            np.subtract(x, mean, out=sub)
            np.multiply(sub, inv_std, out=buf)
            arena.put(sub_base)
        np.multiply(buf, column(bn.weight.data), out=buf)
        np.add(buf, column(bn.bias.data), out=buf)
        return buf, base

    def _run_relu(self, node: _Node, x: np.ndarray):
        arena = self._arena
        mask = arena.get(x.shape, bool)
        np.greater(x, 0, out=mask)
        buf, base = self._alloc_like(x, x.dtype)
        np.multiply(x, mask, out=buf)       # eager relu is data * (data > 0)
        arena.put(mask)
        return buf, base

    def _run_sigmoid(self, node: _Node, x: np.ndarray):
        out = np.where(x >= 0,
                       1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                       np.exp(np.clip(x, None, 0))
                       / (1.0 + np.exp(np.clip(x, None, 0))))
        return out, out

    def _run_tanh(self, node: _Node, x: np.ndarray):
        out = np.tanh(x)
        return out, out

    def _run_maxpool(self, node: _Node, x: np.ndarray):
        pool = node.module
        k, s = pool.kernel_size, pool.stride
        p = getattr(pool, "padding", 0)
        n, c, h, w = x.shape
        if p:
            # Eager pads with -inf so padded positions never win the max.
            padded = self._arena.get((n, c, h + 2 * p, w + 2 * p), x.dtype)
            padded.fill(-np.inf)
            padded[:, :, p:p + h, p:p + w] = x
        else:
            padded = x
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        windows = sliding_window_view(padded, (k, k),
                                      axis=(2, 3))[:, :, ::s, ::s]
        buf = self._arena.get((n, c, oh, ow), x.dtype)
        np.max(windows, axis=(-2, -1), out=buf)
        if p:
            self._arena.put(padded)
        return buf, buf

    def _run_avgpool(self, node: _Node, x: np.ndarray):
        pool = node.module
        k, s = pool.kernel_size, pool.stride
        n, c, h, w = x.shape
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        buf = self._arena.get((n, c, oh, ow), x.dtype)
        np.mean(windows, axis=(-2, -1), out=buf)
        return buf, buf

    def _run_gap(self, node: _Node, x: np.ndarray):
        arena = self._arena
        n, c, h, w = x.shape
        total = arena.get((n, c), x.dtype)
        np.sum(x, axis=(2, 3), out=total)
        count = np.asarray(float(h * w))    # eager mean divides by a 0-d
        buf = arena.get((n, c), np.result_type(x, count))  # float64 array
        np.divide(total, count, out=buf)
        arena.put(total)
        return buf, buf

    def _run_upsample(self, node: _Node, x: np.ndarray):
        out = np.repeat(np.repeat(x, node.module.scale, axis=2),
                        node.module.scale, axis=3)
        return out, out

    def _run_flatten(self, node: _Node, x: np.ndarray):
        out = x.reshape(x.shape[0], -1)
        backing = None if np.may_share_memory(out, x) else out
        return out, backing

    def _run_add(self, node: _Node, a: np.ndarray, b: np.ndarray):
        dtype = np.result_type(a, b)
        if a.shape == b.shape and a.strides == b.strides:
            buf, base = self._alloc_like(a, dtype)
        else:
            base = self._arena.get(np.broadcast_shapes(a.shape, b.shape),
                                   dtype)
            buf = base
        np.add(a, b, out=buf)
        return buf, base

    def _run_cat(self, node: _Node, *args: np.ndarray):
        # Channel concatenation (the tracer only records axis=1).  The
        # copies are exact either way, but ``np.concatenate`` picks the
        # output's *memory order* from its operands (channels-last when
        # the branches are conv/relu outputs), and downstream reductions
        # (global average pooling) sum pairwise in that order — so the
        # eager op itself is the only bit-exact allocator here.  Cat
        # outputs therefore bypass the arena.
        out = np.concatenate(args, axis=1)
        return out, out

    _KERNELS = {
        "conv": _run_conv, "linear": _run_linear, "bn": _run_bn,
        "relu": _run_relu, "sigmoid": _run_sigmoid, "tanh": _run_tanh,
        "maxpool": _run_maxpool, "avgpool": _run_avgpool, "gap": _run_gap,
        "upsample": _run_upsample, "flatten": _run_flatten,
        "add": _run_add, "cat": _run_cat,
    }

    _PROFILED = {"conv": "Conv2d", "linear": "Linear", "bn": "BatchNorm2d"}

    # -- execution engine ----------------------------------------------------
    def _execute(self, nodes: list[_Node], template: dict[int, int],
                 seeds: dict[int, np.ndarray], want: tuple[int, ...],
                 keep: tuple[int, ...] = (),
                 patches: dict[int, object] | None = None
                 ) -> dict[int, np.ndarray]:
        """Run ``nodes`` over ``seeds``; return the ``want`` + ``keep`` values.

        Arena buffers are recycled once their last consumer has run.
        Values in ``keep`` (and ``want``) keep their storage out of the
        arena for this call; ``keep`` transfers ownership to the caller
        permanently (prefix caching), ``want`` storages are re-armed for
        recycling at the start of the next call.

        ``patches`` maps a value id to a callable applied to the value
        right after its producing node runs (masked evaluation uses this
        to re-zero dropped channels behind tied depthwise layers, whose
        live weights would otherwise re-populate them).
        """
        from ..obs.profile import profiler_active, record_graph_op

        arena = self._arena
        for buf in self._deferred_release:
            arena.put(buf)
        self._deferred_release = []

        pending = dict(template)
        for vid in (*want, *keep):
            pending[vid] = pending.get(vid, 0) + 1
        values: dict[int, np.ndarray] = dict(seeds)
        backing: dict[int, np.ndarray | None] = {vid: None for vid in seeds}
        alias_count: dict[int, int] = {}
        storages: dict[int, np.ndarray] = {}
        profiled = profiler_active()

        for node in nodes:
            args = [values[vid] for vid in node.inputs]
            kernel = self._KERNELS[node.kind]
            if profiled and node.kind in self._PROFILED \
                    and node.module is not None:
                start = time.perf_counter()
                out, base = kernel(self, node, *args)
                record_graph_op(node.module, self._PROFILED[node.kind],
                                args[0].shape, out.shape,
                                time.perf_counter() - start)
            else:
                out, base = kernel(self, node, *args)
            if patches is not None and node.out in patches:
                patches[node.out](out)
            values[node.out] = out
            if base is None:            # view of the (sole) input's storage
                base = backing.get(node.inputs[0])
            backing[node.out] = base
            if base is not None:
                sid = id(base)
                if sid in alias_count:
                    alias_count[sid] += 1
                else:
                    alias_count[sid] = 1
                    storages[sid] = base
            for vid in dict.fromkeys(node.inputs):
                pending[vid] = pending.get(vid, 1) - 1
                if pending[vid] == 0:
                    self._release(vid, backing, alias_count, storages)
        result = {vid: values[vid] for vid in (*want, *keep)}
        # Re-arm the wanted outputs' storages for the next call.
        seen: set[int] = set()
        for vid in want:
            base = backing.get(vid)
            if base is not None and vid not in keep and id(base) not in seen:
                seen.add(id(base))
                self._deferred_release.append(base)
        return result

    def _release(self, vid: int, backing: dict, alias_count: dict,
                 storages: dict) -> None:
        base = backing.get(vid)
        if base is None:
            return
        sid = id(base)
        alias_count[sid] -= 1
        if alias_count[sid] == 0:
            # Drop the counter too: the arena may hand this buffer out
            # again later in the same call, with the same id().
            del alias_count[sid]
            self._arena.put(storages.pop(sid))

    # -- public API ------------------------------------------------------------
    def run(self, x) -> np.ndarray:
        """One forward pass; returns the output logits array.

        The returned array is an arena buffer: valid until the next call
        on this executor (copy it to keep it).
        """
        x = np.asarray(x.data if isinstance(x, Tensor) else x)
        out = self._execute(self.nodes, self._full_pending,
                            {self._input_vid: x}, (self._output_vid,))
        return out[self._output_vid]

    __call__ = run

    def accuracy(self, images: np.ndarray, labels: np.ndarray,
                 batch_size: int = 64) -> float:
        """Top-1 accuracy, batched exactly like :func:`repro.training.evaluate`."""
        correct = 0
        for start in range(0, len(images), batch_size):
            logits = self.run(images[start:start + batch_size])
            predictions = logits.argmax(axis=1)
            correct += int(
                (predictions == labels[start:start + batch_size]).sum())
        return correct / max(labels.size, 1)

    # -- mask splitting ----------------------------------------------------
    def set_mask_unit(self, conv: Conv2d, bn: BatchNorm2d | None = None,
                      tied=()) -> None:
        """Split the graph at a prunable unit's (post-BN) output.

        Subsequent :meth:`masked_accuracy` / :meth:`masked_logits` calls
        compute the prefix once per calibration slice and re-run only
        the suffix per candidate mask, zeroing dropped channels at the
        split — bitwise equivalent to the dense masked forward.

        ``tied`` lists ``(conv, bn_or_None)`` pairs for depthwise layers
        riding on the unit's channels (see
        :class:`repro.pruning.units.DepthwiseTie`).  The eager masked
        forward zeroes their bias / batch-norm parameters so dropped
        channels stay exactly zero through them; the executor reads live
        weights, so it re-zeroes the dropped channels of each tied
        layer's (post-BN) output instead — same ``+0.0``, bit-for-bit.
        """
        vid = None
        for module in (bn, conv):
            if module is not None and id(module) in self._module_vid:
                vid = self._module_vid[id(module)]
                break
        if vid is None:
            raise GraphTraceError(
                "mask unit's conv/bn was not traced into this graph")
        rezero = []
        for tie_conv, tie_bn in tied:
            tie_vid = None
            for module in (tie_bn, tie_conv):
                if module is not None and id(module) in self._module_vid:
                    tie_vid = self._module_vid[id(module)]
                    break
            if tie_vid is None:
                raise GraphTraceError(
                    "mask unit's tied depthwise layer was not traced "
                    "into this graph")
            rezero.append(tie_vid)
        split = self._producer[vid]
        self._mask_vid = vid
        self._prefix = self.nodes[:split + 1]
        self._suffix = self.nodes[split + 1:]
        prefix_produced = {node.out for node in self._prefix}
        prefix_produced.add(self._input_vid)
        boundary = []
        for node in self._suffix:
            for v in node.inputs:
                if v in prefix_produced and v not in boundary:
                    boundary.append(v)
        if vid not in boundary:
            raise GraphTraceError("mask unit's output has no consumers "
                                  "in the traced graph suffix")
        suffix_produced = {node.out for node in self._suffix}
        for tie_vid in rezero:
            if tie_vid not in suffix_produced:
                raise GraphTraceError(
                    "mask unit's tied depthwise layer runs before the "
                    "unit itself in the traced graph")
        self._rezero_vids = rezero
        self._boundary = boundary
        self._prefix_pending = self._pending_template(self._prefix)
        self._suffix_pending = self._pending_template(self._suffix)
        self._prefix_cache.clear()

    def _prefix_values(self, x: np.ndarray, start: int,
                       key) -> dict[int, np.ndarray]:
        cache_key = (key, start, x.shape[0])
        if key is not None:
            hit = self._prefix_cache.get(cache_key)
            if hit is not None:
                return hit
        values = self._execute(self._prefix, self._prefix_pending,
                               {self._input_vid: x}, (),
                               keep=tuple(self._boundary))
        self._prefix_cache[cache_key] = values
        if key is None:                    # unkeyed: keep only until next call
            self._prefix_cache = {cache_key: values}
        return values

    def _masked_slice_logits(self, x: np.ndarray, masks: list[np.ndarray],
                             start: int, key):
        """Yield per-mask logits for one input slice.

        A generator on purpose: each yielded array is an arena buffer
        that the *next* suffix execution may recycle, so consume (or
        copy) each one before advancing.
        """
        if self._mask_vid is None:
            raise RuntimeError("call set_mask_unit() before masked evaluation")
        bvals = self._prefix_values(x, start, key)
        masked_ref = bvals[self._mask_vid]
        drops = [np.flatnonzero(~np.asarray(m, dtype=bool)) for m in masks]
        if self.mask_batch and len(masks) > 1:
            yield from self._folded_suffix(bvals, masked_ref, drops)
            return
        for drop in drops:
            seeds = dict(bvals)
            patches = None
            if drop.size:
                # The clone keeps the boundary value's memory order so
                # downstream reductions sum exactly like the dense pass.
                clone, clone_base = self._alloc_like(masked_ref,
                                                     masked_ref.dtype)
                np.copyto(clone, masked_ref)
                clone[:, drop] = 0.0
                seeds[self._mask_vid] = clone
                if self._rezero_vids:
                    def rezero(arr, d=drop):
                        arr[:, d] = 0.0
                    patches = {vid: rezero for vid in self._rezero_vids}
            result = self._execute(self._suffix, self._suffix_pending,
                                   seeds, (self._output_vid,),
                                   patches=patches)
            if drop.size:
                self._arena.put(clone_base)
            yield result[self._output_vid]

    def _folded_suffix(self, bvals: dict, masked_ref: np.ndarray,
                       drops: list[np.ndarray]) -> list[np.ndarray]:
        """Score all masks in one suffix forward (batch-folded, perf mode)."""
        arena = self._arena
        copies = len(drops)
        n = masked_ref.shape[0]
        seeds = {}
        stacked = []
        for vid in self._boundary:
            ref = bvals[vid]
            buf = arena.get((copies * n, *ref.shape[1:]), ref.dtype)
            view = buf.reshape(copies, n, *ref.shape[1:])
            view[...] = ref
            if vid == self._mask_vid:
                for m, drop in enumerate(drops):
                    if drop.size:
                        view[m][:, drop] = 0.0
            seeds[vid] = buf
            stacked.append(buf)
        patches = None
        if self._rezero_vids and any(drop.size for drop in drops):
            # Slice assignment (not reshape) so the write lands even when
            # the tied layer's output is a non-contiguous arena view.
            def rezero(arr):
                for m, drop in enumerate(drops):
                    if drop.size:
                        arr[m * n:(m + 1) * n, drop] = 0.0
            patches = {vid: rezero for vid in self._rezero_vids}
        result = self._execute(self._suffix, self._suffix_pending,
                               seeds, (self._output_vid,),
                               patches=patches)
        for buf in stacked:
            arena.put(buf)
        logits = result[self._output_vid]
        return list(logits.reshape(copies, n, *logits.shape[1:]))

    def masked_logits(self, x, masks, key=None) -> np.ndarray:
        """Logits for each candidate mask on one batch (stacked copies)."""
        x = np.asarray(x.data if isinstance(x, Tensor) else x)
        masks = [np.asarray(m) for m in masks]
        outs = self._masked_slice_logits(x, masks, 0, key)
        return np.stack([np.array(o, copy=True) for o in outs])

    def masked_accuracy(self, images: np.ndarray, labels: np.ndarray,
                        masks, batch_size: int = 64, key=None) -> np.ndarray:
        """Top-1 accuracy per candidate mask over stacked arrays.

        Batched identically to :func:`repro.training.evaluate`, so the
        unfused result is bit-for-bit the dense masked accuracy.  With a
        ``key`` the shared prefix is cached per (key, slice) across
        calls — pass a stable name per calibration set.
        """
        masks = [np.asarray(m) for m in masks]
        correct = np.zeros(len(masks), dtype=np.int64)
        for start in range(0, len(images), batch_size):
            x = images[start:start + batch_size]
            y = labels[start:start + batch_size]
            for m, logits in enumerate(
                    self._masked_slice_logits(x, masks, start, key)):
                correct[m] += int((logits.argmax(axis=1) == y).sum())
        return correct / max(labels.size, 1)


# ----------------------------------------------------------------------
# compile
# ----------------------------------------------------------------------
def compile(model: Module, example_input, *, fuse: bool = True,
            mask_batch: bool = False) -> GraphExecutor:
    """Trace ``model`` once and return a :class:`GraphExecutor`.

    Parameters
    ----------
    model:
        Any module tree built from the ``repro.nn`` layer set.  The
        model is traced in eval mode (its training flag is restored)
        and is not mutated.
    example_input:
        A representative input batch (any batch size; the executor
        generalises over the leading axis but the remaining geometry is
        baked in).
    fuse:
        Fold BatchNorm into the preceding convolution and absorb
        trailing ReLUs into conv/linear epilogues.  Fused execution is
        *approximate* (float64-accumulated, one rounding step); pass
        ``fuse=False`` for bit-exact replay of the eager forward.
    mask_batch:
        Score batches of candidate masks in a single suffix forward by
        folding them into the batch dimension (perf mode; the larger
        GEMM rounds differently, so this is not bit-exact either).

    Raises
    ------
    GraphTraceError
        When the forward uses an operation the tracer cannot record;
        fall back to eager evaluation.
    """
    if isinstance(example_input, np.ndarray):
        example_input = Tensor(example_input)
    tracer, input_vid, output_vid = _trace(model, example_input)
    nodes = tracer.nodes
    alias: dict[int, int] = {}
    if fuse:
        nodes = _fuse(nodes, input_vid, output_vid, alias)
        while output_vid in alias:
            output_vid = alias[output_vid]
    executor = GraphExecutor(model, nodes, tracer.shapes, input_vid,
                             output_vid, fused=fuse, mask_batch=mask_batch)
    # Map every traced module (including folded BN / fused ReLU modules)
    # to the value that now carries its output.  A module traced more
    # than once (a shared ReLU instance) maps to its first occurrence —
    # set_mask_unit only ever looks up conv/bn modules, which are unique.
    module_vid = executor._module_vid
    for node in tracer.nodes:     # original (pre-fusion) node list
        if node.module is None or id(node.module) in module_vid:
            continue
        vid = node.out
        while vid in alias:
            vid = alias[vid]
        module_vid[id(node.module)] = vid
    return executor
