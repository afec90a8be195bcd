"""Static-graph inference executor for the ``repro.nn`` substrate.

:func:`compile` traces a :class:`~repro.nn.modules.Module` tree once —
by patching the leaf layer classes and the two tensor methods model
forwards use directly (``+`` and ``.relu()``) — into a flat,
topologically ordered op list, then returns a :class:`GraphExecutor`
that replays it.

Three properties make it the reward-evaluation path:

* **Replay.**  Each node calls the leaf module it traced, or
  ``Tensor.__add__`` / ``Tensor.relu``, in eval mode without gradients,
  and each value is dropped after its last consumer.  Unfused, the
  executor runs the eager forward's own code on its own arrays: its
  logits are ``model(x)``'s bit for bit, signed zeros included.
* **Mask-aware splitting.**  :meth:`GraphExecutor.set_mask_unit` splits
  the op list at a prunable unit's output.  All candidate masks share
  the prefix (cached per calibration slice), each mask re-runs only the
  suffix after zeroing its dropped channels — bitwise equivalent to the
  dense masked forward of :func:`repro.pruning.surgery.channel_mask`,
  because a zeroed filter row plus zeroed BN affine produces exact
  ``+0.0`` in the eager path too.
* **Opt-in fusion.**  With ``fuse=True`` BatchNorm folds into the
  preceding convolution's weights (the fold and the fused GEMM
  accumulate in float64, then round once to the eager dtype) and a
  trailing ReLU joins the conv / linear epilogue, the executor's one
  kernel — approximate, but within ~1e-8 of an eager float64 forward;
  see ``docs/PERFORMANCE.md`` for the float32 story.

Replayed nodes read weights live through their modules, but fused
constants are folded at compile time: recompile after mutating weights
when ``fuse=True``.
"""

from __future__ import annotations

import contextlib
import operator
import time
from dataclasses import dataclass

import numpy as np

from ..obs.profile import record_graph_op
from .functional import im2col
from .modules import (AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten,
                      GlobalAvgPool2d, Identity, Linear, MaxPool2d, Module,
                      ReLU, Sigmoid, Tanh)
from .tensor import Tensor, no_grad

__all__ = ["compile", "GraphExecutor", "GraphTraceError"]


class GraphTraceError(RuntimeError):
    """The module tree used an operation the tracer cannot record.

    Callers are expected to fall back to eager evaluation (the agent
    does, counting ``graph/fallbacks``); the model itself is fine.
    """


# ----------------------------------------------------------------------
# Trace
# ----------------------------------------------------------------------
@dataclass(eq=False, slots=True)
class _Node:
    """One traced op: ``kind`` + producing module + value ids, and what
    fusion folded into it."""

    kind: str
    module: Module | None
    inputs: list[int]
    out: int
    fused_weight: np.ndarray | None = None
    fused_bias: np.ndarray | None = None
    fused_relu: bool = False


#: Leaf module classes the tracer hooks; anything else (containers,
#: blocks, whole models) runs its Python forward normally and is traced
#: through the leaves it calls.
_LEAF_KINDS: dict[type, str] = {
    Conv2d: "conv", Linear: "linear", BatchNorm2d: "bn", ReLU: "relu",
    Sigmoid: "sigmoid", Tanh: "tanh", MaxPool2d: "maxpool",
    AvgPool2d: "avgpool", GlobalAvgPool2d: "gap",
    Flatten: "flatten", Dropout: "dropout", Identity: "identity",
}

#: The tensor-method nodes (``module is None``), looked up on the
#: operands at call time as the eager forward does.
_METHODS = {"add": operator.add, "relu": operator.methodcaller("relu")}

#: The active tracer (at most one; class-level hooks are global).
_TRACE: "_Tracer | None" = None


class _Tracer:
    """Records leaf-module and tensor-method calls as graph nodes."""

    def __init__(self, batch: int):
        self.batch = batch
        self.nodes: list[_Node] = []
        self._vids: dict[int, int] = {}
        self._refs: list[Tensor] = []          # keep ids stable
        self.suspended = 0

    def register(self, tensor: Tensor) -> int:
        vid = len(self._refs)
        if tensor.ndim < 1 or tensor.shape[0] != self.batch:
            raise GraphTraceError(
                "traced values must keep the batch as their leading "
                f"axis; got shape {tensor.shape}")
        self._vids[id(tensor)] = vid
        self._refs.append(tensor)
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


def _traced_method(original, kind):
    def method(*operands):
        tracer = _TRACE
        if tracer is None or tracer.suspended:
            return original(*operands)
        vids = [tracer.vid_of(operand) for operand in operands]
        if None in vids:                 # constants stay untraced; a later
            return original(*operands)   # consumer raises GraphTraceError
        with _suspend_trace():
            out = original(*operands)
        tracer.record(kind, None, vids, out)
        return out
    method._repro_tracer = True
    return method


def _trace(model: Module, example: Tensor) -> tuple[_Tracer, int, int]:
    """Run one eval forward under the hooks; return (tracer, in, out)."""
    global _TRACE
    if _TRACE is not None:
        raise RuntimeError("a graph trace is already in progress")
    tracer = _Tracer(example.shape[0])
    saved_forwards = {cls: cls.forward for cls in _LEAF_KINDS}
    saved_add = Tensor.__add__
    saved_relu = Tensor.relu
    was_training = model.training
    _TRACE = tracer
    try:
        for cls, kind in _LEAF_KINDS.items():
            cls.forward = _traced_module_forward(saved_forwards[cls], kind)
        Tensor.__add__ = _traced_method(saved_add, "add")
        Tensor.relu = _traced_method(saved_relu, "relu")
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
        if j is None or j in removed \
                or nodes[j].kind not in ("conv", "linear"):
            continue
        users = [k for k in range(len(nodes)) if k not in removed
                 and k != i and vin in [resolve(v) for v in nodes[k].inputs]]
        if users or vin == output_vid:
            continue
        nodes[j].fused_relu = True
        alias[node.out] = nodes[j].out
        removed.add(i)

    kept = [node for i, node in enumerate(nodes) if i not in removed]
    for node in kept:
        node.inputs = [resolve(v) for v in node.inputs]
    return kept


def _epilogue(node: _Node, x: Tensor) -> Tensor:
    """A fused conv or linear node, the executor's one kernel.

    A conv with a folded BatchNorm stays float64, as the eager BatchNorm
    output is (``var + eps`` promotes through a 0-d float64 scalar).
    The module's forward is not called, so the node reports itself to
    an installed profiler, as one op of the module's kind.
    """
    start = time.perf_counter()
    layer = node.module
    data = x.data
    rows = data
    if node.kind == "conv":
        k, s, p = layer.kernel_size, layer.stride, layer.padding
        rows = im2col(data, (k, k), s, p)
    if node.fused_weight is not None:
        weight, bias = node.fused_weight, node.fused_bias
    else:
        weight = layer.weight.data.reshape(layer.weight.data.shape[0], -1)
        bias = None if layer.bias is None else layer.bias.data
    out = rows @ weight.T
    if bias is not None:
        out += bias
    if node.fused_relu:
        np.maximum(out, 0, out=out)
    if node.kind == "conv":
        n, _, h, w = data.shape
        out = out.reshape(n, (h + 2 * p - k) // s + 1,
                          (w + 2 * p - k) // s + 1, -1).transpose(0, 3, 1, 2)
    record_graph_op(layer, type(layer).__name__, data.shape, out.shape,
                    time.perf_counter() - start)
    return Tensor(out)


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
def _last_uses(nodes: list[_Node], keep) -> list[list[int]]:
    """Per node, the values it is the last consumer of, bar ``keep``."""
    last = {vid: i for i, node in enumerate(nodes) for vid in node.inputs}
    dead: list[list[int]] = [[] for _ in nodes]
    for vid, i in last.items():
        if vid not in keep:
            dead[i].append(vid)
    return dead


class GraphExecutor:
    """Replays a traced op list through the modules it traced.

    Produced by :func:`compile`; see the module docstring for the
    trace / fuse / split lifecycle and the numeric contract.
    """

    def __init__(self, nodes: list[_Node], input_vid: int, output_vid: int):
        self.nodes = nodes
        self._input_vid = input_vid
        self._output_vid = output_vid
        self._dead = _last_uses(nodes, {output_vid})
        # The replay calls no container, and BatchNorm is the one traced
        # leaf whose forward reads the training flag (an eval-mode
        # Dropout returns its input, so it is never a node).
        self._batchnorms = list(dict.fromkeys(
            node.module for node in nodes
            if isinstance(node.module, BatchNorm2d)))
        self._module_vid: dict[int, int] = {}
        self._mask_vid: int | None = None    # set_mask_unit sets the split

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @contextlib.contextmanager
    def _replaying(self):
        """Eval mode without gradients; training flags are restored."""
        training = [bn for bn in self._batchnorms if bn.training]
        for bn in training:
            bn.train(False)
        try:
            with no_grad():
                yield
        finally:
            for bn in training:
                bn.train(True)

    @staticmethod
    def _execute(nodes: list[_Node], dead: list[list[int]],
                 values: dict[int, Tensor]) -> dict[int, Tensor]:
        """Run ``nodes`` over ``values``, dropping each value after its
        last consumer (``dead``); returns what is left."""
        for node, done in zip(nodes, dead):
            args = [values[vid] for vid in node.inputs]
            if node.fused_weight is not None or node.fused_relu:
                values[node.out] = _epilogue(node, *args)
            elif node.module is not None:
                values[node.out] = node.module(*args)
            else:
                values[node.out] = _METHODS[node.kind](*args)
            for vid in done:
                del values[vid]
        return values

    def run(self, x) -> np.ndarray:
        """One forward pass; returns the output logits array."""
        with self._replaying():
            values = self._execute(self.nodes, self._dead,
                                   {self._input_vid: Tensor(x)})
        return values[self._output_vid].data

    def set_mask_unit(self, conv: Conv2d,
                      bn: BatchNorm2d | None = None) -> None:
        """Split the graph at a prunable unit's (post-BN) output.

        Subsequent :meth:`masked_accuracy` / :meth:`masked_logits` calls
        compute the prefix once per calibration slice and re-run only
        the suffix per candidate mask, zeroing dropped channels at the
        split — bitwise equivalent to the dense masked forward.
        """
        vid = next((self._module_vid[id(module)] for module in (bn, conv)
                    if id(module) in self._module_vid), None)
        if vid is None:
            raise GraphTraceError(
                "mask unit's conv/bn was not traced into this graph")
        split = next(i for i, node in enumerate(self.nodes)
                     if node.out == vid)
        self._mask_vid = vid
        self._prefix = self.nodes[:split + 1]
        self._suffix = self.nodes[split + 1:]
        produced = {self._input_vid, *(node.out for node in self._prefix)}
        boundary = list(dict.fromkeys(v for node in self._suffix
                                      for v in node.inputs if v in produced))
        if vid not in boundary:
            raise GraphTraceError("mask unit's output has no consumers "
                                  "in the traced graph suffix")
        self._boundary = boundary
        self._prefix_dead = _last_uses(self._prefix, set(boundary))
        self._suffix_dead = _last_uses(self._suffix, {self._output_vid})
        self._prefix_cache: dict[tuple, dict[int, Tensor]] = {}

    def _prefix_values(self, x: np.ndarray, start: int,
                       key) -> dict[int, Tensor]:
        """The boundary values of one slice, cached per (key, slice)."""
        cache_key = (key, start, x.shape[0])
        hit = self._prefix_cache.get(cache_key)
        if hit is not None:
            return hit
        values = self._execute(self._prefix, self._prefix_dead,
                               {self._input_vid: Tensor(x)})
        boundary = {vid: values[vid] for vid in self._boundary}
        if key is not None:
            self._prefix_cache[cache_key] = boundary
        return boundary

    def _masked_slice_logits(self, x: np.ndarray, masks: list[np.ndarray],
                             start: int, key):
        """Yield per-mask logits for one input slice."""
        if self._mask_vid is None:
            raise RuntimeError("call set_mask_unit() before masked evaluation")
        boundary = self._prefix_values(x, start, key)
        masked = boundary[self._mask_vid].data
        for mask in masks:
            drop = np.flatnonzero(~np.asarray(mask, dtype=bool))
            values = dict(boundary)
            if drop.size:
                # The copy keeps the boundary value's memory order so
                # downstream reductions sum exactly like the dense pass.
                clone = masked.copy(order="K")
                clone[:, drop] = 0.0
                values[self._mask_vid] = Tensor(clone)
            values = self._execute(self._suffix, self._suffix_dead, values)
            yield values[self._output_vid].data

    def masked_logits(self, x, masks, key=None) -> np.ndarray:
        """Logits for each candidate mask on one batch, stacked."""
        with self._replaying():
            return np.stack(list(self._masked_slice_logits(x, masks, 0,
                                                           key)))

    def masked_accuracy(self, images: np.ndarray, labels: np.ndarray,
                        masks, batch_size: int, key=None) -> np.ndarray:
        """Top-1 accuracy per candidate mask over stacked arrays.

        Images run in slices of ``batch_size``.  The slice size shapes
        every GEMM, so the unfused result is bit-for-bit the dense masked
        accuracy only at :data:`repro.training.EVAL_BATCH_SIZE`, the
        slice :func:`repro.training.evaluate` runs.  With a ``key`` the
        shared prefix is cached per (key, slice) across calls — pass a
        stable name per calibration set.
        """
        masks = list(masks)
        correct = np.zeros(len(masks), dtype=np.int64)
        with self._replaying():
            for start in range(0, len(images), batch_size):
                x = images[start:start + batch_size]
                y = labels[start:start + batch_size]
                for m, logits in enumerate(
                        self._masked_slice_logits(x, masks, start, key)):
                    correct[m] += int((logits.argmax(axis=1) == y).sum())
        return correct / max(len(labels), 1)


# ----------------------------------------------------------------------
# compile
# ----------------------------------------------------------------------
def compile(model: Module, example_input, *,
            fuse: bool = True) -> GraphExecutor:
    """Trace ``model`` once and return a :class:`GraphExecutor`.

    Parameters
    ----------
    model:
        Any module tree built from the ``repro.nn`` layer set; traced
        in eval mode (its training flag is restored), not mutated.
    example_input:
        A representative input batch.  The executor generalises over
        the leading axis; the remaining geometry is baked in.
    fuse:
        Fold BatchNorm into the preceding convolution and absorb
        trailing ReLUs into conv/linear epilogues.  Fused execution is
        *approximate* (float64-accumulated, one rounding step); pass
        ``fuse=False`` for bit-exact replay of the eager forward.

    Raises :class:`GraphTraceError` when the forward uses an operation
    the tracer cannot record; fall back to eager evaluation.
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
    executor = GraphExecutor(nodes, input_vid, output_vid)
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
