"""Op/module-level profiler for the ``repro.nn`` substrate.

:class:`ModuleProfiler` hooks the three compute-layer classes
(``Conv2d``, ``Linear``, ``BatchNorm2d``) at the *class* level: every
forward of every instance — including layers rebuilt by pruning surgery
mid-run — is timed and reported to the process-wide recorder as an
``op`` event (:meth:`repro.obs.recorder.Recorder.op`), together with
deterministic FLOP and byte accounting reused from
:func:`repro.pruning.stats.layer_cost` and
:func:`repro.gpusim.latency.layer_bytes`.  Backward wall time is
attributed per module by wrapping the autograd closures the module's
forward created (:func:`repro.nn.tensor.creator_closures`), so a
profiled training step shows where both halves of every second went.

The disabled path is untouched: without :meth:`ModuleProfiler.install`
the layer classes keep their original ``forward`` and the hot path pays
nothing — the same contract as the :class:`~repro.obs.recorder
.NullRecorder` default.  With the profiler installed but only a
``NullRecorder`` current, timing overhead is paid but no events are
stored.

Usage::

    from repro import obs
    with obs.Recorder("runs/m") as rec, obs.use_recorder(rec), \
         obs.ModuleProfiler() as prof:
        obs.label_modules(model)          # dotted names instead of reprs
        fit(model, task.train, task.test, config)
    rec.aggregate()["ops"]["features.0"]["forward"]["total_s"]

CLI: ``--profile-ops`` next to ``--metrics-dir`` on ``train``/``prune``/
``fps``; the emitted ``op`` events feed ``repro metrics``, the Chrome
trace exporter and the ``repro report`` op-attribution table.
"""

from __future__ import annotations

import time

from .recorder import get_recorder

__all__ = ["ModuleProfiler", "label_modules", "module_name",
           "profiler_active", "record_graph_op"]

#: The active profiler (at most one; class-level hooks are global).
_ACTIVE: "ModuleProfiler | None" = None

#: Attribute :func:`label_modules` stores a module's dotted name under.
_LABEL = "_op_label"


def profiler_active() -> bool:
    """Whether a :class:`ModuleProfiler` is currently installed."""
    return _ACTIVE is not None


def label_modules(model, prefix: str = "") -> int:
    """Label a model's profiled modules with their dotted names.

    Without labels an op is named by the module's ``repr`` (compact for
    the hooked layer kinds, e.g. ``Conv2d(3, 16, k=3, s=1, p=1)``);
    labelling stores each module's dotted path on the module itself, so
    op events read like ``features.0`` and a deep copy of the model
    (the runtime's rollback) keeps its labels.  Layers rebuilt by
    pruning surgery after labelling fall back to reprs until
    relabelled.  A no-op when no profiler is installed.
    """
    if _ACTIVE is None:
        return 0
    count = 0
    for name, module in model.named_modules(prefix):
        if isinstance(module, _ACTIVE.kinds):
            setattr(module, _LABEL, name or type(module).__name__)
            count += 1
    return count


def module_name(module) -> str:
    """The display name of a module: its label, else its ``repr``."""
    return getattr(module, _LABEL, None) or repr(module)


def record_graph_op(module, kind: str, in_shape, out_shape,
                    dur: float) -> None:
    """Report one graph-executor node as an ``op`` event.

    The static-graph executor (:mod:`repro.nn.graph`) bypasses module
    ``forward`` calls entirely, so the class-level hooks never fire for
    it; instead the executor times each compute node and reports it here
    when a profiler is installed.  Attribution matches the eager hooks:
    the module's label (or repr), the layer-kind string, and the same
    deterministic FLOP/byte accounting.  A fused conv+BN node reports as
    its ``Conv2d`` module.  No-op when no profiler is installed.
    """
    profiler = _ACTIVE
    if profiler is None:
        return
    flops, bytes_ = profiler._op_cost(module, tuple(in_shape),
                                      tuple(out_shape))
    get_recorder().op(module_name(module), kind, "forward", dur,
                      flops=flops, bytes=bytes_)


class ModuleProfiler:
    """Times forward/backward of every Conv2d/Linear/BatchNorm2d call.

    ``install()`` swaps the classes' ``forward`` for a timing wrapper
    (restored by ``uninstall()``; also usable as a context manager).
    Only one profiler can be installed at a time.  Events go to whatever
    recorder is current *at call time*, so a profiler may outlive
    individual :func:`~repro.obs.recorder.use_recorder` scopes.

    Per event: ``phase="forward"`` carries ``dur`` plus ``flops`` (MACs,
    the same per-image accounting as ``repro.pruning.stats`` scaled by
    the batch) and ``bytes`` (input + output activations + parameters at
    FP32, the ``repro.gpusim`` roofline convention).  ``phase=
    "backward"`` events carry ``dur`` only, one per autograd closure the
    module's forward created: one per call for ``Conv2d`` and
    ``BatchNorm2d`` (each a single hand-written node), three for a
    biased ``Linear`` (transpose, matmul, bias add); totals add up.
    """

    def __init__(self):
        self._originals: dict[type, object] = {}
        # Resolved lazily at install() to avoid import cycles between
        # obs, pruning and gpusim at package-import time.
        self.kinds: tuple[type, ...] = ()
        self._layer_cost = None
        self._layer_bytes = None

    # -- cost accounting ---------------------------------------------------
    def _op_cost(self, module, in_shape, out_shape) -> tuple[int, int]:
        """(flops, bytes) of one forward call, batch included."""
        batch = int(in_shape[0]) if in_shape else 1
        params, flops = self._layer_cost(module, in_shape, out_shape)
        return flops * batch, self._layer_bytes(in_shape, out_shape,
                                                params, batch)

    # -- hook machinery ----------------------------------------------------
    def _make_wrapper(self, original, kind: str):
        perf_counter = time.perf_counter

        def profiled_forward(module, x):
            rec = get_recorder()
            start = perf_counter()
            out = original(module, x)
            dur = perf_counter() - start
            name = module_name(module)
            flops, bytes_ = self._op_cost(module, x.shape, out.shape)
            rec.op(name, kind, "forward", dur, flops=flops, bytes=bytes_)
            if out._backward is not None:
                self._hook_backward(out, x, name, kind)
            return out

        profiled_forward._repro_profiler = True
        return profiled_forward

    def _hook_backward(self, out, x, name: str, kind: str) -> None:
        """Wrap the closures this forward created with backward timers."""
        from ..nn.tensor import creator_closures
        perf_counter = time.perf_counter
        for tensor in creator_closures(out, (x,)):
            fn = tensor._backward
            if getattr(fn, "_repro_profiled", False):
                continue

            def timed(grad, _fn=fn):
                start = perf_counter()
                _fn(grad)
                get_recorder().op(name, kind, "backward",
                                  perf_counter() - start)

            timed._repro_profiled = True
            tensor._backward = timed

    # -- lifecycle ---------------------------------------------------------
    def install(self) -> "ModuleProfiler":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a ModuleProfiler is already installed")
        from ..gpusim.latency import layer_bytes
        from ..nn.modules import BatchNorm2d, Conv2d, Linear
        from ..pruning.stats import layer_cost
        self.kinds = (Conv2d, Linear, BatchNorm2d)
        self._layer_cost = layer_cost
        self._layer_bytes = layer_bytes
        for cls in self.kinds:
            self._originals[cls] = cls.forward
            cls.forward = self._make_wrapper(cls.forward, cls.__name__)
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for cls, original in self._originals.items():
            cls.forward = original
        self._originals.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "ModuleProfiler":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
