"""Spans recorded from outside the library, and the per-layer metrics.

:class:`SpanTracer` wraps public callables at the sites they are looked
up from (a module attribute, or a method on its class), records one span
per call in memory and restores every original on exit.  The library is
not edited: the library's own recorder still runs, and its counters are
read next to these spans.

A span is ``{id, name, start, end, parent, workload, sample}`` with times
in seconds from the tracer's creation.  Self time is a span's duration
minus the time its direct children cover; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

#: (module, attribute) of every wrapped callable.  An attribute with a
#: dot is a method on a class of that module.  The span is named after
#: the site, e.g. ``core.pruner.finetune`` or ``LayerAgent.run``.
WRAPPED = (
    ("repro.training", "fit"),
    ("repro.core.finetune", "fit"),
    # Looked up at call time by the journaled runner's collapse guard.
    ("repro.training", "evaluate"),
    ("repro.core.pruner", "finetune"),
    ("repro.core.pruner", "evaluate_dataset"),
    ("repro.core.pruner", "prune_unit"),
    ("repro.core.agent", "LayerAgent.run"),
    ("repro.core.agent", "evaluate"),
    ("repro.core.agent", "graph_compile"),
    ("repro.core.reinforce", "ReinforceDriver.run"),
    ("repro.nn.graph", "GraphExecutor.masked_accuracy"),
    ("repro.core.blocks", "evaluate"),
    ("repro.core.blocks", "BlockHeadStart.run"),
    ("repro.core.blocks", "BlockHeadStart.apply"),
    ("repro.runtime.journal", "RunJournal.append"),
    ("repro.runtime.harness", "save_checkpoint"),
    ("repro.runtime.harness", "check_model"),
)

#: Spans that evaluate one candidate mask (or a batch of them).
REWARD_SPANS = frozenset({"core.agent.evaluate", "core.blocks.evaluate",
                          "GraphExecutor.masked_accuracy"})
#: Spans that only contain phases: their self time is unattributed.
CONTAINER_SPANS = frozenset({"pipeline", "bench.search"})
#: ``layer.<i>.search_s`` slots, one per searched layer in forward order.
LAYER_SLOTS = 8


def span_name(module: str, attr: str) -> str:
    return attr if "." in attr else f"{module.removeprefix('repro.')}.{attr}"


def resolve(module: str, attr: str) -> tuple[object, str]:
    """The object that owns a :data:`WRAPPED` entry, and the leaf name."""
    owner = importlib.import_module(module)
    *classes, leaf = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, leaf


def restored() -> bool:
    """Whether no :data:`WRAPPED` site still holds a tracing wrapper."""
    return not any(hasattr(getattr(*resolve(module, attr)), "_perfbench_span")
                   for module, attr in WRAPPED)


class SpanTracer:
    """Records spans around wrapped library callables and bench phases."""

    def __init__(self, workload: str, sample: str):
        self.workload = workload
        self.sample = sample
        self.spans: list[dict] = []
        self.infer_recorder = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        clock = time.perf_counter
        index = len(self.spans)
        span = {"id": index, "name": name, "start": clock() - self._t0,
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload, "sample": self.sample}
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span["end"] = clock() - self._t0

    @contextlib.contextmanager
    def inference(self, original, pruned):
        """The inference phase: labelled ops on a recorder of its own.

        Conv forward times of this phase alone feed the host roofline
        fit, so its op events must not mix with the pipeline's.
        """
        from repro.obs import Recorder, label_modules, use_recorder
        label_modules(original, "original")
        label_modules(pruned, "pruned")
        self.infer_recorder = Recorder()
        with self.span("bench.infer"), use_recorder(self.infer_recorder):
            yield

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced._perfbench_span = name
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, name))
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every callable in :data:`WRAPPED`; restore them on exit."""
        try:
            for module, attr in WRAPPED:
                self.patch(*resolve(module, attr), span_name(module, attr))
            yield self
        finally:
            self.restore()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus its direct children's durations."""
    own = {span["id"]: duration(span) for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= duration(span)
    return own


def _ancestors(span: dict, by_id: dict[int, dict]):
    parent = span["parent"]
    while parent is not None:
        yield by_id[parent]
        parent = by_id[parent]["parent"]


def span_metrics(spans: list[dict], aggregate: dict) -> dict[str, float]:
    """Per-layer metrics of the pipeline layers, from spans and counters.

    ``aggregate`` is the library recorder's in-memory view
    (:meth:`repro.obs.Recorder.aggregate`) of the same sample.
    """
    by_id = {span["id"]: span for span in spans}
    counters = aggregate["counters"]
    iterations = aggregate["series"].get("reinforce/reward", {})

    def total(*names: str) -> float:
        return sum(duration(s) for s in spans if s["name"] in names)

    def under(name: str):
        return [s for s in spans
                if any(a["name"] == name for a in _ancestors(s, by_id))]

    in_driver = under("ReinforceDriver.run")
    # Innermost reward spans only: a graph masked_accuracy may sit inside
    # an agent evaluate, and both must not be counted.
    rewards = [s for s in in_driver if s["name"] in REWARD_SPANS
               and not any(a["name"] in REWARD_SPANS
                           for a in _ancestors(s, by_id))]
    reward_s = sum(duration(s) for s in rewards)
    run_s = total("ReinforceDriver.run")
    fit_s = total("training.fit", "core.finetune.fit")
    hits = counters.get("evalcache/hits", 0)
    lookups = hits + counters.get("evalcache/misses", 0)
    selfs = self_times(spans)
    searches = [duration(s) for s in spans if s["name"] == "LayerAgent.run"]

    metrics = {
        "training.pretrain_s": total("bench.pretrain"),
        "training.finetune_s": total("core.pruner.finetune",
                                     "bench.finetune"),
        "training.examples_per_s":
            counters.get("train/examples_seen", 0) / fit_s if fit_s else 0.0,
        "training.eval_s": total("core.pruner.evaluate_dataset",
                                 "bench.final_eval"),
        "reinforce.run_s": run_s,
        "reinforce.reward_s": reward_s,
        "reinforce.policy_s": run_s - reward_s,
        "reinforce.iterations": iterations.get("count", 0),
        "reinforce.reward_evals": counters.get("reinforce/reward_evals", 0),
        "reinforce.reward_invocations": len(rewards),
        "reinforce.evals_per_s": len(rewards) / reward_s if reward_s else 0.0,
        "agent.overhead_s": total("LayerAgent.run") - sum(
            duration(s) for s in under("LayerAgent.run")
            if s["name"] == "ReinforceDriver.run"),
        "evalcache.hit_rate": hits / lookups if lookups else 0.0,
        "evalcache.lookups": lookups,
        "graph.compile_s": total("core.agent.graph_compile"),
        "graph.masked_s": total("GraphExecutor.masked_accuracy"),
        "graph.fallbacks": counters.get("graph/fallbacks", 0),
        "blocks.search_s": total("BlockHeadStart.run"),
        "blocks.rebuild_s": total("BlockHeadStart.apply"),
        "surgery.s": total("core.pruner.prune_unit"),
        "runtime.journal_s": total("RunJournal.append"),
        "runtime.checkpoint_s": total("runtime.harness.save_checkpoint"),
        "runtime.validate_s": total("runtime.harness.check_model",
                                    "training.evaluate"),
        "unattributed_s": sum(selfs[s["id"]] for s in spans
                              if s["name"] in CONTAINER_SPANS),
    }
    for slot in range(LAYER_SLOTS):
        metrics[f"layer.{slot}.search_s"] = \
            searches[slot] if slot < len(searches) else 0.0
    return metrics


_OP_KINDS = (("conv2d", "Conv2d"), ("batchnorm2d", "BatchNorm2d"),
             ("linear", "Linear"))


def op_metrics(*op_tables: dict) -> dict[str, float]:
    """Forward/backward seconds per layer kind over every profiled op."""
    seconds: dict[tuple[str, str], float] = {}
    conv_flops = 0
    for ops in op_tables:
        for phases in ops.values():
            for phase, stats in phases.items():
                key = (stats["kind"], phase)
                seconds[key] = seconds.get(key, 0.0) + stats["total_s"]
                if stats["kind"] == "Conv2d" and phase == "forward":
                    conv_flops += stats["flops"]
    metrics = {}
    for short, kind in _OP_KINDS:
        metrics[f"nn.{short}.fwd_s"] = seconds.get((kind, "forward"), 0.0)
        metrics[f"nn.{short}.bwd_s"] = seconds.get((kind, "backward"), 0.0)
    conv_s = metrics["nn.conv2d.fwd_s"]
    metrics["nn.conv2d.gmacs_per_s"] = conv_flops / conv_s / 1e9 \
        if conv_s else 0.0
    return metrics


def chrome_trace(samples: list[list[dict]]) -> dict:
    """A Chrome trace of traced samples, one process row per workload."""
    events: list[dict] = []
    pids: dict[str, int] = {}
    for spans in samples:
        if not spans:
            continue
        workload = spans[0]["workload"]
        pid = pids.setdefault(workload, len(pids) + 1)
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": workload}})
        selfs = self_times(spans)
        names = {span["id"]: span["name"] for span in spans}
        for span in spans:
            events.append({
                "ph": "X", "pid": pid, "tid": 1, "name": span["name"],
                "ts": round(span["start"] * 1e6, 3),
                "dur": round(duration(span) * 1e6, 3),
                "args": {"sample": span["sample"],
                         "parent": names.get(span["parent"]),
                         "self_ms": round(selfs[span["id"]] * 1e3, 3)}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
