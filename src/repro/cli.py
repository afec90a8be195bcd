"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the experiment lifecycle on synthetic tasks:

* ``train``   — train a registered model on a synthetic task and save a
  checkpoint;
* ``prune``   — prune a trained checkpoint (HeadStart layer-wise, or
  block-wise for ResNets) and save the pruned weights;
  ``--run-dir`` journals any mode for crash-safe resume (see
  ``docs/ROBUSTNESS.md``);
* ``profile`` — per-layer parameter/FLOP table of a model;
* ``fps``     — estimated frames-per-second on the modelled devices;
* ``metrics`` — summarise (and validate) a ``--metrics-dir`` stream,
  export it as a Chrome trace (``--trace``), or regression-diff two
  runs (``metrics diff <a> <b>``);
* ``report``  — with a run directory, write a self-contained HTML/
  Markdown run report joining the metrics stream with the runtime
  journal; without one, regenerate EXPERIMENTS.md from benchmark
  records (the legacy mode).

Every command is deterministic under ``--seed``; ``train``, ``prune``
and ``fps`` accept ``--metrics-dir`` to stream observability events
and ``--profile-ops`` to add op-level forward/backward profiling
(see ``docs/OBSERVABILITY.md``).

Shared argument groups (the synthetic-task block, the model block, the
metrics block) are defined once as argparse *parent* parsers rather
than re-declared per command.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import obs
from .analysis import Table
from .core import (BlockHeadStart, EvalOptions, FinetuneConfig,
                   HeadStartConfig, HeadStartPruner)
from .data import make_cifar100_like, make_cub200_like
from .analysis.report import write_experiments_markdown
from .gpusim import available_devices, estimate_fps, get_device
from .models import available_models, build_model
from .pruning import profile_model
from .runtime import JournalError, ResumableRunner, ResumeMismatchError
from .training import TrainConfig, evaluate_dataset, fit
from .utils import CheckpointError, save_checkpoint, load_checkpoint

__all__ = ["main", "build_parser"]


def _task_parent() -> argparse.ArgumentParser:
    """Synthetic-task arguments shared by ``train`` and ``prune``."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("task")
    group.add_argument("--dataset", choices=("cifar", "cub"), default="cifar",
                       help="synthetic task family (CIFAR- or CUB-like)")
    group.add_argument("--classes", type=int, default=10)
    group.add_argument("--image-size", type=int, default=16)
    group.add_argument("--train-per-class", type=int, default=20)
    group.add_argument("--test-per-class", type=int, default=10)
    group.add_argument("--data-seed", type=int, default=1)
    return parent


def _model_parent(classes: int | None = None,
                  image_size: int | None = None) -> argparse.ArgumentParser:
    """Model arguments shared by every command.

    ``profile``/``fps`` have no task block, so they take ``--classes`` /
    ``--image-size`` here with their own defaults.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("model")
    group.add_argument("--model", choices=available_models(),
                       default="vgg16")
    group.add_argument("--width", type=float, default=0.25,
                       help="width multiplier")
    group.add_argument("--seed", type=int, default=0)
    if classes is not None:
        group.add_argument("--classes", type=int, default=classes)
    if image_size is not None:
        group.add_argument("--image-size", type=int, default=image_size)
    return parent


def _metrics_parent() -> argparse.ArgumentParser:
    """The ``--metrics-dir``/``--profile-ops`` flags of train/prune/fps."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--metrics-dir", default=None,
                        help="stream observability events (spans, series, "
                             "counters) to <dir>/metrics.jsonl; summarise "
                             "with 'repro metrics <dir>'")
    parent.add_argument("--profile-ops", action="store_true",
                        help="time every Conv2d/Linear/BatchNorm2d forward "
                             "and backward as 'op' events with FLOP/byte "
                             "accounting (needs --metrics-dir; adds "
                             "per-call timing overhead)")
    return parent


@contextlib.contextmanager
def _metrics_recorder(args):
    """Install a recorder for the command when ``--metrics-dir`` is set.

    ``--profile-ops`` additionally installs the op-level profiler for
    the duration of the command; without a metrics dir there is nowhere
    for its events to go, so the flag is ignored with a warning.
    """
    metrics_dir = getattr(args, "metrics_dir", None)
    profile_ops = getattr(args, "profile_ops", False)
    if not metrics_dir:
        if profile_ops:
            print("warning: --profile-ops needs --metrics-dir; ignoring",
                  file=sys.stderr)
        yield None
        return
    recorder = obs.Recorder(metrics_dir)
    profiler = obs.ModuleProfiler() if profile_ops else contextlib.nullcontext()
    with recorder, obs.use_recorder(recorder), profiler:
        yield recorder
    print(f"metrics written to {recorder.sink.path}")


def _make_task(args):
    maker = make_cifar100_like if args.dataset == "cifar" else make_cub200_like
    return maker(num_classes=args.classes, image_size=args.image_size,
                 train_per_class=args.train_per_class,
                 test_per_class=args.test_per_class, seed=args.data_seed)


def _make_model(args):
    return build_model(args.model, num_classes=args.classes,
                       input_size=args.image_size,
                       width_multiplier=args.width,
                       rng=np.random.default_rng(args.seed))


def _train_config(args) -> TrainConfig:
    """Pre-training from ``--epochs``/``--batch-size``/``--lr``/``--seed``."""
    return TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                       lr=args.lr, seed=args.seed)


def _cmd_train(args) -> int:
    try:
        config = _train_config(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    task = _make_task(args)
    model = _make_model(args)
    obs.label_modules(model)  # no-op unless --profile-ops installed hooks
    history = fit(model, task.train, task.test, config)
    print(f"final test accuracy: {history.final_test_accuracy:.4f}")
    if args.out:
        path = save_checkpoint(model, args.out)
        print(f"checkpoint written to {path}")
    return 0


def _run_engine(engine, args, **runner_options):
    """Run every step of ``engine``; returns ``(result, exit_code)``.

    With ``--run-dir`` the steps run journaled; ``result`` is ``None``
    when that run failed to start (bad journal, config mismatch,
    unreadable checkpoint), and resumed/skipped reporting is shared here
    so every mode prints identically.  Without it the same steps run in
    process (``engine.run_steps()``), deciding and applying exactly what
    the journaled run does.
    """
    if not args.run_dir:
        return engine.run_steps(), 0
    runner = ResumableRunner(engine=engine, **runner_options)
    try:
        report = runner.run(args.run_dir, resume=args.resume)
    except (JournalError, ResumeMismatchError, CheckpointError) as error:
        print(f"error: {error}", file=sys.stderr)
        return None, 2
    if report.resumed_layers:
        print(f"resumed after {report.resumed_layers} journaled "
              f"step(s) from {report.journal_path}")
    # Older versions' fallback chain could journal a step another
    # engine decided; replay applies its mask all the same.
    for name, engine_name in sorted(report.degraded_steps.items()):
        print(f"step {name} completed by fallback engine {engine_name}")
    for name in report.skipped_layers:
        print(f"step {name} skipped after exhausting retries "
              f"(see journal)", file=sys.stderr)
    return report.result, 0


def _eval_options(args) -> EvalOptions:
    """The ``--eval-*`` group resolved to an :class:`EvalOptions`."""
    return EvalOptions(graph=args.eval_mode == "graph",
                       fused=args.eval_fused)


def _cmd_prune(args) -> int:
    if args.resume and not args.run_dir:
        print("error: --resume requires --run-dir", file=sys.stderr)
        return 2
    # Every flag is checked here, before the model trains.
    try:
        config = HeadStartConfig(speedup=args.speedup,
                                 max_iterations=args.iterations,
                                 min_iterations=max(4, args.iterations // 2),
                                 patience=max(4, args.iterations // 4),
                                 eval_batch=args.eval_batch, seed=args.seed,
                                 eval=_eval_options(args))
        train_config = _train_config(args)
        finetune_config = FinetuneConfig(epochs=args.finetune_epochs,
                                         batch_size=args.batch_size,
                                         lr=args.lr / 2, seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    task = _make_task(args)
    model = _make_model(args)
    if args.mode == "block" and not hasattr(model, "droppable_blocks"):
        print("error: block mode requires a model with droppable blocks "
              "(resnet*)", file=sys.stderr)
        return 2
    obs.label_modules(model)  # no-op unless --profile-ops installed hooks
    if args.checkpoint:
        try:
            load_checkpoint(model, args.checkpoint)
        except CheckpointError as error:        # missing or unreadable
            print(f"error: {error}", file=sys.stderr)
            return 2
        except (KeyError, ValueError) as error:  # another architecture's
            print(f"error: checkpoint {args.checkpoint} does not match "
                  f"--model {args.model}: {error.args[0]}", file=sys.stderr)
            return 2
    else:
        print("no checkpoint given; training the model first", file=sys.stderr)
        fit(model, task.train, None, train_config)

    if args.mode == "block":
        engine = BlockHeadStart(model, task.train, config=config)
        # The block step does not finetune in place, so the
        # accuracy-collapse guard would misfire; disable it.
        result, code = _run_engine(engine, args, collapse_ratio=0.0)
        if result is None:
            return code
        # The one "blocks" log row; absent when the step was skipped.
        inception = (result.steps[0]["inception_accuracy"]
                     if result.steps else None)
        model = engine.model
        pattern = f"learnt block pattern: {model.blocks_per_group}"
        if inception is not None:
            pattern += f" (inception accuracy {inception:.4f})"
        print(pattern)
        fit(model, task.train, None, finetune_config.as_train_config())
    else:
        engine = HeadStartPruner(model, task.train, task.test, config=config,
                                 finetune_config=finetune_config)
        result, code = _run_engine(engine, args)
        if result is None:
            return code
        model = engine.model
        table = Table(["LAYER", "#MAPS", "#AFTER", "INC. ACC", "FT ACC"])
        for log in result.layers:
            table.add_row([log.name, log.maps_before, log.maps_after,
                           log.inception_accuracy, log.finetuned_accuracy])
        print(table.render())
    accuracy = evaluate_dataset(model, task.test)
    stats = profile_model(model, (3, args.image_size, args.image_size))
    print(f"pruned accuracy: {accuracy:.4f}  "
          f"params: {stats.params_m:.3f}M  flops: {stats.flops / 1e6:.2f}M")
    if args.out:
        path = save_checkpoint(model, args.out)
        print(f"pruned checkpoint written to {path}")
    return 0


def _cmd_profile(args) -> int:
    model = _make_model(args)
    stats = profile_model(model, (3, args.image_size, args.image_size))
    table = Table(["LAYER", "KIND", "OUT SHAPE", "PARAMS", "FLOPS"],
                  title=f"{args.model} @ {args.image_size}px")
    for layer in stats.layers:
        table.add_row([layer.name, layer.kind, str(layer.output_shape),
                       layer.params, layer.flops])
    print(table.render())
    print(f"total: {stats.params_m:.3f}M params, {stats.flops_b:.4f}B flops")
    return 0


def _cmd_fps(args) -> int:
    model = _make_model(args)
    shape = (3, args.image_size, args.image_size)
    stats = profile_model(model, shape)
    table = Table(["DEVICE", "FPS"],
                  title=f"{args.model} @ {args.image_size}px, batch "
                        f"{args.batch_size}")
    devices = [args.device] if args.device else available_devices()
    for name in devices:
        device = get_device(name)
        table.add_row([device.name,
                       estimate_fps(stats, shape, device,
                                    batch_size=args.batch_size)])
    print(table.render())
    return 0


def _cmd_report(args) -> int:
    if args.run_dir:
        try:
            path = obs.write_run_report(args.run_dir, out_path=args.out,
                                        metrics_dir=args.metrics,
                                        fmt=args.format, top=args.top)
        except (FileNotFoundError, JournalError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
        return 0
    path = write_experiments_markdown(args.results,
                                      args.out or "EXPERIMENTS.md")
    print(f"wrote {path}")
    return 0


def _render_metrics_summary(summary: dict, events: list | None = None,
                            top: int = 5) -> str:
    """Human-readable tables for a metrics-dir aggregate.

    With the raw ``events`` also given, appends the top-``top`` slowest
    individual span instances (not per-name aggregates — the question
    "where did the seconds go" is about specific calls).
    """
    parts = []
    if summary["spans"]:
        table = Table(["SPAN", "COUNT", "TOTAL S", "MEAN S", "MAX S"],
                      title="span timings")
        for name in sorted(summary["spans"]):
            s = summary["spans"][name]
            table.add_row([name, s["count"], s["total_s"], s["mean_s"],
                           s["max_s"]])
        parts.append(table.render())
    if events:
        slowest = obs.slowest_spans(events, top)
        if slowest:
            table = Table(["RANK", "SPAN", "DUR S", "START S", "ATTRS"],
                          title=f"top {len(slowest)} slowest spans")
            for rank, span in enumerate(slowest, start=1):
                attrs = ", ".join(f"{k}={v}"
                                  for k, v in (span["attrs"] or {}).items())
                table.add_row([rank, span["name"], span["dur"],
                               span["start"], attrs])
            parts.append(table.render())
    if summary.get("ops"):
        table = Table(["OP", "KIND", "PHASE", "CALLS", "TOTAL S", "FLOPS",
                       "BYTES"], title="profiled ops")
        for name in sorted(summary["ops"]):
            for phase in ("forward", "backward"):
                stats = summary["ops"][name].get(phase)
                if stats:
                    table.add_row([name, stats.get("kind", ""), phase,
                                   stats["count"], stats["total_s"],
                                   stats.get("flops", 0),
                                   stats.get("bytes", 0)])
        parts.append(table.render())
    if summary["counters"]:
        table = Table(["COUNTER", "TOTAL"])
        for name in sorted(summary["counters"]):
            table.add_row([name, summary["counters"][name]])
        parts.append(table.render())
    if summary["gauges"]:
        table = Table(["GAUGE", "LAST"])
        for name in sorted(summary["gauges"]):
            table.add_row([name, summary["gauges"][name]])
        parts.append(table.render())
    if summary["series"]:
        table = Table(["SERIES", "POINTS", "FIRST", "LAST", "MIN", "MAX"])
        for name in sorted(summary["series"]):
            s = summary["series"][name]
            table.add_row([name, s["count"], s["first"], s["last"],
                           s["min"], s["max"]])
        parts.append(table.render())
    if summary.get("marks"):
        table = Table(["MARK", "COUNT"], title="annotations")
        for name in sorted(summary["marks"]):
            table.add_row([name, summary["marks"][name]])
        parts.append(table.render())
    return "\n\n".join(parts) if parts else "no events recorded"


def _cmd_metrics_diff(args) -> int:
    if len(args.rest) != 2:
        print("usage: repro metrics diff <a> <b>", file=sys.stderr)
        return 2
    a, b = args.rest
    try:
        result = obs.diff_metrics_dirs(
            a, b, wall_tolerance=args.wall_tolerance,
            min_seconds=args.min_seconds, check_wall=not args.no_wall)
    except obs.MetricsError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.render())
    return result.exit_code


def _cmd_metrics(args) -> int:
    if args.dir == "diff":
        return _cmd_metrics_diff(args)
    if args.rest:
        print(f"error: unexpected arguments {' '.join(args.rest)!r} "
              "(did you mean 'repro metrics diff <a> <b>'?)",
              file=sys.stderr)
        return 2
    try:
        # --check is an integrity gate: a torn final line (lost data)
        # must fail it, so the strict reader is used there.
        if args.check:
            events = obs.load_metrics(args.dir, strict=True)
        else:
            events, torn = obs.load_metrics_report(args.dir)
            if torn:
                print(f"note: torn final line in {args.dir} repaired "
                      "(dropped the partial record — expected after a "
                      "crash)", file=sys.stderr)
    except obs.MetricsError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.check:
        if not events:
            # An empty stream passing an integrity gate would bless a
            # run that recorded nothing; fail it like a missing stream.
            print(f"error: empty metrics stream at {args.dir}",
                  file=sys.stderr)
            return 2
        problems = obs.validate_events(events)
        if problems:
            for problem in problems:
                print(f"schema violation: {problem}", file=sys.stderr)
            return 1
        print(f"{len(events)} events, schema ok")
    if args.trace:
        trace = obs.write_chrome_trace(events, args.trace)
        problems = obs.validate_chrome_trace(trace)
        if problems:
            for problem in problems:
                print(f"trace violation: {problem}", file=sys.stderr)
            return 1
        print(f"chrome trace written to {args.trace} "
              f"({len(trace['traceEvents'])} trace events)")
    print(_render_metrics_summary(obs.summarize(events), events=events,
                                  top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="HeadStart reproduction toolbox")
    commands = parser.add_subparsers(dest="command", required=True)
    task_parent = _task_parent()
    model_parent = _model_parent()
    metrics_parent = _metrics_parent()

    train = commands.add_parser(
        "train", help="train a model",
        parents=[task_parent, model_parent, metrics_parent])
    train.add_argument("--epochs", type=int, default=8)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--lr", type=float, default=0.05)
    train.add_argument("--out", default=None, help="checkpoint path")
    train.set_defaults(handler=_cmd_train)

    prune = commands.add_parser(
        "prune", help="HeadStart-prune a model",
        parents=[task_parent, model_parent, metrics_parent])
    prune.add_argument("--checkpoint", default=None)
    prune.add_argument("--mode", choices=("layer", "block"),
                       default="layer")
    prune.add_argument("--speedup", type=float, default=2.0)
    prune.add_argument("--iterations", type=int, default=30)
    prune.add_argument("--eval-batch", type=int, default=96)
    prune.add_argument("--epochs", type=int, default=8,
                       help="pre-training epochs when no checkpoint")
    prune.add_argument("--finetune-epochs", type=int, default=2)
    prune.add_argument("--batch-size", type=int, default=32)
    prune.add_argument("--lr", type=float, default=0.05)
    prune.add_argument("--run-dir", default=None,
                       help="journal + per-step checkpoints here, making "
                            "the run crash-safe and resumable (any mode)")
    prune.add_argument("--resume", action="store_true",
                       help="continue the run journaled in --run-dir from "
                            "its first incomplete step")
    evalgrp = prune.add_argument_group(
        "evaluation fast path",
        "how candidate-mask rewards are computed; every knob is "
        "performance-only (see docs/PERFORMANCE.md)")
    # Defaults come from EvalOptions, so they are stated in one place.
    defaults = EvalOptions()
    evalgrp.add_argument("--eval-mode", choices=("dense", "graph"),
                         default=defaults.mode,
                         help="graph: static-graph executor with per-layer "
                              "prefix caching, bit-for-bit identical to "
                              "dense unless --eval-fused; dense: the eager "
                              "masked forward, graph's reference and "
                              "fallback (default: %(default)s)")
    evalgrp.add_argument("--eval-fused", action="store_true",
                         default=defaults.fused,
                         help="graph mode only: fold BatchNorm into conv "
                              "weights and fuse trailing ReLUs (~1e-8 vs "
                              "dense)")
    prune.add_argument("--out", default=None)
    prune.set_defaults(handler=_cmd_prune)

    profile = commands.add_parser(
        "profile", help="per-layer params/FLOPs",
        parents=[_model_parent(classes=10, image_size=32)])
    profile.set_defaults(handler=_cmd_profile)

    fps = commands.add_parser(
        "fps", help="estimated fps per device",
        parents=[_model_parent(classes=100, image_size=32), metrics_parent])
    fps.add_argument("--batch-size", type=int, default=1)
    fps.add_argument("--device", choices=available_devices(), default=None)
    fps.set_defaults(handler=_cmd_fps)

    metrics = commands.add_parser(
        "metrics", help="summarise a --metrics-dir event stream, export "
                        "a Chrome trace, or diff two runs")
    metrics.add_argument("dir", help="metrics directory (or .jsonl file); "
                                     "the literal 'diff' compares two runs: "
                                     "repro metrics diff <a> <b>")
    metrics.add_argument("rest", nargs="*",
                         help="for diff: the two metrics dirs (or .jsonl "
                              "files) to compare")
    metrics.add_argument("--check", action="store_true",
                         help="validate the stream against the event "
                              "schema; non-zero exit on violations "
                              "(exit 2 on unreadable/torn streams)")
    metrics.add_argument("--trace", default=None, metavar="OUT",
                         help="also export the stream as Chrome trace-event "
                              "JSON (open in chrome://tracing or Perfetto)")
    metrics.add_argument("--top", type=int, default=5,
                         help="slowest individual spans to list (default 5)")
    metrics.add_argument("--wall-tolerance", type=float, default=50.0,
                         help="diff: flag a span/op wall time more "
                              "than this percent slower (default 50)")
    metrics.add_argument("--min-seconds", type=float, default=0.05,
                         help="diff: ignore wall regressions smaller than "
                              "this absolute slowdown (default 0.05s)")
    metrics.add_argument("--no-wall", action="store_true",
                         help="diff: skip wall-time checks entirely "
                              "(cross-machine comparisons)")
    metrics.set_defaults(handler=_cmd_metrics)

    report = commands.add_parser(
        "report", help="run report from a journaled run dir; without one, "
                       "regenerate EXPERIMENTS.md from benchmark records")
    report.add_argument("run_dir", nargs="?", default=None,
                        help="a --run-dir (and/or --metrics-dir) to report "
                             "on; omit for the legacy EXPERIMENTS.md mode")
    report.add_argument("--format", choices=("html", "md"), default="html",
                        help="run-report format (default html)")
    report.add_argument("--metrics", default=None, metavar="DIR",
                        help="metrics dir when it differs from the run dir")
    report.add_argument("--top", type=int, default=5,
                        help="slowest spans to list in the run report")
    report.add_argument("--results", default="benchmarks/results",
                        help="legacy mode: benchmark records directory")
    report.add_argument("--out", default=None,
                        help="output file (default <run-dir>/report.<fmt>, "
                             "or EXPERIMENTS.md in legacy mode)")
    report.set_defaults(handler=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    with _metrics_recorder(args):
        return args.handler(args)
