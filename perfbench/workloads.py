"""The benchmark's three workloads: geometry, pipeline and checks.

Every workload is one user job on synthetic data generated from the
seed: build the model, run the pipeline through the library's public
entry points, then time eager inference of the trained model against a
half-width surgered copy of it (a fixed architecture, whatever the
search kept), the paper's Figure-6 output.  The sample returns its
timings, a digest of the searched model's state, quality numbers and
the problems its checks found.

Why these three (see README.md for the full table and the measured
phase shares):

* ``layer-resnet20`` — the journaled production path
  (``ResumableRunner``); reward evaluation is its largest phase, so
  reward-path changes (graph eval, scorer unification, prefix caching)
  show here.
* ``finetune-vgg11`` — plain ``HeadStartPruner.run``, no journal, mostly
  SGD; a search-only change barely moves it.
* ``block-resnet56`` — ``BlockHeadStart`` with the same driver and eval
  cache but a different evaluator, so a scorer change that helps layer
  search and hurts block search shows here (in ``blocks.search_s``;
  pre-training is most of its pipeline).

All workloads use the library's default ``EvalOptions``.  The iteration
count is fixed (``min_iterations == max_iterations``) so that the work a
sample does depends on the seed only through which maps survive.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import importlib
import shutil
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import training
from repro.core import BlockHeadStart, FinetuneConfig, HeadStartConfig, \
    HeadStartPruner
from repro.data import SyntheticImageTask, SyntheticSpec
from repro.gpusim import get_device, speedup_over
from repro.models import build_model
from repro.nn import Tensor, compile as graph_compile, no_grad
from repro.pruning.surgery import channel_mask, prune_unit
from repro.runtime.harness import ResumableRunner

# ``repro.core`` re-exports the ``finetune`` function under the name of
# its own module, so the module is looked up explicitly.
finetune_module = importlib.import_module("repro.core.finetune")

#: Device whose roofline model gives ``sim_speedup`` (paper Figure 6a).
SIM_DEVICE = "tx2_gpu"
#: Quality band: accuracies should clear chance by this margin and stay
#: below the ceiling, or the workload is too easy or too hard to show a
#: change in inception quality.  The band describes the geometry and
#: held on the seeds swept in README.md, but per-seed accuracy has a
#: long low tail (block inception came within 0.06 of the floor in 77
#: seeds), so a seed outside it is a note in the report.  A pruned model
#: at or below chance is broken, and fails the run.
CHANCE_MARGIN = 0.1
ACCURACY_CEILING = 0.98
#: The layer search must keep close to 1/speedup of the maps.  Block
#: search is not held to it: its speedup term is a soft reward over 27
#: whole blocks, and some seeds keep 26 of them (0.16 from 1/1.25).
BUDGET_TOLERANCE = 0.15
#: Surgered and channel-masked logits agree this closely in float64.
SURGERY_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Geometry:
    """Sizes of one workload; ``iterations`` is per searched layer."""

    model: str
    width: float
    classes: int
    image: int
    train_per_class: int
    test_per_class: int
    noise: float = 0.35
    #: Fine-grained data when positive: classes perturb shared parents.
    superclasses: int = 0
    fine_grain_scale: float = 0.35
    pretrain_epochs: int = 0
    iterations: int = 0
    finetune_epochs: int = 0
    eval_batch: int = 48
    batch_size: int = 32
    lr: float = 0.05
    speedup: float = 2.0
    infer_batch: int = 32
    #: Half-width batches of the pruning models take 3-20 ms; the lower
    #: quartile of 12 of them spread up to 0.11 over ten seeds, of 24 up
    #: to 0.05, and of 36 up to 0.04.
    infer_batches: int = 24


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "layer" or "block"
    journaled: bool
    geometry: Geometry
    smoke: Geometry      # a tiny geometry for the benchmark's own tests


WORKLOADS = {
    "layer-resnet20": Workload(
        "layer-resnet20", "layer", True,
        Geometry("resnet20", 0.5, 10, 12, 8, 8, pretrain_epochs=4,
                 iterations=4, finetune_epochs=1, eval_batch=20),
        Geometry("lenet", 0.5, 4, 12, 4, 4, pretrain_epochs=1,
                 iterations=2, finetune_epochs=1, eval_batch=8,
                 infer_batch=8, infer_batches=3)),
    "finetune-vgg11": Workload(
        "finetune-vgg11", "layer", False,
        # At 32 images a half-width batch takes about 3 ms, too short
        # to time steadily.
        Geometry("vgg11", 0.25, 10, 12, 32, 12, noise=1.6, pretrain_epochs=3,
                 iterations=3, finetune_epochs=1, eval_batch=24,
                 infer_batch=96),
        Geometry("vgg11", 0.125, 4, 8, 4, 4, pretrain_epochs=1,
                 iterations=2, finetune_epochs=1, eval_batch=8,
                 infer_batch=8, infer_batches=3)),
    "block-resnet56": Workload(
        "block-resnet56", "block", False,
        Geometry("resnet56", 0.25, 10, 12, 16, 12, noise=0.35,
                 superclasses=5, fine_grain_scale=0.25, pretrain_epochs=4,
                 iterations=8, finetune_epochs=1, eval_batch=32,
                 batch_size=8, lr=0.02, speedup=1.25),
        Geometry("resnet32", 0.25, 4, 8, 4, 4, pretrain_epochs=1,
                 iterations=2, finetune_epochs=1, eval_batch=8,
                 batch_size=8, infer_batch=8, infer_batches=3)),
}


class NullTracer:
    """The untraced sample's tracer: every hook is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def inference(self, original, pruned):
        return contextlib.nullcontext()


@dataclass
class Prepared:
    """What set-up produced: the data, the untrained model, the sizes."""

    workload: Workload
    geometry: Geometry
    seed: int
    smoke: bool
    task: object
    model: object


def setup(name: str, seed: int, smoke: bool = False) -> Prepared:
    """Synthesise the data and build the model (the timed set-up)."""
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; "
                         f"known: {sorted(WORKLOADS)}") from None
    geometry = workload.smoke if smoke else workload.geometry
    task = SyntheticImageTask(SyntheticSpec(
        num_classes=geometry.classes, image_size=geometry.image,
        train_per_class=geometry.train_per_class,
        test_per_class=geometry.test_per_class, noise=geometry.noise,
        num_superclasses=geometry.superclasses,
        fine_grain_scale=geometry.fine_grain_scale), seed=seed)
    model = build_model(geometry.model, num_classes=geometry.classes,
                        input_size=geometry.image,
                        width_multiplier=geometry.width,
                        rng=np.random.default_rng(seed))
    return Prepared(workload, geometry, seed, smoke, task, model)


def state_digest(model) -> str:
    """sha256 over the model's state, key by key in sorted order."""
    digest = hashlib.sha256()
    for key, value in sorted(model.state_dict().items()):
        value = np.ascontiguousarray(value)
        digest.update(f"{key}:{value.dtype}:{value.shape}".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


# -- pipelines -------------------------------------------------------------
def _configs(prep: Prepared) -> tuple[HeadStartConfig, FinetuneConfig]:
    geometry = prep.geometry
    config = HeadStartConfig(speedup=geometry.speedup,
                             max_iterations=geometry.iterations,
                             min_iterations=geometry.iterations,
                             eval_batch=geometry.eval_batch, seed=prep.seed)
    tune = FinetuneConfig(epochs=geometry.finetune_epochs,
                          batch_size=geometry.batch_size, lr=0.02,
                          seed=prep.seed)
    return config, tune


def _pretrain(prep: Prepared, tracer) -> None:
    geometry = prep.geometry
    with tracer.span("bench.pretrain"):
        training.fit(prep.model, prep.task.train, None,
                     training.TrainConfig(epochs=geometry.pretrain_epochs,
                                          batch_size=geometry.batch_size,
                                          lr=geometry.lr, seed=prep.seed))


def _layer_pipeline(prep: Prepared, tracer, run_dir: Path) -> dict:
    """Pre-train, then HeadStart layer by layer (journaled or plain)."""
    _pretrain(prep, tracer)
    original = copy.deepcopy(prep.model)
    config, tune = _configs(prep)
    problems: list[str] = []
    failed = 0
    with tracer.span("bench.search"):
        if prep.workload.journaled:
            shutil.rmtree(run_dir, ignore_errors=True)
            runner = ResumableRunner(prep.model, prep.task.train,
                                     prep.task.test, config=config,
                                     finetune_config=tune)
            report = runner.run(run_dir)
            result = report.result
            failed = (len(report.skipped_layers) + len(report.degraded_steps)
                      + sum(report.retried_layers.values()))
            if failed:
                problems.append(
                    f"journaled run was not clean: skipped "
                    f"{report.skipped_layers}, degraded "
                    f"{report.degraded_steps}, retried "
                    f"{report.retried_layers}")
        else:
            result = HeadStartPruner(prep.model, prep.task.train,
                                     prep.task.test, config=config,
                                     finetune_config=tune).run()
    shutil.rmtree(run_dir, ignore_errors=True)
    inception = float(np.mean([log.inception_accuracy
                               for log in result.layers]))
    return {"original": original, "pruned": prep.model,
            "steps": len(result.layers), "failed": failed,
            "problems": problems,
            "maps_removed": sum(log.maps_before - log.maps_after
                                for log in result.layers),
            "quality": {"final_accuracy": float(result.final_accuracy),
                        "inception_accuracy": inception,
                        "budget_error": abs(result.learnt_compression
                                            - 1.0 / prep.geometry.speedup)}}


def _block_pipeline(prep: Prepared, tracer, run_dir: Path) -> dict:
    """Pre-train, block search, ``with_blocks`` rebuild, fine-tune."""
    _pretrain(prep, tracer)
    original = copy.deepcopy(prep.model)
    config, tune = _configs(prep)
    engine = BlockHeadStart(prep.model, prep.task.train, config=config)
    result = engine.run()
    engine.apply(result, rng=np.random.default_rng(prep.seed))
    pruned = engine.model
    # Scored on the test split after timing: the engine's own inception
    # accuracy uses one calibration batch, too few images to be steady.
    inception = copy.deepcopy(pruned)
    with tracer.span("bench.finetune"):
        finetune_module.finetune(pruned, prep.task.train, config=tune)
    with tracer.span("bench.final_eval"):
        final = training.evaluate_dataset(pruned, prep.task.test)
    kept = sum(pruned.blocks_per_group) / engine.total_blocks
    return {"original": original, "pruned": pruned, "steps": 1,
            "failed": 0, "problems": [], "maps_removed": 0,
            "inception_model": inception,
            "quality": {"final_accuracy": float(final),
                        "budget_error": abs(kept - 1.0 / config.speedup)}}


PIPELINES = {"layer": _layer_pipeline, "block": _block_pipeline}


def half_mask(num_maps: int) -> np.ndarray:
    """The fixed inference-phase mask: keep every other map."""
    mask = np.zeros(num_maps, dtype=bool)
    mask[::2] = True
    return mask


def half_pruned(model):
    """A copy of ``model`` with every unit surgered to :func:`half_mask`."""
    pruned = copy.deepcopy(model)
    for unit in pruned.prune_units():
        prune_unit(unit, half_mask(unit.num_maps))
    return pruned


# -- inference timing ------------------------------------------------------
def infer_batches(prep: Prepared) -> list[np.ndarray]:
    """The inference phase's input batches, cycled from the test split."""
    images = prep.task.test.images
    size = prep.geometry.infer_batch
    starts = range(0, max(len(images) - size, 0) + 1, size)
    pool = [images[start:start + size] for start in starts]
    return [pool[i % len(pool)] for i in range(prep.geometry.infer_batches)]


class HostReference:
    """A fixed kernel that runs no repro code, timed next to the workload.

    One pass is a BLAS matmul, an elementwise pass over an array larger
    than the caches and a Python loop, then an im2col convolution written
    in plain numpy: the kinds of work the pipeline does.  The host this
    benchmark runs on is shared and its speed drifts by tens of percent
    within seconds; dividing a time by the reference measured beside it
    cancels most of that drift (see ``run.py``).  With the convolution
    the residual drift of a training or inference slice was 15-25 %
    smaller than without it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((128, 576)).astype(np.float32)
        self.b = rng.standard_normal((576, 256)).astype(np.float32)
        self.v = rng.standard_normal(200_000).astype(np.float32)
        self.image = rng.standard_normal((32, 16, 14, 14)).astype(np.float32)
        self.kernel = rng.standard_normal((16 * 9, 32)).astype(np.float32)

    def ms(self) -> float:
        """CPU ms of one pass."""
        start = time.thread_time()
        for _ in range(20):
            self.a @ self.b
            np.maximum(self.v, 0.0)
            total = 0
            for i in range(2000):
                total += i
        for _ in range(2):
            padded = np.pad(self.image, ((0, 0), (0, 0), (1, 1), (1, 1)))
            windows = np.lib.stride_tricks.sliding_window_view(
                padded, (3, 3), axis=(2, 3))
            columns = np.ascontiguousarray(
                windows.transpose(0, 2, 3, 1, 4, 5)).reshape(-1, 16 * 9)
            np.maximum(columns @ self.kernel, 0.0)
        return (time.thread_time() - start) * 1e3

    def median_ms(self, passes: int) -> float:
        return float(np.median([self.ms() for _ in range(passes)]))

    @contextlib.contextmanager
    def sampling(self, every_s: float = 0.25):
        """Run one pass per ``every_s`` of process CPU time, by SIGPROF.

        Yields the list the passes' CPU ms are appended to.  The passes
        land between bytecodes wherever the pipeline is, so they sample
        the host's speed across it; their time is the caller's to
        subtract.  While the timer is armed the kernel updates the
        process CPU clock only once per tick, so every time in a sample
        is read from the thread CPU clock, which stays exact (the sample
        is single-threaded).
        """
        passes: list[float] = []
        previous = signal.signal(signal.SIGPROF,
                                 lambda signum, frame: passes.append(self.ms()))
        signal.setitimer(signal.ITIMER_PROF, every_s, every_s)
        try:
            yield passes
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)


def time_inference(original, pruned, batches,
                   reference: HostReference) -> tuple[list, list, list]:
    """Per-batch eager ``no_grad`` CPU ms: original, pruned, reference.

    The two models alternate batch by batch, and one reference pass
    follows each pair, so all three see the same host speed.
    """
    original.eval()
    pruned.eval()
    timings: tuple[list, list, list] = ([], [], [])
    clock = time.thread_time
    with no_grad():
        for batch in batches:
            x = Tensor(batch)
            for model, out in zip((original, pruned), timings):
                start = clock()
                model(x)
                out.append((clock() - start) * 1e3)
            timings[2].append(reference.ms())
    return timings


def time_graph_inference(model, batches) -> list[float]:
    """Per-batch CPU ms of the unfused compiled executor on ``model``."""
    executor = graph_compile(model, Tensor(batches[0][:1]), fuse=False)
    timings = []
    for batch in batches:
        start = time.thread_time()
        executor.run(batch)
        timings.append((time.thread_time() - start) * 1e3)
    return timings


# -- checks ----------------------------------------------------------------
def _quality_checks(prep: Prepared,
                    quality: dict) -> tuple[list[str], list[str]]:
    """Problems (the run fails) and band notes (it does not).

    They describe the full geometry only; the smoke geometry is too
    small to learn anything.
    """
    problems: list[str] = []
    notes: list[str] = []
    if prep.smoke:
        return problems, notes
    chance = 1.0 / prep.geometry.classes
    floor = chance + CHANCE_MARGIN
    for key in ("final_accuracy", "inception_accuracy"):
        value = quality[key]
        if not value > chance:
            problems.append(f"{key} {value:.3f} is not above chance "
                            f"({chance:.2f})")
        elif not floor < value < ACCURACY_CEILING:
            notes.append(f"{key} {value:.3f} is outside the informative "
                         f"band ({floor:.2f}, {ACCURACY_CEILING})")
    if prep.workload.kind == "layer" \
            and quality["budget_error"] > BUDGET_TOLERANCE:
        problems.append(f"budget_error {quality['budget_error']:.3f} "
                        f"exceeds {BUDGET_TOLERANCE}")
    return problems, notes


def _inference_problems(prep: Prepared, original, pruned) -> list[str]:
    """On the timed pair: surgery equals masking, unfused graph equals eager."""
    problems = []
    x = prep.task.test.images[:4].astype(np.float64)
    original.eval()
    pruned.eval()
    with contextlib.ExitStack() as stack, no_grad():
        for unit in original.prune_units():
            stack.enter_context(channel_mask(unit, half_mask(unit.num_maps)))
        masked = original(Tensor(x)).data.copy()
    with no_grad():
        surgered = pruned(Tensor(x)).data
    drift = float(np.max(np.abs(masked - surgered)))
    if not drift <= SURGERY_TOLERANCE:
        problems.append(f"surgered logits differ from the masked original "
                        f"by {drift:.3g} (> {SURGERY_TOLERANCE})")
    batch = prep.task.test.images[:prep.geometry.infer_batch]
    with no_grad():
        eager = pruned(Tensor(batch)).data.copy()
    graph = graph_compile(pruned, Tensor(batch[:1]), fuse=False).run(batch)
    if not np.array_equal(eager, graph):
        problems.append("unfused compiled executor does not reproduce the "
                        "eager forward bit for bit")
    return problems


def run_sample(prep: Prepared, run_dir: Path, tracer=None) -> dict:
    """Run the workload's pipeline and inference phase once.

    With a ``tracer`` the pipeline runs without reference passes: a pass
    would land inside whichever span is open and inflate it, so the
    traced pipeline is scaled by passes run just before and after it.
    """
    traced = tracer is not None
    tracer = tracer if traced else NullTracer()
    batches = infer_batches(prep)
    reference = HostReference()
    passes = 3 if prep.smoke else 15
    reference_before_ms = reference.median_ms(passes)
    sampler = contextlib.nullcontext([]) if traced else reference.sampling()
    start, start_cpu = time.perf_counter(), time.thread_time()
    with tracer.span("pipeline"):
        with sampler as sampled_ms:
            outcome = PIPELINES[prep.workload.kind](prep, tracer, run_dir)
    # The reference passes inside the pipeline are not the workload's.
    pipeline_cpu_s = time.thread_time() - start_cpu - sum(sampled_ms) / 1e3
    pipeline_wall_s = time.perf_counter() - start - sum(sampled_ms) / 1e3
    if not sampled_ms:
        # Traced, or too short to be sampled: bracket the pipeline.
        sampled_ms = [reference_before_ms, reference.median_ms(passes)]

    original, pruned = outcome["original"], outcome["pruned"]
    # Which maps the search keeps depends on the seed, and so does the
    # searched model's speed (its ten-seed spread exceeded the bounds).
    # A fixed half-width copy of the trained network is timed instead, so
    # infer_ms and host_speedup measure the forward kernels.
    timed = half_pruned(original)
    with tracer.inference(original, timed):
        orig_ms, pruned_ms, reference_ms = time_inference(
            original, timed, batches, reference)

    quality = outcome["quality"]
    if "inception_model" in outcome:
        quality["inception_accuracy"] = training.evaluate_dataset(
            outcome["inception_model"], prep.task.test)
    problems, notes = _quality_checks(prep, quality)
    problems = (list(outcome["problems"]) + problems
                + _inference_problems(prep, original, timed))
    shape = (3, prep.geometry.image, prep.geometry.image)
    return {
        "pipeline_cpu_s": pipeline_cpu_s,
        "pipeline_wall_s": pipeline_wall_s,
        "reference_before_ms": reference_before_ms,
        "reference_pipeline_ms": sampled_ms,
        "reference_ms": reference_ms,
        "orig_ms": orig_ms,
        "pruned_ms": pruned_ms,
        "digest": state_digest(pruned),
        "quality": quality,
        "maps_removed": outcome["maps_removed"],
        "sim_speedup": float(speedup_over(
            pruned, original, shape, get_device(SIM_DEVICE),
            batch_size=prep.geometry.infer_batch)),
        "attempted": outcome["steps"] + len(batches),
        "failed": outcome["failed"],
        "problems": problems,
        "notes": notes,
        "models": (original, timed),
        "batches": batches,
        "input_shape": shape,
    }
