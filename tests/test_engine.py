"""Unified pruning-engine API: protocol conformance, factory, coercion."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import (BlockHeadStart, FinetuneConfig, HeadStartConfig,
                        HeadStartPruner, MetricEngine, finetune)
from repro.data import (ArrayDataset, as_arrays, as_dataset,
                        make_cifar100_like)
from repro.models import build_model
from repro.pruning import (EngineInfo, PruningEngine, StepState,
                           available_engines, budget_keep_count,
                           build_engine, prune_unit)
from repro.pruning.baselines import (PruningContext, available_pruners,
                                     build_pruner)
from repro.runtime import (FaultPlan, ResumableRunner, ResumeMismatchError,
                           RetryPolicy, RunJournal, SimulatedCrash, inject)
from repro.training import TrainConfig, evaluate, fit


def tiny_config(**overrides):
    defaults = dict(speedup=2.0, max_iterations=8, min_iterations=4,
                    patience=4, eval_batch=48, seed=0)
    defaults.update(overrides)
    return HeadStartConfig(**defaults)


class TestFactory:
    def test_available_engines_covers_rl_and_metric_names(self):
        assert available_engines() == sorted(
            ["headstart", "block", *available_pruners()])

    @pytest.mark.parametrize("name", ["magic", "amc"])
    def test_unknown_name_raises_with_catalogue(self, name, lenet_copy,
                                                tiny_task):
        with pytest.raises(ValueError, match="unknown engine"):
            build_engine(name, lenet_copy, tiny_task.train)

    def test_builds_every_engine_kind(self, lenet_copy, resnet_copy,
                                      tiny_task):
        expected = {
            "headstart": (HeadStartPruner, "rl-map"),
            "block": (BlockHeadStart, "rl-block"),
            "li17": (MetricEngine, "metric"),
        }
        for name, (cls, kind) in expected.items():
            model = resnet_copy if name == "block" else lenet_copy
            engine = build_engine(name, model, tiny_task.train,
                                  config=tiny_config())
            assert isinstance(engine, cls)
            assert isinstance(engine, PruningEngine)
            info = engine.describe()
            assert isinstance(info, EngineInfo)
            assert info.kind == kind

    def test_builds_a_metric_engine_from_a_configured_pruner(
            self, lenet_copy, tiny_task):
        pruner = build_pruner("thinet", num_samples=8)
        engine = build_engine(pruner, lenet_copy, tiny_task.train,
                              config=tiny_config())
        assert isinstance(engine, MetricEngine)
        assert engine.pruner is pruner
        assert engine.describe().name == "thinet"

    def test_metric_engine_inherits_config_knobs(self, lenet_copy, tiny_task):
        engine = build_engine("li17", lenet_copy, tiny_task.train,
                              config=tiny_config(speedup=4.0, eval_batch=24))
        assert engine.speedup == 4.0
        assert len(engine.calibration[0]) <= 24

    def test_kwargs_forwarded_to_constructor(self, lenet_copy, tiny_task):
        engine = build_engine("headstart", lenet_copy, tiny_task.train,
                              config=tiny_config(),
                              test_set=tiny_task.test, finetune_config=None)
        assert engine.test_set is not None
        assert engine.finetune_config is None


class TestMetricEngineConformance:
    def test_run_then_apply_prunes_the_model(self, trained_lenet,
                                             calibration):
        engine = build_engine("li17", copy.deepcopy(trained_lenet),
                              calibration, speedup=2.0)
        result = engine.run()
        assert result.masks
        # run() already performed the surgery layer by layer.
        assert engine.apply(result) == 0
        # The pruned model still runs and each unit matches its budget.
        for log in result.layers:
            unit = unit_named(engine.model, log.name)
            assert unit.num_maps == log.maps_after < log.maps_before
        images, labels = calibration
        assert 0.0 <= evaluate(engine.model, images, labels) <= 1.0
        # On a fresh copy, apply() replays the masks.
        fresh = build_engine("li17", copy.deepcopy(trained_lenet),
                             calibration, speedup=2.0)
        removed = fresh.apply(result)
        assert removed == sum(log.maps_before - log.maps_after
                              for log in result.layers)
        assert_same_state(fresh.model, engine.model)

    def test_every_registered_metric_name_builds(self, lenet_copy,
                                                 calibration):
        for name in available_pruners():
            engine = build_engine(name, lenet_copy, calibration)
            info = engine.describe()
            assert info.name == name
            assert info.kind == "metric"


class TestHeadStartConformance:
    def test_apply_after_run_is_a_noop(self, lenet_copy, tiny_task):
        engine = build_engine("headstart", lenet_copy, tiny_task.train,
                              config=tiny_config(), finetune_config=None)
        result = engine.run()
        # run() already performed the surgery layer by layer.
        assert engine.apply(result) == 0

    def test_apply_replays_masks_onto_fresh_model(self, trained_lenet,
                                                  tiny_task):
        first = build_engine("headstart", copy.deepcopy(trained_lenet),
                             tiny_task.train, config=tiny_config(),
                             finetune_config=None)
        result = first.run()
        expected = sum(log.maps_before - log.maps_after
                       for log in result.layers)

        fresh = build_engine("headstart", copy.deepcopy(trained_lenet),
                             tiny_task.train, config=tiny_config(),
                             finetune_config=None)
        assert fresh.apply(result) == expected
        for log in result.layers:
            unit = next(u for u in fresh.model.prune_units()
                        if u.name == log.name)
            assert unit.num_maps == log.maps_after

    def test_apply_rejects_wrong_architecture(self, trained_lenet,
                                              trained_mini_vgg, tiny_task):
        engine = build_engine("headstart", copy.deepcopy(trained_lenet),
                              tiny_task.train, config=tiny_config(),
                              finetune_config=None)
        result = engine.run()
        other = build_engine("headstart", copy.deepcopy(trained_mini_vgg),
                             tiny_task.train, config=tiny_config(),
                             finetune_config=None)
        with pytest.raises(ValueError):
            other.apply(result)


class TestBlockConformance:
    def test_apply_returns_blocks_removed(self, resnet_copy, tiny_task):
        engine = build_engine("block", resnet_copy, tiny_task.train,
                              config=tiny_config(eval_batch=36))
        result = engine.run()
        before = sum(engine.model.blocks_per_group)
        removed = engine.apply(result)
        assert isinstance(removed, int)
        assert sum(engine.model.blocks_per_group) == before - removed


def unit_named(model, name):
    return next(unit for unit in model.prune_units() if unit.name == name)


class TestStepProtocol:
    """The per-step hooks the fault-tolerant runtime calls on an engine."""

    @pytest.mark.parametrize("name", ["headstart", "li17", "block"])
    def test_steps_are_indexed_and_named(self, name, lenet_copy, resnet_copy,
                                         tiny_task):
        model = resnet_copy if name == "block" else lenet_copy
        engine = build_engine(name, model, tiny_task.train,
                              config=tiny_config())
        specs = engine.steps()
        assert [spec.index for spec in specs] == list(range(len(specs)))
        if name == "block":
            assert [spec.name for spec in specs] == ["blocks"]
        else:
            assert [spec.name for spec in specs] == \
                [unit.name for unit in engine.active_units()]

    @pytest.mark.parametrize("name", ["headstart", "block", "li17"])
    def test_retry_config_is_the_policys_layer_config(self, name, lenet_copy,
                                                      resnet_copy,
                                                      tiny_task):
        if name == "block":
            engine = build_engine(name, resnet_copy, tiny_task.train,
                                  config=tiny_config(seed=3))
        else:   # both LeNet convolutions, so step indices differ
            engine = build_engine(name, lenet_copy, tiny_task.train,
                                  config=tiny_config(seed=3),
                                  skip_last=False)
        policy = RetryPolicy(reseed_stride=100)
        for spec in engine.steps():
            for attempt in (1, 2):
                override = engine.retry_config(spec, policy, attempt)
                if name == "li17":
                    # Metric selection has no trainable config; a retry
                    # reseeds through StepState.attempt instead.
                    assert override is None
                else:
                    assert override == policy.layer_config(
                        engine.config, spec.index, attempt)
                    assert override.seed == 3 + spec.index + 100 * attempt

    def test_replay_step_reapplies_the_journaled_mask(self, trained_lenet,
                                                      calibration):
        decided = build_engine("li17", copy.deepcopy(trained_lenet),
                               calibration, skip_last=False)
        replayed = build_engine("li17", copy.deepcopy(trained_lenet),
                                calibration, skip_last=False)
        for spec in decided.steps():
            outcome = decided.run_step(spec, StepState())
            decided.apply_step(spec, outcome, StepState())
            replayed.replay_step(spec, outcome.payload)
            assert_same_state(decided.model, replayed.model)
        # A payload without a mask decides no surgery.
        pruned = copy.deepcopy(replayed.model)
        for spec in replayed.steps():
            replayed.replay_step(spec, {})
        assert_same_state(pruned, replayed.model)


class TestDataCoercion:
    def test_as_arrays_accepts_tuple_dataset_and_indexable(self, calibration):
        images, labels = calibration
        from_tuple = as_arrays((images, labels))
        from_dataset = as_arrays(ArrayDataset(images, labels))
        assert np.array_equal(from_tuple[0], from_dataset[0])
        assert np.array_equal(from_tuple[1], from_dataset[1])

    def test_as_arrays_limit(self, calibration):
        images, labels = as_arrays(calibration, limit=10)
        assert len(images) == len(labels) == 10

    def test_as_arrays_rejects_mismatched_lengths(self, calibration):
        images, labels = calibration
        with pytest.raises(ValueError):
            as_arrays((images, labels[:-1]))

    def test_as_arrays_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            as_arrays(42)

    def test_as_dataset_wraps_arrays_and_passes_datasets_through(
            self, calibration, tiny_task):
        wrapped = as_dataset(calibration)
        assert len(wrapped) == len(calibration[0])
        assert as_dataset(tiny_task.train) is tiny_task.train

    def test_block_engine_takes_labels_with_the_data(self, resnet_copy,
                                                     calibration):
        images, labels = calibration
        with pytest.raises(TypeError):
            BlockHeadStart(resnet_copy, images, labels)
        agent = BlockHeadStart(resnet_copy, (images, labels),
                               config=tiny_config(eval_batch=36))
        assert np.array_equal(agent.full_images, images)
        assert np.array_equal(agent.full_labels, labels)

    def test_engines_agree_across_data_conventions(self, trained_lenet,
                                                   calibration):
        images, labels = calibration
        variants = [
            (images, labels),              # raw pair
            ArrayDataset(images, labels),  # dataset
        ]
        masks = []
        for data in variants:
            engine = build_engine("li17", copy.deepcopy(trained_lenet), data,
                                  speedup=2.0, seed=0)
            masks.append(engine.run().masks)
        assert masks[0].keys() == masks[1].keys()
        for name in masks[0]:
            assert np.array_equal(masks[0][name], masks[1][name])


# ---------------------------------------------------------------------------
# One step loop: a plain run decides and applies what a journaled run does.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def step_task():
    """4 classes at 12 px, 8 training and 4 test images per class."""
    return make_cifar100_like(num_classes=4, image_size=12, train_per_class=8,
                              test_per_class=4, seed=0)


@pytest.fixture(scope="module")
def pretrained(step_task):
    """vgg11 and resnet20 at width 0.25 after one epoch (do not mutate)."""
    models = {}
    for name in ("vgg11", "resnet20"):
        model = build_model(name, num_classes=4, input_size=12,
                            width_multiplier=0.25,
                            rng=np.random.default_rng(0))
        fit(model, step_task.train, None,
            TrainConfig(epochs=1, batch_size=16, lr=0.05, seed=0))
        models[name] = model
    return models


def step_engine(kind, model, task, tuned=False):
    """A fresh ``kind`` engine over a copy of ``model``, at speedup 2.

    HeadStart always fine-tunes between layers; a metric engine does
    when ``tuned`` is set.
    """
    model = copy.deepcopy(model)
    config = HeadStartConfig(speedup=2.0, max_iterations=4, min_iterations=2,
                             patience=2, eval_batch=32, seed=0, mc_samples=2)
    tune = FinetuneConfig(epochs=1, batch_size=16, lr=0.02, seed=0)
    if kind == "headstart":
        return HeadStartPruner(model, task.train, task.test, config=config,
                               finetune_config=tune)
    if kind == "block":
        return BlockHeadStart(model, task.train, config=config)
    if tuned:
        return build_engine(kind, model, task.train, config=config,
                            test_set=task.test, finetune_config=tune)
    return build_engine(kind, model, task.train, config=config)


def assert_same_masks(a, b):
    assert list(a) == list(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def assert_same_state(a, b):
    state_a, state_b = a.state_dict(), b.state_dict()
    assert state_a.keys() == state_b.keys()
    for key, value in state_a.items():
        assert value.dtype == state_b[key].dtype, key
        assert value.tobytes() == state_b[key].tobytes(), key


STEP_CASES = [pytest.param(kind, model, False, id=f"{kind}-{model}")
              for model in ("vgg11", "resnet20")
              for kind in ("headstart", "li17", "apoz", "random")] \
    + [pytest.param(kind, model, True, id=f"{kind}-finetune-{model}")
       for model in ("vgg11", "resnet20")
       for kind in ("li17", "apoz", "random")] \
    + [pytest.param("block", "resnet20", False, id="block-resnet20")]


class TestOneStepLoop:
    @pytest.mark.parametrize("kind,model_name,tuned", STEP_CASES)
    def test_plain_run_equals_journaled_run(self, kind, model_name, tuned,
                                            pretrained, step_task, tmp_path):
        plain_engine = step_engine(kind, pretrained[model_name], step_task,
                                   tuned)
        journaled_engine = step_engine(kind, pretrained[model_name],
                                       step_task, tuned)
        plain = plain_engine.run()
        journaled = ResumableRunner(engine=journaled_engine,
                                    collapse_ratio=0.0).run(
            tmp_path / "run").result
        if kind == "block":
            [(name, payload)] = [
                (record["name"], record["payload"])
                for record in RunJournal(tmp_path / "run" / "journal.jsonl")
                .read() if record["record"] == "layer_complete"]
            assert name == "blocks"
            assert plain_engine.keep_mask_by_group(plain.keep_action) \
                == payload["keep"]
            assert journaled.steps == [{
                "name": "blocks",
                "blocks_per_group": list(plain.blocks_per_group),
                "inception_accuracy": plain.inception_accuracy,
                "agent_iterations": plain.iterations}]
            plain_engine.apply(plain)
        else:
            assert_same_masks(plain.masks, journaled.masks)
            assert plain.layers == journaled.layers
            assert plain.final_accuracy == journaled.final_accuracy
            if tuned:
                assert all(log.finetuned_accuracy is not None
                           for log in plain.layers)
        assert_same_state(plain_engine.model, journaled_engine.model)

    def test_run_steps_equals_journaled_run(self, pretrained, step_task,
                                            tmp_path):
        plain_engine = step_engine("block", pretrained["resnet20"],
                                   step_task)
        journaled_engine = step_engine("block", pretrained["resnet20"],
                                       step_task)
        plain = plain_engine.run_steps()
        journaled = ResumableRunner(engine=journaled_engine,
                                    collapse_ratio=0.0).run(
            tmp_path / "run").result
        assert plain.steps == journaled.steps
        assert plain.final_accuracy == journaled.final_accuracy
        assert_same_state(plain_engine.model, journaled_engine.model)

    @pytest.mark.parametrize("kind", ["block", "li17", "apoz", "random"])
    def test_run_twice_equals_once(self, kind, pretrained, step_task):
        engine = step_engine(kind, pretrained["resnet20"], step_task)
        first = engine.run()
        if kind == "block":
            second = engine.run()
            assert first.reward_history == second.reward_history
            assert np.array_equal(first.keep_action, second.keep_action)
            assert first.loss_history == second.loss_history
            # run() decides only; the engine's model is left as it was.
            assert_same_state(engine.model, pretrained["resnet20"])
            return
        # A layer engine's run() prunes as it goes, as HeadStart's does:
        # a second engine decides the same, apply() after run() is a
        # no-op, and apply() replays the masks onto a fresh copy.
        second = step_engine(kind, pretrained["resnet20"], step_task).run()
        assert_same_masks(first.masks, second.masks)
        assert first.layers == second.layers
        assert first.final_accuracy == second.final_accuracy
        assert engine.apply(first) == 0
        fresh = step_engine(kind, pretrained["resnet20"], step_task)
        assert fresh.apply(first) == sum(log.maps_before - log.maps_after
                                         for log in first.layers)
        assert_same_state(fresh.model, engine.model)

    @pytest.mark.parametrize("name", ["li17", "apoz"])
    def test_metric_engine_equals_reference_loop(self, name, pretrained,
                                                 step_task):
        engine = step_engine(name, pretrained["vgg11"], step_task,
                             tuned=True)
        result = engine.run()

        # What the engine's steps amount to: select with the step's own
        # context, surgery, fine-tune.
        model = copy.deepcopy(pretrained["vgg11"])
        pruner, chosen = build_pruner(name), {}
        images, labels = as_arrays(step_task.train, limit=32)
        for index, unit in enumerate(model.prune_units()[:-1]):
            context = PruningContext(images, labels,
                                     np.random.default_rng((0, index, 0)))
            chosen[unit.name] = pruner.select(
                model, unit, budget_keep_count(unit.num_maps, 2.0), context)
            prune_unit(unit, chosen[unit.name])
            finetune(model, step_task.train, config=engine.finetune_config)
        assert_same_masks(result.masks, chosen)
        assert_same_state(engine.model, model)

    def test_consecutive_seeds_draw_independent_streams(self, pretrained,
                                                        step_task):
        # Seeding step i with seed + i once made seed 1's step i draw
        # exactly what seed 0's step i + 1 drew.
        masks = [build_engine("random", copy.deepcopy(pretrained["vgg11"]),
                              step_task.train, seed=seed).run().masks
                 for seed in (0, 1)]
        names = list(masks[0])
        pairs = [(a, b) for a, b in zip(names, names[1:])
                 if masks[0][a].size == masks[0][b].size >= 32]
        assert pairs
        for a, b in pairs:
            assert not np.array_equal(masks[0][b], masks[1][a]), (a, b)

    def test_journal_of_the_offset_streams_is_refused(self, pretrained,
                                                      step_task, tmp_path,
                                                      monkeypatch):
        # A metric journal whose header carries the fingerprint metric
        # engines had while step i drew from seed + i + 1009 * attempt.
        engine = step_engine("random", pretrained["vgg11"], step_task)
        monkeypatch.setattr(engine, "fingerprint", lambda: {
            "engine": "random", "speedup": 2.0, "seed": 0,
            "skip_last": True})
        with inject(FaultPlan().crash_at("runtime.layer_complete", 1)), \
                pytest.raises(SimulatedCrash):
            ResumableRunner(engine=engine, collapse_ratio=0.0).run(
                tmp_path / "run")
        resumed = ResumableRunner(
            engine=step_engine("random", pretrained["vgg11"], step_task),
            collapse_ratio=0.0)
        with pytest.raises(ResumeMismatchError):
            resumed.run(tmp_path / "run", resume=True)

    def test_pruner_settings_are_part_of_the_resume_digest(self, pretrained,
                                                           step_task,
                                                           tmp_path):
        def thinet(num_samples):
            return build_engine(build_pruner("thinet",
                                             num_samples=num_samples),
                                copy.deepcopy(pretrained["vgg11"]),
                                step_task.train, eval_batch=32)

        for written, resumed in ((4, 8), (8, 4)):
            run_dir = tmp_path / f"run-{written}"
            with inject(FaultPlan().crash_at("runtime.layer_complete", 1)), \
                    pytest.raises(SimulatedCrash):
                ResumableRunner(engine=thinet(written),
                                collapse_ratio=0.0).run(run_dir)
            with pytest.raises(ResumeMismatchError):
                ResumableRunner(engine=thinet(resumed),
                                collapse_ratio=0.0).run(run_dir, resume=True)
