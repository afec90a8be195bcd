"""Unified pruning-engine API: protocol conformance, factory, coercion."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import (BlockHeadStart, FinetuneConfig, HeadStartConfig,
                        HeadStartPruner)
from repro.core.amc import AMCConfig, AMCLitePruner
from repro.data import (ArrayDataset, as_arrays, as_dataset,
                        make_cifar100_like)
from repro.models import build_model
from repro.pruning import (EngineInfo, MetricEngine, PruningEngine,
                           available_engines, build_engine,
                           prune_whole_model)
from repro.pruning.baselines import (PruningContext, available_pruners,
                                     build_pruner)
from repro.runtime import ResumableRunner
from repro.training import TrainConfig, evaluate, fit


def tiny_config(**overrides):
    defaults = dict(speedup=2.0, max_iterations=8, min_iterations=4,
                    patience=4, eval_batch=48, seed=0)
    defaults.update(overrides)
    return HeadStartConfig(**defaults)


class TestFactory:
    def test_available_engines_covers_rl_and_metric_names(self):
        names = available_engines()
        for name in ("headstart", "block", "amc"):
            assert name in names
        for name in available_pruners():
            assert name in names

    def test_unknown_name_raises_with_catalogue(self, lenet_copy, tiny_task):
        with pytest.raises(ValueError, match="unknown engine"):
            build_engine("magic", lenet_copy, tiny_task.train)

    def test_builds_every_engine_kind(self, lenet_copy, resnet_copy,
                                      tiny_task):
        expected = {
            "headstart": (HeadStartPruner, "rl-map"),
            "block": (BlockHeadStart, "rl-block"),
            "amc": (AMCLitePruner, "rl-ratio"),
            "li17": (MetricEngine, "metric"),
        }
        for name, (cls, kind) in expected.items():
            model = resnet_copy if name == "block" else lenet_copy
            config = AMCConfig() if name == "amc" else tiny_config()
            engine = build_engine(name, model, tiny_task.train, config=config)
            assert isinstance(engine, cls)
            assert isinstance(engine, PruningEngine)
            info = engine.describe()
            assert isinstance(info, EngineInfo)
            assert info.kind == kind

    def test_metric_engine_inherits_config_knobs(self, lenet_copy, tiny_task):
        engine = build_engine("li17", lenet_copy, tiny_task.train,
                              config=tiny_config(speedup=4.0, eval_batch=24))
        assert engine.speedup == 4.0
        assert len(engine.images) <= 24

    def test_kwargs_forwarded_to_constructor(self, lenet_copy, tiny_task):
        engine = build_engine("headstart", lenet_copy, tiny_task.train,
                              config=tiny_config(),
                              test_set=tiny_task.test, finetune_config=None)
        assert engine.test_set is not None
        assert engine.finetune_config is None


class TestMetricEngineConformance:
    def test_run_then_apply_prunes_the_model(self, lenet_copy, calibration):
        engine = build_engine("li17", lenet_copy, calibration, speedup=2.0)
        result = engine.run()
        assert result.masks
        removed = engine.apply(result)
        assert isinstance(removed, int) and removed > 0
        # The pruned model still runs and each unit matches its budget.
        for unit in engine.units:
            assert unit.num_maps == result.keep_counts[unit.name]
        images, labels = calibration
        assert 0.0 <= evaluate(lenet_copy, images, labels) <= 1.0

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


class TestAMCConformance:
    def test_run_then_apply_returns_removed_count(self, lenet_copy,
                                                  calibration):
        engine = build_engine("amc", lenet_copy, calibration,
                              config=AMCConfig(episodes=4, eval_batch=32,
                                               seed=0))
        result = engine.run()
        removed = engine.apply(result)
        assert isinstance(removed, int) and removed >= 0
        assert len(result.reward_history) == 4


class TestBlockConformance:
    def test_apply_returns_blocks_removed(self, resnet_copy, tiny_task):
        engine = build_engine("block", resnet_copy, tiny_task.train,
                              config=tiny_config(eval_batch=36))
        result = engine.run()
        before = sum(engine.model.blocks_per_group)
        removed = engine.apply(result)
        assert isinstance(removed, int)
        assert sum(engine.model.blocks_per_group) == before - removed


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

    def test_legacy_positional_labels_still_supported(self, resnet_copy,
                                                      calibration):
        images, labels = calibration
        agent = BlockHeadStart(resnet_copy, images, labels,
                               tiny_config(eval_batch=36))
        assert np.array_equal(agent.full_images, images)
        assert np.array_equal(agent.full_labels, labels)


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


def step_engine(kind, model, task):
    """A fresh ``kind`` engine over a copy of ``model``, at speedup 2."""
    model = copy.deepcopy(model)
    config = HeadStartConfig(speedup=2.0, max_iterations=4, min_iterations=2,
                             patience=2, eval_batch=32, seed=0, mc_samples=2)
    if kind == "headstart":
        return HeadStartPruner(
            model, task.train, task.test, config=config,
            finetune_config=FinetuneConfig(epochs=1, batch_size=16, lr=0.02,
                                           seed=0))
    if kind == "block":
        return BlockHeadStart(model, task.train, config=config)
    if kind == "amc":
        return AMCLitePruner(model, task.train,
                             config=AMCConfig(speedup=2.0, episodes=4,
                                              eval_batch=32, seed=0))
    return build_engine(kind, model, task.train, speedup=2.0, eval_batch=32,
                        seed=0)


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


STEP_CASES = [(kind, model) for model in ("vgg11", "resnet20")
              for kind in ("headstart", "li17", "apoz", "random", "amc")] \
    + [("block", "resnet20")]


class TestOneStepLoop:
    @pytest.mark.parametrize("kind,model_name", STEP_CASES)
    def test_plain_run_equals_journaled_run(self, kind, model_name,
                                            pretrained, step_task, tmp_path):
        plain_engine = step_engine(kind, pretrained[model_name], step_task)
        journaled_engine = step_engine(kind, pretrained[model_name],
                                       step_task)
        plain = plain_engine.run()
        journaled = ResumableRunner(engine=journaled_engine,
                                    collapse_ratio=0.0).run(
            tmp_path / "run").result
        if kind == "block":
            assert plain_engine.keep_mask_by_group(plain.keep_action) \
                == journaled.payloads["blocks"]["keep"]
            assert journaled.steps == [{
                "name": "blocks",
                "blocks_per_group": list(plain.blocks_per_group),
                "inception_accuracy": plain.inception_accuracy,
                "agent_iterations": plain.iterations}]
        elif kind == "amc":
            assert journaled.steps[0] == {
                "name": "sweep", "best_accuracy": plain.best_accuracy,
                "episodes": len(plain.reward_history)}
            assert_same_masks(plain.masks, journaled.masks)
        elif kind == "headstart":
            assert_same_masks(plain.masks, journaled.masks)
            assert plain.layers == journaled.layers
            assert plain.final_accuracy == journaled.final_accuracy
        else:
            assert_same_masks(plain.masks, journaled.masks)
            assert plain.steps == journaled.steps
            assert plain.final_accuracy == journaled.final_accuracy
        if kind != "headstart":
            plain_engine.apply(plain)
        assert_same_state(plain_engine.model, journaled_engine.model)

    @pytest.mark.parametrize("kind", ["block", "amc"])
    def test_run_steps_equals_journaled_run(self, kind, pretrained,
                                            step_task, tmp_path):
        plain_engine = step_engine(kind, pretrained["resnet20"], step_task)
        journaled_engine = step_engine(kind, pretrained["resnet20"],
                                       step_task)
        plain = plain_engine.run_steps()
        journaled = ResumableRunner(engine=journaled_engine,
                                    collapse_ratio=0.0).run(
            tmp_path / "run").result
        assert plain.steps == journaled.steps
        assert_same_masks(plain.masks, journaled.masks)
        assert plain.final_accuracy == journaled.final_accuracy
        assert_same_state(plain_engine.model, journaled_engine.model)

    @pytest.mark.parametrize("kind", ["block", "amc"])
    def test_run_twice_equals_once(self, kind, pretrained, step_task):
        engine = step_engine(kind, pretrained["resnet20"], step_task)
        first, second = engine.run(), engine.run()
        assert first.reward_history == second.reward_history
        if kind == "block":
            assert np.array_equal(first.keep_action, second.keep_action)
            assert first.loss_history == second.loss_history
        else:
            assert_same_masks(first.masks, second.masks)

    @pytest.mark.parametrize("name", ["li17", "apoz"])
    def test_metric_engine_equals_prune_whole_model(self, name, pretrained,
                                                    step_task):
        engine = step_engine(name, pretrained["vgg11"], step_task)
        result = engine.run()
        engine.apply(result)

        model = copy.deepcopy(pretrained["vgg11"])
        pruner = build_pruner(name)
        chosen = {}
        select = pruner.select

        def recording_select(model, unit, keep_count, context):
            chosen[unit.name] = select(model, unit, keep_count, context)
            return chosen[unit.name]

        pruner.select = recording_select
        images, labels = as_arrays(step_task.train, limit=32)
        prune_whole_model(model, model.prune_units(), pruner, 2.0,
                          PruningContext(images, labels,
                                         np.random.default_rng(0)),
                          evaluate=None, finetune=None)
        assert_same_masks(result.masks, chosen)
        assert_same_state(engine.model, model)
