"""Unit tests for the whole-model layer engines (metric + HeadStart)."""

import copy

import numpy as np
import pytest

from repro.core import FinetuneConfig, HeadStartConfig, HeadStartPruner
from repro.core import pruner as pruner_module
from repro.pruning import budget_keep_count, build_engine
from repro.runtime import ResumableRunner
from repro.training import evaluate, evaluate_dataset


class TestBudget:
    def test_eq1_constraint(self):
        assert budget_keep_count(64, 2.0) == 32
        assert budget_keep_count(64, 5.0) == 13
        assert budget_keep_count(3, 5.0) == 1  # floors at one map

    def test_invalid_speedup(self):
        with pytest.raises(ValueError):
            budget_keep_count(10, 0.5)


class TestBaselinePipeline:
    def test_prunes_all_but_last(self, lenet_copy, calibration):
        units = lenet_copy.prune_units()
        result = build_engine("li17", lenet_copy, calibration,
                              speedup=2.0).run_steps()
        assert len(result.layers) == len(units) - 1
        assert result.layers[0].maps_after == result.layers[0].maps_before // 2

    def test_prune_all_units(self, lenet_copy, calibration):
        units = lenet_copy.prune_units()
        result = build_engine("li17", lenet_copy, calibration, speedup=2.0,
                              skip_last=False).run_steps()
        assert len(result.layers) == len(units)

    def test_finetune_and_test_set_fill_each_row(self, lenet_copy,
                                                 calibration, tiny_task,
                                                 monkeypatch):
        tuned = []

        def counting(model, train_set, *args, **kwargs):
            tuned.append(model)

        monkeypatch.setattr(pruner_module, "finetune", counting)
        result = build_engine(
            "li17", lenet_copy, calibration, speedup=2.0,
            test_set=tiny_task.test,
            finetune_config=FinetuneConfig(epochs=1)).run_steps()
        assert tuned == [lenet_copy] * len(result.layers)
        images, labels = calibration
        for log in result.layers:
            assert log.inception_accuracy == evaluate(lenet_copy, images,
                                                      labels)
            assert log.finetuned_accuracy == evaluate_dataset(
                lenet_copy, tiny_task.test)
            assert log.agent_iterations == 0
        assert result.final_accuracy == result.layers[-1].finetuned_accuracy

    def test_total_removed(self, lenet_copy, calibration):
        before = sum(unit.num_maps for unit in lenet_copy.prune_units())
        engine = build_engine("li17", lenet_copy, calibration, speedup=2.0)
        result = engine.run_steps()
        after = sum(unit.num_maps for unit in lenet_copy.prune_units())
        assert before - after == sum(
            log.maps_before - log.maps_after for log in result.layers)


def quick_headstart(**overrides):
    defaults = dict(speedup=2.0, max_iterations=8, min_iterations=4,
                    patience=4, eval_batch=24, seed=0, mc_samples=2)
    defaults.update(overrides)
    return HeadStartConfig(**defaults)


class TestHeadStartPruner:
    def test_whole_model_run(self, lenet_copy, tiny_task):
        pruner = HeadStartPruner(
            lenet_copy, tiny_task.train, tiny_task.test,
            config=quick_headstart(),
            finetune_config=FinetuneConfig(epochs=1, batch_size=24),
            input_shape=(3, 12, 12))
        result = pruner.run()
        assert len(result.layers) == 1  # LeNet has 2 units, last skipped
        log = result.layers[0]
        assert log.name == "conv1"
        assert 1 <= log.maps_after <= log.maps_before
        assert log.finetuned_accuracy is not None
        assert log.params_m is not None
        assert result.final_accuracy is not None

    def test_masks_and_agent_results_recorded(self, lenet_copy, tiny_task):
        pruner = HeadStartPruner(lenet_copy, tiny_task.train, None,
                                 config=quick_headstart(),
                                 finetune_config=None)
        result = pruner.run()
        assert "conv1" in result.masks
        assert "conv1" in result.agent_results
        assert result.masks["conv1"].sum() == result.layers[0].maps_after

    def test_no_finetune_mode(self, lenet_copy, tiny_task):
        pruner = HeadStartPruner(lenet_copy, tiny_task.train, tiny_task.test,
                                 config=quick_headstart(),
                                 finetune_config=None)
        result = pruner.run()
        assert result.layers[0].finetuned_accuracy is not None  # still evaluated

    def test_skip_last_false_prunes_everything(self, lenet_copy, tiny_task):
        pruner = HeadStartPruner(lenet_copy, tiny_task.train, None,
                                 config=quick_headstart(),
                                 finetune_config=None, skip_last=False)
        result = pruner.run()
        assert len(result.layers) == 2

    @pytest.mark.parametrize("skip_last", [True, False])
    def test_plain_run_equals_journaled_run(self, trained_lenet, tiny_task,
                                            tmp_path, skip_last):
        def engine():
            return HeadStartPruner(
                copy.deepcopy(trained_lenet), tiny_task.train,
                tiny_task.test, config=quick_headstart(),
                finetune_config=FinetuneConfig(epochs=1, batch_size=24),
                skip_last=skip_last)

        plain_engine, journaled_engine = engine(), engine()
        plain = plain_engine.run()
        journaled = ResumableRunner(engine=journaled_engine).run(
            tmp_path / "run").result
        units = len(trained_lenet.prune_units())
        assert len(plain.layers) == (units - 1 if skip_last else units)
        assert plain.masks.keys() == journaled.masks.keys()
        for name, mask in plain.masks.items():
            assert np.array_equal(mask, journaled.masks[name]), name
        assert plain.layers == journaled.layers
        assert plain.final_accuracy == journaled.final_accuracy
        plain_state = plain_engine.model.state_dict()
        journaled_state = journaled_engine.model.state_dict()
        assert plain_state.keys() == journaled_state.keys()
        for key, value in plain_state.items():
            assert value.dtype == journaled_state[key].dtype, key
            assert value.tobytes() == journaled_state[key].tobytes(), key

    def test_learnt_compression_near_target(self, vgg_copy, tiny_task):
        pruner = HeadStartPruner(
            vgg_copy, tiny_task.train, None,
            config=quick_headstart(max_iterations=10, min_iterations=6),
            finetune_config=None)
        result = pruner.run()
        assert 0.25 < result.learnt_compression < 0.75

    def test_custom_calibration(self, lenet_copy, tiny_task, calibration):
        pruner = HeadStartPruner(lenet_copy, tiny_task.train, None,
                                 config=quick_headstart(),
                                 finetune_config=None,
                                 calibration=calibration)
        assert np.array_equal(pruner.calibration[0], calibration[0])

    def test_physical_pruning_applied(self, lenet_copy, tiny_task):
        maps_before = lenet_copy.conv1.out_channels
        pruner = HeadStartPruner(lenet_copy, tiny_task.train, None,
                                 config=quick_headstart(),
                                 finetune_config=None)
        result = pruner.run()
        assert lenet_copy.conv1.out_channels == result.layers[0].maps_after
        assert lenet_copy.conv1.out_channels <= maps_before


class TestFinalAccuracyMeasuredOnce:
    """The last layer row's test accuracy is the run's final accuracy."""

    @staticmethod
    def engine(trained_lenet, tiny_task):
        return HeadStartPruner(
            copy.deepcopy(trained_lenet), tiny_task.train, tiny_task.test,
            config=quick_headstart(),
            finetune_config=FinetuneConfig(epochs=1, batch_size=24),
            skip_last=False)

    @pytest.mark.parametrize("journaled", [False, True])
    def test_one_test_set_evaluation_per_layer(self, trained_lenet,
                                               tiny_task, tmp_path,
                                               monkeypatch, journaled):
        calls = []

        def counting(model, dataset, *args, **kwargs):
            calls.append(dataset)
            return evaluate_dataset(model, dataset, *args, **kwargs)

        monkeypatch.setattr(pruner_module, "evaluate_dataset", counting)
        engine = self.engine(trained_lenet, tiny_task)
        if journaled:
            result = ResumableRunner(engine=engine).run(
                tmp_path / "run").result
        else:
            result = engine.run()
        assert len(result.layers) == 2
        assert len(calls) == len(result.layers)
        assert result.final_accuracy == evaluate_dataset(engine.model,
                                                         tiny_task.test)

    def test_resumed_complete_journal_reports_a_fresh_evaluation(
            self, trained_lenet, tiny_task, tmp_path):
        first = ResumableRunner(
            engine=self.engine(trained_lenet, tiny_task)).run(tmp_path)
        engine = self.engine(trained_lenet, tiny_task)
        resumed = ResumableRunner(engine=engine).run(tmp_path, resume=True)
        assert resumed.resumed_layers == 2
        assert resumed.result.final_accuracy == \
            first.result.final_accuracy == \
            evaluate_dataset(engine.model, tiny_task.test)


class TestWiringValidation:
    def test_pruner_rejects_inconsistent_units(self, tiny_task):
        import numpy as np
        from repro.models import lenet
        model = lenet(num_classes=6, input_size=12,
                      rng=np.random.default_rng(0))
        # Corrupt the wiring: detach conv2's input from conv1's output.
        model.conv2.in_channels = 99
        import pytest
        with pytest.raises(ValueError, match="inconsistent"):
            HeadStartPruner(model, tiny_task.train, None,
                            config=quick_headstart(),
                            finetune_config=None)
