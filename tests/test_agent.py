"""Unit/behaviour tests for the per-layer HeadStart agent."""

import numpy as np
import pytest

import repro.core.agent as agent_module
from repro.core import EvalOptions, HeadStartConfig, LayerAgent
from repro.core.reinforce import ReinforceDriver
from repro.data import make_cifar100_like
from repro.models import build_model
from repro.obs import Recorder, use_recorder
from repro.pruning import channel_mask
from repro.training import TrainConfig, evaluate, fit


def quick_config(**overrides):
    defaults = dict(speedup=2.0, max_iterations=12, min_iterations=4,
                    patience=4, eval_batch=32, seed=0, mc_samples=2)
    defaults.update(overrides)
    return HeadStartConfig(**defaults)


class TestLayerAgent:
    def test_returns_valid_mask(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        agent = LayerAgent(lenet_copy, unit, *calibration, quick_config())
        result = agent.run()
        assert result.keep_mask.dtype == bool
        assert result.keep_mask.shape == (unit.num_maps,)
        assert 1 <= result.kept_maps <= unit.num_maps

    def test_model_unchanged_by_agent(self, lenet_copy, calibration,
                                      tiny_task):
        before = evaluate(lenet_copy, tiny_task.test.images,
                          tiny_task.test.labels)
        unit = lenet_copy.prune_units()[0]
        LayerAgent(lenet_copy, unit, *calibration, quick_config()).run()
        after = evaluate(lenet_copy, tiny_task.test.images,
                         tiny_task.test.labels)
        assert before == after

    def test_histories_recorded(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        result = LayerAgent(lenet_copy, unit, *calibration,
                            quick_config()).run()
        assert len(result.reward_history) == result.iterations
        assert len(result.loss_history) == result.iterations
        assert all(np.isfinite(r) for r in result.reward_history)

    def test_respects_min_iterations(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        config = quick_config(min_iterations=6, patience=1, max_iterations=20)
        result = LayerAgent(lenet_copy, unit, *calibration, config).run()
        assert result.iterations >= 6

    def test_max_iterations_bound(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        config = quick_config(max_iterations=5, min_iterations=5,
                              patience=100)
        result = LayerAgent(lenet_copy, unit, *calibration, config).run()
        assert result.iterations == 5

    def test_sparsity_near_target(self, vgg_copy, calibration):
        unit = vgg_copy.prune_units()[3]
        config = quick_config(speedup=2.0, max_iterations=15,
                              min_iterations=10)
        result = LayerAgent(vgg_copy, unit, *calibration, config).run()
        target = unit.num_maps / 2
        assert abs(result.kept_maps - target) <= max(2, 0.4 * target)

    def test_deterministic_under_seed(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        r1 = LayerAgent(lenet_copy, unit, *calibration,
                        quick_config(seed=9)).run()
        r2 = LayerAgent(lenet_copy, unit, *calibration,
                        quick_config(seed=9)).run()
        assert np.array_equal(r1.keep_mask, r2.keep_mask)
        assert r1.reward_history == r2.reward_history

    def test_inception_accuracy_is_masked_accuracy(self, lenet_copy,
                                                   calibration):
        from repro.pruning import channel_mask
        unit = lenet_copy.prune_units()[0]
        result = LayerAgent(lenet_copy, unit, *calibration,
                            quick_config()).run()
        images, labels = calibration
        with channel_mask(unit, result.keep_mask):
            direct = evaluate(lenet_copy, images[:32], labels[:32])
        assert np.isclose(result.inception_accuracy, direct)

    @pytest.mark.parametrize("baseline", ["greedy", "mean", "none"])
    def test_all_baselines_run(self, lenet_copy, calibration, baseline):
        unit = lenet_copy.prune_units()[0]
        config = quick_config(baseline=baseline)
        result = LayerAgent(lenet_copy, unit, *calibration, config).run()
        assert result.kept_maps >= 1

    @pytest.mark.parametrize("optimizer", ["sgd", "rmsprop"])
    def test_both_optimizers_run(self, lenet_copy, calibration, optimizer):
        unit = lenet_copy.prune_units()[0]
        config = quick_config(optimizer=optimizer,
                              lr=0.3 if optimizer == "sgd" else 1e-3)
        result = LayerAgent(lenet_copy, unit, *calibration, config).run()
        assert result.kept_maps >= 1

    def test_thresholded_final_action_mode(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        config = quick_config(use_best_action=False)
        result = LayerAgent(lenet_copy, unit, *calibration, config).run()
        expected = (result.probabilities >= config.threshold)
        if not expected.any():
            expected[int(result.probabilities.argmax())] = True
        assert np.array_equal(result.keep_mask, expected)

    def test_calibration_batch_capped(self, lenet_copy, calibration):
        images, labels = calibration
        agent = LayerAgent(lenet_copy, lenet_copy.prune_units()[0],
                           images, labels, quick_config(eval_batch=8))
        assert len(agent.images) == 8

    def test_learning_improves_reward(self, vgg_copy, calibration):
        """Late-phase rewards should exceed the first iteration's."""
        unit = vgg_copy.prune_units()[3]
        config = quick_config(speedup=2.0, max_iterations=25,
                              min_iterations=25, patience=25, mc_samples=3)
        result = LayerAgent(vgg_copy, unit, *calibration, config).run()
        first = result.reward_history[0]
        late_best = max(result.reward_history[5:])
        assert late_best >= first


class _RescoringDriver(ReinforceDriver):
    """The driver as agents used to wire it: without an explicit
    ``final_evaluate`` the finalists are re-scored by ``evaluate``."""

    def __init__(self, policy, evaluate, reward, config, rng,
                 final_evaluate=None, scope=""):
        super().__init__(policy, evaluate, reward, config, rng,
                         final_evaluate=final_evaluate or evaluate,
                         scope=scope)


def _recorded_run(agent, **kwargs):
    recorder = Recorder()
    with use_recorder(recorder):
        result = agent.run(**kwargs)
    return result, recorder.counters


#: A plain and a residual model.
_SCORING_MODELS = (("vgg11", 0.125), ("resnet20", 0.25))


@pytest.fixture(scope="module", params=_SCORING_MODELS,
                ids=[name for name, _ in _SCORING_MODELS])
def scoring_case(request):
    """A briefly trained tiny model and its 24 training images."""
    name, width = request.param
    task = make_cifar100_like(num_classes=4, image_size=12,
                              train_per_class=6, test_per_class=3, seed=3)
    model = build_model(name, num_classes=4, input_size=12,
                        width_multiplier=width, rng=np.random.default_rng(3))
    fit(model, task.train, None,
        TrainConfig(epochs=1, batch_size=24, lr=0.05, seed=0))
    return model, task.train.images, task.train.labels


class TestMeasuredOnce:
    """Each accuracy is measured once; decisions stay as they were."""

    @pytest.mark.parametrize("options", [EvalOptions(),
                                         EvalOptions(graph=False)],
                             ids=["graph", "dense"])
    def test_batch_as_full_set_matches_rescoring_wiring(
            self, scoring_case, options, monkeypatch):
        model, images, labels = scoring_case
        units = model.prune_units()
        unit = units[len(units) // 2]
        config = quick_config(eval_batch=len(images), max_iterations=4,
                              min_iterations=4, eval=options)
        result, counters = _recorded_run(
            LayerAgent(model, unit, images, labels, config))
        monkeypatch.setattr(agent_module, "ReinforceDriver",
                            _RescoringDriver)
        agent = LayerAgent(model, unit, images, labels, config)
        reference, reference_counters = _recorded_run(agent)
        assert "reinforce/finalist_evals" not in counters
        assert reference_counters["reinforce/finalist_evals"] > 0
        np.testing.assert_array_equal(result.keep_mask, reference.keep_mask)
        assert result.reward_history == reference.reward_history
        assert result.loss_history == reference.loss_history
        # The inception accuracy as a fresh masked evaluation measures it.
        assert result.inception_accuracy \
            == agent._accuracies([reference.keep_mask])[0]

    def test_larger_calibration_set_rescores_finalists(
            self, lenet_copy, calibration, monkeypatch):
        full_masks = []
        accuracies = LayerAgent._accuracies

        def spy(agent, masks, full=False):
            if full:
                full_masks.extend(masks)
            return accuracies(agent, masks, full=full)

        monkeypatch.setattr(LayerAgent, "_accuracies", spy)
        unit = lenet_copy.prune_units()[0]
        images, labels = calibration
        assert len(images) > 16
        _, counters = _recorded_run(LayerAgent(
            lenet_copy, unit, images, labels, quick_config(eval_batch=16)))
        assert counters["reinforce/finalist_evals"] == len(full_masks) > 0

    @pytest.mark.parametrize("options", [EvalOptions(),
                                         EvalOptions(graph=False)],
                             ids=["graph", "dense"])
    def test_callers_original_accuracy_replaces_the_agents(
            self, lenet_copy, calibration, options, monkeypatch):
        unit = lenet_copy.prune_units()[0]
        images, labels = calibration
        config = quick_config(eval_batch=len(images), eval=options)
        calls = []
        monkeypatch.setattr(agent_module, "evaluate",
                            lambda *args: calls.append(args) or
                            evaluate(*args))
        measured = LayerAgent(lenet_copy, unit, images, labels,
                              config).run()
        given = LayerAgent(lenet_copy, unit, images, labels, config).run(
            original_accuracy=evaluate(lenet_copy, images, labels))
        if options.graph:
            # The agent's own baseline is the all-ones masked accuracy:
            # graph eval runs no eager forward, with or without a caller.
            assert calls == []
        np.testing.assert_array_equal(given.keep_mask, measured.keep_mask)
        assert given.reward_history == measured.reward_history
        assert given.inception_accuracy == measured.inception_accuracy

    @pytest.mark.parametrize("options", [EvalOptions(),
                                         EvalOptions(graph=False)],
                             ids=["graph", "dense"])
    def test_accuracies_are_pure(self, scoring_case, options):
        """A mask measured again after others reads the same float: the
        property the driver's memo relies on."""
        model, images, labels = scoring_case
        units = model.prune_units()
        unit = units[len(units) // 2]
        agent = LayerAgent(model, unit, images, labels,
                           quick_config(eval_batch=16, eval=options))
        if options.graph:
            agent._graph = agent._build_graph()
            assert agent._graph is not None
        masks = [np.random.default_rng(seed).random(unit.num_maps) > 0.5
                 for seed in range(4)]
        first = agent._accuracies(masks[:1])
        agent._accuracies(masks[1:])
        agent._accuracies(masks, full=True)
        assert agent._accuracies(masks[:1]) == first
        assert agent._accuracies(masks[::-1]) \
            == agent._accuracies(masks)[::-1]

    def test_inception_accuracy_without_iterations(self, lenet_copy,
                                                   calibration):
        unit = lenet_copy.prune_units()[0]
        images, labels = calibration
        result = LayerAgent(lenet_copy, unit, images, labels,
                            quick_config(max_iterations=0,
                                         min_iterations=0)).run()
        assert result.iterations == 0
        with channel_mask(unit, result.keep_mask):
            direct = evaluate(lenet_copy, images[:32], labels[:32])
        assert result.inception_accuracy == direct
