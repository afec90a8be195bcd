"""Unit tests for the metric-baseline pruners."""

import numpy as np
import pytest

from repro.nn import Parameter, Tensor, no_grad
from repro.pruning.baselines import (APoZPruner, AutoPrunerPruner,
                                     Li17Pruner, Pruner, PruningContext,
                                     RandomPruner, ThiNetPruner,
                                     available_pruners, build_pruner,
                                     collect_unit_outputs, inject_gate,
                                     mask_from_scores)
from repro.pruning.surgery import channel_mask
from repro.training import evaluate


def context(calibration, seed=0):
    images, labels = calibration
    return PruningContext(images, labels, np.random.default_rng(seed))


class TestRegistry:
    def test_all_registered(self):
        names = available_pruners()
        for expected in ("random", "li17", "apoz", "thinet", "autopruner"):
            assert expected in names

    def test_build_by_name(self):
        assert isinstance(build_pruner("li17"), Li17Pruner)
        assert isinstance(build_pruner("thinet", num_samples=8), ThiNetPruner)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            build_pruner("magic")


#: Settings that keep each registered pruner quick on the tiny task.
#: ThiNet's least-squares rescale edits batch-norm scales by design
#: (``TestThiNet.test_rescale_modifies_bn``), so it is off here.
QUICK_SETTINGS = {"thinet": {"num_samples": 32,
                             "least_squares_rescale": False},
                  "autopruner": {"steps": 3, "batch_size": 16}}


def quick_pruner(name):
    return build_pruner(name, **QUICK_SETTINGS.get(name, {}))


class TestPrunerContract:
    """What every registered pruner's ``select`` promises its caller."""

    @pytest.mark.parametrize("name", available_pruners())
    def test_registered_under_its_name(self, name):
        pruner = quick_pruner(name)
        assert isinstance(pruner, Pruner)
        assert pruner.name == name

    @pytest.mark.parametrize("name", available_pruners())
    def test_budget_on_every_unit(self, name, lenet_copy, calibration):
        # LeNet's first unit feeds a conv, its second the classifier.
        pruner = quick_pruner(name)
        for unit in lenet_copy.prune_units():
            for keep in (1, unit.num_maps - 1):
                mask = pruner.select(lenet_copy, unit, keep,
                                     context(calibration))
                assert mask.dtype == bool
                assert mask.shape == (unit.num_maps,)
                assert mask.sum() == keep, (unit.name, keep)

    @pytest.mark.parametrize("name", available_pruners())
    def test_select_leaves_the_model_as_it_found_it(self, name, lenet_copy,
                                                    calibration):
        # Selecting decides only; the caller does the surgery.
        lenet_copy.train()
        state = lenet_copy.state_dict()
        unit = lenet_copy.prune_units()[1]
        maps = unit.num_maps
        quick_pruner(name).select(lenet_copy, unit, 3, context(calibration))
        assert lenet_copy.training
        assert unit.num_maps == maps
        after = lenet_copy.state_dict()
        assert list(after) == list(state)
        for key, value in after.items():
            assert value.tobytes() == state[key].tobytes(), key

    @pytest.mark.parametrize("name", available_pruners())
    def test_same_seed_same_mask(self, name, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[1]
        first, second = (
            quick_pruner(name).select(lenet_copy, unit, 5,
                                      context(calibration, seed=3))
            for _ in range(2))
        assert np.array_equal(first, second)


class TestMaskFromScores:
    def test_keeps_top_k(self):
        mask = mask_from_scores(np.array([0.1, 0.9, 0.5, 0.7]), 2)
        assert np.array_equal(mask, [False, True, False, True])

    def test_clamps_keep_count(self):
        assert mask_from_scores(np.ones(3), 0).sum() == 1
        assert mask_from_scores(np.ones(3), 99).sum() == 3

    def test_stable_ties(self):
        mask = mask_from_scores(np.array([1.0, 1.0, 1.0]), 2)
        assert np.array_equal(mask, [True, True, False])


class TestCollectOutputs:
    def test_shape_and_nonnegative(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        maps = collect_unit_outputs(lenet_copy, unit, calibration[0])
        assert maps.shape[0] == len(calibration[0])
        assert maps.shape[1] == unit.num_maps
        assert np.all(maps >= 0)

    def test_pre_relu_option(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        maps = collect_unit_outputs(lenet_copy, unit, calibration[0],
                                    post_relu=False)
        assert np.any(maps < 0)

    def test_model_restored(self, lenet_copy, calibration, tiny_task):
        before = evaluate(lenet_copy, tiny_task.test.images,
                          tiny_task.test.labels)
        unit = lenet_copy.prune_units()[0]
        collect_unit_outputs(lenet_copy, unit, calibration[0])
        after = evaluate(lenet_copy, tiny_task.test.images,
                         tiny_task.test.labels)
        assert before == after


def _respects_budget(pruner, model, calibration, keep=3):
    unit = model.prune_units()[0]
    mask = pruner.select(model, unit, keep, context(calibration))
    assert mask.dtype == bool
    assert mask.shape == (unit.num_maps,)
    assert mask.sum() == keep
    return mask


class TestRandom:
    def test_budget(self, lenet_copy, calibration):
        _respects_budget(RandomPruner(), lenet_copy, calibration)

    def test_seed_determinism(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        m1 = RandomPruner().select(lenet_copy, unit, 3, context(calibration, 7))
        m2 = RandomPruner().select(lenet_copy, unit, 3, context(calibration, 7))
        assert np.array_equal(m1, m2)


class TestLi17:
    def test_budget(self, lenet_copy, calibration):
        _respects_budget(Li17Pruner(), lenet_copy, calibration)

    def test_keeps_largest_l1_filters(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        # Make filter 0 overwhelmingly large and filter 1 tiny.
        unit.conv.weight.data[0] = 10.0
        unit.conv.weight.data[1] = 1e-6
        mask = Li17Pruner().select(lenet_copy, unit, unit.num_maps - 1,
                                   context(calibration))
        assert mask[0]
        assert not mask[1]


class TestAPoZ:
    def test_budget(self, lenet_copy, calibration):
        _respects_budget(APoZPruner(), lenet_copy, calibration)

    def test_prunes_dead_map(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        # Force map 2 to be always negative pre-ReLU (all zeros post-ReLU).
        unit.conv.weight.data[2] = 0.0
        unit.conv.bias.data[2] = -100.0
        unit.bn.weight.data[2] = 1.0
        unit.bn.bias.data[2] = -100.0
        mask = APoZPruner().select(lenet_copy, unit, unit.num_maps - 1,
                                   context(calibration))
        assert not mask[2]


class TestThiNet:
    def test_budget_conv_consumer(self, lenet_copy, calibration):
        _respects_budget(ThiNetPruner(num_samples=32,
                                      least_squares_rescale=False),
                         lenet_copy, calibration)

    def test_budget_linear_consumer(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[1]
        mask = ThiNetPruner(num_samples=32, least_squares_rescale=False) \
            .select(lenet_copy, unit, 4, context(calibration))
        assert mask.sum() == 4

    def test_better_reconstruction_than_worst(self, vgg_copy, calibration,
                                              tiny_task):
        """ThiNet's greedy choice should beat the complement choice."""
        unit = vgg_copy.prune_units()[1]
        keep = unit.num_maps // 2
        thinet_mask = ThiNetPruner(num_samples=128,
                                   least_squares_rescale=False) \
            .select(vgg_copy, unit, keep, context(calibration))
        complement = ~thinet_mask
        images, labels = tiny_task.test.images, tiny_task.test.labels
        with channel_mask(unit, thinet_mask):
            chosen = evaluate(vgg_copy, images, labels)
        with channel_mask(unit, complement):
            rejected = evaluate(vgg_copy, images, labels)
        assert chosen >= rejected - 0.05

    @pytest.mark.parametrize("index", [0, 1], ids=["conv-consumer",
                                                   "linear-consumer"])
    def test_prunes_dead_map(self, index, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[index]
        # A map whose output is zero contributes nothing to the
        # consumer, so removing it costs no reconstruction error.
        unit.conv.weight.data[1] = 0.0
        unit.conv.bias.data[1] = 0.0
        unit.bn.weight.data[1] = 0.0
        unit.bn.bias.data[1] = 0.0
        mask = ThiNetPruner(num_samples=32, least_squares_rescale=False) \
            .select(lenet_copy, unit, unit.num_maps - 1,
                    context(calibration))
        assert not mask[1]

    def test_rescale_modifies_bn(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        before = unit.bn.weight.data.copy()
        ThiNetPruner(num_samples=32, least_squares_rescale=True) \
            .select(lenet_copy, unit, 3, context(calibration))
        assert not np.allclose(unit.bn.weight.data, before)


class TestAutoPruner:
    def test_budget(self, lenet_copy, calibration):
        pruner = AutoPrunerPruner(steps=5, batch_size=16)
        _respects_budget(pruner, lenet_copy, calibration)

    def test_gate_injection_scales_output(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        gate = Parameter(np.full(unit.num_maps, -100.0))  # sigmoid ~ 0
        lenet_copy.eval()
        x = Tensor(calibration[0][:4])
        with inject_gate(unit, gate), no_grad():
            gated = lenet_copy.bn1(lenet_copy.conv1(x))
        assert np.allclose(gated.data, 0.0, atol=1e-20)

    def test_gate_restored_after_context(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        gate = Parameter(np.zeros(unit.num_maps))
        lenet_copy.eval()
        x = Tensor(calibration[0][:4])
        with no_grad():
            before = lenet_copy.bn1(lenet_copy.conv1(x)).data.copy()
        with inject_gate(unit, gate):
            pass
        with no_grad():
            after = lenet_copy.bn1(lenet_copy.conv1(x)).data
        assert np.array_equal(before, after)

    def test_gates_receive_gradient(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        gate = Parameter(np.zeros(unit.num_maps))
        from repro.nn import functional as F
        with inject_gate(unit, gate):
            logits = lenet_copy(Tensor(calibration[0][:8]))
            F.cross_entropy(logits, calibration[1][:8]).backward()
        assert gate.grad is not None
        assert np.any(gate.grad != 0)
