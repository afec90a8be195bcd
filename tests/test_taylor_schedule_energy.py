"""Unit tests for the Taylor pruner, the default fallback engine."""

import numpy as np

from repro.pruning.baselines import PruningContext, TaylorPruner, build_pruner


def context(calibration, seed=0):
    return PruningContext(*calibration, np.random.default_rng(seed))


class TestTaylorPruner:
    def test_registered(self):
        assert isinstance(build_pruner("taylor"), TaylorPruner)

    def test_budget_respected(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        mask = TaylorPruner(batch_size=16, max_batches=2).select(
            lenet_copy, unit, 3, context(calibration))
        assert mask.sum() == 3
        assert mask.dtype == bool

    def test_model_weights_untouched(self, lenet_copy, calibration):
        state = lenet_copy.state_dict()
        TaylorPruner(batch_size=16, max_batches=1).select(
            lenet_copy, lenet_copy.prune_units()[0], 3,
            context(calibration))
        for key, value in lenet_copy.state_dict().items():
            assert np.allclose(state[key], value), key

    def test_gradients_cleared(self, lenet_copy, calibration):
        TaylorPruner(batch_size=16, max_batches=1).select(
            lenet_copy, lenet_copy.prune_units()[0], 3,
            context(calibration))
        assert all(p.grad is None for p in lenet_copy.parameters())

    def test_prunes_dead_map_first(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        # A map with zero output contributes zero Taylor score.
        unit.conv.weight.data[1] = 0.0
        unit.conv.bias.data[1] = 0.0
        unit.bn.weight.data[1] = 0.0
        unit.bn.bias.data[1] = 0.0
        mask = TaylorPruner(batch_size=16, max_batches=2).select(
            lenet_copy, unit, unit.num_maps - 1, context(calibration))
        assert not mask[1]

