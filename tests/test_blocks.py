"""Unit tests for block-level HeadStart on ResNets."""

import numpy as np
import pytest

from repro.core import BlockHeadStart, EvalOptions, HeadStartConfig, \
    bypass_blocks
from repro.nn import Tensor, no_grad
from repro.models import ResNet
from repro.obs import Recorder, use_recorder
from repro.training import evaluate


def quick_config(**overrides):
    defaults = dict(speedup=2.0, max_iterations=10, min_iterations=4,
                    patience=4, eval_batch=32, seed=0, mc_samples=2)
    defaults.update(overrides)
    return HeadStartConfig(**defaults)


class TestBypassBlocks:
    def test_bypass_matches_rebuild(self, resnet_copy, rng):
        droppable = resnet_copy.droppable_blocks()
        action = np.zeros(len(droppable))
        action[::2] = 1.0
        x = rng.normal(size=(2, 3, 12, 12)).astype(np.float32)
        resnet_copy.eval()
        with bypass_blocks(resnet_copy, droppable, action), no_grad():
            bypassed = resnet_copy(Tensor(x)).data.copy()
        agent = BlockHeadStart.__new__(BlockHeadStart)
        agent.model = resnet_copy
        keep = agent.keep_mask_by_group(action)
        rebuilt = resnet_copy.with_blocks(keep, rng=np.random.default_rng(0))
        rebuilt.eval()
        with no_grad():
            physical = rebuilt(Tensor(x)).data
        assert np.allclose(bypassed, physical, atol=1e-4)

    def test_bypass_restores_forward(self, resnet_copy, rng):
        droppable = resnet_copy.droppable_blocks()
        x = rng.normal(size=(1, 3, 12, 12)).astype(np.float32)
        resnet_copy.eval()
        with no_grad():
            before = resnet_copy(Tensor(x)).data.copy()
        with bypass_blocks(resnet_copy, droppable,
                           np.zeros(len(droppable))):
            pass
        with no_grad():
            after = resnet_copy(Tensor(x)).data
        assert np.array_equal(before, after)

    def test_keep_all_is_identity(self, resnet_copy, rng):
        droppable = resnet_copy.droppable_blocks()
        x = rng.normal(size=(1, 3, 12, 12)).astype(np.float32)
        resnet_copy.eval()
        with no_grad():
            before = resnet_copy(Tensor(x)).data.copy()
        with bypass_blocks(resnet_copy, droppable,
                           np.ones(len(droppable))), no_grad():
            during = resnet_copy(Tensor(x)).data
        assert np.array_equal(before, during)


class TestBlockHeadStart:
    def test_run_produces_valid_pattern(self, resnet_copy, calibration):
        agent = BlockHeadStart(resnet_copy, calibration, config=quick_config())
        result = agent.run()
        assert result.keep_action.shape == (len(agent.droppable),)
        assert all(1 <= n <= 3 for n in result.blocks_per_group)
        assert len(result.reward_history) == result.iterations

    def test_apply_builds_pruned_resnet(self, resnet_copy, calibration):
        total_before = sum(resnet_copy.blocks_per_group)
        agent = BlockHeadStart(resnet_copy, calibration, config=quick_config())
        result = agent.run()
        removed = agent.apply(result)
        pruned = agent.model
        assert isinstance(pruned, ResNet)
        assert pruned.blocks_per_group == result.blocks_per_group
        assert removed == total_before - sum(pruned.blocks_per_group)
        assert sum(pruned.blocks_per_group) <= total_before

    def test_second_search_reads_the_rebuilt_layout(self, resnet_copy,
                                                     calibration):
        agent = BlockHeadStart(resnet_copy, calibration, config=quick_config())
        total_before = agent.total_blocks
        agent.apply(agent.run(), rng=np.random.default_rng(0))
        rebuilt = sum(agent.model.blocks_per_group)
        assert rebuilt < total_before
        second = agent.run()
        assert second.keep_action.shape \
            == (len(agent.model.droppable_blocks()),)
        removed = agent.apply(second, rng=np.random.default_rng(0))
        assert removed > 0
        assert removed == rebuilt - sum(agent.model.blocks_per_group)
        assert agent.total_blocks == total_before

    def test_mismatched_action_raises(self, resnet_copy, calibration):
        agent = BlockHeadStart(resnet_copy, calibration, config=quick_config())
        droppable = len(resnet_copy.droppable_blocks())
        for size in (droppable - 1, droppable + 1):
            with pytest.raises(ValueError, match=f"{size} entries.*"
                                                 f"{droppable} droppable"):
                agent.keep_mask_by_group(np.ones(size))

    def test_sparsity_near_block_target(self, resnet_copy, calibration):
        config = quick_config(speedup=2.0, max_iterations=15,
                              min_iterations=10)
        agent = BlockHeadStart(resnet_copy, calibration, config=config)
        result = agent.run()
        total = sum(resnet_copy.blocks_per_group)
        kept = sum(result.blocks_per_group)
        assert abs(kept - total / 2) <= 2.5

    def test_model_unchanged_after_run(self, resnet_copy, calibration,
                                       tiny_task):
        before = evaluate(resnet_copy, tiny_task.test.images,
                          tiny_task.test.labels)
        BlockHeadStart(resnet_copy, calibration, config=quick_config()).run()
        after = evaluate(resnet_copy, tiny_task.test.images,
                         tiny_task.test.labels)
        assert before == after

    def test_transition_blocks_always_kept(self, resnet_copy, calibration):
        agent = BlockHeadStart(resnet_copy, calibration, config=quick_config())
        result = agent.run()
        keep = agent.keep_mask_by_group(result.keep_action)
        assert keep[1][0] and keep[2][0]  # group 2/3 transitions survive

    def test_rejects_model_without_droppable_blocks(self, calibration,
                                                    monkeypatch):
        # Every ResNet keeps group 1's first block droppable, so stub the
        # instance: a model that offers no block to drop.
        model = ResNet((1, 1, 1), num_classes=6, width_multiplier=0.25,
                       rng=np.random.default_rng(0))
        monkeypatch.setattr(model, "droppable_blocks", lambda: [])
        with pytest.raises(ValueError, match="no droppable residual blocks"):
            BlockHeadStart(model, calibration, config=quick_config())

    def test_deterministic_under_seed(self, resnet_copy, calibration):
        r1 = BlockHeadStart(resnet_copy, calibration,
                            config=quick_config(seed=4)).run()
        r2 = BlockHeadStart(resnet_copy, calibration,
                            config=quick_config(seed=4)).run()
        assert np.array_equal(r1.keep_action, r2.keep_action)

    def test_cache_is_bit_for_bit_neutral(self, resnet_copy, calibration):
        """The driver's eval cache changes nothing the block search does."""
        recorder = Recorder()
        with use_recorder(recorder):
            cached = BlockHeadStart(resnet_copy, calibration,
                                    config=quick_config(seed=4)).run()
        assert recorder.counters["evalcache/hits"] > 0
        plain = BlockHeadStart(
            resnet_copy, calibration,
            config=quick_config(seed=4, eval=EvalOptions(cache=False))).run()
        assert np.array_equal(cached.keep_action, plain.keep_action)
        assert cached.reward_history == plain.reward_history
        assert cached.loss_history == plain.loss_history
        assert cached.inception_accuracy == plain.inception_accuracy

    def test_inception_accuracy_is_the_searched_batch_accuracy(
            self, resnet_copy, calibration):
        agent = BlockHeadStart(resnet_copy, calibration, config=quick_config())
        recorder = Recorder()
        with use_recorder(recorder):
            result = agent.run()
        # The whole set is larger than the batch: finalists are re-scored.
        assert len(agent.full_images) > len(agent.images)
        assert recorder.counters["reinforce/finalist_evals"] > 0
        with bypass_blocks(resnet_copy, agent.droppable, result.keep_action):
            fresh = evaluate(resnet_copy, agent.images, agent.labels)
        assert result.inception_accuracy == fresh
