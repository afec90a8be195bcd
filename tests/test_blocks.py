"""Unit tests for block-level HeadStart on ResNets."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import BlockHeadStart, HeadStartConfig, bypass_blocks
from repro.nn import Tensor, no_grad
from repro.models import ResNet
from repro.obs import Recorder, use_recorder
from repro.training import EVAL_BATCH_SIZE, evaluate


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

    def test_accuracies_are_pure(self, resnet_copy, calibration):
        """An action measured again after others reads the same float:
        the property the driver's memo relies on."""
        agent = BlockHeadStart(resnet_copy, calibration, config=quick_config())
        actions = [np.random.default_rng(seed).random(len(agent.droppable))
                   > 0.5 for seed in range(4)]
        first = agent._accuracies(actions[:1])
        agent._accuracies(actions[1:])
        agent._accuracies(actions, full=True)
        assert agent._accuracies(actions[:1]) == first
        assert agent._accuracies(actions[::-1]) \
            == agent._accuracies(actions)[::-1]

    def test_inception_accuracy_without_iterations(self, resnet_copy,
                                                   calibration):
        agent = BlockHeadStart(resnet_copy, calibration,
                               config=quick_config(max_iterations=0,
                                                   min_iterations=0))
        result = agent.run()
        assert result.iterations == 0
        with bypass_blocks(resnet_copy, agent.droppable, result.keep_action):
            direct = evaluate(resnet_copy, agent.images, agent.labels)
        assert result.inception_accuracy == direct

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


def per_mask_accuracies(agent, actions, full=False):
    """The reference scorer: one ``bypass_blocks`` forward per action."""
    images = agent.full_images if full else agent.images
    labels = agent.full_labels if full else agent.labels
    accuracies = []
    for action in actions:
        with bypass_blocks(agent.model, agent.droppable, action):
            accuracies.append(evaluate(agent.model, images, labels))
    return accuracies


def per_mask_logits(model, droppable, action, images):
    """Each ``evaluate`` slice's logits under one action, as bytes."""
    model.eval()
    with bypass_blocks(model, droppable, action), no_grad():
        return [model(Tensor(images[start:start + EVAL_BATCH_SIZE]))
                .data.tobytes()
                for start in range(0, len(images), EVAL_BATCH_SIZE)]


@pytest.fixture
def set_150(tiny_task):
    """150 images: three evaluate slices, the last one partial."""
    train, test = tiny_task.train, tiny_task.test
    images = np.concatenate([train.images, test.images,
                             train.images[:42, :, :, ::-1]])
    labels = np.concatenate([train.labels, test.labels, train.labels[:42]])
    return images, labels


def walk_actions(count, seed=0):
    """All-ones, all-zeros, random and duplicate actions, unsorted."""
    rng = np.random.default_rng(seed)
    ones, zeros = np.ones(count), np.zeros(count)
    random = [(rng.random(count) > 0.5).astype(float) for _ in range(14)]
    return [random[0], zeros, *random[1:7], ones, random[3], *random[7:],
            zeros, random[0]]


class TestPrefixWalk:
    """The walk scores exactly what one bypassed forward per mask does."""

    @pytest.mark.parametrize("full", [False, True])
    def test_accuracies_equal_per_mask_forward(self, resnet_copy, set_150,
                                               full):
        agent = BlockHeadStart(resnet_copy, set_150,
                               config=quick_config(eval_batch=32))
        assert (len(agent.images), len(agent.full_images)) == (32, 150)
        actions = walk_actions(len(agent.droppable))
        expected = per_mask_accuracies(agent, actions, full)
        assert len(set(expected)) > 3     # the masks disagree
        assert agent._accuracies(actions, full=full) == expected
        # Any order, and a call after others, reads the same floats.
        order = np.random.default_rng(1).permutation(len(actions))
        assert agent._accuracies([actions[i] for i in order], full=full) \
            == [expected[i] for i in order]

    def test_logits_equal_per_mask_forward(self, resnet_copy, set_150,
                                           monkeypatch):
        agent = BlockHeadStart(resnet_copy, set_150,
                               config=quick_config(eval_batch=32))
        actions = walk_actions(len(agent.droppable), seed=2)
        seen = []
        head = resnet_copy.head

        def spy(x):
            logits = head(x)
            seen.append(logits.data.tobytes())
            return logits

        monkeypatch.setattr(resnet_copy, "head", spy)
        agent._accuracies(actions, full=True)
        monkeypatch.undo()
        expected = [logits for action in actions
                    for logits in per_mask_logits(
                        resnet_copy, agent.droppable, action,
                        agent.full_images)]
        assert sorted(seen) == sorted(expected)

    def test_each_call_of_a_search_equals_per_mask_forward(
            self, resnet_copy, set_150, monkeypatch):
        """Paths kept across the calls of one search change no score."""
        agent = BlockHeadStart(resnet_copy, set_150,
                               config=quick_config(eval_batch=32,
                                                   mc_samples=4))
        calls = []
        walk = agent._accuracies

        def recording(actions, full=False):
            accuracies = walk(actions, full)
            calls.append(([a.copy() for a in actions], full, accuracies))
            return accuracies

        monkeypatch.setattr(agent, "_accuracies", recording)
        agent.run()
        monkeypatch.undo()
        assert sum(not full for _, full, _ in calls) > 5
        assert any(full for _, full, _ in calls)
        for actions, full, accuracies in calls:
            assert accuracies == per_mask_accuracies(agent, actions, full)

    def test_run_equals_per_mask_reference_run(self, resnet_copy, set_150,
                                               monkeypatch):
        config = quick_config(eval_batch=32, mc_samples=3, seed=5)

        def run(reference):
            agent = BlockHeadStart(resnet_copy, set_150, config=config)
            if reference:
                monkeypatch.setattr(
                    agent, "_accuracies",
                    lambda actions, full=False:
                    per_mask_accuracies(agent, actions, full))
            recorder = Recorder()
            with use_recorder(recorder):
                result = agent.run()
            counters = {name: value
                        for name, value in recorder.counters.items()
                        if name.startswith(("evalcache/", "reinforce/"))}
            return result, counters

        (walked, walked_counters), (reference, reference_counters) = \
            run(False), run(True)
        assert np.array_equal(walked.keep_action, reference.keep_action)
        assert walked.probabilities.tobytes() \
            == reference.probabilities.tobytes()
        assert walked.reward_history == reference.reward_history
        assert walked.loss_history == reference.loss_history
        assert walked.inception_accuracy == reference.inception_accuracy
        assert walked_counters == reference_counters
        assert walked_counters["reinforce/finalist_evals"] > 0

    def test_search_after_apply_equals_fresh_engine(self, resnet_copy,
                                                    set_150):
        config = quick_config(eval_batch=32, mc_samples=3)
        agent = BlockHeadStart(resnet_copy, set_150, config=config)
        agent.apply(agent.run(), rng=np.random.default_rng(0))
        again = agent.run()
        fresh = BlockHeadStart(agent.model, set_150, config=config).run()
        assert np.array_equal(again.keep_action, fresh.keep_action)
        assert again.probabilities.tobytes() == fresh.probabilities.tobytes()
        assert again.reward_history == fresh.reward_history
        assert again.loss_history == fresh.loss_history
        assert again.inception_accuracy == fresh.inception_accuracy

    def test_paths_are_freed_when_the_search_returns(self, resnet_copy,
                                                     set_150, monkeypatch):
        agent = BlockHeadStart(resnet_copy, set_150,
                               config=quick_config(eval_batch=32))
        stems = []
        stem = resnet_copy.stem

        def spy(x):
            out = stem(x)
            stems.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(resnet_copy, "stem", spy)
        agent.run()
        # One stem per slice: the batch's once, each full slice's once.
        assert len(stems) == 1 + 3
        assert agent._batch_walk is None
        gc.collect()
        assert all(ref() is None for ref in stems)
