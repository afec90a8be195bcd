"""Static-graph executor: equivalence with eager eval, and EvalOptions.

The graph executor's whole contract is *it changes nothing but speed*:

* unfused ``compile()`` output is bit-for-bit the eager forward, for
  every registered model, across repeat calls and on a model left in
  training mode (the replay runs eval mode and restores the flag), and
  the op profiler sees the eager forward's ops;
* fused (BN-fold + ReLU-epilogue) output stays within 1e-8 on float64
  inputs;
* masked execution through ``set_mask_unit`` matches the dense
  ``channel_mask`` forward — bitwise unfused, within 1e-8 fused on
  float64 inputs — and surgered (physically pruned) models retrace and
  still match;
* graph eval is the ``EvalOptions`` default, the CLI takes its defaults
  from it, resume digests ignore every eval knob, and an untraceable
  model falls back to the eager path with identical results.
"""

from __future__ import annotations

import copy
import dataclasses
import warnings

import numpy as np
import pytest

from repro import obs
from repro.models import available_models, build_model
from repro.nn import (BatchNorm2d, Conv2d, Flatten, GlobalAvgPool2d,
                      MaxPool2d, Sequential, Tensor, no_grad)
from repro.nn import functional as F
from repro.nn.graph import GraphTraceError
from repro.nn.graph import compile as graph_compile
from repro.pruning.surgery import channel_mask, prune_unit
from repro.pruning.units import ConvUnit
from repro.training import EVAL_BATCH_SIZE, evaluate

#: Small enough to keep resnet110/vgg19 cheap, big enough to exercise
#: every stage transition.
_GEOMETRY = {"num_classes": 5, "input_size": 12}


def _width(name: str) -> float:
    return 0.125 if name.startswith("vgg") else 0.25


def _randomize_batchnorms(model, rng) -> None:
    """Give every BatchNorm trained-looking affine terms and statistics.

    At their initial values (γ=1, β=0, μ=0, σ²=1) a zero channel stays
    zero and the folded shift is zero, which would hide a missed rezero
    or a wrong fold.
    """
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            size = module.num_features
            module.weight.data[...] = rng.uniform(0.5, 1.5, size)
            module.bias.data[...] = rng.normal(0.0, 0.5, size)
            module.running_mean[...] = rng.normal(0.0, 0.5, size)
            module.running_var[...] = rng.uniform(0.5, 1.5, size)


@pytest.fixture(scope="module", params=available_models())
def compiled_case(request):
    """``(name, model, images)`` for one registry model, eval mode, with
    trained-looking BatchNorms."""
    name = request.param
    rng = np.random.default_rng(42)
    model = build_model(name, width_multiplier=_width(name), rng=rng,
                        **_GEOMETRY)
    model.eval()
    _randomize_batchnorms(model, rng)
    images = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
    return name, model, images


def _eager(model, x):
    with no_grad():
        return model(Tensor(np.asarray(x))).data


class TestRegistryEquivalence:
    def test_unfused_is_bitwise_identical(self, compiled_case):
        _, model, images = compiled_case
        executor = graph_compile(model, Tensor(images[:1]), fuse=False)
        reference = _eager(model, images)
        first = executor.run(images)
        assert np.array_equal(first, reference)
        # A second call must not see state the first one left.
        assert np.array_equal(executor.run(images), reference)

    def test_fused_within_1e8_on_float64(self, compiled_case):
        _, model, images = compiled_case
        x64 = images.astype(np.float64)
        executor = graph_compile(model, Tensor(x64[:1]), fuse=True)
        reference = _eager(model, x64)
        drift = np.max(np.abs(executor.run(x64) - reference))
        # Scale-aware: untrained deep resnets emit O(1e6) logits, where
        # 1e-8 *relative* is the meaningful fused-arithmetic bound.
        assert drift <= 1e-8 * max(1.0, float(np.max(np.abs(reference))))

    def test_masked_matches_channel_mask_bitwise(self, compiled_case):
        _, model, images = compiled_case
        unit = model.prune_units()[len(model.prune_units()) // 2]
        mask = np.zeros(unit.num_maps, dtype=bool)
        mask[::2] = True
        executor = graph_compile(model, Tensor(images[:1]), fuse=False)
        executor.set_mask_unit(unit.conv, unit.bn)
        with channel_mask(unit, mask):
            reference = _eager(model, images)
        got = executor.masked_logits(images, [mask])[0]
        assert np.array_equal(got, reference)

    def test_profiler_sees_the_eager_ops(self, compiled_case):
        """An unfused run reports, through the replayed modules' own
        hooks, the ops the eager forward reports; a fused run reports
        each folded conv once and no folded BatchNorm."""
        _, model, images = compiled_case
        model = copy.deepcopy(model)

        def ops(forward):
            recorder = obs.Recorder()
            with obs.use_recorder(recorder):
                forward(images)
            return {name: (stats["forward"]["kind"],
                           stats["forward"]["count"],
                           stats["forward"]["flops"],
                           stats["forward"]["bytes"])
                    for name, stats in recorder.op_stats.items()}

        with obs.ModuleProfiler():
            obs.label_modules(model)
            unfused = graph_compile(model, Tensor(images[:1]), fuse=False)
            fused = graph_compile(model, Tensor(images[:1]), fuse=True)
            eager = ops(lambda x: _eager(model, x))
            replayed = ops(unfused.run)
            folded = ops(fused.run)
        assert eager and replayed == eager
        assert folded == {name: op for name, op in eager.items()
                          if op[0] != "BatchNorm2d"}
        assert all(op[1] == 1 for op in folded.values() if op[0] == "Conv2d")


#: Depth-diverse subset for the heavier masked/surgered scenarios.
_SUBSET = ("lenet", "vgg11", "resnet20")


class TestSignedZeros:
    """Unfused executor output equals eager output byte for byte: a max
    pool keeps the sign of each window's first maximal zero."""

    def test_max_pool_keeps_first_zero_sign(self):
        x = np.tile(np.array([[0.0, -0.0], [-1.0, -1.0]]), (2, 3, 2, 2))
        model = Sequential(MaxPool2d(2), Flatten())
        executor = graph_compile(model, Tensor(x[:1]), fuse=False)
        expected = _eager(model, x)
        assert not np.signbit(expected).any()
        assert executor.run(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ("lenet", "vgg11"))
    def test_model_pools_on_relu_ties(self, monkeypatch, name):
        # Each pool of the model on its own input, a ReLU output whose
        # negatives became -0.0, with +0.0 planted at the zeros of even
        # rows and columns (the first element of every 2x2 window).
        rng = np.random.default_rng(5)
        model = build_model(name, width_multiplier=_width(name), rng=rng,
                            **_GEOMETRY)
        model.eval()
        seen = []
        max_pool2d = F.max_pool2d

        def record(x, *geometry):
            seen.append((x.data, geometry))
            return max_pool2d(x, *geometry)

        monkeypatch.setattr(F, "max_pool2d", record)
        _eager(model, rng.standard_normal((4, 3, 12, 12)).astype(np.float32))
        monkeypatch.undo()
        assert seen
        for activation, geometry in seen:
            ties = activation.copy(order="K")
            corners = ties[:, :, ::2, ::2]
            corners[corners == 0] = 0.0
            pool = Sequential(MaxPool2d(*geometry), Flatten())
            executor = graph_compile(pool, Tensor(ties[:1]), fuse=False)
            expected = _eager(pool, ties)
            assert executor.run(ties).tobytes() == expected.tobytes(), geometry


class TestMaskedScenarios:
    @pytest.mark.parametrize("name", _SUBSET)
    def test_surgered_model_recompiles_and_matches(self, name):
        rng = np.random.default_rng(7)
        model = build_model(name, width_multiplier=_width(name), rng=rng,
                            **_GEOMETRY)
        model.eval()
        unit = model.prune_units()[0]
        keep = np.zeros(unit.num_maps, dtype=bool)
        keep[: max(1, unit.num_maps // 2)] = True
        prune_unit(unit, keep)
        images = rng.standard_normal((3, 3, 12, 12)).astype(np.float32)
        executor = graph_compile(model, Tensor(images[:1]), fuse=False)
        assert np.array_equal(executor.run(images), _eager(model, images))

    @pytest.mark.parametrize("name", _SUBSET)
    @pytest.mark.parametrize("fuse", (False, True))
    def test_masked_scoring_equals_channel_mask(self, name, fuse):
        rng = np.random.default_rng(11)
        model = build_model(name, width_multiplier=_width(name), rng=rng,
                            **_GEOMETRY)
        model.eval()
        _randomize_batchnorms(model, rng)
        unit = model.prune_units()[-1]
        masks = []
        for _ in range(3):
            mask = rng.random(unit.num_maps) > 0.4
            mask[0] = True
            masks.append(mask)
        images = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
        if fuse:            # isolate fusion arithmetic from float32 input
            images = images.astype(np.float64)
        executor = graph_compile(model, Tensor(images[:1]), fuse=fuse)
        executor.set_mask_unit(unit.conv, unit.bn)
        scored = executor.masked_logits(images, masks)
        for mask, logits in zip(masks, scored):
            with channel_mask(unit, mask):
                reference = _eager(model, images)
            if fuse:
                bound = 1e-8 * max(1.0, float(np.max(np.abs(reference))))
                assert np.max(np.abs(logits - reference)) <= bound
            else:
                assert logits.tobytes() == reference.tobytes()

    def test_masked_accuracy_matches_dense_evaluation(self, tiny_task,
                                                      trained_lenet):
        model = trained_lenet
        model.eval()
        unit = model.prune_units()[0]
        mask = np.zeros(unit.num_maps, dtype=bool)
        mask[::2] = True
        images = tiny_task.test.images
        labels = tiny_task.test.labels
        executor = graph_compile(model, Tensor(images[:1]), fuse=False)
        executor.set_mask_unit(unit.conv, unit.bn)
        with channel_mask(unit, mask):
            dense = evaluate(model, images, labels)
        got = executor.masked_accuracy(images, labels, [mask],
                                       EVAL_BATCH_SIZE, key="t")
        assert float(got[0]) == dense

    @pytest.mark.parametrize("name", _SUBSET)
    def test_training_mode_model_replays_in_eval_mode(self, name):
        """A model left in training mode is replayed as eager evaluation
        runs it: in eval mode, BatchNorm reading (and keeping) its running
        statistics, with every training flag restored afterwards."""
        rng = np.random.default_rng(13)
        model = build_model(name, width_multiplier=_width(name), rng=rng,
                            **_GEOMETRY)
        _randomize_batchnorms(model, rng)
        unit = model.prune_units()[-1]
        mask = np.ones(unit.num_maps, dtype=bool)
        mask[1::2] = False
        images = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
        labels = rng.integers(0, _GEOMETRY["num_classes"], size=4)
        model.eval()
        reference = _eager(model, images)
        with channel_mask(unit, mask):
            masked = _eager(model, images)
            dense = evaluate(model, images, labels)
        model.train()
        state = model.state_dict()
        executor = graph_compile(model, Tensor(images[:1]), fuse=False)
        executor.set_mask_unit(unit.conv, unit.bn)
        assert executor.run(images).tobytes() == reference.tobytes()
        got = executor.masked_logits(images, [mask])[0]
        assert got.tobytes() == masked.tobytes()
        accuracy = executor.masked_accuracy(images, labels, [mask],
                                            EVAL_BATCH_SIZE, key="t")
        assert float(accuracy[0]) == dense
        assert all(module.training for module in model.modules())
        for key, value in model.state_dict().items():
            assert value.tobytes() == state[key].tobytes(), key

    def test_masked_copy_keeps_the_boundary_layout(self):
        """The masked boundary is copied in its own (channels-last)
        memory order, so a reduction right after the unit sums in the
        dense pass's order."""
        rng = np.random.default_rng(17)
        conv = Conv2d(3, 6, 3, padding=1, rng=rng)
        bn = BatchNorm2d(6)
        model = Sequential(conv, bn, GlobalAvgPool2d())
        model.eval()
        _randomize_batchnorms(model, rng)
        mask = np.array([True, False] * 3)
        images = rng.standard_normal((4, 3, 16, 16))
        executor = graph_compile(model, Tensor(images[:1]), fuse=False)
        executor.set_mask_unit(conv, bn)
        with channel_mask(ConvUnit("conv", conv, bn), mask):
            reference = _eager(model, images)
        got = executor.masked_logits(images, [mask])[0]
        assert got.tobytes() == reference.tobytes()


class TestEvalOptions:
    def test_validation_rejects_incoherent_combinations(self):
        from repro.core import EvalOptions

        with pytest.raises(ValueError):
            EvalOptions(graph=False, fused=True)       # fused needs graph
        assert EvalOptions(fused=True).mode == "graph"
        assert EvalOptions().mode == "graph"
        assert EvalOptions(graph=False).mode == "dense"

    def test_eval_paths_share_a_resume_digest(self):
        from repro.core import EvalOptions, HeadStartConfig
        from repro.core.config import resume_relevant

        dense = HeadStartConfig(speedup=2.0, seed=5,
                                eval=EvalOptions(graph=False))
        graph = HeadStartConfig(speedup=2.0, seed=5,
                                eval=EvalOptions(fused=True))
        # Every eval knob is performance-only: digests ignore all of it.
        assert resume_relevant(dense) == resume_relevant(graph)

    def test_replace_round_trips_without_warnings(self):
        from repro.core import EvalOptions, HeadStartConfig

        config = HeadStartConfig(speedup=2.0, eval=EvalOptions(fused=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clone = dataclasses.replace(config, seed=9)
        assert clone.eval.fused and clone.seed == 9

    def test_eval_must_be_eval_options(self):
        from repro.core import HeadStartConfig

        with pytest.raises(TypeError, match="EvalOptions"):
            HeadStartConfig(speedup=2.0, eval={"graph": True})


class TestCliEvalFlags:
    @staticmethod
    def _parse(extra):
        from repro.cli import _eval_options, build_parser

        args = build_parser().parse_args(
            ["prune", "--model", "lenet"] + extra)
        return _eval_options(args)

    def test_eval_mode_graph_with_perf_knobs(self):
        options = self._parse(["--eval-mode", "graph", "--eval-fused"])
        assert options.graph and options.fused

    def test_defaults_come_from_eval_options(self):
        from repro.core import EvalOptions

        assert self._parse([]) == EvalOptions()
        assert self._parse(["--eval-mode", "dense"]) \
            == EvalOptions(graph=False)


class TestAgentFallback:
    def test_untraceable_model_falls_back_to_eager(self, monkeypatch,
                                                   lenet_copy, calibration):
        import repro.core.agent as agent_module
        from repro.core import HeadStartConfig, LayerAgent
        from repro.obs import Recorder, use_recorder

        def run():
            config = HeadStartConfig(speedup=2.0, max_iterations=4,
                                     min_iterations=3, patience=3,
                                     eval_batch=16, seed=0, mc_samples=2)
            unit = lenet_copy.prune_units()[0]
            recorder = Recorder()
            with use_recorder(recorder):
                result = LayerAgent(lenet_copy, unit, *calibration,
                                    config).run()
            return result, recorder.counters

        graph, graph_counters = run()
        assert graph_counters["graph/compiled"] == 1

        def untraceable(*args, **kwargs):
            raise GraphTraceError("data-dependent control flow")

        monkeypatch.setattr(agent_module, "graph_compile", untraceable)
        eager, eager_counters = run()
        assert eager_counters["graph/fallbacks"] == 1
        assert "graph/compiled" not in eager_counters
        np.testing.assert_array_equal(eager.keep_mask, graph.keep_mask)
        assert eager.reward_history == graph.reward_history
        assert eager.inception_accuracy == graph.inception_accuracy
