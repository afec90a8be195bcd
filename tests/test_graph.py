"""Static-graph executor: equivalence with eager eval, and EvalOptions.

The graph executor's whole contract is *it changes nothing but speed*:

* unfused ``compile()`` output is bit-for-bit the eager forward, for
  every registered model, across repeat calls (arena buffer reuse must
  not leak state between runs);
* fused (BN-fold + ReLU-epilogue) output stays within 1e-8 on float64
  inputs;
* masked execution through ``set_mask_unit`` matches the dense
  ``channel_mask`` forward bitwise, surgered (physically pruned) models
  retrace and still match, and mask-batch scoring equals the per-mask
  loop;
* graph eval is the ``EvalOptions`` default, the CLI takes its defaults
  from it, resume digests ignore every eval knob, and an untraceable
  model falls back to the eager path with identical results.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.models import available_models, build_model
from repro.nn import Tensor, no_grad
from repro.nn.graph import GraphTraceError
from repro.nn.graph import compile as graph_compile
from repro.pruning.surgery import channel_mask, prune_unit

#: Small enough to keep resnet110/vgg19 cheap, big enough to exercise
#: every stage transition.
_GEOMETRY = {"num_classes": 5, "input_size": 12}


def _width(name: str) -> float:
    return 0.125 if name.startswith("vgg") else 0.25


@pytest.fixture(scope="module", params=available_models())
def compiled_case(request):
    """``(name, model, images)`` for one registry model, eval mode."""
    name = request.param
    rng = np.random.default_rng(42)
    model = build_model(name, width_multiplier=_width(name), rng=rng,
                        **_GEOMETRY)
    model.eval()
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
        # Second call reuses arena buffers; it must not see stale data.
        assert np.array_equal(executor.run(images), reference)
        assert executor.arena_stats["reuses"] > 0

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
        executor.set_mask_unit(unit.conv, unit.bn,
                               tied=[(t.conv, t.bn) for t in unit.tied])
        with channel_mask(unit, mask):
            reference = _eager(model, images)
        got = executor.masked_logits(images, [mask])[0]
        assert np.array_equal(got, reference)


#: Depth-diverse subset for the heavier masked/surgered scenarios —
#: including both multi-branch models, so the mask-batch folded suffix
#: is exercised across a concat boundary (googlenet's last unit is a
#: branch feeding a shared ConcatLayout) and through a depthwise tie.
_SUBSET = ("lenet", "vgg11", "resnet20", "googlenet", "mobilenet")


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
    def test_mask_batch_equals_per_mask_loop(self, name, fuse):
        rng = np.random.default_rng(11)
        model = build_model(name, width_multiplier=_width(name), rng=rng,
                            **_GEOMETRY)
        model.eval()
        # A depthwise-tied unit when the model has one (mobilenet: the
        # folded suffix must rezero the tied BN rows per copy), else the
        # last unit (googlenet: a branch unit scored across its concat).
        units = model.prune_units()
        unit = next((u for u in units if u.tied), units[-1])
        masks = []
        for _ in range(3):
            mask = rng.random(unit.num_maps) > 0.4
            mask[0] = True
            masks.append(mask)
        images = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
        per_mask = graph_compile(model, Tensor(images[:1]), fuse=fuse,
                                 mask_batch=False)
        folded = graph_compile(model, Tensor(images[:1]), fuse=fuse,
                               mask_batch=True)
        for executor in (per_mask, folded):
            executor.set_mask_unit(unit.conv, unit.bn,
                                   tied=[(t.conv, t.bn) for t in unit.tied])
        looped = per_mask.masked_logits(images, masks)
        batched = folded.masked_logits(images, masks)
        # Folding changes the GEMM's M dimension, which lets BLAS pick a
        # different blocking — last-ulp float32 noise, nothing more.
        scale = max(1.0, float(np.max(np.abs(looped))))
        assert np.max(np.abs(batched - looped)) <= 1e-5 * scale

    def test_masked_accuracy_matches_dense_evaluation(self, tiny_task,
                                                      trained_lenet):
        from repro.training import evaluate

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
        got = executor.masked_accuracy(images, labels, [mask], key="t")
        assert float(got[0]) == dense


class TestEvalOptions:
    def test_validation_rejects_incoherent_combinations(self):
        from repro.core import EvalOptions

        with pytest.raises(ValueError):
            EvalOptions(graph=False, fused=True)       # fused needs graph
        with pytest.raises(ValueError):
            EvalOptions(graph=False, mask_batch=True)  # so does mask_batch
        with pytest.raises(ValueError):
            EvalOptions(workers=-1)
        assert EvalOptions(fused=True, mask_batch=True).mode == "graph"
        assert EvalOptions().mode == "graph"
        assert EvalOptions(graph=False).mode == "dense"

    def test_old_and_new_spellings_share_a_resume_digest(self):
        from repro.core import EvalOptions, HeadStartConfig
        from repro.core.config import resume_relevant

        new = HeadStartConfig(speedup=2.0, seed=5,
                              eval=EvalOptions(cache=False, workers=4))
        # A config journaled before the eval block: flat knob names.
        old = dataclasses.asdict(new)
        del old["eval"]
        old.update(eval_cache=False, cache_size=256, compressed_eval=False,
                   workers=4, task_seconds=None, task_retries=2)
        dense = HeadStartConfig(speedup=2.0, seed=5,
                                eval=EvalOptions(graph=False))
        graph = HeadStartConfig(speedup=2.0, seed=5,
                                eval=EvalOptions(fused=True,
                                                 mask_batch=True))
        assert resume_relevant(new) == resume_relevant(old)
        # Every eval knob is performance-only: digests ignore all of it.
        assert resume_relevant(dense) == resume_relevant(graph)

    def test_replace_round_trips_without_warnings(self):
        from repro.core import EvalOptions, HeadStartConfig

        config = HeadStartConfig(speedup=2.0,
                                 eval=EvalOptions(cache_size=99))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clone = dataclasses.replace(config, seed=9)
        assert clone.eval.cache_size == 99 and clone.seed == 9

    def test_journaled_dict_form_is_coerced(self):
        from repro.core import HeadStartConfig

        config = HeadStartConfig(speedup=2.0,
                                 eval={"graph": True, "cache_size": 8})
        assert config.eval.graph is True and config.eval.cache_size == 8


class TestCliEvalFlags:
    @staticmethod
    def _parse(extra):
        from repro.cli import _eval_options, build_parser

        args = build_parser().parse_args(
            ["prune", "--model", "lenet"] + extra)
        return _eval_options(args)

    def test_eval_mode_graph_with_perf_knobs(self):
        options = self._parse(["--eval-mode", "graph", "--eval-fused",
                               "--eval-mask-batch", "--eval-workers", "2"])
        assert options.graph and options.fused and options.mask_batch
        assert options.workers == 2

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
