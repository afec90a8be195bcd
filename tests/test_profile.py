"""Op-level profiler: disabled-path purity, FLOP parity, backward hooks."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import obs
from repro.models import build_model
from repro.nn.modules import BatchNorm2d, Conv2d, Linear
from repro.nn.tensor import Tensor, creator_closures
from repro.pruning import profile_model


def _forward(model, batch: int = 2, channels: int = 3, size: int = 12):
    x = Tensor(np.random.default_rng(0)
               .normal(size=(batch, channels, size, size))
               .astype(np.float32))
    return x, model(x)


class TestDisabledPath:
    def test_layer_classes_are_unpatched_by_default(self):
        for cls in (Conv2d, Linear, BatchNorm2d):
            assert not hasattr(cls.forward, "_repro_profiler")
        assert not obs.profiler_active()

    def test_no_op_events_without_profiler(self):
        model = build_model("lenet", num_classes=4, input_size=12)
        rec = obs.Recorder()
        with obs.use_recorder(rec):
            _forward(model)
        assert rec.op_stats == {}
        assert rec.aggregate()["ops"] == {}

    def test_disabled_run_matches_null_recorder_behaviour(self):
        # The profiler-disabled path must add no events at all: a real
        # recorder sees the exact stream a NullRecorder would (nothing).
        model = build_model("lenet", num_classes=4, input_size=12)
        rec = obs.Recorder()
        with obs.use_recorder(rec):
            x, out = _forward(model)
            out.sum().backward()
        agg = rec.aggregate()
        assert agg["ops"] == {}
        assert agg["counters"] == {}
        assert agg["spans"] == {}

    def test_label_modules_is_a_noop_without_profiler(self):
        model = build_model("lenet", num_classes=4, input_size=12)
        assert obs.label_modules(model) == 0

    def test_backward_closures_untouched_without_profiler(self):
        model = build_model("lenet", num_classes=4, input_size=12)
        x, out = _forward(model)
        for tensor in creator_closures(out, (x,)):
            assert not getattr(tensor._backward, "_repro_profiled", False)


class TestInstallLifecycle:
    def test_install_patches_and_uninstall_restores(self):
        originals = {cls: cls.forward
                     for cls in (Conv2d, Linear, BatchNorm2d)}
        with obs.ModuleProfiler():
            assert obs.profiler_active()
            for cls in originals:
                assert getattr(cls.forward, "_repro_profiler", False)
        assert not obs.profiler_active()
        for cls, original in originals.items():
            assert cls.forward is original

    def test_only_one_profiler_at_a_time(self):
        with obs.ModuleProfiler():
            with pytest.raises(RuntimeError, match="already installed"):
                obs.ModuleProfiler().install()

    def test_uninstall_restores_after_exception(self):
        original = Conv2d.forward
        with pytest.raises(RuntimeError):
            with obs.ModuleProfiler():
                raise RuntimeError("boom")
        assert Conv2d.forward is original


class TestFlopParity:
    @pytest.mark.parametrize("name,size", [("lenet", 12), ("vgg11", 16),
                                           ("resnet20", 16)])
    def test_forward_flops_match_profile_model(self, name, size):
        # The profiler reuses pruning.stats.layer_cost, so its per-layer
        # forward FLOPs must equal the static table times the batch.
        model = build_model(name, num_classes=4, input_size=size,
                            width_multiplier=0.25)
        stats = profile_model(model, (3, size, size))
        batch = 2
        rec = obs.Recorder()
        with obs.use_recorder(rec), obs.ModuleProfiler():
            obs.label_modules(model)
            _forward(model, batch=batch, size=size)
        ops = rec.aggregate()["ops"]
        assert ops, "profiler emitted no op events"
        for layer in stats.layers:
            forward = ops[layer.name]["forward"]
            assert forward["flops"] == layer.flops * batch
            assert forward["count"] == 1
            assert forward["kind"] == layer.kind

    def test_forward_bytes_match_gpusim_accounting(self):
        from repro.gpusim.latency import layer_bytes

        model = build_model("lenet", num_classes=4, input_size=12)
        stats = profile_model(model, (3, 12, 12))
        rec = obs.Recorder()
        with obs.use_recorder(rec), obs.ModuleProfiler():
            obs.label_modules(model)
            _forward(model, batch=3)
        ops = rec.aggregate()["ops"]
        for layer in stats.layers:
            expected = layer_bytes(layer.input_shape, layer.output_shape,
                                   layer.params, batch_size=3)
            assert ops[layer.name]["forward"]["bytes"] == expected


class TestBackwardAttribution:
    def test_backward_events_per_module(self):
        model = build_model("lenet", num_classes=4, input_size=12)
        rec = obs.Recorder()
        with obs.use_recorder(rec), obs.ModuleProfiler():
            obs.label_modules(model)
            x, out = _forward(model)
            out.sum().backward()
        ops = rec.aggregate()["ops"]
        backward = {name for name, phases in ops.items()
                    if "backward" in phases}
        assert {"conv1", "conv2"} <= backward
        for name in backward:
            stats = ops[name]["backward"]
            assert stats["count"] >= 1
            assert stats["total_s"] >= 0.0
            # Backward events carry no FLOP/byte accounting.
            assert stats["flops"] == 0 and stats["bytes"] == 0

    def test_backward_without_backward_pass_emits_nothing(self):
        model = build_model("lenet", num_classes=4, input_size=12)
        rec = obs.Recorder()
        with obs.use_recorder(rec), obs.ModuleProfiler():
            obs.label_modules(model)
            _forward(model)  # no .backward() call
        ops = rec.aggregate()["ops"]
        assert all("backward" not in phases or
                   phases["backward"]["count"] == 0
                   for phases in ops.values())


class TestNaming:
    def test_labelled_modules_use_dotted_names(self):
        model = build_model("lenet", num_classes=4, input_size=12)
        rec = obs.Recorder()
        with obs.use_recorder(rec), obs.ModuleProfiler():
            count = obs.label_modules(model)
            _forward(model)
        assert count > 0
        assert "conv1" in rec.aggregate()["ops"]

    def test_labels_survive_deepcopy(self):
        # The runner's rollback deep-copies the model; its ops must keep
        # the labelled names, not fall back to reprs.
        model = build_model("lenet", num_classes=4, input_size=12)
        rec, copy_rec = obs.Recorder(), obs.Recorder()
        with obs.ModuleProfiler():
            obs.label_modules(model)
            with obs.use_recorder(rec):
                _forward(model)
            with obs.use_recorder(copy_rec):
                _forward(copy.deepcopy(model))
        assert "conv1" in rec.aggregate()["ops"]
        assert copy_rec.aggregate()["ops"].keys() == \
            rec.aggregate()["ops"].keys()

    def test_unlabelled_modules_fall_back_to_repr(self):
        model = build_model("lenet", num_classes=4, input_size=12)
        rec = obs.Recorder()
        with obs.use_recorder(rec), obs.ModuleProfiler():
            _forward(model)  # no label_modules call
        names = set(rec.aggregate()["ops"])
        assert names
        assert all("(" in name for name in names), names


class TestEventStream:
    def test_op_events_validate_and_survive_deterministic_view(self, tmp_path):
        model = build_model("lenet", num_classes=4, input_size=12)
        with obs.Recorder(tmp_path) as rec, obs.use_recorder(rec), \
                obs.ModuleProfiler():
            obs.label_modules(model)
            x, out = _forward(model)
            out.sum().backward()
        events = obs.load_metrics(tmp_path)
        assert obs.validate_events(events) == []
        ops = [e for e in events if e["event"] == "op"]
        assert ops
        view = obs.deterministic_view(events)
        stripped = [e for e in view if e["event"] == "op"]
        assert len(stripped) == len(ops)
        for record in stripped:
            assert "t" not in record and "dur" not in record
        forwards = [e for e in stripped if e["phase"] == "forward"]
        assert all("flops" in e and "bytes" in e for e in forwards)
