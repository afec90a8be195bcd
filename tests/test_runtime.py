"""Unit tests for the fault-tolerant runtime building blocks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn import NonFiniteError, Parameter, any_nonfinite
from repro.nn.optim import SGD, Adam, RMSprop
from repro.runtime import (AccuracyCollapseError, DivergenceError, FaultPlan,
                           JournalError, RetryPolicy, RunJournal,
                           SimulatedCrash, config_digest, inject)
from repro.runtime import faults
from repro.runtime.guards import (check_accuracy_collapse, require_all_finite,
                                  require_finite)
from repro.utils import (CheckpointError, checkpoint_keys, load_checkpoint,
                         save_checkpoint)


class TestJournal:
    def test_append_read_roundtrip(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append({"record": "run_start", "version": 1, "x": [1, 2]})
        journal.append({"record": "layer_complete", "index": 0,
                        "mask": np.array([1, 0, 1])})
        records = journal.read()
        assert [r["record"] for r in records] == ["run_start",
                                                 "layer_complete"]
        assert records[1]["mask"] == [1, 0, 1]

    def test_record_key_required(self, tmp_path):
        with pytest.raises(ValueError):
            RunJournal(tmp_path / "j.jsonl").append({"index": 0})

    def test_truncated_final_line_is_dropped(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append({"record": "run_start", "version": 1})
        journal.append({"record": "layer_complete", "index": 0})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "layer_complete", "ind')  # torn write
        records = journal.read()
        assert len(records) == 2

    def test_append_after_torn_tail_repairs_file(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append({"record": "run_start", "version": 1})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "layer_comp')  # torn write
        # Appending must not concatenate onto the torn line (which would
        # corrupt both records and poison every later read()).
        journal.append({"record": "layer_complete", "index": 0})
        records = journal.read()
        assert [r["record"] for r in records] == ["run_start",
                                                  "layer_complete"]
        journal.append({"record": "run_complete"})
        assert len(journal.read()) == 3

    def test_corrupt_interior_line_raises(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append({"record": "run_start", "version": 1})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        journal.append({"record": "layer_complete", "index": 0})
        with pytest.raises(JournalError):
            journal.read()

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal(tmp_path / "absent.jsonl").read()

    def test_header_validates_version(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append({"record": "run_start", "version": 99})
        with pytest.raises(JournalError):
            journal.header()

    def test_contiguous_prefix(self):
        assert RunJournal.contiguous_prefix([]) == 0
        assert RunJournal.contiguous_prefix([0, 1, 2]) == 3
        assert RunJournal.contiguous_prefix([0, 2]) == 1
        assert RunJournal.contiguous_prefix([1, 2]) == 0

    def test_config_digest_is_stable_and_sensitive(self):
        from repro.core import HeadStartConfig
        a = config_digest(HeadStartConfig(), {"skip_last": True})
        b = config_digest(HeadStartConfig(), {"skip_last": True})
        c = config_digest(HeadStartConfig(speedup=5.0), {"skip_last": True})
        assert a == b
        assert a != c


class TestFaultPlan:
    def test_noop_without_plan(self):
        faults.crash_point("anywhere")
        assert faults.corrupt("anywhere", 1.5) == 1.5

    def test_crash_at_count(self):
        plan = FaultPlan().crash_at("site", 2)
        with inject(plan):
            faults.crash_point("site")
            with pytest.raises(SimulatedCrash):
                faults.crash_point("site")
        assert plan.fired == [("site", 2, "crash")]

    def test_nan_every_call(self):
        with inject(FaultPlan().nan_at("site")):
            assert np.isnan(faults.corrupt("site", 1.0))
            assert np.isnan(faults.corrupt("site", 2.0))
        assert faults.corrupt("site", 3.0) == 3.0

    def test_sites_are_independent(self):
        with inject(FaultPlan().nan_at("a", 1)):
            assert faults.corrupt("b", 1.0) == 1.0
            assert np.isnan(faults.corrupt("a", 1.0))

    def test_plans_nest_and_restore(self):
        outer = FaultPlan().nan_at("s")
        with inject(outer):
            with inject(FaultPlan()):
                assert faults.corrupt("s", 1.0) == 1.0
            assert np.isnan(faults.corrupt("s", 1.0))
        assert faults.active_plan() is None


class TestImportFootprint:
    def test_import_starts_no_multiprocessing(self):
        # Rewards are evaluated in process: importing the package or the
        # harness must not load multiprocessing (or its shared memory).
        src = Path(__file__).resolve().parent.parent / "src"
        probe = ("import sys, repro, repro.runtime.harness; "
                 "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"


class TestGuards:
    def test_require_finite_passes_through(self):
        assert require_finite(0.25, "stage") == 0.25

    def test_require_finite_raises_with_context(self):
        with pytest.raises(DivergenceError) as info:
            require_finite(float("nan"), "reinforce.loss", layer="conv1",
                           iteration=7)
        assert info.value.stage == "reinforce.loss"
        assert info.value.layer == "conv1"
        assert info.value.iteration == 7
        record = info.value.as_record()
        assert record["kind"] == "DivergenceError"

    def test_require_all_finite(self):
        require_all_finite([1.0, 2.0], "stage")
        with pytest.raises(DivergenceError):
            require_all_finite([1.0, float("inf")], "stage")

    def test_collapse_guard(self):
        check_accuracy_collapse(0.8, 0.6, ratio=0.5)  # fine
        check_accuracy_collapse(0.8, 0.1, ratio=0.0)  # disabled
        check_accuracy_collapse(float("nan"), 0.1, ratio=0.5)  # no baseline
        with pytest.raises(AccuracyCollapseError):
            check_accuracy_collapse(0.8, 0.3, ratio=0.5, layer="conv2")


class TestRetryPolicy:
    def test_reseeds_and_backs_off(self):
        from repro.core import HeadStartConfig
        base = HeadStartConfig(seed=5, lr=0.4, exploration=0.05)
        policy = RetryPolicy(max_retries=3, reseed_stride=100,
                             lr_backoff=0.5, exploration_growth=2.0,
                             exploration_cap=0.3)
        first = policy.layer_config(base, seed_offset=2, attempt=1)
        second = policy.layer_config(base, seed_offset=2, attempt=2)
        assert first.seed == 5 + 2 + 100
        assert second.seed == 5 + 2 + 200
        assert first.lr == pytest.approx(0.2)
        assert second.lr == pytest.approx(0.1)
        assert first.exploration == pytest.approx(0.1)
        assert second.exploration == pytest.approx(0.2)

    def test_exploration_is_capped_and_floored(self):
        from repro.core import HeadStartConfig
        policy = RetryPolicy(exploration_growth=10.0, exploration_cap=0.25)
        cfg = policy.layer_config(HeadStartConfig(exploration=0.05), 0, 2)
        assert cfg.exploration == 0.25
        cold = policy.layer_config(HeadStartConfig(exploration=0.0), 0, 1)
        assert cold.exploration > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(lr_backoff=0.0)
        with pytest.raises(ValueError):
            RetryPolicy().layer_config(None, 0, 0)


class TestNonFiniteSweep:
    def test_any_nonfinite_on_arrays(self):
        assert not any_nonfinite([np.ones(3)])
        assert any_nonfinite([np.array([1.0, np.nan])])
        assert any_nonfinite([np.array([np.inf])])

    def test_any_nonfinite_checks_grads(self):
        param = Parameter(np.ones(4))
        assert not any_nonfinite([param])
        param.grad = np.array([0.0, np.nan, 0.0, 0.0])
        assert any_nonfinite([param])

    @pytest.mark.parametrize("optimizer_cls", [SGD, RMSprop, Adam])
    def test_optimizers_fail_fast_on_nan_grad(self, optimizer_cls):
        param = Parameter(np.ones(4))
        optimizer = optimizer_cls([param], lr=0.1)
        param.grad = np.array([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(NonFiniteError):
            optimizer.step()
        assert np.all(np.isfinite(param.data))  # model left untouched

    def test_check_can_be_disabled(self):
        param = Parameter(np.ones(2))
        optimizer = SGD([param], lr=0.1, check_finite=False)
        param.grad = np.array([np.nan, 0.0])
        optimizer.step()  # legacy silent propagation
        assert np.isnan(param.data[0])


class TestAtomicCheckpoints:
    def _model(self, seed=0):
        from repro.models import lenet
        return lenet(num_classes=4, input_size=12,
                     rng=np.random.default_rng(seed))

    def test_save_writes_meta_and_no_temp_litter(self, tmp_path):
        model = self._model()
        path = save_checkpoint(model, tmp_path / "model")
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []
        with np.load(path) as archive:
            meta = json.loads(str(archive["__meta__"]))
        assert meta["version"] == 1
        assert meta["keys"] == len(model.state_dict())
        # The meta entry stays invisible to the public key listing.
        assert "__meta__" not in checkpoint_keys(path)

    def test_truncated_archive_is_a_structured_error(self, tmp_path):
        model = self._model()
        path = save_checkpoint(model, tmp_path / "model")
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(self._model(1), path)

    def test_digest_mismatch_is_a_structured_error(self, tmp_path):
        model = self._model()
        path = save_checkpoint(model, tmp_path / "model")
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["conv1.weight"] = payload["conv1.weight"][:1]  # tamper
        np.savez(path, **payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(self._model(1), path)

    def test_legacy_checkpoint_without_meta_still_loads(self, tmp_path):
        model = self._model()
        path = tmp_path / "legacy.npz"
        np.savez(path, **model.state_dict())
        twin = self._model(1)
        load_checkpoint(twin, path)
        assert np.allclose(twin.conv1.weight.data, model.conv1.weight.data)

    def test_roundtrip_preserves_bits(self, tmp_path):
        model = self._model()
        path = save_checkpoint(model, tmp_path / "model")
        twin = self._model(1)
        load_checkpoint(twin, path)
        for key, value in model.state_dict().items():
            assert np.array_equal(twin.state_dict()[key], value)
