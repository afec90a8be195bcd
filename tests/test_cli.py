"""Unit tests for the command-line interface."""

from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.models import build_model
from repro.utils import save_checkpoint

PRUNE_ARGS = ["prune", "--model", "lenet", "--classes", "4",
              "--image-size", "12", "--train-per-class", "6",
              "--test-per-class", "3", "--epochs", "1",
              "--iterations", "6", "--finetune-epochs", "1",
              "--eval-batch", "16"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "vgg16"
        assert args.dataset == "cifar"
        assert args.epochs == 8

    def test_prune_modes(self):
        args = build_parser().parse_args(["prune", "--mode", "block"])
        assert args.mode == "block"
        for mode in ("magic", "amc"):       # unknown, and retired
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(["prune", "--mode", mode])
            assert info.value.code == 2

    def test_prune_help_offers_layer_and_block_modes(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["prune", "--help"])
        assert info.value.code == 0
        assert "--mode {layer,block}" in capsys.readouterr().out

    def test_metrics_dir_is_shared_across_commands(self):
        for command in (["train"], ["prune"], ["fps"]):
            args = build_parser().parse_args(
                command + ["--metrics-dir", "m"])
            assert args.metrics_dir == "m"
        # profile/metrics/report do not record, so no flag there.
        for command in (["profile"], ["metrics", "m"], ["report"]):
            args = build_parser().parse_args(command)
            assert getattr(args, "metrics_dir", None) is None

    def test_fps_device_choices(self):
        args = build_parser().parse_args(["fps", "--device", "tx2_gpu"])
        assert args.device == "tx2_gpu"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fps", "--device", "tpu"])

    def test_profile_ops_flag_rides_on_recording_commands(self):
        for command in (["train"], ["prune"]):
            args = build_parser().parse_args(command + ["--profile-ops"])
            assert args.profile_ops
            assert not build_parser().parse_args(command).profile_ops

    def test_metrics_diff_positional_form(self):
        args = build_parser().parse_args(
            ["metrics", "diff", "a", "b", "--no-wall"])
        assert args.dir == "diff"
        assert args.rest == ["a", "b"]
        assert args.no_wall
        # Plain summarise form is unchanged by the diff grammar.
        plain = build_parser().parse_args(["metrics", "m"])
        assert plain.dir == "m" and plain.rest == []
        assert plain.wall_tolerance == 50.0
        assert plain.min_seconds == 0.05

    def test_metrics_trace_and_top(self):
        args = build_parser().parse_args(
            ["metrics", "m", "--trace", "out.json", "--top", "3"])
        assert args.trace == "out.json"
        assert args.top == 3

    def test_report_takes_optional_run_dir(self):
        args = build_parser().parse_args(
            ["report", "run", "--format", "md", "--top", "7"])
        assert args.run_dir == "run"
        assert args.format == "md"
        assert args.top == 7
        legacy = build_parser().parse_args(["report"])
        assert legacy.run_dir is None
        assert legacy.out is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "run", "--format", "pdf"])


class TestCommands:
    def test_profile_runs(self, capsys):
        assert main(["profile", "--model", "lenet", "--classes", "4",
                     "--image-size", "12"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "Conv2d" in out

    def test_fps_runs(self, capsys):
        assert main(["fps", "--model", "lenet", "--classes", "4",
                     "--image-size", "12", "--device", "gtx1080ti"]) == 0
        assert "GTX 1080Ti" in capsys.readouterr().out

    def test_train_writes_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "lenet.npz"
        code = main(["train", "--model", "lenet", "--classes", "4",
                     "--image-size", "12", "--train-per-class", "6",
                     "--test-per-class", "3", "--epochs", "1",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "final test accuracy" in capsys.readouterr().out

    def test_prune_layer_mode(self, tmp_path, capsys):
        code = main(["prune", "--model", "lenet", "--classes", "4",
                     "--image-size", "12", "--train-per-class", "6",
                     "--test-per-class", "3", "--epochs", "1",
                     "--iterations", "6", "--finetune-epochs", "1",
                     "--eval-batch", "16",
                     "--out", str(tmp_path / "pruned.npz")])
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned accuracy" in out
        assert (tmp_path / "pruned.npz").exists()

    @pytest.mark.parametrize("flags", [["--speedup", "0.5"],
                                       ["--eval-batch", "0"],
                                       ["--mode", "block"],
                                       ["--batch-size", "0"],
                                       ["--finetune-epochs", "-1"],
                                       ["--checkpoint", "{tmp}/missing.npz"],
                                       ["--checkpoint", "{tmp}/alexnet.npz"]],
                             ids=["speedup", "eval-batch", "block-on-lenet",
                                  "batch-size", "finetune-epochs",
                                  "missing-checkpoint", "wrong-architecture"])
    def test_prune_rejects_bad_flags_before_training(self, flags, tmp_path,
                                                     capsys):
        save_checkpoint(build_model("alexnet", num_classes=4, input_size=12,
                                    width_multiplier=0.25),
                        tmp_path / "alexnet.npz")
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        assert main(PRUNE_ARGS + flags) == 2
        self._assert_one_error_and_no_training(capsys)

    def test_train_rejects_bad_flags_before_training(self, capsys):
        assert main(["train", "--model", "lenet", "--batch-size", "0"]) == 2
        self._assert_one_error_and_no_training(capsys)

    @staticmethod
    def _assert_one_error_and_no_training(capsys):
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1, captured.err
        assert "Traceback" not in captured.err
        assert "training the model first" not in captured.out + captured.err
        assert "final test accuracy" not in captured.out

    BLOCK_ARGS = ["prune", "--model", "resnet20", "--classes", "4",
                  "--image-size", "12", "--width", "0.25",
                  "--mode", "block", "--train-per-class", "6",
                  "--test-per-class", "3", "--epochs", "1",
                  "--iterations", "6", "--finetune-epochs", "1",
                  "--eval-batch", "16"]

    def test_prune_block_mode_on_resnet(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(self.BLOCK_ARGS + ["--run-dir", str(run_dir)])
        assert code == 0
        captured = capsys.readouterr()
        assert "learnt block pattern" in captured.out
        assert "not be journaled" not in captured.err
        # Block mode is journaled like any other engine now.
        journal = run_dir / "journal.jsonl"
        assert journal.exists()
        assert '"run_complete"' in journal.read_text()

    def test_prune_block_mode_resumes_completed_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(self.BLOCK_ARGS + ["--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert main(self.BLOCK_ARGS + ["--run-dir", str(run_dir),
                                       "--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed after 1 journaled step(s)" in second
        pattern = [line for line in first.splitlines()
                   if "learnt block pattern" in line]
        assert pattern[0] in second

    def test_prune_resume_requires_run_dir(self, capsys):
        code = main(["prune", "--model", "lenet", "--resume"])
        assert code == 2
        assert "--run-dir" in capsys.readouterr().err

    def test_prune_rejects_unknown_fallback_engine(self, capsys):
        code = main(PRUNE_ARGS + ["--fallback", "magic"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMetricsCommand:
    def run_prune(self, tmp_path, name, seed="0"):
        metrics_dir = tmp_path / name
        code = main(PRUNE_ARGS + ["--seed", seed,
                                  "--metrics-dir", str(metrics_dir)])
        assert code == 0
        return metrics_dir

    def test_prune_emits_schema_valid_stream(self, tmp_path, capsys):
        metrics_dir = self.run_prune(tmp_path, "m")
        assert "metrics written to" in capsys.readouterr().out
        events = obs.load_metrics(metrics_dir)
        assert obs.validate_events(events) == []
        # The documented signals are present: per-layer spans and
        # per-iteration reward series.
        span_names = {e["name"] for e in events
                      if e["event"] == "span_start"}
        assert {"pruner.run", "prune_layer",
                "reinforce.run"} <= span_names
        series_names = {e["name"] for e in events
                        if e["event"] == "series"}
        assert {"reinforce/reward", "reinforce/baseline",
                "reinforce/action_l0", "train/loss"} <= series_names

    def test_repeat_seeded_run_is_deterministic(self, tmp_path, capsys):
        first = self.run_prune(tmp_path, "m1")
        second = self.run_prune(tmp_path, "m2")
        view_a = obs.deterministic_view(obs.load_metrics(first))
        view_b = obs.deterministic_view(obs.load_metrics(second))
        assert view_a == view_b

    def test_no_metrics_dir_leaves_noop_recorder(self, tmp_path, capsys):
        assert main(PRUNE_ARGS + ["--seed", "3"]) == 0
        assert obs.get_recorder() is obs.NULL_RECORDER
        assert "metrics written" not in capsys.readouterr().out

    def test_metrics_command_summarises_and_checks(self, tmp_path, capsys):
        metrics_dir = self.run_prune(tmp_path, "m")
        capsys.readouterr()
        assert main(["metrics", str(metrics_dir), "--check"]) == 0
        out = capsys.readouterr().out
        assert "schema ok" in out
        assert "prune_layer" in out
        assert "reinforce/reward" in out

    def test_metrics_command_rejects_invalid_stream(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"event":"gauge","name":"g"}\n')
        assert main(["metrics", str(tmp_path), "--check"]) == 1
        assert "schema violation" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["[1, 2]", '"str"', "3"])
    def test_non_object_line_is_unreadable(self, tmp_path, capsys, line):
        path = tmp_path / "metrics.jsonl"
        path.write_text(f"{line}\n")
        for argv in (["metrics", str(path)], ["metrics", str(path), "--check"],
                     ["metrics", str(path), "--trace",
                      str(tmp_path / "t.json")],
                     ["metrics", "diff", str(path), str(path)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, argv
            assert "not a JSON object" in err, argv

    def test_object_without_event_is_unreadable(self, tmp_path, capsys):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        first.write_text('{"seed": 0}\n')
        second.write_text('{"seed": 1}\n')
        for argv in (["metrics", str(first)],
                     ["metrics", str(first), "--check"],
                     ["metrics", str(first), "--trace",
                      str(tmp_path / "t.json")],
                     ["metrics", "diff", str(first), str(second)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, argv
            assert 'line 1' in err and 'no "event" field' in err, argv
        # An unknown event kind is readable, and a schema violation.
        first.write_text('{"event": "seed"}\n')
        assert main(["metrics", str(first), "--check"]) == 1
        assert "unknown event type 'seed'" in capsys.readouterr().err

    def test_metrics_command_errors_on_missing_dir(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_check_typed_errors(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["metrics", str(missing), "--check"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / obs.METRICS_FILENAME).write_text("")
        assert main(["metrics", str(empty), "--check"]) == 2
        assert "empty metrics stream" in capsys.readouterr().err
        shaped = tmp_path / "shaped"
        (shaped / obs.METRICS_FILENAME).mkdir(parents=True)
        assert main(["metrics", str(shaped), "--check"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_check_fails_on_torn_tail(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"event":"counter","name":"c","value":1}\n'
                        '{"event":"gauge","na')  # crash mid-write
        # Plain summarise tolerates the torn tail...
        assert main(["metrics", str(tmp_path)]) == 0
        capsys.readouterr()
        # ...but the integrity gate must not bless lost data.
        assert main(["metrics", str(tmp_path), "--check"]) == 2
        assert "torn final line" in capsys.readouterr().err

    def test_plain_summarise_announces_torn_tail_repair(self, tmp_path,
                                                        capsys):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"event":"counter","name":"c","value":1}\n'
                        '{"event":"gauge","na')
        assert main(["metrics", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "note: torn final line" in err
        assert "repaired" in err

    def test_summary_lists_slowest_spans_and_ops(self, journaled_run,
                                                 capsys):
        assert main(["metrics", str(journaled_run), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 slowest spans" in out
        assert "profiled ops" in out
        # A clean run emits no marks, so no annotations table appears.
        assert "annotations" not in out

    def test_summary_counts_marks_per_name(self, tmp_path, capsys):
        (tmp_path / "metrics.jsonl").write_text(
            '{"event":"mark","name":"runtime/degraded","t":1.0}\n'
            '{"event":"mark","name":"runtime/degraded","t":2.0}\n'
            '{"event":"mark","name":"runtime/rollback","t":3.0}\n')
        assert main(["metrics", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "annotations" in out
        assert "runtime/degraded" in out and "runtime/rollback" in out

    def test_trace_flag_exports_chrome_trace(self, journaled_run, tmp_path,
                                             capsys):
        out_path = tmp_path / "run.trace.json"
        assert main(["metrics", str(journaled_run),
                     "--trace", str(out_path)]) == 0
        assert "chrome trace written to" in capsys.readouterr().out
        import json
        trace = json.loads(out_path.read_text())
        assert obs.validate_chrome_trace(trace) == []


class TestMetricsDiffCommand:
    def test_self_diff_is_clean(self, journaled_run, capsys):
        assert main(["metrics", "diff", str(journaled_run),
                     str(journaled_run)]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_wall_regression_exits_one(self, journaled_run, tmp_path,
                                       capsys):
        import json
        slow = tmp_path / "slow"
        slow.mkdir()
        lines = []
        for line in (journaled_run / "metrics.jsonl").read_text() \
                .splitlines():
            record = json.loads(line)
            if record.get("event") == "span_end" \
                    and record["name"] == "prune_layer":
                record["dur"] += 1.0
            lines.append(json.dumps(record))
        (slow / "metrics.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["metrics", "diff", str(journaled_run),
                     str(slow)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        capsys.readouterr()
        assert main(["metrics", "diff", str(journaled_run), str(slow),
                     "--no-wall"]) == 0

    def test_usage_and_operand_errors_exit_two(self, tmp_path, capsys):
        assert main(["metrics", "diff", "only-one"]) == 2
        assert "usage:" in capsys.readouterr().err
        assert main(["metrics", "diff", str(tmp_path / "a"),
                     str(tmp_path / "b")]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["metrics", "m", "stray"]) == 2
        assert "unexpected arguments" in capsys.readouterr().err


class TestReportCommand:
    def test_report_generates_markdown(self, tmp_path, capsys):
        from repro.analysis import ExperimentRecord
        results = tmp_path / "results"
        ExperimentRecord("figure6", "fps").save(results / "figure6.json")
        out = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--results", str(results),
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "figure6" in out.read_text()

    def test_report_regenerates_committed_experiments_md(self, tmp_path,
                                                         capsys):
        # EXPERIMENTS.md is exactly what `repro report` renders from the
        # committed benchmark records, so it never drifts from them.
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--results", str(root / "benchmarks/results"),
                     "--out", str(out)]) == 0
        assert out.read_text() == (root / "EXPERIMENTS.md").read_text()
        assert "regenerate with `python -m repro report`" in out.read_text()

    def test_report_run_dir_writes_html_and_md(self, journaled_run,
                                               tmp_path, capsys):
        html_out = tmp_path / "run.html"
        assert main(["report", str(journaled_run),
                     "--out", str(html_out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert html_out.read_text().startswith("<!DOCTYPE html>")
        md_out = tmp_path / "run.md"
        assert main(["report", str(journaled_run), "--format", "md",
                     "--out", str(md_out)]) == 0
        text = md_out.read_text()
        assert "slowest spans" in text
        assert "Op-level attribution" in text

    def test_report_missing_run_dir_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err
