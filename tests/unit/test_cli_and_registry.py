"""Unit tests for the CLI and the experiment registry."""

import pytest

from repro.cli import main
from repro.experiments.registry import EXPERIMENTS, run_experiment


class TestRegistry:
    def test_all_design_doc_experiments_registered(self):
        expected = {
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11a", "fig12", "exp1", "sec42", "sec43", "sec45",
            "naive", "gen2cov", "cost", "victim_locator",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment_raises_with_listing(self):
        with pytest.raises(KeyError) as excinfo:
            run_experiment("fig99")
        assert "fig9" in str(excinfo.value)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("exp1", scale="enormous")

    def test_quick_exp1_produces_report(self):
        report = run_experiment("exp1", scale="quick")
        assert "Experiment 1" in report
        assert "measured" in report

    def test_quick_fig7_produces_series(self):
        report = run_experiment("fig7", scale="quick")
        assert "cumulative" in report


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "exp1" in out
        assert "fig9" in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "exp1"]) == 0
        out = capsys.readouterr().out
        assert "Experiment 1" in out

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_scale_flag_parsed(self, capsys):
        assert main(["run", "exp1", "--scale", "quick"]) == 0

    def test_negative_jobs_rejected(self, capsys):
        assert main(["run", "exp1", "--jobs", "-1"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_run_reports_runner_stats(self, capsys):
        assert main(["run", "exp1"]) == 0
        out = capsys.readouterr().out
        assert "[runner]" in out
        assert "1 cells" in out

    def test_second_run_hits_cache(self, capsys):
        assert main(["run", "exp1"]) == 0
        capsys.readouterr()
        assert main(["run", "exp1"]) == 0
        out = capsys.readouterr().out
        assert "1 cache hits (100%)" in out

    def test_no_cache_flag_recomputes(self, capsys):
        assert main(["run", "exp1"]) == 0
        capsys.readouterr()
        assert main(["run", "exp1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "0 cache hits" in out

    def test_faults_flag_reports_counters(self, capsys):
        assert main(["run", "exp1", "--faults", "cell=0.2,seed=3", "--max-retries", "5"]) == 0
        out = capsys.readouterr().out
        assert "Experiment 1" in out
        assert "[faults] spec 'cell=0.2,seed=3':" in out
        assert "faults injected" in out

    def test_fault_run_never_reads_cache(self, capsys):
        assert main(["run", "exp1"]) == 0  # populate the cache
        capsys.readouterr()
        assert main(["run", "exp1", "--faults", "cell=0.1,seed=1"]) == 0
        out = capsys.readouterr().out
        assert "0 cache hits" in out

    def test_invalid_fault_spec_rejected(self, capsys):
        assert main(["run", "exp1", "--faults", "warp=0.5"]) == 2
        err = capsys.readouterr().err
        assert "--faults" in err
        assert "unknown fault spec key" in err

    def test_out_of_range_fault_rate_rejected(self, capsys):
        assert main(["run", "exp1", "--faults", "cell=1.5"]) == 2
        assert "--faults" in capsys.readouterr().err

    def test_negative_max_retries_rejected(self, capsys):
        assert main(["run", "exp1", "--max-retries", "-1"]) == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_unknown_platform_rejected(self, capsys):
        assert main(["run", "exp1", "--platform", "gcp"]) == 2
        err = capsys.readouterr().err
        assert "--platform" in err
        assert "known profiles" in err

    def test_platform_run_never_touches_cache(self, capsys):
        assert main(["run", "exp1"]) == 0  # populate the cache
        capsys.readouterr()
        assert main(["run", "exp1", "--platform", "azure_functions_like"]) == 0
        out = capsys.readouterr().out
        assert "Experiment 1" in out
        assert "0 cache hits" in out

    def test_faults_rejected_for_experiment_without_cells(self, capsys):
        assert main(["run", "sec43", "--faults", "launch=0.5,ctest=0.3,seed=3"]) == 2
        captured = capsys.readouterr()
        assert "--faults" in captured.err
        assert "sec43" in captured.err
        assert captured.out == ""  # rejected before running

    def test_platform_rejected_for_experiment_without_cells(self, capsys):
        assert main(["run", "fig6", "--platform", "aws_lambda_like"]) == 2
        captured = capsys.readouterr()
        assert "--platform" in captured.err
        assert "fig6" in captured.err
        assert captured.out == ""

    def test_run_all_rejects_faults(self, capsys):
        # `all` includes experiments without runner cells, so it is
        # rejected as a whole, naming them, before anything runs.
        assert main(["run", "all", "--faults", "cell=0.1,seed=1"]) == 2
        captured = capsys.readouterr()
        assert "--faults" in captured.err
        assert "sec43" in captured.err and "defenses" in captured.err
        assert "exp1" not in captured.err
        assert captured.out == ""

    def test_default_platform_name_is_neutral(self, capsys):
        assert main(["run", "exp1"]) == 0  # populate the cache
        capsys.readouterr()
        assert main(["run", "exp1", "--platform", "default"]) == 0
        out = capsys.readouterr().out
        assert "1 cache hits (100%)" in out


class TestChannelStats:
    def test_record_batch_accumulates(self):
        from repro.core.covert import RngCovertChannel

        channel = RngCovertChannel()
        channel.record_batch([3, 2], seconds=1.2)
        channel.record_batch([2], seconds=1.2)
        stats = channel.stats
        assert stats.counter("tests") == 3
        assert stats.counter("instance_slots") == 7
        assert stats.counter("batches") == 2
        assert stats.counter("busy_seconds") == pytest.approx(2.4)
        # batch_tests is a bounded histogram, not a raw list: long
        # campaigns must not accumulate one entry per batch.
        per_batch = stats.histograms["batch_tests"]
        assert per_batch.count == 2
        assert per_batch.total == 3
        assert per_batch.max == 2
        assert per_batch.min == 1

    def test_per_batch_tests_memory_is_bounded(self):
        from repro.core.covert import RngCovertChannel

        channel = RngCovertChannel()
        for _ in range(10_000):
            channel.record_batch([1], seconds=0.0)
        view = channel.stats.histograms["batch_tests"]
        assert view.count == 10_000
        assert view.mean == 1.0
        # The backing store is the histogram summary — four scalars — so
        # nothing in the stats object grows with the number of batches.
        assert not any(
            isinstance(value, list) and len(value) > 100
            for value in vars(channel.stats).values()
        )


class TestBuildParser:
    def test_parser_accepts_run_with_scale(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "exp1", "--scale", "full"])
        assert args.command == "run"
        assert args.experiment == "exp1"
        assert args.scale == "full"

    def test_parser_rejects_bad_scale(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "exp1", "--scale", "huge"])

    def test_parser_accepts_jobs_and_no_cache(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "fig4", "--jobs", "4", "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True

    def test_parser_defaults_serial_with_cache(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "fig4"])
        assert args.jobs == 0
        assert args.no_cache is False
        assert args.faults is None
        assert args.max_retries is None

    def test_parser_accepts_faults_and_max_retries(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "exp1", "--faults", "launch=0.1,seed=7", "--max-retries", "3"]
        )
        assert args.faults == "launch=0.1,seed=7"
        assert args.max_retries == 3

    def test_extension_experiments_registered(self):
        assert "surveillance" in EXPERIMENTS
        assert "defenses" in EXPERIMENTS
        assert "victim_locator" in EXPERIMENTS
        assert "channel_matrix" in EXPERIMENTS

    def test_parser_accepts_platform(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "exp1", "--platform", "aws_lambda_like"]
        )
        assert args.platform == "aws_lambda_like"
        assert build_parser().parse_args(["run", "exp1"]).platform is None


class TestCliTelemetry:
    def test_trace_flag_writes_deterministic_jsonl(self, tmp_path, capsys):
        import json

        trace = tmp_path / "out.jsonl"
        assert main(["--trace", str(trace), "run", "exp1"]) == 0
        out = capsys.readouterr().out
        assert "[trace]" in out
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines, "trace file is empty"
        names = [json.loads(line)["name"] for line in lines]
        assert names[0] == "experiment"
        assert "cell" in names
        assert "orchestrator.launch" in names
        # Wall-clock measurements never leak into the deterministic export.
        assert all("wall_s" not in json.loads(line) for line in lines)

    def test_trace_flag_accepted_after_subcommand(self, tmp_path):
        trace = tmp_path / "sub.jsonl"
        assert main(["run", "exp1", "--trace", str(trace)]) == 0
        assert trace.exists()

    def test_trace_is_identical_across_jobs_counts(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        assert main(["run", "exp1", "--no-cache", "--trace", str(serial)]) == 0
        assert main(
            ["run", "exp1", "--no-cache", "--jobs", "2", "--trace", str(pooled)]
        ) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_metrics_flag_prints_counters(self, capsys):
        assert main(["--metrics", "run", "exp1"]) == 0
        out = capsys.readouterr().out
        assert "[metrics]" in out
        assert "runner.cells" in out
        assert "orchestrator.instances_created" in out

    def test_disabled_telemetry_output_is_unchanged(self, capsys):
        """The no-op guarantee, CLI edition: the report body of a traced
        run equals a plain run's output exactly (minus the appended
        [trace]/[metrics] sections).  ``[runner]`` stat lines carry
        wall-clock timings, so they are stripped before comparing — the
        same convention the CI byte-stability check uses."""

        def body(out: str) -> str:
            return "\n".join(
                line for line in out.splitlines()
                if not line.startswith("[runner]")
            )

        assert main(["run", "exp1", "--no-cache"]) == 0
        plain = capsys.readouterr().out
        assert main(["--metrics", "run", "exp1", "--no-cache"]) == 0
        traced = capsys.readouterr().out
        assert body(traced).startswith(body(plain))
        assert "[metrics]" not in plain
