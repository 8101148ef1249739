"""Tests for the command-line runner."""

import json

import pytest

from repro.cli import EXIT_CONFIG, main
from repro.experiments.registry import EXPERIMENTS


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENTS)

    def test_runs_a_small_experiment(self, capsys):
        assert main(["fig09", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out
        assert "subwarp size" in out

    def test_samples_override(self, capsys):
        assert main(["fig05", "--samples", "8"]) == 0
        out = capsys.readouterr().out
        assert "samples" in out
        assert "8" in out

    def test_unknown_experiment_exits_with_config_code(self, capsys):
        assert main(["fig99"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_malformed_sample_override_exits_with_config_code(
            self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "abc")
        assert main(["fig05"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("error: environment variable REPRO_SAMPLES='abc' "
                       "is not an int\n")


class TestImpossibleInput:
    @pytest.mark.parametrize("argv, message", [
        (["fig05", "-j", "-3"], "-j/--jobs must be 0"),
        (["fig05", "-j", "2", "--chunk-deadline", "0"],
         "impossible chunk deadline"),
        (["fig05", "--max-attempts", "0"], "--max-attempts must be at least"),
        (["fig05", "-j", "-1", "--serve", "0"], "-j/--jobs must be 0"),
        (["metrics", "fig05", "--chunk-deadline", "-2"],
         "impossible chunk deadline"),
        (["serve", "fig05", "--port", "0", "--no-linger", "-j", "-1"],
         "-j/--jobs must be 0"),
        (["bench"], "unknown experiment 'bench'"),
        (["metrics", "fig05", "--check", "BASELINE_METRICS.json",
          "--tolerance", "-1"], "impossible tolerance"),
        (["metrics", "fig05", "--tolerance", "nan"], "impossible tolerance"),
        (["profile", "fig05", "--tolerance", "inf"], "impossible tolerance"),
        (["profile", "fig05", "--top", "0"], "impossible --top"),
        (["profile", "fig05", "--top", "-1"], "impossible --top"),
        (["profile", "fig05", "--round", "11"], "impossible --round"),
        (["profile", "fig05", "--round", "-1"], "impossible --round"),
    ])
    def test_exits_with_config_code_before_running(self, argv, message,
                                                   capsys):
        assert main(argv + ["--samples", "4"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        # Rejected up front: nothing simulated, no dashboard started.
        assert captured.out == ""
        assert "serving" not in captured.err

    @pytest.mark.parametrize("command, content", [
        ("metrics", None),
        ("profile", None),
        ("metrics", "{not json"),
    ], ids=["metrics-missing", "profile-missing", "malformed"])
    def test_rejects_an_unusable_baseline_before_running(
            self, tmp_path, capsys, command, content):
        baseline = tmp_path / "baseline.json"
        if content is not None:
            baseline.write_text(content, encoding="utf-8")
        assert main([command, "fig05", "--samples", "4",
                     "--check", str(baseline)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert str(baseline) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["metrics", "profile"])
    def test_rejects_a_baseline_without_the_experiment_before_running(
            self, tmp_path, capsys, command):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"format": 1, "experiments": {}}',
                            encoding="utf-8")
        assert main([command, "fig05", "--samples", "2",
                     "--check", str(baseline)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "has no baseline for 'fig05'" in captured.err
        assert captured.out == ""

    def test_profile_does_not_take_the_profile_flag(self, capsys):
        # The command always profiles: the flag would be a silent no-op.
        with pytest.raises(SystemExit) as exited:
            main(["profile", "fig05", "--samples", "2", "--profile"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --profile" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["metrics", "profile"])
    def test_a_new_baseline_is_written_then_checked(self, tmp_path, capsys,
                                                   command):
        baseline = str(tmp_path / "new.json")
        assert main([command, "fig05", "--samples", "2", "--write-baseline",
                     baseline, "--check", baseline]) == 0
        assert f"match baseline {baseline}" in capsys.readouterr().out

    @pytest.mark.parametrize("stall", ["-1", "0", "nan", "inf"])
    def test_status_rejects_an_impossible_stall_threshold(self, tmp_path,
                                                          capsys, stall):
        assert main(["status", str(tmp_path),
                     "--stall-seconds", stall]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "impossible stall threshold" in captured.err
        assert captured.out == ""


class TestOneRunPath:
    """Every command that runs an experiment prints its result block the
    way ``rcoal <experiment>`` does, before anything of its own."""

    @pytest.mark.parametrize("command", [
        ["fig05"],
        ["trace", "fig05", "--out", "{tmp}/trace.json"],
        ["metrics", "fig05"],
        ["serve", "fig05", "--port", "0", "--no-linger"],
        ["profile", "fig05"],
        ["shard", "{tmp}/shard", "fig05", "--worker", "w"],
    ], ids=["run", "trace", "metrics", "serve", "profile", "shard"])
    def test_stdout_starts_with_the_plain_result(self, tmp_path, capsys,
                                                 command):
        assert main(["fig05", "--samples", "2"]) == 0
        plain = capsys.readouterr().out
        assert plain.endswith("\n\n")
        result_block = plain[:-1]  # without the trailing blank line
        argv = [arg.format(tmp=tmp_path) for arg in command]
        assert main(argv + ["--samples", "2"]) == 0
        assert capsys.readouterr().out.startswith(result_block)


class TestAllParallel:
    """``all -j N`` is ``all`` with each phase spread over the pool: the
    same stdout, and a campaign that a serial ``all`` can resume."""

    @pytest.fixture(autouse=True)
    def two_experiments(self, monkeypatch):
        monkeypatch.setattr("repro.cli.EXPERIMENTS",
                            {name: EXPERIMENTS[name]
                             for name in ("fig05", "fig06")})

    @staticmethod
    def _all(capsys, *flags):
        code = main(["all", "--samples", "4", *flags])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    def test_parallel_stdout_equals_serial(self, capsys):
        assert self._all(capsys, "-j", "2") == self._all(capsys)

    @pytest.mark.parametrize("observer", [["--profile"], ["--serve", "0"]],
                             ids=["profile", "serve"])
    def test_parallel_campaign_resumes_serially(self, tmp_path, capsys,
                                                observer):
        serial = self._all(capsys)
        run = str(tmp_path / "camp")
        assert self._all(capsys, "-j", "2", *observer,
                         "--resume", run) == serial
        assert self._all(capsys, *observer, "--resume", run) == serial


class TestTelemetryCommands:
    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "fig05", "--samples", "4",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "trace written to" in stdout
        trace = json.loads(out.read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        assert events, "trace must contain events"
        categories = {e["cat"] for e in events if "cat" in e}
        assert {"dram", "interconnect", "coalescer"} <= categories
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)

    def test_trace_jsonl_sidecar(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert main(["trace", "fig05", "--samples", "2",
                     "--out", str(out), "--jsonl", str(jsonl)]) == 0
        lines = jsonl.read_text(encoding="utf-8").splitlines()
        assert lines
        assert all(json.loads(line)["name"] for line in lines)

    def test_metrics_prints_snapshot_table(self, tmp_path, capsys):
        json_out = tmp_path / "metrics.json"
        assert main(["metrics", "fig05", "--samples", "2",
                     "--json", str(json_out)]) == 0
        stdout = capsys.readouterr().out
        assert "telemetry metrics snapshot" in stdout
        assert "dram.row_hits" in stdout
        assert "coalescer.accesses" in stdout
        snapshot = json.loads(json_out.read_text(encoding="utf-8"))
        assert snapshot["sim.kernels"]["value"] == 2

    def test_trace_capacity_bounds_the_buffer(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "fig05", "--samples", "2",
                     "--out", str(out), "--capacity", "100"]) == 0
        trace = json.loads(out.read_text(encoding="utf-8"))
        payload = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert len(payload) == 100
        assert trace["otherData"]["dropped"] > 0

    def test_verbose_flag_accepted(self, capsys):
        from repro.telemetry import configure_logging
        try:
            assert main(["fig09", "--seed", "3", "-v"]) == 0
            assert "fig09" in capsys.readouterr().out
        finally:
            configure_logging(0)  # quiet the package root again


class TestStatusCommand:
    @staticmethod
    def _campaign(tmp_path, capsys):
        """A real campaign directory made by running with --resume."""
        run = tmp_path / "camp"
        assert main(["fig05", "--samples", "6",
                     "--resume", str(run)]) == 0
        capsys.readouterr()  # swallow the experiment output
        return run

    def test_table_reports_completed_campaign(self, tmp_path, capsys):
        run = self._campaign(tmp_path, capsys)
        assert main(["status", str(run)]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "fig05" in out
        assert "6/6 samples done" in out

    def test_json_manifest_matches_checkpoint_truth(self, tmp_path,
                                                    capsys):
        run = self._campaign(tmp_path, capsys)
        assert main(["status", str(run), "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["status"] == "complete"
        assert manifest["totals"]["completed"] == 6
        assert manifest["totals"]["remaining"] == 0
        phase, = manifest["experiments"][0]["phases"]
        assert phase["samples"] == 6

    def test_missing_campaign_exits_with_config_code(self, tmp_path,
                                                     capsys):
        assert main(["status", str(tmp_path / "nope")]) == EXIT_CONFIG
        assert "no campaign found" in capsys.readouterr().err

    def test_gc_keeps_status_and_resume_intact(self, tmp_path, capsys):
        run = self._campaign(tmp_path, capsys)
        assert main(["status", str(run), "--gc"]) == 0
        captured = capsys.readouterr()
        assert "ledger compacted" in captured.err
        # The campaign still reads complete, and a rerun still resumes
        # to the same stdout as an unresumed run.
        assert main(["fig05", "--samples", "6",
                     "--resume", str(run)]) == 0
        resumed = capsys.readouterr().out
        assert main(["fig05", "--samples", "6"]) == 0
        plain = capsys.readouterr().out
        assert resumed == plain

    def test_resumed_run_stdout_is_byte_identical_with_ledger(
            self, tmp_path, capsys):
        # The observer-effect contract for the ledger itself.
        assert main(["fig05", "--samples", "6"]) == 0
        plain = capsys.readouterr().out
        assert main(["fig05", "--samples", "6",
                     "--resume", str(tmp_path / "fresh")]) == 0
        ledgered = capsys.readouterr().out
        assert ledgered == plain
        assert (tmp_path / "fresh" / "events.jsonl").stat().st_size > 0
