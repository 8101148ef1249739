"""Tests for the command-line runner."""

import json

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
