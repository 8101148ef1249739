"""Profiling must never change results (the profiler observer effect).

``--profile`` turns on wall-clock span recording (plus the telemetry it
rides on); the contract is the same as the telemetry observer-effect
suite's: stdout — the experiment tables — stays byte-identical whether or
not the run is observed, across the serial, process-parallel, and resumed
code paths. These tests diff full stdout through the real CLI.

Note ``--profile`` does flip the checkpoint *fingerprint* (an
instrumented campaign is a different campaign — same rule as ``--serve``),
so resumed comparisons use separate ``--resume`` directories.
"""

import pytest

from repro.cli import main
from repro.telemetry import Telemetry


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


class TestProfileObserverEffect:
    def test_serial_stdout_is_byte_identical(self, capsys):
        base = ["fig05", "--samples", "4", "--seed", "9"]
        plain = _stdout(capsys, base)
        profiled = _stdout(capsys, base + ["--profile"])
        assert profiled == plain

    def test_parallel_stdout_is_byte_identical(self, capsys):
        base = ["fig05", "--samples", "4", "--seed", "9", "-j", "2"]
        plain = _stdout(capsys, base)
        profiled = _stdout(capsys, base + ["--profile"])
        assert profiled == plain

    def test_resumed_stdout_is_byte_identical(self, tmp_path, capsys):
        base = ["fig05", "--samples", "4", "--seed", "9"]
        plain = _stdout(capsys, base + ["--resume",
                                        str(tmp_path / "plain")])
        profiled = _stdout(capsys, base + ["--profile", "--resume",
                                           str(tmp_path / "profiled")])
        assert profiled == plain
        # Resuming the profiled campaign reproduces it byte for byte too.
        resumed = _stdout(capsys, base + ["--profile", "--resume",
                                          str(tmp_path / "profiled")])
        assert resumed == plain

    def test_profile_summary_lands_on_stderr_only(self, capsys):
        assert main(["fig05", "--samples", "4", "--seed", "9",
                     "--profile"]) == 0
        captured = capsys.readouterr()
        assert "wall-clock profile" in captured.err
        assert "chunk.simulate" in captured.err
        assert "wall-clock profile" not in captured.out

    def test_profile_subcommand_result_table_matches_plain_run(self,
                                                               capsys):
        plain = _stdout(capsys, ["fig05", "--samples", "4", "--seed", "9"])
        profiled = _stdout(capsys, ["profile", "fig05", "--samples", "4",
                                    "--seed", "9"])
        # The experiment table is the profiled output's first section.
        assert profiled.startswith(plain.rstrip("\n"))


class TestProfiledRecordsIdentity:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_records_identical_with_and_without_profiling(self, jobs):
        from repro.core.policies import make_policy
        from repro.experiments.base import (
            ExperimentContext,
            collect_records,
        )

        def run(telemetry):
            ctx = ExperimentContext(root_seed=9, samples=3,
                                    telemetry=telemetry, jobs=jobs)
            _, records = collect_records(ctx, make_policy("rss_rts", 8), 3)
            return [(r.ciphertext_lines, r.last_round_time, r.total_time)
                    for r in records]

        assert run(None) == run(Telemetry(profile=True))
