"""Small-scale runs of every experiment harness.

These are structural smoke tests at reduced sample counts: the full,
paper-scale runs with shape assertions live in ``benchmarks/``.
"""

import math

import pytest

from repro.experiments import fig05, fig06, fig07, fig08, fig09, fig15, \
    fig16, fig17, table2
from repro.experiments.base import ExperimentContext
from repro.experiments.registry import run_experiment

SMALL = ExperimentContext(root_seed=99, samples=12)


class TestEngineParity:
    """The fast engines are pure performance: every render equals the
    reference engines' (``batched=False, batched_timing=False``), in
    process and across worker processes."""

    @pytest.mark.parametrize("experiment_id", ["ablation_selective",
                                               "fig05"])
    def test_reference_engines_render_identically(self, experiment_id):
        ctx = ExperimentContext(samples=3)
        renders = {
            (jobs, reference): run_experiment(
                experiment_id,
                ctx.with_(jobs=jobs, batched=not reference,
                          batched_timing=not reference)).render()
            for jobs in (1, 2) for reference in (False, True)
        }
        assert len(set(renders.values())) == 1, sorted(renders)


class TestFig05:
    def test_time_tracks_accesses(self):
        result = fig05.run(SMALL)
        assert result.metrics["corr_last_accesses"] > 0.9
        series = result.metrics["series"]
        assert len(series["total_time"]) == 12


class TestFig06:
    def test_enabled_leaks_more_than_disabled(self):
        result = fig06.run(SMALL)
        enabled = result.metrics["enabled"]
        disabled = result.metrics["disabled"]
        # Even at tiny sample counts the ordering holds: the protected
        # machine's correct-guess rank is far worse.
        assert enabled["avg_rank"] < disabled["avg_rank"]


class TestFig07:
    def test_monotone_performance_cost(self):
        result = fig07.run(SMALL)
        times = result.metrics["normalized_times"]
        sweep = sorted(times)
        values = [times[m] for m in sweep]
        assert values == sorted(values)
        assert times[1] == pytest.approx(1.0)
        assert times[32] > 1.8


class TestFig08:
    def test_fss_attack_reconstructs_counts(self):
        result = fig08.run(ExperimentContext(root_seed=99, samples=12),
                           subwarp_sweep=(2, 4))
        # Timing-based: correlation persists across M (FSS gives the
        # attacker exact counts), unlike the randomized defenses.
        for m, corr in result.metrics["avg_corr"].items():
            assert corr > 0.1


class TestFig09:
    def test_histograms(self):
        result = fig09.run(ExperimentContext(root_seed=99))
        normal = result.metrics["normal_histogram"]
        skewed = result.metrics["skewed_histogram"]
        assert sum(normal.values()) == sum(skewed.values()) == 4000
        assert max(skewed) > max(normal)  # long right tail
        assert skewed[1] > normal.get(1, 0)  # mass at size 1


class TestFig16AndFig17:
    def test_scores_follow_from_inputs(self):
        perf = fig16.run(SMALL, subwarp_sweep=(2, 4))
        times = perf.metrics["normalized_time"]
        for mech in times:
            assert times[mech][2] < times[mech][4]

        sec = fig15.run(SMALL, subwarp_sweep=(2, 4))
        score = fig17.run(SMALL, subwarp_sweep=(2, 4),
                          security_result=sec, performance_result=perf)
        scores = score.metrics["scores"]
        assert set(scores) == {"security", "performance"}
        for mech_scores in scores["security"].values():
            for value in mech_scores.values():
                assert value > 0 or math.isinf(value)


class TestTable2:
    def test_theory_columns_match_paper(self):
        result = table2.run(ExperimentContext(root_seed=99),
                            subwarp_sweep=(1, 2, 16, 32))
        theory = result.metrics["theory"]
        assert theory[1] == (1.0, 1.0, 1.0)
        assert theory[2][1] == pytest.approx(0.41, abs=0.005)
        assert theory[16][1] == pytest.approx(0.0323, abs=0.001)
        assert theory[32] == (0.0, 0.0, 0.0)
