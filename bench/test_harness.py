"""Tests of the benchmark harness itself, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest bench -q``; they are not part
of the repository's default test paths.
"""

from __future__ import annotations

import importlib
import json
import time

import pytest

import layers
import probe
import run
import workloads
from repro.experiments.base import ExperimentContext

TINY = {"paper_timed": 2, "wide_timed": 1, "wide_counts_attack": 2,
        "campaign": 2}
CTX = ExperimentContext(root_seed=2018)


@pytest.fixture(scope="module")
def outcomes():
    """Each workload, untraced, called twice at its tiny size."""
    return {name: [workloads.WORKLOADS[name](CTX, n) for _ in range(2)]
            for name, n in TINY.items()}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return vars(owner)[attr]


@pytest.mark.parametrize("name", sorted(TINY))
def test_digests_repeat_across_calls(outcomes, name):
    first, second = outcomes[name]
    assert first.digests and first.digests == second.digests
    assert first.samples == second.samples > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_digests_equal_untraced_and_wrappers_restored(outcomes,
                                                             name):
    originals = {path: _resolve(module, path)
                 for _, module, path in layers.SPANS}
    tracer = layers.Tracer()
    with tracer.installed():
        assert all(_resolve(module, path) is not originals[path]
                   for _, module, path in layers.SPANS)
        collect = tracer.wrap("experiments.base.phase",
                              workloads.collect_records)
        started = time.perf_counter()
        traced = workloads.WORKLOADS[name](CTX, TINY[name], collect=collect)
        wall_s = time.perf_counter() - started
    assert all(_resolve(module, path) is originals[path]
               for _, module, path in layers.SPANS)
    assert traced.digests == outcomes[name][0].digests
    metrics = layers.layer_metrics(tracer, wall_s)
    assert metrics["experiments.base.phases"] > 0
    assert 0 < metrics["trace.coverage"] <= 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_fast_engines_match_reference_engines(outcomes, name):
    workloads.check_engines(name, CTX, outcomes[name][0])


def test_speed_probe_samples_without_changing_the_output(outcomes):
    speed = probe.SpeedProbe()
    speed.start()
    try:
        probed = workloads.paper_timed(CTX, TINY["paper_timed"])
    finally:
        speed.stop()
    assert probed.digests == outcomes["paper_timed"][0].digests
    assert all(speed.times.values())
    assert speed.slowdown() > 0


def test_every_benchmark_metric_appears_in_a_report(outcomes):
    tracer = layers.Tracer()
    with tracer.installed():
        collect = tracer.wrap("experiments.base.phase",
                              workloads.collect_records)
        outcome = workloads.paper_timed(CTX, 2, collect=collect)
    child = {"setup_s": 1.0, "ref_cpu_s": 2.0, "cpu_s": 2.2, "wall_s": 2.3,
             "slowdown": 1.1, "samples": outcome.samples,
             "peak_rss_mb": 100.0, "digests": outcome.digests}
    summary = run.summarize(
        "paper_timed", 1,
        {"plain": [child],
         "traced": [dict(child, layers=layers.layer_metrics(tracer, 2.0))]})
    assert summary["failed"] == 0
    assert set(summary["metrics"]) == {m["name"]
                                       for m in run.SPEC["end_to_end"]}
    assert set(summary["layers"]) == {m["name"]
                                      for m in run.SPEC["per_layer"]}


def test_reference_matches_the_harness():
    assert json.loads(json.dumps(workloads.SIZES)) == run.REFERENCE["sizes"]
    assert set(run.REFERENCE["layers"]) == {
        m["name"] for m in run.SPEC["per_layer"]}
    end_to_end = {m["name"] for m in run.SPEC["end_to_end"]}
    for entry in run.REFERENCE["layers"].values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(run.WORKLOAD_NAMES)
    assert set(run.REFERENCE["digests"]["2018"]) == set(run.WORKLOAD_NAMES)


def test_compare_verdicts():
    assert run.verdict([10.0, 10.1, 10.2], [10.0, 10.1, 10.2],
                       0.08, "lower") == "same"
    assert run.verdict([10.0, 10.1, 10.2], [12.0, 12.1, 12.2],
                       0.08, "lower") == "worse"
    assert run.verdict([10.0, 10.1, 10.2], [5.0, 5.1, 5.2],
                       0.08, "lower") == "better"
    # Wide spread on one side, and no clean win: unresolved.
    assert run.verdict([10.0, 13.0, 10.2], [10.5, 10.6, 10.4],
                       0.08, "lower") == "unresolved"


def test_compare_refuses_unlike_reports():
    report = {"sizes": {}, "repeat": 3, "env": {}, "host": {"cpus": 2},
              "workloads": {}}
    assert run.compare(report, dict(report, repeat=5)) == 2
    assert run.compare(report, dict(report, host={"cpus": 1})) == 2
