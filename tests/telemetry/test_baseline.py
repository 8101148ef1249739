"""Metrics-baseline regression gating (rcoal metrics --check)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import MetricsRegistry
from repro.telemetry.baseline import (
    check_against_baseline,
    compare_snapshots,
    load_baseline,
    update_baseline,
)

CONTEXT = {"experiment": "figX", "seed": 2018, "samples": 4,
           "repro_fast": None, "repro_samples": None}


def _snapshot():
    registry = MetricsRegistry()
    registry.counter("sim.cycles").inc(7805)
    registry.gauge("dram.queue_depth").set(12)
    hist = registry.histogram("warp.round_cycles", buckets=(100, 1000))
    hist.observe(818)
    hist.observe(3.14159265358979)
    return registry.snapshot()


class TestCompareSnapshots:
    def test_identical_snapshots_have_no_drift(self):
        assert compare_snapshots(_snapshot(), _snapshot()) == []

    def test_value_drift_is_reported_with_path(self):
        expected, actual = _snapshot(), _snapshot()
        actual["sim.cycles"]["value"] += 1
        drifts = compare_snapshots(expected, actual)
        assert len(drifts) == 1
        assert drifts[0].startswith("sim.cycles.value:")

    def test_missing_and_new_metrics_are_both_drift(self):
        expected, actual = _snapshot(), _snapshot()
        del actual["dram.queue_depth"]
        actual["new.counter"] = {"type": "counter", "value": 1}
        drifts = compare_snapshots(expected, actual)
        assert any("missing" in d for d in drifts)
        assert any("unexpected new entry" in d for d in drifts)

    def test_relative_tolerance_absorbs_small_numeric_drift(self):
        expected, actual = _snapshot(), _snapshot()
        actual["sim.cycles"]["value"] = 7806  # ~0.01% off
        assert compare_snapshots(expected, actual) != []
        assert compare_snapshots(expected, actual, tolerance=0.01) == []

    def test_list_shape_mismatch_is_drift(self):
        expected, actual = _snapshot(), _snapshot()
        actual["warp.round_cycles"]["counts"] = [1, 1]
        drifts = compare_snapshots(expected, actual)
        assert any("length" in d for d in drifts)


class TestBaselineFile:
    def test_round_trip_passes_check(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        update_baseline(path, "figX", CONTEXT, _snapshot())
        assert check_against_baseline(path, "figX", CONTEXT,
                                      _snapshot()) == []

    def test_written_file_is_stable_json(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        update_baseline(path, "figX", CONTEXT, _snapshot())
        first = open(path).read()
        update_baseline(path, "figX", CONTEXT, _snapshot())
        assert open(path).read() == first
        data = json.loads(first)
        assert data["format"] == 1
        # Full-precision floats are normalized before writing, so checks
        # compare at the stored precision (no spurious drift).
        mean = data["experiments"]["figX"]["metrics"][
            "warp.round_cycles"]["mean"]
        assert mean == float(f"{mean:.10g}")

    def test_drift_is_detected(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        update_baseline(path, "figX", CONTEXT, _snapshot())
        drifted = _snapshot()
        drifted["sim.cycles"]["value"] = 1
        drifts = check_against_baseline(path, "figX", CONTEXT, drifted)
        assert any("sim.cycles.value" in d for d in drifts)

    def test_context_mismatch_is_drift(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        update_baseline(path, "figX", CONTEXT, _snapshot())
        other = dict(CONTEXT, seed=999)
        drifts = check_against_baseline(path, "figX", other, _snapshot())
        assert any(d.startswith("context.seed") for d in drifts)

    def test_unknown_experiment_is_rejected(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        update_baseline(path, "figX", CONTEXT, _snapshot())
        with pytest.raises(ConfigurationError):
            check_against_baseline(path, "figY", CONTEXT, _snapshot())

    def test_multiple_experiments_coexist(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        update_baseline(path, "figX", CONTEXT, _snapshot())
        update_baseline(path, "figY", dict(CONTEXT, experiment="figY"),
                        _snapshot())
        data = load_baseline(path)
        assert set(data["experiments"]) == {"figX", "figY"}

    def test_malformed_file_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99}')
        with pytest.raises(ConfigurationError):
            load_baseline(str(path))

    @pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe"],
                             ids=["missing", "not-json", "not-utf8"])
    def test_unreadable_file_is_a_configuration_error(self, tmp_path,
                                                      content):
        path = tmp_path / "baseline.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        with pytest.raises(ConfigurationError, match="baseline"):
            load_baseline(str(path))
