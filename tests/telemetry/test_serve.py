"""The live telemetry HTTP sink: endpoints, streaming, and the dashboard.

End-to-end tests run a real (short) instrumented experiment on a worker
thread while polling a real :class:`TelemetryServer` over HTTP on an
ephemeral port — the same topology ``rcoal fig07 --serve 8000`` sets up —
and assert the JSON payloads grow monotonically as the run progresses.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentContext, collect_records
from repro.telemetry import ProgressBoard, Telemetry, TelemetryServer
from repro.telemetry.serve import MetricsHistory, parse_serve_spec
from repro.telemetry.tracer import Tracer


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        body = response.read().decode("utf-8")
        return response.status, response.headers.get("Content-Type"), body


class TestEventsSince:
    def test_incremental_drain(self):
        tracer = Tracer(capacity=100)
        for i in range(5):
            tracer.complete(f"e{i}", "cat", ts=i, dur=1)
        events, cursor, dropped = tracer.events_since(0)
        assert [e.name for e in events] == ["e0", "e1", "e2", "e3", "e4"]
        assert cursor == 5 and dropped == 0
        # Nothing new: cursor unchanged.
        events, cursor, dropped = tracer.events_since(cursor)
        assert events == [] and cursor == 5 and dropped == 0
        tracer.instant("e5", "cat", ts=9)
        events, cursor, dropped = tracer.events_since(cursor)
        assert [e.name for e in events] == ["e5"]
        assert cursor == 6 and dropped == 0

    def test_eviction_is_reported_as_dropped(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.complete(f"e{i}", "cat", ts=i, dur=1)
        events, cursor, dropped = tracer.events_since(0)
        assert [e.name for e in events] == ["e7", "e8", "e9"]
        assert cursor == 10
        assert dropped == 7

    def test_merge_resequences_monotonically(self):
        parent, worker = Tracer(100), Tracer(100)
        parent.complete("p0", "cat", ts=0, dur=1)
        worker.complete("w0", "cat", ts=0, dur=1)
        worker.complete("w1", "cat", ts=1, dur=1)
        parent.merge(worker)
        seqs = [e.seq for e in parent.events]
        assert seqs == sorted(seqs) == [1, 2, 3]
        events, cursor, _ = parent.events_since(1)
        assert [e.name for e in events] == ["w0", "w1"]
        assert cursor == 3


class TestParseServeSpec:
    def test_bare_port(self):
        assert parse_serve_spec("8000") == ("127.0.0.1", 8000)

    def test_host_and_port(self):
        assert parse_serve_spec("0.0.0.0:9100") == ("0.0.0.0", 9100)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_serve_spec("not-a-port")
        with pytest.raises(ConfigurationError):
            parse_serve_spec("70000")


class TestTelemetryServer:
    @pytest.fixture()
    def server(self):
        telemetry = Telemetry(board=ProgressBoard())
        with TelemetryServer(telemetry, port=0) as server:
            yield server

    def test_rejects_disabled_telemetry(self):
        with pytest.raises(ConfigurationError):
            TelemetryServer(Telemetry.disabled())

    def test_health_endpoint(self, server):
        status, ctype, body = _get(f"{server.url}/health")
        assert status == 200 and ctype.startswith("application/json")
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/nope")
        assert excinfo.value.code == 404

    def test_dashboard_is_served(self, server):
        status, ctype, body = _get(f"{server.url}/")
        assert status == 200 and ctype.startswith("text/html")
        for marker in ("/metrics", "/trace?since=", "/progress",
                       "rcoal live telemetry"):
            assert marker in body

    def test_metrics_json_is_stable(self, server):
        server.telemetry.metrics.counter("a.z").inc(3)
        server.telemetry.metrics.counter("a.a").inc(1)
        _, _, body = _get(f"{server.url}/metrics")
        payload = json.loads(body)
        assert payload["metrics"]["a.z"]["value"] == 3
        # Keys are sorted in the serialized body (deterministic output).
        assert body.index('"a.a"') < body.index('"a.z"')
        _, _, again = _get(f"{server.url}/metrics")
        assert again == body

    def test_trace_endpoint_drains_incrementally(self, server):
        tracer = server.telemetry.tracer
        for i in range(5):
            tracer.complete(f"e{i}", "cat", ts=i, dur=2, args={"i": i})
        _, _, body = _get(f"{server.url}/trace?since=0")
        payload = json.loads(body)
        assert [e["name"] for e in payload["events"]] \
            == ["e0", "e1", "e2", "e3", "e4"]
        assert payload["next_since"] == 5
        _, _, body = _get(f"{server.url}/trace?since={payload['next_since']}")
        assert json.loads(body)["events"] == []

    def test_trace_endpoint_honors_limit(self, server):
        tracer = server.telemetry.tracer
        for i in range(10):
            tracer.instant(f"e{i}", "cat", ts=i)
        _, _, body = _get(f"{server.url}/trace?since=0&limit=3")
        payload = json.loads(body)
        assert [e["name"] for e in payload["events"]] == ["e7", "e8", "e9"]
        assert payload["dropped"] == 7
        assert payload["next_since"] == 10

    def test_progress_reflects_board(self, server):
        server.telemetry.board.publish("phase-a", 3, 10, elapsed=1.5,
                                       eta=3.5)
        _, _, body = _get(f"{server.url}/progress")
        payload = json.loads(body)
        assert payload["phases"]["phase-a"]["done"] == 3
        assert payload["phases"]["phase-a"]["percent"] == 30.0
        assert payload["done"] == 3 and payload["total"] == 10


class TestServeDuringRun:
    """Poll a live server while a real experiment batch executes."""

    def test_endpoints_grow_monotonically_during_run(self):
        telemetry = Telemetry(board=ProgressBoard())
        ctx = ExperimentContext(root_seed=123, samples=6,
                                telemetry=telemetry)
        done = threading.Event()
        failures = []

        def run():
            try:
                collect_records(ctx, make_policy("baseline"), 6)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)
            finally:
                done.set()

        with TelemetryServer(telemetry, port=0) as server:
            worker = threading.Thread(target=run)
            worker.start()
            recorded, cursor = [], 0
            while not done.is_set():
                _, _, body = _get(f"{server.url}/metrics")
                recorded.append(json.loads(body)["trace_recorded"])
                _, _, body = _get(f"{server.url}/trace?since={cursor}")
                payload = json.loads(body)
                assert payload["next_since"] >= cursor
                cursor = payload["next_since"]
                done.wait(0.02)
            worker.join()
            assert not failures, failures

            # Monotone growth while recording, and a final state that
            # reflects the whole run.
            assert recorded == sorted(recorded)
            _, _, body = _get(f"{server.url}/metrics")
            final = json.loads(body)
            assert final["trace_recorded"] > 0
            assert final["metrics"]["sim.kernels"]["value"] == 6
            _, _, body = _get(f"{server.url}/progress")
            progress = json.loads(body)
            phase = progress["phases"]["baseline(M=1)"]
            assert phase["done"] == 6 and phase["state"] == "done"

    def test_parallel_run_fans_progress_into_board(self):
        telemetry = Telemetry(board=ProgressBoard())
        ctx = ExperimentContext(root_seed=123, samples=4,
                                telemetry=telemetry, jobs=2)
        collect_records(ctx, make_policy("baseline"), 4)
        snapshot = telemetry.board.snapshot()
        phase = snapshot["phases"]["baseline(M=1)"]
        assert phase["done"] == 4 and phase["total"] == 4
        assert phase["state"] == "done"


class TestMetricsHistory:
    """The time-series ring behind ``/metrics/history``."""

    def test_incremental_cursor(self):
        history = MetricsHistory(capacity=10)
        for i in range(3):
            history.append({"uptime_seconds": float(i)})
        out = history.since(0)
        assert [s["seq"] for s in out["samples"]] == [1, 2, 3]
        assert out["next_since"] == 3 and out["dropped"] == 0
        # Nothing new: cursor unchanged, no samples.
        again = history.since(out["next_since"])
        assert again["samples"] == [] and again["next_since"] == 3
        history.append({"uptime_seconds": 3.0})
        fresh = history.since(again["next_since"])
        assert [s["seq"] for s in fresh["samples"]] == [4]
        assert fresh["next_since"] == 4

    def test_eviction_is_reported_as_dropped(self):
        history = MetricsHistory(capacity=3)
        for i in range(10):
            history.append({"uptime_seconds": float(i)})
        out = history.since(0)
        assert [s["seq"] for s in out["samples"]] == [8, 9, 10]
        assert out["dropped"] == 7 and out["recorded"] == 10

    def test_limit_drops_oldest(self):
        history = MetricsHistory(capacity=10)
        for i in range(5):
            history.append({"uptime_seconds": float(i)})
        out = history.since(0, limit=2)
        assert [s["seq"] for s in out["samples"]] == [4, 5]
        assert out["dropped"] == 3 and out["next_since"] == 5

    def test_empty_ring_drops_nothing(self):
        out = MetricsHistory().since(0)
        assert out == {"samples": [], "next_since": 0, "dropped": 0,
                       "recorded": 0}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            MetricsHistory(capacity=0)


class TestHistoryEndpoint:
    def test_sample_history_drives_the_series(self):
        telemetry = Telemetry(board=ProgressBoard())
        with TelemetryServer(telemetry, port=0,
                             sample_interval=60.0) as server:
            ctx = ExperimentContext(root_seed=123, samples=1,
                                    telemetry=telemetry)
            collect_records(ctx, make_policy("baseline"), 1)
            seq = server.sample_history()
            _, _, body = _get(f"{server.url}/metrics/history?since=0")
            payload = json.loads(body)
            latest = payload["samples"][-1]
            assert latest["seq"] == seq == payload["next_since"]
            assert latest["sim_cycles"] > 0
            assert latest["accesses"] > 0
            assert latest["trace_events"] > 0
            # Incremental read from the cursor is empty until resampled.
            _, _, body = _get(
                f"{server.url}/metrics/history?since={seq}")
            assert json.loads(body)["samples"] == []
            server.sample_history()
            _, _, body = _get(
                f"{server.url}/metrics/history?since={seq}")
            assert len(json.loads(body)["samples"]) == 1

    def test_sampler_thread_records_on_start(self):
        telemetry = Telemetry(board=ProgressBoard())
        with TelemetryServer(telemetry, port=0) as server:
            # start() samples once before the first interval elapses.
            assert server.history.recorded >= 1


class TestProfileEndpoint:
    def test_unprofiled_run_reports_disabled_axis(self):
        telemetry = Telemetry(board=ProgressBoard())
        with TelemetryServer(telemetry, port=0) as server:
            _, _, body = _get(f"{server.url}/profile")
            payload = json.loads(body)
            assert payload["profiler_enabled"] is False
            assert payload["wall_spans"] == {}

    def test_profiled_run_exposes_both_axes(self):
        telemetry = Telemetry(board=ProgressBoard(), profile=True)
        with TelemetryServer(telemetry, port=0) as server:
            ctx = ExperimentContext(root_seed=123, samples=1,
                                    telemetry=telemetry)
            collect_records(ctx, make_policy("baseline"), 1)
            _, _, body = _get(f"{server.url}/profile")
            payload = json.loads(body)
            assert payload["profiler_enabled"] is True
            assert payload["wall_spans"]["chunk.simulate"]["count"] == 1
            assert payload["sim_counters"]["coalescer.serialize"] > 0
            assert payload["sim_counters"]["dram.service"] > 0


class TestDashboardSparklines:
    def test_dashboard_polls_history(self):
        with TelemetryServer(Telemetry(board=ProgressBoard()),
                             port=0) as server:
            _, _, body = _get(f"{server.url}/")
            for marker in ("/metrics/history?since=", "spark-cycles",
                           "spark-accesses", "renderSparks"):
                assert marker in body


class TestBindFailures:
    def test_port_zero_binds_an_ephemeral_port(self):
        with TelemetryServer(Telemetry(board=ProgressBoard()),
                             port=0) as server:
            assert server.port != 0
            status, _, _ = _get(f"{server.url}/health")
            assert status == 200

    def test_port_in_use_is_one_actionable_error(self):
        with TelemetryServer(Telemetry(board=ProgressBoard()),
                             port=0) as server:
            with pytest.raises(ConfigurationError) as excinfo:
                TelemetryServer(Telemetry(board=ProgressBoard()),
                                port=server.port)
            message = str(excinfo.value)
            assert f"127.0.0.1:{server.port}" in message
            assert "port 0" in message  # the actionable part


class TestIncidentSurfacing:
    def test_incidents_flip_health_to_degraded(self):
        telemetry = Telemetry(board=ProgressBoard())
        with TelemetryServer(telemetry, port=0) as server:
            _, _, body = _get(f"{server.url}/health")
            assert json.loads(body)["status"] == "ok"
            telemetry.board.incident("quarantined")
            telemetry.board.incident("pool_restart", 2)
            _, _, body = _get(f"{server.url}/health")
            payload = json.loads(body)
            assert payload["status"] == "degraded"
            assert payload["incidents"] == {"quarantined": 1,
                                            "pool_restart": 2}
            _, _, body = _get(f"{server.url}/progress")
            assert json.loads(body)["incidents"]["quarantined"] == 1


class TestCampaignEndpoint:
    @staticmethod
    def _campaign(tmp_path):
        """A completed single-phase campaign directory."""
        from repro.experiments.checkpoint import (
            CheckpointStore,
            campaign_fingerprint,
        )
        ctx = ExperimentContext(root_seed=7, samples=4, lines=4)
        store = CheckpointStore.open(
            tmp_path / "camp", campaign_fingerprint("fig05", ctx, True))
        collect_records(ctx.with_(checkpoint=store),
                        make_policy("fss", 4, 32), 4, counts_only=True)
        return tmp_path / "camp"

    def test_without_campaign_dir_probe_is_unavailable(self):
        with TelemetryServer(Telemetry(board=ProgressBoard()),
                             port=0) as server:
            _, _, body = _get(f"{server.url}/campaign")
            payload = json.loads(body)
            assert payload["available"] is False
            assert "reason" in payload

    def test_manifest_and_ledger_cursor(self, tmp_path):
        run = self._campaign(tmp_path)
        with TelemetryServer(Telemetry(board=ProgressBoard()), port=0,
                             campaign_dir=str(run),
                             stall_after=1e9) as server:
            _, _, body = _get(f"{server.url}/campaign")
            payload = json.loads(body)
            assert payload["available"] is True
            manifest = payload["manifest"]
            assert manifest["status"] == "complete"
            assert manifest["totals"]["completed"] == 4
            assert manifest["totals"]["remaining"] == 0
            assert payload["events"]  # the ledger drain rides along
            cursor = payload["next_since"]
            _, _, body = _get(
                f"{server.url}/campaign?since={cursor}")
            assert json.loads(body)["events"] == []

    def test_health_folds_ledger_staleness(self, tmp_path):
        from repro.experiments.checkpoint import (
            CheckpointStore,
            campaign_fingerprint,
        )
        # An interrupted campaign: phase_start with no phase_finish.
        from repro.faults import install_plan, parse_fault_plan
        ctx = ExperimentContext(root_seed=7, samples=6, lines=4)
        store = CheckpointStore.open(
            tmp_path / "camp", campaign_fingerprint("fig05", ctx, True))
        with pytest.raises(Exception):
            collect_records(
                ctx.with_(checkpoint=store,
                          faults=parse_fault_plan("raise@4x*")),
                make_policy("fss", 4, 32), 6, counts_only=True)
        install_plan(None)
        with TelemetryServer(Telemetry(board=ProgressBoard()), port=0,
                             campaign_dir=str(tmp_path / "camp"),
                             stall_after=0.0) as server:
            _, _, body = _get(f"{server.url}/health")
            payload = json.loads(body)
            assert payload["status"] == "degraded"
            assert payload["campaign"]["stalled"] is True
            assert payload["stalled_phase"] \
                in payload["campaign"]["open_phases"]
        # A generous stall budget: same campaign reads healthy.
        with TelemetryServer(Telemetry(board=ProgressBoard()), port=0,
                             campaign_dir=str(tmp_path / "camp"),
                             stall_after=1e9) as server:
            _, _, body = _get(f"{server.url}/health")
            payload = json.loads(body)
            assert payload["status"] == "ok"
            assert payload["campaign"]["stalled"] is False

    def test_history_samples_carry_span_lanes(self):
        telemetry = Telemetry(board=ProgressBoard(), profile=True)
        with TelemetryServer(telemetry, port=0,
                             sample_interval=60.0) as server:
            ctx = ExperimentContext(root_seed=123, samples=1,
                                    telemetry=telemetry)
            collect_records(ctx, make_policy("baseline"), 1)
            server.sample_history()
            _, _, body = _get(f"{server.url}/metrics/history?since=0")
            latest = json.loads(body)["samples"][-1]
            assert "chunk.simulate" in latest["spans"]
            assert latest["spans"]["chunk.simulate"] > 0

    def test_dashboard_has_campaign_panel_and_lane_sparks(self):
        with TelemetryServer(Telemetry(board=ProgressBoard()),
                             port=0) as server:
            _, _, body = _get(f"{server.url}/")
            for marker in ("/campaign?limit=1", "renderCampaign",
                           "spark-sim", "spark-overhead",
                           "campaign-table"):
                assert marker in body
