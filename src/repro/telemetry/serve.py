"""Live telemetry streaming over HTTP (the ``--serve`` sink).

:class:`TelemetryServer` wraps a stdlib :class:`ThreadingHTTPServer` around
one :class:`~repro.telemetry.core.Telemetry` instance and serves its state
as JSON while the simulation is still running:

* ``GET /health``   — liveness + uptime;
* ``GET /metrics``  — full registry snapshot (stable JSON, sorted keys);
* ``GET /metrics/history`` — the sampler thread's time series of headline
  counters (sim cycles, coalesced accesses, trace events); pass
  ``?since=<seq>`` (the ``next_since`` of the previous response) for an
  incremental read, ``?limit=<n>`` to cap it;
* ``GET /trace``    — incremental ring-buffer drain; pass ``?since=<seq>``
  (the ``next_since`` of the previous response) to fetch only new events,
  and ``?limit=<n>`` to cap the response size;
* ``GET /progress`` — per-phase progress fanned in through the
  :class:`~repro.telemetry.progress.ProgressBoard`;
* ``GET /profile``  — wall-clock span aggregates (when the run profiles)
  plus live cost-center counter totals;
* ``GET /campaign`` — the aggregated campaign manifest (restored /
  remaining counts, chunk latency percentiles) for the run's ``--resume``
  directory, plus an incremental ledger drain following the ``/trace``
  cursor contract (``?since=<seq>&limit=<n>``); ``available: false``
  when the run has no campaign directory;
* ``GET /``         — a self-contained HTML dashboard polling the above.

The server runs on a daemon thread and never touches the simulator: every
endpoint reads through the same retry-on-mutation snapshots the export
paths use, so serving while a run records costs the run nothing and the
results stay bit-identical (``tests/integration/test_observer_effect.py``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigurationError
from repro.telemetry.core import Telemetry
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import stable_json

__all__ = [
    "MetricsHistory",
    "TelemetryServer",
    "DEFAULT_TRACE_LIMIT",
    "DEFAULT_HISTORY_CAPACITY",
    "parse_serve_spec",
]

_log = get_logger("telemetry.serve")

#: Cap on events per ``/trace`` response unless the client overrides it.
DEFAULT_TRACE_LIMIT = 2000

#: Samples kept in the metrics-history ring (10 min at the 1 s cadence).
DEFAULT_HISTORY_CAPACITY = 600


class MetricsHistory:
    """A bounded ring of periodic metrics samples with a ``seq`` cursor.

    Follows the trace ring buffer's incremental-drain contract: every
    sample gets a monotonically increasing ``seq``, and :meth:`since`
    returns samples with ``seq > since`` plus the cursor for the next
    call and how many requested samples the ring already evicted. Safe
    for one writer (the sampler thread) and many readers (handlers).
    """

    def __init__(self, capacity: int = DEFAULT_HISTORY_CAPACITY):
        if capacity <= 0:
            raise ConfigurationError(
                f"history capacity must be positive, got {capacity}"
            )
        self._entries: deque = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()

    def append(self, entry: Dict[str, object]) -> int:
        """Stamp ``entry`` with the next ``seq`` and keep it; returns it."""
        with self._lock:
            self._seq += 1
            entry = dict(entry, seq=self._seq)
            self._entries.append(entry)
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def recorded(self) -> int:
        """Samples ever taken (>= ``len`` once the ring wraps)."""
        with self._lock:
            return self._seq

    def since(self, since: int = 0, limit: int = 0) -> dict:
        """Samples with ``seq > since``, oldest first.

        Returns ``{"samples", "next_since", "dropped", "recorded"}`` —
        ``next_since`` is the cursor for the next poll (unchanged when
        nothing new arrived) and ``dropped`` counts requested samples the
        ring evicted before this read (consumer slower than the sampler).
        """
        with self._lock:
            samples = [e for e in self._entries if e["seq"] > since]
            oldest = self._entries[0]["seq"] if self._entries else \
                self._seq + 1
            recorded = self._seq
        # Requested-but-evicted: everything in (since, oldest) that no
        # longer exists. Nothing recorded yet -> nothing dropped.
        dropped = max(0, min(recorded, oldest - 1) - since)
        if limit and len(samples) > limit:
            dropped += len(samples) - limit
            samples = samples[-limit:]
        next_since = samples[-1]["seq"] if samples else since
        return {"samples": samples, "next_since": next_since,
                "dropped": dropped, "recorded": recorded}


class _Handler(BaseHTTPRequestHandler):
    """Routes the fixed endpoint set; state lives on the server object."""

    server_version = "rcoal-telemetry/1.0"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        if route == "/":
            self._send(200, _DASHBOARD_HTML.encode("utf-8"),
                       "text/html; charset=utf-8")
        elif route == "/health":
            self._send_json(200, self._server().health())
        elif route == "/metrics":
            self._send(200, self._server().metrics_json().encode("utf-8"),
                       "application/json")
        elif route == "/metrics/history":
            query = parse_qs(parsed.query)
            since = _int_param(query, "since", 0)
            limit = _int_param(query, "limit", 0)
            self._send_json(200,
                            self._server().history.since(since, limit))
        elif route == "/profile":
            self._send_json(200, self._server().profile())
        elif route == "/trace":
            query = parse_qs(parsed.query)
            since = _int_param(query, "since", 0)
            limit = _int_param(query, "limit", DEFAULT_TRACE_LIMIT)
            self._send_json(200, self._server().trace_since(since, limit))
        elif route == "/progress":
            self._send_json(200, self._server().progress())
        elif route == "/campaign":
            query = parse_qs(parsed.query)
            since = _int_param(query, "since", 0)
            limit = _int_param(query, "limit", DEFAULT_TRACE_LIMIT)
            self._send_json(200, self._server().campaign(since, limit))
        else:
            self._send_json(404, {"error": f"unknown endpoint {route!r}"})

    # -- plumbing -------------------------------------------------------------

    def _server(self) -> "TelemetryServer":
        return self.server.owner  # type: ignore[attr-defined]

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, stable_json(payload).encode("utf-8"),
                   "application/json")

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.debug("%s %s", self.address_string(), format % args)


def _int_param(query: dict, name: str, default: int) -> int:
    values = query.get(name)
    if not values:
        return default
    try:
        return max(0, int(values[0]))
    except ValueError:
        return default


class TelemetryServer:
    """Serve one :class:`Telemetry` instance's live state over HTTP.

    Usable as a context manager; ``start`` returns once the socket is
    bound, so ``port`` is final even when requested as 0 (ephemeral)::

        with TelemetryServer(telemetry, port=0) as server:
            print(server.url)      # http://127.0.0.1:<assigned>
            ... run experiments with `telemetry` ...
    """

    def __init__(self, telemetry: Telemetry, host: str = "127.0.0.1",
                 port: int = 8000,
                 history_capacity: int = DEFAULT_HISTORY_CAPACITY,
                 sample_interval: float = 1.0,
                 campaign_dir: Optional[str] = None,
                 stall_after: float = 30.0):
        if not telemetry.enabled:
            raise ConfigurationError(
                "cannot serve a disabled telemetry sink: nothing records"
            )
        self.telemetry = telemetry
        #: The run's ``--resume`` directory, when it has one: enables the
        #: ``/campaign`` endpoint and the ledger-staleness fold in
        #: :meth:`health`.
        self.campaign_dir = campaign_dir
        self.stall_after = stall_after
        try:
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        except OSError as exc:
            # Surface the failed bind on the shared board before raising:
            # a run whose dashboard silently never came up would look
            # healthy from the outside, and a *surviving* server on the
            # same board reports /health as degraded instead of wedging
            # (tests/robustness/test_serve_faults.py).
            if telemetry.board is not None:
                telemetry.board.incident("bind-conflict")
            raise ConfigurationError(
                f"cannot bind telemetry server to {host}:{port} "
                f"({exc.strerror or exc}); pick another port, or use "
                f"port 0 for an ephemeral one"
            ) from exc
        self._httpd.daemon_threads = True
        self._httpd.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._started = time.monotonic()
        self.history = MetricsHistory(history_capacity)
        self._sample_interval = max(0.05, sample_interval)
        self._sampler: Optional[threading.Thread] = None
        self._sampler_stop = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        if self._thread is not None:
            return self
        self._started = time.monotonic()
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.1},
                                        daemon=True,
                                        name="rcoal-telemetry-serve")
        self._thread.start()
        self._sampler_stop.clear()
        self._sampler = threading.Thread(target=self._sample_loop,
                                         daemon=True,
                                         name="rcoal-telemetry-sampler")
        self._sampler.start()
        _log.info("telemetry server listening on %s", self.url)
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._sampler_stop.set()
        if self._sampler is not None:
            self._sampler.join()
            self._sampler = None
        self._httpd.shutdown()
        self._thread.join()
        self._thread = None
        self._httpd.server_close()
        _log.info("telemetry server on %s stopped", self.url)

    def _sample_loop(self) -> None:
        # Take one sample immediately so short runs still chart, then on
        # the configured cadence until stop() fires the event.
        self.sample_history()
        while not self._sampler_stop.wait(self._sample_interval):
            self.sample_history()

    def sample_history(self) -> int:
        """Append one metrics sample to the history ring; returns its seq.

        Public so tests (and embedding code) can drive the time series
        deterministically instead of sleeping on the sampler cadence.
        Reads go through the same retry-on-mutation snapshot the export
        paths use — sampling never perturbs the run.
        """
        snapshot = self.telemetry.metrics.snapshot()

        def counter(name: str) -> int:
            entry = snapshot.get(name)
            return int(entry["value"]) if entry is not None \
                and "value" in entry else 0

        # Cumulative wall-clock per profiler span (ms). The dashboard
        # differentiates consecutive samples into lane rates (simulate
        # ms/s vs runner/checkpoint overhead ms/s); empty when the run
        # is not profiling.
        spans = {name: data["total_ms"] for name, data
                 in self.telemetry.profiler.snapshot().items()}
        return self.history.append({
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "sim_cycles": counter("sim.cycles"),
            "accesses": counter("coalescer.accesses"),
            "kernels": counter("sim.kernels"),
            "trace_events": self.telemetry.tracer.recorded,
            "spans": spans,
        })

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- endpoint payloads (also the programmatic query surface) --------------

    def health(self) -> dict:
        board = self.telemetry.board
        incidents = board.snapshot()["incidents"] if board is not None else {}
        payload = {
            "status": "degraded" if incidents else "ok",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "trace_recorded": self.telemetry.tracer.recorded,
            "metrics": len(self.telemetry.metrics),
            "incidents": incidents,
        }
        if self.campaign_dir is not None:
            # Ledger-derived staleness: a campaign with an open phase but
            # no ledger write for stall_after seconds is stalled — report
            # degraded and name the phase, so a watchdog polling /health
            # catches a hung campaign without parsing the ledger itself.
            from repro.experiments.manifest import campaign_health
            probe = campaign_health(self.campaign_dir,
                                    stall_after=self.stall_after)
            payload["campaign"] = probe
            if probe["stalled"]:
                payload["status"] = "degraded"
                payload["stalled_phase"] = probe["stalled_phase"]
                if probe.get("stalled_worker"):
                    # A shard worker stopped heartbeating mid-lease:
                    # name who is stuck, not just which phase.
                    payload["stalled_worker"] = probe["stalled_worker"]
        return payload

    def metrics_json(self) -> str:
        return stable_json({
            "metrics": self.telemetry.metrics.snapshot(),
            "trace_recorded": self.telemetry.tracer.recorded,
        })

    def trace_since(self, since: int,
                    limit: int = DEFAULT_TRACE_LIMIT) -> dict:
        events, next_since, dropped = \
            self.telemetry.tracer.events_since(since)
        if limit and len(events) > limit:
            dropped += len(events) - limit
            events = events[-limit:]
        return {
            "events": [dict(event.to_chrome(), seq=event.seq)
                       for event in events],
            "next_since": next_since,
            "dropped": dropped,
            "recorded": self.telemetry.tracer.recorded,
        }

    def progress(self) -> dict:
        board = self.telemetry.board
        if board is None:
            return {"phases": {}, "done": 0, "total": 0, "incidents": {},
                    "uptime_seconds": 0.0}
        return board.snapshot()

    def campaign(self, since: int = 0,
                 limit: int = DEFAULT_TRACE_LIMIT) -> dict:
        """The aggregated campaign manifest plus an incremental ledger
        drain (``/trace``'s ``since``/``next_since`` cursor contract).

        A run without a ``--resume`` directory serves ``available:
        false`` with a reason instead of 404, so the dashboard can probe
        unconditionally. Manifest imports lazily (same pattern as the
        cost-center join in :meth:`profile`) to keep the telemetry
        package import-light and cycle-free.
        """
        if self.campaign_dir is None:
            return {"available": False,
                    "reason": "run has no campaign directory (--resume)"}
        from repro.experiments.manifest import campaign_manifest
        from repro.telemetry.journal import JOURNAL_NAME, events_since
        try:
            manifest = campaign_manifest(self.campaign_dir,
                                         stall_after=self.stall_after)
        except ConfigurationError as exc:
            return {"available": False, "reason": str(exc)}
        ledger = Path(self.campaign_dir) / JOURNAL_NAME
        if not ledger.is_file() and manifest["experiments"]:
            ledger = Path(manifest["experiments"][0]["run_dir"]) \
                / JOURNAL_NAME
        drain = events_since(ledger, since=since, limit=limit)
        return {"available": True, "manifest": manifest, **drain}

    def profile(self) -> dict:
        """Wall-clock span aggregates plus live cost-center totals.

        The wall axis is empty unless the run was started with profiling
        on (``--profile`` / ``rcoal profile``); the sim axis is the cheap
        counter-based approximation — stage occupancy, not critical-path
        attribution (that needs the offline trace join).
        """
        from repro.analysis.costcenters import live_cost_centers
        profiler = self.telemetry.profiler
        return {
            "profiler_enabled": profiler.enabled,
            "wall_spans": profiler.snapshot(),
            "sim_counters": live_cost_centers(
                self.telemetry.metrics.snapshot()),
        }


def parse_serve_spec(spec: str) -> Tuple[str, int]:
    """``"8000"`` or ``"0.0.0.0:8000"`` → (host, port)."""
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", spec
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"invalid --serve value {spec!r}: expected PORT or HOST:PORT"
        )
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"--serve port out of range: {port}")
    return host or "127.0.0.1", port


# ---------------------------------------------------------------------------
# Embedded dashboard. Zero external dependencies; polls the JSON endpoints.
# Palette follows the project dataviz conventions (validated categorical
# slots; text always in text tokens, never series colors).
# ---------------------------------------------------------------------------

_DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>rcoal live telemetry</title>
<style>
  :root {
    --surface: #fcfcfb; --panel: #f4f3f1; --border: #e3e2de;
    --text: #0b0b0b; --text-2: #52514e;
    --blue: #2a78d6; --orange: #eb6834; --aqua: #1baf7a;
    --ok: #008300;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      --surface: #1a1a19; --panel: #242422; --border: #3a3936;
      --text: #ffffff; --text-2: #c3c2b7;
      --blue: #3987e5; --orange: #d95926; --aqua: #199e70;
      --ok: #35a854;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; padding: 24px; background: var(--surface); color: var(--text);
    font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  h1 { font-size: 18px; margin: 0; font-weight: 650; }
  header { display: flex; align-items: baseline; gap: 12px;
           margin-bottom: 20px; flex-wrap: wrap; }
  #status { color: var(--text-2); font-size: 13px; }
  #status .dot { display: inline-block; width: 8px; height: 8px;
                 border-radius: 50%; background: var(--ok);
                 margin-right: 6px; }
  #status.stale .dot { background: var(--orange); }
  .tiles { display: grid; gap: 12px; margin-bottom: 20px;
           grid-template-columns: repeat(auto-fit, minmax(150px, 1fr)); }
  .tile { background: var(--panel); border: 1px solid var(--border);
          border-radius: 8px; padding: 12px 14px; }
  .tile .label { color: var(--text-2); font-size: 12px;
                 text-transform: uppercase; letter-spacing: .04em; }
  .tile .value { font-size: 24px; font-weight: 650;
                 font-variant-numeric: tabular-nums; margin-top: 2px; }
  section { margin-bottom: 24px; }
  h2 { font-size: 13px; font-weight: 650; color: var(--text-2);
       text-transform: uppercase; letter-spacing: .05em;
       margin: 0 0 10px; }
  .phase { margin-bottom: 10px; }
  .phase .head { display: flex; justify-content: space-between;
                 font-size: 13px; margin-bottom: 4px; }
  .phase .name { font-weight: 550; }
  .phase .stat { color: var(--text-2);
                 font-variant-numeric: tabular-nums; }
  .bar { height: 8px; border-radius: 4px; background: var(--panel);
         border: 1px solid var(--border); overflow: hidden; }
  .bar .fill { height: 100%; border-radius: 4px; background: var(--blue);
               transition: width .4s; }
  .phase.done .fill { background: var(--aqua); }
  table { border-collapse: collapse; width: 100%; max-width: 720px;
          font-variant-numeric: tabular-nums; }
  th, td { text-align: left; padding: 4px 14px 4px 0; font-size: 13px;
           border-bottom: 1px solid var(--border); }
  th { color: var(--text-2); font-weight: 550; }
  td.num { text-align: right; }
  #trace { background: var(--panel); border: 1px solid var(--border);
           border-radius: 8px; padding: 10px 14px; max-width: 920px;
           font: 12px/1.6 ui-monospace, Menlo, Consolas, monospace;
           white-space: pre; overflow-x: auto; color: var(--text-2);
           min-height: 60px; }
  .muted { color: var(--text-2); }
  .sparks { display: grid; gap: 12px; max-width: 720px;
            grid-template-columns: repeat(auto-fit, minmax(260px, 1fr)); }
  .spark { background: var(--panel); border: 1px solid var(--border);
           border-radius: 8px; padding: 12px 14px; }
  .spark .head { display: flex; justify-content: space-between;
                 align-items: baseline; margin-bottom: 6px; }
  .spark .label { color: var(--text-2); font-size: 12px;
                  text-transform: uppercase; letter-spacing: .04em; }
  .spark .now { font-size: 16px; font-weight: 650;
                font-variant-numeric: tabular-nums; }
  .spark svg { display: block; width: 100%; height: 48px; }
  .spark polyline { fill: none; stroke-width: 2; stroke-linejoin: round; }
  .spark .line-cycles { stroke: var(--blue); }
  .spark .line-accesses { stroke: var(--orange); }
  .spark .line-sim { stroke: var(--aqua); }
  .spark .line-overhead { stroke: var(--orange); }
  #campaign table { max-width: 920px; }
  #campaign .meta { color: var(--text-2); font-size: 13px;
                    margin-top: 6px; }
  #campaign .stalled { color: var(--orange); font-weight: 650; }
</style>
</head>
<body>
<header>
  <h1>rcoal live telemetry</h1>
  <span id="status"><span class="dot"></span><span id="status-text">connecting&hellip;</span></span>
</header>

<div class="tiles">
  <div class="tile"><div class="label">Progress</div>
    <div class="value" id="tile-progress">&ndash;</div></div>
  <div class="tile"><div class="label">Samples done</div>
    <div class="value" id="tile-samples">&ndash;</div></div>
  <div class="tile"><div class="label">Trace events</div>
    <div class="value" id="tile-events">&ndash;</div></div>
  <div class="tile"><div class="label">Metrics</div>
    <div class="value" id="tile-metrics">&ndash;</div></div>
</div>

<section>
  <h2>Throughput</h2>
  <div class="sparks">
    <div class="spark">
      <div class="head"><span class="label">sim cycles / s</span>
        <span class="now" id="spark-cycles-now">&ndash;</span></div>
      <svg viewBox="0 0 260 48" preserveAspectRatio="none">
        <polyline class="line-cycles" id="spark-cycles" points=""/></svg>
    </div>
    <div class="spark">
      <div class="head"><span class="label">accesses / s</span>
        <span class="now" id="spark-accesses-now">&ndash;</span></div>
      <svg viewBox="0 0 260 48" preserveAspectRatio="none">
        <polyline class="line-accesses" id="spark-accesses" points=""/></svg>
    </div>
    <div class="spark">
      <div class="head"><span class="label">simulate ms / s</span>
        <span class="now" id="spark-sim-now">&ndash;</span></div>
      <svg viewBox="0 0 260 48" preserveAspectRatio="none">
        <polyline class="line-sim" id="spark-sim" points=""/></svg>
    </div>
    <div class="spark">
      <div class="head"><span class="label">runner overhead ms / s</span>
        <span class="now" id="spark-overhead-now">&ndash;</span></div>
      <svg viewBox="0 0 260 48" preserveAspectRatio="none">
        <polyline class="line-overhead" id="spark-overhead" points=""/></svg>
    </div>
  </div>
</section>

<section id="campaign" hidden>
  <h2>Campaign</h2>
  <table id="campaign-table">
    <thead><tr><th>experiment</th><th>phase</th><th class="num">total</th>
               <th class="num">done</th><th class="num">left</th>
               <th class="num">quar</th><th class="num">p95 ms</th>
               <th>state</th></tr></thead>
    <tbody></tbody>
  </table>
  <table id="campaign-workers" hidden>
    <thead><tr><th>worker</th><th class="num">pid</th>
               <th class="num">claims</th><th class="num">done</th>
               <th class="num">steals</th><th class="num">heartbeats</th>
               <th>last heartbeat</th></tr></thead>
    <tbody></tbody>
  </table>
  <div class="meta" id="campaign-meta"></div>
</section>

<section>
  <h2>Experiment phases</h2>
  <div id="phases"><span class="muted">No progress published yet.</span></div>
</section>

<section>
  <h2>Metrics</h2>
  <table id="metrics-table">
    <thead><tr><th>name</th><th>type</th><th class="num">value</th>
               <th class="num">mean</th></tr></thead>
    <tbody><tr><td colspan="4" class="muted">waiting for data&hellip;</td></tr></tbody>
  </table>
</section>

<section>
  <h2>Trace tail</h2>
  <div id="trace">waiting for events&hellip;</div>
</section>

<script>
"use strict";
let since = 0;
let historySince = 0;
let lastSample = null;
const rates = { cycles: [], accesses: [], sim: [], overhead: [] };
const POINTS = 60;
const tail = [];
const TAIL = 18;
const fmt = n => n.toLocaleString("en-US");

function setStatus(ok, text) {
  const el = document.getElementById("status");
  el.classList.toggle("stale", !ok);
  document.getElementById("status-text").textContent = text;
}

async function poll() {
  try {
    const [health, metrics, progress, trace, history, campaign] =
      await Promise.all([
      fetch("/health").then(r => r.json()),
      fetch("/metrics").then(r => r.json()),
      fetch("/progress").then(r => r.json()),
      fetch("/trace?since=" + since + "&limit=200").then(r => r.json()),
      fetch("/metrics/history?since=" + historySince).then(r => r.json()),
      fetch("/campaign?limit=1").then(r => r.json()),
    ]);
    setStatus(true, "live \\u00b7 up " + health.uptime_seconds.toFixed(0) + "s");
    renderTiles(health, metrics, progress);
    renderSparks(history);
    renderPhases(progress);
    renderMetrics(metrics.metrics);
    renderTrace(trace);
    renderCampaign(campaign, health);
  } catch (err) {
    setStatus(false, "unreachable \\u2014 retrying");
  }
}

function renderTiles(health, metrics, progress) {
  const pct = progress.total
    ? (100 * progress.done / progress.total).toFixed(0) + "%" : "\\u2013";
  document.getElementById("tile-progress").textContent = pct;
  document.getElementById("tile-samples").textContent =
    progress.total ? fmt(progress.done) + " / " + fmt(progress.total) : "\\u2013";
  document.getElementById("tile-events").textContent =
    fmt(metrics.trace_recorded);
  document.getElementById("tile-metrics").textContent =
    fmt(Object.keys(metrics.metrics).length);
}

function laneMs(spans, predicate) {
  let total = 0;
  for (const name of Object.keys(spans || {}))
    if (predicate(name)) total += spans[name];
  return total;
}

const simLane = s => laneMs(s.spans, n => n === "chunk.simulate");
const overheadLane = s => laneMs(s.spans, n =>
  n.startsWith("runner.") || n.startsWith("checkpoint."));

function renderSparks(history) {
  historySince = history.next_since;
  for (const s of history.samples) {
    if (lastSample) {
      const dt = s.uptime_seconds - lastSample.uptime_seconds;
      if (dt > 0) {
        rates.cycles.push((s.sim_cycles - lastSample.sim_cycles) / dt);
        rates.accesses.push((s.accesses - lastSample.accesses) / dt);
        rates.sim.push((simLane(s) - simLane(lastSample)) / dt);
        rates.overhead.push(
          (overheadLane(s) - overheadLane(lastSample)) / dt);
      }
    }
    lastSample = s;
  }
  for (const key of Object.keys(rates))
    while (rates[key].length > POINTS) rates[key].shift();
  drawSpark("cycles", rates.cycles);
  drawSpark("accesses", rates.accesses);
  drawSpark("sim", rates.sim, "ms/s");
  drawSpark("overhead", rates.overhead, "ms/s");
}

function drawSpark(name, series, unit) {
  if (!series.length) return;
  const now = series[series.length - 1];
  document.getElementById("spark-" + name + "-now").textContent =
    fmt(Math.round(now)) + (unit ? " " + unit : "/s");
  const top = Math.max(...series, 1);
  const step = series.length > 1 ? 260 / (series.length - 1) : 0;
  const points = series.map((v, i) =>
    (i * step).toFixed(1) + "," + (45 - 42 * v / top).toFixed(1));
  document.getElementById("spark-" + name)
    .setAttribute("points", points.join(" "));
}

function renderPhases(progress) {
  const names = Object.keys(progress.phases);
  const host = document.getElementById("phases");
  if (!names.length) return;
  host.innerHTML = names.map(name => {
    const p = progress.phases[name];
    const eta = p.state === "done" ? "done"
      : p.eta_seconds != null ? "eta " + p.eta_seconds.toFixed(0) + "s" : "";
    return '<div class="phase' + (p.state === "done" ? " done" : "") + '">'
      + '<div class="head"><span class="name">' + esc(name) + '</span>'
      + '<span class="stat">' + p.done + "/" + p.total
      + " (" + p.percent.toFixed(0) + "%) " + eta + "</span></div>"
      + '<div class="bar"><div class="fill" style="width:'
      + p.percent + '%"></div></div></div>';
  }).join("");
}

function renderMetrics(snapshot) {
  const names = Object.keys(snapshot);
  if (!names.length) return;
  const rows = names.map(name => {
    const m = snapshot[name];
    const value = m.type === "histogram" ? fmt(m.count)
      : m.type === "gauge" ? fmt(m.value) + " (peak " + fmt(m.peak) + ")"
      : fmt(m.value);
    const mean = m.type === "histogram" && m.count
      ? m.mean.toFixed(1) : "";
    return "<tr><td>" + esc(name) + "</td><td>" + m.type
      + '</td><td class="num">' + value
      + '</td><td class="num">' + mean + "</td></tr>";
  });
  document.querySelector("#metrics-table tbody").innerHTML = rows.join("");
}

function renderTrace(trace) {
  since = trace.next_since;
  for (const e of trace.events) {
    tail.push(String(e.seq).padStart(8) + "  " + String(e.ts).padStart(10)
      + "  " + (e.cat + "/" + e.name).padEnd(28)
      + (e.dur != null ? "dur " + e.dur : ""));
  }
  while (tail.length > TAIL) tail.shift();
  if (tail.length)
    document.getElementById("trace").textContent = tail.join("\\n");
}

function renderCampaign(campaign, health) {
  const host = document.getElementById("campaign");
  if (!campaign || !campaign.available) { host.hidden = true; return; }
  host.hidden = false;
  const m = campaign.manifest;
  const rows = [];
  for (const exp of m.experiments)
    for (const p of exp.phases) {
      const lat = p.latency || {};
      rows.push("<tr><td>" + esc(exp.experiment) + "</td><td>"
        + esc(p.phase.split("|")[0]) + '</td><td class="num">'
        + (p.samples == null ? "\\u2013" : fmt(p.samples))
        + '</td><td class="num">' + fmt(p.completed)
        + '</td><td class="num">'
        + (p.remaining == null ? "\\u2013" : fmt(p.remaining))
        + '</td><td class="num">' + fmt(p.quarantined)
        + '</td><td class="num">'
        + (lat.p95_ms != null ? fmt(lat.p95_ms) : "")
        + "</td><td>" + esc(p.state) + "</td></tr>");
    }
  document.querySelector("#campaign-table tbody").innerHTML =
    rows.join("") || '<tr><td colspan="8" class="muted">no phases yet</td></tr>';
  const workers = m.workers || {};
  const names = Object.keys(workers).sort();
  const wtable = document.getElementById("campaign-workers");
  wtable.hidden = names.length === 0;
  const nowS = Date.now() / 1000;
  wtable.querySelector("tbody").innerHTML = names.map(name => {
    const w = workers[name];
    const beat = w.last_heartbeat_ts || w.last_ts;
    return "<tr><td>" + esc(name) + '</td><td class="num">'
      + (w.pid == null ? "\\u2013" : w.pid)
      + '</td><td class="num">' + fmt(w.claims)
      + '</td><td class="num">' + fmt(w.chunks_done)
      + '</td><td class="num">' + fmt(w.steals)
      + '</td><td class="num">' + fmt(w.heartbeats) + "</td><td>"
      + (beat ? (nowS - beat).toFixed(1) + "s ago" : "\\u2013")
      + "</td></tr>";
  }).join("");
  const t = m.totals;
  let meta = esc(m.root) + " \\u00b7 " + m.status + " \\u00b7 "
    + fmt(t.completed) + "/" + fmt(t.samples) + " samples";
  if (m.last_event_age_seconds != null)
    meta += " \\u00b7 last event " + m.last_event_age_seconds.toFixed(1)
      + "s ago";
  if (health.stalled_phase)
    meta += ' \\u00b7 <span class="stalled">stalled: '
      + esc(health.stalled_phase.split("|")[0]) + "</span>";
  for (const lease of m.stale_leases || [])
    meta += ' \\u00b7 <span class="stalled">stale lease '
      + lease.start + "\\u2013" + lease.end + " ("
      + esc(lease.owner || "torn") + ")</span>";
  document.getElementById("campaign-meta").innerHTML = meta;
}

function esc(text) {
  const div = document.createElement("div");
  div.textContent = text;
  return div.innerHTML;
}

poll();
setInterval(poll, 1000);
</script>
</body>
</html>
"""
