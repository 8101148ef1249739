"""Repeatable performance benchmarks for the simulator substrate.

``rcoal bench`` times representative workloads and writes the numbers
to a committed ``BENCH_<n>.json`` so every PR leaves a perf trajectory
to regress against:

* ``timing_kernel`` — exact-cycle kernel simulation (the dominant cost
  of every figure): paper-shaped 32-line launches under ``rss_rts``,
  timed under *both* engines — the wavefront-batched core (the
  default; ms/launch and simulated cycles per wall second, the
  ROADMAP's ``sim.cycles / wall-second`` metric) and the per-event
  engine (``event_ms_per_launch``), with the speedup and a
  record-equality check (``cycles_identical``) on record;
* ``profiler_overhead`` — the same launches rerun with telemetry and
  span profiling enabled, so the observer-effect cost is on record
  (an unflagged run pays none of it: no telemetry object exists);
  instrumented runs execute on the event engine, so the ratio is
  taken against the event-engine baseline;
* ``counts_sweep`` — counts-only collection at Fig 18 scale (wide
  plaintexts, no timing engine), timed under *both* engines: the
  batched structure-of-arrays core (the default; ``ms_per_sample``)
  and the event engine, the reference (``event_ms_per_sample``), with
  the speedup and a counts-equality check recorded;
* ``shard_overhead`` — the counts workload drained through the
  ``rcoal shard`` lease protocol with 1-sample chunks (the worst-case
  per-work-item toll: lease create/renew/release plus ledger appends),
  and a 2-worker same-host wall clock — an honest coordination-cost
  number, not a speedup claim (one CPU, GIL-serialized);
* ``fig07`` — one complete experiment harness end-to-end (collection
  for every mechanism in the subwarp sweep plus the corresponding
  attacks), the unit of ``rcoal all`` throughput. With ``--jobs N`` the
  same experiment is also run through the process-parallel runner and
  the serial/parallel speedup recorded.

Wall-clock numbers are machine-dependent; the JSON embeds enough host
metadata (CPU count, Python version) to compare like with like. Use
``--repeat`` to take the best of R runs when the machine is noisy.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
import time
from typing import Callable, Dict, Optional, Tuple

from repro.core.policies import make_policy
from repro.experiments.base import ExperimentContext, collect_records
from repro.telemetry import get_logger

__all__ = ["check_bench_floors", "default_bench_path", "run_bench",
           "write_bench"]

log = get_logger(__name__)

#: Workload sizing: big enough to dominate process/pool startup, small
#: enough that the full bench suite stays in CI-friendly territory.
TIMING_LAUNCHES = 8
COUNTS_SAMPLES = 4


def default_bench_path(directory: str = ".") -> str:
    """The next free ``BENCH_<n>.json`` in ``directory``.

    PR *n* commits ``BENCH_<n>.json``; scanning for the highest existing
    index keeps the sequence going without anyone tracking state.
    """
    highest = -1
    for name in os.listdir(directory or "."):
        match = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if match:
            highest = max(highest, int(match.group(1)))
    return os.path.join(directory, f"BENCH_{highest + 1}.json")


def _best_of(fn: Callable[[], object], repeat: int) -> Tuple[float, object]:
    """Run ``fn`` ``repeat`` times; return (best wall seconds, last value)."""
    best = float("inf")
    value: object = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def run_bench(jobs: int = 1, samples: int = 12, lines: int = 256,
              repeat: int = 1, seed: int = 2018,
              profile: bool = False) -> Dict[str, object]:
    """Time the benchmark workloads; returns the report as a dict."""
    report: Dict[str, object] = {
        "schema": 1,
        "host": {
            "python": platform.python_version(),
            "platform": sys.platform,
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
        # Everything a fair report-to-report comparison depends on: the
        # sizing knobs, whether the fig07 harness ran instrumented, and
        # the sample-scaling environment the host had set.
        "config": {"jobs": jobs, "samples": samples, "lines": lines,
                   "repeat": repeat, "seed": seed, "profile": profile,
                   "env": {
                       "repro_fast": os.environ.get("REPRO_FAST") or None,
                       "repro_samples":
                           os.environ.get("REPRO_SAMPLES") or None,
                   }},
        "workloads": {},
    }
    workloads: Dict[str, Dict[str, object]] = report["workloads"]

    # -- full-timing kernel simulation -----------------------------------
    ctx = ExperimentContext(root_seed=seed, samples=TIMING_LAUNCHES)
    policy = make_policy("rss_rts", 8)
    log.info("bench: timing_kernel (%d launches, batched)", TIMING_LAUNCHES)
    seconds, collected = _best_of(
        lambda: collect_records(ctx.with_(batched_timing=True), policy,
                                TIMING_LAUNCHES), repeat
    )
    _, records = collected
    simulated_cycles = sum(r.total_time for r in records)
    log.info("bench: timing_kernel (%d launches, event engine)",
             TIMING_LAUNCHES)
    event_seconds, collected = _best_of(
        lambda: collect_records(ctx.with_(batched_timing=False), policy,
                                TIMING_LAUNCHES), repeat
    )
    _, event_records = collected
    workloads["timing_kernel"] = {
        "description": "exact-cycle simulation, 32-line rss_rts launches: "
                       "wavefront-batched core (default) vs the per-event "
                       "engine",
        "launches": TIMING_LAUNCHES,
        "seconds": round(seconds, 4),
        "ms_per_launch": round(seconds / TIMING_LAUNCHES * 1e3, 2),
        "sim_cycles_per_second": round(simulated_cycles / seconds),
        "event_seconds": round(event_seconds, 4),
        "event_ms_per_launch": round(event_seconds / TIMING_LAUNCHES * 1e3,
                                     2),
        "speedup_vs_event": round(event_seconds / seconds, 2),
        # Dataclass equality across every record: ciphertexts, access
        # counts and every cycle number must agree, or the speedup is a
        # different machine, not a faster one.
        "cycles_identical": records == event_records,
    }

    # -- profiler observer-effect overhead -------------------------------
    # The same launches with full telemetry + span profiling on, so every
    # report records what observation costs (and CI can flag growth). An
    # instrumented run always executes on the event engine (the batched
    # core covers uninstrumented launches only), so the profiling-OFF
    # baseline is the *event-engine* timing_kernel number — the ratio
    # measures observation cost, not engine selection.
    from repro.telemetry import Telemetry

    def _profiled_kernel():
        pctx = ExperimentContext(root_seed=seed, samples=TIMING_LAUNCHES,
                                 telemetry=Telemetry(profile=True))
        return collect_records(pctx, policy, TIMING_LAUNCHES)

    log.info("bench: profiler_overhead (%d launches)", TIMING_LAUNCHES)
    on_seconds, _ = _best_of(_profiled_kernel, repeat)
    workloads["profiler_overhead"] = {
        "description": "timing_kernel rerun with telemetry + span "
                       "profiling enabled (observer-effect cost vs the "
                       "event engine it instruments; results stay "
                       "bit-identical)",
        "launches": TIMING_LAUNCHES,
        "seconds": round(on_seconds, 4),
        "seconds_off": round(event_seconds, 4),
        "overhead_ratio": round(on_seconds / event_seconds, 2),
    }

    # -- counts-only fast path (Fig 18 scale), both engines --------------
    ctx = ExperimentContext(root_seed=seed, samples=COUNTS_SAMPLES,
                            lines=lines)
    log.info("bench: counts_sweep (%d samples x %d lines, batched)",
             COUNTS_SAMPLES, lines)
    seconds, collected = _best_of(
        lambda: collect_records(ctx.with_(batched=True), policy,
                                COUNTS_SAMPLES, counts_only=True), repeat
    )
    _, batched_records = collected
    log.info("bench: counts_sweep (%d samples x %d lines, event engine)",
             COUNTS_SAMPLES, lines)
    event_seconds, collected = _best_of(
        lambda: collect_records(ctx.with_(batched=False), policy,
                                COUNTS_SAMPLES, counts_only=True), repeat
    )
    _, event_records = collected
    workloads["counts_sweep"] = {
        "description": f"counts-only collection, {lines}-line plaintexts "
                       "(batched structure-of-arrays core)",
        "samples": COUNTS_SAMPLES,
        "lines": lines,
        "seconds": round(seconds, 4),
        "ms_per_sample": round(seconds / COUNTS_SAMPLES * 1e3, 2),
        "event_seconds": round(event_seconds, 4),
        "event_ms_per_sample": round(event_seconds / COUNTS_SAMPLES * 1e3,
                                     2),
        "speedup_vs_event": round(event_seconds / seconds, 2),
        # Dataclass equality across every record: the engines must agree
        # on ciphertexts and every access count, or the speedup is moot.
        "counts_identical": batched_records == event_records,
    }

    # -- run-ledger (events.jsonl) overhead ------------------------------
    # Two numbers: raw fsync'd append throughput (every ledger write is
    # flush + fsync, so this is disk-bound by design), and the same
    # counts collection as above rerun with a live journal so the
    # phase-event cost relative to the unledgered run (counts_sweep's
    # batched `seconds`) is on record. A fresh temp dir per call keeps
    # repeats from appending to (or resuming) each other's ledgers.
    import tempfile

    from repro.telemetry.journal import RunJournal

    appends = 512
    log.info("bench: journal_overhead (%d appends)", appends)

    def _append_burst():
        with tempfile.TemporaryDirectory() as tmp:
            journal = RunJournal(os.path.join(tmp, "events.jsonl"))
            for index in range(appends):
                journal.append("bench_tick", index=index)

    append_seconds, _ = _best_of(_append_burst, repeat)

    def _ledgered_sweep():
        with tempfile.TemporaryDirectory() as tmp:
            journal = RunJournal(os.path.join(tmp, "events.jsonl"))
            return collect_records(
                ctx.with_(batched=True, journal=journal), policy,
                COUNTS_SAMPLES, counts_only=True)

    ledger_seconds, _ = _best_of(_ledgered_sweep, repeat)
    workloads["journal_overhead"] = {
        "description": "run-ledger cost: fsync'd append throughput, and "
                       "counts_sweep rerun with phase events journaled "
                       "(vs its unledgered seconds)",
        "appends": appends,
        "append_seconds": round(append_seconds, 4),
        "appends_per_second": round(appends / append_seconds),
        "seconds": round(ledger_seconds, 4),
        "seconds_off": round(seconds, 4),
        "overhead_ratio": round(ledger_seconds / seconds, 2),
    }
    counts_seconds = seconds

    # -- sharded execution overhead (rcoal shard) ------------------------
    # The same counts collection drained through the lease protocol:
    # 1-sample chunks maximize the per-chunk toll (lease create + fsync,
    # ledger claim/dispatch/done/release appends, chunk commit, lease
    # unlink), so `overhead_ratio` is the worst-case price of crash
    # tolerance per work item. The 2-worker number runs two in-process
    # worker threads against one campaign dir; on this 1-CPU-bound,
    # GIL-serialized simulator it measures *coordination* cost, not
    # speedup — real shard scaling needs separate processes (ideally
    # hosts), which is exactly what the chaos-shard CI job exercises.
    from repro.experiments.checkpoint import (
        CheckpointStore,
        campaign_fingerprint,
    )
    from repro.experiments.shard import ShardPolicy

    def _shard_worker(tmp: str, name: str):
        store = CheckpointStore.open(
            os.path.join(tmp, "run"),
            campaign_fingerprint("bench-shard", ctx, instrumented=False))
        sctx = ctx.with_(batched=True, checkpoint=store,
                         shard=ShardPolicy(worker=name,
                                           lease_seconds=30.0,
                                           chunk_samples=1))
        return collect_records(sctx, policy, COUNTS_SAMPLES,
                               counts_only=True)

    log.info("bench: shard_overhead (%d samples, 1-sample chunks)",
             COUNTS_SAMPLES)

    def _shard_solo():
        with tempfile.TemporaryDirectory() as tmp:
            return _shard_worker(tmp, "bench-w1")

    shard_seconds, collected = _best_of(_shard_solo, repeat)
    _, shard_records = collected

    def _shard_pair():
        import threading
        with tempfile.TemporaryDirectory() as tmp:
            results: Dict[str, object] = {}

            def drain(name: str) -> None:
                results[name] = _shard_worker(tmp, name)[1]

            threads = [threading.Thread(target=drain, args=(name,))
                       for name in ("bench-w1", "bench-w2")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return results

    log.info("bench: shard_overhead (2 worker threads, shared dir)")
    pair_seconds, pair_results = _best_of(_shard_pair, repeat)
    workloads["shard_overhead"] = {
        "description": "counts_sweep drained via the shard lease "
                       "protocol, 1-sample chunks (worst-case lease + "
                       "heartbeat + commit toll per work item); the "
                       "2-worker wall clock is same-host threads on a "
                       "GIL-serialized simulator — coordination cost, "
                       "not a speedup claim",
        "samples": COUNTS_SAMPLES,
        "chunks": COUNTS_SAMPLES,
        "seconds": round(shard_seconds, 4),
        "seconds_off": round(counts_seconds, 4),
        "overhead_ratio": round(shard_seconds / counts_seconds, 2),
        "lease_ms_per_chunk": round(
            max(0.0, shard_seconds - counts_seconds)
            / COUNTS_SAMPLES * 1e3, 2),
        "workers2_seconds": round(pair_seconds, 4),
        "records_identical": (
            shard_records == batched_records
            and all(result == batched_records
                    for result in pair_results.values())),
    }

    # -- one full experiment harness -------------------------------------
    from repro.experiments.registry import run_experiment
    serial_ctx = ExperimentContext(
        root_seed=seed, samples=samples,
        telemetry=Telemetry(profile=True) if profile else None)
    log.info("bench: fig07 (samples=%d, serial)", samples)
    serial_seconds, _ = _best_of(
        lambda: run_experiment("fig07", serial_ctx), repeat
    )
    workloads["fig07"] = {
        "description": "full fig07 harness (collection + attacks), serial",
        "samples": samples,
        "seconds": round(serial_seconds, 4),
    }

    if jobs > 1:
        parallel_ctx = serial_ctx.with_(jobs=jobs)
        log.info("bench: fig07 (samples=%d, jobs=%d)", samples, jobs)
        parallel_seconds, _ = _best_of(
            lambda: run_experiment("fig07", parallel_ctx), repeat
        )
        workloads["fig07_parallel"] = {
            "description": "full fig07 harness via the process-pool runner",
            "samples": samples,
            "jobs": jobs,
            "seconds": round(parallel_seconds, 4),
            "speedup_vs_serial": round(serial_seconds / parallel_seconds, 2),
        }

    return report


def check_bench_floors(report: Dict[str, object],
                       floors_path: str) -> list:
    """Compare a bench report against committed throughput floors.

    ``floors_path`` holds ``{"floors": {"<workload>.<key>": {"min": x}
    or {"max": y}}}`` — ``min`` for throughput-style numbers (simulated
    cycles per second), ``max`` for cost-style numbers (ms per sample).
    Floors are deliberately *generous* (several-fold slack against the
    committed BENCH numbers): wall clocks vary across hosts and CI
    runners, and the gate exists to catch order-of-magnitude regressions
    — an accidentally-disabled fast path, a quadratic loop — not 10%
    noise. Trend tracking stays the BENCH_<n>.json series' job.

    Returns a list of human-readable violations (empty = all clear).
    A floor naming a workload the report didn't run is itself a
    violation: a gate that silently skips is no gate.
    """
    with open(floors_path, "r", encoding="utf-8") as handle:
        floors = json.load(handle)
    workloads = report.get("workloads", {})
    violations = []
    for path, bounds in sorted(floors.get("floors", {}).items()):
        workload, _, key = path.partition(".")
        data = workloads.get(workload, {})
        value = data.get(key)
        if value is None:
            violations.append(
                f"{path}: not present in this bench report "
                f"(workload missing or key renamed)"
            )
            continue
        minimum = bounds.get("min")
        if minimum is not None and value < minimum:
            violations.append(
                f"{path}: {value} fell below the floor {minimum}"
            )
        maximum = bounds.get("max")
        if maximum is not None and value > maximum:
            violations.append(
                f"{path}: {value} exceeded the ceiling {maximum}"
            )
        if bounds.get("expect") is not None \
                and value != bounds["expect"]:
            violations.append(
                f"{path}: {value!r} != expected {bounds['expect']!r}"
            )
    return violations


def write_bench(report: Dict[str, object], path: Optional[str] = None) -> str:
    """Write a bench report as pretty JSON; returns the path."""
    target = path or default_bench_path()
    from repro.utils import atomic_write_json
    atomic_write_json(target, report, indent=2, sort_keys=False)
    return target


def render_report(report: Dict[str, object]) -> str:
    """Human-readable one-line-per-workload summary."""
    lines = []
    for name, data in report["workloads"].items():
        parts = [f"{name}: {data['seconds']}s"]
        for key in ("ms_per_launch", "ms_per_sample",
                    "sim_cycles_per_second", "speedup_vs_serial",
                    "event_ms_per_launch", "event_ms_per_sample",
                    "speedup_vs_event", "counts_identical",
                    "cycles_identical", "overhead_ratio",
                    "appends_per_second", "lease_ms_per_chunk",
                    "workers2_seconds", "records_identical"):
            if key in data:
                parts.append(f"{key}={data[key]}")
        lines.append("  ".join(parts))
    return "\n".join(lines)
