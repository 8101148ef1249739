"""Campaign manifest: fold run ledgers + checkpoint state into one view.

A campaign directory is either a single checkpoint run dir (``rcoal
fig07 --resume DIR``: ``manifest.json`` + ``events.jsonl`` + ``phases/``
at the top) or a multi-experiment root (``rcoal all --resume DIR``: one
run dir per experiment underneath, plus an optional root-level ledger of
``experiment_start``/``experiment_finish`` events). This module is the
read side of the observability plane:

* :func:`campaign_manifest` — the full aggregated view: per experiment,
  per phase: total/restored/completed/remaining sample counts (counted
  from chunk *file names*, never by unpickling — so a manifest of a
  terabyte campaign costs a directory listing), chunk latency
  percentiles (p50/p95/p99 through the telemetry ``Histogram``),
  retry/split/quarantine totals, and per-process event lanes;
* :func:`campaign_health` — the cheap staleness probe ``/health`` polls:
  the age of the newest ledger event plus which phases are still open;
* :func:`render_manifest` — the ``rcoal status`` table;
* :func:`gc_campaign` — checkpoint GC (drop chunk files fully covered by
  the other chunks of their phase) and ledger compaction (fold per-chunk
  events into one ``compacted`` summary per run, preserving the counts
  and latency histograms the manifest reports).

Completed counts come from the checkpoint store's file names — the
ground truth a ``--resume`` acts on — while latency, retries, and lanes
come from the ledger; when the two disagree (a ledger lost to a crash),
the store wins and the manifest still reports exact restored/remaining
numbers.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.checkpoint import chunk_spans, phase_dir_name
from repro.experiments.reporting import format_table
from repro.telemetry import DEFAULT_BUCKETS, Histogram, get_logger
from repro.telemetry.journal import (
    JOURNAL_NAME,
    last_event,
    read_journal,
)
from repro.utils import atomic_write_text

__all__ = [
    "campaign_health",
    "campaign_manifest",
    "compact_journal",
    "discover_run_dirs",
    "gc_campaign",
    "render_manifest",
]

log = get_logger(__name__)

#: Ledger events that survive compaction verbatim (everything else is
#: folded into one ``compacted`` summary per run).
_KEEP_KINDS = frozenset({
    "campaign_open", "phase_start", "phase_finish", "checkpoint_restore",
    "chunk_quarantine", "degraded_serial", "experiment_start",
    "experiment_finish", "gc", "compacted",
})

#: Seconds without a ledger event before an in-progress campaign counts
#: as stalled (``/health`` reports ``degraded`` past this).
DEFAULT_STALL_AFTER = 30.0


def discover_run_dirs(root: Union[str, Path]) -> List[Path]:
    """The checkpoint run directories of a campaign root.

    A directory with its own ``manifest.json`` *is* a (single) run;
    otherwise every immediate child with one is a per-experiment run
    (the ``rcoal all --resume`` layout).
    """
    root = Path(root)
    if (root / "manifest.json").is_file():
        return [root]
    if not root.is_dir():
        return []
    return sorted(child for child in root.iterdir()
                  if (child / "manifest.json").is_file())


def _span_union(spans: List[Tuple[int, int]]) -> int:
    """Distinct samples covered by (possibly overlapping) spans."""
    covered: set = set()
    for start, end in spans:
        covered.update(range(start, end + 1))
    return len(covered)


def _latency_summary(histogram: Histogram) -> Optional[dict]:
    if histogram.count == 0:
        return None
    return {
        "count": histogram.count,
        "mean_ms": round(histogram.mean, 3),
        "p50_ms": histogram.percentile(0.50),
        "p95_ms": histogram.percentile(0.95),
        "p99_ms": histogram.percentile(0.99),
    }


def _new_phase(label: str) -> dict:
    return {"phase": label, "policy": None, "samples": None,
            "restored": 0, "completed": 0, "remaining": None,
            "quarantined": 0, "retries": 0, "splits": 0,
            "dispatched": 0, "chunks_done": 0, "engine": None,
            "mode": None, "state": "unknown", "seconds": None,
            "lease_claims": 0, "lease_steals": 0,
            "histogram": Histogram("latency_ms", DEFAULT_BUCKETS)}


def _new_worker_lane(event: dict) -> dict:
    return {"pid": event.get("pid"), "events": 0, "claims": 0,
            "heartbeats": 0, "steals": 0, "releases": 0,
            "chunks_done": 0, "renewals": 0, "last_ts": None,
            "last_heartbeat_ts": None}


def _fold_events(events: List[dict], phases: Dict[str, dict],
                 lanes: Dict[str, dict],
                 workers: Optional[Dict[str, dict]] = None) -> None:
    """Accumulate one ledger's events into phase + lane summaries.

    ``workers`` (when given) collects per-worker lanes from events that
    carry a ``worker`` field — the shard lease protocol's claims,
    heartbeats, steals, releases, and chunk completions — so ``rcoal
    status`` can show who held what even after the lease files are gone.
    """
    for event in events:
        pid = str(event.get("pid", "?"))
        lane = lanes.setdefault(pid, {"events": 0, "first_ts": None,
                                      "last_ts": None})
        lane["events"] += 1
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if lane["first_ts"] is None or ts < lane["first_ts"]:
                lane["first_ts"] = ts
            if lane["last_ts"] is None or ts > lane["last_ts"]:
                lane["last_ts"] = ts
        kind = event.get("kind")
        worker = event.get("worker")
        if workers is not None and isinstance(worker, str):
            wlane = workers.setdefault(worker, _new_worker_lane(event))
            wlane["events"] += 1
            if isinstance(ts, (int, float)) and \
                    (wlane["last_ts"] is None or ts > wlane["last_ts"]):
                wlane["last_ts"] = ts
            if kind == "lease_claim":
                wlane["claims"] += 1
            elif kind == "lease_heartbeat":
                wlane["heartbeats"] += 1
                wlane["renewals"] = max(
                    wlane["renewals"], int(event.get("renewals", 0) or 0))
                if isinstance(ts, (int, float)):
                    wlane["last_heartbeat_ts"] = ts
            elif kind == "lease_steal":
                wlane["steals"] += 1
            elif kind == "lease_release":
                wlane["releases"] += 1
            elif kind == "chunk_done":
                wlane["chunks_done"] += 1
        label = event.get("phase")
        if not isinstance(label, str):
            continue
        phase = phases.setdefault(label, _new_phase(label))
        if kind == "phase_start":
            phase["samples"] = event.get("samples", phase["samples"])
            phase["policy"] = event.get("policy", phase["policy"])
            phase["engine"] = event.get("engine", phase["engine"])
            phase["mode"] = event.get("mode", phase["mode"])
            phase["restored"] = max(phase["restored"],
                                    int(event.get("restored", 0) or 0))
            if phase["state"] == "unknown":
                phase["state"] = "in-progress"
        elif kind == "phase_finish":
            phase["samples"] = event.get("samples", phase["samples"])
            phase["state"] = "done"
            phase["seconds"] = event.get("seconds", phase["seconds"])
        elif kind == "checkpoint_restore":
            phase["restored"] = max(phase["restored"],
                                    int(event.get("restored", 0) or 0))
        elif kind == "chunk_dispatch":
            phase["dispatched"] += 1
        elif kind == "chunk_done":
            phase["chunks_done"] += 1
            seconds = event.get("seconds")
            if isinstance(seconds, (int, float)) and seconds >= 0:
                phase["histogram"].observe(max(1, round(seconds * 1e3)))
        elif kind == "chunk_retry":
            phase["retries"] += 1
        elif kind == "chunk_split":
            phase["splits"] += 1
        elif kind == "chunk_quarantine":
            phase["quarantined"] += 1
        elif kind == "lease_claim":
            phase["lease_claims"] += 1
        elif kind == "lease_steal":
            phase["lease_steals"] += 1
        elif kind == "compacted":
            phase["dispatched"] += int(event.get("dispatched", 0) or 0)
            phase["chunks_done"] += int(event.get("chunks_done", 0) or 0)
            phase["retries"] += int(event.get("retries", 0) or 0)
            phase["splits"] += int(event.get("splits", 0) or 0)
            phase["lease_claims"] += int(
                event.get("lease_claims", 0) or 0)
            phase["lease_steals"] += int(
                event.get("lease_steals", 0) or 0)
            latency = event.get("latency")
            if isinstance(latency, dict):
                stored = Histogram("latency_ms", latency["buckets"])
                stored.counts = list(latency["counts"])
                stored.count = int(latency["count"])
                stored.sum = latency["sum"]
                stored.max = latency.get("max")
                if stored.buckets == phase["histogram"].buckets:
                    phase["histogram"].merge_from(stored)


def _lease_census(phase_dir: Path, label: str,
                  now: float) -> List[dict]:
    """The live lease table of one phase directory, from its files.

    Uses the shard layer's own reader, so a torn lease file reports as
    ``torn`` (= stale = reclaimable) here exactly as a worker sees it.
    """
    from repro.experiments.shard import LEASE_NAME, parse_lease

    leases: List[dict] = []
    try:
        names = sorted(os.listdir(phase_dir))
    except OSError:
        return leases
    for name in names:
        if not LEASE_NAME.fullmatch(name):
            continue
        lease = parse_lease(phase_dir / name)
        if lease is None:
            continue  # released between listing and reading
        last = lease.renewed or lease.created
        leases.append({
            "phase": label, "start": lease.start, "end": lease.end,
            "owner": lease.owner, "host": lease.host, "pid": lease.pid,
            "renewals": lease.renewals,
            "state": ("torn" if lease.torn
                      else "stale" if lease.stale(now) else "live"),
            "age_seconds": (round(now - last, 3)
                            if isinstance(last, (int, float)) else None),
            "expires_in_seconds": (round(lease.deadline - now, 3)
                                   if lease.deadline is not None
                                   else None),
        })
    return leases


def _experiment_view(run_dir: Path,
                     now: Optional[float] = None) -> dict:
    """One run directory's manifest entry (ledger + checkpoint census)."""
    now = time.time() if now is None else now
    try:
        with open(run_dir / "manifest.json", "r", encoding="utf-8") as fh:
            fingerprint = json.load(fh)
    except (OSError, ValueError):
        fingerprint = {}
    events = read_journal(run_dir / JOURNAL_NAME)
    phases: Dict[str, dict] = {}
    lanes: Dict[str, dict] = {}
    workers: Dict[str, dict] = {}
    _fold_events(events, phases, lanes, workers)

    # Checkpoint ground truth: count completed samples from chunk file
    # names; phase dirs the (possibly lost) ledger never mentioned still
    # show up, keyed by their directory name. Lease files in the same
    # directories are the *live* shard claim table (the ledger only has
    # their history).
    phases_root = run_dir / "phases"
    named_dirs = {phase_dir_name(label): label for label in phases}
    leases: List[dict] = []
    if phases_root.is_dir():
        for child in sorted(phases_root.iterdir()):
            if not child.is_dir():
                continue
            label = named_dirs.get(child.name, child.name)
            phase = phases.setdefault(label, _new_phase(label))
            phase["completed"] = _span_union(chunk_spans(child))
            leases.extend(_lease_census(child, label, now))

    total = done = remaining = quarantined = 0
    for phase in phases.values():
        if phase["samples"] is not None:
            phase["remaining"] = max(
                0, phase["samples"] - phase["completed"])
            total += phase["samples"]
            remaining += phase["remaining"]
            if phase["state"] != "done" and phase["remaining"] == 0 \
                    and phase["quarantined"] == 0:
                phase["state"] = "complete"
        done += phase["completed"]
        quarantined += phase["quarantined"]
        phase["latency"] = _latency_summary(phase.pop("histogram"))

    newest = last_event(run_dir / JOURNAL_NAME)
    return {
        "run_dir": str(run_dir),
        "experiment": fingerprint.get("experiment") or run_dir.name,
        "fingerprint": fingerprint,
        "phases": [phases[label] for label in sorted(phases)],
        "lanes": lanes,
        "workers": workers,
        "leases": leases,
        "events": len(events),
        "last_event_ts": newest.get("ts") if newest else None,
        "totals": {"samples": total, "completed": done,
                   "remaining": remaining, "quarantined": quarantined,
                   "retries": sum(p["retries"] for p in phases.values()),
                   "splits": sum(p["splits"] for p in phases.values())},
    }


def campaign_manifest(root: Union[str, Path],
                      stall_after: float = DEFAULT_STALL_AFTER,
                      now: Optional[float] = None) -> dict:
    """The aggregated campaign view ``rcoal status`` and ``/campaign``
    serve. Raises :class:`ConfigurationError` when ``root`` holds no
    campaign (no run dir and no ledger)."""
    root = Path(root)
    runs = discover_run_dirs(root)
    root_events = [] if runs == [root] \
        else read_journal(root / JOURNAL_NAME)
    if not runs and not root_events:
        raise ConfigurationError(
            f"no campaign found at {root}: expected a --resume directory "
            f"(manifest.json) or a campaign root containing one per "
            f"experiment"
        )
    now = time.time() if now is None else now
    experiments = [_experiment_view(run_dir, now=now) for run_dir in runs]

    totals = {"samples": 0, "completed": 0, "remaining": 0,
              "quarantined": 0, "retries": 0, "splits": 0}
    last_ts = None
    workers: Dict[str, dict] = {}
    stale_leases: List[dict] = []
    for view in experiments:
        for key in totals:
            totals[key] += view["totals"][key]
        if view["last_event_ts"] is not None and \
                (last_ts is None or view["last_event_ts"] > last_ts):
            last_ts = view["last_event_ts"]
        for name, lane in view["workers"].items():
            if name not in workers:
                workers[name] = dict(lane)
                continue
            merged = workers[name]
            for key in ("events", "claims", "heartbeats", "steals",
                        "releases", "chunks_done"):
                merged[key] += lane[key]
            merged["renewals"] = max(merged["renewals"],
                                     lane["renewals"])
            for key in ("last_ts", "last_heartbeat_ts"):
                if lane[key] is not None and \
                        (merged[key] is None
                         or lane[key] > merged[key]):
                    merged[key] = lane[key]
        stale_leases.extend(
            dict(lease, experiment=view["experiment"])
            for lease in view["leases"] if lease["state"] != "live")
    for event in root_events:
        ts = event.get("ts")
        if isinstance(ts, (int, float)) and (last_ts is None
                                             or ts > last_ts):
            last_ts = ts

    open_phases = [phase["phase"] for view in experiments
                   for phase in view["phases"]
                   if phase["state"] == "in-progress"]
    # Compared unrounded: a ledger written under 0.5 ms ago must not read
    # as age 0.0, which a zero stall budget would not count as stalled.
    age = now - last_ts if last_ts is not None else None
    if totals["samples"] and totals["remaining"] == 0 and not open_phases:
        status = "complete"
    elif open_phases and age is not None and age > stall_after:
        status = "stalled"
    elif stale_leases:
        # A stale (or torn) lease is a worker that stopped heartbeating
        # mid-chunk — the shard-era face of a stall. Live peers reclaim
        # it within the lease deadline; one that *persists* across
        # --watch redraws means nobody is left to steal it.
        status = "stalled"
    else:
        status = "in-progress"
    return {
        "root": str(root),
        "status": status,
        "experiments": experiments,
        "totals": totals,
        "workers": workers,
        "stale_leases": stale_leases,
        "open_phases": open_phases,
        "last_event_age_seconds": (round(age, 3) if age is not None
                                   else None),
        "root_events": len(root_events),
    }


def campaign_health(root: Union[str, Path],
                    stall_after: float = DEFAULT_STALL_AFTER) -> dict:
    """The cheap staleness probe ``/health`` folds in.

    Reads only ledger tails (plus phase_start/finish pairing), never the
    chunk census, so a 1 Hz health poll against a big campaign stays
    cheap. ``stalled`` means: some phase started and never finished, and
    no process has written any event for ``stall_after`` seconds.
    """
    root = Path(root)
    runs = discover_run_dirs(root)
    ledgers = [run / JOURNAL_NAME for run in runs]
    if (root / JOURNAL_NAME).is_file() \
            and root / JOURNAL_NAME not in ledgers:
        ledgers.append(root / JOURNAL_NAME)
    last_ts = None
    open_phases: List[str] = []
    for ledger in ledgers:
        newest = last_event(ledger)
        if newest and isinstance(newest.get("ts"), (int, float)):
            if last_ts is None or newest["ts"] > last_ts:
                last_ts = newest["ts"]
        started: Dict[str, bool] = {}
        for event in read_journal(ledger):
            label = event.get("phase")
            if not isinstance(label, str):
                continue
            if event.get("kind") == "phase_start":
                started[label] = True
            elif event.get("kind") == "phase_finish":
                started[label] = False
        open_phases.extend(label for label, is_open in started.items()
                           if is_open)
    # Shard lease files: a stale one is a worker that stopped
    # heartbeating mid-chunk — same degraded condition as ledger
    # silence, but attributable to an owner. Costs one directory
    # listing per phase dir (the files are tiny), so the 1 Hz poll
    # stays cheap.
    now = time.time()
    leases = stale = 0
    stalled_worker = None
    for run_dir in runs:
        phases_root = run_dir / "phases"
        if not phases_root.is_dir():
            continue
        for child in sorted(phases_root.iterdir()):
            if not child.is_dir():
                continue
            for lease in _lease_census(child, child.name, now):
                leases += 1
                if lease["state"] != "live":
                    stale += 1
                    if stalled_worker is None:
                        stalled_worker = lease["owner"] or "torn-lease"
    age = now - last_ts if last_ts is not None else None
    # A stale lease only stalls a campaign with open work: on a
    # finished campaign it is litter from a worker whose span a peer
    # already covered (GC sweeps it), matching campaign_manifest's
    # status precedence where complete beats stalled.
    stalled = bool(open_phases) and ((age is not None
                                      and age > stall_after)
                                     or stale > 0)
    return {
        "ledgers": len(ledgers),
        "last_event_age_seconds": (round(age, 3) if age is not None
                                   else None),
        "open_phases": open_phases,
        "leases": leases,
        "stale_leases": stale,
        "stalled_worker": stalled_worker,
        "stalled": stalled,
        "stalled_phase": open_phases[0] if stalled and open_phases
        else None,
    }


def _phase_cell(phase: dict) -> str:
    """Compact phase column: the policy segment plus distinguishing
    flags (full labels are in the JSON view)."""
    label = phase["phase"]
    head = label.split("|", 1)[0]
    flags = []
    if "|counts=1" in label:
        flags.append("counts")
    if "|retain=1" in label:
        flags.append("retain")
    return head + (" [" + ",".join(flags) + "]" if flags else "")


def render_manifest(manifest: dict) -> str:
    """The ``rcoal status`` table (machine view: ``--json``)."""
    headers = ["experiment", "phase", "total", "done", "left", "quar",
               "retry", "p50 ms", "p95 ms", "p99 ms", "state"]
    rows = []
    for view in manifest["experiments"]:
        if not view["phases"]:
            rows.append((view["experiment"], "-", 0, 0, 0, 0, 0,
                         None, None, None, "empty"))
        for phase in view["phases"]:
            latency = phase["latency"] or {}
            rows.append((
                view["experiment"], _phase_cell(phase),
                phase["samples"], phase["completed"], phase["remaining"],
                phase["quarantined"], phase["retries"],
                latency.get("p50_ms"), latency.get("p95_ms"),
                latency.get("p99_ms"), phase["state"],
            ))
    totals = manifest["totals"]
    lines = [f"== campaign {manifest['root']}: {manifest['status']} ==",
             format_table(headers, rows),
             "",
             f"totals: {totals['completed']}/{totals['samples']} samples "
             f"done, {totals['remaining']} remaining, "
             f"{totals['quarantined']} quarantined, "
             f"{totals['retries']} retries"]
    age = manifest["last_event_age_seconds"]
    if age is not None:
        lines.append(f"last ledger event: {age:.1f}s ago")
    workers = manifest.get("workers") or {}
    if workers:
        lines.append("workers:")
        now = time.time()
        for name in sorted(workers):
            lane = workers[name]
            beat = lane.get("last_heartbeat_ts") or lane.get("last_ts")
            beat_note = (f"last heartbeat {now - beat:.1f}s ago"
                         if isinstance(beat, (int, float)) else
                         "no heartbeat recorded")
            lines.append(
                f"  {name} (pid {lane.get('pid', '?')}): "
                f"claims={lane['claims']} done={lane['chunks_done']} "
                f"steals={lane['steals']} releases={lane['releases']} "
                f"heartbeats={lane['heartbeats']}, {beat_note}")
    for lease in manifest.get("stale_leases") or []:
        lines.append(
            f"stale lease: samples {lease['start']}-{lease['end']} of "
            f"{lease['experiment']} held by "
            f"{lease['owner'] or 'a torn lease'}"
            + (f" (pid {lease['pid']} on {lease['host']})"
               if lease.get("pid") else "")
            + (f", silent {lease['age_seconds']:.1f}s"
               if lease.get("age_seconds") is not None else "")
            + " — reclaimable by any worker")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# GC + compaction (``rcoal status --gc``).
# ---------------------------------------------------------------------------


def _gc_phase_dir(directory: Path) -> Tuple[int, int]:
    """Remove chunk files whose samples other chunks fully cover.

    Retries and splits can leave overlapping spans (e.g. a whole-chunk
    file plus its two split halves). Keeping greedily by descending span
    size means the largest-coverage files survive; a file contributing
    no new sample index is superseded and deleted. Returns
    ``(removed, kept)``.
    """
    spans = chunk_spans(directory)
    by_size = sorted(spans, key=lambda s: (s[0] - s[1], s[0]))
    covered: set = set()
    keep: set = set()
    for start, end in by_size:
        samples = set(range(start, end + 1))
        if samples - covered:
            covered |= samples
            keep.add((start, end))
    removed = kept = 0
    for start, end in spans:
        if (start, end) in keep:
            kept += 1
            continue
        target = directory / f"chunk-{start:05d}-{end:05d}.pkl"
        try:
            os.unlink(target)
            removed += 1
            log.info("gc: removed superseded chunk %s", target)
        except OSError as exc:
            log.warning("gc: could not remove %s: %s", target, exc)
            kept += 1
    return removed, kept


def compact_journal(path: Union[str, Path]) -> Tuple[int, int]:
    """Rewrite a ledger with per-chunk events folded into summaries.

    Keeps lifecycle events (:data:`_KEEP_KINDS`) verbatim and replaces
    the chunk-level churn with one ``compacted`` event per phase
    carrying the counters and the latency histogram state, so a
    manifest built after compaction reports the same totals and
    percentiles. Rewriting resets the read-time ``seq`` numbering —
    ``/campaign`` clients simply see a smaller ``recorded`` and restart
    their cursor. Returns ``(events_before, events_after)``.
    """
    path = Path(path)
    events = read_journal(path)
    if not events:
        return 0, 0
    phases: Dict[str, dict] = {}
    lanes: Dict[str, dict] = {}
    _fold_events(events, phases, lanes)
    kept = [dict(event) for event in events
            if event.get("kind") in _KEEP_KINDS
            and event.get("kind") != "compacted"]
    for event in kept:
        event.pop("seq", None)
    for label in sorted(phases):
        phase = phases[label]
        histogram = phase["histogram"]
        kept.append({
            "kind": "compacted", "ts": round(time.time(), 6),
            "pid": os.getpid(), "phase": label,
            "dispatched": phase["dispatched"],
            "chunks_done": phase["chunks_done"],
            "retries": phase["retries"], "splits": phase["splits"],
            "lease_claims": phase["lease_claims"],
            "lease_steals": phase["lease_steals"],
            "latency": {"buckets": list(histogram.buckets),
                        "counts": list(histogram.counts),
                        "count": histogram.count,
                        "sum": histogram.sum,
                        "max": histogram.max},
        })
    text = "".join(json.dumps(event, sort_keys=True,
                              separators=(",", ":")) + "\n"
                   for event in kept)
    atomic_write_text(path, text)
    return len(events), len(kept)


def gc_campaign(root: Union[str, Path]) -> dict:
    """Checkpoint GC + ledger compaction for one campaign root.

    Safe by construction: only chunk files whose *every* sample another
    kept chunk also holds are deleted (``load_chunks`` folds by sample
    index, so resumed output is unchanged — proven byte-identical in
    tests and CI), and compaction preserves every count the manifest
    reports. Returns the stats ``rcoal status --gc`` prints.
    """
    root = Path(root)
    runs = discover_run_dirs(root)
    if not runs and not (root / JOURNAL_NAME).is_file():
        raise ConfigurationError(
            f"no campaign found at {root}; nothing to gc"
        )
    stats = {"removed_chunks": 0, "kept_chunks": 0,
             "removed_leases": 0,
             "events_before": 0, "events_after": 0}
    ledgers = [run / JOURNAL_NAME for run in runs]
    if runs != [root] and (root / JOURNAL_NAME).is_file():
        ledgers.append(root / JOURNAL_NAME)
    from repro.experiments.shard import lease_name
    now = time.time()
    for run_dir in runs:
        phases_root = run_dir / "phases"
        if phases_root.is_dir():
            for child in sorted(phases_root.iterdir()):
                if child.is_dir():
                    removed, kept = _gc_phase_dir(child)
                    stats["removed_chunks"] += removed
                    stats["kept_chunks"] += kept
                    # Stale/torn lease litter (a dead worker whose span
                    # peers covered) is safe to sweep: any worker would
                    # reclaim it anyway, and a *live* lease is never
                    # touched.
                    for lease in _lease_census(child, child.name, now):
                        if lease["state"] != "live":
                            try:
                                os.unlink(
                                    child / lease_name(lease["start"],
                                                       lease["end"]))
                                stats["removed_leases"] += 1
                            except OSError:
                                pass
    for ledger in ledgers:
        if not ledger.is_file():
            continue
        before, after = compact_journal(ledger)
        stats["events_before"] += before
        stats["events_after"] += after
    for run_dir in runs:
        journal_path = run_dir / JOURNAL_NAME
        if journal_path.is_file():
            from repro.telemetry.journal import RunJournal
            RunJournal(journal_path).append(
                "gc", removed_chunks=stats["removed_chunks"],
                events_before=stats["events_before"],
                events_after=stats["events_after"])
            break
    return stats
