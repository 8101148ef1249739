"""Deterministic sim-cycle cost-center profiling (axis 1 of ``rcoal
profile``).

:func:`attribute_rounds` answers *which access* made a round window long;
this module answers *which pipeline stage*. Every charged interval of the
attribution waterfall — the ``(frontier, completion]`` span an access or
compute slice advanced the window by — is split across the engine stages
the access actually occupied during those cycles, using the same
uid-stamped trace events:

* ``sm.compute`` — the round's compute slice;
* ``sm.schedule`` — charged cycles before the owning memory instruction
  issued its coalesced groups (issue-port arbitration across the round's
  instructions);
* ``coalescer.serialize`` — inside the instruction's ``coalesce`` span:
  issue latency, per-access LD/ST egress staggering, and waiting behind
  an earlier instruction's egress;
* ``icnt.fwd`` / ``icnt.reply`` — forward/reply crossbar traversal
  including port-contention stalls (the ``fwd_xbar``/``reply_xbar``
  spans);
* ``dram.queue`` — from interconnect arrival to the first DRAM command
  (FR-FCFS queueing plus bank-timing waits such as precharge);
* ``dram.activate`` — the row-miss ACTIVATE (tRCD) span;
* ``dram.column_hit`` / ``dram.column_miss`` — CAS-to-burst-completion
  service, split by row-buffer outcome.

The stage spans of one access tile its lifetime ``[fwd.ts, reply_end]``
contiguously (each span's end is the next span's start, by construction of
the engine's timing math), so the split is **exact**: cost-center totals
telescope back to the attribution waterfall, whose contributions telescope
to the round-window durations pinned by the golden tests. Any gap raises
instead of silently skewing the chart, and :func:`cost_centers` re-checks
the reconciliation explicitly so ``rcoal profile`` can print it.

Everything here is a pure function of the trace, hence bit-reproducible —
which is what lets ``rcoal profile --check`` gate cost-center drift the
way metrics baselines are gated.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.attribution import RoundAttribution, attribute_rounds
from repro.errors import ConfigurationError
from repro.telemetry.tracer import TraceEvent, Tracer

__all__ = [
    "CostCenterReport",
    "cost_centers",
    "collapsed_stacks",
    "live_cost_centers",
    "render_cost_table",
]

#: Display order for ranked tables (ties broken by name there; this is the
#: canonical catalogue for docs and the drift-gated report schema).
COST_CENTER_NAMES = (
    "sm.compute",
    "sm.schedule",
    "coalescer.serialize",
    "icnt.fwd",
    "icnt.reply",
    "dram.queue",
    "dram.activate",
    "dram.column_hit",
    "dram.column_miss",
)


@dataclass
class CostCenterReport:
    """Cycle totals per cost center, with per-warp/per-round breakdowns."""

    #: center name -> attributed cycles (summed over all windows).
    centers: Dict[str, float] = field(default_factory=dict)
    #: warp id -> {center -> cycles, "total" -> window cycles}.
    per_warp: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: round index -> {center -> cycles, "total" -> window cycles}.
    per_round: Dict[int, Dict[str, float]] = field(default_factory=dict)
    windows: int = 0
    total_window_cycles: float = 0.0

    @property
    def attributed_cycles(self) -> float:
        return sum(self.centers.values())

    def ranked(self) -> List[Tuple[str, float]]:
        """Centers sorted by cycles, largest first (name breaks ties)."""
        return sorted(self.centers.items(), key=lambda kv: (-kv[1], kv[0]))

    def to_dict(self) -> Dict[str, object]:
        """Deterministic plain-dict form for the stable-JSON report."""
        return {
            "centers": {k: self.centers[k] for k in sorted(self.centers)},
            "per_warp": {
                str(w): {k: v for k, v in sorted(self.per_warp[w].items())}
                for w in sorted(self.per_warp)
            },
            "per_round": {
                str(r): {k: v for k, v in sorted(self.per_round[r].items())}
                for r in sorted(self.per_round)
            },
            "windows": self.windows,
            "total_window_cycles": self.total_window_cycles,
            "reconciliation": {
                "attributed_cycles": self.attributed_cycles,
                "gap": self.attributed_cycles - self.total_window_cycles,
            },
        }


class _EventIndex:
    """uid- and warp-keyed lookups over one trace, window-scoped."""

    def __init__(self, tracer: Tracer):
        self._by_uid: Dict[str, Dict[int, List[TraceEvent]]] = {
            "fwd_xbar": {}, "reply_xbar": {}, "activate": {},
            "column": {},
        }
        #: warp id -> sorted [(ts, end)] of its coalesce spans.
        self._coalesce: Dict[int, List[Tuple[float, float]]] = {}
        for event in tracer.events:
            name = event.name
            if name in ("column_hit", "column_miss"):
                key = "column"
            elif name in self._by_uid:
                key = name
            elif name == "coalesce":
                self._coalesce.setdefault(event.tid, []).append(
                    (event.ts, event.ts + (event.dur or 0)))
                continue
            else:
                continue
            self._by_uid[key].setdefault(event.args["uid"],
                                         []).append(event)
        for per_uid in self._by_uid.values():
            for events in per_uid.values():
                events.sort(key=lambda e: e.ts)
        for spans in self._coalesce.values():
            spans.sort()

    def lookup(self, kind: str, uid: int,
               window: RoundAttribution) -> Optional[TraceEvent]:
        """The uid's ``kind`` event that falls inside the window, if any.

        uids repeat across launches; launches never overlap on the trace
        timeline, so window containment picks the right one (the same
        rule attribution's DRAM join uses).
        """
        for event in self._by_uid[kind].get(uid, ()):
            if window.start <= event.ts <= window.end:
                return event
        return None

    def coalesce_start(self, warp_id: int, inject_ts: float
                       ) -> Optional[float]:
        """Issue cycle of the coalesce span containing ``inject_ts``.

        The engine injects every coalesced block within its instruction's
        ``coalesce`` span ``[issue, ldst_free]``; spans of successive
        instructions may overlap (the next instruction can issue while an
        earlier egress drains), so take the *latest* span starting at or
        before the injection point.
        """
        spans = self._coalesce.get(warp_id)
        if not spans:
            return None
        i = bisect_right(spans, (inject_ts, float("inf"))) - 1
        if i < 0:
            return None
        start, end = spans[i]
        return start if inject_ts <= end else None


def cost_centers(
    tracer: Tracer,
    round_index: Optional[int] = None,
    attributions: Optional[List[RoundAttribution]] = None,
) -> CostCenterReport:
    """Split every attributed cycle across engine cost centers.

    Walks the attribution waterfall window by window, reconstructing each
    contribution's charged interval ``(frontier, completion]``, and
    overlaps it with the access's stage spans from the trace. Pass
    ``attributions`` to reuse an existing :func:`attribute_rounds` result
    (``round_index`` is then ignored — the windows are already filtered).
    """
    if attributions is None:
        attributions = attribute_rounds(tracer, round_index)
    index = _EventIndex(tracer)
    report = CostCenterReport()

    for window in attributions:
        report.windows += 1
        report.total_window_cycles += window.duration
        warp_agg = report.per_warp.setdefault(
            window.warp_id, {"total": 0.0})
        round_agg = report.per_round.setdefault(
            window.round_index, {"total": 0.0})
        warp_agg["total"] += window.duration
        round_agg["total"] += window.duration

        def charge(center: str, cycles: float) -> None:
            if cycles <= 0:
                return
            report.centers[center] = \
                report.centers.get(center, 0.0) + cycles
            warp_agg[center] = warp_agg.get(center, 0.0) + cycles
            round_agg[center] = round_agg.get(center, 0.0) + cycles

        frontier = window.start
        for c in window.contributions:
            lo = frontier
            hi = max(frontier, c.completion)
            frontier = hi
            if c.cycles <= 0:
                continue
            if c.source == "compute":
                charge("sm.compute", hi - lo)
                continue
            split = _split_access(c.uid, lo, hi, window, index)
            for center, cycles in split:
                charge(center, cycles)

    gap = abs(report.attributed_cycles - report.total_window_cycles)
    if gap > 1e-6:
        raise ConfigurationError(
            f"cost-center split failed to reconcile: attributed "
            f"{report.attributed_cycles} of {report.total_window_cycles} "
            f"window cycles (gap {gap})"
        )
    return report


def _split_access(
    uid: Optional[int], lo: float, hi: float,
    window: RoundAttribution, index: _EventIndex,
) -> List[Tuple[str, float]]:
    """Partition one access's charged interval across its stage spans.

    Builds the contiguous boundary sequence of the access's lifetime —
    inject, forward arrival, (activate,) CAS, DRAM completion, reply
    delivery — and intersects each named span with ``[lo, hi]``. The
    spans tile ``[fwd.ts, hi]`` and any charged cycles before the
    injection are scheduler/coalescer time, so the pieces sum exactly to
    ``hi - lo``.
    """
    fwd = index.lookup("fwd_xbar", uid, window)
    if fwd is None:
        raise ConfigurationError(
            f"access uid={uid} has no fwd_xbar event in its window; "
            f"the trace is incomplete"
        )
    reply = index.lookup("reply_xbar", uid, window)
    if reply is None:
        raise ConfigurationError(
            f"access uid={uid} has no reply_xbar event in its window; "
            f"the trace is incomplete"
        )
    fwd_end = fwd.ts + (fwd.dur or 0)
    reply_ts = reply.ts

    # [boundary start, name] pairs; each span ends where the next starts,
    # the last one ending at the reply delivery (== hi).
    spans: List[Tuple[float, str]] = [(fwd.ts, "icnt.fwd")]
    column = index.lookup("column", uid, window)
    if column is not None:
        activate = index.lookup("activate", uid, window)
        if activate is not None:
            spans.append((fwd_end, "dram.queue"))
            spans.append((activate.ts, "dram.activate"))
        else:
            spans.append((fwd_end, "dram.queue"))
        center = ("dram.column_hit" if column.name == "column_hit"
                  else "dram.column_miss")
        spans.append((column.ts, center))
    else:
        # A read that reached DRAM always has a column event (attribution
        # requires a complete trace); keep the account balanced anyway.
        spans.append((fwd_end, "dram.queue"))
    spans.append((reply_ts, "icnt.reply"))

    pieces: List[Tuple[str, float]] = []
    # Charged cycles before the access left the coalescer: split at the
    # owning instruction's issue into scheduler vs coalescer time.
    if lo < fwd.ts:
        issue = index.coalesce_start(window.warp_id, fwd.ts)
        cut = fwd.ts if issue is None else min(max(issue, lo), fwd.ts)
        if cut > lo:
            pieces.append(("sm.schedule", cut - lo))
        if fwd.ts > cut:
            pieces.append(("coalescer.serialize", fwd.ts - cut))
    for i, (start, center) in enumerate(spans):
        end = spans[i + 1][0] if i + 1 < len(spans) else hi
        share = min(hi, end) - max(lo, start)
        if share > 0:
            pieces.append((center, share))
    total = sum(cycles for _, cycles in pieces)
    if abs(total - (hi - lo)) > 1e-9:
        raise ConfigurationError(
            f"stage split for access uid={uid} does not tile its charged "
            f"interval: {total} != {hi - lo} cycles (window warp "
            f"{window.warp_id} round {window.round_index})"
        )
    return pieces


def render_cost_table(report: CostCenterReport,
                      top: Optional[int] = None) -> str:
    """The ranked cost-center table ``rcoal profile`` prints."""
    ranked = report.ranked()
    if top is not None:
        ranked = ranked[:top]
    total = report.total_window_cycles or 1.0
    width = max([len(name) for name, _ in ranked] + [len("cost center")])
    lines = [f"{'cost center'.ljust(width)}  {'cycles':>14}  {'share':>7}"]
    for name, cycles in ranked:
        lines.append(f"{name.ljust(width)}  {cycles:>14.0f}  "
                     f"{100.0 * cycles / total:>6.2f}%")
    lines.append(f"{'total attributed'.ljust(width)}  "
                 f"{report.attributed_cycles:>14.0f}  {'100.00%':>7}")
    return "\n".join(lines)


def collapsed_stacks(report: CostCenterReport) -> str:
    """Cost centers in Brendan Gregg's collapsed-stack format.

    One line per center as ``sim;<stage>;<leaf> <cycles>`` (plus per-warp
    ``warp:<id>`` frames), directly consumable by ``flamegraph.pl`` or
    speedscope to render a cycles flamegraph.
    """
    lines: List[str] = []
    for name, cycles in report.ranked():
        stack = name.replace(".", ";")
        lines.append(f"sim;{stack} {int(round(cycles))}")
    for warp_id in sorted(report.per_warp):
        for name, cycles in sorted(report.per_warp[warp_id].items()):
            if name == "total":
                continue
            stack = name.replace(".", ";")
            lines.append(f"sim;warp:{warp_id};{stack} "
                         f"{int(round(cycles))}")
    return "\n".join(lines) + "\n"


#: Live approximation: cumulative engine counters -> cost-center-ish cycle
#: totals, for the ``/profile`` endpoint (no trace join required). These
#: are stage *occupancy* totals, not critical-path attribution — hidden
#: (overlapped) cycles count here but not in :func:`cost_centers`.
_LIVE_COUNTER_CENTERS = (
    ("sched.stall", "sched.stall_cycles"),
    ("coalescer.serialize", "coalescer.serialize_cycles"),
    ("coalescer.ldst_wait", "coalescer.ldst_wait_cycles"),
    ("icnt.fwd.transit", "icnt.fwd.transit_cycles"),
    ("icnt.fwd.stall", "icnt.fwd.stall_cycles"),
    ("icnt.reply.transit", "icnt.reply.transit_cycles"),
    ("icnt.reply.stall", "icnt.reply.stall_cycles"),
    ("dram.activate", "dram.activate_cycles"),
    ("dram.service", "dram.service_cycles"),
    ("dram.bus", "dram.bus_busy_cycles"),
)


def live_cost_centers(snapshot: Dict[str, Dict[str, object]]
                      ) -> Dict[str, float]:
    """Approximate cost-center totals from a live metrics snapshot."""
    centers: Dict[str, float] = {}
    for center, metric in _LIVE_COUNTER_CENTERS:
        entry = snapshot.get(metric)
        if entry is not None and "value" in entry:
            centers[center] = entry["value"]
    queue = snapshot.get("dram.queue_wait_cycles")
    if queue is not None and "sum" in queue:
        centers["dram.queue_wait"] = queue["sum"]
    return {name: centers[name] for name in sorted(centers)}
