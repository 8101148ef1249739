"""Kernel execution statistics produced by the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

from repro.aes.key_schedule import NUM_ROUNDS
from repro.errors import ProtocolError
from repro.gpu.dram import DramStats
from repro.gpu.request import AccessKind

__all__ = ["RoundWindow", "KernelResult"]


@dataclass
class RoundWindow:
    """Observed execution window of one AES round on one warp."""

    start: Optional[int] = None
    end: Optional[int] = None

    def observe_start(self, cycle: int) -> None:
        if self.start is None or cycle < self.start:
            self.start = cycle

    def observe_end(self, cycle: int) -> None:
        if self.end is None or cycle > self.end:
            self.end = cycle

    @property
    def duration(self) -> int:
        if self.start is None or self.end is None:
            raise ProtocolError("round window never observed")
        return self.end - self.start


@dataclass
class KernelResult:
    """Everything an experiment reads back from one simulated kernel launch.

    ``last_round_time`` is the paper's measured quantity: the span from the
    first warp entering round 10 to the last round-10 reply. With a single
    warp (32-line plaintexts) it is exactly that warp's round-10 duration.
    """

    num_warps: int
    total_cycles: int = 0
    drain_cycles: int = 0
    #: accesses[kind] = count across the kernel.
    access_counts: Dict[AccessKind, int] = field(default_factory=dict)
    #: Table-load accesses per round (1..10).
    round_accesses: Dict[int, int] = field(default_factory=dict)
    #: last_round_loads[warp] = the warp's round-10 table-load accesses,
    #: one count per instruction in program order (load ``j`` reads the
    #: T4 entry of ciphertext byte ``j``).
    last_round_loads: Dict[int, List[int]] = field(default_factory=dict)
    #: Per-warp, per-round execution windows.
    round_windows: Dict[Tuple[int, int], RoundWindow] = field(
        default_factory=dict)
    dram_stats: List[DramStats] = field(default_factory=list)
    #: Per-warp completion cycles.
    warp_finish: Dict[int, int] = field(default_factory=dict)
    #: Telemetry metrics snapshot (cumulative over the owning simulator's
    #: launches), populated only when the run was instrumented; None —
    #: never an empty dict — for uninstrumented runs, keeping telemetry-off
    #: results byte-identical to pre-telemetry behaviour.
    metrics: Optional[Dict[str, object]] = None

    # -- recording helpers (engine-facing) -----------------------------------

    def window(self, warp_id: int, round_index: int) -> RoundWindow:
        key = (warp_id, round_index)
        if key not in self.round_windows:
            self.round_windows[key] = RoundWindow()
        return self.round_windows[key]

    def count_accesses(self, warp_id: int, kind: AccessKind,
                       round_index: Optional[int], count: int) -> None:
        """Record the ``count`` coalesced accesses of one instruction of
        warp ``warp_id`` (they share kind and round). Each warp's
        instructions must be recorded in program order."""
        self.access_counts[kind] = self.access_counts.get(kind, 0) + count
        if kind is AccessKind.TABLE_LOAD and round_index is not None:
            self.round_accesses[round_index] = (
                self.round_accesses.get(round_index, 0) + count
            )
            if round_index == NUM_ROUNDS:
                self.last_round_loads.setdefault(warp_id, []).append(count)

    # -- derived metrics (experiment-facing) ----------------------------------

    @property
    def total_accesses(self) -> int:
        """All coalesced accesses generated (the data-movement metric)."""
        return sum(self.access_counts.values())

    @property
    def table_accesses(self) -> int:
        return self.access_counts.get(AccessKind.TABLE_LOAD, 0)

    @property
    def last_round_accesses(self) -> int:
        """Coalesced T4 accesses in round 10 (the attack's estimand)."""
        return self.round_accesses.get(NUM_ROUNDS, 0)

    @property
    def last_round_byte_accesses(self) -> List[int]:
        """Round-10 coalesced accesses per ciphertext byte position: the
        ``j``-th round-10 load of every warp, summed over warps (the
        per-instruction ground truth of Fig 18a's methodology)."""
        return [sum(column) for column in
                zip_longest(*self.last_round_loads.values(), fillvalue=0)]

    def round_span(self, round_index: int) -> int:
        """Earliest start to latest end of a round across warps."""
        windows = [w for (wid, r), w in self.round_windows.items()
                   if r == round_index]
        if not windows:
            raise ProtocolError(f"no windows recorded for round {round_index}")
        start = min(w.start for w in windows if w.start is not None)
        end = max(w.end for w in windows if w.end is not None)
        return end - start

    @property
    def last_round_time(self) -> int:
        """The attack's timing observable (last-round execution span)."""
        return self.round_span(NUM_ROUNDS)

    @property
    def total_time(self) -> int:
        """Kernel execution time in core cycles."""
        return self.total_cycles

    def warp_last_round_duration(self, warp_id: int) -> int:
        return self.round_windows[(warp_id, NUM_ROUNDS)].duration

    def aggregate_dram(self) -> DramStats:
        """Sum DRAM statistics across partitions."""
        total = DramStats()
        for stats in self.dram_stats:
            total.row_hits += stats.row_hits
            total.row_misses += stats.row_misses
            total.reads += stats.reads
            total.writes += stats.writes
            total.bus_busy_cycles += stats.bus_busy_cycles
            total.queue_wait_cycles += stats.queue_wait_cycles
        return total
