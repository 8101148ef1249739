"""The memory coalescing unit (MCU) with subwarp support.

This models the modified coalescing unit of Fig 11. Each load instruction
logs one pending-request-table (PRT) entry per active thread, carrying the
thread id, the request's base/offset address, its size, and — the RCoal
extension — a **subwarp id (sid)** field. Threads sharing a sid are coalesced
together: their requests are merged into as few 64-byte block accesses as
possible; threads with different sids are never merged, even when they touch
the same block.

The sid-per-thread mapping is supplied by a coalescing policy
(:mod:`repro.core.policies`) and, matching the hardware description, is fixed
for the duration of one kernel launch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.telemetry import Telemetry

__all__ = ["PRTEntry", "PendingRequestTable", "CoalescedGroup",
           "CoalescingUnit"]


@dataclass(frozen=True)
class PRTEntry:
    """One pending-request-table row (Fig 11): tid, sid, address, size."""

    tid: int
    sid: int
    base_address: int
    offset: int
    size: int

    @property
    def address(self) -> int:
        return self.base_address + self.offset


class PendingRequestTable:
    """The PRT of one coalescing unit.

    A bounded table; entries are logged when a warp issues a memory
    instruction and drained when the instruction's accesses are generated.
    The bound models the hardware structure; the default (one full warp's
    worth per scheduler) never back-pressures the simple in-order warps used
    here, but the invariant is enforced to keep the model honest.
    """

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ConfigurationError(f"PRT capacity must be positive: {capacity}")
        self.capacity = capacity
        self._entries: List[PRTEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Tuple[PRTEntry, ...]:
        return tuple(self._entries)

    def log(self, entry: PRTEntry) -> None:
        """Insert one entry; raises when the table is full."""
        if len(self._entries) >= self.capacity:
            raise ProtocolError("pending request table overflow")
        self._entries.append(entry)

    def drain(self) -> List[PRTEntry]:
        """Remove and return all entries (instruction fully processed)."""
        entries, self._entries = self._entries, []
        return entries


@dataclass(frozen=True)
class CoalescedGroup:
    """The coalesced accesses generated for one subwarp of one instruction."""

    sid: int
    block_addresses: Tuple[int, ...]
    thread_ids: Tuple[int, ...]


class CoalescingUnit:
    """Merges a warp's per-thread requests into block accesses, per subwarp.

    Parameters
    ----------
    access_bytes:
        Memory block (coalesced access) size; 64 in the paper's setup.
    prt_capacity:
        Pending-request-table size.
    """

    def __init__(self, access_bytes: int = 64, prt_capacity: int = 64,
                 telemetry: Optional[Telemetry] = None):
        if access_bytes <= 0 or access_bytes & (access_bytes - 1):
            raise ConfigurationError(
                f"access size must be a positive power of two: {access_bytes}"
            )
        self.access_bytes = access_bytes
        self.prt = PendingRequestTable(prt_capacity)
        self._telemetry = Telemetry.ensure(telemetry)

    def coalesce(
        self,
        addresses: Sequence[int],
        subwarp_map: Sequence[int],
        request_size: int = 4,
        active_mask: Optional[Sequence[bool]] = None,
    ) -> List[CoalescedGroup]:
        """Coalesce one warp instruction's thread addresses.

        Parameters
        ----------
        addresses:
            Per-thread byte addresses, one per lane.
        subwarp_map:
            Per-thread subwarp id (sid); threads are merged only within a
            sid. ``len(subwarp_map)`` must equal ``len(addresses)``.
        request_size:
            Per-thread request size in bytes (4 for table lookups).
        active_mask:
            Optional per-thread active flags (branch divergence / partially
            full warps); inactive threads generate no request.

        Returns
        -------
        One :class:`CoalescedGroup` per non-empty subwarp, ordered by sid;
        block addresses within a group are ordered by first touching thread,
        matching hardware generation order.
        """
        if len(addresses) != len(subwarp_map):
            raise ConfigurationError(
                f"{len(addresses)} addresses vs {len(subwarp_map)} sids"
            )
        if active_mask is not None and len(active_mask) != len(addresses):
            raise ConfigurationError("active mask length mismatch")

        # Group directly instead of materializing PRTEntry rows: the unit
        # runs once per memory instruction with one entry per active lane,
        # so per-entry allocation dominates its cost. The PRT's capacity
        # invariant (one row per active thread) is still enforced.
        block_mask = ~(self.access_bytes - 1)
        groups: Dict[int, Tuple[List[int], set, List[int]]] = {}
        logged = 0
        for tid, address in enumerate(addresses):
            if active_mask is not None and not active_mask[tid]:
                continue
            logged += 1
            sid = subwarp_map[tid]
            group = groups.get(sid)
            if group is None:
                group = ([], set(), [])
                groups[sid] = group
            blocks, seen, tids = group
            block = address & block_mask
            if block not in seen:
                seen.add(block)
                blocks.append(block)
            tids.append(tid)
        if logged > self.prt.capacity:
            raise ProtocolError("pending request table overflow")

        result = [
            CoalescedGroup(sid=sid,
                           block_addresses=tuple(blocks),
                           thread_ids=tuple(tids))
            for sid, (blocks, _seen, tids) in sorted(groups.items())
        ]

        if self._telemetry.enabled:
            metrics = self._telemetry.metrics
            total_blocks = sum(len(g.block_addresses) for g in result)
            metrics.counter("coalescer.instructions").inc()
            metrics.counter("coalescer.accesses").inc(total_blocks)
            metrics.histogram(
                "coalescer.prt_occupancy",
                buckets=tuple(range(1, self.prt.capacity + 1)),
            ).observe(logged)
            metrics.histogram(
                "coalescer.accesses_per_instruction",
                buckets=tuple(range(1, 65)),
            ).observe(total_blocks)
            metrics.histogram(
                "coalescer.subwarps_per_instruction",
                buckets=tuple(range(1, 33)),
            ).observe(len(result))

        return result
