"""Batched exact timing engine: the sample-axis wavefront replay, the
multi-warp recurrence replay and the calendar replay.

:class:`BatchedTimingCore` produces the *same* :class:`KernelResult` as the
discrete-event engine (:class:`repro.gpu.engine.GPUSimulator`) without its
heap, ``MemoryAccess`` objects or component instances. It takes launches
two ways: :meth:`~BatchedTimingCore.run_samples`, a
:class:`~repro.gpu.warp.SampleBatch` of equal-shape launches held as lane
arrays (every timed AES launch arrives this way, one slab of a phase's
samples at a time), and :meth:`~BatchedTimingCore.run`, one launch of
raw :class:`~repro.gpu.warp.WarpProgram` objects.

**One coalescer.** Both entries feed every memory instruction of every
launch to :meth:`~BatchedTimingCore._coalesce` as rows of lane addresses
and subwarp ids. Two row-wise sorts of packed integer keys give each
row's accesses in the engine's generation order (groups ascending by sid,
blocks in first-touch thread order within a group: the contract of
``CoalescingUnit.coalesce``), and their DRAM coordinates follow in one
vectorized decode.

**Calendar replay: the exactness argument.** The core runs the event
engine's own handlers on plain ints and lists, in the engine's own event
order: every push of ``GPUSimulator.run`` lands at or after the cycle
being processed, and ``seq`` is push order, so one FIFO list per cycle,
drained front to back while handlers append to it, pops events in exactly
the heap's ``(cycle, seq)`` order. No tie rule is re-derived. It costs
five events per coalesced access. It serves every launch the other two
paths hand off, one launch at a time.

**Recurrence replay: multi-warp launches.** Other warps' traffic is in
flight at every barrier of a multi-warp launch, which replays one
launch at a time. Only warp events and wakes go on a calendar, in the
engine's order; each partition's forward port and FR-FCFS controller and
each SM's reply port run as a recurrence over its inputs in an explicit
order: injects by (cycle, issuing warp event, access), completions by
(cycle, decision order), where a decision's order is carried as runs of
tCCD-spaced decisions and what began each. The recurrences run ahead of
the calendar in batches, as far as warp events still to come cannot
change them; the forward and reply ports take array closed forms over
each batch. Both replays take a launch as :meth:`BatchedTimingCore._plan`
lays it out. See :meth:`BatchedTimingCore._replay_recurrences`.
Where its keys cannot settle an order (parents on one cycle at every
level compared, a zero issue or crossbar latency, a partition's traffic
reaching the controller queue's capacity, a value past its 32-bit
per-access arrays) the launch goes to the calendar, and
:attr:`BatchedTimingCore.handoffs` counts it by reason.

**Wavefront replay: a closed-form accelerator for single warps, run for
all samples at once.** Within one warp, loads stay in flight and only
:class:`~repro.gpu.warp.ComputeInstruction` waits on ``outstanding == 0``,
so the issue stream between two compute barriers is memory-independent:
the issue/coalesce/inject timestamps of every access in that *wavefront*
are pure scheduler arithmetic. When the barrier resolves, every load of
the wavefront has replied, so a wavefront normally meets an idle memory
system (bank row state, bus recurrences and crossbar ports carry over as
plain integers). Launches of one shape share the wavefront boundaries,
and single-warp launches share no state, so each wavefront is replayed
once for every launch of the batch: issue arithmetic over ``(samples,)``
vectors, then the forward-crossbar recurrence, the all-row-hit closed
forms and the DRAM statistics over ``(sample, partition)`` segments of
one flat access array, with bank, bus and port state held as
``(samples, partitions, banks)`` arrays. Segments whose accesses all hit
open rows serve them in FIFO order in closed form. A segment with a row
miss runs the per-access FR-FCFS loop only until its last miss is served;
every access left then hits, so the same closed forms, started from the
command slot and bus the loop left, serve the tails of all such segments
of a flush at once. The reply port needs only the *multiset* of a
launch's completion cycles, which same-cycle completions cannot change.

**Wavefront hand-offs.** The wavefront path decides every event order
from cycles alone. An event pushed by a parent that ran on an earlier cycle runs
first, so an arrival on the cycle a controller's command slot frees is
queued before the slot's decision when its parent (the inject) ran before
the slot's parent (the last decision), and after it when it ran later.
A warp whose last reply lands on the cycle its barrier is reached
resumes on that cycle either way. Where cycles cannot settle an order,
the launch leaves the batch, alone, and is replayed from scratch on the
calendar; :attr:`BatchedTimingCore.handoffs` counts the launches handed
off per reason, as it counts the recurrence replay's:

* an arrival and a pending command-slot event on one cycle whose parents
  also ran on one cycle;
* one wavefront's loads in two round windows (the merged reply order
  then decides each window's end);
* a partition still busy with an earlier wavefront's traffic (a store,
  or a command slot that frees late) when this wavefront arrives;
* ``icnt_requests_per_cycle`` above one, decided before anything is
  simulated;
* 65,536 or more accesses for one partition in one wavefront, the
  controller queue's capacity.

Coverage contract: with telemetry disabled, the core handles every launch
the event engine simulates on the stock or the permuted address map: any
warp count, partial warps, stores, ``RoundAwareSidMap`` selective maps,
and warps sharing an SM. It raises :class:`UnsupportedLaunch`, and the
caller replays the launch (or every launch of the batch) on the event
engine, for:

* instrumented runs (the simulator never builds the core for them);
* any other address map class, whose decode only the engine can call,
  and an access size that is not a power of two, which the engine's
  coalescing unit rejects;
* a multi-warp launch, or one on the calendar replay, with a
  negative-cycle compute instruction, whose warp event the engine would
  push into the past;
* a negative address: its DRAM row can be -1, the core's closed-row
  sentinel;
* a launch the engine rejects (duplicate warp ids, a sid map of the wrong
  length or a missing one, SM occupancy overflow, lane counts that do not
  match the warp size): the engine then raises its own error.

A ``ProtocolError`` the engine would raise mid-launch (a full pending
request table, an instruction with no active lane, a full controller
queue) the core raises with the engine's message.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from functools import cmp_to_key
from heapq import heappop, heappush
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.aes.key_schedule import NUM_ROUNDS
from repro.errors import ProtocolError
from repro.gpu.address import AddressMap, PermutedAddressMap
from repro.gpu.config import GPUConfig
from repro.gpu.dram import DramStats
from repro.gpu.engine import RoundAwareSidMap
from repro.gpu.request import AccessKind
from repro.gpu.stats import KernelResult, RoundWindow
from repro.gpu.warp import ComputeInstruction, SampleBatch, WarpProgram

__all__ = ["BatchedTimingCore", "UnsupportedLaunch"]


class UnsupportedLaunch(Exception):
    """This launch needs machinery only the event engine has.

    Internal control flow: :meth:`GPUSimulator.run` and
    :meth:`GPUSimulator.run_samples` catch it and re-run the launch, or
    every launch of the batch, on the event engine. The core mutates no
    engine-visible state, so the retry starts from scratch.
    """


class _HandOff(Exception):
    """The recurrence replay met an event order its keys do not settle;
    ``args[0]`` names the reason. The launch is replayed whole on the
    calendar."""


#: The engine builds its CoalescingUnit/MemoryController with defaults.
_PRT_CAPACITY = 64
_FRFCFS_WINDOW = 64
_QUEUE_CAPACITY = 65536

#: Sort key of an inactive lane: after every packed key.
_NO_LANE = np.iinfo(np.int64).max

#: Sentinel for a wavefront with no load yet (identity-compared).
_UNSET = object()


class _Plan(NamedTuple):
    """A multi-warp launch as both of its replays take it (see
    :meth:`BatchedTimingCore._plan`)."""

    warp_ids: List[int]
    w_sm: List[int]
    w_sched: List[int]
    w_ops: List[list]
    win_keys: list
    served: np.ndarray
    written: np.ndarray
    pb: np.ndarray
    row: np.ndarray
    a_win: np.ndarray
    a_w: np.ndarray


def _segmented_cummax(values: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """Running maximum of ``values`` restarting at every segment.

    ``segment`` numbers the segments of ``values`` in ascending runs.
    Shifting segment ``g`` up by ``g`` times the value range puts every
    value of a later segment above every value of an earlier one, so one
    running maximum over the whole array never carries across a segment
    boundary.
    """
    if not len(values):
        return values
    span = int(values.max()) - int(values.min()) + 1
    shift = segment * span
    return np.maximum.accumulate(values + shift) - shift


class BatchedTimingCore:
    """Exact-cycle replay of kernel launches: the wavefront path for
    single warps whose event order cycles settle, the recurrence replay
    for multi-warp launches, the calendar replay for every launch either
    hands off (see the module docstring for the coverage contract)."""

    def __init__(self, config: GPUConfig, address_map: AddressMap):
        am_type = type(address_map)
        if am_type is AddressMap:
            self._part_perm = None
            self._bank_perm = None
        elif am_type is PermutedAddressMap:
            self._part_perm = np.array(address_map._partition_perm,
                                       dtype=np.int64)
            self._bank_perm = np.array(address_map._bank_perm,
                                       dtype=np.int64)
        else:
            # Unknown decode semantics: only the event engine (which calls
            # the map's own methods) can honour them.
            raise UnsupportedLaunch(f"address map {am_type.__name__}")
        access = config.access_bytes
        if access & (access - 1):
            raise UnsupportedLaunch("access size not a power of two")
        self.config = config
        timing = config.dram_timing_core
        self._t_cl = timing.t_cl
        self._t_rp = timing.t_rp
        self._t_rc = timing.t_rc
        self._t_ras = timing.t_ras
        self._t_ccd = timing.t_ccd
        self._t_rcd = timing.t_rcd
        self._t_burst = timing.t_burst
        self._reply_flits = 1 + -(-access // config.icnt_flit_bytes)
        self._block_mask = ~(access - 1)
        self._block_shift = access.bit_length() - 1
        self._chunk = config.partition_chunk_bytes
        self._rows_chunks = config.row_bytes // self._chunk
        #: Launches the wavefront path or the recurrence replay handed to
        #: the calendar replay, by reason.
        self.handoffs: Counter = Counter()

    @classmethod
    def try_create(cls, config: GPUConfig,
                   address_map: AddressMap) -> Optional["BatchedTimingCore"]:
        try:
            return cls(config, address_map)
        except UnsupportedLaunch:
            return None

    def _sid_source(self, warp_id, sid_maps):
        """The warp's lane->sid source (a tuple, or a per-round lookup) and
        whether it varies by round. Raises :class:`UnsupportedLaunch`
        where the event engine rejects the warp, so the engine raises its
        own error."""
        config = self.config
        raw_map = sid_maps.get(warp_id)
        if raw_map is None:
            raise UnsupportedLaunch("missing sid map")
        if len(raw_map) != config.warp_size:
            raise UnsupportedLaunch("sid map lane count")
        if warp_id // config.num_sms >= config.max_warps_per_sm:
            raise UnsupportedLaunch("SM occupancy")
        if isinstance(raw_map, RoundAwareSidMap):
            return raw_map.for_round, True
        return tuple(raw_map), False

    # -- the one coalescer ---------------------------------------------------

    def _coalesce(self, addr: np.ndarray, sid: np.ndarray,
                  active: Optional[np.ndarray] = None):
        """Coalesce rows of lanes at once.

        ``addr`` holds int64 lane addresses, one row of ``lanes`` per
        memory instruction (any leading shape); ``sid`` the lanes' subwarp
        ids, broadcast against it; ``active``, when given, a ``(rows,
        lanes)`` mask of the lanes that issue. Returns each row's access
        count and the partition, bank and row of every access: rows in
        order, and each row's accesses in the engine's generation order.

        The first sort orders each row's lanes by packed ``(block, sid,
        lane)`` keys, so the first lane of every run of equal ``(block,
        sid)`` is that access's first touch; the second orders the first
        touches by ``(sid, lane)``.
        """
        lanes = addr.shape[-1]
        if addr.size and int(addr.min()) < 0:
            # Row -1 would read as the closed-row sentinel.
            raise UnsupportedLaunch("negative address")
        if sid.size and (int(sid.min()) < 0 or int(sid.max()) >> 16):
            # Rank the sids (order-preserving) so that they pack.
            sid = np.unique(sid, return_inverse=True)[1].reshape(sid.shape)
        lane_bits = max(1, (lanes - 1).bit_length())
        sid_bits = max(1, int(sid.max()).bit_length()) if sid.size else 1
        key = addr >> self._block_shift
        if key.size and (int(key.max()).bit_length() + sid_bits
                         + lane_bits > 62):
            key = np.unique(key, return_inverse=True)[1].reshape(key.shape)
        key <<= sid_bits
        key |= sid
        addr = addr.reshape(-1, lanes)
        rows = len(addr)
        key = key.reshape(rows, lanes)
        key <<= lane_bits
        lane = np.arange(lanes, dtype=np.int64)
        key |= lane
        if active is not None:
            key[~active] = _NO_LANE
        key.sort(axis=1)
        pair = key >> lane_bits
        first = np.ones(key.shape, dtype=bool)
        np.not_equal(pair[:, 1:], pair[:, :-1], out=first[:, 1:])
        if active is not None:
            first &= key != _NO_LANE
        counts = first.sum(axis=1)
        # Each first touch as (sid, lane), in generation order.
        pair &= (1 << sid_bits) - 1
        pair <<= lane_bits
        key &= (1 << lane_bits) - 1
        pair |= key
        del key
        pair[~first] = _NO_LANE
        pair.sort(axis=1)
        taken = pair[lane < counts[:, None]]
        del pair
        taken &= (1 << lane_bits) - 1
        taken += np.repeat(np.arange(0, rows * lanes, lanes), counts)
        row = addr.ravel()[taken]
        del taken

        # DRAM coordinates, vectorized and in place (the same floor-div/mod
        # arithmetic as AddressMap._decode_uncached on the block address).
        cfg = self.config
        row &= self._block_mask
        row //= self._chunk
        part = row % cfg.num_partitions
        row //= cfg.num_partitions
        bank = row % cfg.num_banks
        row //= cfg.num_banks * self._rows_chunks
        if self._part_perm is not None:
            part = self._part_perm[part]
            bank = self._bank_perm[bank]
        return counts, part, bank, row

    @staticmethod
    def _warp(warp_id, instructions, counts, logged, part, bank, row,
              starts, first_row, memory):
        """One warp's coalesced rows ``[first_row, first_row + memory)``,
        in the form the calendar replay takes."""
        end_row = first_row + memory
        lo, hi = starts[first_row], starts[end_row]
        return (warp_id, instructions, counts[first_row:end_row].tolist(),
                (starts[first_row:end_row + 1] - lo).tolist(),
                logged[first_row:end_row].tolist(),
                part[lo:hi], bank[lo:hi], row[lo:hi])

    def _plan(self, warps) -> _Plan:
        """What both multi-warp replays fix about ``warps`` (one
        :meth:`_warp` entry per warp) before anything runs.

        Per warp: its id, SM, scheduler and one op per instruction,
        ``(True, window, cycles)`` for compute and ``(False, window,
        kind, is_write, accesses, first access, logged lanes, round,
        memory instruction)`` for memory, with accesses and memory
        instructions numbered across the launch. Round windows get static
        indices (``win_keys``; 0 takes the replies of loads outside any
        round), and a replay reports them in the order it creates them.
        Per partition: the accesses it serves and the stores among them.
        Per access, in warp order: its flat bank (``partition *
        num_banks + bank``, which names the partition too), row, round
        window and warp, the last two -1 for a store, which sends no
        reply.
        """
        config = self.config
        num_sms = config.num_sms
        nsched = config.warp_schedulers_per_sm
        P = config.num_partitions
        B = config.num_banks
        warp_ids: List[int] = []
        w_sm: List[int] = []
        w_sched: List[int] = []
        w_ops: List[list] = []
        win_keys: list = [None]
        served = np.zeros(P, dtype=np.int64)
        written = np.zeros(P, dtype=np.int64)
        pbs = [np.zeros(0, dtype=np.int32)]
        rows = [np.zeros(0, dtype=np.int64)]
        a_win = [np.zeros(0, dtype=np.int32)]
        a_w = [np.zeros(0, dtype=np.int32)]
        first = 0
        gi = 0
        for wi, (warp_id, instructions, counts, starts, logged, part, bank,
                 row) in enumerate(warps):
            wins: Dict[object, int] = {}
            ops = []
            ins_win = []
            m = 0
            for ins in instructions:
                rix = ins.round_index
                is_compute = isinstance(ins, ComputeInstruction)
                win = 0
                if is_compute or rix is not None:
                    win = wins.get(rix)
                    if win is None:
                        win = wins[rix] = len(win_keys)
                        win_keys.append((warp_id, rix))
                if is_compute:
                    if ins.cycles < 0:
                        # Its warp event would land before the current
                        # cycle, where a FIFO per cycle no longer follows
                        # the heap.
                        raise UnsupportedLaunch("negative compute cycles")
                    ops.append((True, win, ins.cycles))
                    continue
                ops.append((False, win, ins.kind, ins.is_write, counts[m],
                            first + starts[m], logged[m], rix, gi))
                ins_win.append(-1 if ins.is_write else win)
                gi += 1
                m += 1
            if counts:
                is_write = np.array([op[3] for op in ops if not op[0]])
                served += np.bincount(part, minlength=P)
                written += np.bincount(part[np.repeat(is_write, counts)],
                                       minlength=P)
                pbs.append((part * B + bank).astype(np.int32))
                rows.append(row)
                access_win = np.repeat(np.array(ins_win, dtype=np.int32),
                                       counts)
                a_win.append(access_win)
                a_w.append(np.where(access_win >= 0, wi, -1)
                           .astype(np.int32))
                first += len(part)
            warp_ids.append(warp_id)
            sm = warp_id % num_sms
            w_sm.append(sm)
            w_sched.append(sm * nsched + (warp_id // num_sms) % nsched)
            w_ops.append(ops)
        return _Plan(warp_ids, w_sm, w_sched, w_ops, win_keys, served,
                     written, np.concatenate(pbs), np.concatenate(rows),
                     np.concatenate(a_win), np.concatenate(a_w))

    def _finish(self, result, plan, win_order, win_start, win_end,
                bus_free, misses, qwait) -> KernelResult:
        """Complete a multi-warp replay's ``result``: its round windows,
        in ``win_order``, the order the replay created them; its total
        and drain cycles; each partition's DRAM statistics."""
        warp_ids = plan.warp_ids
        warp_finish = result.warp_finish
        if len(warp_finish) < len(warp_ids):
            raise ProtocolError("warps never finished: "
                                f"{[w for w in warp_ids if w not in warp_finish]}")
        windows = result.round_windows
        for win in win_order:
            end = win_end[win]
            windows[plan.win_keys[win]] = RoundWindow(
                win_start[win], end if end >= 0 else None)
        result.total_cycles = max(warp_finish.values())
        # A partition's bus frees at its last completion.
        result.drain_cycles = max(result.total_cycles, *bus_free)
        t_burst = self._t_burst
        result.dram_stats = [
            DramStats(row_hits=n - miss, row_misses=miss, reads=n - w,
                      writes=w, bus_busy_cycles=n * t_burst,
                      queue_wait_cycles=wait)
            for n, w, miss, wait in zip(plan.served.tolist(),
                                        plan.written.tolist(), misses, qwait)]
        return result

    # -- the entries ---------------------------------------------------------

    def run(self, programs: Sequence[WarpProgram],
            sid_maps: Mapping[int, Sequence[int]]) -> KernelResult:
        """Time one launch of raw warp programs."""
        config = self.config
        W = config.warp_size
        seen = set()
        warps = []
        addr_rows: List[Sequence[int]] = []
        sid_rows: List[Sequence[int]] = []
        masks = []
        for program in programs:
            warp_id = program.warp_id
            if warp_id in seen:
                raise UnsupportedLaunch("duplicate warp id")
            seen.add(warp_id)
            sid_source, round_aware = self._sid_source(warp_id, sid_maps)
            memory = 0
            for ins in program.instructions:
                if isinstance(ins, ComputeInstruction):
                    continue
                if len(ins.addresses) != W:
                    raise UnsupportedLaunch("lane count mismatch")
                mask = ins.active_mask
                if mask is not None and len(mask) != W:
                    raise UnsupportedLaunch("active mask length mismatch")
                masks.append(mask)
                addr_rows.append(ins.addresses)
                sid_rows.append(sid_source(ins.round_index) if round_aware
                                else sid_source)
                memory += 1
            warps.append((warp_id, program.instructions, memory))
        active = None
        if any(mask is not None for mask in masks):
            active = np.array([(True,) * W if mask is None else mask
                               for mask in masks], dtype=bool)
        counts, part, bank, row = self._coalesce(
            np.array(addr_rows, dtype=np.int64).reshape(-1, W),
            np.array(sid_rows, dtype=np.int64).reshape(-1, W), active)
        logged = (active.sum(axis=1) if active is not None
                  else np.full(len(counts), W))
        return self._replay(warps, 1, counts, logged, part, bank, row)[0]

    def run_samples(self, batch: SampleBatch) -> List[KernelResult]:
        """Time every launch of a :class:`SampleBatch`: one coalesce for
        all of them, one wavefront replay for all single-warp launches,
        the calendar replay for the rest. One result per launch, in
        order."""
        config = self.config
        W = config.warp_size
        samples, num_warps, memory, lanes = batch.addresses.shape
        if lanes != W:
            raise UnsupportedLaunch("lane count mismatch")
        if (num_warps - 1) // config.num_sms >= config.max_warps_per_sm:
            raise UnsupportedLaunch("SM occupancy")
        if batch.sids.shape[-1] != W:
            raise UnsupportedLaunch("sid map lane count")
        instructions = batch.instructions
        counts, part, bank, row = self._coalesce(batch.addresses, batch.sids)
        threads = np.minimum(W, batch.num_threads
                             - W * np.arange(num_warps))
        logged = np.tile(np.repeat(threads, memory), samples)
        return self._replay([(w, instructions, memory)
                             for w in range(num_warps)],
                            samples, counts, logged, part, bank, row)

    def _replay(self, warps, samples, counts, logged, part, bank, row
                ) -> List[KernelResult]:
        """Time ``samples`` coalesced launches of the same warps.

        ``warps`` lists each warp's id, instructions and number of memory
        instructions; the coalesced rows are ordered by launch, warp and
        instruction. A single warp takes the wavefront path, every launch
        at once; multi-warp launches take the recurrence replay one at a
        time, and the launches either hands off the calendar replay.
        """
        starts = np.concatenate(([0], np.cumsum(counts)))
        if len(warps) == 1:
            warp_id, instructions, memory = warps[0]
            results = self._replay_wavefronts(
                warp_id, instructions, counts.reshape(samples, memory),
                logged[:memory], part, bank, row, starts)
        else:
            results = [None] * samples
        rows_per_launch = sum(memory for _, _, memory in warps)
        for s, result in enumerate(results):
            if result is None:
                first_row = s * rows_per_launch
                launch = []
                for warp_id, instructions, memory in warps:
                    launch.append(self._warp(
                        warp_id, instructions, counts, logged, part, bank,
                        row, starts, first_row, memory))
                    first_row += memory
                if len(warps) > 1:
                    try:
                        results[s] = self._replay_recurrences(launch)
                        continue
                    except _HandOff as handoff:
                        self.handoffs[handoff.args[0]] += 1
                results[s] = self._replay_calendar(launch)
        return results

    # -- single-warp launches: the sample-axis wavefront replay --------------

    def _replay_wavefronts(self, warp_id, instructions, counts, logged,
                           part, bank, row, starts
                           ) -> List[Optional[KernelResult]]:
        """Time ``len(counts)`` single-warp launches of one shape at once.

        ``counts`` is ``(samples, memory instructions)`` and ``logged``
        the active lanes of each memory instruction. ``part``, ``bank``
        and ``row`` hold every access, launch by launch and instruction
        by instruction in generation order; ``starts`` holds the flat
        offset of each (launch, instruction)'s first access. Returns one
        result per launch, None for a launch handed off to the calendar
        replay (its reason counted in :attr:`handoffs`).
        """
        config = self.config
        S, M = counts.shape
        results: List[Optional[KernelResult]] = [None] * S
        handoffs = self.handoffs
        if config.icnt_requests_per_cycle != 1:
            handoffs["forward-crossbar rate above one"] += S
            return results
        alive = np.ones(S, dtype=bool)

        issue_cycles = config.issue_cycles
        per_access = config.coalescer_cycles_per_access
        icnt_lat = config.icnt_latency
        flits = self._reply_flits
        t_cl, t_rp, t_rc = self._t_cl, self._t_rp, self._t_rc
        t_ras, t_ccd, t_rcd = self._t_ras, self._t_ccd, self._t_rcd
        t_burst = self._t_burst
        P = config.num_partitions
        B = config.num_banks

        memory = [ins for ins in instructions
                  if not isinstance(ins, ComputeInstruction)]
        is_write = np.array([ins.is_write for ins in memory], dtype=bool)
        row_counts = counts.ravel()
        #: Per (launch, instruction): the inject cycle of its first access.
        ibase = np.zeros(S * M, dtype=np.int64)

        # Launch-local machine state, one row per (launch, partition) and
        # per (launch, partition, bank); -1 is a closed row (rows are >= 0).
        fwd_free = np.zeros(S * P, dtype=np.int64)
        part_idle = np.zeros(S * P, dtype=np.int64)
        bus_free = np.zeros(S * P, dtype=np.int64)
        open_row = np.full(S * P * B, -1, dtype=np.int64)
        next_cas = np.zeros(S * P * B, dtype=np.int64)
        next_act = np.zeros(S * P * B, dtype=np.int64)
        next_pre = np.zeros(S * P * B, dtype=np.int64)
        served = np.zeros(S * P, dtype=np.int64)
        row_hits = np.zeros(S * P, dtype=np.int64)
        written = np.zeros(S * P, dtype=np.int64)
        waited = np.zeros(S * P, dtype=np.int64)
        reply_free = np.zeros(S, dtype=np.int64)
        key_type = np.int16 if S * P < 1 << 15 else np.int64

        def hand_off(samples, reason):
            for s in samples:
                if alive[s]:
                    alive[s] = False
                    handoffs[reason] += 1

        def serve_hits(arrive, segment, k, slot, bus):
            """Command and completion cycles of row hits served oldest
            first, segment by segment. Access ``k`` of a segment (counting
            from 0) issues at cas_k = max(arr_k, cas_{k-1} + tCCD) and
            completes at comp_k = max(cas_k + tCL, comp_{k-1}) + tBURST,
            where ``slot`` (cas_{-1} + tCCD) and ``bus`` (comp_{-1}) are
            its segment's starting state. The two running maxima unroll to
              cas_k  = k·tCCD + max(slot, max_{j<=k}(arr_j - j·tCCD))
              comp_k = k·tBURST + tBURST
                       + max(bus, max_{j<=k}(cas_j + tCL - j·tBURST)).
            """
            kc = k * t_ccd
            cas = kc + np.maximum(_segmented_cummax(arrive - kc, segment),
                                  slot)
            kb = k * t_burst
            return cas, kb + t_burst + np.maximum(
                _segmented_cummax(cas + t_cl - kb, segment), bus)

        def serve_row_misses(visit, over, busy, seg0, seg_n, key, arrive,
                             inject, acc_row, flat_bank, comp, hits, qwait):
            """Serve a flush's segments with a row miss exactly, in
            (launch, partition) order, over their share of the all-hit
            closed form (``comp``, ``hits``, ``qwait``) and the machine
            state. ``visit`` lists those segments and the ``over`` and
            ``busy`` ones, whose launches are handed off, as are the
            launches of a segment whose event order cycles cannot settle.

            The FR-FCFS loop runs per segment only until its last miss is
            served. Every access left then hits an open row, so FR-FCFS
            serves them oldest first, each at the later of its arrival and
            the last slot; per-bank CAS state no longer binds and same-cycle
            ties cannot reorder anything. The all-hit recurrences, started
            from the slot and bus each loop left, serve every segment's
            remaining hits at once.
            """
            replayed = ~(over[visit] | busy[visit])
            seg = visit[replayed]
            nm = len(seg)
            # Every row-miss access, segment by segment: its flat index and
            # its segment's ordinal.
            m_n = seg_n[seg]
            m_end = np.cumsum(m_n)
            m_start = m_end - m_n
            mid = np.repeat(np.arange(nm), m_n)
            macc = (np.arange(int(m_end[-1]) if nm else 0)
                    + np.repeat(seg0[seg] - m_start, m_n))
            m_arr = arrive[macc]
            m_row = acc_row[macc]
            m_bank = flat_bank[macc]
            # The banks they touch, each once: the loops keep these banks'
            # state in lists, and every access holds its bank's entry.
            order = np.argsort(m_bank)
            bank_o = m_bank[order]
            row_o = m_row[order]
            mid_o = mid[order]
            same_bank = bank_o[1:] == bank_o[:-1]
            first = np.ones(len(bank_o), dtype=bool)
            first[1:] = ~same_bank
            banks = bank_o[first]
            bank_seg = mid_o[first]
            entry = np.empty(len(macc), dtype=np.int64)
            entry[order] = np.cumsum(first) - 1
            brow_a = open_row[banks]
            # When every bank sees one row in a segment, its misses are the
            # first services of the banks whose row is not open yet, and
            # after the last of them every access left hits. A bank seeing
            # two rows leaves the count at -1: the loop serves it all.
            misses = np.bincount(bank_seg[row_o[first] != brow_a],
                                 minlength=nm)
            misses[mid_o[1:][same_bank & (row_o[1:] != row_o[:-1])]] = -1

            arr_l = m_arr.tolist()
            inj_l = inject[macc].tolist()
            bank_l = entry.tolist()
            row_l = m_row.tolist()
            brow = brow_a.tolist()
            bcas = next_cas[banks].tolist()
            bact = next_act[banks].tolist()
            bpre = next_pre[banks].tolist()
            bus_l = bus_free[key[seg]].tolist()
            misses_l = misses.tolist()
            start_l = m_start.tolist()
            end_l = m_end.tolist()
            #: The accesses the loops served, and their completions.
            served_l: List[int] = []
            served_append = served_l.append
            comp_l: List[int] = []
            comp_append = comp_l.append
            slot_l = [0] * nm
            hit_l = [0] * nm
            wait_l = [0] * nm
            finished: List[int] = []

            j = -1
            for s, replay, is_over in zip((key[visit] // P).tolist(),
                                          replayed.tolist(),
                                          over[visit].tolist()):
                if replay:
                    j += 1
                if not alive[s]:
                    continue
                if not replay:
                    hand_off((s,), "controller queue capacity" if is_over
                             else "earlier wavefront still in a partition")
                    continue
                # FR-FCFS replay: the exact event alternation of arrivals
                # and command-slot (dslot) events, minus the heap.
                i = start_l[j]
                end = end_l[j]
                misses_left = misses_l[j]
                busf = bus_l[j]
                hit_n = wait = 0
                queue: List[int] = []
                queue_append = queue.append
                pending = tie = False
                d = last_s = 0
                while misses_left:
                    if not pending:
                        if i >= end:
                            break
                        queue_append(i)
                        s_ = arr_l[i]
                        i += 1
                    else:
                        while i < end:
                            arr_i = arr_l[i]
                            if arr_i >= d:
                                if arr_i > d:
                                    break
                                # The arrival lands on the pending dslot's
                                # cycle. The event whose parent ran first
                                # was pushed first: the last decision's
                                # cycle against the arrival's inject cycle.
                                ic = inj_l[i]
                                if last_s < ic:
                                    break
                                if last_s == ic:
                                    tie = True
                                    break
                            queue_append(i)
                            i += 1
                        if tie:
                            break
                        pending = False
                        if not queue:
                            continue
                        s_ = d
                    # FR-FCFS select: oldest row hit in the window, else
                    # oldest.
                    kq = queue[0]
                    bk = bank_l[kq]
                    rw = row_l[kq]
                    if brow[bk] == rw:
                        del queue[0]
                    else:
                        qn = len(queue)
                        for qi in range(1, qn if qn < _FRFCFS_WINDOW
                                        else _FRFCFS_WINDOW):
                            kq = queue[qi]
                            bk = bank_l[kq]
                            rw = row_l[kq]
                            if brow[bk] == rw:
                                del queue[qi]
                                break
                        else:
                            kq = queue.pop(0)
                            bk = bank_l[kq]
                            rw = row_l[kq]
                    if brow[bk] == rw:
                        hit_n += 1
                        c = bcas[bk]
                        if s_ > c:
                            c = s_
                    else:
                        pre = bcas[bk]
                        x = bpre[bk]
                        if x > pre:
                            pre = x
                        if s_ > pre:
                            pre = s_
                        act = pre + t_rp
                        x = bact[bk]
                        if x > act:
                            act = x
                        bact[bk] = act + t_rc
                        bpre[bk] = act + t_ras
                        brow[bk] = rw
                        c = act + t_rcd
                        misses_left -= 1
                    d = c + t_ccd
                    bcas[bk] = d
                    drdy = c + t_cl
                    if busf > drdy:
                        drdy = busf
                    busf = drdy + t_burst
                    served_append(kq)
                    comp_append(busf)
                    w = drdy - arr_l[kq]
                    if w > 0:
                        wait += w
                    pending = True
                    last_s = s_
                if tie:
                    hand_off((s,), "same-cycle tie at a controller")
                    continue
                finished.append(j)
                slot_l[j] = d
                bus_l[j] = busf
                hit_l[j] = hit_n
                wait_l[j] = wait
            if not finished:
                return

            # The tails: each finished segment's accesses its loop left, in
            # order, all row hits, served from the slot and bus the loop
            # left. Their slots strictly increase, so each bank's CAS state
            # ends at its last slot.
            fin = np.array(finished)
            done = np.zeros(nm, dtype=bool)
            done[fin] = True
            left = done[mid]
            head = np.array(served_l, dtype=np.int64)
            head_comp = np.array(comp_l, dtype=np.int64)
            ours = done[mid[head]]
            head = head[ours]
            comp[macc[head]] = head_comp[ours]
            left[head] = False
            tail = np.flatnonzero(left)
            tail_n = np.bincount(mid[tail], minlength=nm)
            slot_end = np.array(slot_l)
            bus_end = np.array(bus_l)
            wait_end = np.array(wait_l)
            if len(tail):
                tg = mid[tail]
                t0 = np.flatnonzero(np.concatenate(
                    ([True], tg[1:] != tg[:-1])))
                t1 = np.append(t0[1:], len(tail)) - 1
                k = np.arange(len(tail)) - np.repeat(t0, t1 - t0 + 1)
                t_arr = m_arr[tail]
                cas, t_comp = serve_hits(t_arr, tg, k, slot_end[tg],
                                         bus_end[tg])
                t_slot = cas + t_ccd
                comp[macc[tail]] = t_comp
                last = tg[t1]
                wait_end[last] += (np.add.reduceat(t_comp - t_arr, t0)
                                   - tail_n[last] * t_burst)
                slot_end[last] = t_slot[t1]
                bus_end[last] = t_comp[t1]

            g = seg[fin]
            sp = key[g]
            hits[g] = np.array(hit_l)[fin] + tail_n[fin]
            qwait[g] = wait_end[fin]
            bus_free[sp] = bus_end[fin]
            part_idle[sp] = slot_end[fin]
            kept = done[bank_seg]
            for array, values in ((open_row, brow), (next_cas, bcas),
                                  (next_act, bact), (next_pre, bpre)):
                array[banks[kept]] = np.array(values, dtype=np.int64)[kept]
            if len(tail):
                np.maximum.at(next_cas, m_bank[tail], t_slot)

        def flush(m0, m1, ready, win_end, writes):
            """Replay the accesses of instructions ``[m0, m1)`` of every
            live launch through the memory system; returns each launch's
            resume cycle after the barrier."""
            rows = (np.flatnonzero(alive)[:, None] * M
                    + np.arange(m0, m1)).ravel()
            per_row = row_counts[rows]
            n = int(per_row.sum())
            if not n:
                return ready
            # Per access: its (launch, instruction) row, its position in
            # the row and its index in the flat access arrays.
            access_row = np.repeat(rows, per_row)
            pos = np.arange(n) - np.repeat(np.cumsum(per_row) - per_row,
                                           per_row)
            idx = starts[access_row] + pos
            inject = ibase[access_row] + pos * per_access
            # (launch, partition) segments, generation order kept within
            # (a stable sort, a radix sort on keys this narrow).
            seg_key = (access_row // M * P + part[idx]).astype(key_type)
            order = np.argsort(seg_key, kind="stable")
            idx = idx[order]
            inject = inject[order]
            seg_key = seg_key[order]
            if writes:
                store = is_write[access_row[order] % M]
            edge = np.flatnonzero(seg_key[1:] != seg_key[:-1]) + 1
            seg0 = np.concatenate(([0], edge))
            seg1 = np.concatenate((edge, [n]))
            seg_n = seg1 - seg0
            last = seg1 - 1
            key = seg_key[seg0].astype(np.int64)
            gid = np.repeat(np.arange(len(seg0)), seg_n)
            k = np.arange(n) - seg0[gid]

            # Forward crossbar: per-partition ingress port recurrence.
            # accept_k = max(inject_k, accept_{k-1} + 1) unrolls to
            # k + max(next_free, max_{j<=k}(inject_j - j)).
            accept = k + np.maximum(_segmented_cummax(inject - k, gid),
                                    fwd_free[key][gid])
            fwd_free[key] = accept[last] + 1
            arrive = accept + icnt_lat
            # An earlier wavefront's store, or a command slot freeing late,
            # still holds the controller when this wavefront arrives:
            # FR-FCFS would interleave the two.
            busy = arrive[seg0] < part_idle[key]
            over = seg_n >= _QUEUE_CAPACITY
            acc_bank = bank[idx]
            acc_row = row[idx]
            flat_bank = key[gid] * B + acc_bank
            all_hit = np.logical_and.reduceat(open_row[flat_bank] == acc_row,
                                              seg0)

            # All-row-hit closed form, computed for every segment; a
            # segment with a miss overwrites its share below. Every select
            # is a head hit, so FR-FCFS degenerates to FIFO and absorb-order
            # ties cannot change service order or timing. Slots strictly
            # increase, so per-bank CAS state never binds (the global tCCD
            # chain dominates, and the cross-wavefront case is covered by
            # the busy check above). No slot is pending, and arrivals are
            # never negative, so a starting slot of 0 never binds.
            cas, comp = serve_hits(arrive, gid, k, 0, bus_free[key][gid])
            slot = cas + t_ccd
            hits = np.where(all_hit, seg_n, 0)
            qwait = np.add.reduceat(comp - arrive, seg0) - seg_n * t_burst
            done = key[all_hit]
            bus_free[done] = comp[last[all_hit]]
            part_idle[done] = slot[last[all_hit]]
            hit_access = all_hit[gid]
            np.maximum.at(next_cas, flat_bank[hit_access], slot[hit_access])

            visit = np.flatnonzero(~all_hit | over | busy)
            if len(visit):
                serve_row_misses(visit, over, busy, seg0, seg_n, key, arrive,
                                 inject, acc_row, flat_bank, comp, hits,
                                 qwait)

            served[key] += seg_n
            row_hits[key] += hits
            waited[key] += qwait
            completions = comp
            owner = key[gid] // P
            if writes:
                written[key] += np.add.reduceat(store, seg0, dtype=np.int64)
                completions = comp[~store]
                owner = owner[~store]
            if not len(completions):
                return ready
            # Reply crossbar: each launch's SM ejection port. The reply
            # cycle multiset is invariant under permutation of same-cycle
            # completions, so the merged reply order is never materialized:
            # each launch's completions are sorted, and
            # accept_j = max(comp_j, accept_{j-1} + flits) unrolls to
            # flits*j + max(next_free, max_{k<=j}(comp_k - flits*k)).
            span = int(completions.max()) + 1
            ordered = np.sort(owner * span + completions)
            owner = ordered // span
            completions = ordered - owner * span
            edge = np.flatnonzero(owner[1:] != owner[:-1]) + 1
            run0 = np.concatenate(([0], edge))
            run_n = np.diff(np.concatenate((run0, [len(ordered)])))
            who = owner[run0]
            j = np.arange(len(ordered)) - np.repeat(run0, run_n)
            peak = np.maximum.reduceat(completions - flits * j, run0)
            accept_last = flits * (run_n - 1) + np.maximum(peak,
                                                           reply_free[who])
            reply_free[who] = accept_last + flits
            last_reply = accept_last + icnt_lat + flits - 1
            if win_end is not None:
                win_end[who] = np.maximum(win_end[who], last_reply)
            ready = ready.copy()
            # The warp resumes at the later of its pending warp event and
            # its last reply; on one cycle, there whichever event runs
            # first.
            ready[who] = np.maximum(ready[who], last_reply)
            return ready

        # -- issue, every launch in step --------------------------------------
        sched_free = np.zeros(S, dtype=np.int64)
        ldst_free = np.zeros(S, dtype=np.int64)
        ready = np.zeros(S, dtype=np.int64)
        win_index: Dict[int, int] = {}
        win_start: List[np.ndarray] = []
        win_end: List[np.ndarray] = []
        prt_full = (logged > _PRT_CAPACITY).tolist()
        empty = counts == 0
        any_empty = empty.any(axis=0).tolist()
        mi = wf_m0 = 0
        wf_loads = wf_writes = False
        wf_win: object = _UNSET
        for ins in instructions:
            if isinstance(ins, ComputeInstruction):
                if wf_loads:
                    ready = flush(wf_m0, mi, ready,
                                  None if wf_win is None else win_end[wf_win],
                                  wf_writes)
                    wf_m0 = mi
                    wf_loads = wf_writes = False
                    wf_win = _UNSET
                issue = np.maximum(ready, sched_free)
                sched_free = issue + issue_cycles
                ready = sched_free + ins.cycles
                win = win_index.get(ins.round_index)
                if win is None:
                    win_index[ins.round_index] = len(win_start)
                    win_start.append(issue)
                    win_end.append(ready.copy())
                else:
                    np.maximum(win_end[win], ready, out=win_end[win])
                continue
            m = mi
            mi += 1
            if prt_full[m]:
                raise ProtocolError("pending request table overflow")
            if any_empty[m] and empty[alive, m].any():
                raise ProtocolError("memory instruction produced no accesses")
            issue = np.maximum(ready, sched_free)
            sched_free = issue + issue_cycles
            rix = ins.round_index
            win = None
            if rix is not None:
                win = win_index.get(rix)
                if win is None:
                    win = win_index[rix] = len(win_start)
                    win_start.append(issue)
                    win_end.append(np.full(S, -1, dtype=np.int64))
            inject = np.maximum(sched_free, ldst_free)
            ibase[m::M] = inject
            ldst_free = inject + counts[:, m] * per_access
            if ins.is_write:
                ready = ldst_free
                wf_writes = True
            else:
                wf_loads = True
                ready = sched_free
                if wf_win is _UNSET:
                    wf_win = win
                elif wf_win != win:
                    hand_off(range(S), "wavefront spans two round windows")
                    return results
        if wf_m0 < M:
            ready = flush(wf_m0, M, ready,
                          None if wf_win is None or wf_win is _UNSET
                          else win_end[wf_win], wf_writes)

        # -- one result per launch still in the batch -------------------------
        by_kind: Dict[AccessKind, List[int]] = {}
        by_round: Dict[int, List[int]] = {}
        for m, ins in enumerate(memory):
            by_kind.setdefault(ins.kind, []).append(m)
            if ins.kind is AccessKind.TABLE_LOAD and ins.round_index is not None:
                by_round.setdefault(ins.round_index, []).append(m)
        kind_totals = {kind: counts[:, ms].sum(axis=1).tolist()
                       for kind, ms in by_kind.items()}
        round_totals = {r: counts[:, ms].sum(axis=1).tolist()
                        for r, ms in by_round.items()}
        last_loads = (counts[:, by_round[NUM_ROUNDS]].tolist()
                      if NUM_ROUNDS in by_round else None)
        windows = [((warp_id, r), win_start[w].tolist(), win_end[w].tolist())
                   for r, w in win_index.items()]
        finish = ready.tolist()
        # A partition's bus frees at its last completion.
        drain = np.maximum(ready, bus_free.reshape(S, P).max(axis=1)).tolist()
        stats = zip(served.reshape(S, P).tolist(),
                    row_hits.reshape(S, P).tolist(),
                    written.reshape(S, P).tolist(),
                    waited.reshape(S, P).tolist())
        for s, (n_s, h_s, w_s, q_s) in enumerate(stats):
            if not alive[s]:
                continue
            result = KernelResult(num_warps=1)
            result.access_counts = {kind: totals[s]
                                    for kind, totals in kind_totals.items()}
            result.round_accesses = {r: totals[s]
                                     for r, totals in round_totals.items()}
            if last_loads is not None:
                result.last_round_loads = {warp_id: last_loads[s]}
            result.round_windows = {
                key: RoundWindow(start[s], end[s] if end[s] >= 0 else None)
                for key, start, end in windows}
            result.dram_stats = [
                DramStats(row_hits=h, row_misses=n - h, reads=n - w,
                          writes=w, bus_busy_cycles=n * t_burst,
                          queue_wait_cycles=q)
                for n, h, w, q in zip(n_s, h_s, w_s, q_s)]
            result.warp_finish = {warp_id: finish[s]}
            result.total_cycles = finish[s]
            result.drain_cycles = drain[s]
            results[s] = result
        return results

    # -- multi-warp launches: warp calendar and memory recurrences ---------

    def _replay_recurrences(self, warps) -> KernelResult:
        """Time one launch with only warp events on a calendar; equals
        :meth:`_replay_calendar` on the same ``warps``.

        The calendar keeps warp events and wakes in the engine's ``(cycle,
        seq)`` order and numbers warp events as it runs them. Everything
        per access is a recurrence over inputs in an explicit order:

        * *forward port p*: injects in (inject cycle, issuing warp event's
          number, access) order, which is the engine's push order; arrival
          = acceptance + ``icnt_latency``;
        * *controller p*: FR-FCFS over the arrivals. While the oldest
          queued access hits an open row it is served first-come
          first-served, each decision at the later of its arrival and the
          command slot; a row miss at the head of the queue builds the
          FR-FCFS window explicitly until the queue is clear again. An
          arrival and a command slot on one cycle run in the order of
          their parents: the inject's cycle against the last decision's;
        * *reply port s*: completions of loads in (completion cycle,
          decision order) order. A decision's event descends from its
          partition's previous decision, or, after an idle controller,
          from the arrival, keyed by its inject. Runs of decisions spaced
          by tCCD each record where they began and what began them, so
          two decisions on one cycle are compared where their chains
          first differ, a run at a time;
        * *wakes*: a warp blocked at a barrier wakes at the latest reply
          of its loads, after every warp event pushed before that cycle
          and in reply order among the cycle's wakes.

        Synchronization: before the calendar runs a cycle, no blocked warp
        may wake on it unseen, so the recurrences run ahead in batches
        (:func:`advance`). Everything issued at cycle ``T`` or later
        follows the known injects in port order and arrives at or after a
        horizon, so a controller decides whatever those arrivals cannot
        change, and every completion before the earliest a later decision
        can make (bounded below by each partition's bus backlog) is
        final, with its reply. A blocked warp's wake is at least its
        latest known completion plus the reply latency, so the calendar
        runs on until that bound. Where the keys cannot settle an order
        (parents on one cycle at every level compared, a zero issue or
        crossbar latency, a controller that could fill its queue, a value
        past the 32-bit per-access arrays) this raises :class:`_HandOff`,
        and the caller replays the launch on the calendar.
        """
        config = self.config
        issue_cycles = config.issue_cycles
        icnt_lat = config.icnt_latency
        if not issue_cycles or not icnt_lat:
            # A warp event or an arrival could land on its parent's cycle,
            # inside an order only the calendar keeps.
            raise _HandOff("zero issue or crossbar latency")
        num_sms = config.num_sms
        nsched = config.warp_schedulers_per_sm
        P = config.num_partitions
        B = config.num_banks
        per_access = config.coalescer_cycles_per_access
        rate = config.icnt_requests_per_cycle
        flits = self._reply_flits
        reply_lat = icnt_lat + flits - 1
        t_cl, t_rp, t_rc = self._t_cl, self._t_rp, self._t_rc
        t_ras, t_ccd, t_rcd = self._t_ras, self._t_ccd, self._t_rcd
        t_burst = self._t_burst
        window = _FRFCFS_WINDOW

        # -- per warp and per access, fixed before anything runs -----------
        plan = self._plan(warps)
        warp_ids = plan.warp_ids
        w_sm = plan.w_sm
        w_sched = plan.w_sched
        w_ops = plan.w_ops
        nw = len(warp_ids)
        if int(plan.served.max()) >= _QUEUE_CAPACITY:
            # Only the calendar raises the engine's queue overflow.
            raise _HandOff("controller queue capacity")
        if len(plan.row) and int(plan.row.max()) >> 31:
            raise _HandOff("values beyond the compact arrays")
        # The per-access values the loops read one at a time, as 32-bit
        # arrays (a 1024-line launch has about 150k accesses) with array
        # views; the plan's own copies are dropped.
        a_pb = array("i", plan.pb.tobytes())
        a_row = array("i", plan.row.astype(np.int32).tobytes())
        a_w = array("i", plan.a_w.tobytes())
        plan = plan._replace(pb=None, row=None, a_w=None)
        pb_np = np.frombuffer(a_pb, dtype=np.int32)
        a_win_np = plan.a_win
        a_w_np = np.frombuffer(a_w, dtype=np.int32)
        #: Each memory instruction's first access, in access order.
        ins_x0 = [op[5] for ops in w_ops for op in ops if not op[0]]
        # A warp event per instruction, per wake and at the end.
        events = sum(2 * len(ops) + 2 for ops in w_ops)

        N = len(a_pb)
        # Packed keys, the access in the low XB bits. An inject: (cycle,
        # warp event number, access); a completion: (cycle, SM, access).
        XB = max(1, N.bit_length())
        XM = (1 << XB) - 1
        CS = events.bit_length() + XB
        SB = max(1, (num_sms - 1).bit_length())
        CSH = SB + XB
        #: Per warp: its SM, placed in a completion key.
        w_smx = [sm << XB for sm in w_sm]
        # Filled in as the replay runs: each access's inject cycle, and
        # its decision's cycle and run; each memory instruction's warp
        # event number.
        zeros = bytes(4 * N)
        a_inj = array("i", zeros)
        a_dec = array("i", zeros)
        a_run = array("i", zeros)
        del zeros
        ins_wn = [0] * len(ins_x0)
        #: The arrival cycle of each access queued explicitly.
        a_arr: Dict[int, int] = {}

        result = KernelResult(num_warps=nw)
        count_accesses = result.count_accesses
        warp_finish = result.warp_finish
        nwin = len(plan.win_keys)
        win_start = [-1] * nwin
        win_end = [-1] * nwin
        #: The latest reply per window, from the array closed form.
        reply_end = np.full(nwin, -1, dtype=np.int64)
        win_order: List[int] = []

        # -- the memory system ----------------------------------------------
        #: Per SM: inject keys not yet through the ports, in order.
        injects: List[List[int]] = [[] for _ in range(num_sms)]
        fwd_free = [0] * P
        fwd_accepted = [0] * P
        #: Per partition: its arrivals in port order, ids and cycles.
        arr_xs: List[List[int]] = [[] for _ in range(P)]
        arr_as: List[List[int]] = [[] for _ in range(P)]
        # Per controller: next arrival not yet taken, the explicit FR-FCFS
        # queue and its head (used only around a row miss), a pending
        # command slot and its cycle, and the last decision's cycle, its
        # event's parent's cycle and its run.
        c_next = [0] * P
        c_queue: List[List[int]] = [[] for _ in range(P)]
        c_head = [0] * P
        c_pending = [False] * P
        c_slot = [0] * P
        c_dc = [-1] * P
        c_pc = [-1] * P
        c_run = [-1] * P
        bus_free = [0] * P
        open_row = [-1] * (P * B)
        next_act = [0] * (P * B)
        next_pre = [0] * (P * B)
        misses = [0] * P
        qwait = [0] * P
        # Runs of decisions spaced by tCCD: the first decision's cycle, the
        # cycle its parent ran on, and that parent: a run index, or ~access
        # for an arrival (its inject).
        run_start = array("q")
        run_pcyc = array("q")
        run_par = array("q")
        #: Per partition: completion keys of loads not yet through the
        #: reply ports, in order.
        completions: List[List[int]] = [[] for _ in range(P)]
        reply_free = [0] * num_sms
        #: Every reply at or before this cycle is final.
        reply_final = -1

        # -- the warps --------------------------------------------------------
        sched_free = [0] * (num_sms * nsched)
        ldst_free = [0] * num_sms
        w_pc = [0] * nw
        #: Loads issued whose replies are not yet computed; the latest
        #: computed reply and its completion key.
        w_pend = [0] * nw
        w_last = [-1] * nw
        w_lastk = [0] * nw
        #: The latest completion of its loads decided so far, or the
        #: earliest its last load can complete: its wake is at least that
        #: plus the reply latency.
        w_lb = [-1] * nw
        #: The cycle of the warp event that pushed the warp's next one.
        w_par = [-1] * nw
        #: The cycle that event's parent ran on (-1 for a wake's reply).
        w_gpar = [-1] * nw
        #: Blocked at a barrier with replies still to compute.
        blocked_warps = set()
        #: Each warp event's cycle, by number.
        wev_cycle: List[int] = []
        buckets: Dict[int, List[int]] = {0: list(range(nw))}
        heap = [0]
        wakes: Dict[int, list] = {}

        def issuer(x):
            """The number of the warp event that issued access ``x``."""
            return ins_wn[bisect_right(ins_x0, x) - 1]

        def inject_first(x, pc):
            """Whether the inject of ``x`` runs before a decision event on
            its cycle whose parent ran at ``pc``."""
            c = wev_cycle[issuer(x)]
            if c == pc:
                raise _HandOff("same-cycle tie the order keys do not settle")
            return c < pc

        def arrival_first(x, dc, pc):
            """Whether the arrival of ``x`` runs before the command slot
            pushed by a decision at ``dc`` (its event's parent at ``pc``)
            on the same cycle."""
            i = a_inj[x]
            if i != dc:
                return i < dc
            return inject_first(x, pc)

        def parent_cycle(c, r):
            """The cycle of the parent of run ``r``'s decision at ``c``."""
            return c - t_ccd if c > run_start[r] else run_pcyc[r]

        def decision_first(c, rx, ry):
            """Whether the decision event at cycle ``c`` in run ``rx`` runs
            before the one in run ``ry``: their parents compared, cycles
            first, back to where the chains differ."""
            while True:
                if rx == ry:
                    raise _HandOff("same-cycle tie the order keys do not "
                                   "settle")
                sx = run_start[rx]
                sy = run_start[ry]
                if sx != sy:
                    # The later run's first decision against the other
                    # chain's decision one tCCD before it.
                    flip = sx < sy
                    if flip:
                        rx, ry, sx = ry, rx, sy
                    c = sx - t_ccd
                    px = run_pcyc[rx]
                    if px != c:
                        first = px < c
                    elif run_par[rx] >= 0:
                        rx = run_par[rx]
                        if flip:
                            rx, ry = ry, rx
                        continue
                    else:
                        first = inject_first(~run_par[rx],
                                             parent_cycle(c, ry))
                    return first != flip
                px = run_pcyc[rx]
                py = run_pcyc[ry]
                if px != py:
                    return px < py
                qx = run_par[rx]
                qy = run_par[ry]
                if qx >= 0 and qy >= 0:
                    rx, ry = qx, qy
                    continue
                if qx < 0 and qy < 0:
                    return (issuer(~qx), ~qx) < (issuer(~qy), ~qy)
                if qx < 0:
                    return inject_first(~qx, parent_cycle(px, qy))
                return not inject_first(~qy, parent_cycle(px, qx))

        def completion_order(k1, k2):
            """Completions (or their replies) by cycle, then by their
            decision events' order."""
            c1, c2 = k1 >> CSH, k2 >> CSH
            if c1 != c2:
                return -1 if c1 < c2 else 1
            x1, x2 = k1 & XM, k2 & XM
            d1, d2 = a_dec[x1], a_dec[x2]
            if d1 != d2:
                return -1 if d1 < d2 else 1
            return -1 if decision_first(d1, a_run[x1], a_run[x2]) else 1

        completion_key = cmp_to_key(completion_order)

        def advance(t_min):
            """Run the recurrences as far as warp events at ``t_min`` or
            later cannot change them."""
            nonlocal reply_final
            i_lim = t_min + issue_cycles
            # Forward ports: every known inject up to i_lim precedes any
            # inject still to be issued.
            lim = (i_lim + 1) << CS
            batch = []
            for inj in injects:
                if inj and inj[0] < lim:
                    n = bisect_left(inj, lim)
                    batch += inj[:n]
                    del inj[:n]
            if batch:
                # Per partition, acc_k = max(inject_k, acc_{k-1} + d_{k-1}),
                # d_j 1 where the port's running accept count reaches a
                # multiple of the rate and 0 elsewhere, unrolls to
                # D_k + max(free, max_{j<=k}(inject_j - D_j)), D_k the sum
                # of d_j over j < k.
                batch.sort()
                keys = np.array(batch, dtype=np.int64)
                xs = keys & XM
                ps = pb_np[xs] // B
                order = np.argsort(ps, kind="stable")
                xs = xs[order]
                ps = ps[order]
                edge = np.flatnonzero(ps[1:] != ps[:-1]) + 1
                seg0 = np.concatenate(([0], edge))
                seg1 = np.concatenate((edge, [len(ps)]))
                gid = np.repeat(np.arange(len(seg0)), seg1 - seg0)
                pseg = ps[seg0]
                ct0 = np.array(fwd_accepted, dtype=np.int64)[pseg][gid]
                d = (np.arange(len(ps)) - seg0[gid] + ct0) // rate - ct0 // rate
                acc = d + np.maximum(
                    _segmented_cummax((keys >> CS)[order] - d, gid),
                    np.array(fwd_free, dtype=np.int64)[pseg][gid])
                arrive = acc + icnt_lat
                for p, lo, hi in zip(pseg.tolist(), seg0.tolist(),
                                     seg1.tolist()):
                    ct = fwd_accepted[p] + hi - lo
                    fwd_accepted[p] = ct
                    fwd_free[p] = int(acc[hi - 1]) + (ct % rate == 0)
                    arr_xs[p] += xs[lo:hi].tolist()
                    arr_as[p] += arrive[lo:hi].tolist()

            # Controllers. Every arrival still to come follows the known
            # ones in port order and lands at or after the horizon. So a
            # decision is safe whenever it cannot depend on those: a row
            # hit at the head of the queue, an idle controller taking a
            # known arrival, a slot that frees before the next known
            # arrival, or an FR-FCFS window that known arrivals fill.
            c_min = None
            for p in range(P):
                f = fwd_free[p]
                horizon = (i_lim if i_lim > f else f) + icnt_lat
                arr = arr_xs[p]
                arr_a = arr_as[p]
                n_arr = len(arr)
                i = c_next[p]
                q = c_queue[p]
                pending = c_pending[p]
                ns = c_slot[p]
                if i < n_arr or q or (pending and ns < horizon):
                    qh = c_head[p]
                    dc = c_dc[p]
                    pc = c_pc[p]
                    run = c_run[p]
                    bus = bus_free[p]
                    miss = wait = 0
                    done_append = completions[p].append
                    while True:
                        if q:
                            # The explicit queue, around a row miss; the
                            # slot at ns decides.
                            d = ns
                            x = q[qh]
                            if open_row[a_pb[x]] == a_row[x]:
                                qh += 1
                            else:
                                while len(q) - qh < window and i < n_arr:
                                    y = arr[i]
                                    a = arr_a[i]
                                    if a > d or (a == d and not arrival_first(
                                            y, dc, pc)):
                                        break
                                    a_arr[y] = a
                                    q.append(y)
                                    i += 1
                                if (len(q) - qh < window and i >= n_arr
                                        and ns >= horizon):
                                    # Arrivals still to come may join the
                                    # window.
                                    break
                                for j in range(qh + 1,
                                               min(len(q), qh + window)):
                                    y = q[j]
                                    if open_row[a_pb[y]] == a_row[y]:
                                        x = y
                                        del q[j]
                                        break
                                else:
                                    qh += 1
                            if qh == len(q):
                                q.clear()
                                qh = 0
                            a = a_arr.pop(x)
                            slot_rooted = True
                        else:
                            if pending and ns == dc + t_ccd:
                                # The hot stretch: row hits queued before
                                # the slot, each decided there, in the
                                # run of the last decision (a hit).
                                while i < n_arr:
                                    a = arr_a[i]
                                    if a >= ns:
                                        break
                                    x = arr[i]
                                    if open_row[a_pb[x]] != a_row[x]:
                                        break
                                    i += 1
                                    a_run[x] = run
                                    a_dec[x] = ns
                                    pc = dc
                                    dc = ns
                                    ns += t_ccd
                                    cas = dc + t_cl
                                    if bus > cas:
                                        cas = bus
                                    if cas > a:
                                        wait += cas - a
                                    bus = cas + t_burst
                                    y = a_w[x]
                                    if y >= 0:
                                        done_append((bus << CSH) | w_smx[y]
                                                    | x)
                                        if bus > w_lb[y]:
                                            w_lb[y] = bus
                            if i >= n_arr:
                                if pending and ns < horizon:
                                    # The slot frees on an empty queue.
                                    pending = False
                                break
                            x = arr[i]
                            a = arr_a[i]
                            if pending:
                                if a < ns:
                                    slot_rooted = True
                                elif a > ns:
                                    slot_rooted = False
                                else:
                                    slot_rooted = arrival_first(x, dc, pc)
                                d = ns if slot_rooted else a
                            else:
                                slot_rooted = False
                                d = a
                            i += 1
                            if slot_rooted and open_row[a_pb[x]] != a_row[x]:
                                # FR-FCFS may pick a later hit: queue it.
                                a_arr[x] = a
                                q.append(x)
                                continue
                        # Service (MemoryController._service). A bank's
                        # next CAS never binds: it is at most the
                        # partition's last slot, at or before d.
                        pb = a_pb[x]
                        rw = a_row[x]
                        if open_row[pb] == rw:
                            cas = d
                        else:
                            miss += 1
                            act = next_pre[pb]
                            if d > act:
                                act = d
                            act += t_rp
                            y = next_act[pb]
                            if y > act:
                                act = y
                            next_act[pb] = act + t_rc
                            next_pre[pb] = act + t_ras
                            open_row[pb] = rw
                            cas = act + t_rcd
                        if slot_rooted:
                            if d != dc + t_ccd:
                                run_par.append(run)
                                run = len(run_start)
                                run_start.append(d)
                                run_pcyc.append(dc)
                            pc = dc
                        else:
                            pc = a_inj[x]
                            run_par.append(~x)
                            run = len(run_start)
                            run_start.append(d)
                            run_pcyc.append(pc)
                        a_run[x] = run
                        a_dec[x] = dc = d
                        ns = cas + t_ccd
                        pending = True
                        cas += t_cl
                        if bus > cas:
                            cas = bus
                        y = cas - a
                        if y > 0:
                            wait += y
                        bus = cas + t_burst
                        y = a_w[x]
                        if y >= 0:
                            done_append((bus << CSH) | w_smx[y] | x)
                            if bus > w_lb[y]:
                                w_lb[y] = bus
                    if i > 4096:
                        del arr[:i]
                        del arr_a[:i]
                        i = 0
                    c_next[p] = i
                    c_head[p] = qh
                    c_pending[p] = pending
                    c_slot[p] = ns
                    c_dc[p] = dc
                    c_pc[p] = pc
                    c_run[p] = run
                    bus_free[p] = bus
                    misses[p] += miss
                    qwait[p] += wait
                # The next decision: the slot, for a queue left waiting on
                # the horizon; otherwise at or after both slot and horizon.
                if q:
                    c = ns
                elif pending and ns > horizon:
                    c = ns
                else:
                    c = horizon
                c += t_cl
                if bus_free[p] > c:
                    c = bus_free[p]
                if c_min is None or c < c_min:
                    c_min = c
            c_min += t_burst
            sm_mask = (1 << SB) - 1

            # Reply ports: every completion before c_min is known. Each
            # partition's are in order; a sort merges them.
            lim = c_min << CSH
            batch = []
            for done in completions:
                if done and done[0] < lim:
                    n = bisect_left(done, lim)
                    batch += done[:n]
                    del done[:n]
            if not batch:
                reply_final = c_min + reply_lat - 1
                return
            batch.sort()
            n = len(batch)
            keys = np.array(batch, dtype=np.int64)
            cycle_sm = keys >> XB
            ties = np.flatnonzero(cycle_sm[1:] == cycle_sm[:-1]).tolist()
            if ties:
                # Completions for one SM on one cycle: the order of their
                # decisions.
                batch.append(-1)
                end = 0
                for j in ties:
                    if j >= end:
                        k = batch[j]
                        e = j + 2
                        while not (batch[e] ^ k) >> XB:
                            e += 1
                        if e - j == 2:
                            if completion_order(k, batch[j + 1]) > 0:
                                batch[j] = batch[j + 1]
                                batch[j + 1] = k
                        else:
                            batch[j:e] = sorted(batch[j:e],
                                                key=completion_key)
                        end = e
                del batch[n]
                keys = np.array(batch, dtype=np.int64)
            # Per SM, acc_j = max(comp_j, acc_{j-1} + flits) unrolls to
            # flits*j + max(free, max_{i<=j}(comp_i - flits*i)).
            order = np.argsort((keys >> XB) & sm_mask, kind="stable")
            keys = keys[order]
            xs = keys & XM
            ss = (keys >> XB) & sm_mask
            edge = np.flatnonzero(ss[1:] != ss[:-1]) + 1
            seg0 = np.concatenate(([0], edge))
            seg1 = np.concatenate((edge, [n]))
            gid = np.repeat(np.arange(len(seg0)), seg1 - seg0)
            jf = (np.arange(n) - seg0[gid]) * flits
            sseg = ss[seg0]
            acc = jf + np.maximum(
                _segmented_cummax((keys >> CSH) - jf, gid),
                np.array(reply_free, dtype=np.int64)[sseg][gid])
            for sm, hi in zip(sseg.tolist(), seg1.tolist()):
                reply_free[sm] = int(acc[hi - 1]) + flits
            acc += reply_lat
            np.maximum.at(reply_end, a_win_np[xs], acc)
            # Per warp (all on one SM): how many replied, and the last.
            ws = a_w_np[xs]
            order = np.argsort(ws, kind="stable")
            ws = ws[order]
            last = np.flatnonzero(np.append(ws[1:] != ws[:-1], True))
            replies = zip(ws[last].tolist(),
                          np.diff(np.append(-1, last)).tolist(),
                          acc[order][last].tolist(),
                          keys[order][last].tolist())
            for w, count, acc, k in replies:
                w_last[w] = acc
                w_lastk[w] = k
                y = w_pend[w] - count
                w_pend[w] = y
                if not y and w in blocked_warps:
                    blocked_warps.discard(w)
                    wl = wakes.get(acc)
                    if wl is None:
                        wakes[acc] = [(k, w)]
                        heappush(heap, acc)
                    else:
                        wl.append((k, w))
            reply_final = c_min + reply_lat - 1

        def blocked(wi, cycle, end):
            """A warp event of ``wi`` at a barrier: True when the warp
            waits for a reply (its wake registered or still to come)."""
            nonlocal bound
            if w_pend[wi]:
                if (reply_final < cycle and w_last[wi] <= cycle
                        and w_lb[wi] + reply_lat <= cycle):
                    advance(cycle)
                if w_pend[wi]:
                    # Its last reply comes after reply_final or a known
                    # completion, and after this cycle.
                    blocked_warps.add(wi)
                    if bound is not None:
                        lb = max(w_last[wi], w_lb[wi] + reply_lat,
                                 reply_final + 1)
                        if lb < bound:
                            bound = lb
                    return True
            r = w_last[wi]
            if r < cycle:
                return False
            if r == cycle:
                if end:
                    # It finishes on this cycle either way.
                    return False
                # The reply against this warp event: their parents, the
                # completion and the warp event that pushed this one, then
                # theirs, the decision and that event's parent.
                k = w_lastk[wi]
                c, d = k >> CSH, w_par[wi]
                if c == d:
                    c, d = a_dec[k & XM], w_gpar[wi]
                    if c == d or d < 0:
                        raise _HandOff("same-cycle tie the order keys do "
                                       "not settle")
                if c < d:
                    return False
            wl = wakes.get(r)
            if wl is None:
                wakes[r] = [(w_lastk[wi], wi)]
                heappush(heap, r)
            else:
                wl.append((w_lastk[wi], wi))
            return True

        inc = (per_access << CS) + 1
        first_completion = icnt_lat + t_cl + t_burst

        def step(wi, cycle, woken):
            """GPUSimulator.run's handle_warp for warp ``wi``."""
            wn = len(wev_cycle)
            wev_cycle.append(cycle)
            pc = w_pc[wi]
            ops = w_ops[wi]
            if pc >= len(ops):
                if (woken or not (w_pend[wi] or w_last[wi] > cycle)
                        or not blocked(wi, cycle, True)):
                    warp_finish[warp_ids[wi]] = cycle
                return
            op = ops[pc]
            if (op[0] and not woken and (w_pend[wi] or w_last[wi] >= cycle)
                    and blocked(wi, cycle, False)):
                return
            w_pc[wi] = pc + 1
            sc = w_sched[wi]
            issue = sched_free[sc]
            if cycle > issue:
                issue = cycle
            sched_free[sc] = issue + issue_cycles
            win = op[1]
            if op[0]:
                t = issue + issue_cycles + op[2]
                if win_start[win] < 0:
                    win_order.append(win)
                    win_start[win] = issue
                elif issue < win_start[win]:
                    win_start[win] = issue
                if t > win_end[win]:
                    win_end[win] = t
            else:
                _, _, akind, is_write, nb, x0, logged, rix, gi = op
                if win:
                    if win_start[win] < 0:
                        win_order.append(win)
                        win_start[win] = issue
                    elif issue < win_start[win]:
                        win_start[win] = issue
                if logged > _PRT_CAPACITY:
                    raise ProtocolError("pending request table overflow")
                if not nb:
                    raise ProtocolError(
                        "memory instruction produced no accesses")
                sm = w_sm[wi]
                t = issue + issue_cycles
                if ldst_free[sm] > t:
                    t = ldst_free[sm]
                end = x0 + nb
                a_inj[x0:end] = (array("i", range(t, t + nb * per_access,
                                                  per_access))
                                 if per_access else array("i", [t]) * nb)
                ins_wn[gi] = wn
                key = (t << CS) | (wn << XB) | x0
                injects[sm].extend(range(key, key + nb * inc, inc))
                count_accesses(warp_ids[wi], akind, rix, nb)
                t += nb * per_access
                ldst_free[sm] = t
                if not is_write:
                    w_pend[wi] += nb
                    # No load completes before its inject plus the
                    # crossbar, tCL and a burst.
                    t += first_completion - per_access
                    if t > w_lb[wi]:
                        w_lb[wi] = t
                    t = issue + issue_cycles
            w_gpar[wi] = -1 if woken else w_par[wi]
            w_par[wi] = cycle
            bucket = buckets.get(t)
            if bucket is None:
                buckets[t] = [wi]
                heappush(heap, t)
            else:
                bucket.append(wi)

        wake_key = cmp_to_key(lambda e1, e2: completion_order(e1[0], e2[0]))
        try:
            bound = None
            while True:
                cycle = heap[0] if heap else None
                if blocked_warps:
                    # No blocked warp may wake on this cycle unseen: each wakes
                    # after reply_final and after its known completions.
                    if bound is None:
                        bound = min(max(w_last[w], w_lb[w] + reply_lat)
                                    for w in blocked_warps)
                        if bound <= reply_final:
                            bound = reply_final + 1
                    if cycle is None or bound <= cycle:
                        advance(bound)
                        bound = None
                        continue
                elif cycle is None:
                    break
                heappop(heap)
                for wi in buckets.pop(cycle, ()):
                    step(wi, cycle, False)
                woken = wakes.pop(cycle, None)
                if woken:
                    if len(woken) > 1:
                        woken.sort(key=wake_key)
                    for _, wi in woken:
                        step(wi, cycle, True)
            # Serve what is left (stores).
            advance(1 << 62)
        except OverflowError:
            # A cycle or count past the 32-bit per-access arrays.
            raise _HandOff("values beyond the compact arrays") from None

        for win, end in zip(win_order, reply_end[win_order].tolist()):
            if end > win_end[win]:
                win_end[win] = end
        return self._finish(result, plan, win_order, win_start, win_end,
                            bus_free, misses, qwait)

    # -- calendar replay: hand-offs --------------------------------------------

    def _replay_calendar(self, warps) -> KernelResult:
        """Run the event engine's handlers in its own event order, on
        ``warps`` as :meth:`_plan` lays them out.

        Every push of ``GPUSimulator.run`` lands at or after the cycle
        being processed, and ``seq`` is push order. So one FIFO list per
        cycle, drained front to back while handlers append to it, pops
        events in exactly the heap's ``(cycle, seq)`` order, ties between
        warps included. Events are ints, ``payload << 3 | kind``; the
        payload is an access slot, a partition or a warp index. An
        access's slot is recycled at its reply (a store's at its DRAM
        completion), so per-access state is bounded by the accesses in
        flight.
        """
        config = self.config
        num_sms = config.num_sms
        nsched = config.warp_schedulers_per_sm
        P = config.num_partitions
        B = config.num_banks

        plan = self._plan(warps)
        warp_ids = plan.warp_ids
        w_sm = plan.w_sm
        w_sched = plan.w_sched
        w_ops = plan.w_ops
        nw = len(warp_ids)
        result = KernelResult(num_warps=nw)
        count_accesses = result.count_accesses
        warp_finish = result.warp_finish

        issue_cycles = config.issue_cycles
        per_access = config.coalescer_cycles_per_access
        icnt_lat = config.icnt_latency
        rate = config.icnt_requests_per_cycle
        flits = self._reply_flits
        reply_lat = icnt_lat + flits - 1
        t_cl, t_rp, t_rc = self._t_cl, self._t_rp, self._t_rc
        t_ras, t_ccd, t_rcd = self._t_ras, self._t_ccd, self._t_rcd
        t_burst = self._t_burst

        # Machine state as flat int lists. Banks are indexed
        # ``partition * B + bank``; -1 is a closed row (rows are >= 0).
        bank_part = [pb // B for pb in range(P * B)]
        sched_free = [0] * (num_sms * nsched)
        ldst_free = [0] * num_sms
        fwd_free = [0] * P
        fwd_accepted = [0] * P
        reply_free = [0] * num_sms
        open_row = [-1] * (P * B)
        next_cas = [0] * (P * B)
        next_act = [0] * (P * B)
        next_pre = [0] * (P * B)
        bus_free = [0] * P
        busy = [False] * P
        queues: List[List[int]] = [[] for _ in range(P)]
        misses = [0] * P
        qwait = [0] * P

        # Per warp: program counter, loads in flight, barrier stall.
        w_pc = [0] * nw
        w_out = [0] * nw
        w_wait = [False] * nw
        w_len = [len(ops) for ops in w_ops]

        # Round windows by the plan's index, and the order the replay
        # creates them in.
        win_start = [-1] * len(plan.win_keys)
        win_end = [-1] * len(plan.win_keys)
        win_order: List[int] = []

        # Per-access slots: flat bank, row, warp index, window index (-1
        # marks a store) and queue arrival cycle.
        a_pb: List[int] = []
        a_row: List[int] = []
        a_w: List[int] = []
        a_win: List[int] = []
        a_arr: List[int] = []
        free: List[int] = []
        free_pop = free.pop
        free_append = free.append

        # The calendar: cycle -> FIFO of events. Kinds, low three bits:
        # 0 inject, 1 DRAM completion, 2 arrival, 3 command slot frees,
        # 4 reply, 5 warp.
        buckets = defaultdict(list)
        buckets[0].extend(wi << 3 | 5 for wi in range(nw))
        buckets_get = buckets.get
        queue_capacity = _QUEUE_CAPACITY
        window = _FRFCFS_WINDOW
        cycle = 0
        idle = 0
        while buckets:
            bucket = buckets_get(cycle)
            if bucket is None:
                idle += 1
                if idle > 64:
                    # A long quiet stretch: jump to the next busy cycle.
                    cycle = min(buckets)
                    idle = 0
                else:
                    cycle += 1
                continue
            idle = 0
            for ev in bucket:
                kind = ev & 7
                s = ev >> 3
                if kind < 2:
                    if kind:
                        # DRAM completion: a store retires, a load
                        # replies through its SM's ejection port.
                        if a_win[s] < 0:
                            free_append(s)
                            continue
                        sm = w_sm[a_w[s]]
                        acc = reply_free[sm]
                        if cycle > acc:
                            acc = cycle
                        reply_free[sm] = acc + flits
                        buckets[acc + reply_lat].append(s << 3 | 4)
                        continue
                    # Inject: the partition's forward-crossbar port.
                    p = bank_part[a_pb[s]]
                    acc = fwd_free[p]
                    if cycle > acc:
                        acc = cycle
                    if rate == 1:
                        fwd_free[p] = acc + 1
                    else:
                        ct = fwd_accepted[p] + 1
                        fwd_accepted[p] = ct
                        fwd_free[p] = acc + 1 if ct % rate == 0 else acc
                    buckets[acc + icnt_lat].append(s << 3 | 2)
                    continue
                if kind < 4:
                    if kind == 2:
                        # Arrival. An idle controller's queue is empty,
                        # so FR-FCFS picks this access at once.
                        p = bank_part[a_pb[s]]
                        if busy[p]:
                            q = queues[p]
                            if len(q) >= queue_capacity:
                                raise ProtocolError(
                                    "memory controller queue overflow")
                            a_arr[s] = cycle
                            q.append(s)
                            continue
                        arrival = cycle
                    else:
                        # Command slot frees: FR-FCFS select, the oldest
                        # row hit in the window, else the oldest.
                        p = s
                        q = queues[p]
                        n = len(q)
                        if not n:
                            busy[p] = False
                            continue
                        if n == 1:
                            s = q.pop()
                        else:
                            idx = 0
                            for i in range(n if n < window else window):
                                x = q[i]
                                if open_row[a_pb[x]] == a_row[x]:
                                    idx = i
                                    break
                            s = q.pop(idx)
                        arrival = a_arr[s]
                    # Service (MemoryController._service).
                    pb = a_pb[s]
                    rw = a_row[s]
                    if open_row[pb] == rw:
                        cas = next_cas[pb]
                        if cycle > cas:
                            cas = cycle
                    else:
                        misses[p] += 1
                        pre = next_cas[pb]
                        x = next_pre[pb]
                        if x > pre:
                            pre = x
                        if cycle > pre:
                            pre = cycle
                        act = pre + t_rp
                        x = next_act[pb]
                        if x > act:
                            act = x
                        next_act[pb] = act + t_rc
                        next_pre[pb] = act + t_ras
                        open_row[pb] = rw
                        cas = act + t_rcd
                    slot = cas + t_ccd
                    next_cas[pb] = slot
                    ready = cas + t_cl
                    x = bus_free[p]
                    if x > ready:
                        ready = x
                    if ready > arrival:
                        qwait[p] += ready - arrival
                    ready += t_burst
                    bus_free[p] = ready
                    busy[p] = True
                    buckets[ready].append(s << 3 | 1)
                    buckets[slot].append(p << 3 | 3)
                    continue
                if kind == 4:
                    # Reply: close the round window, wake a warp waiting
                    # on its last load.
                    win = a_win[s]
                    if cycle > win_end[win]:
                        win_end[win] = cycle
                    wi = a_w[s]
                    free_append(s)
                    o = w_out[wi] - 1
                    w_out[wi] = o
                    if not o and w_wait[wi]:
                        w_wait[wi] = False
                        bucket.append(wi << 3 | 5)
                    continue
                # Warp: GPUSimulator.run's handle_warp.
                wi = s
                pc = w_pc[wi]
                if pc >= w_len[wi]:
                    if w_out[wi]:
                        w_wait[wi] = True
                    else:
                        warp_finish[warp_ids[wi]] = cycle
                    continue
                op = w_ops[wi][pc]
                if op[0] and w_out[wi]:
                    w_wait[wi] = True
                    continue
                w_pc[wi] = pc + 1
                sc = w_sched[wi]
                issue = sched_free[sc]
                if cycle > issue:
                    issue = cycle
                sched_free[sc] = issue + issue_cycles
                win = op[1]
                if op[0]:
                    t = issue + issue_cycles + op[2]
                    if win_start[win] < 0:
                        win_order.append(win)
                        win_start[win] = issue
                    elif issue < win_start[win]:
                        win_start[win] = issue
                    if t > win_end[win]:
                        win_end[win] = t
                    buckets[t].append(wi << 3 | 5)
                    continue
                _, _, akind, is_write, nb, lo, logged, rix, _ = op
                if win:
                    if win_start[win] < 0:
                        win_order.append(win)
                        win_start[win] = issue
                    elif issue < win_start[win]:
                        win_start[win] = issue
                if logged > _PRT_CAPACITY:
                    raise ProtocolError("pending request table overflow")
                if not nb:
                    raise ProtocolError(
                        "memory instruction produced no accesses")
                sm = w_sm[wi]
                t = issue + issue_cycles
                if ldst_free[sm] > t:
                    t = ldst_free[sm]
                if len(free) < nb:
                    base = len(a_pb)
                    grow = nb + base
                    for column in (a_pb, a_row, a_w, a_win, a_arr):
                        column.extend([0] * grow)
                    free.extend(range(base + grow - 1, base - 1, -1))
                hi = lo + nb
                if is_write:
                    win = -1
                for pb, rw in zip(plan.pb[lo:hi].tolist(),
                                  plan.row[lo:hi].tolist()):
                    x = free_pop()
                    a_pb[x] = pb
                    a_row[x] = rw
                    a_w[x] = wi
                    a_win[x] = win
                    buckets[t].append(x << 3)
                    t += per_access
                count_accesses(warp_ids[wi], akind, rix, nb)
                ldst_free[sm] = t
                if not is_write:
                    w_out[wi] += nb
                    t = issue + issue_cycles
                buckets[t].append(wi << 3 | 5)
            del buckets[cycle]
            cycle += 1
        return self._finish(result, plan, win_order, win_start, win_end,
                            bus_free, misses, qwait)
