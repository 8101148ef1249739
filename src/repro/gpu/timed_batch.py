"""Batched exact timing engine: wavefront replay and calendar replay.

:class:`BatchedTimingCore` produces the *same* :class:`KernelResult` as the
discrete-event engine (:class:`repro.gpu.engine.GPUSimulator`) without its
heap, ``MemoryAccess`` objects or component instances. It has two paths.

**Calendar replay: the exactness argument.** The core runs the event
engine's own handlers on plain ints and lists, in the engine's own event
order: every push of ``GPUSimulator.run`` lands at or after the cycle
being processed, and ``seq`` is push order, so one FIFO list per cycle,
drained front to back while handlers append to it, pops events in exactly
the heap's ``(cycle, seq)`` order. No tie rule is re-derived. Multi-warp
launches, where other warps' traffic is in flight at every barrier, take
this path, and so does every single-warp launch the wavefront path hands
off.

**Wavefront replay: a closed-form accelerator for one warp.** Within one
warp, loads stay in flight and only
:class:`~repro.gpu.warp.ComputeInstruction` waits on ``outstanding == 0``,
so the issue stream between two compute barriers is memory-independent:
the issue/coalesce/inject timestamps of every access in that *wavefront*
are pure scheduler arithmetic. When the barrier resolves, every load of
the wavefront has replied, so a wavefront normally meets an idle memory
system (bank row state, bus recurrences and crossbar ports carry over as
plain integers), and the launch is an alternation of vectorized issue
phases and independent per-partition FR-FCFS replays. Partitions whose
accesses all hit open rows serve them in FIFO order in closed form; the
others run the FR-FCFS loop. The reply port needs only the *multiset* of
completion cycles, which same-cycle completions cannot change.

**Hand-offs.** The wavefront path decides every event order from cycles
alone. An event pushed by a parent that ran on an earlier cycle runs
first, so an arrival on the cycle a controller's command slot frees is
queued before the slot's decision when its parent (the inject) ran before
the slot's parent (the last decision), and after it when it ran later.
A warp whose last reply lands on the cycle its barrier is reached
resumes on that cycle either way. Where cycles cannot settle an order,
the path raises a private exception naming the reason, and :meth:`run`
replays the launch from scratch on the calendar:

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
caller replays the launch on the event engine, for:

* instrumented runs (the simulator never builds the core for them);
* any other address map class, whose decode only the engine can call;
* a launch on the calendar replay with a negative-cycle compute
  instruction, whose warp event the engine would push into the past;
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

from collections import defaultdict
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.gpu.address import AddressMap, PermutedAddressMap
from repro.gpu.config import GPUConfig
from repro.gpu.dram import DramStats
from repro.gpu.engine import RoundAwareSidMap
from repro.gpu.stats import KernelResult, RoundWindow
from repro.gpu.warp import ComputeInstruction, WarpProgram

__all__ = ["BatchedTimingCore", "UnsupportedLaunch"]


class UnsupportedLaunch(Exception):
    """This launch needs machinery only the event engine has.

    Internal control flow: :meth:`GPUSimulator.run` catches it and re-runs
    the launch on the event engine. The core mutates no engine-visible
    state, so the retry starts from scratch.
    """


class _HandOff(Exception):
    """The wavefront path cannot settle this launch from cycles alone;
    :meth:`BatchedTimingCore.run` replays it on the calendar. The message
    names the reason."""


#: The engine builds its CoalescingUnit/MemoryController with defaults.
_PRT_CAPACITY = 64
_FRFCFS_WINDOW = 64
_QUEUE_CAPACITY = 65536

#: Sentinel for a wavefront with no load yet (identity-compared).
_UNSET = object()


class BatchedTimingCore:
    """Exact-cycle replay of one kernel launch: the wavefront path for a
    single warp whose event order cycles settle, the calendar replay for
    every other launch (see the module docstring for the coverage
    contract)."""

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
        self.config = config
        timing = config.dram_timing_core
        self._t_cl = timing.t_cl
        self._t_rp = timing.t_rp
        self._t_rc = timing.t_rc
        self._t_ras = timing.t_ras
        self._t_ccd = timing.t_ccd
        self._t_rcd = timing.t_rcd
        self._t_burst = timing.t_burst
        self._reply_flits = 1 + -(-config.access_bytes
                                  // config.icnt_flit_bytes)
        self._block_mask = ~(config.access_bytes - 1)
        self._chunk = config.partition_chunk_bytes
        self._rows_chunks = config.row_bytes // self._chunk
        self._reply_next_free = 0

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

    # -- launch-wide vectorized coalesce ------------------------------------

    def _coalesce_program(self, mem_instrs, sid_source, round_aware, W):
        """Coalesce every memory instruction of one warp at once.

        Returns per-instruction access counts, offsets and logged lanes
        plus flat per-access DRAM coordinates (partition, bank, row
        arrays), all in the engine's exact generation order: groups
        ascending by sid, blocks in first-touch thread order within a
        group (the contract of ``CoalescingUnit.coalesce``).
        """
        M = len(mem_instrs)
        addr_rows = []
        sid_rows = []
        masks = []
        any_mask = False
        for ins in mem_instrs:
            if len(ins.addresses) != W:
                raise UnsupportedLaunch("lane count mismatch")
            mask = ins.active_mask
            if mask is not None:
                if len(mask) != W:
                    raise UnsupportedLaunch("active mask length mismatch")
                any_mask = True
            masks.append(mask)
            addr_rows.append(ins.addresses)
            sid_rows.append(sid_source(ins.round_index) if round_aware
                            else sid_source)
        addr = np.array(addr_rows, dtype=np.int64)
        if addr.size and addr.min() < 0:
            # Row -1 would read as the closed-row sentinel.
            raise UnsupportedLaunch("negative address")
        sid = np.array(sid_rows, dtype=np.int64)
        blk = addr & self._block_mask

        if any_mask:
            active = np.array(
                [[True] * W if m is None else m for m in masks], dtype=bool
            ).ravel()
            flat = np.nonzero(active)[0]
        else:
            flat = np.arange(M * W, dtype=np.int64)
        r = flat // W
        t = flat - r * W
        b = blk.ravel()[flat]
        s = sid.ravel()[flat]
        logged = np.bincount(r, minlength=M)

        # First-touch thread per (instruction, sid, block), then the final
        # generation order (instruction, sid asc, first-touch asc).
        order = np.lexsort((t, b, s, r))
        r1, s1, b1, t1 = r[order], s[order], b[order], t[order]
        first = np.empty(len(order), dtype=bool)
        if len(order):
            first[0] = True
            first[1:] = ((r1[1:] != r1[:-1]) | (s1[1:] != s1[:-1])
                         | (b1[1:] != b1[:-1]))
        ru, su, bu, tu = r1[first], s1[first], b1[first], t1[first]
        order2 = np.lexsort((tu, su, ru))
        rB = ru[order2]
        bB = bu[order2]
        counts = np.bincount(rB, minlength=M)

        # DRAM coordinates, vectorized (same floor-div/mod arithmetic as
        # AddressMap._decode_uncached on the block address).
        cfg = self.config
        cid = bB // self._chunk
        part = cid % cfg.num_partitions
        lc = cid // cfg.num_partitions
        bank = lc % cfg.num_banks
        row = lc // cfg.num_banks // self._rows_chunks
        if self._part_perm is not None:
            part = self._part_perm[part]
            bank = self._bank_perm[bank]
        starts = np.concatenate(([0], np.cumsum(counts)))
        return (counts.tolist(), starts.tolist(), logged.tolist(),
                part, bank, row)

    # -- the launch ----------------------------------------------------------

    def run(self, programs: Sequence[WarpProgram],
            sid_maps: Mapping[int, Sequence[int]]) -> KernelResult:
        if len(programs) == 1:
            try:
                return self._replay_wavefronts(programs[0], sid_maps)
            except _HandOff:
                # The calendar replay starts from scratch: nothing the
                # wavefront path computed is kept.
                pass
        return self._replay_calendar(programs, sid_maps)

    # -- single-warp launches: wavefront replay ------------------------------

    def _replay_wavefronts(self, program: WarpProgram,
                           sid_maps: Mapping[int, Sequence[int]]
                           ) -> KernelResult:
        config = self.config
        if config.icnt_requests_per_cycle != 1:
            raise _HandOff("forward-crossbar rate above one")
        warp_id = program.warp_id
        sid_source, round_aware = self._sid_source(warp_id, sid_maps)

        instructions = program.instructions
        mem_instrs = [ins for ins in instructions
                      if not isinstance(ins, ComputeInstruction)]
        result = KernelResult(num_warps=1)
        windows = result.round_windows

        M = len(mem_instrs)
        if M:
            (m_counts, m_starts, m_logged, A_part, A_bank,
             A_row) = self._coalesce_program(mem_instrs, sid_source,
                                             round_aware, config.warp_size)
            counts = np.array(m_counts)
            # Per access: its position within its instruction, and
            # whether it is a store.
            A_jpos = (np.arange(m_starts[M])
                      - np.repeat(m_starts[:-1], counts))
            A_write = np.repeat(
                np.array([ins.is_write for ins in mem_instrs], dtype=bool),
                counts)
        ibase = [0] * M        # per-instruction first-access inject cycle

        # Timing constants / launch-local machine state -----------------------
        issue_cycles = config.issue_cycles
        per_access = config.coalescer_cycles_per_access
        icnt_lat = config.icnt_latency
        t_cl, t_rp, t_rc = self._t_cl, self._t_rp, self._t_rc
        t_ras, t_ccd, t_rcd = self._t_ras, self._t_ccd, self._t_rcd
        t_burst = self._t_burst
        P = config.num_partitions
        B = config.num_banks

        bank_row = [[None] * B for _ in range(P)]
        #: numpy mirror of bank_row (-1 = closed) for the vectorized
        #: all-row-hit precheck; rows are non-negative so -1 never hits.
        brow_np = [np.full(B, -1, dtype=np.int64) for _ in range(P)]
        bank_cas = [[0] * B for _ in range(P)]
        bank_act = [[0] * B for _ in range(P)]
        bank_pre = [[0] * B for _ in range(P)]
        bus_free = [0] * P
        dstats = [DramStats() for _ in range(P)]
        part_idle = [0] * P
        fwd_next_free = [0] * P
        self._reply_next_free = 0

        def flush(mw0, mw1, ready, wf_win, wf_writes):
            """Replay the accesses of instructions ``[mw0, mw1)`` through
            the memory system; returns the cycle the warp resumes at after
            the barrier.
            """
            g0 = m_starts[mw0]
            g1 = m_starts[mw1]
            inj = (np.repeat(np.asarray(ibase[mw0:mw1], dtype=np.int64),
                             counts[mw0:mw1])
                   + A_jpos[g0:g1] * per_access)
            partv = A_part[g0:g1]
            wv_bank = A_bank[g0:g1]
            wv_row = A_row[g0:g1]
            order = np.argsort(partv, kind="stable")
            bounds = np.searchsorted(partv[order], np.arange(P + 1)).tolist()
            load_comps = []
            for p in range(P):
                lo = bounds[p]
                hi = bounds[p + 1]
                if lo == hi:
                    continue
                n = hi - lo
                if n >= _QUEUE_CAPACITY:
                    raise _HandOff("controller queue capacity")
                sel = order[lo:hi]
                idxn = np.arange(n)

                # Forward crossbar: per-partition ingress port recurrence.
                # accept_k = max(inject_k, accept_{k-1} + 1) unrolls to
                # k + max(next_free, max_{j<=k}(inject_j - j)).
                inj_seg = inj[sel]
                acc = idxn + np.maximum(
                    np.maximum.accumulate(inj_seg - idxn),
                    fwd_next_free[p])
                fwd_next_free[p] = int(acc[-1]) + 1
                arr_np = acc + icnt_lat
                # An earlier wavefront's store, or a command slot freeing
                # late, still holds the controller when this wavefront
                # arrives: FR-FCFS would interleave the two.
                if int(arr_np[0]) < part_idle[p]:
                    raise _HandOff("earlier wavefront still in a partition")

                bank_seg = wv_bank[sel]
                row_seg = wv_row[sel]
                if bool(np.all(brow_np[p][bank_seg] == row_seg)):
                    # All-row-hit fast path: every select is a head hit, so
                    # FR-FCFS degenerates to FIFO and absorb-order ties
                    # cannot change service order or timing. Slots strictly
                    # increase, so per-bank CAS state never binds (the
                    # global tCCD chain dominates, and the cross-wavefront
                    # case is covered by the check above):
                    #   cas_k  = max(arr_k, cas_{k-1} + tCCD)
                    #   comp_k = max(cas_k + tCL, comp_{k-1}) + tBURST
                    # — two running-max recurrences in closed form.
                    cas = idxn * t_ccd + np.maximum.accumulate(
                        arr_np - idxn * t_ccd)
                    slot = cas + t_ccd
                    comp = (idxn + 1) * t_burst + np.maximum(
                        np.maximum.accumulate(cas + t_cl - idxn * t_burst),
                        bus_free[p])
                    hits = n
                    qwait = int(comp.sum() - arr_np.sum()) - n * t_burst
                    bus_free[p] = int(comp[-1])
                    part_idle[p] = int(slot[-1])
                    bcas = bank_cas[p]
                    for bk, sl in zip(bank_seg.tolist(), slot.tolist()):
                        bcas[bk] = sl
                else:
                    # FR-FCFS replay: the exact event alternation of
                    # arrivals and command-slot (dslot) events, minus the
                    # heap.
                    arr_l = arr_np.tolist()
                    bank_l = bank_seg.tolist()
                    row_l = row_seg.tolist()
                    brow = bank_row[p]
                    brow_np_p = brow_np[p]
                    bcas = bank_cas[p]
                    bact = bank_act[p]
                    bpre = bank_pre[p]
                    busf = bus_free[p]
                    hits = qwait = 0
                    comp_at = [0] * n
                    queue: List[int] = []
                    queue_append = queue.append
                    i = 0
                    pending = False
                    d = last_s = 0
                    while True:
                        if not pending:
                            if i >= n:
                                break
                            queue_append(i)
                            s = arr_l[i]
                            i += 1
                        else:
                            while i < n:
                                a = arr_l[i]
                                if a >= d:
                                    if a > d:
                                        break
                                    # The arrival lands on the pending
                                    # dslot's cycle. The event whose
                                    # parent ran first was pushed first:
                                    # the last decision's cycle against
                                    # the arrival's inject cycle.
                                    ic = int(inj_seg[i])
                                    if last_s < ic:
                                        break
                                    if last_s == ic:
                                        raise _HandOff(
                                            "same-cycle tie at a controller")
                                queue_append(i)
                                i += 1
                            pending = False
                            if not queue:
                                continue
                            s = d
                        # FR-FCFS select: oldest row hit in the window, else
                        # oldest.
                        qn = len(queue)
                        if qn == 1:
                            k = queue.pop()
                        else:
                            idx = 0
                            lim = (qn if qn < _FRFCFS_WINDOW
                                   else _FRFCFS_WINDOW)
                            for qi in range(lim):
                                kq = queue[qi]
                                if brow[bank_l[kq]] == row_l[kq]:
                                    idx = qi
                                    break
                            k = queue.pop(idx)
                        bk = bank_l[k]
                        rw = row_l[k]
                        if brow[bk] == rw:
                            hits += 1
                            cas = bcas[bk]
                            if s > cas:
                                cas = s
                        else:
                            pre = bcas[bk]
                            x = bpre[bk]
                            if x > pre:
                                pre = x
                            if s > pre:
                                pre = s
                            act = pre + t_rp
                            x = bact[bk]
                            if x > act:
                                act = x
                            bact[bk] = act + t_rc
                            bpre[bk] = act + t_ras
                            brow[bk] = rw
                            brow_np_p[bk] = rw
                            cas = act + t_rcd
                        d = cas + t_ccd
                        bcas[bk] = d
                        drdy = cas + t_cl
                        if busf > drdy:
                            drdy = busf
                        busf = drdy + t_burst
                        comp_at[k] = busf
                        w = drdy - arr_l[k]
                        if w > 0:
                            qwait += w
                        pending = True
                        last_s = s
                    bus_free[p] = busf
                    part_idle[p] = d
                    comp = np.array(comp_at, dtype=np.int64)
                nw = 0
                if wf_writes:
                    w_seg = A_write[g0:g1][sel]
                    nw = int(np.count_nonzero(w_seg))
                    if nw:
                        comp = comp[~w_seg]
                st = dstats[p]
                st.row_hits += hits
                st.row_misses += n - hits
                st.reads += n - nw
                st.writes += nw
                st.bus_busy_cycles += n * t_burst
                st.queue_wait_cycles += qwait
                if nw < n:
                    load_comps.append(comp)
            return self._replies(load_comps, ready, wf_win)

        # -- issue loop -------------------------------------------------------
        sched_free = 0
        ldst_free = 0
        ready = 0
        count_accesses = result.count_accesses
        mi = 0
        wf_m0 = 0
        wf_loads = 0
        wf_writes = False
        wf_win: object = _UNSET
        for ins in instructions:
            if isinstance(ins, ComputeInstruction):
                if wf_loads:
                    ready = flush(wf_m0, mi, ready, wf_win, wf_writes)
                    wf_m0 = mi
                    wf_loads = 0
                    wf_writes = False
                    wf_win = _UNSET
                issue = ready if ready > sched_free else sched_free
                sched_free = issue + issue_cycles
                done = issue + issue_cycles + ins.cycles
                key = (warp_id, ins.round_index)
                wnd = windows.get(key)
                if wnd is None:
                    wnd = RoundWindow()
                    windows[key] = wnd
                wnd.observe_start(issue)
                wnd.observe_end(done)
                ready = done
                continue
            m = mi
            mi += 1
            nb = m_counts[m]
            if m_logged[m] > _PRT_CAPACITY:
                raise ProtocolError("pending request table overflow")
            if not nb:
                raise ProtocolError("memory instruction produced no accesses")
            issue = ready if ready > sched_free else sched_free
            sched_free = issue + issue_cycles
            rix = ins.round_index
            wnd = None
            if rix is not None:
                key = (warp_id, rix)
                wnd = windows.get(key)
                if wnd is None:
                    wnd = RoundWindow()
                    windows[key] = wnd
                wnd.observe_start(issue)
            inject = issue + issue_cycles
            if ldst_free > inject:
                inject = ldst_free
            ibase[m] = inject
            ldst_free = inject + nb * per_access
            count_accesses(warp_id, ins.kind, rix, nb)
            if ins.is_write:
                ready = ldst_free
                wf_writes = True
            else:
                wf_loads += nb
                ready = issue + issue_cycles
                if wf_win is _UNSET:
                    wf_win = wnd
                elif wf_win is not wnd:
                    raise _HandOff("wavefront spans two round windows")

        if wf_m0 < M:
            ready = flush(wf_m0, M, ready, wf_win, wf_writes)
        result.warp_finish[warp_id] = ready
        result.total_cycles = ready
        # A partition's bus frees at its last completion.
        result.drain_cycles = max(ready, *bus_free)
        result.dram_stats = dstats
        return result

    # -- calendar replay: multi-warp and handed-off launches ----------------

    def _replay_calendar(self, programs: Sequence[WarpProgram],
                         sid_maps: Mapping[int, Sequence[int]]
                         ) -> KernelResult:
        """Run the event engine's handlers in its own event order.

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
        W = config.warp_size
        num_sms = config.num_sms
        nsched = config.warp_schedulers_per_sm
        P = config.num_partitions
        B = config.num_banks

        # Validate and coalesce up front: a launch the event engine would
        # reject is its to reject, before anything is simulated.
        warp_ids: List[int] = []
        w_sm: List[int] = []
        w_sched: List[int] = []
        w_ops: List[list] = []
        w_coords = []
        served = np.zeros(P, dtype=np.int64)
        written = np.zeros(P, dtype=np.int64)
        seen = set()
        for program in programs:
            warp_id = program.warp_id
            if warp_id in seen:
                raise UnsupportedLaunch("duplicate warp id")
            seen.add(warp_id)
            sid_source, round_aware = self._sid_source(warp_id, sid_maps)
            mem_instrs = [ins for ins in program.instructions
                          if not isinstance(ins, ComputeInstruction)]
            if mem_instrs:
                (counts, starts, logged, part, bank,
                 row) = self._coalesce_program(mem_instrs, sid_source,
                                               round_aware, W)
                is_write = np.array([ins.is_write for ins in mem_instrs])
                served += np.bincount(part, minlength=P)
                written += np.bincount(
                    part[np.repeat(is_write, counts)], minlength=P)
                # A flat bank index names the partition too.
                w_coords.append(((part * B + bank).astype(np.int32), row))
            else:
                w_coords.append(None)
            # One op per instruction: (True, round, cycles) for compute,
            # (False, round, kind, is_write, accesses, first access,
            # logged lanes) for memory.
            ops = []
            m = 0
            for ins in program.instructions:
                if isinstance(ins, ComputeInstruction):
                    if ins.cycles < 0:
                        # Its warp event would land before the current
                        # cycle, where a FIFO per cycle no longer
                        # follows the heap.
                        raise UnsupportedLaunch("negative compute cycles")
                    ops.append((True, ins.round_index, ins.cycles))
                else:
                    ops.append((False, ins.round_index, ins.kind,
                                ins.is_write, counts[m], starts[m],
                                logged[m]))
                    m += 1
            warp_ids.append(warp_id)
            sm = warp_id % num_sms
            w_sm.append(sm)
            w_sched.append(sm * nsched + (warp_id // num_sms) % nsched)
            w_ops.append(ops)

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

        # Round windows, by index in creation (event) order. Index 0
        # absorbs replies of loads outside any round.
        win_index = {}
        win_start = [0]
        win_end = [-1]

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
                rix = op[1]
                if op[0]:
                    t = issue + issue_cycles + op[2]
                    key = (warp_ids[wi], rix)
                    win = win_index.get(key)
                    if win is None:
                        win = win_index[key] = len(win_start)
                        win_start.append(issue)
                        win_end.append(t)
                    else:
                        if issue < win_start[win]:
                            win_start[win] = issue
                        if t > win_end[win]:
                            win_end[win] = t
                    buckets[t].append(wi << 3 | 5)
                    continue
                _, rix, akind, is_write, nb, lo, logged = op
                if rix is None:
                    win = 0
                else:
                    key = (warp_ids[wi], rix)
                    win = win_index.get(key)
                    if win is None:
                        win = win_index[key] = len(win_start)
                        win_start.append(issue)
                        win_end.append(-1)
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
                pbank, row = w_coords[wi]
                if is_write:
                    win = -1
                for pb, rw in zip(pbank[lo:hi].tolist(),
                                  row[lo:hi].tolist()):
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

        if len(warp_finish) < nw:
            raise ProtocolError("warps never finished: "
                                f"{[w for w in warp_ids if w not in warp_finish]}")
        windows = result.round_windows
        for key, win in win_index.items():
            end = win_end[win]
            windows[key] = RoundWindow(win_start[win],
                                       end if end >= 0 else None)
        result.total_cycles = max(warp_finish.values())
        # A partition's bus frees at its last completion.
        result.drain_cycles = max(result.total_cycles, *bus_free)
        result.dram_stats = [
            DramStats(row_hits=n - miss, row_misses=miss, reads=n - w,
                      writes=w, bus_busy_cycles=n * t_burst,
                      queue_wait_cycles=wait)
            for n, w, miss, wait in zip(served.tolist(), written.tolist(),
                                        misses, qwait)]
        return result


    # -- reply crossbar ------------------------------------------------------

    def _replies(self, load_comps, ready, wf_win):
        """Run the SM ejection-port recurrence over this wavefront's loads
        and return the cycle the warp resumes at.

        ``load_comps`` holds each partition's load completion cycles. The
        reply-cycle *multiset* is invariant under permutation of same-cycle
        completions, so the merged reply order is never materialized: the
        raw completion cycles are sorted and the last accept comes from a
        closed-form running max. The warp resumes at the later of its
        pending warp event and the last reply; when the two fall on one
        cycle, it resumes there whichever event runs first.
        """
        if not load_comps:
            return ready
        c = np.sort(np.concatenate(load_comps))
        total = len(c)
        flits = self._reply_flits
        # accept_j = max(comp_j, accept_{j-1} + flits) unrolls to
        # flits*j + max(next_free, max_{k<=j}(comp_k - flits*k)).
        peak = int((c - flits * np.arange(total)).max())
        nf0 = self._reply_next_free
        accept_last = flits * (total - 1) + (peak if peak > nf0 else nf0)
        last_rc = accept_last + self.config.icnt_latency + flits - 1
        self._reply_next_free = accept_last + flits
        if wf_win is not None:
            e = wf_win.end
            if e is None or last_rc > e:
                wf_win.end = last_rc
        return last_rc if last_rc > ready else ready
