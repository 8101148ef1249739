"""Wavefront-batched exact timing engine.

:class:`BatchedTimingCore` produces the *same* :class:`KernelResult` as the
discrete-event engine (:class:`repro.gpu.engine.GPUSimulator`) without
dispatching ~5 heap events per coalesced access. It exploits two structural
facts about the simulated machine:

**Wavefront decomposition.** Within one warp, loads stay in flight and only
:class:`~repro.gpu.warp.ComputeInstruction` waits on ``outstanding == 0``,
so the issue stream between two compute barriers is memory-independent: the
issue/coalesce/inject timestamps of every access in that *wavefront* are
pure scheduler arithmetic. When the barrier resolves, every load of the
wavefront has replied — and because a reply trails its DRAM completion by
the reply-crossbar latency while the controller's command slot frees a mere
``tCCD`` after CAS, every partition is fully drained *before* the warp
resumes. Each wavefront therefore sees an empty memory system (bank row
state, bus recurrences and crossbar ports carry over as plain integers),
and the launch is an alternation of vectorized issue phases and independent
per-partition FR-FCFS replays.

**Exact tie resolution without a heap.** The event engine orders events by
``(cycle, seq)`` where ``seq`` is global push order. Push order is exactly
"parent event's processing order, then intra-parent push index", so every
event has an order key ``(cycle, parent_key, index)`` — nested tuples whose
lexicographic order provably equals the heap's ``(cycle, seq)`` order. The
core never materializes these keys on the hot path: the only places a tie
can matter are an arrival landing on the same cycle as a controller's
command-slot event (decided by a one-int compare of the parents' cycles,
with full key reconstruction as the rare second level), same-cycle DRAM
completions from different partitions meeting at the reply port (the reply
*cycle multiset* is permutation-invariant, so order only matters when the
tied accesses feed different round windows — never within a single-round
wavefront), and a barrier resolving on the exact cycle of its last reply.

Coverage contract: the core handles single-warp launches (the shape of
every timed experiment in this repository — 32-line plaintexts are one
warp) with telemetry disabled, including partial warps, stores,
``RoundAwareSidMap`` selective maps and permuted address maps. Anything
else — multi-warp launches, instrumented runs, exotic address maps, or a
wavefront whose store traffic is still queued when the next wavefront
arrives — raises :class:`UnsupportedLaunch` and the caller falls back to
the event engine, which remains the semantic reference.
"""

from __future__ import annotations

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


#: The engine builds its CoalescingUnit/MemoryController with defaults.
_PRT_CAPACITY = 64
_FRFCFS_WINDOW = 64
_QUEUE_CAPACITY = 65536

#: Wavefront window-tracking sentinels (identity-compared).
_UNSET = object()
_MULTI = object()


class BatchedTimingCore:
    """Exact-cycle wavefront replay of one single-warp kernel launch."""

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
        self._last_completion = 0

    @classmethod
    def try_create(cls, config: GPUConfig,
                   address_map: AddressMap) -> Optional["BatchedTimingCore"]:
        try:
            return cls(config, address_map)
        except UnsupportedLaunch:
            return None

    # -- launch-wide vectorized coalesce ------------------------------------

    def _coalesce_program(self, mem_instrs, sid_source, round_aware, W):
        """Coalesce every memory instruction of the launch at once.

        Returns per-instruction access counts/offsets plus flat per-access
        DRAM coordinates, all in the engine's exact generation order:
        groups ascending by sid, blocks in first-touch thread order within
        a group (the contract of ``CoalescingUnit.coalesce``).
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
                part, bank, row,
                np.repeat(np.arange(M), counts).tolist(),
                (np.arange(len(rB)) - np.repeat(starts[:-1],
                                                counts)).tolist())

    # -- the launch ----------------------------------------------------------

    def run(self, programs: Sequence[WarpProgram],
            sid_maps: Mapping[int, Sequence[int]]) -> KernelResult:
        if len(programs) != 1:
            raise UnsupportedLaunch("multi-warp launch")
        config = self.config
        program = programs[0]
        warp_id = program.warp_id
        raw_map = sid_maps.get(warp_id)
        if raw_map is None:
            raise UnsupportedLaunch("missing sid map")
        round_aware = isinstance(raw_map, RoundAwareSidMap)
        if round_aware:
            sid_source = raw_map.for_round
        else:
            sid_source = tuple(raw_map)
        W = config.warp_size
        if (len(raw_map) if round_aware else len(sid_source)) != W:
            raise UnsupportedLaunch("sid map lane count")
        if warp_id // config.num_sms >= config.max_warps_per_sm:
            raise UnsupportedLaunch("SM occupancy")

        instructions = program.instructions
        mem_instrs = [ins for ins in instructions
                      if not isinstance(ins, ComputeInstruction)]
        result = KernelResult(num_warps=1)
        windows = result.round_windows

        if mem_instrs:
            (m_counts, m_starts, m_logged, A_part, A_bank, A_row,
             a_instr, a_jpos) = self._coalesce_program(
                mem_instrs, sid_source, round_aware, W)
        else:
            m_counts = m_starts = m_logged = a_instr = a_jpos = []
            A_part = A_bank = A_row = np.empty(0, dtype=np.int64)

        M = len(mem_instrs)
        m_write = [getattr(ins, "is_write", False) for ins in mem_instrs]
        if M:
            A_write = np.repeat(np.array(m_write, dtype=bool),
                                np.array(m_counts))
        else:
            A_write = np.empty(0, dtype=bool)
        a_write = A_write.tolist()
        m_win: List[Optional[RoundWindow]] = [None] * M
        ibase = [0] * M        # per-instruction first-access inject cycle
        iwkey: List[object] = [None] * M   # warp-event key at issue

        # Timing constants / launch-local machine state -----------------------
        issue_cycles = config.issue_cycles
        per_access = config.coalescer_cycles_per_access
        icnt_lat = config.icnt_latency
        rate = config.icnt_requests_per_cycle
        reply_flits = self._reply_flits
        reply_lat = icnt_lat + reply_flits - 1
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
        fwd_accepted = [0] * P
        self._reply_next_free = 0
        self._last_completion = 0

        def inject_key(g):
            ai = a_instr[g]
            jp = a_jpos[g]
            return (ibase[ai] + jp * per_access, iwkey[ai], jp)

        def dec_key(ctx, di):
            """Order key of the event that triggered decision ``di``.

            ``ctx = (g_l, arr_l, dec_slot, dec_trig)`` of one partition's
            wavefront replay. Keys are ``(cycle, parent_key, push_index)``
            nested tuples — only built on the rare tie paths.

            A ``dec_trig`` of None marks a fast-path (all-row-hit FIFO)
            replay, which never materialized trigger identities; they are
            reconstructed here from the arrival/slot chains: decision j was
            command-slot-triggered iff arrival j was queued (absorbed) when
            slot j-1 freed, which on an exact cycle tie is itself an event
            order comparison.
            """
            g_l, arr_l, dec_slot, dec_trig = ctx
            if dec_trig is not None:
                base = di
                while dec_trig[base] < 0:
                    base -= 1
                k = dec_trig[base]
                g = g_l[k]
                key = (arr_l[k], inject_key(g), 0)
                for j in range(base, di):
                    key = (dec_slot[j], key, 1)
                return key
            # Descend to a definite arrival-triggered base, then ascend;
            # ties are resolved on the way up (the deeper key is at hand).
            steps = []
            j = di
            while j > 0:
                sp = dec_slot[j - 1]
                a = arr_l[j]
                if a > sp:
                    break
                steps.append(j)
                j -= 1
            key = (arr_l[j], inject_key(g_l[j]), 0)
            for j in reversed(steps):
                sp = dec_slot[j - 1]
                if arr_l[j] < sp:
                    key = (sp, key, 1)
                    continue
                ka = inject_key(g_l[j])
                if (ka, 0) < (key, 1):
                    # Arrival beat the slot event: it was absorbed, so the
                    # decision was slot-triggered.
                    key = (sp, key, 1)
                else:
                    key = (arr_l[j], ka, 0)
            return key

        self._dec_key = dec_key

        def flush(g0, g1, mw0, mw1, ready, wkey, wf_win, wf_writes):
            """Replay the accumulated wavefront through the memory system.

            Accesses ``[g0, g1)`` of instructions ``[mw0, mw1)``. Returns
            the warp's (ready cycle, warp-event key) after the barrier:
            unchanged when every reply (if any) lands before the pending
            warp event, else the wake pushed by the zeroing reply.
            """
            if per_access == 1:
                inj = (np.repeat(np.asarray(ibase[mw0:mw1], dtype=np.int64),
                                 np.asarray(m_counts[mw0:mw1]))
                       + np.array(a_jpos[g0:g1], dtype=np.int64))
            else:
                inj = (np.repeat(np.asarray(ibase[mw0:mw1], dtype=np.int64),
                                 np.asarray(m_counts[mw0:mw1]))
                       + np.array(a_jpos[g0:g1], dtype=np.int64)
                       * per_access)
            partv = A_part[g0:g1]
            wv_bank = A_bank[g0:g1]
            wv_row = A_row[g0:g1]
            order = np.argsort(partv, kind="stable")
            sortedp = partv[order]
            bounds = np.searchsorted(sortedp, np.arange(P + 1))
            part_data = []
            for p in range(P):
                lo = int(bounds[p])
                hi = int(bounds[p + 1])
                if lo == hi:
                    continue
                sel = order[lo:hi]
                n = hi - lo
                idxn = np.arange(n)

                # Forward crossbar: per-partition ingress port recurrence.
                # accept_k = max(inject_k, accept_{k-1} + 1) unrolls to
                # k + max(next_free, max_{j<=k}(inject_j - j)).
                if rate == 1:
                    inj_seg = inj[sel]
                    acc = idxn + np.maximum(
                        np.maximum.accumulate(inj_seg - idxn),
                        fwd_next_free[p])
                    fwd_next_free[p] = int(acc[-1]) + 1
                    arr_np = acc + icnt_lat
                else:
                    nf = fwd_next_free[p]
                    ct = fwd_accepted[p]
                    arr_l = []
                    append_arr = arr_l.append
                    for c in inj[sel].tolist():
                        a0 = nf if nf > c else c
                        ct += 1
                        nf = a0 + 1 if ct % rate == 0 else a0
                        append_arr(a0 + icnt_lat)
                    fwd_next_free[p] = nf
                    fwd_accepted[p] = ct
                    arr_np = np.asarray(arr_l, dtype=np.int64)
                # A prior wavefront's store may still be queued when this
                # wavefront arrives: cross-wavefront FR-FCFS interleaving
                # the per-wavefront replay cannot express.
                if int(arr_np[0]) < part_idle[p]:
                    raise UnsupportedLaunch("store drain overlaps wavefront")

                bank_seg = wv_bank[sel]
                row_seg = wv_row[sel]
                careful = n >= _QUEUE_CAPACITY
                if not careful and bool(
                        np.all(brow_np[p][bank_seg] == row_seg)):
                    # All-row-hit fast path: every select is a head hit, so
                    # FR-FCFS degenerates to FIFO and absorb-order ties
                    # cannot change service order or timing. Slots strictly
                    # increase, so per-bank CAS state never binds (the
                    # global tCCD chain dominates, and the cross-wavefront
                    # case is covered by the drain check above):
                    #   cas_k  = max(arr_k, cas_{k-1} + tCCD)
                    #   comp_k = max(cas_k + tCL, comp_{k-1}) + tBURST
                    # — two running-max recurrences in closed form.
                    cas = idxn * t_ccd + np.maximum.accumulate(
                        arr_np - idxn * t_ccd)
                    slot = cas + t_ccd
                    comp = (idxn + 1) * t_burst + np.maximum(
                        np.maximum.accumulate(cas + t_cl - idxn * t_burst),
                        bus_free[p])
                    qwait = int(comp.sum() - arr_np.sum()) - n * t_burst
                    bus_free[p] = int(comp[-1])
                    part_idle[p] = int(slot[-1])
                    slot_l = slot.tolist()
                    bcas = bank_cas[p]
                    for bk, sl in zip(bank_seg.tolist(), slot_l):
                        bcas[bk] = sl
                    g_l = (sel + g0).tolist()
                    comps_c = comp.tolist()
                    if wf_writes:
                        nw = int(np.count_nonzero(A_write[g0:g1][sel]))
                    else:
                        nw = 0
                    st = dstats[p]
                    st.row_hits += n
                    st.reads += n - nw
                    st.writes += nw
                    st.bus_busy_cycles += n * t_burst
                    st.queue_wait_cycles += qwait
                    if comps_c[-1] > self._last_completion:
                        self._last_completion = comps_c[-1]
                    part_data.append((g_l, arr_np.tolist(), slot_l, None,
                                      comps_c, range(n), nw))
                    continue

                arr_l = arr_np.tolist()
                g_l = (sel + g0).tolist()
                bank_l = bank_seg.tolist()
                row_l = row_seg.tolist()

                # FR-FCFS replay: the exact event alternation of arrivals
                # and command-slot (dslot) events, minus the heap.
                brow = bank_row[p]
                brow_np_p = brow_np[p]
                bcas = bank_cas[p]
                bact = bank_act[p]
                bpre = bank_pre[p]
                busf = bus_free[p]
                hits = misses = qwait = 0
                queue: List[int] = []
                queue_append = queue.append
                ctx = None
                i = 0
                pending = False
                d = 0
                last_s = 0
                dec_slot: List[int] = []
                dec_trig: List[int] = []
                comps_c: List[int] = []
                comps_k: List[int] = []
                while True:
                    if not pending:
                        if i >= n:
                            break
                        queue_append(i)
                        s = arr_l[i]
                        trig = i
                        i += 1
                    else:
                        while i < n:
                            a = arr_l[i]
                            if a >= d:
                                if a > d:
                                    break
                                # Same-cycle tie: does the arrival's event
                                # key precede the pending dslot's? First
                                # level is the parents' cycles — the last
                                # decision's trigger cycle vs this
                                # arrival's inject cycle.
                                g = g_l[i]
                                ai = a_instr[g]
                                ic = ibase[ai] + a_jpos[g] * per_access
                                if last_s != ic:
                                    if last_s < ic:
                                        break
                                else:
                                    if ctx is None:
                                        ctx = (g_l, arr_l, dec_slot,
                                               dec_trig)
                                    if ((dec_key(ctx, len(dec_slot) - 1), 1)
                                            < ((ic, iwkey[ai],
                                                a_jpos[g]), 0)):
                                        break
                            if careful and len(queue) >= _QUEUE_CAPACITY:
                                raise ProtocolError(
                                    "memory controller queue overflow")
                            queue_append(i)
                            i += 1
                        pending = False
                        if not queue:
                            continue
                        s = d
                        trig = -1
                    # FR-FCFS select: oldest row hit in the window, else
                    # oldest.
                    qn = len(queue)
                    if qn == 1:
                        k = queue.pop()
                    else:
                        idx = 0
                        lim = qn if qn < _FRFCFS_WINDOW else _FRFCFS_WINDOW
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
                        misses += 1
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
                    slot = cas + t_ccd
                    bcas[bk] = slot
                    drdy = cas + t_cl
                    if busf > drdy:
                        drdy = busf
                    comp = drdy + t_burst
                    busf = comp
                    w = drdy - arr_l[k]
                    if w > 0:
                        qwait += w
                    comps_c.append(comp)
                    comps_k.append(k)
                    dec_slot.append(slot)
                    dec_trig.append(trig)
                    pending = True
                    d = slot
                    last_s = s

                bus_free[p] = busf
                part_idle[p] = d
                if wf_writes:
                    nw = int(np.count_nonzero(A_write[g0:g1][sel]))
                else:
                    nw = 0
                st = dstats[p]
                st.row_hits += hits
                st.row_misses += misses
                st.reads += n - nw
                st.writes += nw
                st.bus_busy_cycles += n * t_burst
                st.queue_wait_cycles += qwait
                if comps_c[-1] > self._last_completion:
                    self._last_completion = comps_c[-1]
                part_data.append((g_l, arr_l, dec_slot, dec_trig,
                                  comps_c, comps_k, nw))
            return self._replies(part_data, ready, wkey, wf_win,
                                 wf_writes, reply_flits, reply_lat,
                                 a_write, m_win, a_instr)

        # -- issue loop -------------------------------------------------------
        sched_free = 0
        ldst_free = 0
        ready = 0
        wkey: object = (0, (), 0)
        count_accesses = result.count_accesses
        mi = 0
        wf_g0 = 0
        wf_m0 = 0
        wf_loads = 0
        wf_writes = False
        wf_win: object = _UNSET
        for ins in instructions:
            if isinstance(ins, ComputeInstruction):
                if wf_loads:
                    ready, wkey = flush(wf_g0, m_starts[mi], wf_m0, mi,
                                        ready, wkey, wf_win, wf_writes)
                    wf_g0 = m_starts[mi]
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
                wkey = (done, wkey, 0)
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
            if rix is not None:
                key = (warp_id, rix)
                wnd = windows.get(key)
                if wnd is None:
                    wnd = RoundWindow()
                    windows[key] = wnd
                wnd.observe_start(issue)
                m_win[m] = wnd
            inject = issue + issue_cycles
            if ldst_free > inject:
                inject = ldst_free
            ibase[m] = inject
            iwkey[m] = wkey
            ldst_free = inject + nb * per_access
            count_accesses(ins.kind, rix, nb)
            if m_write[m]:
                ready = ldst_free
                wf_writes = True
            else:
                wf_loads += nb
                ready = issue + issue_cycles
                w = m_win[m]
                if wf_win is _UNSET:
                    wf_win = w
                elif wf_win is not w:
                    wf_win = _MULTI
            wkey = (ready, wkey, nb)

        total = m_starts[M] if M else 0
        if wf_g0 < total:
            had_loads = wf_loads > 0
            end_ready, _end_key = flush(wf_g0, total, wf_m0, M,
                                        ready, wkey, wf_win, wf_writes)
            finish = end_ready if had_loads else ready
        else:
            finish = ready
        result.warp_finish[warp_id] = finish
        result.total_cycles = finish
        result.drain_cycles = (finish if finish > self._last_completion
                               else self._last_completion)
        result.dram_stats = dstats
        return result

    # -- reply crossbar ------------------------------------------------------

    def _replies(self, part_data, ready, wkey, wf_win, wf_writes,
                 reply_flits, reply_lat, a_write, m_win, a_instr):
        """Run the SM ejection-port recurrence over this wavefront's loads.

        The reply-cycle *multiset* is invariant under permutation of
        same-cycle completions, so the common path never materializes the
        merged reply order: it sorts raw completion cycles and computes the
        final accept with a closed-form running max. Identity (which access
        got which cycle) is reconstructed only for the last reply (the
        barrier wake) and, via :meth:`_replies_exact`, for the rare
        wavefront whose loads span several round windows.
        """
        if not part_data:
            return ready, wkey
        if wf_win is _MULTI:
            return self._replies_exact(part_data, ready, wkey,
                                       reply_flits, reply_lat, a_write,
                                       m_win, a_instr)
        load_comps = []
        for pd in part_data:
            comps_c, comps_k, nw = pd[4], pd[5], pd[6]
            if not nw:
                load_comps.append(comps_c)
            elif nw < len(comps_c):
                g_l = pd[0]
                load_comps.append(
                    [c for c, k in zip(comps_c, comps_k)
                     if not a_write[g_l[k]]])
        total = sum(len(c) for c in load_comps)
        if not total:
            return ready, wkey
        if len(load_comps) == 1:
            c = np.asarray(load_comps[0], dtype=np.int64)
        else:
            c = np.sort(np.concatenate(
                [np.asarray(x, dtype=np.int64) for x in load_comps]))
        # accept_j = max(comp_j, accept_{j-1} + flits) unrolls to
        # flits*j + max(next_free, max_{k<=j}(comp_k - flits*k)).
        peak = int((c - reply_flits * np.arange(total)).max())
        nf0 = self._reply_next_free
        accept_last = (reply_flits * (total - 1)
                       + (peak if peak > nf0 else nf0))
        last_rc = accept_last + reply_lat
        self._reply_next_free = accept_last + reply_flits
        if wf_win is not None:
            e = wf_win.end
            if e is None or last_rc > e:
                wf_win.end = last_rc
        if last_rc < ready:
            return ready, wkey
        dec_key = self._dec_key
        c_max = int(c[-1])
        cands = []
        for pd in part_data:
            g_l, comps_c, comps_k, nw = pd[0], pd[4], pd[5], pd[6]
            j = len(comps_c) - 1
            if nw:
                while j >= 0 and a_write[g_l[comps_k[j]]]:
                    j -= 1
            if j >= 0 and comps_c[j] == c_max:
                cands.append((pd, j))
        if len(cands) == 1:
            pd, j = cands[0]
        else:
            # Same-cycle final completions: the last reply belongs to the
            # last one in true dram-event order.
            pd, j = max(cands, key=lambda e: dec_key(e[0][:4], e[1]))
        rkey = (last_rc, (c_max, dec_key(pd[:4], j), 0), 0)
        if last_rc == ready and not rkey > wkey:
            return ready, wkey
        return last_rc, (last_rc, rkey, 0)

    def _replies_exact(self, part_data, ready, wkey,
                       reply_flits, reply_lat, a_write, m_win, a_instr):
        """Per-reply replay in true merged order (multi-window wavefront).

        Same-cycle completions from different partitions are reordered by
        their reconstructed dram-event keys, so each round window sees the
        exact reply cycles the event engine would give it.
        """
        dec_key = self._dec_key
        merged = []
        for pdi, pd in enumerate(part_data):
            g_l, comps_c, comps_k = pd[0], pd[4], pd[5]
            for j, comp in enumerate(comps_c):
                g = g_l[comps_k[j]]
                if not a_write[g]:
                    merged.append((comp, pdi, j, g))
        if not merged:
            return ready, wkey
        merged.sort(key=lambda e: e[0])
        run = 0
        for j in range(1, len(merged) + 1):
            if j == len(merged) or merged[j][0] != merged[run][0]:
                if j - run > 1 and len({e[1] for e in merged[run:j]}) > 1:
                    seg = merged[run:j]
                    seg.sort(key=lambda e: dec_key(part_data[e[1]][:4],
                                                   e[2]))
                    merged[run:j] = seg
                run = j
        nf = self._reply_next_free
        rc = 0
        for comp, pdi, j, g in merged:
            a0 = comp if comp > nf else nf
            nf = a0 + reply_flits
            rc = a0 + reply_lat
            wnd = m_win[a_instr[g]]
            if wnd is not None:
                e = wnd.end
                if e is None or rc > e:
                    wnd.end = rc
        last_rc = rc
        self._reply_next_free = nf
        comp, pdi, j, _g = merged[-1]
        if last_rc > ready:
            blocked = True
        elif last_rc < ready:
            blocked = False
        else:
            rkey = (last_rc, (comp, dec_key(part_data[pdi][:4], j), 0), 0)
            blocked = rkey > wkey
        if blocked:
            rkey = (last_rc, (comp, dec_key(part_data[pdi][:4], j), 0), 0)
            return last_rc, (last_rc, rkey, 0)
        return ready, wkey
