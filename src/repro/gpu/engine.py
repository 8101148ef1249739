"""The discrete-event GPU kernel simulator.

:class:`GPUSimulator` executes a set of :class:`~repro.gpu.warp.WarpProgram`
instances against the configured machine: warps issue through their SM's
schedulers, memory instructions pass the coalescing unit (grouped by the
per-warp subwarp-id map supplied by a coalescing policy), accesses traverse
the forward crossbar to their memory partition, get serviced by the FR-FCFS
GDDR5 model, and replies return over the reply crossbar to unblock the warp.

The engine is policy-agnostic: it consumes only a ``sid_map`` per warp (the
thread → subwarp-id assignment of Fig 11). Policies that produce those maps
live in :mod:`repro.core.policies`, keeping the substrate reusable.

:class:`GPUSimulator` is also where the engine is chosen. An uninstrumented
simulator on the stock or permuted address map hands its launches to the
batched exact-timing core (:mod:`repro.gpu.timed_batch`): :meth:`GPUSimulator.run`
one launch of warp programs, :meth:`GPUSimulator.run_samples` a whole
:class:`~repro.gpu.warp.SampleBatch` of same-shape launches (how every timed
AES sample arrives). Launches the core does not cover, and every launch of
an instrumented simulator or one built with ``batched_timing=False``, run
here event by event, one launch at a time.

Event kinds, in processing order per cycle: warp issue, coalescer egress
("inject"), partition arrival, DRAM completion, reply delivery. Events are
totally ordered by (cycle, sequence number), so runs are deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.gpu.address import AddressMap
from repro.gpu.coalescer import CoalescingUnit
from repro.gpu.config import GPUConfig
from repro.gpu.dram import MemoryController
from repro.gpu.interconnect import Crossbar
from repro.gpu.request import MemoryAccess
from repro.gpu.scheduler import SchedulerSet
from repro.gpu.stats import KernelResult, RoundWindow
from repro.gpu.warp import ComputeInstruction, SampleBatch, WarpProgram
from repro.telemetry import PID_ICNT, Telemetry, get_logger

__all__ = ["GPUSimulator", "KernelResult", "RoundAwareSidMap"]

log = get_logger(__name__)


@dataclass
class _SMState:
    """Per-SM runtime state."""

    schedulers: SchedulerSet
    coalescer: CoalescingUnit
    ldst_free: int = 0


class RoundAwareSidMap:
    """A subwarp-id map that varies by AES round.

    Models the selective-RCoal hardware of the paper's Section VII: the
    coalescing unit can swap sid tables between rounds, protecting only
    the vulnerable code (e.g. the last round) and running the efficient
    single-subwarp mapping elsewhere. ``default`` covers instructions
    outside any round window (e.g. the output store).
    """

    def __init__(self, per_round: Mapping[int, Sequence[int]],
                 default: Sequence[int]):
        self._per_round = {r: tuple(m) for r, m in per_round.items()}
        self._default = tuple(default)
        lengths = {len(self._default)}
        lengths.update(len(m) for m in self._per_round.values())
        if len(lengths) != 1:
            raise ConfigurationError(
                "all per-round sid maps must cover the same lane count"
            )

    def __len__(self) -> int:
        return len(self._default)

    def __iter__(self):
        return iter(self._default)

    def for_round(self, round_index: Optional[int]) -> Tuple[int, ...]:
        if round_index is None:
            return self._default
        return self._per_round.get(round_index, self._default)


@dataclass
class _WarpState:
    """Per-warp runtime state.

    ``instructions``, ``scheduler`` and ``round_aware`` duplicate state
    reachable through ``program``/the SM, resolved once at launch: the
    warp handler runs once per instruction, so a method call plus a
    modulo (scheduler lookup) and an isinstance dispatch (sid-map
    resolution) per event are measurable against the simulator's
    throughput.
    """

    program: WarpProgram
    sm_id: int
    slot: int
    sid_map: object  # Tuple[int, ...] or RoundAwareSidMap
    instructions: Sequence[object] = ()
    scheduler: object = None
    #: True when ``sid_map`` varies by round (RoundAwareSidMap).
    round_aware: bool = False
    pc: int = 0
    outstanding: int = 0
    #: True while stalled at a barrier (compute / end) draining loads.
    waiting: bool = False
    finished: bool = False


class GPUSimulator:
    """Executes kernel launches on the simulated GPU.

    Parameters
    ----------
    config:
        Machine description (defaults reproduce the paper's Table I).
    """

    def __init__(self, config: Optional[GPUConfig] = None,
                 address_map: Optional[AddressMap] = None,
                 telemetry: Optional[Telemetry] = None,
                 batched_timing: bool = True):
        self.config = config or GPUConfig()
        self.address_map = address_map or AddressMap(self.config)
        #: Observability sink; the disabled null object by default, so the
        #: hot path pays one boolean check per instrumentation site.
        self.telemetry = Telemetry.ensure(telemetry)
        #: False keeps every launch on the event engine, the reference
        #: the wavefront core is tested against.
        self._batched_timing = batched_timing
        self._timed_core = None
        self._timed_core_resolved = False

    def _core(self):
        """The batched timing core, resolved once, lazily; None when every
        launch runs on the event engine.

        The core only covers uninstrumented launches; any launch it
        cannot reproduce exactly raises ``UnsupportedLaunch`` at run time
        and falls back to the event path.
        """
        if not self._timed_core_resolved:
            self._timed_core_resolved = True
            if self._batched_timing and not self.telemetry.enabled:
                from repro.gpu.timed_batch import BatchedTimingCore

                self._timed_core = BatchedTimingCore.try_create(
                    self.config, self.address_map)
        return self._timed_core

    def run(
        self,
        programs: Sequence[WarpProgram],
        sid_maps: Mapping[int, Sequence[int]],
    ) -> KernelResult:
        """Simulate one kernel launch.

        Parameters
        ----------
        programs:
            One warp program per warp (warp ids must be unique).
        sid_maps:
            ``warp_id -> per-thread subwarp id``; every warp needs a map
            covering all ``config.warp_size`` lanes. The baseline machine is
            expressed as the all-zeros map (one subwarp per warp).
        """
        if not programs:
            raise ConfigurationError("a kernel launch needs at least one warp")
        core = self._core()
        if core is not None:
            from repro.gpu.timed_batch import UnsupportedLaunch

            try:
                return core.run(programs, sid_maps)
            except UnsupportedLaunch:
                # The core mutated no engine-visible state; replay the
                # launch on the event path from scratch.
                pass
        return self._simulate(programs, sid_maps)

    def run_samples(self, batch: SampleBatch) -> Iterator[KernelResult]:
        """Simulate every launch of a :class:`SampleBatch`; yields their
        results in order.

        The timing core takes the whole batch when it can. Without a core
        (instrumented runs, ``batched_timing=False``, an address map the
        core cannot decode) each launch is one :meth:`run`; when the core
        declines the batch, each is replayed on the event engine. On the
        event engine each result is yielded as its launch finishes, so a
        caller reports progress launch by launch.
        """
        core = self._core()
        if core is None:
            return (self.run(batch.programs(s), batch.sid_maps[s])
                    for s in range(batch.num_samples))
        from repro.gpu.timed_batch import UnsupportedLaunch

        try:
            return iter(core.run_samples(batch))
        except UnsupportedLaunch:
            # Nothing the core computed is kept.
            return (self._simulate(batch.programs(s), batch.sid_maps[s])
                    for s in range(batch.num_samples))

    def _simulate(self, programs: Sequence[WarpProgram],
                  sid_maps: Mapping[int, Sequence[int]]) -> KernelResult:
        """The event engine: simulate one launch event by event."""
        config = self.config
        telemetry = self.telemetry
        # Resolved once per launch: None on the uninstrumented hot path, so
        # per-event sites cost a single identity check.
        tracer = telemetry.tracer if telemetry.enabled else None
        trace_base = tracer.time_base if tracer is not None else 0
        tele_arg = telemetry if telemetry.enabled else None
        # Cost-center counters, bound once per launch (None when off so the
        # hot path pays a single identity check, like ``tracer``).
        if telemetry.enabled:
            ctr_serialize = telemetry.metrics.counter(
                "coalescer.serialize_cycles")
            ctr_ldst_wait = telemetry.metrics.counter(
                "coalescer.ldst_wait_cycles")
        else:
            ctr_serialize = ctr_ldst_wait = None
        timing = config.dram_timing_core
        controllers = [
            MemoryController(config.num_banks, timing, telemetry=tele_arg,
                             partition_id=p)
            for p in range(config.num_partitions)
        ]
        forward = Crossbar(config.num_partitions, config.icnt_latency,
                           config.icnt_requests_per_cycle,
                           telemetry=tele_arg, name="fwd")
        reply_net = Crossbar(config.num_sms, config.icnt_latency,
                             config.icnt_requests_per_cycle,
                             telemetry=tele_arg, name="reply")
        sms = [
            _SMState(
                schedulers=SchedulerSet(config.warp_schedulers_per_sm,
                                        config.issue_cycles),
                coalescer=CoalescingUnit(config.access_bytes,
                                         telemetry=tele_arg),
            )
            for _ in range(config.num_sms)
        ]

        warps: Dict[int, _WarpState] = {}
        for program in programs:
            if program.warp_id in warps:
                raise ConfigurationError(
                    f"duplicate warp id {program.warp_id}"
                )
            raw_map = sid_maps[program.warp_id]
            sid_map = (raw_map if isinstance(raw_map, RoundAwareSidMap)
                       else tuple(raw_map))
            if len(sid_map) != config.warp_size:
                raise ConfigurationError(
                    f"sid map for warp {program.warp_id} covers "
                    f"{len(sid_map)} lanes, expected {config.warp_size}"
                )
            sm_id = program.warp_id % config.num_sms
            slot = program.warp_id // config.num_sms
            if slot >= config.max_warps_per_sm:
                raise ConfigurationError(
                    "too many warps for the configured SM occupancy"
                )
            warps[program.warp_id] = _WarpState(
                program=program, sm_id=sm_id, slot=slot, sid_map=sid_map,
                instructions=program.instructions,
                scheduler=sms[sm_id].schedulers.for_warp(slot),
                round_aware=isinstance(sid_map, RoundAwareSidMap),
            )

        # A 64 B data reply spans multiple flits at the SM's ejection port.
        reply_flits = 1 + -(-config.access_bytes // config.icnt_flit_bytes)

        result = KernelResult(num_warps=len(warps))
        events: List[Tuple[int, int, str, object]] = []
        seq = itertools.count()
        # Launch-local access ids, assigned in generation order: the same
        # access gets the same id on every rerun and in every worker
        # process, giving traced events a stable join key (attribution).
        next_uid = itertools.count().__next__
        last_completion = 0

        # Hot-path locals: the event loop dispatches ~5 events per coalesced
        # access, so global/attribute lookups inside the handlers are a
        # measurable fraction of simulation time. Bind them once per launch.
        # Event *push order is behaviour*: events are totally ordered by
        # (cycle, seq), so any reordering of pushes reorders same-cycle ties
        # and changes FR-FCFS decisions — optimizations here must keep every
        # push exactly where it was.
        heappush = heapq.heappush
        heappop = heapq.heappop
        next_seq = seq.__next__
        issue_cycles = config.issue_cycles
        per_access = config.coalescer_cycles_per_access
        partition_of = self.address_map.partition_of
        decode = self.address_map.decode
        forward_traverse = forward.traverse
        reply_traverse = reply_net.traverse
        windows = result.round_windows

        def push(cycle: int, tag: str, payload: object) -> None:
            heappush(events, (cycle, next_seq(), tag, payload))

        for warp_id in warps:
            push(0, "warp", warp_id)

        def handle_warp(warp_id: int, cycle: int) -> None:
            warp = warps[warp_id]
            instructions = warp.instructions
            if warp.pc >= len(instructions):
                if warp.outstanding > 0:
                    warp.waiting = True
                    return
                warp.finished = True
                result.warp_finish[warp_id] = cycle
                if tracer is not None:
                    tracer.instant("warp_finish", "warp",
                                   trace_base + cycle, tid=warp_id)
                return
            instruction = instructions[warp.pc]
            # Loads are independent within a round and stay in flight
            # (memory-level parallelism); compute consumes their results,
            # so it acts as the scoreboard barrier.
            is_compute = isinstance(instruction, ComputeInstruction)
            if is_compute and warp.outstanding > 0:
                warp.waiting = True
                return
            warp.pc += 1
            sm = sms[warp.sm_id]
            issue = warp.scheduler.issue_at(cycle)
            round_index = instruction.round_index

            if is_compute:
                done = issue + issue_cycles + instruction.cycles
                key = (warp_id, round_index)
                window = windows.get(key)
                if window is None:
                    window = RoundWindow()
                    windows[key] = window
                window.observe_start(issue)
                window.observe_end(done)
                if tracer is not None:
                    tracer.complete("compute", "warp", trace_base + issue,
                                    done - issue, tid=warp_id,
                                    args={"round": round_index})
                push(done, "warp", warp_id)
                return

            # Not compute => MemoryInstruction (programs hold nothing else).
            if round_index is not None:
                key = (warp_id, round_index)
                window = windows.get(key)
                if window is None:
                    window = RoundWindow()
                    windows[key] = window
                window.observe_start(issue)

            # Lane->sid resolution: one flag check instead of an
            # isinstance dispatch per memory instruction.
            sid_map = warp.sid_map
            if warp.round_aware:
                sid_map = sid_map.for_round(round_index)
            groups = sm.coalescer.coalesce(
                instruction.addresses,
                sid_map,
                request_size=instruction.request_size,
                active_mask=instruction.active_mask,
            )
            num_blocks = 0
            kind = instruction.kind
            is_write = instruction.is_write
            sm_id = warp.sm_id
            inject = max(issue + issue_cycles, sm.ldst_free)
            for group in groups:
                for block_address in group.block_addresses:
                    access = MemoryAccess(block_address, kind, warp_id,
                                          sm_id, round_index, is_write,
                                          uid=next_uid())
                    access.inject_cycle = inject
                    heappush(events,
                             (inject, next_seq(), "inject", access))
                    inject += per_access
                    num_blocks += 1
            if not num_blocks:
                raise ProtocolError("memory instruction produced no accesses")
            result.count_accesses(warp_id, kind, round_index, num_blocks)
            sm.ldst_free = inject

            if tracer is not None:
                tracer.complete(
                    "coalesce", "coalescer", trace_base + issue,
                    sm.ldst_free - issue, tid=warp_id,
                    args={"round": round_index,
                          "kind": kind.value,
                          "accesses": num_blocks,
                          "subwarps": len(groups)},
                )
                # Egress serialization (one LD/ST slot per coalesced block)
                # vs waiting behind an earlier instruction's egress.
                ctr_serialize.inc(num_blocks * per_access)
                ctr_ldst_wait.inc(sm.ldst_free - num_blocks * per_access
                                  - issue - issue_cycles)

            if is_write:
                # Stores retire at LD/ST egress; the warp does not wait.
                push(sm.ldst_free, "warp", warp_id)
            else:
                warp.outstanding += num_blocks
                # The warp keeps issuing: the next instruction may enter
                # the pipeline while these loads are in flight.
                push(issue + issue_cycles, "warp", warp_id)

        # -- main loop --------------------------------------------------------
        # Tags ordered by event frequency (~1 warp event per instruction vs
        # one inject/arrive/dram/dslot/reply each per coalesced access).
        # The per-access events are handled inline: dispatching ~5 handler
        # calls per coalesced access is a measurable slice of simulation
        # time. Tracing adds two guarded records and pushes nothing, so a
        # traced launch takes the same path as an untraced one. Event
        # *push order is behaviour* (see above): keep every heappush where
        # it is.
        while events:
            cycle, _seq, tag, payload = heappop(events)
            if tag == "inject":
                partition_id = partition_of(payload.address)
                arrival = forward_traverse(partition_id, cycle)
                if tracer is not None:
                    tracer.complete("fwd_xbar", "interconnect",
                                    trace_base + cycle, arrival - cycle,
                                    pid=PID_ICNT, tid=partition_id,
                                    args={"warp": payload.warp_id,
                                          "uid": payload.uid,
                                          "round": payload.round_index})
                heappush(events, (arrival, next_seq(), "arrive",
                                  (partition_id, payload)))
            elif tag == "arrive":
                partition_id, access = payload
                access.arrival_cycle = cycle
                controller = controllers[partition_id]
                controller.enqueue(access, decode(access.address), cycle)
                if not controller.busy:
                    started = controller.start_next(cycle)
                    if started is not None:
                        started_access, completion, next_slot = started
                        heappush(events, (completion, next_seq(), "dram",
                                          (partition_id, started_access)))
                        heappush(events, (next_slot, next_seq(), "dslot",
                                          partition_id))
            elif tag == "dram":
                _partition_id, access = payload
                access.complete_cycle = cycle
                if cycle > last_completion:
                    last_completion = cycle
                if not access.is_write:
                    reply_cycle = reply_traverse(access.sm_id, cycle,
                                                 flits=reply_flits)
                    if tracer is not None:
                        tracer.complete("reply_xbar", "interconnect",
                                        trace_base + cycle,
                                        reply_cycle - cycle,
                                        pid=PID_ICNT, tid=access.sm_id,
                                        args={"warp": access.warp_id,
                                              "uid": access.uid,
                                              "round": access.round_index})
                    heappush(events, (reply_cycle, next_seq(), "reply",
                                      access))
            elif tag == "dslot":
                controller = controllers[payload]
                controller.release()
                if not controller.busy:
                    started = controller.start_next(cycle)
                    if started is not None:
                        started_access, completion, next_slot = started
                        heappush(events, (completion, next_seq(), "dram",
                                          (payload, started_access)))
                        heappush(events, (next_slot, next_seq(), "dslot",
                                          payload))
            elif tag == "reply":
                access = payload
                warp = warps[access.warp_id]
                round_index = access.round_index
                if round_index is not None:
                    # The window exists: the issuing instruction created it.
                    window = windows[(access.warp_id, round_index)]
                    if window.end is None or cycle > window.end:
                        window.end = cycle
                outstanding = warp.outstanding - 1
                warp.outstanding = outstanding
                if outstanding < 0:
                    raise ProtocolError(
                        "reply for a warp with no pending load")
                if outstanding == 0 and warp.waiting:
                    warp.waiting = False
                    heappush(events, (cycle, next_seq(), "warp",
                                      access.warp_id))
            elif tag == "warp":
                handle_warp(payload, cycle)  # type: ignore[arg-type]
            else:  # pragma: no cover - defensive
                raise ProtocolError(f"unknown event tag {tag!r}")

        unfinished = [w for w, s in warps.items() if not s.finished]
        if unfinished:
            raise ProtocolError(f"warps never finished: {unfinished}")

        result.total_cycles = max(result.warp_finish.values())
        result.drain_cycles = max(result.total_cycles, last_completion)
        result.dram_stats = [c.stats for c in controllers]

        if telemetry.enabled:
            metrics = telemetry.metrics
            metrics.counter("sim.kernels").inc()
            metrics.counter("sim.warps").inc(len(warps))
            metrics.counter("sim.cycles").inc(result.total_cycles)
            metrics.counter("sched.stall_cycles").inc(
                sum(sm.schedulers.total_stall_cycles for sm in sms))
            round_hist = metrics.histogram("warp.round_cycles")
            for (warp_id, round_index), window in \
                    sorted(result.round_windows.items()):
                if window.start is None or window.end is None:
                    continue
                round_hist.observe(window.duration)
                if tracer is not None:
                    tracer.complete("round", "warp",
                                    trace_base + window.start,
                                    window.duration, tid=warp_id,
                                    args={"round": round_index})
            if tracer is not None:
                tracer.instant("kernel_end", "sim",
                               trace_base + result.drain_cycles,
                               args={"total_cycles": result.total_cycles})
                # Lay successive kernels end-to-end on the trace timeline.
                tracer.advance_time_base(result.drain_cycles)
            result.metrics = metrics.snapshot()
            log.debug("kernel done: %d warps, %d cycles, %d accesses",
                      len(warps), result.total_cycles,
                      result.total_accesses)
        return result
