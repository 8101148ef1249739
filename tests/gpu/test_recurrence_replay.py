"""The multi-warp recurrence replay against the calendar replay.

:meth:`BatchedTimingCore._replay_recurrences` times a multi-warp launch
with only warp events on a calendar: the forward-crossbar ports, the
FR-FCFS controllers and the reply ports run as recurrences over inputs
put in the engine's event order by explicit keys. It must equal
:meth:`BatchedTimingCore._replay_calendar` (which runs the engine's own
handlers in the engine's own event order) on every launch it serves, and
hand the launch to the calendar, counted by reason in
``BatchedTimingCore.handoffs``, wherever its keys cannot settle an order.

* A property generates raw warp streams of 2 to 32 warps (partial
  warps, stores, instructions in and out of round windows) on small
  machines (one or two partitions, one to four SMs, short bursts,
  crossbar rates of one to three), where the bus is not the bottleneck
  and row misses are common. A spy (:func:`checked_replays`) replays
  every launch the new path serves on the calendar as well and asserts
  ``==``; the records must equal the event engine's too. The engines'
  differential property (``test_differential.py``) runs the same spy on
  AES launches of up to 8 warps under every policy and address map.
* One crafted launch per order that cycles alone cannot settle: two SMs
  injecting to one partition on one cycle from warp events on one cycle;
  two partitions completing for one SM on one cycle from decisions on one
  cycle, after an idle controller and at a command slot; a reply landing
  on its warp's barrier cycle, with the barrier's warp event first and
  with the reply first.
* Spies on a fig18-shaped 1024-line phase and on the fixed 1024-line case
  show that the new path served every launch and handed none off.
"""

from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.policies import make_policy
from repro.experiments.base import ExperimentContext, collect_records
from repro.gpu.config import DramTiming, GPUConfig
from repro.gpu.engine import GPUSimulator
from repro.gpu.request import AccessKind
from repro.gpu.timed_batch import BatchedTimingCore, _HandOff
from repro.gpu.warp import ComputeInstruction, MemoryInstruction, WarpProgram
from repro.rng import RngStream
from repro.workloads.plaintext import random_plaintexts
from repro.workloads.server import EncryptionServer

FUZZ = settings.get_current_profile_name() == "fuzz"
TIER1 = {} if FUZZ else {"max_examples": 100, "derandomize": True}

#: Why the recurrence replay may decline a launch.
HANDOFF_REASONS = {"zero issue or crossbar latency",
                   "same-cycle tie the order keys do not settle",
                   "controller queue capacity",
                   "values beyond the compact arrays"}


@contextmanager
def checked_replays():
    """Spy on the recurrence replay: every launch it serves is replayed on
    the calendar too and must be equal. Yields the outcome list: True per
    launch served, the reason per launch handed off."""
    outcomes = []
    replay = BatchedTimingCore._replay_recurrences

    def spy(self, launch):
        try:
            result = replay(self, launch)
        except _HandOff as handoff:
            outcomes.append(handoff.args[0])
            raise
        assert result == self._replay_calendar(launch)
        outcomes.append(True)
        return result

    with patch.object(BatchedTimingCore, "_replay_recurrences", spy):
        yield outcomes


@st.composite
def small_machines(draw):
    """One to four SMs, one or two partitions of one to four banks, short
    bursts, crossbar rates of one to three: the bus is rarely the
    bottleneck, rows miss often and events tie often."""
    cycles = st.integers(1, 6)
    return GPUConfig(
        num_sms=draw(st.integers(1, 4)),
        num_partitions=draw(st.integers(1, 2)),
        num_banks=draw(st.integers(1, 4)),
        partition_chunk_bytes=64,
        row_bytes=draw(st.sampled_from([64, 128, 256])),
        core_clock_mhz=924,
        warp_schedulers_per_sm=draw(st.integers(1, 2)),
        issue_cycles=draw(st.integers(1, 3)),
        coalescer_cycles_per_access=draw(st.integers(0, 2)),
        icnt_latency=draw(st.integers(1, 6)),
        icnt_requests_per_cycle=draw(st.integers(1, 3)),
        dram_timing=DramTiming(
            t_cl=draw(cycles), t_rp=draw(cycles), t_rc=draw(cycles),
            t_ras=draw(cycles), t_ccd=draw(cycles), t_rcd=draw(cycles),
            t_burst=draw(st.integers(1, 3))),
    )


@st.composite
def multi_warp_launches(draw):
    """2 to 32 warps of 1 to 3 rounds; a round is a compute instruction of
    0 to 6 cycles, then 1 to 3 loads or stores of 1 to 6 blocks, some with
    a partial active mask."""
    programs = []
    for warp_id in range(draw(st.integers(2, 32))):
        threads = draw(st.sampled_from([32, 32, 32, 7, 31]))
        mask = None if threads == 32 else tuple(lane < threads
                                                for lane in range(32))
        instructions = []
        for rnd in range(1, draw(st.integers(1, 3)) + 1):
            instructions.append(ComputeInstruction(draw(st.integers(0, 6)),
                                                   rnd))
            for _ in range(draw(st.integers(1, 3))):
                blocks = draw(st.lists(st.integers(0, 31), min_size=1,
                                       max_size=6, unique=True))
                is_write = draw(st.integers(0, 9)) < 3
                instructions.append(MemoryInstruction(
                    addresses=tuple(64 * blocks[lane % len(blocks)]
                                    for lane in range(32)),
                    kind=(AccessKind.OUTPUT_STORE if is_write
                          else AccessKind.TABLE_LOAD),
                    round_index=draw(st.sampled_from([rnd] * 4 + [None])),
                    is_write=is_write, active_mask=mask))
        programs.append(WarpProgram(warp_id=warp_id, num_threads=threads,
                                    instructions=instructions))
    return programs


@settings(deadline=None, database=None, **TIER1)
@given(config=small_machines(), programs=multi_warp_launches())
def test_raw_multi_warp_launches_equal_the_calendar(config, programs):
    sid_maps = {program.warp_id: [0] * 32 for program in programs}
    reference = GPUSimulator(config, batched_timing=False).run(programs,
                                                               sid_maps)
    with checked_replays() as outcomes:
        assert GPUSimulator(config).run(programs, sid_maps) == reference
    assert len(outcomes) == 1
    assert outcomes[0] is True or outcomes[0] in HANDOFF_REASONS
    event("served" if outcomes[0] is True else f"handed off: {outcomes[0]}")


def load(address, round_index=1):
    return MemoryInstruction(tuple([address] * 32), AccessKind.TABLE_LOAD,
                             round_index)


def blocks_load(addresses, round_index=1):
    return MemoryInstruction(
        tuple(addresses[lane % len(addresses)] for lane in range(32)),
        AccessKind.TABLE_LOAD, round_index)


def store(addresses):
    return MemoryInstruction(
        tuple(addresses[lane % len(addresses)] for lane in range(32)),
        AccessKind.OUTPUT_STORE, None, is_write=True)


def served_and_equal(config, programs):
    """Run one launch on the core and on the event engine; the new path
    must serve it, hand nothing off and equal both the calendar and the
    engine."""
    sid_maps = {program.warp_id: [0] * 32 for program in programs}
    reference = GPUSimulator(config, batched_timing=False).run(programs,
                                                               sid_maps)
    simulator = GPUSimulator(config)
    with checked_replays() as outcomes:
        assert simulator.run(programs, sid_maps) == reference
    assert outcomes == [True]
    assert simulator._timed_core.handoffs == {}
    return reference


class TestTiesCyclesCannotOrder:
    def test_two_sms_inject_to_one_partition_on_one_cycle(self):
        # Warps 0 and 1 sit on SMs 0 and 1 and issue on cycle 0, so their
        # first injects reach the one partition's port on one cycle: the
        # port takes them in warp-event order.
        config = GPUConfig(num_sms=2, num_partitions=1)
        programs = [WarpProgram(w, 32, [blocks_load([64 * (4 * b + w)
                                                     for b in range(4)]),
                                        ComputeInstruction(3, 1)])
                    for w in range(2)]
        served_and_equal(config, programs)

    @pytest.mark.parametrize("per_partition", [1, 2])
    def test_two_partitions_complete_for_one_sm_on_one_cycle(
            self, per_partition):
        # With no coalescer serialization, one load's injects to the two
        # partitions share a cycle, and so do the two idle controllers'
        # decisions and completions: the reply port orders them by their
        # decisions' parents, the injects. A second access per partition
        # queues behind the first and is decided at the command slot on
        # one cycle in both partitions.
        config = GPUConfig(num_sms=1, num_partitions=2,
                           coalescer_cycles_per_access=0)
        chunks = [256 * c for c in range(2 * per_partition)]
        programs = [WarpProgram(0, 32, [blocks_load(chunks),
                                        ComputeInstruction(3, 1)]),
                    WarpProgram(1, 32, [ComputeInstruction(3, 1)])]
        served_and_equal(config, programs)

    @pytest.mark.parametrize("second, third, order", [
        # The barrier's warp event was pushed on the load's completion
        # cycle, 70: the completion's decision (cycle 10) ran before that
        # event's parent (cycle 36), so the reply runs first and the
        # compute issues on cycle 80 without waiting.
        (32, 8, "reply first"),
        # Pushed on cycle 69, before the completion: the warp event runs
        # first, blocks, and the reply wakes it on the same cycle.
        (31, 9, "warp event first"),
    ])
    def test_a_reply_lands_on_its_warps_barrier_cycle(self, second, third,
                                                      order):
        # Warp 0's load misses (reply on cycle 80); three stores to the
        # other partition push its compute barrier to cycle 80 too.
        config = GPUConfig(num_partitions=2)

        def stores(first, n):
            return store([512 * (first + lane % n) + 256
                          for lane in range(32)])

        programs = [WarpProgram(0, 32, [load(0, round_index=2),
                                        stores(0, 32), stores(64, second),
                                        stores(128, third),
                                        ComputeInstruction(5, 1)]),
                    WarpProgram(1, 32, [ComputeInstruction(3, 1)])]
        result = served_and_equal(config, programs)
        assert result.round_windows[(0, 2)].end == 80
        assert result.round_windows[(0, 1)].start == 80


class TestFig18LaunchesTakeTheNewPath:
    def test_a_fig18_shaped_phase(self):
        ctx = ExperimentContext(root_seed=2018, samples=1, lines=1024)
        calendar = []
        replay = BatchedTimingCore._replay_calendar

        def calendar_spy(self, launch):
            calendar.append(len(launch))
            return replay(self, launch)

        with checked_replays() as outcomes, \
                patch.object(BatchedTimingCore, "_replay_calendar",
                             calendar_spy):
            server, records = collect_records(ctx, make_policy("fss", 8), 1)
        # One launch, served; the one calendar replay is the spy's check.
        assert outcomes == [True]
        assert calendar == [32]
        assert len(records) == 1

    def test_the_fixed_1024_line_case(self):
        key = bytes(RngStream(2018, "key").random_bytes(16))
        plaintext = random_plaintexts(1, 1024, RngStream(2018, "pt"))[0]
        server = EncryptionServer(key, make_policy("rss_rts", 8),
                                  rng=RngStream(2018, "victim"),
                                  retain_kernel_results=True)
        with checked_replays() as outcomes:
            server.encrypt(plaintext)
        assert outcomes == [True]
        assert server.gpu.simulator._timed_core.handoffs == {}
