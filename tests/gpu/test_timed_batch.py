"""Batched exact timing core: golden parity and edge cases.

The parity battery compares the *full* :class:`KernelResult` — total and
drain cycles, warp finish times, access counts, round windows and
per-partition DRAM statistics — between ``batched_timing=True`` and
``batched_timing=False`` servers, across every policy, subwarp sizes,
seeds, partial warps, selective ``RoundAwareSidMap`` assignments and
multi-warp launches up to 32 warps. The two paths share nothing below
``GPUSimulator.run``, so equality here is the engine-parity contract the
default engine selection rides on. Single-warp launches take the core's
wavefront path, multi-warp launches its recurrence replay (or the
calendar replay, for a launch that replay hands off); a spy asserts that
the core, not an event-engine fallback, served each launch.

The edge-case classes drive the core directly on launches the AES battery
cannot produce: write-only store streams (stores retire at LD/ST egress
and generate no replies), a single-partition machine (degenerate
wavefronts — every access lands in one FR-FCFS queue), and
``icnt_requests_per_cycle > 1`` forward-crossbar rate semantics. Each has
a multi-warp case whose warps share an SM, and so its schedulers, LD/ST
egress and reply port.

``TestHandOffs`` holds one single-warp launch per reason the wavefront path
hands a launch to the calendar replay: a spy on ``_replay_calendar`` shows
the hand-off, the core's ``handoffs`` counter names its reason, and the
records must still be the engine's. A default paper-sized phase must hand
off nothing.

``TestRowMissSegments`` holds single-warp launches built around the
wavefront path's row-miss segments: a segment whose last miss is its last
access, a bank that sees two rows, a tail of hits longer than the FR-FCFS
window, and one batch in which one launch is handed off on a tie while
the others finish through their tails.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.selective import SelectiveRCoalPolicy
from repro.experiments.base import ExperimentContext, collect_records
from repro.experiments.checkpoint import CheckpointStore, campaign_fingerprint
from repro.experiments.runner import CampaignStats, SupervisionPolicy
from repro.faults import parse_fault_plan
from repro.gpu.address import CIPHERTEXT_REGION_BASE, AddressMap
from repro.gpu.config import DramTiming, GPUConfig
from repro.errors import ConfigurationError
from repro.gpu.engine import GPUSimulator
from repro.gpu.interconnect import Crossbar
from repro.gpu.request import AccessKind
from repro.gpu.timed_batch import BatchedTimingCore, UnsupportedLaunch
from repro.gpu.warp import (
    ComputeInstruction,
    MemoryInstruction,
    SampleBatch,
    WarpProgram,
)
from repro.rng import RngStream
from repro.workloads.plaintext import random_plaintexts
from repro.workloads.server import EncryptionServer


def assert_kernel_results_equal(golden, batched):
    """Field-by-field KernelResult equality with readable failures."""
    assert batched.total_cycles == golden.total_cycles
    assert batched.drain_cycles == golden.drain_cycles
    assert batched.warp_finish == golden.warp_finish
    assert batched.access_counts == golden.access_counts
    assert batched.round_accesses == golden.round_accesses
    assert batched.last_round_loads == golden.last_round_loads
    golden_windows = sorted((key, w.start, w.end)
                            for key, w in golden.round_windows.items())
    batched_windows = sorted((key, w.start, w.end)
                             for key, w in batched.round_windows.items())
    assert batched_windows == golden_windows
    def dram(result):
        return [(d.row_hits, d.row_misses, d.reads, d.writes,
                 d.bus_busy_cycles, d.queue_wait_cycles)
                for d in result.dram_stats]
    assert dram(batched) == dram(golden)
    assert batched.metrics == golden.metrics


def encrypt_both(policy, seed=2018, lines=32, config=None):
    """One encryption under each engine; returns (golden, batched)."""
    key = bytes(RngStream(seed, "key").random_bytes(16))
    plaintext = random_plaintexts(1, lines, RngStream(seed, "pt"))[0]
    results = []
    for batched_timing in (False, True):
        rng = (RngStream(seed, "victim") if policy.is_randomized
               else None)
        server = EncryptionServer(key, policy, config=config, rng=rng,
                                  retain_kernel_results=True,
                                  batched_timing=batched_timing)
        results.append(server.encrypt(plaintext).kernel_result)
    return results


@pytest.fixture
def core_runs(monkeypatch):
    """Spy on the core's two entries: one entry per launch, True when the
    core simulated it, False when the core raised ``UnsupportedLaunch``
    (and the engine replayed it on the event path). ``run`` takes one
    launch of warp programs; ``run_samples`` takes a batch of launches
    and adds one entry per launch of the batch."""
    outcomes = []
    run = BatchedTimingCore.run
    run_samples = BatchedTimingCore.run_samples

    def spy(self, programs, sid_maps):
        try:
            result = run(self, programs, sid_maps)
        except UnsupportedLaunch:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return result

    def batch_spy(self, batch):
        try:
            results = run_samples(self, batch)
        except UnsupportedLaunch:
            outcomes.extend([False] * batch.num_samples)
            raise
        outcomes.extend([True] * len(results))
        return results

    monkeypatch.setattr(BatchedTimingCore, "run", spy)
    monkeypatch.setattr(BatchedTimingCore, "run_samples", batch_spy)
    return outcomes


@pytest.fixture
def calendar_runs(monkeypatch):
    """Spy on ``BatchedTimingCore._replay_calendar``: the warp count of
    every launch it replayed."""
    warps = []
    replay = BatchedTimingCore._replay_calendar

    def spy(self, launch):
        warps.append(len(launch))
        return replay(self, launch)

    monkeypatch.setattr(BatchedTimingCore, "_replay_calendar", spy)
    return warps


class TestGoldenParity:
    """Every stock-machine launch, of one warp or of many, must run on
    the core — a core that fell back on every launch would otherwise
    compare the event engine with itself and pass."""

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_every_policy(self, policy_name, core_runs):
        golden, batched = encrypt_both(make_policy(policy_name, 8))
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]

    @pytest.mark.parametrize("subwarps", [1, 2, 4, 16, 32])
    def test_subwarp_sweep(self, subwarps, core_runs):
        golden, batched = encrypt_both(make_policy("rss_rts", subwarps))
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]

    @pytest.mark.parametrize("seed", [0, 7, 99, 777])
    def test_seed_sweep(self, seed, core_runs):
        golden, batched = encrypt_both(make_policy("fss_rts", 4),
                                       seed=seed)
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]

    @pytest.mark.parametrize("lines", [1, 7, 17, 31])
    def test_partial_warps(self, lines, core_runs):
        golden, batched = encrypt_both(make_policy("rss", 8), lines=lines)
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]

    @pytest.mark.parametrize("base,subwarps", [("rss_rts", 8), ("fss", 4)])
    def test_selective_round_aware_maps(self, base, subwarps, core_runs):
        policy = SelectiveRCoalPolicy(make_policy(base, subwarps))
        golden, batched = encrypt_both(policy)
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]

    def test_multi_warp_launch_runs_on_the_core(self, core_runs):
        # 64 lines = two warps: the recurrence replay serves them.
        golden, batched = encrypt_both(make_policy("rss_rts", 8),
                                       lines=64)
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]

    @pytest.mark.parametrize("lines", [33, 480])
    def test_multi_warp_partial_and_full_launches(self, lines, core_runs):
        # A partial second warp; fifteen warps, one per SM.
        golden, batched = encrypt_both(make_policy("fss_rts", 4),
                                       lines=lines)
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]

    def test_fig18_shaped_1024_line_launch(self, core_runs):
        # 32 warps on 15 SMs: warps share SMs, schedulers, LD/ST egress
        # and reply ports, and contend for every partition.
        golden, batched = encrypt_both(make_policy("rss_rts", 8),
                                       lines=1024)
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]

    def test_occupancy_overflow_still_raises(self, core_runs):
        # Two warps on one single-slot SM: the core declines the launch
        # and the event engine rejects it, as before the core existed.
        config = GPUConfig(num_sms=1, max_warps_per_sm=1)
        key = bytes(RngStream(2018, "key").random_bytes(16))
        plaintext = random_plaintexts(1, 64, RngStream(2018, "pt"))[0]
        server = EncryptionServer(key, make_policy("baseline"),
                                  config=config)
        with pytest.raises(ConfigurationError, match="SM occupancy"):
            server.encrypt(plaintext)
        assert core_runs == [False]


class TestDefaultPhasesRunOnTheCore:
    """A default-context timed phase sends every 32-line sample through
    the core once, however it is scheduled: a silent fallback would keep
    the records equal and only make the phase slower. Under a fault plan
    too, so chaos runs exercise the engine a default run uses."""

    SAMPLES = 4

    @pytest.mark.parametrize("form", ["plain", "checkpoint", "supervised"])
    def test_every_sample_runs_on_the_core_once(self, form, core_runs,
                                                 tmp_path):
        ctx = ExperimentContext(root_seed=2018, samples=self.SAMPLES)
        campaign = CampaignStats()
        if form == "checkpoint":
            ctx = ctx.with_(checkpoint=CheckpointStore.open(
                tmp_path / "run", campaign_fingerprint("unit", ctx, False)))
        elif form == "supervised":
            ctx = ctx.with_(supervision=SupervisionPolicy(backoff_base=0.0),
                            faults=parse_fault_plan("raise@1"),
                            campaign=campaign)
        _, records = collect_records(ctx, make_policy("rss_rts", 8),
                                     self.SAMPLES)
        assert len(records) == self.SAMPLES
        assert core_runs == [True] * self.SAMPLES
        # The fault fired, and the retry re-simulated on the core.
        assert campaign.retries == (form == "supervised")

    @pytest.mark.parametrize("form", ["plain", "checkpoint", "supervised"])
    def test_every_multi_warp_sample_runs_on_the_core_once(
            self, form, core_runs, tmp_path):
        # 64-line samples: two warps per launch, on the recurrence replay.
        ctx = ExperimentContext(root_seed=2018, samples=self.SAMPLES,
                                lines=64)
        campaign = CampaignStats()
        if form == "checkpoint":
            ctx = ctx.with_(checkpoint=CheckpointStore.open(
                tmp_path / "run", campaign_fingerprint("unit", ctx, False)))
        elif form == "supervised":
            ctx = ctx.with_(supervision=SupervisionPolicy(backoff_base=0.0),
                            faults=parse_fault_plan("raise@1"),
                            campaign=campaign)
        _, records = collect_records(ctx, make_policy("rss_rts", 8),
                                     self.SAMPLES)
        assert len(records) == self.SAMPLES
        assert core_runs == [True] * self.SAMPLES
        assert campaign.retries == (form == "supervised")


def run_both(core_runs, config, *programs):
    """Run one launch under each engine; asserts, through the
    ``core_runs`` spy, that the core served it."""
    sid_maps = {program.warp_id: [0] * config.warp_size
                for program in programs}
    golden = GPUSimulator(config, batched_timing=False).run(programs,
                                                            sid_maps)
    calls = len(core_runs)
    batched = GPUSimulator(config, batched_timing=True).run(programs,
                                                            sid_maps)
    assert core_runs[calls:] == [True], \
        "the batched core should serve this launch"
    return golden, batched


def store_instruction(address_map, request_size=16, first_line=0):
    return MemoryInstruction(
        addresses=tuple(
            address_map.line_address(CIPHERTEXT_REGION_BASE,
                                     first_line + lane)
            for lane in range(32)),
        kind=AccessKind.OUTPUT_STORE, round_index=None, is_write=True,
        request_size=request_size)


def load_instruction(address_map, table_id=0, stride=7, round_index=1):
    return MemoryInstruction(
        addresses=tuple(
            address_map.table_entry_address(table_id, (lane * stride) % 256)
            for lane in range(32)),
        kind=AccessKind.TABLE_LOAD, round_index=round_index,
        request_size=4)


class TestStoreOnlyStreams:
    """Stores retire at LD/ST egress: no replies, no warp blocking."""

    def test_single_store(self, core_runs):
        config = GPUConfig()
        program = WarpProgram(warp_id=0, num_threads=32, instructions=[
            store_instruction(AddressMap(config))])
        golden, batched = run_both(core_runs, config, program)
        assert_kernel_results_equal(golden, batched)

    def test_store_compute_store(self, core_runs):
        # A compute barrier between stores must not wait on them —
        # only loads raise ``outstanding``.
        config = GPUConfig()
        store = store_instruction(AddressMap(config))
        program = WarpProgram(warp_id=0, num_threads=32, instructions=[
            store, ComputeInstruction(40, 1), store])
        golden, batched = run_both(core_runs, config, program)
        assert_kernel_results_equal(golden, batched)
        # The warp finishes at its last issue, while drain waits for the
        # store traffic still in the memory system.
        assert batched.drain_cycles >= batched.total_cycles

    def test_store_counts_as_write_in_dram_stats(self, core_runs):
        config = GPUConfig()
        program = WarpProgram(warp_id=0, num_threads=32, instructions=[
            store_instruction(AddressMap(config))])
        _, batched = run_both(core_runs, config, program)
        assert sum(d.writes for d in batched.dram_stats) > 0
        assert sum(d.reads for d in batched.dram_stats) == 0

    def test_warps_sharing_an_sm_store_in_turn(self, core_runs):
        # Two SMs, four warps: warps 0 and 2 share SM 0's LD/ST egress,
        # warps 1 and 3 share SM 1's.
        config = GPUConfig(num_sms=2)
        address_map = AddressMap(config)
        programs = [WarpProgram(warp_id=w, num_threads=32, instructions=[
            store_instruction(address_map, first_line=32 * w),
            ComputeInstruction(40, 1),
            store_instruction(address_map, first_line=32 * w + 128)])
            for w in range(4)]
        golden, batched = run_both(core_runs, config, *programs)
        assert_kernel_results_equal(golden, batched)
        assert sum(d.reads for d in batched.dram_stats) == 0


class TestSinglePartitionLaunch:
    """One partition: every wavefront degenerates to one FR-FCFS queue."""

    def test_loads_and_stores_agree(self, core_runs):
        config = GPUConfig(num_partitions=1)
        address_map = AddressMap(config)
        program = WarpProgram(warp_id=0, num_threads=32, instructions=[
            load_instruction(address_map, stride=11),
            ComputeInstruction(40, 1),
            load_instruction(address_map, table_id=1, stride=3,
                             round_index=2),
            ComputeInstruction(40, 2),
            store_instruction(address_map)])
        golden, batched = run_both(core_runs, config, program)
        assert_kernel_results_equal(golden, batched)
        assert len(batched.dram_stats) == 1

    def test_full_encryption_single_partition(self):
        golden, batched = encrypt_both(make_policy("rss_rts", 8), lines=8,
                                       config=GPUConfig(num_partitions=1))
        assert_kernel_results_equal(golden, batched)

    def test_multi_warp_loads_and_stores_agree(self, core_runs):
        # Warps 0 and 2 share SM 0; warps 1 and 5 share SM 1 and its
        # first scheduler (slots 0 and 2).
        config = GPUConfig(num_partitions=1, num_sms=2)
        address_map = AddressMap(config)
        programs = [WarpProgram(warp_id=w, num_threads=32, instructions=[
            load_instruction(address_map, stride=11 + 2 * w),
            ComputeInstruction(40, 1),
            load_instruction(address_map, table_id=w % 5, stride=3,
                             round_index=2),
            ComputeInstruction(40, 2),
            store_instruction(address_map, first_line=32 * w)])
            for w in (0, 1, 2, 5)]
        golden, batched = run_both(core_runs, config, *programs)
        assert_kernel_results_equal(golden, batched)
        assert len(batched.dram_stats) == 1

    def test_multi_warp_encryption_single_partition(self, core_runs):
        golden, batched = encrypt_both(
            make_policy("rss_rts", 8), lines=96,
            config=GPUConfig(num_partitions=1, num_sms=2))
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]


class TestIcntRateSemantics:
    """``icnt_requests_per_cycle > 1`` forward-port accept semantics."""

    def test_crossbar_accepts_rate_packets_per_cycle(self):
        crossbar = Crossbar(num_ports=1, latency=8, requests_per_cycle=2)
        # Two single-flit packets are accepted on the same cycle; the
        # third slips one cycle; then the pattern repeats.
        accepts = [crossbar.traverse(0, 0) - 8 for _ in range(5)]
        assert accepts == [0, 0, 1, 1, 2]

    def test_rate_resets_only_after_full_group(self):
        crossbar = Crossbar(num_ports=1, latency=0, requests_per_cycle=3)
        accepts = [crossbar.traverse(0, 0) for _ in range(7)]
        assert accepts == [0, 0, 0, 1, 1, 1, 2]

    def test_multiflit_packet_still_occupies_port(self):
        crossbar = Crossbar(num_ports=1, latency=0, requests_per_cycle=2)
        first = crossbar.traverse(0, 0, flits=3)
        assert first == 2  # 0 + latency + flits - 1
        # The port is busy until cycle 3 regardless of the rate group.
        assert crossbar.traverse(0, 0) == 3

    def test_engine_parity_at_rate_two(self, core_runs):
        config = GPUConfig(icnt_requests_per_cycle=2)
        address_map = AddressMap(config)
        program = WarpProgram(warp_id=0, num_threads=32, instructions=[
            load_instruction(address_map, stride=13),
            ComputeInstruction(40, 1),
            load_instruction(address_map, table_id=2, stride=5,
                             round_index=2),
            ComputeInstruction(40, 2),
            store_instruction(address_map)])
        golden, batched = run_both(core_runs, config, program)
        assert_kernel_results_equal(golden, batched)

    def test_full_encryption_at_rate_two(self):
        golden, batched = encrypt_both(
            make_policy("nocoal"),
            config=GPUConfig(icnt_requests_per_cycle=2))
        assert_kernel_results_equal(golden, batched)

    @pytest.mark.parametrize("rate", [2, 3])
    def test_multi_warp_parity_at_higher_rates(self, rate, core_runs):
        # Six warps on three SMs: two per SM, one per scheduler.
        config = GPUConfig(icnt_requests_per_cycle=rate, num_sms=3)
        address_map = AddressMap(config)
        programs = [WarpProgram(warp_id=w, num_threads=32, instructions=[
            load_instruction(address_map, stride=13 + w),
            ComputeInstruction(40, 1),
            load_instruction(address_map, table_id=2, stride=5 + w,
                             round_index=2),
            ComputeInstruction(40, 2),
            store_instruction(address_map, first_line=32 * w)])
            for w in range(6)]
        golden, batched = run_both(core_runs, config, *programs)
        assert_kernel_results_equal(golden, batched)

    def test_multi_warp_encryption_at_rate_two(self, core_runs):
        golden, batched = encrypt_both(
            make_policy("nocoal"), lines=128,
            config=GPUConfig(icnt_requests_per_cycle=2, num_sms=2))
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]


def tiny_machine(icnt_latency=8, num_banks=1, row_blocks=2, **timing):
    """One SM and one partition with ``num_banks`` banks (64 B chunks
    round-robin over them), ``row_blocks`` 64 B blocks per row, equal core
    and memory clocks and one-cycle DRAM timings unless ``timing`` says
    otherwise: events tie often."""
    cycles = dict(t_cl=1, t_rp=1, t_rcd=1, t_ccd=1, t_rc=1, t_ras=1,
                  t_burst=1)
    cycles.update(timing)
    return GPUConfig(num_sms=1, num_partitions=1, num_banks=num_banks,
                     core_clock_mhz=924, partition_chunk_bytes=64,
                     row_bytes=64 * row_blocks, icnt_latency=icnt_latency,
                     dram_timing=DramTiming(**cycles))


def blocks_instruction(blocks, round_index=1, is_write=False):
    """A 32-lane instruction whose lanes touch the 64 B ``blocks`` in
    turn, so it coalesces to one access per block, in that order."""
    return MemoryInstruction(
        addresses=tuple(64 * blocks[lane % len(blocks)]
                        for lane in range(32)),
        kind=AccessKind.OUTPUT_STORE if is_write else AccessKind.TABLE_LOAD,
        round_index=round_index, is_write=is_write)


class TestHandOffs:
    """Single-warp launches whose event order cycles alone cannot settle:
    the wavefront path hands each to the calendar replay, which serves it
    from scratch, and the core counts it under its reason."""

    @staticmethod
    def assert_handed_off(core_runs, calendar_runs, config, reason,
                          *instructions):
        program = WarpProgram(warp_id=0, num_threads=32,
                              instructions=list(instructions))
        sid_maps = {0: [0] * config.warp_size}
        golden = GPUSimulator(config, batched_timing=False).run([program],
                                                                sid_maps)
        simulator = GPUSimulator(config)
        batched = simulator.run([program], sid_maps)
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [True]
        assert calendar_runs == [1]
        assert simulator._timed_core.handoffs == {reason: 1}

    def test_a_default_paper_phase_hands_off_no_sample(self, monkeypatch):
        # 100 timed 32-line rss_rts M=16 samples, the paper's protocol:
        # cycles settle every event order, so the calendar replays none.
        cores = []
        run_samples = BatchedTimingCore.run_samples

        def spy(self, batch):
            cores.append(self)
            return run_samples(self, batch)

        monkeypatch.setattr(BatchedTimingCore, "run_samples", spy)
        ctx = ExperimentContext(root_seed=2018, samples=100)
        _, records = collect_records(ctx, make_policy("rss_rts", 16), 100)
        assert len(records) == 100 and cores
        assert [core.handoffs for core in cores] == [{}] * len(cores)

    def test_same_cycle_tie(self, core_runs, calendar_runs):
        # Blocks 0, 2, 4, 6 are four rows of the one bank. The first
        # access arrives at cycle s and opens its row, so the command
        # slot frees at s + tRP + tRCD + tCCD = s + 3. The fourth access
        # was injected at s and arrives then too (icnt_latency 3): the
        # arrival and the slot event tie, and so do their parents.
        self.assert_handed_off(
            core_runs, calendar_runs,
            tiny_machine(icnt_latency=3), "same-cycle tie at a controller",
            blocks_instruction([0, 2, 4, 6]), ComputeInstruction(1, 1))

    def test_wavefront_spanning_two_round_windows(self, core_runs,
                                                  calendar_runs):
        # Which window a tied reply closes depends on the merged reply
        # order, which cycles alone do not give.
        self.assert_handed_off(
            core_runs, calendar_runs, GPUConfig(),
            "wavefront spans two round windows",
            blocks_instruction([0, 1]),
            blocks_instruction([5], round_index=2),
            ComputeInstruction(1, 2))

    def test_store_drain(self, core_runs, calendar_runs):
        # Four stores to four rows of the one bank wait tRC = 8 cycles
        # between activates, so they still hold the controller when the
        # load after the barrier arrives; the barrier waited only for the
        # first load.
        self.assert_handed_off(
            core_runs, calendar_runs, tiny_machine(t_rc=8),
            "earlier wavefront still in a partition",
            blocks_instruction([0]),
            blocks_instruction([2, 4, 6, 8], round_index=None,
                               is_write=True),
            ComputeInstruction(0, 1),
            blocks_instruction([1], round_index=2))

    def test_rate_two(self, core_runs, calendar_runs):
        self.assert_handed_off(
            core_runs, calendar_runs,
            GPUConfig(icnt_requests_per_cycle=2),
            "forward-crossbar rate above one",
            blocks_instruction([0, 1, 7]), ComputeInstruction(1, 1))


def sample_batch(programs):
    """One :class:`SampleBatch` of single-warp launches of one shape, each
    launch's lane addresses taken from its program."""
    memory = [[ins.addresses for ins in program.instructions
               if isinstance(ins, MemoryInstruction)] for program in programs]
    return SampleBatch(
        instructions=tuple(replace(ins, addresses=())
                           if isinstance(ins, MemoryInstruction) else ins
                           for ins in programs[0].instructions),
        addresses=np.array(memory, dtype=np.int64)[:, None],
        sids=np.zeros((len(programs), 1, 1, 32), dtype=np.int64),
        num_threads=32, sid_maps=[{0: [0] * 32}] * len(programs),
        programs=lambda s: [programs[s]])


class TestRowMissSegments:
    """A (launch, partition) segment with a row miss: the FR-FCFS loop
    serves it only until its last miss, and the all-hit closed forms serve
    the row hits left (its tail), for every segment of a flush at once.
    Each launch must equal the event engine's; the DRAM statistics pin the
    shape each case is built to have."""

    @staticmethod
    def assert_wavefront_serves(core_runs, calendar_runs, config,
                                *instructions):
        """Run one single-warp launch on both engines: equal results, and
        the wavefront path served it (no hand-off, no calendar replay).
        Returns the partition's DRAM statistics."""
        program = WarpProgram(warp_id=0, num_threads=32,
                              instructions=list(instructions))
        sid_maps = {0: [0] * 32}
        golden = GPUSimulator(config, batched_timing=False).run([program],
                                                                sid_maps)
        simulator = GPUSimulator(config)
        assert_kernel_results_equal(golden,
                                    simulator.run([program], sid_maps))
        assert core_runs == [True]
        assert calendar_runs == []
        assert simulator._timed_core.handoffs == {}
        (dram,) = golden.dram_stats
        return dram.row_misses, dram.row_hits

    def test_last_miss_is_the_last_access(self, core_runs, calendar_runs):
        # Blocks 0 and 2 share bank 0's row 0, block 1 is bank 1's row 0.
        # Block 0 opens its row, block 2 then hits ahead of block 1, and
        # block 1's miss is served last: the tail is empty.
        assert self.assert_wavefront_serves(
            core_runs, calendar_runs, tiny_machine(num_banks=2),
            blocks_instruction([0, 2, 1]), ComputeInstruction(1, 1)) \
            == (2, 1)

    def test_a_bank_seeing_two_rows_has_no_tail(self, core_runs,
                                                 calendar_runs):
        # Blocks 0 and 4 are rows 0 and 1 of bank 0: the loop serves the
        # whole segment, the hits after the last miss included.
        assert self.assert_wavefront_serves(
            core_runs, calendar_runs, tiny_machine(num_banks=2),
            blocks_instruction([0, 4, 2, 1, 3, 5]),
            ComputeInstruction(1, 1)) == (4, 2)

    def test_a_tail_longer_than_the_frfcfs_window(self, core_runs,
                                                   calendar_runs):
        # Block 0 opens bank 0's row, and the 95 odd blocks all lie in
        # bank 1's row 0. Each activate takes tRP + tRCD = 80 cycles, so
        # 80 accesses are queued when block 1's miss, the last, is served;
        # the other 94 hits form the tail. With tCCD above tBURST their
        # command slots, not the bus, set when they complete.
        odd = list(range(1, 191, 2))
        assert self.assert_wavefront_serves(
            core_runs, calendar_runs,
            tiny_machine(num_banks=2, row_blocks=128, t_rp=40, t_rcd=40,
                         t_ccd=2),
            blocks_instruction([0] + odd[:31]),
            blocks_instruction(odd[31:63]), blocks_instruction(odd[63:]),
            ComputeInstruction(1, 1)) == (2, 94)

    def test_a_tie_hands_off_one_launch_of_a_slab(self, core_runs,
                                                  calendar_runs):
        # Launch 1's first wavefront ties as in TestHandOffs'
        # test_same_cycle_tie (blocks 0, 2, 4, 6: four rows of the one
        # bank). In the same flush the other launches each miss once and
        # serve the rest as a tail, and they run a second wavefront
        # without it. The handed-off launch's share of the flush must not
        # disturb theirs: the reply port packs every launch's completions
        # into one sort.
        config = tiny_machine(icnt_latency=3)
        programs = [
            WarpProgram(warp_id=0, num_threads=32, instructions=[
                blocks_instruction(first), blocks_instruction(second),
                ComputeInstruction(1, 1), blocks_instruction(third, 2),
                ComputeInstruction(1, 2)])
            for first, second, third in [([0, 1], [1, 0], [3]),
                                         ([0, 2, 4, 6], [8], [9]),
                                         ([2, 3], [3, 2], [2, 4]),
                                         ([5, 4], [4], [5])]]
        golden = [GPUSimulator(config, batched_timing=False).run(
            [program], {0: [0] * 32}) for program in programs]
        simulator = GPUSimulator(config)
        batched = list(simulator.run_samples(sample_batch(programs)))
        for expected, result in zip(golden, batched):
            assert_kernel_results_equal(expected, result)
        assert core_runs == [True] * 4
        assert calendar_runs == [1]
        assert simulator._timed_core.handoffs == {
            "same-cycle tie at a controller": 1}


class TestEngineSelection:
    @pytest.mark.parametrize("batched_timing", [False, True])
    def test_flag_selects_the_core(self, batched_timing):
        simulator = GPUSimulator(batched_timing=batched_timing)
        simulator.run([WarpProgram(warp_id=0, num_threads=32)], {0: [0] * 32})
        assert (simulator._timed_core is not None) is batched_timing

    @pytest.mark.parametrize("warps", [1, 2])
    def test_negative_addresses_replay_on_the_engine(self, warps,
                                                     core_runs):
        # Their DRAM row is -1, the core's closed-row sentinel: the core
        # declines them, so the records stay the engine's.
        load = MemoryInstruction(
            addresses=tuple(-64 * (lane + 1) for lane in range(32)),
            kind=AccessKind.TABLE_LOAD, round_index=1)
        programs = [WarpProgram(warp_id=w, num_threads=32, instructions=[
            load, ComputeInstruction(40, 1), load]) for w in range(warps)]
        sid_maps = {w: [0] * 32 for w in range(warps)}
        golden = GPUSimulator(batched_timing=False).run(programs, sid_maps)
        batched = GPUSimulator(batched_timing=True).run(programs, sid_maps)
        assert_kernel_results_equal(golden, batched)
        assert core_runs == [False]

    @pytest.mark.parametrize("warps", [1, 2])
    def test_negative_latency_is_the_engines_error(self, warps, core_runs):
        # The event engine's crossbar cannot run it, so GPUConfig rejects
        # it before any launch: the core never times such a machine.
        with pytest.raises(ConfigurationError, match="icnt_latency"):
            GPUSimulator(GPUConfig(icnt_latency=-1),
                         batched_timing=True).run(
                [WarpProgram(warp_id=w, num_threads=32)
                 for w in range(warps)],
                {w: [0] * 32 for w in range(warps)})
        assert core_runs == []

    def test_telemetry_falls_back(self):
        from repro.telemetry import Telemetry

        simulator = GPUSimulator(telemetry=Telemetry(),
                                 batched_timing=True)
        simulator.run([WarpProgram(warp_id=0, num_threads=32)], {0: [0] * 32})
        assert simulator._timed_core is None

    def test_the_journal_names_the_engine_that_runs(self, tmp_path,
                                                    core_runs):
        # Telemetry keeps timed launches on the event engine, so an
        # instrumented timed phase journals "event"; the counts core
        # records telemetry itself, so counts phases stay "batched".
        from repro.telemetry import Telemetry
        from repro.telemetry.journal import RunJournal

        policy = make_policy("rss_rts", 8)
        engines = {}
        for instrumented in (False, True):
            journal = RunJournal(tmp_path / f"{instrumented}.jsonl")
            ctx = ExperimentContext(
                root_seed=2018, samples=2, journal=journal,
                telemetry=Telemetry() if instrumented else None)
            collect_records(ctx, policy, 2)
            collect_records(ctx, policy, 2, counts_only=True)
            engines[instrumented] = [
                (event["counts_only"], event["engine"])
                for event in journal.read() if event["kind"] == "phase_start"]
        assert engines == {
            False: [(False, "batched_timing"), (True, "batched")],
            True: [(False, "event"), (True, "batched")],
        }
        # Only the uninstrumented timed phase reached the core.
        assert core_runs == [True, True]
