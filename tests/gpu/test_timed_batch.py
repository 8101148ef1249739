"""Wavefront-batched exact timing engine: golden parity and edge cases.

The parity battery compares the *full* :class:`KernelResult` — total and
drain cycles, warp finish times, access counts, round windows and
per-partition DRAM statistics — between ``batched_timing=True`` and
``batched_timing=False`` servers, across every policy, subwarp sizes,
seeds, partial warps and selective ``RoundAwareSidMap`` assignments. The
two paths share nothing below ``GPUSimulator.run``, so equality here is
the engine-parity contract the default engine selection rides on.

The edge-case classes drive the core directly on launches the AES battery
cannot produce: write-only store streams (stores retire at LD/ST egress
and generate no replies), a single-partition machine (degenerate
wavefronts — every access lands in one FR-FCFS queue), and
``icnt_requests_per_cycle > 1`` forward-crossbar rate semantics.
"""

import pytest

from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.selective import SelectiveRCoalPolicy
from repro.gpu.address import CIPHERTEXT_REGION_BASE, AddressMap
from repro.gpu.config import GPUConfig
from repro.gpu.engine import GPUSimulator
from repro.gpu.interconnect import Crossbar
from repro.gpu.request import AccessKind
from repro.gpu.timed_batch import BatchedTimingCore, UnsupportedLaunch
from repro.gpu.warp import (
    ComputeInstruction,
    MemoryInstruction,
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


class TestGoldenParity:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_every_policy(self, policy_name):
        golden, batched = encrypt_both(make_policy(policy_name, 8))
        assert_kernel_results_equal(golden, batched)

    @pytest.mark.parametrize("subwarps", [1, 2, 4, 16, 32])
    def test_subwarp_sweep(self, subwarps):
        golden, batched = encrypt_both(make_policy("rss_rts", subwarps))
        assert_kernel_results_equal(golden, batched)

    @pytest.mark.parametrize("seed", [0, 7, 99, 777])
    def test_seed_sweep(self, seed):
        golden, batched = encrypt_both(make_policy("fss_rts", 4),
                                       seed=seed)
        assert_kernel_results_equal(golden, batched)

    @pytest.mark.parametrize("lines", [1, 7, 17, 31])
    def test_partial_warps(self, lines):
        golden, batched = encrypt_both(make_policy("rss", 8), lines=lines)
        assert_kernel_results_equal(golden, batched)

    @pytest.mark.parametrize("base,subwarps", [("rss_rts", 8), ("fss", 4)])
    def test_selective_round_aware_maps(self, base, subwarps):
        policy = SelectiveRCoalPolicy(make_policy(base, subwarps))
        golden, batched = encrypt_both(policy)
        assert_kernel_results_equal(golden, batched)

    def test_multi_warp_launch_falls_back_and_still_agrees(self):
        # 64 lines = two warps: outside the core's coverage, so the
        # batched server silently replays on the event engine — the
        # results must still be identical (trivially, but the fallback
        # path itself is what is under test).
        golden, batched = encrypt_both(make_policy("rss_rts", 8),
                                       lines=64)
        assert_kernel_results_equal(golden, batched)
        core = BatchedTimingCore.try_create(GPUConfig(),
                                            AddressMap(GPUConfig()))
        programs = [WarpProgram(warp_id=w, num_threads=32)
                    for w in range(2)]
        with pytest.raises(UnsupportedLaunch):
            core.run(programs, {0: [0] * 32, 1: [0] * 32})


def run_both(config, program):
    """Run one program under each engine; asserts the core engaged."""
    sid_maps = {program.warp_id: [0] * config.warp_size}
    golden = GPUSimulator(config, batched_timing=False).run([program],
                                                            sid_maps)
    simulator = GPUSimulator(config, batched_timing=True)
    batched = simulator.run([program], sid_maps)
    assert simulator._timed_core is not None, \
        "the batched core should cover this launch"
    return golden, batched


def store_instruction(address_map, request_size=16):
    return MemoryInstruction(
        addresses=tuple(
            address_map.line_address(CIPHERTEXT_REGION_BASE, lane)
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

    def test_single_store(self):
        config = GPUConfig()
        program = WarpProgram(warp_id=0, num_threads=32, instructions=[
            store_instruction(AddressMap(config))])
        golden, batched = run_both(config, program)
        assert_kernel_results_equal(golden, batched)

    def test_store_compute_store(self):
        # A compute barrier between stores must not wait on them —
        # only loads raise ``outstanding``.
        config = GPUConfig()
        store = store_instruction(AddressMap(config))
        program = WarpProgram(warp_id=0, num_threads=32, instructions=[
            store, ComputeInstruction(40, 1), store])
        golden, batched = run_both(config, program)
        assert_kernel_results_equal(golden, batched)
        # The warp finishes at its last issue, while drain waits for the
        # store traffic still in the memory system.
        assert batched.drain_cycles >= batched.total_cycles

    def test_store_counts_as_write_in_dram_stats(self):
        config = GPUConfig()
        program = WarpProgram(warp_id=0, num_threads=32, instructions=[
            store_instruction(AddressMap(config))])
        _, batched = run_both(config, program)
        assert sum(d.writes for d in batched.dram_stats) > 0
        assert sum(d.reads for d in batched.dram_stats) == 0


class TestSinglePartitionLaunch:
    """One partition: every wavefront degenerates to one FR-FCFS queue."""

    def test_loads_and_stores_agree(self):
        config = GPUConfig(num_partitions=1)
        address_map = AddressMap(config)
        program = WarpProgram(warp_id=0, num_threads=32, instructions=[
            load_instruction(address_map, stride=11),
            ComputeInstruction(40, 1),
            load_instruction(address_map, table_id=1, stride=3,
                             round_index=2),
            ComputeInstruction(40, 2),
            store_instruction(address_map)])
        golden, batched = run_both(config, program)
        assert_kernel_results_equal(golden, batched)
        assert len(batched.dram_stats) == 1

    def test_full_encryption_single_partition(self):
        golden, batched = encrypt_both(make_policy("rss_rts", 8), lines=8,
                                       config=GPUConfig(num_partitions=1))
        assert_kernel_results_equal(golden, batched)


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

    def test_engine_parity_at_rate_two(self):
        config = GPUConfig(icnt_requests_per_cycle=2)
        address_map = AddressMap(config)
        program = WarpProgram(warp_id=0, num_threads=32, instructions=[
            load_instruction(address_map, stride=13),
            ComputeInstruction(40, 1),
            load_instruction(address_map, table_id=2, stride=5,
                             round_index=2),
            ComputeInstruction(40, 2),
            store_instruction(address_map)])
        golden, batched = run_both(config, program)
        assert_kernel_results_equal(golden, batched)

    def test_full_encryption_at_rate_two(self):
        golden, batched = encrypt_both(
            make_policy("nocoal"),
            config=GPUConfig(icnt_requests_per_cycle=2))
        assert_kernel_results_equal(golden, batched)


class TestEngineSelection:
    @pytest.mark.parametrize("batched_timing", [False, True])
    def test_flag_selects_the_core(self, batched_timing):
        simulator = GPUSimulator(batched_timing=batched_timing)
        simulator.run([WarpProgram(warp_id=0, num_threads=32)], {0: [0] * 32})
        assert (simulator._timed_core is not None) is batched_timing

    def test_l2_and_mshr_configs_fall_back(self):
        for config in (GPUConfig(enable_l2=True),
                       GPUConfig(enable_mshr=True)):
            simulator = GPUSimulator(config, batched_timing=True)
            simulator.run([WarpProgram(warp_id=0, num_threads=32)],
                          {0: [0] * 32})
            assert simulator._timed_core is None

    def test_telemetry_falls_back(self):
        from repro.telemetry import Telemetry

        simulator = GPUSimulator(telemetry=Telemetry(),
                                 batched_timing=True)
        simulator.run([WarpProgram(warp_id=0, num_threads=32)], {0: [0] * 32})
        assert simulator._timed_core is None
