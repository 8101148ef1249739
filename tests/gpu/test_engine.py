"""Tests for the discrete-event GPU simulator."""

import numpy as np
import pytest

from repro.aes.batch import encrypt_batch
from repro.aes.key_schedule import NUM_ROUNDS
from repro.aes.ttable import TTableAES
from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.engine import GPUSimulator
from repro.gpu.request import AccessKind
from repro.gpu.warp import MemoryInstruction, WarpProgram, \
    build_warp_programs


def lines_for(num_lines: int):
    return [bytes([line % 256, line // 256]) + bytes(14)
            for line in range(num_lines)]


def indices_for(num_lines: int, key: bytes = bytes(16)):
    lines = np.frombuffer(b"".join(lines_for(num_lines)), dtype=np.uint8)
    return encrypt_batch(key, lines.reshape(num_lines, 16))[1]


def traces_for(num_lines: int, key: bytes = bytes(16)):
    """Scalar reference traces of the same lines."""
    aes = TTableAES(key)
    return [aes.encrypt(line) for line in lines_for(num_lines)]


def run_kernel(num_lines=32, sid_map=None, config=None):
    sim = GPUSimulator(config or GPUConfig())
    programs = build_warp_programs(indices_for(num_lines), sim.address_map)
    if sid_map is None:
        sid_map = (0,) * sim.config.warp_size
    maps = {p.warp_id: sid_map for p in programs}
    return sim.run(programs, maps)


class TestBasicExecution:
    def test_kernel_completes(self):
        result = run_kernel()
        assert result.total_cycles > 0
        assert result.drain_cycles >= result.total_cycles
        assert result.num_warps == 1

    def test_access_accounting(self):
        result = run_kernel()
        counts = result.access_counts
        assert counts[AccessKind.INPUT_LOAD] == 8   # 32 lines x 16B / 64B
        assert counts[AccessKind.OUTPUT_STORE] == 8
        assert counts[AccessKind.TABLE_LOAD] == sum(
            result.round_accesses.values()
        )
        assert result.total_accesses == sum(counts.values())

    def test_last_round_accesses_match_ground_truth(self):
        traces = traces_for(32)
        result = run_kernel()
        expected = 0
        for k in range(16):
            expected += len({traces[t].rounds[-1].lookups[k][1] >> 4
                             for t in range(32)})
        assert result.last_round_accesses == expected

    def test_round_windows_cover_all_rounds(self):
        result = run_kernel()
        for round_index in range(1, NUM_ROUNDS + 1):
            window = result.round_windows[(0, round_index)]
            assert window.duration > 0
        assert result.last_round_time == \
            result.round_windows[(0, NUM_ROUNDS)].duration

    def test_rounds_execute_in_order(self):
        result = run_kernel()
        starts = [result.round_windows[(0, r)].start
                  for r in range(1, NUM_ROUNDS + 1)]
        assert starts == sorted(starts)


class TestPolicyEffects:
    def test_nocoal_map_gives_32_accesses_per_load(self):
        result = run_kernel(sid_map=tuple(range(32)))
        assert result.last_round_accesses == 32 * 16

    def test_more_subwarps_cost_more_time_and_accesses(self):
        baseline = run_kernel(sid_map=(0,) * 32)
        split4 = run_kernel(sid_map=tuple(i // 8 for i in range(32)))
        nocoal = run_kernel(sid_map=tuple(range(32)))
        assert baseline.total_accesses < split4.total_accesses \
            < nocoal.total_accesses
        assert baseline.total_cycles < split4.total_cycles \
            < nocoal.total_cycles

    def test_time_scales_with_last_round_accesses(self):
        baseline = run_kernel(sid_map=(0,) * 32)
        nocoal = run_kernel(sid_map=tuple(range(32)))
        assert nocoal.last_round_time > baseline.last_round_time


class TestDeterminism:
    def test_same_inputs_same_result(self):
        a = run_kernel()
        b = run_kernel()
        assert a.total_cycles == b.total_cycles
        assert a.total_accesses == b.total_accesses
        assert a.last_round_time == b.last_round_time


class TestMultiWarp:
    def test_32_warps_complete(self):
        result = run_kernel(num_lines=1024)
        assert result.num_warps == 32
        assert len(result.warp_finish) == 32
        assert result.last_round_accesses > 0

    def test_multiwarp_slower_than_single(self):
        single = run_kernel(num_lines=32)
        multi = run_kernel(num_lines=1024)
        assert multi.total_cycles > single.total_cycles


class TestValidation:
    def test_rejects_empty_launch(self):
        sim = GPUSimulator()
        with pytest.raises(ConfigurationError):
            sim.run([], {})

    def test_rejects_short_sid_map(self):
        sim = GPUSimulator()
        programs = build_warp_programs(indices_for(32), sim.address_map)
        with pytest.raises(ConfigurationError):
            sim.run(programs, {0: (0,) * 8})

    def test_rejects_duplicate_warp_ids(self):
        sim = GPUSimulator()
        programs = build_warp_programs(indices_for(32), sim.address_map)
        with pytest.raises(ConfigurationError):
            sim.run(programs + programs, {0: (0,) * 32})
