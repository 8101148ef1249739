"""Unit tests for the kernel statistics containers."""

import pytest

from repro.errors import ProtocolError
from repro.gpu.dram import DramStats
from repro.gpu.request import AccessKind
from repro.gpu.stats import KernelResult, RoundWindow


class TestRoundWindow:
    def test_observes_extrema(self):
        window = RoundWindow()
        window.observe_start(100)
        window.observe_start(50)
        window.observe_end(200)
        window.observe_end(150)
        assert window.start == 50
        assert window.end == 200
        assert window.duration == 150

    def test_duration_requires_observations(self):
        with pytest.raises(ProtocolError):
            _ = RoundWindow().duration


class TestKernelResult:
    def test_access_counting(self):
        result = KernelResult(num_warps=1)
        result.count_accesses(0, AccessKind.TABLE_LOAD, 10, 1)
        result.count_accesses(0, AccessKind.TABLE_LOAD, 10, 1)
        result.count_accesses(0, AccessKind.INPUT_LOAD, 0, 1)
        result.count_accesses(0, AccessKind.OUTPUT_STORE, None, 1)
        assert result.total_accesses == 4
        assert result.table_accesses == 2
        assert result.last_round_accesses == 2
        # IO never pollutes the per-round table-load buckets.
        assert result.round_accesses == {10: 2}

    def test_last_round_byte_accesses(self):
        # Load j of every warp's round 10 is ciphertext byte j, whatever
        # order the warps' instructions interleave in.
        result = KernelResult(num_warps=2)
        result.count_accesses(1, AccessKind.TABLE_LOAD, 10, 4)
        result.count_accesses(0, AccessKind.TABLE_LOAD, 10, 2)
        result.count_accesses(0, AccessKind.TABLE_LOAD, 9, 7)
        result.count_accesses(0, AccessKind.TABLE_LOAD, 10, 3)
        result.count_accesses(1, AccessKind.TABLE_LOAD, 10, 1)
        result.count_accesses(1, AccessKind.OUTPUT_STORE, None, 5)
        assert result.last_round_loads == {0: [2, 3], 1: [4, 1]}
        assert result.last_round_byte_accesses == [6, 4]
        assert sum(result.last_round_byte_accesses) \
            == result.last_round_accesses
        assert KernelResult(num_warps=1).last_round_byte_accesses == []

    def test_round_span_across_warps(self):
        result = KernelResult(num_warps=2)
        result.window(0, 10).observe_start(100)
        result.window(0, 10).observe_end(150)
        result.window(1, 10).observe_start(120)
        result.window(1, 10).observe_end(300)
        assert result.round_span(10) == 200
        assert result.last_round_time == 200
        assert result.warp_last_round_duration(1) == 180

    def test_round_span_requires_windows(self):
        with pytest.raises(ProtocolError):
            KernelResult(num_warps=1).round_span(10)

    def test_aggregate_dram(self):
        result = KernelResult(num_warps=1)
        result.dram_stats = [
            DramStats(row_hits=3, row_misses=1, reads=4, writes=0,
                      bus_busy_cycles=10, queue_wait_cycles=5),
            DramStats(row_hits=1, row_misses=1, reads=1, writes=1,
                      bus_busy_cycles=4, queue_wait_cycles=2),
        ]
        total = result.aggregate_dram()
        assert total.row_hits == 4
        assert total.row_misses == 2
        assert total.accesses == 6
        assert total.row_hit_rate == pytest.approx(4 / 6)
        assert total.bus_busy_cycles == 14
