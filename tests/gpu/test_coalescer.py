"""Tests for the subwarp-aware coalescing unit."""

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.gpu.coalescer import CoalescingUnit, PendingRequestTable, PRTEntry


def unit() -> CoalescingUnit:
    return CoalescingUnit(access_bytes=64)


class TestFig2Examples:
    """The paper's Fig 2: four threads, three distinct blocks."""

    # Thread addresses: t0 -> block A, t1/t2 -> block B, t3 -> block C.
    ADDRESSES = [0, 64, 96, 128]

    def test_case1_single_subwarp_gives_three_accesses(self):
        groups = unit().coalesce(self.ADDRESSES, [0, 0, 0, 0])
        assert sum(len(g.block_addresses) for g in groups) == 3

    def test_case2_two_subwarps_give_four_accesses(self):
        # Subwarp 0 = {t0, t1}, subwarp 1 = {t2, t3}: the t1/t2 merge is
        # lost across the subwarp boundary.
        groups = unit().coalesce(self.ADDRESSES, [0, 0, 1, 1])
        assert sum(len(g.block_addresses) for g in groups) == 4

    def test_fig10a_fss_rts_example(self):
        # FSS+RTS with sid map (0, 1, 0, 1): t0/t2 together, t1/t3 together
        # -> 4 accesses (t1 and t2 no longer share a subwarp).
        groups = unit().coalesce(self.ADDRESSES, [0, 1, 0, 1])
        assert sum(len(g.block_addresses) for g in groups) == 4

    def test_fig10b_rss_rts_example(self):
        # RSS+RTS sizes (1, 3) with t0 in subwarp 1: subwarp 1 holds
        # t0, t2, t3 -> blocks {A, B, C}; subwarp 0 holds t1 -> {B}.
        # Wait — paper's example yields 3: subwarp1 = {t1,t2,t3}? Use the
        # figure's grouping: sid map (1, 0, 0, 0): subwarp 0 = {t1,t2,t3}
        # -> blocks {B, C} = 2, subwarp 1 = {t0} -> 1; total 3.
        groups = unit().coalesce(self.ADDRESSES, [1, 0, 0, 0])
        assert sum(len(g.block_addresses) for g in groups) == 3


class TestGrouping:
    def test_groups_ordered_by_sid(self):
        groups = unit().coalesce([0, 64, 128, 192], [3, 1, 2, 0])
        assert [g.sid for g in groups] == [0, 1, 2, 3]

    def test_blocks_ordered_by_first_touch(self):
        groups = unit().coalesce([128, 0, 128, 64], [0, 0, 0, 0])
        assert groups[0].block_addresses == (128, 0, 64)

    def test_same_block_different_subwarps_not_merged(self):
        groups = unit().coalesce([0, 0], [0, 1])
        assert sum(len(g.block_addresses) for g in groups) == 2

    def test_sub_block_offsets_merge(self):
        groups = unit().coalesce([0, 4, 60, 63], [0, 0, 0, 0])
        assert sum(len(g.block_addresses) for g in groups) == 1

    def test_active_mask_suppresses_threads(self):
        groups = unit().coalesce([0, 64, 128, 192], [0] * 4,
                                 active_mask=[True, False, True, False])
        assert sum(len(g.block_addresses) for g in groups) == 2
        assert groups[0].thread_ids == (0, 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            unit().coalesce([0, 64], [0])
        with pytest.raises(ConfigurationError):
            unit().coalesce([0, 64], [0, 0], active_mask=[True])

    def test_rejects_non_power_of_two_access_size(self):
        with pytest.raises(ConfigurationError):
            CoalescingUnit(access_bytes=48)


class TestCountFastPath:
    def test_bounds(self):
        # 1 <= accesses <= threads, accesses <= blocks * subwarps.
        addresses = list(range(0, 32 * 4, 4))  # 32 threads in 2 blocks
        one = unit().coalesce(addresses, [0] * 32)
        split = unit().coalesce(addresses, list(range(32)))
        assert sum(len(g.block_addresses) for g in one) == 2
        assert sum(len(g.block_addresses) for g in split) == 32


class TestPendingRequestTable:
    def test_log_and_drain(self):
        prt = PendingRequestTable(capacity=4)
        prt.log(PRTEntry(tid=0, sid=0, base_address=0, offset=4, size=4))
        assert len(prt) == 1
        assert prt.entries[0].address == 4
        drained = prt.drain()
        assert len(drained) == 1
        assert len(prt) == 0

    def test_overflow(self):
        prt = PendingRequestTable(capacity=1)
        prt.log(PRTEntry(0, 0, 0, 0, 4))
        with pytest.raises(ProtocolError):
            prt.log(PRTEntry(1, 0, 64, 0, 4))

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            PendingRequestTable(capacity=0)
