"""Tests for the coalescing policies."""

import pytest

from repro.core.policies import (
    POLICY_NAMES,
    BaselinePolicy,
    FSSPolicy,
    NoCoalescingPolicy,
    RSSPolicy,
    make_policy,
)
from repro.errors import ConfigurationError
from repro.rng import RngStream


class TestFactory:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_all_names_construct(self, name):
        policy = make_policy(name, num_subwarps=4)
        assert policy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("quantum")

    def test_rss_distribution_kwarg(self):
        policy = make_policy("rss", 4, distribution="normal")
        assert policy.distribution == "normal"


class TestBaselineAndNocoal:
    def test_baseline_is_one_subwarp(self):
        policy = BaselinePolicy()
        partition = policy.draw()
        assert partition.sizes == (32,)
        assert not policy.is_randomized

    def test_baseline_rejects_other_m(self):
        with pytest.raises(ConfigurationError):
            BaselinePolicy(num_subwarps=2)

    def test_nocoal_is_per_thread(self):
        policy = NoCoalescingPolicy()
        assert policy.draw().sizes == (1,) * 32
        assert not policy.is_randomized

    def test_nocoal_rejects_other_m(self):
        with pytest.raises(ConfigurationError):
            NoCoalescingPolicy(num_subwarps=4)


class TestFSS:
    def test_deterministic_without_rts(self):
        policy = FSSPolicy(4)
        assert policy.draw() == policy.draw()
        assert not policy.is_randomized
        assert policy.draw().sizes == (8, 8, 8, 8)
        assert policy.name == "fss"

    def test_rts_requires_rng(self):
        policy = FSSPolicy(4, rts=True)
        assert policy.is_randomized
        with pytest.raises(ConfigurationError):
            policy.draw(None)

    def test_rts_randomizes_assignment_not_sizes(self):
        rng = RngStream(1, "fss-rts")
        policy = FSSPolicy(4, rts=True)
        a = policy.draw(rng)
        b = policy.draw(rng)
        assert a.sizes == b.sizes == (8, 8, 8, 8)
        assert a.assignment != b.assignment
        assert policy.name == "fss_rts"


class TestRSS:
    def test_requires_rng(self):
        with pytest.raises(ConfigurationError):
            RSSPolicy(4).draw(None)

    def test_sizes_vary_between_draws(self):
        rng = RngStream(1, "rss")
        policy = RSSPolicy(4)
        sizes = {policy.draw(rng).sizes for _ in range(10)}
        assert len(sizes) > 1

    def test_without_rts_assignment_is_in_order(self):
        rng = RngStream(1, "rss-order")
        partition = RSSPolicy(4).draw(rng)
        assert list(partition.assignment) == sorted(partition.assignment)

    def test_with_rts_assignment_is_shuffled(self):
        rng = RngStream(1, "rss-rts")
        policy = RSSPolicy(4, rts=True)
        shuffled = any(
            list(p.assignment) != sorted(p.assignment)
            for p in (policy.draw(rng) for _ in range(10))
        )
        assert shuffled
        assert policy.name == "rss_rts"

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ConfigurationError):
            RSSPolicy(4, distribution="cauchy")


class TestValidation:
    def test_rejects_out_of_range_m(self):
        with pytest.raises(ConfigurationError):
            FSSPolicy(0)
        with pytest.raises(ConfigurationError):
            FSSPolicy(33)

    def test_sid_map_matches_draw_length(self):
        rng = RngStream(1, "map")
        sid_map = RSSPolicy(8).sid_map(rng)
        assert len(sid_map) == 32

    def test_describe_mentions_m(self):
        assert "M=8" in FSSPolicy(8).describe()
        assert "skewed" in RSSPolicy(8).describe()

    @pytest.mark.parametrize("row, message", [
        # Subwarp 3 of four is empty.
        ([0, 1, 2] * 10 + [0, 1], "sizes must be positive"),
        # A sid of M, and a negative one.
        ([0, 1, 2, 4] * 8, "invalid subwarp id 4"),
        ([0, 1, 2, -1] * 8, "invalid subwarp id -1"),
    ])
    def test_partitions_still_reject_a_bad_draw(self, row, message):
        # partitions() checks each call's rows once, as arrays, and then
        # builds the partitions without SubwarpPartition's lane loop.
        class Bad(FSSPolicy):
            def draw_sids(self, rng, n):
                good = super().draw_sids(rng, n)
                good[-1] = row
                return good

        policy = Bad(4)
        with pytest.raises(ConfigurationError, match=message):
            policy.partitions(policy.draw_sids(None, 3))
        with pytest.raises(ConfigurationError, match=message):
            policy.draw()

    def test_partitions_equal_validated_construction(self):
        from repro.core.subwarp import SubwarpPartition
        for name in POLICY_NAMES:
            policy = make_policy(name, 1 if name == "baseline"
                                 else 32 if name == "nocoal" else 8)
            sids = policy.draw_sids(RngStream(3, name), 5)
            assert policy.partitions(sids) == [
                SubwarpPartition(sizes=p.sizes, assignment=p.assignment)
                for p in policy.partitions(sids)]
