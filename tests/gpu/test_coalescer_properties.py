"""Property tests on coalescing-count invariants.

These are the structural facts the paper's whole argument rests on:
splitting a warp into more subwarps can only lose merges (performance
cost), and the count is invariant under relabelling of subwarp ids
(only the grouping matters, not the ids).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.coalescer import CoalescingUnit

unit = CoalescingUnit(access_bytes=64)

addresses_strategy = st.lists(
    st.integers(min_value=0, max_value=16 * 64 - 1),
    min_size=2, max_size=32,
)


def accesses(addresses, sids):
    """Coalesced accesses of one instruction: its groups' block counts."""
    return sum(len(group.block_addresses)
               for group in unit.coalesce(addresses, sids))


def refine(sids, split_index):
    """Split the group containing ``split_index`` into two."""
    target_group = sids[split_index]
    new_group = max(sids) + 1
    return [new_group if (s == target_group and i >= split_index) else s
            for i, s in enumerate(sids)]


@given(addresses_strategy, st.data())
@settings(max_examples=80)
def test_refining_a_partition_never_decreases_accesses(addresses, data):
    sids = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                              min_size=len(addresses),
                              max_size=len(addresses)))
    split_at = data.draw(st.integers(min_value=0,
                                     max_value=len(addresses) - 1))
    coarse = accesses(addresses, sids)
    fine = accesses(addresses, refine(sids, split_at))
    assert fine >= coarse


@given(addresses_strategy, st.data())
@settings(max_examples=60)
def test_count_invariant_under_sid_relabelling(addresses, data):
    sids = data.draw(st.lists(st.integers(min_value=0, max_value=5),
                              min_size=len(addresses),
                              max_size=len(addresses)))
    relabel = {s: 100 - s for s in set(sids)}
    relabelled = [relabel[s] for s in sids]
    assert accesses(addresses, sids) == accesses(addresses, relabelled)


@given(addresses_strategy)
@settings(max_examples=60)
def test_count_bounds(addresses):
    # One subwarp: between 1 and min(threads, touched blocks).
    merged = accesses(addresses, [0] * len(addresses))
    blocks = len({a // 64 for a in addresses})
    assert 1 <= merged == blocks <= len(addresses)
    # Full split: exactly one access per thread.
    split = accesses(addresses, list(range(len(addresses))))
    assert split == len(addresses)


@given(addresses_strategy, st.data())
@settings(max_examples=60)
def test_permuting_threads_within_one_subwarp_is_neutral(addresses, data):
    """RTS inside a single subwarp changes nothing — randomization only
    matters because *which group* a thread lands in changes (Section
    III's second observation)."""
    permutation = data.draw(st.permutations(range(len(addresses))))
    baseline = accesses(addresses, [0] * len(addresses))
    permuted = accesses([addresses[i] for i in permutation],
                        [0] * len(addresses))
    assert baseline == permuted
