"""Exactness of the array paths against per-draw and set-based references.

The policies draw many partitions as one ``(n, warp_size)`` sid array,
the Monte-Carlo estimators draw and count whole sample sets at once, and
the counts core counts distinct ``(block, sid)`` pairs over uint16 keys.
Each must equal, bit for bit, the per-draw loop it replaced: the
references below are those loops, kept here as the specification. The
draw and count properties also run in ``make fuzz``.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.leakage import (empirical_leakage_bits,
                                    mutual_information_bits)
from repro.analysis.montecarlo import empirical_access_moments, empirical_rho
from repro.attack.correlation import pearson
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.selective import SelectiveRCoalPolicy
from repro.core.sizing import fixed_sizes, normal_sizes, skewed_sizes
from repro.core.subwarp import access_counts
from repro.experiments.base import MECHANISMS
from repro.gpu.address import PermutedAddressMap
from repro.gpu.batched import _COLUMN_ROUNDS, sample_slabs
from repro.gpu.config import GPUConfig
from repro.gpu.warp import lane_addresses, lane_blocks
from repro.rng import RngStream
from repro.workloads.server import EncryptionServer

#: Tier-1 runs 100 derandomized examples. ``make fuzz`` loads the
#: ``fuzz`` profile (tests/conftest.py): its example count and random
#: seed apply instead.
TIER1 = ({} if settings.get_current_profile_name() == "fuzz"
         else {"max_examples": 100, "derandomize": True})


# -- references: one draw at a time, as the policies drew before ------------

def reference_sizes(policy, rng):
    if policy.name in ("baseline", "nocoal", "fss", "fss_rts"):
        return fixed_sizes(policy.warp_size, policy.num_subwarps)
    sizes = (skewed_sizes if policy.distribution == "skewed"
             else normal_sizes)
    return sizes(policy.warp_size, policy.num_subwarps, rng)


def reference_draw(policy, rng):
    """One partition's sid map, built lane by lane."""
    if isinstance(policy, SelectiveRCoalPolicy):
        return reference_draw(policy.base, rng)
    sizes = reference_sizes(policy, rng)
    ordered = []
    for sid, size in enumerate(sizes):
        ordered.extend([sid] * size)
    if not getattr(policy, "rts", False):
        return tuple(ordered)
    assignment = [0] * len(ordered)
    for slot, tid in enumerate(rng.permutation(len(ordered))):
        assignment[int(tid)] = ordered[slot]
    return tuple(assignment)


def set_count(blocks, assignment):
    return len({(sid, int(block)) for sid, block in zip(assignment, blocks)})


def reference_rho(policy, num_blocks, num_samples, rng):
    victim_rng = rng.child("mc-victim")
    attacker_rng = rng.child("mc-attacker")
    block_rng = rng.child("mc-blocks")
    us = np.empty(num_samples)
    u_hats = np.empty(num_samples)
    for i in range(num_samples):
        blocks = block_rng.integers(0, num_blocks, size=policy.warp_size)
        us[i] = set_count(blocks, reference_draw(policy, victim_rng))
        u_hats[i] = set_count(blocks, reference_draw(policy, attacker_rng))
    return pearson(us, u_hats)


def reference_moments(policy, num_blocks, num_samples, rng):
    victim_rng = rng.child("mc-victim")
    block_rng = rng.child("mc-blocks")
    us = np.empty(num_samples)
    for i in range(num_samples):
        blocks = block_rng.integers(0, num_blocks, size=policy.warp_size)
        us[i] = set_count(blocks, reference_draw(policy, victim_rng))
    return float(us.mean()), float(us.var(ddof=1))


def reference_leakage(policy, num_blocks, num_samples, rng):
    victim_rng = rng.child("mi-victim")
    attacker_rng = rng.child("mi-attacker")
    block_rng = rng.child("mi-blocks")
    joint = Counter()
    for _ in range(num_samples):
        blocks = block_rng.integers(0, num_blocks, size=policy.warp_size)
        joint[(set_count(blocks, reference_draw(policy, victim_rng)),
               set_count(blocks, reference_draw(policy, attacker_rng)))] += 1
    return mutual_information_bits(dict(joint))


# -- strategies --------------------------------------------------------------

@st.composite
def policies(draw):
    """Every policy name, normal-size RSS and the selective wrappers, at
    any M, for warp size 32 and others."""
    warp_size = draw(st.sampled_from([32, 1, 3, 8, 20, 40, 64]))
    name = draw(st.sampled_from(POLICY_NAMES))
    subwarps = draw(st.integers(1, warp_size))
    kwargs = {}
    if name.startswith("rss"):
        kwargs["distribution"] = draw(st.sampled_from(["skewed",
                                                       "normal"]))
    if name == "baseline":
        subwarps = 1
    policy = make_policy(name, subwarps, warp_size=warp_size, **kwargs)
    if draw(st.booleans()):
        policy = SelectiveRCoalPolicy(
            policy, draw(st.sets(st.integers(1, 10), min_size=1)))
    return policy


def stream(seed):
    return RngStream(seed, "draws")


# -- draws -------------------------------------------------------------------

@settings(deadline=None, database=None, **TIER1)
@given(policy=policies(), n=st.integers(0, 40),
       seed=st.integers(0, 2**32))
def test_draw_sids_equals_one_draw_at_a_time(policy, n, seed):
    """``draw_sids(rng, n)`` stacks the sid maps of ``n`` per-draw
    references and leaves the stream where they leave it: the next draw
    (and the next raw value) is equal too."""
    bulk, single = stream(seed), stream(seed)
    sids = policy.draw_sids(bulk, n)
    assert sids.shape == (n, policy.warp_size)
    assert sids.dtype == np.int64
    assert [tuple(row) for row in sids.tolist()] == [
        reference_draw(policy, single) for _ in range(n)]
    assert tuple(policy.draw_sids(bulk, 1)[0].tolist()) == \
        reference_draw(policy, single)
    assert bulk.generator.integers(0, 2**62) == \
        single.generator.integers(0, 2**62)


@settings(deadline=None, database=None, **TIER1)
@given(policy=policies(), n=st.integers(1, 12),
       seed=st.integers(0, 2**32))
def test_partitions_are_the_drawn_rows(policy, n, seed):
    """``draw`` is the partition of a one-row draw, and ``partitions``
    validates every row: sizes by sid, the assignment the row itself."""
    sids = policy.draw_sids(stream(seed), n)
    partitions = policy.partitions(sids)
    rng = stream(seed)
    assert partitions == [policy.draw(rng) for _ in range(n)]
    for partition, row in zip(partitions, sids.tolist()):
        if isinstance(policy, SelectiveRCoalPolicy):
            assert partition.protected_rounds == policy.protected_rounds
            partition = partition.protected
        assert partition.assignment == tuple(row)
        assert partition.sizes == tuple(
            np.bincount(row, minlength=policy.num_subwarps).tolist())


@settings(deadline=None, database=None, **TIER1)
@given(bound=st.integers(2, 64), rows=st.integers(0, 300),
       lanes=st.integers(1, 64), seed=st.integers(0, 2**32))
def test_bulk_integers_equal_one_call_per_row(bound, rows, lanes, seed):
    """A bulk bounded draw equals one ``integers`` call per row, for every
    bound (rejection sampling included), and leaves the stream equal."""
    bulk, single = stream(seed), stream(seed)
    drawn = bulk.integers(0, bound, size=(rows, lanes))
    expected = [single.integers(0, bound, size=lanes) for _ in range(rows)]
    assert drawn.tolist() == [row.tolist() for row in expected]
    assert bulk.integers(0, bound, size=3).tolist() == \
        single.integers(0, bound, size=3).tolist()


# -- the distinct-pair count -----------------------------------------------

@settings(deadline=None, database=None, **TIER1)
@given(rows=st.integers(1, 12), lanes=st.integers(1, 64),
       blocks=st.integers(1, 256), subwarps=st.integers(1, 256),
       round_aware=st.booleans(), seed=st.integers(0, 2**32))
def test_access_counts_equal_a_set_reference(rows, lanes, blocks, subwarps,
                                             round_aware, seed):
    """One count per row of lanes: its distinct (block, sid) pairs, with
    the sids one row per instruction or broadcast over them."""
    generator = np.random.default_rng(seed)
    block = generator.integers(0, blocks, size=(rows, 3, lanes))
    sid = generator.integers(0, subwarps,
                             size=(rows, 3 if round_aware else 1, lanes))
    counts = access_counts(block.astype(np.uint16), sid)
    sid = np.broadcast_to(sid, block.shape)
    assert counts.tolist() == [
        [set_count(block[r, c], sid[r, c].tolist()) for c in range(3)]
        for r in range(rows)]


def test_access_counts_take_uint16_blocks_only():
    with pytest.raises(TypeError):
        access_counts(np.zeros((2, 4), dtype=np.int64),
                      np.zeros((2, 4), dtype=np.int64))


@settings(deadline=None, database=None, **TIER1)
@given(lines=st.sampled_from([1, 5, 31, 32, 33, 64, 70]),
       access_bytes=st.sampled_from([4, 16, 32, 64, 128, 256]),
       name=st.sampled_from(POLICY_NAMES), subwarps=st.integers(1, 32),
       selective=st.booleans(), permuted=st.booleans(),
       samples=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_counts_slab_keys_equal_a_set_reference(lines, access_bytes, name,
                                                subwarps, selective,
                                                permuted, samples, seed):
    """The counts core's keys: per memory instruction of every warp, the
    distinct pairs of ``lane_blocks`` ranks and the slab's lane sids are
    the distinct (address block, sid) pairs of the active lanes, each
    lane's sid taken from its partition for the instruction's round."""
    config = GPUConfig(access_bytes=access_bytes)
    policy = make_policy(name, 1 if name == "baseline" else subwarps)
    if selective:
        policy = SelectiveRCoalPolicy(policy, (seed % 10 + 1, 10))
    address_map = (PermutedAddressMap(config, RngStream(seed, "map"))
                   if permuted else None)
    victim = RngStream(seed, "victim")
    server = EncryptionServer(bytes(range(16)), policy, config, rng=victim,
                              counts_only=True, address_map=address_map)
    plaintexts = [RngStream(seed, f"p{s}").random_bytes(16 * lines)
                  for s in range(samples)]
    (slab,) = sample_slabs(server, plaintexts, [victim] * samples, 1 << 40)
    address_map = server.gpu.address_map
    counts = access_counts(
        lane_blocks(slab.indices, address_map, 32, access_bytes), slab.sids)
    addresses = lane_addresses(slab.indices, address_map, 32)
    for s, drawn in enumerate(slab.partitions):
        for warp_id, partition in drawn.items():
            active = min(32, lines - 32 * warp_id)
            for column, round_index in enumerate(_COLUMN_ROUNDS):
                sids = (partition.assignment_for_round(round_index)
                        if selective else partition.assignment)
                expected = len({
                    (address & ~(access_bytes - 1), sid)
                    for address, sid in zip(
                        addresses[s, warp_id, column, :active].tolist(),
                        sids[:active])})
                assert counts[s, warp_id, column] == expected


# -- the Monte-Carlo estimators ----------------------------------------------

@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("subwarps", [1, 2, 5, 8, 16])
@pytest.mark.parametrize("seed", [2018, 7])
def test_monte_carlo_equals_the_per_sample_loops(mechanism, subwarps, seed):
    """``==``, not approximately: every stream is consumed as the loops
    consume it, and the MI histogram keeps first-seen order."""
    policy = make_policy(mechanism, subwarps)
    for num_blocks in (8, 12, 16, 32):
        rng = RngStream(seed, f"mc-{num_blocks}")
        assert empirical_access_moments(policy, num_blocks, 60, rng) == \
            reference_moments(policy, num_blocks, 60, rng)
        assert empirical_leakage_bits(policy, num_blocks, 60, rng) == \
            reference_leakage(policy, num_blocks, 60, rng)
        if policy.is_randomized:
            assert empirical_rho(policy, num_blocks, 60, rng) == \
                reference_rho(policy, num_blocks, 60, rng)


def test_monte_carlo_with_a_mismatched_attacker():
    victim, attacker = make_policy("fss_rts", 4), make_policy("rss_rts", 8)
    rng = RngStream(3, "mismatch")
    victim_rng = rng.child("mc-victim")
    attacker_rng = rng.child("mc-attacker")
    block_rng = rng.child("mc-blocks")
    us, u_hats = [], []
    for _ in range(80):
        blocks = block_rng.integers(0, 16, size=32)
        us.append(set_count(blocks, reference_draw(victim, victim_rng)))
        u_hats.append(set_count(blocks,
                                reference_draw(attacker, attacker_rng)))
    assert empirical_rho(victim, 16, 80, rng, attacker_policy=attacker) == \
        pearson(np.array(us, dtype=float), np.array(u_hats, dtype=float))
