"""Differential test of the fast engines against the event engine.

The event engine defines the simulator's semantics; the wavefront timing
core and the structure-of-arrays counts core are only faster ways to
compute the same records. The hand-picked parity batteries
(``test_timed_batch``, ``test_batched``) sweep the stock machine; here
Hypothesis generates the cases: machines across the space
:class:`GPUConfig` accepts, stock and permuted address maps, all six
policies plus selective RCoal, any subwarp count, partial, full and
multi-warp launches, and seeds.

Every case encrypts the same two plaintexts, with the same key and victim
stream, on three servers:

* the event engine (``batched_timing=False``), the reference;
* the wavefront core (``batched_timing=True``): records, kernel results
  included, must be equal. Launches it does not cover fall back to the
  event engine through ``UnsupportedLaunch``; any other exception from it
  propagates and fails the test;
* the counts core (``counts_only=True``): records must equal the
  reference's with both times zero and no kernel result.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.selective import SelectiveRCoalPolicy
from repro.gpu.address import PermutedAddressMap
from repro.gpu.config import DramTiming, GPUConfig
from repro.rng import RngStream
from repro.workloads.plaintext import random_plaintexts
from repro.workloads.server import EncryptionServer

#: Launches per generated case.
LAUNCHES = 2


@st.composite
def machines(draw):
    """Valid machine descriptions, far from the paper's Table I."""
    access = draw(st.sampled_from([32, 64, 128]))
    chunk = access * draw(st.integers(1, 4))
    groups = draw(st.integers(1, 4))
    return GPUConfig(
        num_partitions=draw(st.integers(1, 8)),
        num_banks=groups * draw(st.integers(1, 4)),
        num_bank_groups=groups,
        access_bytes=access,
        partition_chunk_bytes=chunk,
        row_bytes=chunk * draw(st.sampled_from([1, 2, 8])),
        icnt_latency=draw(st.integers(1, 24)),
        icnt_requests_per_cycle=draw(st.integers(1, 3)),
        round_compute_cycles=draw(st.integers(1, 80)),
        core_clock_mhz=draw(st.sampled_from([700, 924, 1400, 2100])),
        dram_timing=DramTiming(
            t_cl=draw(st.integers(1, 16)),
            t_rp=draw(st.integers(1, 16)),
            t_rcd=draw(st.integers(1, 16)),
            t_ccd=draw(st.integers(1, 4)),
            t_burst=draw(st.integers(1, 8)),
        ),
    )


@st.composite
def policies(draw):
    name = draw(st.sampled_from(POLICY_NAMES + ("selective",)))
    subwarps = draw(st.integers(1, 32))
    if name == "selective":
        base = draw(st.sampled_from(["fss", "fss_rts", "rss", "rss_rts"]))
        return SelectiveRCoalPolicy(make_policy(base, subwarps))
    return make_policy(name, subwarps)


def _records(config, permuted, policy, lines, seed, **server_kwargs):
    """Two launches on a fresh server; every server of a case shares the
    key, the plaintexts, the victim stream and the address map."""
    key = bytes(RngStream(seed, "key").random_bytes(16))
    plaintexts = random_plaintexts(LAUNCHES, lines, RngStream(seed, "pt"))
    address_map = (PermutedAddressMap(config, RngStream(seed, "map"))
                   if permuted else None)
    server = EncryptionServer(
        key, policy, config=config, address_map=address_map,
        rng=RngStream(seed, "victim") if policy.is_randomized else None,
        **server_kwargs)
    return server.encrypt_batch(plaintexts)


@settings(max_examples=100, derandomize=True, deadline=None,
          database=None)
@given(config=machines(), permuted=st.booleans(), policy=policies(),
       lines=st.sampled_from([1, 5, 31, 32, 33, 64]),
       seed=st.integers(0, 2**16))
def test_fast_engines_match_the_event_engine(config, permuted, policy,
                                             lines, seed):
    case = (config, permuted, policy, lines, seed)
    reference = _records(*case, batched_timing=False,
                         retain_kernel_results=True)
    assert _records(*case, retain_kernel_results=True) == reference
    assert _records(*case, counts_only=True) == [
        replace(record, total_time=0, last_round_time=0, kernel_result=None)
        for record in reference]
