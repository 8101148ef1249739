"""Differential test of the fast engines against the event engine.

The event engine defines the simulator's semantics; the batched timing
core and the structure-of-arrays counts core are only faster ways to
compute the same records. The hand-picked parity batteries
(``test_timed_batch``, ``test_batched``) sweep the stock machine; here
Hypothesis generates the cases: machines across the space
:class:`GPUConfig` accepts, with 1 to 4 SMs so that the warps of a
multi-warp launch share SMs (their schedulers, LD/ST egress and reply
port), stock and permuted address maps, all six policies plus selective
RCoal, any subwarp count, partial, full and multi-warp launches, and
seeds.

Every case encrypts the same two plaintexts, with the same key and victim
stream, on three servers, and the first of them on a fourth:

* the event engine (``batched_timing=False``), the reference;
* the batched timing core (``batched_timing=True``): records, kernel
  results included, must be equal. A spy on the core's batch entry
  asserts that the core served every launch, single-warp ones on its
  wavefront path and multi-warp ones on its recurrence replay or, for a
  launch that replay hands off, its calendar replay, so no case compares
  the event engine with itself. A second spy
  (``test_recurrence_replay.checked_replays``) replays every launch the
  recurrence replay serves on the calendar too and asserts ``==``. Any
  exception from the core propagates and fails the test;
* the counts core (``counts_only=True``): records must equal the
  reference's with both times zero and no kernel result;
* the event engine under an enabled :class:`Telemetry`, which traces
  every event: its record must equal the reference's once the kernel
  result's metrics snapshot is cleared. Tracing must not change what is
  simulated.

A second property times batches of one to four equal-length samples in
one ``encrypt_batch`` call, the way a timed phase does: the timing core
takes each batch whole (one coalesce, one wavefront replay for all
single-warp samples), and its records must equal those of the same
samples run one ``encrypt`` at a time on the event engine, whether every
sample draws from the server's one stream or from a stream of its own.
A spy asserts that the core served every sample once.

AES launches are load-heavy and never mix round windows inside a
wavefront, so a third property generates raw :class:`WarpProgram`
streams instead: one or two warps on one SM, stores about 30% of the time,
instructions outside any round or in a neighbouring round, on tiny
machines with equal core and memory clocks and DRAM timings of a few
cycles, so that events tie often. These are the launches the wavefront
path hands to the calendar replay (same-cycle ties, wavefronts spanning
two round windows, stores still queued when the next wavefront arrives,
a forward-crossbar rate of two); the core must serve every one and equal
the event engine's ``KernelResult``.

A fourth property times slabs of 2 to 16 single-warp AES samples in one
``encrypt_batch`` call on machines built for row misses and ties (one or
two banks, one chunk per row, DRAM timings of a few cycles), so that the
wavefront path's row-miss segments, their tails of row hits and their
hand-offs meet in one flush. A spy asserts that the core took the slab
whole; its records must equal the same samples run one ``encrypt`` at a
time on the event engine.
"""

from dataclasses import replace
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.selective import SelectiveRCoalPolicy
from repro.gpu.address import PermutedAddressMap
from repro.gpu.config import DramTiming, GPUConfig
from repro.gpu.engine import GPUSimulator
from repro.gpu.request import AccessKind
from repro.gpu.timed_batch import BatchedTimingCore
from repro.gpu.warp import ComputeInstruction, MemoryInstruction, WarpProgram
from repro.rng import RngStream
from repro.telemetry import Telemetry
from repro.workloads.plaintext import random_plaintexts
from repro.workloads.server import EncryptionServer

from .test_recurrence_replay import HANDOFF_REASONS, checked_replays

#: Launches per generated case.
LAUNCHES = 2

#: Tier-1 runs 100 derandomized examples. ``make fuzz`` loads the
#: ``fuzz`` profile (tests/conftest.py): its example count and random
#: seed apply instead.
FUZZ = settings.get_current_profile_name() == "fuzz"
TIER1 = {} if FUZZ else {"max_examples": 100, "derandomize": True}
#: Tier-1 examples of the slab property, which runs up to 16 launches one
#: at a time on the event engine per example.
TIER1_SLABS = {} if FUZZ else {"max_examples": 16, "derandomize": True}


@st.composite
def machines(draw):
    """Valid machine descriptions, far from the paper's Table I."""
    access = draw(st.sampled_from([32, 64, 128]))
    chunk = access * draw(st.integers(1, 4))
    return GPUConfig(
        num_sms=draw(st.integers(1, 4)),
        num_partitions=draw(st.integers(1, 8)),
        num_banks=draw(st.integers(1, 16)),
        access_bytes=access,
        partition_chunk_bytes=chunk,
        row_bytes=chunk * draw(st.sampled_from([1, 2, 8])),
        icnt_latency=draw(st.integers(1, 24)),
        icnt_requests_per_cycle=draw(st.integers(1, 3)),
        round_compute_cycles=draw(st.integers(1, 80)),
        issue_cycles=draw(st.integers(0, 3)),
        coalescer_cycles_per_access=draw(st.integers(0, 3)),
        warp_schedulers_per_sm=draw(st.integers(1, 4)),
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


def _records(config, permuted, policy, lines, seed, launches=LAUNCHES,
             **server_kwargs):
    """The first ``launches`` launches on a fresh server; every server of
    a case shares the key, the plaintexts, the victim stream and the
    address map."""
    key = bytes(RngStream(seed, "key").random_bytes(16))
    plaintexts = random_plaintexts(LAUNCHES, lines,
                                   RngStream(seed, "pt"))[:launches]
    address_map = (PermutedAddressMap(config, RngStream(seed, "map"))
                   if permuted else None)
    server = EncryptionServer(
        key, policy, config=config, address_map=address_map,
        rng=RngStream(seed, "victim") if policy.is_randomized else None,
        **server_kwargs)
    return server.encrypt_batch(plaintexts)


@settings(deadline=None, database=None, **TIER1)
@given(config=machines(), permuted=st.booleans(), policy=policies(),
       lines=st.sampled_from([1, 5, 31, 32, 33, 64, 100, 256]),
       seed=st.integers(0, 2**16))
def test_fast_engines_match_the_event_engine(config, permuted, policy,
                                             lines, seed):
    case = (config, permuted, policy, lines, seed)
    reference = _records(*case, batched_timing=False,
                         retain_kernel_results=True)
    for record in reference:
        # One count per round-10 load of each warp, summed by byte.
        assert len(record.last_round_byte_accesses) == 16
        assert sum(record.last_round_byte_accesses) \
            == record.last_round_accesses
    served = []
    run_samples = BatchedTimingCore.run_samples

    def spy(self, batch):
        results = run_samples(self, batch)
        served.extend([batch.num_warps] * len(results))
        return results

    with patch.object(BatchedTimingCore, "run_samples", spy), \
            checked_replays() as outcomes:
        assert _records(*case, retain_kernel_results=True) == reference
    assert served == [-(-lines // 32)] * LAUNCHES
    assert len(outcomes) == (LAUNCHES if lines > 32 else 0)
    assert all(outcome is True or outcome in HANDOFF_REASONS
               for outcome in outcomes)
    assert _records(*case, counts_only=True) == [
        replace(record, total_time=0, last_round_time=0, kernel_result=None)
        for record in reference]
    traced = _records(*case, launches=1, telemetry=Telemetry(),
                      batched_timing=False, retain_kernel_results=True)
    for record in traced:
        assert record.kernel_result.metrics is not None
        record.kernel_result.metrics = None
    assert traced == reference[:1]


@settings(deadline=None, database=None, **TIER1)
@given(config=machines(), permuted=st.booleans(), policy=policies(),
       lines=st.sampled_from([1, 5, 31, 32, 33, 64]),
       samples=st.integers(1, 4), shared=st.booleans(),
       seed=st.integers(0, 2**16))
def test_sample_batches_match_one_launch_at_a_time(config, permuted, policy,
                                                   lines, samples, shared,
                                                   seed):
    key = bytes(RngStream(seed, "key").random_bytes(16))
    plaintexts = random_plaintexts(samples, lines, RngStream(seed, "pt"))
    address_map = (PermutedAddressMap(config, RngStream(seed, "map"))
                   if permuted else None)

    def server(**kwargs):
        return EncryptionServer(
            key, policy, config=config, address_map=address_map,
            rng=RngStream(seed, "victim") if policy.is_randomized else None,
            retain_kernel_results=True, **kwargs)

    def rngs():
        """The server's one stream for every sample, or a stream each."""
        return [None if shared else RngStream(seed, f"victim-{i}")
                for i in range(samples)]

    reference = server(batched_timing=False)
    expected = [reference.encrypt(plaintext, rng=rng)
                for plaintext, rng in zip(plaintexts, rngs())]
    served = []
    run_samples = BatchedTimingCore.run_samples

    def spy(self, batch):
        results = run_samples(self, batch)
        served.extend([batch.num_warps] * len(results))
        return results

    with patch.object(BatchedTimingCore, "run_samples", spy):
        assert server().encrypt_batch(plaintexts, rngs()) == expected
    assert served == [-(-lines // 32)] * samples


@st.composite
def tiny_machines(draw):
    """One SM, a few partitions and banks, two blocks per row, equal core
    and memory clocks and DRAM timings of 1 to 8 cycles."""
    cycles = st.integers(1, 8)
    return GPUConfig(
        num_sms=1,
        num_partitions=draw(st.integers(1, 3)),
        num_banks=draw(st.integers(1, 4)),
        partition_chunk_bytes=64,
        row_bytes=128,
        core_clock_mhz=924,
        issue_cycles=draw(st.integers(0, 2)),
        coalescer_cycles_per_access=draw(st.integers(0, 2)),
        icnt_latency=draw(st.integers(0, 6)),
        # Rate 2 hands a single-warp launch off before anything else is
        # looked at, so it is drawn one time in four.
        icnt_requests_per_cycle=draw(st.sampled_from([1, 1, 1, 2])),
        dram_timing=DramTiming(
            t_cl=draw(cycles), t_rp=draw(cycles), t_rc=draw(cycles),
            t_ras=draw(cycles), t_ccd=draw(cycles), t_rcd=draw(cycles),
            t_burst=draw(cycles)),
    )


@st.composite
def raw_launches(draw):
    """One or two warps of 1 to 5 rounds; a round is a 0- to 6-cycle
    compute instruction, then 1 to 4 loads or stores of 1 to 6 distinct
    64 B blocks."""
    programs = []
    # Two warps take the multi-warp replays, which the AES property
    # covers too; one warp is drawn three times in four.
    for warp_id in range(draw(st.sampled_from([1, 1, 1, 2]))):
        instructions = []
        for rnd in range(1, draw(st.integers(1, 5)) + 1):
            instructions.append(ComputeInstruction(draw(st.integers(0, 6)),
                                                   rnd))
            for _ in range(draw(st.integers(1, 4))):
                blocks = draw(st.lists(st.integers(0, 63), min_size=1,
                                       max_size=6, unique=True))
                is_write = draw(st.integers(0, 9)) < 3
                # Mostly the round's own window: a wavefront with loads in
                # two windows is handed off before its traffic is replayed.
                instructions.append(MemoryInstruction(
                    addresses=tuple(64 * blocks[lane % len(blocks)]
                                    for lane in range(32)),
                    kind=(AccessKind.OUTPUT_STORE if is_write
                          else AccessKind.TABLE_LOAD),
                    round_index=draw(st.sampled_from(
                        [rnd] * 5 + [rnd - 1, rnd + 1, None])),
                    is_write=is_write))
        programs.append(WarpProgram(warp_id=warp_id, num_threads=32,
                                    instructions=instructions))
    return programs


@settings(deadline=None, database=None, **TIER1)
@given(config=tiny_machines(), programs=raw_launches())
def test_raw_streams_match_the_event_engine(config, programs):
    sid_maps = {program.warp_id: [0] * 32 for program in programs}
    reference = GPUSimulator(config, batched_timing=False).run(programs,
                                                               sid_maps)
    served = []
    run = BatchedTimingCore.run

    def spy(self, programs, sid_maps):
        result = run(self, programs, sid_maps)
        served.append(len(programs))
        return result

    with patch.object(BatchedTimingCore, "run", spy):
        assert GPUSimulator(config).run(programs, sid_maps) == reference
    assert served == [len(programs)]


@st.composite
def row_miss_machines(draw):
    """One SM, one to three partitions of one or two banks, one chunk per
    row, equal core and memory clocks and DRAM timings of 1 to 6 cycles:
    nearly every wavefront meets a row miss, and events tie often."""
    cycles = st.integers(1, 6)
    chunk = draw(st.sampled_from([64, 128]))
    return GPUConfig(
        num_sms=1,
        num_partitions=draw(st.integers(1, 3)),
        num_banks=draw(st.integers(1, 2)),
        partition_chunk_bytes=chunk,
        row_bytes=chunk,
        core_clock_mhz=924,
        round_compute_cycles=draw(st.integers(1, 40)),
        issue_cycles=draw(st.integers(0, 2)),
        coalescer_cycles_per_access=draw(st.integers(0, 2)),
        icnt_latency=draw(st.integers(0, 8)),
        dram_timing=DramTiming(
            t_cl=draw(cycles), t_rp=draw(cycles), t_rc=draw(cycles),
            t_ras=draw(cycles), t_ccd=draw(cycles), t_rcd=draw(cycles),
            t_burst=draw(cycles)),
    )


@settings(deadline=None, database=None, **TIER1_SLABS)
@given(config=row_miss_machines(), policy=policies(),
       lines=st.sampled_from([5, 32]), samples=st.integers(2, 16),
       seed=st.integers(0, 2**16))
def test_row_miss_slabs_match_one_launch_at_a_time(config, policy, lines,
                                                   samples, seed):
    key = bytes(RngStream(seed, "key").random_bytes(16))
    plaintexts = random_plaintexts(samples, lines, RngStream(seed, "pt"))

    def server(**kwargs):
        return EncryptionServer(
            key, policy, config=config,
            rng=RngStream(seed, "victim") if policy.is_randomized else None,
            retain_kernel_results=True, **kwargs)

    reference = server(batched_timing=False)
    expected = [reference.encrypt(plaintext) for plaintext in plaintexts]
    slabs = []
    run_samples = BatchedTimingCore.run_samples

    def spy(self, batch):
        results = run_samples(self, batch)
        slabs.append(len(results))
        return results

    with patch.object(BatchedTimingCore, "run_samples", spy):
        assert server().encrypt_batch(plaintexts) == expected
    assert slabs == [samples]
