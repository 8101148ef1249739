"""Throughput floors: order-of-magnitude gates on the fast paths.

The parity tests prove that the fast engines compute what the event
engine computes; they cannot see a fast path that quietly stops being
fast. These gates can. Every bound sits well below what a healthy tree
measures (most were set against ``BENCH_6.json`` with several-fold
slack; the multi-warp floor of 1.5 against a measured 2.4-2.9), so it
catches a disabled fast path, a silent fallback or a quadratic loop, not
10% noise. Ranking work by speed is the job of the benchmark under
``bench/``.

The workloads:

* *timed*: 8 timed 32-line ``rss_rts`` M=8 launches, on the default
  engine, on the event engine and under ``Telemetry(profile=True)``;
* *wide*: 2 timed 128-line (4-warp) ``rss_rts`` M=8 launches, on the
  default engine and on the event engine;
* *fig18*: one timed 1024-line (32-warp) ``rss_rts`` M=8 launch, handed
  to the timing core as its phase hands it, on the recurrence replay and
  forced onto the calendar replay;
* *sample axis*: one 32-sample timed 32-line ``rss_rts`` M=8 phase, which
  the timing core takes in slabs of many samples, against the same
  samples launched one ``encrypt`` at a time;
* *counts*: 4 counts-only 256-line samples, plain, with a run journal,
  and drained through the shard lease protocol in 1-sample chunks;
* *appends*: 512 fsync'd run-journal appends.

Every value but two is the best of three runs. Each round runs every
side of a workload once, in the reverse order of the round before, so a
slow spell on a shared host hits both sides of a ratio and a drifting
host favours neither. The exceptions are the sample-axis gain and the
recurrence replay's gain over the calendar, each the median over five
such rounds of each round's CPU ratio: both sides of a round run back to
back, so a slow spell slows both, where a best of three can pair one
side's fast spell with the other's slow one.
The CPU-bound values (simulated cycles per second, the
speedup over the event engine, the profiler's overhead and milliseconds
per counts sample) are timed with ``time.process_time``; the journal and
shard values, which wait on fsync, are timed on the wall clock.

Every bound has a negative control. It injects the regression the bound
guards against and shows the value crossing the bound by a quarter or
more. Most controls measure once, since the regression dwarfs the noise.
The sample-axis control does not: one-sample slabs cost about what one
launch at a time costs, so it measures both sides under its patch, the
median of five paired rounds, as its gate does; nor do the multi-warp
control and the recurrence replay's, whose sides cost nearly alike under
their patches.
A timed phase reaches the timing core through its batch entry,
``BatchedTimingCore.run_samples``, one call per slab of samples, so the
controls of the timed floors patch that entry and inject their
regression once per sample of the slab.
"""

import statistics
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List
from unittest.mock import patch

import pytest

from repro.core.policies import make_policy
from repro.experiments.base import (ExperimentContext, build_server,
                                    collect_records, victim_stream_name)
from repro.experiments.checkpoint import CheckpointStore, campaign_fingerprint
from repro.experiments.runner import PhaseWork
from repro.experiments.shard import LeaseManager, ShardPolicy
from repro.gpu.batched import BatchedCountsCore
from repro.gpu.timed_batch import (BatchedTimingCore, UnsupportedLaunch,
                                   _HandOff)
from repro.telemetry import Telemetry
from repro.telemetry.journal import RunJournal
from repro.telemetry.tracer import Tracer
from repro.workloads import server as server_module
from repro.workloads.plaintext import random_plaintexts

POLICY = make_policy("rss_rts", 8)
LAUNCHES = 8
WIDE_LAUNCHES = 2
PHASE_SAMPLES = 32
SAMPLES = 4
APPENDS = 512
ROUNDS = 3
#: Rounds of the sample-axis gain, a median of per-round ratios.
PAIRED_ROUNDS = 5
TIMED = ExperimentContext(root_seed=2018, samples=LAUNCHES)
WIDE = ExperimentContext(root_seed=2018, samples=WIDE_LAUNCHES, lines=128)
PHASE = ExperimentContext(root_seed=2018, samples=PHASE_SAMPLES)
COUNTS = ExperimentContext(root_seed=2018, samples=SAMPLES, lines=256)
FIG18 = ExperimentContext(root_seed=2018, samples=1, lines=1024)

SIM_CYCLES_PER_SECOND_FLOOR = 400_000
SPEEDUP_VS_EVENT_FLOOR = 1.5
MULTI_WARP_SPEEDUP_FLOOR = 1.5
#: A 32-warp launch's CPU on the calendar replay over the recurrence
#: replay's. In 20 runs on a shared 2-CPU VM the gate read 1.39-2.30 and
#: its negative control 0.51-0.76 (bound 0.92): the worst of each lands
#: 1.21x from its line.
RECURRENCE_SPEEDUP_FLOOR = 1.15
#: Samples per CPU second of a batched phase over one launch at a time
#: (measured 2.8 on a 2-CPU VM).
SAMPLE_AXIS_SPEEDUP_FLOOR = 1.4
PROFILER_OVERHEAD_CEILING = 3.3
MS_PER_SAMPLE_CEILING = 15.0
APPENDS_PER_SECOND_FLOOR = 100
JOURNAL_OVERHEAD_CEILING = 5.0
SHARD_OVERHEAD_CEILING = 10.0
#: How far past its bound a negative control must land.
MARGIN = 1.25


@dataclass
class Run:
    """One side of a workload: its best CPU and wall seconds, the records
    of its last run, and its CPU seconds in each round."""

    cpu: float
    wall: float
    records: object
    cpus: List[float]


def measure(sides, rounds=ROUNDS):
    """Run every side once per round, reversing the order each round;
    returns a :class:`Run` per side."""
    best = {}
    order = list(sides)
    for _ in range(rounds):
        for name in order:
            cpu, wall = time.process_time(), time.perf_counter()
            records = sides[name]()
            cpus = [time.process_time() - cpu]
            wall = time.perf_counter() - wall
            if name in best:
                cpus = best[name].cpus + cpus
                wall = min(wall, best[name].wall)
            best[name] = Run(min(cpus), wall, records, cpus)
        order.reverse()
    return best


def once(side):
    return measure({"side": side}, rounds=1)["side"]


def timed(**fields):
    return collect_records(TIMED.with_(**fields), POLICY, LAUNCHES)[1]


def event_timed():
    return timed(batched_timing=False)


def wide(**fields):
    return collect_records(WIDE.with_(**fields), POLICY, WIDE_LAUNCHES)[1]


def event_wide():
    return wide(batched_timing=False)


def phase():
    return collect_records(PHASE, POLICY, PHASE_SAMPLES)[1]


def fig18_batch():
    """The timing core and the one-sample 1024-line batch a fig18 phase
    hands it."""
    batches = []
    run_samples = BatchedTimingCore.run_samples

    def spy(self, batch):
        batches.append((self, batch))
        return run_samples(self, batch)

    with patch.object(BatchedTimingCore, "run_samples", spy):
        collect_records(FIG18, POLICY, 1)
    return batches[0]


def decline(self, launch):
    raise _HandOff("forced")


def replay_sides(core, batch):
    """The batch on the default path, and forced onto the calendar."""
    def calendar():
        with patch.object(BatchedTimingCore, "_replay_recurrences", decline):
            return core.run_samples(batch)

    return {"default": lambda: core.run_samples(batch),
            "calendar": calendar}


def one_at_a_time():
    """The phase's samples, one ``encrypt`` each, with the same streams."""
    server = build_server(PHASE, POLICY)
    plaintexts = random_plaintexts(PHASE_SAMPLES, PHASE.lines,
                                   PHASE.stream("workload"))
    stream = victim_stream_name(POLICY)
    return [server.encrypt(plaintext, rng=PHASE.sample_stream(stream, index))
            for index, plaintext in enumerate(plaintexts)]


def paired_ratio(slow, fast):
    """The median over rounds of each round's ``slow / fast`` CPU
    ratio."""
    return statistics.median(one / other
                             for one, other in zip(slow.cpus, fast.cpus))


def samples_per_cpu_second_gain(batched, single):
    """The phase's samples per CPU second over one launch at a time's:
    the median over rounds of each round's ``single / batched`` CPU
    ratio."""
    return paired_ratio(single, batched)


def profiled():
    # A fresh Telemetry per run, so no run inherits a fuller tracer.
    return timed(telemetry=Telemetry(profile=True))


def counts(**fields):
    return collect_records(COUNTS.with_(**fields), POLICY, SAMPLES,
                           counts_only=True)[1]


def ledgered():
    with tempfile.TemporaryDirectory() as tmp:
        return counts(journal=RunJournal(Path(tmp) / "events.jsonl"))


def sharded():
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore.open(
            Path(tmp) / "run",
            campaign_fingerprint("floors", COUNTS, instrumented=False))
        return counts(checkpoint=store,
                      shard=ShardPolicy(worker="floors", lease_seconds=30.0,
                                        chunk_samples=1))


def append_burst(appends=APPENDS):
    with tempfile.TemporaryDirectory() as tmp:
        journal = RunJournal(Path(tmp) / "events.jsonl")
        for index in range(appends):
            journal.append("tick", index=index)


def sim_cycles_per_second(run):
    return sum(record.total_time for record in run.records) / run.cpu


def burn(seconds):
    """Busy-wait: a delay that ``time.process_time`` sees."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def delay(monkeypatch, owner, name, wait, seconds):
    """Make every call of ``owner.name`` first ``wait(seconds)``."""
    original = getattr(owner, name)

    def delayed(*args, **kwargs):
        wait(seconds)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, delayed)


@pytest.fixture(scope="module")
def timing():
    return measure({"default": timed, "event": event_timed,
                    "profiled": profiled})


@pytest.fixture(scope="module")
def wide_timing():
    return measure({"default": wide, "event": event_wide})


@pytest.fixture(scope="module")
def recurrence_timing():
    return measure(replay_sides(*fig18_batch()), rounds=PAIRED_ROUNDS)


@pytest.fixture(scope="module")
def sample_axis():
    return measure({"phase": phase, "single": one_at_a_time},
                   rounds=PAIRED_ROUNDS)


@pytest.fixture(scope="module")
def counting():
    return measure({"plain": counts, "ledgered": ledgered,
                    "sharded": sharded})


@pytest.fixture(scope="module")
def event_counts():
    """The counts workload on the event engine, run once: the reference
    of the counts parity check, and the regression the ms-per-sample
    ceiling guards against."""
    return once(lambda: counts(batched=False))


class TestTimedLaunches:
    def test_sim_cycles_per_second(self, timing):
        assert sim_cycles_per_second(timing["default"]) \
            >= SIM_CYCLES_PER_SECOND_FLOOR

    def test_speedup_vs_event(self, timing):
        assert timing["event"].cpu / timing["default"].cpu \
            >= SPEEDUP_VS_EVENT_FLOOR

    def test_cycles_identical(self, timing):
        assert timing["default"].records == timing["event"].records

    def test_profiler_overhead(self, timing):
        assert timing["profiled"].cpu / timing["event"].cpu \
            <= PROFILER_OVERHEAD_CEILING


class TestMultiWarpLaunches:
    def test_speedup_vs_event(self, wide_timing):
        assert wide_timing["event"].cpu / wide_timing["default"].cpu \
            >= MULTI_WARP_SPEEDUP_FLOOR

    def test_records_identical(self, wide_timing):
        assert wide_timing["default"].records == wide_timing["event"].records


class TestRecurrenceReplay:
    def test_speedup_over_the_calendar(self, recurrence_timing):
        assert paired_ratio(recurrence_timing["calendar"],
                            recurrence_timing["default"]) \
            >= RECURRENCE_SPEEDUP_FLOOR

    def test_records_identical(self, recurrence_timing):
        assert recurrence_timing["default"].records \
            == recurrence_timing["calendar"].records


class TestSampleAxis:
    def test_samples_per_cpu_second(self, sample_axis):
        assert samples_per_cpu_second_gain(sample_axis["phase"],
                                           sample_axis["single"]) \
            >= SAMPLE_AXIS_SPEEDUP_FLOOR

    def test_records_identical(self, sample_axis):
        assert sample_axis["phase"].records == sample_axis["single"].records


class TestCountsSamples:
    def test_ms_per_sample(self, counting):
        assert counting["plain"].cpu / SAMPLES * 1e3 <= MS_PER_SAMPLE_CEILING

    def test_counts_identical(self, counting, event_counts):
        assert counting["plain"].records == event_counts.records

    def test_journal_overhead(self, counting):
        assert counting["ledgered"].wall / counting["plain"].wall \
            <= JOURNAL_OVERHEAD_CEILING

    def test_shard_overhead(self, counting):
        assert counting["sharded"].wall / counting["plain"].wall \
            <= SHARD_OVERHEAD_CEILING

    def test_records_identical(self, counting):
        assert counting["sharded"].records == counting["plain"].records


def test_appends_per_second():
    burst = measure({"burst": append_burst})["burst"]
    assert APPENDS / burst.wall >= APPENDS_PER_SECOND_FLOOR


class TestNegativeControls:
    def test_a_slow_timing_core_breaks_the_cycle_floor(self, monkeypatch):
        run_samples = BatchedTimingCore.run_samples

        def slow(self, batch):
            burn(0.06 * batch.num_samples)
            return run_samples(self, batch)

        monkeypatch.setattr(BatchedTimingCore, "run_samples", slow)
        assert sim_cycles_per_second(once(timed)) \
            < SIM_CYCLES_PER_SECOND_FLOOR / MARGIN

    def test_a_core_that_falls_back_breaks_the_speedup_floor(
            self, monkeypatch):
        run_samples = BatchedTimingCore.run_samples

        def fall_back(self, batch):
            run_samples(self, batch)
            raise UnsupportedLaunch("forced")

        monkeypatch.setattr(BatchedTimingCore, "run_samples", fall_back)
        # Both sides now end on the event engine, and the batch the core
        # simulates first costs a few percent of it, so single runs would
        # differ by little more than noise: keep the best of five.
        fallen = measure({"default": timed, "event": event_timed}, rounds=5)
        assert fallen["event"].cpu / fallen["default"].cpu \
            < SPEEDUP_VS_EVENT_FLOOR / MARGIN

    def test_a_core_that_declines_multi_warp_launches_breaks_the_floor(
            self, monkeypatch):
        run_samples = BatchedTimingCore.run_samples

        def decline(self, batch):
            results = run_samples(self, batch)
            if batch.num_warps > 1:
                raise UnsupportedLaunch("forced")
            return results

        monkeypatch.setattr(BatchedTimingCore, "run_samples", decline)
        # The default side does strictly more work (the core's replay,
        # then the event engine), so the ratio sits near one: the median
        # of paired rounds, not a best of three that one fast round on
        # either side could decide.
        fallen = measure({"default": wide, "event": event_wide},
                         rounds=PAIRED_ROUNDS)
        assert paired_ratio(fallen["event"], fallen["default"]) \
            < MULTI_WARP_SPEEDUP_FLOOR / MARGIN

    def test_a_replay_that_hands_every_launch_off_breaks_the_floor(
            self, monkeypatch):
        # Every launch is handed off at the end of its recurrence replay,
        # the most a hand-off can cost: the default side then runs both
        # replays.
        core, batch = fig18_batch()
        replay = BatchedTimingCore._replay_recurrences

        def hand_off(self, launch):
            replay(self, launch)
            raise _HandOff("forced")

        monkeypatch.setattr(BatchedTimingCore, "_replay_recurrences",
                            hand_off)
        fallen = measure(replay_sides(core, batch), rounds=PAIRED_ROUNDS)
        assert core.handoffs["forced"] >= PAIRED_ROUNDS
        assert paired_ratio(fallen["calendar"], fallen["default"]) \
            < RECURRENCE_SPEEDUP_FLOOR / MARGIN

    def test_a_core_one_cycle_off_breaks_cycle_parity(self, timing,
                                                      monkeypatch):
        run_samples = BatchedTimingCore.run_samples

        def late(self, batch):
            return [replace(result, total_cycles=result.total_cycles + 1)
                    for result in run_samples(self, batch)]

        monkeypatch.setattr(BatchedTimingCore, "run_samples", late)
        assert timed() != timing["event"].records

    def test_one_sample_slabs_break_the_sample_axis_floor(self, monkeypatch):
        # Every slab holds one sample: the phase times its samples one at
        # a time, like the other side. Both sides are measured under the
        # patch, PAIRED_ROUNDS alternating rounds, as the floor is.
        monkeypatch.setattr(server_module, "_SLAB_LANE_BYTES", 1)
        sliced = measure({"phase": phase, "single": one_at_a_time},
                         rounds=PAIRED_ROUNDS)
        assert sliced["phase"].records == sliced["single"].records
        assert samples_per_cpu_second_gain(sliced["phase"],
                                           sliced["single"]) \
            < SAMPLE_AXIS_SPEEDUP_FLOOR / MARGIN

    def test_a_slow_tracer_breaks_the_profiler_ceiling(self, timing,
                                                       monkeypatch):
        event = timing["event"].cpu
        # Tracing each launch costs four event-engine launches more, so
        # the ratio exceeds 4 however fast the profiled run itself is.
        delay(monkeypatch, Tracer, "advance_time_base", burn,
              4 * event / LAUNCHES)
        assert once(profiled).cpu / event > PROFILER_OVERHEAD_CEILING * MARGIN

    def test_the_event_engine_breaks_the_counts_ceiling(self, event_counts):
        assert event_counts.cpu / SAMPLES * 1e3 \
            > MS_PER_SAMPLE_CEILING * MARGIN

    def test_a_miscounting_core_breaks_counts_parity(self, event_counts,
                                                     monkeypatch):
        encrypt_batch = BatchedCountsCore.encrypt_batch

        def miscount(self, plaintexts, rngs, on_record=None):
            first, *rest = encrypt_batch(self, plaintexts, rngs,
                                         on_record=on_record)
            return [replace(first, total_accesses=first.total_accesses + 1),
                    *rest]

        monkeypatch.setattr(BatchedCountsCore, "encrypt_batch", miscount)
        assert counts() != event_counts.records

    def test_a_slow_append_breaks_the_append_floor(self, monkeypatch):
        delay(monkeypatch, RunJournal, "append", time.sleep, 0.025)
        # The floor is a per-append rate, so a short burst shows it.
        burst = once(lambda: append_burst(appends=16))
        assert 16 / burst.wall < APPENDS_PER_SECOND_FLOOR / MARGIN

    def test_a_slow_append_breaks_the_journal_ceiling(self, counting,
                                                      monkeypatch):
        # Each ledger append costs two plain runs more.
        delay(monkeypatch, RunJournal, "append", time.sleep,
              2 * counting["plain"].wall)
        assert once(ledgered).wall / counting["plain"].wall \
            > JOURNAL_OVERHEAD_CEILING * MARGIN

    def test_a_slow_lease_claim_breaks_the_shard_ceiling(self, counting,
                                                         monkeypatch):
        # Each of the four leases costs five plain runs more.
        delay(monkeypatch, LeaseManager, "claim", time.sleep,
              5 * counting["plain"].wall)
        assert once(sharded).wall / counting["plain"].wall \
            > SHARD_OVERHEAD_CEILING * MARGIN

    def test_a_lease_path_one_sample_off_breaks_shard_parity(
            self, counting, monkeypatch):
        simulate = PhaseWork.simulate

        def shifted(self, indices, attempt, progress, in_worker=False,
                    telemetry=None):
            if in_worker:  # the lease scheduler's call
                indices = [(index + 1) % SAMPLES for index in indices]
            return simulate(self, indices, attempt, progress,
                            in_worker=in_worker, telemetry=telemetry)

        monkeypatch.setattr(PhaseWork, "simulate", shifted)
        assert sharded() != counting["plain"].records
