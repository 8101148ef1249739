"""The process-parallel runner is bit-identical to the serial path.

These are the regression guards for the parallel fan-out contract: any
``-j N`` run — records, experiment rows, recovered keys, merged
telemetry — must equal the serial run byte for byte. Pool startup makes
these the slowest unit tests in the suite, so sample counts are small;
the determinism argument (per-sample RNG derivation + in-order merge)
does not depend on batch size.
"""

import pytest

from repro.core.policies import make_policy
from repro.experiments.base import (
    ExperimentContext,
    collect_records,
    run_corresponding_attack,
)
from repro.experiments.checkpoint import contiguous_chunks
from repro.experiments.registry import run_experiment
from repro.telemetry import Telemetry

SEED = 4242


class TestChunkIndices:
    """The executor's one chunking rule, ``contiguous_chunks``."""

    def test_contiguous_runs_of_at_most_size(self):
        assert contiguous_chunks(range(10), 4) \
            == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]

    def test_never_returns_empty_ranges(self):
        assert contiguous_chunks(range(2), 0) == [(0,), (1,)]
        assert contiguous_chunks([], 4) == []

    def test_single_chunk_is_identity(self):
        assert contiguous_chunks(range(5), 5) == [(0, 1, 2, 3, 4)]

    @pytest.mark.parametrize("count,size", [(1, 1), (7, 2), (8, 4),
                                            (9, 4), (100, 16)])
    def test_partitions_exactly(self, count, size):
        chunks = contiguous_chunks(range(count), size)
        assert [i for chunk in chunks for i in chunk] == list(range(count))
        assert all(0 < len(chunk) <= size for chunk in chunks)

    def test_resume_holes_are_never_bridged(self):
        assert contiguous_chunks([0, 1, 2, 5, 6, 9], 8) \
            == [(0, 1, 2), (5, 6), (9,)]

    def test_full_range_boundaries_are_fixed_for_leases(self):
        # Shard workers lease these spans by name, so they must depend on
        # (num_samples, size) alone.
        assert [(c[0], c[-1]) for c in contiguous_chunks(range(12), 5)] \
            == [(0, 4), (5, 9), (10, 11)]


def _record_key(record):
    return (record.ciphertext, record.total_time, record.last_round_time,
            record.total_accesses, record.last_round_accesses,
            sorted(record.round_accesses.items()),
            record.last_round_byte_accesses,
            sorted((w, p.sizes) for w, p in record.partitions.items()))


class TestParallelCollection:
    SAMPLES = 6

    def _collect(self, jobs, counts_only=False, telemetry=None):
        ctx = ExperimentContext(root_seed=SEED, samples=self.SAMPLES,
                                jobs=jobs, telemetry=telemetry)
        return collect_records(ctx, make_policy("rss_rts", 8),
                               self.SAMPLES, counts_only=counts_only)

    def test_records_match_serial_bit_for_bit(self):
        _, serial = self._collect(jobs=1)
        _, parallel = self._collect(jobs=3)
        assert [_record_key(r) for r in parallel] \
            == [_record_key(r) for r in serial]

    def test_counts_only_path_matches_too(self):
        _, serial = self._collect(jobs=1, counts_only=True)
        _, parallel = self._collect(jobs=4, counts_only=True)
        assert [_record_key(r) for r in parallel] \
            == [_record_key(r) for r in serial]

    def test_merged_telemetry_equals_serial(self):
        serial_telemetry = Telemetry()
        parallel_telemetry = Telemetry()
        self._collect(jobs=1, telemetry=serial_telemetry)
        self._collect(jobs=3, telemetry=parallel_telemetry)
        assert parallel_telemetry.metrics.snapshot() \
            == serial_telemetry.metrics.snapshot()
        assert [(e.name, e.cat, e.ph, e.ts, e.dur, e.pid, e.tid)
                for e in parallel_telemetry.tracer.events] \
            == [(e.name, e.cat, e.ph, e.ts, e.dur, e.pid, e.tid)
                for e in serial_telemetry.tracer.events]
        assert parallel_telemetry.tracer.time_base \
            == serial_telemetry.tracer.time_base

    def test_recovered_key_matches_serial(self):
        # The end-to-end property the paper's tables depend on: the attack
        # sees identical observables, so it recovers identical key bytes.
        serial_server, serial_records = self._collect(jobs=1)
        parallel_server, parallel_records = self._collect(jobs=2)
        ctx = ExperimentContext(root_seed=SEED, samples=self.SAMPLES)
        serial_recovery = run_corresponding_attack(
            ctx, serial_server, serial_records, "rss_rts", 8)
        parallel_recovery = run_corresponding_attack(
            ctx, parallel_server, parallel_records, "rss_rts", 8)
        assert parallel_recovery.recovered_key \
            == serial_recovery.recovered_key
        assert parallel_recovery.num_correct \
            == serial_recovery.num_correct


class TestParallelExperiment:
    def test_fig07_rows_match_serial(self):
        serial = run_experiment(
            "fig07", ExperimentContext(root_seed=SEED, samples=4))
        parallel = run_experiment(
            "fig07", ExperimentContext(root_seed=SEED, samples=4, jobs=4))
        assert parallel.rows == serial.rows
        assert parallel.render() == serial.render()
