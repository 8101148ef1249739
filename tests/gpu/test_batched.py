"""Batched structure-of-arrays core: golden parity with the event engine.

Every test compares full :class:`EncryptionRecord` dataclass equality —
ciphertext, every access count (total, per round, per last-round byte)
and the drawn partitions — between ``batched=True`` collection (the
counts core) and ``batched=False`` collection, which simulates every
launch on the event engine, the reference, and keeps only its counts.
The two paths share nothing below ``collect_records`` except the RNG
derivation, so equality here is the engine-parity contract the counts
core rides on; ``test_differential`` extends it to generated machines.
"""

import numpy as np
import pytest

import repro.gpu.batched as batched_module
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.selective import SelectiveRCoalPolicy
from repro.errors import BlockSizeError, ConfigurationError
from repro.experiments.base import (
    ExperimentContext,
    build_server,
    collect_records,
)
from repro.gpu.batched import BatchedCountsCore
from repro.gpu.engine import GPUSimulator
from repro.telemetry import Telemetry
from repro.telemetry.journal import RunJournal
from repro.telemetry.metrics import stable_json


def _both_engines(ctx, policy, num_samples):
    _, batched = collect_records(ctx.with_(batched=True), policy,
                                 num_samples, counts_only=True)
    _, event = collect_records(ctx.with_(batched=False), policy,
                               num_samples, counts_only=True)
    return batched, event


class TestGoldenParity:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_every_policy(self, policy_name):
        ctx = ExperimentContext(root_seed=2018, samples=3)
        policy = make_policy(policy_name, 8)
        batched, event = _both_engines(ctx, policy, 3)
        assert batched == event

    @pytest.mark.parametrize("subwarps", [1, 2, 4, 16, 32])
    def test_subwarp_sweep(self, subwarps):
        ctx = ExperimentContext(root_seed=2018, samples=2)
        policy = make_policy("rss_rts", subwarps)
        batched, event = _both_engines(ctx, policy, 2)
        assert batched == event

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_seed_sweep(self, seed):
        ctx = ExperimentContext(root_seed=seed, samples=2)
        policy = make_policy("fss_rts", 4)
        batched, event = _both_engines(ctx, policy, 2)
        assert batched == event

    @pytest.mark.parametrize("lines", [1, 8, 33, 40, 64])
    def test_line_counts_including_partial_warps(self, lines):
        ctx = ExperimentContext(root_seed=3, samples=2, lines=lines)
        policy = make_policy("rss", 8)
        batched, event = _both_engines(ctx, policy, 2)
        assert batched == event

    def test_selective_policy_resolves_per_round(self):
        ctx = ExperimentContext(root_seed=11, samples=3)
        policy = SelectiveRCoalPolicy(make_policy("rss_rts", 8))
        batched, event = _both_engines(ctx, policy, 3)
        assert batched == event

    def test_counts_are_nontrivial(self):
        # Guard against the parity tests passing vacuously on all-zero
        # records.
        ctx = ExperimentContext(root_seed=2018, samples=2)
        batched, _ = _both_engines(ctx, make_policy("rss_rts", 8), 2)
        assert all(r.total_accesses > 0 for r in batched)
        assert all(sum(r.last_round_byte_accesses) ==
                   r.last_round_accesses for r in batched)

    def test_counts_only_records_carry_zero_times(self):
        ctx = ExperimentContext(root_seed=2018, samples=2)
        batched, _ = _both_engines(ctx, make_policy("fss", 8), 2)
        assert all(r.total_time == 0 and r.last_round_time == 0
                   for r in batched)


#: The instruments the counts core shares with the event engine's
#: coalescing unit; the engine also records DRAM, interconnect and
#: simulation metrics the counts core has no model for.
SHARED_INSTRUMENTS = ("coalescer.instructions", "coalescer.accesses",
                      "coalescer.accesses_per_instruction",
                      "coalescer.subwarps_per_instruction")


class TestTelemetryParity:
    @pytest.mark.parametrize("policy,lines", [
        (make_policy("rss_rts", 8), 32),
        (make_policy("fss", 4), 40),
        (SelectiveRCoalPolicy(make_policy("rss_rts", 8)), 32),
    ], ids=["rss_rts", "fss-partial-warp", "selective"])
    def test_shared_coalescer_metrics_are_identical(self, policy, lines):
        snapshots = []
        for batched in (True, False):
            telemetry = Telemetry()
            ctx = ExperimentContext(root_seed=2018, samples=3, lines=lines,
                                    telemetry=telemetry, batched=batched)
            collect_records(ctx, policy, 3, counts_only=True)
            snapshot = telemetry.metrics.snapshot()
            snapshots.append(stable_json(
                {name: snapshot[name] for name in SHARED_INSTRUMENTS}))
        assert snapshots[0] == snapshots[1]


class TestSlabbing:
    def test_slab_boundaries_do_not_change_records(self, monkeypatch):
        ctx = ExperimentContext(root_seed=5, samples=5)
        policy = make_policy("rss_rts", 8)
        _, whole = collect_records(ctx.with_(batched=True), policy, 5,
                                   counts_only=True)
        # Shrink the slab cap so the same batch is processed one or two
        # samples at a time.
        monkeypatch.setattr(batched_module, "_SLAB_KEY_BYTES", 1)
        _, slabbed = collect_records(ctx.with_(batched=True), policy, 5,
                                     counts_only=True)
        assert whole == slabbed


class TestCoreValidation:
    def _core(self):
        ctx = ExperimentContext(root_seed=1)
        server = build_server(ctx, make_policy("fss", 8), counts_only=True)
        return BatchedCountsCore(server)

    def test_requires_a_counts_only_server(self):
        ctx = ExperimentContext(root_seed=1)
        timed = build_server(ctx, make_policy("fss", 8))
        with pytest.raises(ConfigurationError):
            BatchedCountsCore(timed)

    def test_rejects_mismatched_rng_list(self):
        core = self._core()
        with pytest.raises(ConfigurationError):
            core.encrypt_batch([b"\x00" * 512], [])

    def test_rejects_ragged_plaintexts(self):
        core = self._core()
        with pytest.raises(ConfigurationError):
            core.encrypt_batch([b"\x00" * 512, b"\x00" * 256], [None, None])

    def test_rejects_unaligned_plaintexts(self):
        core = self._core()
        with pytest.raises(BlockSizeError):
            core.encrypt_batch([b"\x00" * 17], [None])

    def test_empty_batch(self):
        assert self._core().encrypt_batch([], []) == []

    def test_on_record_fires_per_sample(self):
        core = self._core()
        seen = []
        records = core.encrypt_batch(
            [bytes(16), bytes(range(16))], [None, None],
            on_record=seen.append,
        )
        assert seen == records
        assert len(seen) == 2


class TestEngineSelection:
    def test_event_reference_simulates_every_launch(self, tmp_path,
                                                    monkeypatch):
        # batched=False is the reference: one event-engine launch per
        # sample, wavefront core off, journaled as such, and the counts
        # the batched core produces.
        launches = []
        original = GPUSimulator.run

        def spy(self, programs, sid_maps):
            result = original(self, programs, sid_maps)
            launches.append(self._timed_core)
            return result

        monkeypatch.setattr(GPUSimulator, "run", spy)
        policy = make_policy("rss_rts", 8)
        ctx = ExperimentContext(root_seed=2018, samples=3)
        journal = RunJournal(tmp_path / "events.jsonl")
        _, event = collect_records(ctx.with_(batched=False, journal=journal),
                                   policy, 3, counts_only=True)
        assert launches == [None, None, None]
        engines = [e["engine"] for e in journal.read()
                   if e["kind"] == "engine_select"]
        assert engines == ["event"]
        _, batched = collect_records(ctx, policy, 3, counts_only=True)
        assert len(launches) == 3  # the batched core runs no launch
        assert batched == event

    def test_timed_collection_ignores_the_batched_flag(self):
        # Timed records come from the timing engines; batched=False must
        # not change them.
        ctx = ExperimentContext(root_seed=2018, samples=2)
        policy = make_policy("fss", 4)
        _, timed_a = collect_records(ctx.with_(batched=True), policy, 2)
        _, timed_b = collect_records(ctx.with_(batched=False), policy, 2)
        assert timed_a == timed_b
        assert all(r.total_time > 0 for r in timed_a)
