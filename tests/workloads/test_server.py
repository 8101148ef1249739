"""Tests for the victim encryption server."""

from dataclasses import replace

import numpy as np
import pytest

from repro.aes.batch import encrypt_batch
from repro.aes.key_schedule import NUM_ROUNDS, last_round_key
from repro.aes.modes import encrypt_lines
from repro.aes.ttable import TTableAES
from repro.core.policies import RSSPolicy, make_policy
from repro.core.selective import SelectiveRCoalPolicy
from repro.errors import BlockSizeError, ConfigurationError
from repro.experiments.base import ExperimentContext, collect_records
from repro.gpu.coalescer import CoalescingUnit
from repro.gpu.warp import build_warp_programs
from repro.rng import RngStream
from repro.telemetry import Telemetry
from repro.workloads.plaintext import random_plaintexts
from repro.workloads.server import EncryptionServer


@pytest.fixture
def plaintexts():
    return random_plaintexts(3, 32, RngStream(5, "pt"))


class TestEncryption:
    def test_ciphertext_is_real_aes(self, test_key, plaintexts):
        server = EncryptionServer(test_key, make_policy("baseline"))
        record = server.encrypt(plaintexts[0])
        assert record.ciphertext == encrypt_lines(plaintexts[0], test_key)
        assert len(record.ciphertext_lines) == 32

    def test_exposes_last_round_key(self, test_key):
        server = EncryptionServer(test_key, make_policy("baseline"))
        assert server.last_round_key == last_round_key(test_key)

    def test_record_fields_populated(self, test_key, plaintexts):
        server = EncryptionServer(test_key, make_policy("baseline"))
        record = server.encrypt(plaintexts[0])
        assert record.total_time > 0
        assert record.last_round_time > 0
        assert record.total_accesses > 0
        assert record.last_round_accesses > 0
        assert len(record.round_accesses) == NUM_ROUNDS
        assert len(record.last_round_byte_accesses) == 16
        assert sum(record.last_round_byte_accesses) \
            == record.last_round_accesses

    def test_randomized_policy_requires_rng(self, test_key):
        with pytest.raises(ConfigurationError):
            EncryptionServer(test_key, RSSPolicy(4))

    def test_batch_preserves_order(self, test_key, plaintexts):
        server = EncryptionServer(test_key, make_policy("baseline"))
        records = server.encrypt_batch(plaintexts)
        for record, plaintext in zip(records, plaintexts):
            assert record.ciphertext == encrypt_lines(plaintext, test_key)


class TestCountsOnlyMode:
    def test_counts_match_full_simulation(self, test_key, plaintexts):
        """Counts-only must be bit-identical to the timing simulation for
        every count, given the same victim stream state."""
        for policy_name in ("baseline", "fss", "rss_rts"):
            full = EncryptionServer(
                test_key, make_policy(policy_name, 4),
                rng=RngStream(9, f"v-{policy_name}"),
            )
            fast = EncryptionServer(
                test_key, make_policy(policy_name, 4),
                rng=RngStream(9, f"v-{policy_name}"),
                counts_only=True,
            )
            for plaintext in plaintexts:
                a = full.encrypt(plaintext)
                b = fast.encrypt(plaintext)
                assert a.total_accesses == b.total_accesses
                assert a.last_round_accesses == b.last_round_accesses
                assert a.round_accesses == b.round_accesses
                assert a.last_round_byte_accesses \
                    == b.last_round_byte_accesses

    def test_counts_only_skips_timing(self, test_key, plaintexts):
        server = EncryptionServer(test_key, make_policy("baseline"),
                                  counts_only=True)
        record = server.encrypt(plaintexts[0])
        assert record.total_time == 0
        assert record.last_round_time == 0
        assert record.total_accesses > 0

    def test_batch_draws_from_the_server_stream_in_turn(self, test_key,
                                                        plaintexts):
        # One batch consumes the server's stream exactly like one launch
        # per plaintext, and matches the event engine's records with the
        # times zeroed.
        def server(**kwargs):
            return EncryptionServer(test_key, make_policy("rss_rts", 8),
                                    rng=RngStream(9, "v"), **kwargs)

        batch = server(counts_only=True).encrypt_batch(plaintexts)
        one_by_one = server(counts_only=True)
        assert batch == [one_by_one.encrypt(p) for p in plaintexts]
        assert server(counts_only=True).encrypt_batch(
            plaintexts, [None] * len(plaintexts)) == batch
        timed = server(batched_timing=False).encrypt_batch(plaintexts)
        assert batch == [replace(r, total_time=0, last_round_time=0)
                         for r in timed]

    @pytest.mark.parametrize("counts_only", [False, True])
    def test_timed_batch_of_mixed_lengths_matches_one_at_a_time(
            self, test_key, counts_only):
        # A batch, timed or counts-only, is simulated in slabs of
        # equal-length samples; a length change starts a new slab, and
        # the shared stream is still drawn in sample order.
        plaintexts = [random_plaintexts(1, lines, RngStream(lines, "pt"))[0]
                      for lines in (32, 32, 5, 64, 32)]

        def server(**kwargs):
            return EncryptionServer(test_key, make_policy("rss_rts", 8),
                                    rng=RngStream(9, "v"),
                                    retain_kernel_results=True,
                                    counts_only=counts_only, **kwargs)

        reference = server(batched_timing=False)
        assert server().encrypt_batch(plaintexts) == [
            reference.encrypt(plaintext) for plaintext in plaintexts]

    def test_event_engine_reports_each_launch_as_it_finishes(self,
                                                              test_key):
        # An instrumented server times on the event engine, one launch at
        # a time, so each record is reported when its launch finishes,
        # not when its slab does.
        telemetry = Telemetry()
        server = EncryptionServer(test_key, make_policy("rss_rts", 8),
                                  rng=RngStream(9, "v"), telemetry=telemetry)
        kernels = []
        server.encrypt_batch(
            random_plaintexts(3, 32, RngStream(1, "pt")),
            on_record=lambda record: kernels.append(
                telemetry.metrics.counter("sim.kernels").value))
        assert kernels == [1, 2, 3]

    @pytest.mark.parametrize("counts_only", [False, True])
    def test_batch_rejects_mismatched_streams(self, test_key, plaintexts,
                                              counts_only):
        server = EncryptionServer(test_key, make_policy("baseline"),
                                  counts_only=counts_only)
        with pytest.raises(ConfigurationError):
            server.encrypt_batch(plaintexts, [None])

    def test_empty_plaintext_is_rejected(self, test_key):
        server = EncryptionServer(test_key, make_policy("baseline"),
                                  counts_only=True)
        with pytest.raises(ConfigurationError):
            server.encrypt(b"")

    @pytest.mark.parametrize("counts_only", [False, True])
    @pytest.mark.parametrize("plaintext, error", [
        (b"", ConfigurationError), (bytes(40), BlockSizeError)])
    def test_malformed_plaintexts_raise_in_both_modes(
            self, test_key, counts_only, plaintext, error):
        server = EncryptionServer(test_key, make_policy("baseline"),
                                  counts_only=counts_only)
        with pytest.raises(error) as raised:
            server.encrypt(plaintext)
        assert type(raised.value) is error


class TestPerByteCounts:
    """Round-10 counts per ciphertext byte come from the engine that
    simulated the launch."""

    @pytest.mark.parametrize("policy_name",
                             ["baseline", "fss", "rss_rts", "selective"])
    @pytest.mark.parametrize("lines", [32, 40, 96])
    def test_event_engine_counts_each_round_ten_load(self, test_key,
                                                     policy_name, lines):
        policy = (SelectiveRCoalPolicy(make_policy("rss", 4))
                  if policy_name == "selective"
                  else make_policy(policy_name, 4))
        server = EncryptionServer(test_key, policy,
                                  rng=RngStream(9, "victim"),
                                  retain_kernel_results=True,
                                  batched_timing=False)
        plaintext = random_plaintexts(1, lines, RngStream(5, "pt"))[0]
        record = server.encrypt(plaintext)

        # Recount every warp's round-10 loads through a fresh unit.
        indices = encrypt_batch(
            test_key, np.frombuffer(plaintext, dtype=np.uint8)
            .reshape(lines, 16))[1]
        expected = {}
        for program in build_warp_programs(indices, server.gpu.address_map):
            partition = record.partitions[program.warp_id]
            sids = (partition.assignment_for_round(NUM_ROUNDS)
                    if hasattr(partition, "assignment_for_round")
                    else partition.assignment)
            unit = CoalescingUnit(server.gpu.config.access_bytes)
            expected[program.warp_id] = [
                sum(len(group.block_addresses) for group in unit.coalesce(
                    load.addresses, sids, active_mask=load.active_mask))
                for load in program.round_memory_instructions(NUM_ROUNDS)]
        assert record.kernel_result.last_round_loads == expected
        assert record.last_round_byte_accesses \
            == [sum(counts) for counts in zip(*expected.values())]

    def test_default_timed_phase_calls_no_scalar_aes(self, monkeypatch):
        calls = []
        encrypt = TTableAES.encrypt

        def spy(self, plaintext):
            calls.append(plaintext)
            return encrypt(self, plaintext)

        monkeypatch.setattr(TTableAES, "encrypt", spy)
        _, records = collect_records(
            ExperimentContext(root_seed=2018, samples=2),
            make_policy("rss_rts", 8), 2)
        assert all(record.total_time > 0 for record in records)
        assert calls == []


class TestPolicyVisibility:
    def test_partitions_recorded_per_warp(self, test_key):
        plaintext = random_plaintexts(1, 96, RngStream(5, "pt96"))[0]
        server = EncryptionServer(test_key, RSSPolicy(4),
                                  rng=RngStream(10, "victim"))
        record = server.encrypt(plaintext)
        assert set(record.partitions) == {0, 1, 2}

    def test_rss_draws_change_between_launches(self, test_key, plaintexts):
        server = EncryptionServer(test_key, RSSPolicy(4),
                                  rng=RngStream(10, "victim"))
        first = server.encrypt(plaintexts[0])
        second = server.encrypt(plaintexts[0])
        assert first.partitions[0].sizes != second.partitions[0].sizes \
            or first.partitions[0].assignment \
            != second.partitions[0].assignment
