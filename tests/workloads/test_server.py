"""Tests for the victim encryption server."""

from dataclasses import replace

import pytest

from repro.aes.key_schedule import NUM_ROUNDS, last_round_key
from repro.aes.modes import encrypt_lines
from repro.core.policies import RSSPolicy, make_policy
from repro.errors import ConfigurationError
from repro.rng import RngStream
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
