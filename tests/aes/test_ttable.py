"""Tests for the trace-generating T-table AES."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aes.cipher import encrypt_block
from repro.aes.key_schedule import NUM_ROUNDS
from repro.aes.sbox import INV_SBOX
from repro.aes.tables import LAST_ROUND_TABLE_ID
from repro.aes.ttable import (
    LOOKUPS_PER_ROUND,
    EncryptionTrace,
    RoundTrace,
    TTableAES,
)
from repro.errors import BlockSizeError

keys = st.binary(min_size=16, max_size=16)
blocks = st.binary(min_size=16, max_size=16)


class TestCorrectness:
    @given(keys, blocks)
    @settings(max_examples=50)
    def test_matches_reference_cipher(self, key, plaintext):
        trace = TTableAES(key).encrypt(plaintext)
        assert trace.ciphertext == encrypt_block(plaintext, key)

    def test_rejects_bad_block(self, test_key):
        with pytest.raises(BlockSizeError):
            TTableAES(test_key).encrypt(b"short")


class TestTraceShape:
    def test_ten_rounds_sixteen_lookups_each(self, test_key):
        trace = TTableAES(test_key).encrypt(bytes(16))
        assert len(trace.rounds) == NUM_ROUNDS
        for round_trace in trace.rounds:
            assert len(round_trace.lookups) == LOOKUPS_PER_ROUND
        assert trace.total_lookups == NUM_ROUNDS * LOOKUPS_PER_ROUND

    def test_main_rounds_use_t0_to_t3_four_times_each(self, test_key):
        trace = TTableAES(test_key).encrypt(bytes(16))
        for round_trace in trace.rounds[:-1]:
            table_ids = [table for table, _ in round_trace.lookups]
            for table in range(4):
                assert table_ids.count(table) == 4

    def test_last_round_uses_t4_only(self, test_key):
        trace = TTableAES(test_key).encrypt(bytes(16))
        assert all(table == LAST_ROUND_TABLE_ID
                   for table, _ in trace.last_round.lookups)

    def test_round_trace_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            RoundTrace(1, ((0, 0),) * 3)


class TestEquationThree:
    """The attack inverts t_j = InvSBox[c_j ^ k_j]; the trace must agree."""

    @given(keys, blocks)
    @settings(max_examples=50)
    def test_last_round_indices_invert_from_ciphertext(self, key, plaintext):
        aes = TTableAES(key)
        trace = aes.encrypt(plaintext)
        k10 = aes.last_round_key
        for j, (table, index) in enumerate(trace.last_round.lookups):
            assert index == INV_SBOX[trace.ciphertext[j] ^ k10[j]]
