"""Tests for the verbatim Algorithm 1 implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aes.sbox import INV_SBOX, SBOX
from repro.attack.algorithm1 import fss_attack_last_round_accesses
from repro.attack.estimator import AccessEstimator
from repro.core.policies import FSSPolicy, make_policy
from repro.errors import ConfigurationError

cipher_lines_strategy = st.lists(st.binary(min_size=16, max_size=16),
                                 min_size=32, max_size=32)
guesses = st.integers(min_value=0, max_value=255)


class TestManualCases:
    def test_identical_lines_single_subwarp(self):
        # All 32 lines identical: one table index -> one block.
        lines = [bytes(16)] * 32
        assert fss_attack_last_round_accesses(lines, 0, 0, 1) == 1

    def test_identical_lines_many_subwarps(self):
        # The same single block per subwarp -> M accesses.
        lines = [bytes(16)] * 32
        assert fss_attack_last_round_accesses(lines, 0, 0, 8) == 8

    def test_known_two_block_case(self):
        # Craft ciphertext bytes whose indices hit exactly two blocks.
        # index = InvS[c ^ 0]; choose c = S[0] (block 0) and S[16] (block 1).
        lines = ([bytes([SBOX[0]]) + bytes(15)] * 16
                 + [bytes([SBOX[16]]) + bytes(15)] * 16)
        assert fss_attack_last_round_accesses(lines, 0, 0, 1) == 2
        # With two subwarps of 16 the blocks separate: still 2 total.
        assert fss_attack_last_round_accesses(lines, 0, 0, 2) == 2
        # With four subwarps each half contributes per group: 4 total.
        assert fss_attack_last_round_accesses(lines, 0, 0, 4) == 4

    def test_guess_changes_the_count(self):
        # Guesses below 32 XOR-permute within {0..31} and cannot change the
        # index set, so diversity only appears across the full guess space.
        lines = [bytes([i]) * 16 for i in range(32)]
        counts = {fss_attack_last_round_accesses(lines, 0, g, 4)
                  for g in range(256)}
        assert len(counts) > 1


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            fss_attack_last_round_accesses([], 0, 0, 1)

    def test_rejects_non_dividing_subwarps(self):
        with pytest.raises(ConfigurationError):
            fss_attack_last_round_accesses([bytes(16)] * 32, 0, 0, 3)

    def test_rejects_bad_guess(self):
        with pytest.raises(ConfigurationError):
            fss_attack_last_round_accesses([bytes(16)] * 32, 0, 256, 1)


class TestAgainstEstimator:
    """Algorithm 1 must agree with the estimator (FSS model): both its
    vectorized ``access_matrix`` and its ``estimate_sample`` reference."""

    @given(cipher_lines_strategy, guesses,
           st.sampled_from([1, 2, 4, 8, 16, 32]),
           st.integers(min_value=0, max_value=15))
    @settings(max_examples=30, deadline=None)
    def test_matches_vectorized_fss_model(self, lines, guess, m, byte_index):
        expected = fss_attack_last_round_accesses(lines, byte_index,
                                                  guess, m)
        estimator = AccessEstimator(FSSPolicy(m))
        assert estimator.access_matrix([lines], byte_index)[guess, 0] \
            == expected
        assert estimator.estimate_sample(lines, byte_index, guess) \
            == expected

    @given(cipher_lines_strategy, guesses)
    @settings(max_examples=20, deadline=None)
    def test_m1_equals_baseline_model(self, lines, guess):
        baseline = AccessEstimator(make_policy("baseline"))
        assert baseline.estimate_sample(lines, 0, guess) \
            == fss_attack_last_round_accesses(lines, 0, guess, 1)

    def test_m32_counts_every_thread(self):
        lines = [bytes([i]) * 16 for i in range(32)]
        assert fss_attack_last_round_accesses(lines, 0, 77, 32) == 32
