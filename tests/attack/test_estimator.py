"""Tests for the vectorized access estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.estimator import AccessEstimator
from repro.core.policies import (POLICY_NAMES, FSSPolicy, RSSPolicy,
                                 make_policy)
from repro.errors import ConfigurationError
from repro.rng import RngStream

#: Tier-1 runs 100 derandomized examples. ``make fuzz`` loads the
#: ``fuzz`` profile (tests/conftest.py): its example count and random
#: seed apply instead.
TIER1 = ({} if settings.get_current_profile_name() == "fuzz"
         else {"max_examples": 100, "derandomize": True})


def cipher_batch(num_samples=12, lines=32, seed=5):
    rng = RngStream(seed, "batch")
    return [[bytes(rng.random_bytes(16)) for _ in range(lines)]
            for _ in range(num_samples)]


class TestAccessMatrix:
    def test_shape(self):
        estimator = AccessEstimator(make_policy("baseline"))
        matrix = estimator.access_matrix(cipher_batch(), 0)
        assert matrix.shape == (256, 12)

    def test_counts_within_bounds(self):
        estimator = AccessEstimator(FSSPolicy(4))
        matrix = estimator.access_matrix(cipher_batch(), 0)
        assert matrix.min() >= 1
        assert matrix.max() <= 32

    def test_multiwarp_samples(self):
        batch = cipher_batch(num_samples=4, lines=96)
        estimator = AccessEstimator(make_policy("baseline"))
        matrix = estimator.access_matrix(batch, 0)
        # Up to 16 blocks per warp, 3 warps.
        assert matrix.max() <= 48
        assert matrix.min() >= 3

    def test_prepare_fixes_randomized_draws(self):
        batch = cipher_batch()
        rng = RngStream(9, "attacker")
        estimator = AccessEstimator(RSSPolicy(4, rts=True), rng=rng)
        estimator.prepare(batch)
        a = estimator.access_matrix(batch, 0)
        b = estimator.access_matrix(batch, 0)
        # Same prepared draws -> identical matrices.
        assert np.array_equal(a, b)

    def test_guess_chunking_is_exact(self, monkeypatch):
        import repro.attack.estimator as estimator_module

        batch = cipher_batch(num_samples=3, lines=70)
        model = RSSPolicy(6, rts=True)
        whole = AccessEstimator(model, rng=RngStream(4, "attacker"))
        expected = whole.access_matrix(batch, 9)
        # Fewer elements in flight than one guess column of every group:
        # one guess per chunk; then a chunk that does not divide 256.
        for max_elements in (1, 300):
            monkeypatch.setattr(estimator_module, "_MAX_ELEMENTS",
                                max_elements)
            chunked = AccessEstimator(model, rng=RngStream(4, "attacker"))
            assert np.array_equal(chunked.access_matrix(batch, 9), expected)

    def test_randomized_model_requires_rng(self):
        with pytest.raises(ConfigurationError):
            AccessEstimator(RSSPolicy(4))

    def test_batch_shape_validation(self):
        estimator = AccessEstimator(make_policy("baseline"))
        with pytest.raises(ConfigurationError):
            estimator.access_matrix([], 0)
        with pytest.raises(ConfigurationError):
            estimator.access_matrix(cipher_batch(), 16)
        ragged = cipher_batch(4)
        ragged[2] = ragged[2][:16]
        with pytest.raises(ConfigurationError):
            estimator.access_matrix(ragged, 0)
        for line in (bytes(0), bytes(15), bytes(17), "not bytes-like!!"):
            malformed = cipher_batch(4)
            malformed[1][7] = line
            with pytest.raises(ConfigurationError):
                AccessEstimator(make_policy("baseline")).access_matrix(
                    malformed, 0)
            # Also when the prepared batch was well formed.
            prepared = AccessEstimator(make_policy("baseline"))
            prepared.prepare(cipher_batch(4))
            with pytest.raises(ConfigurationError):
                prepared.access_matrix(malformed, 15)

    @pytest.mark.parametrize("estimator_warp,policy_warp",
                             [(64, 32), (32, 64), (16, 32)])
    def test_warp_size_must_match_the_model(self, estimator_warp,
                                            policy_warp):
        with pytest.raises(ConfigurationError):
            AccessEstimator(FSSPolicy(2, warp_size=policy_warp),
                            warp_size=estimator_warp)


@settings(deadline=None, database=None, **TIER1)
@given(name=st.sampled_from(POLICY_NAMES), subwarps=st.integers(1, 32),
       num_samples=st.integers(1, 4),
       lines=st.sampled_from([1, 5, 31, 32, 33, 64, 96]),
       byte_index=st.integers(0, 15), guess=st.integers(0, 255),
       seed=st.integers(0, 2**16))
def test_access_matrix_matches_the_reference(name, subwarps, num_samples,
                                             lines, byte_index, guess,
                                             seed):
    """``access_matrix`` equals ``estimate_sample`` replayed sample by
    sample on a fresh attacker stream with the same seed: ``prepare``
    draws one partition per (sample, warp) in that order, so the replay
    sees the same draws, randomized models included."""
    model = make_policy(name, subwarps)
    batch = cipher_batch(num_samples, lines, seed)
    matrix = AccessEstimator(
        model, rng=RngStream(seed, "attacker")).access_matrix(
            batch, byte_index)
    assert matrix.dtype == np.int32
    assert matrix.shape == (256, num_samples)
    reference = AccessEstimator(model, rng=RngStream(seed, "attacker"))
    assert matrix[guess].tolist() == [
        reference.estimate_sample(sample, byte_index, guess)
        for sample in batch]
    # The prepared draws depend on the batch's shape only; the bytes are
    # read from the batch each call is given.
    other = AccessEstimator(model, rng=RngStream(seed, "attacker"))
    other.prepare(cipher_batch(num_samples, lines, seed + 1))
    assert np.array_equal(other.access_matrix(batch, byte_index), matrix)


class TestVictimConsistency:
    """With the correct guess and the baseline machine, the estimator must
    reproduce the victim's per-byte access counts exactly."""

    def test_correct_guess_row_reconstructs_victim_counts(self, test_key):
        from repro.workloads.plaintext import random_plaintexts
        from repro.workloads.server import EncryptionServer

        server = EncryptionServer(test_key, make_policy("baseline"),
                                  counts_only=True)
        plaintexts = random_plaintexts(6, 32, RngStream(2, "pt"))
        records = server.encrypt_batch(plaintexts)
        ciphertexts = [r.ciphertext_lines for r in records]
        k10 = server.last_round_key

        estimator = AccessEstimator(make_policy("baseline"))
        estimator.prepare(ciphertexts)
        per_byte_total = np.zeros(len(records), dtype=int)
        for j in range(16):
            matrix = estimator.access_matrix(ciphertexts, j)
            per_byte_total += matrix[k10[j]]
        observed = np.array([r.last_round_accesses for r in records])
        assert np.array_equal(per_byte_total, observed)
