"""Tests for shared helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.utils import chunked, env_flag, env_int, scaled_samples, xor_bytes


class TestChunked:
    def test_even_chunks(self):
        assert list(chunked([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]

    def test_ragged_tail(self):
        assert list(chunked([1, 2, 3], 2)) == [[1, 2], [3]]

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            list(chunked([1], 0))


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_self_inverse(self):
        a, b = b"hello!", b"world."
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"a", b"ab")


class TestEnvHelpers:
    def test_env_int_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_X", raising=False)
        assert env_int("REPRO_TEST_X", 5) == 5

    def test_env_int_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_X", "12")
        assert env_int("REPRO_TEST_X", 5) == 12

    def test_env_int_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_X", "nope")
        with pytest.raises(ValueError):
            env_int("REPRO_TEST_X", 5)
        # ...as a configuration error, which the CLI turns into exit 3.
        with pytest.raises(ConfigurationError, match="REPRO_TEST_X"):
            env_int("REPRO_TEST_X", 5)

    def test_env_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_F", "1")
        assert env_flag("REPRO_TEST_F")
        monkeypatch.setenv("REPRO_TEST_F", "off")
        assert not env_flag("REPRO_TEST_F")

    def test_scaled_samples_priority(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLES", raising=False)
        monkeypatch.delenv("REPRO_FAST", raising=False)
        assert scaled_samples(100, 40) == 100
        monkeypatch.setenv("REPRO_FAST", "1")
        assert scaled_samples(100, 40) == 40
        monkeypatch.setenv("REPRO_SAMPLES", "7")
        assert scaled_samples(100, 40) == 7
        monkeypatch.setenv("REPRO_SAMPLES", "abc")
        with pytest.raises(ConfigurationError, match="REPRO_SAMPLES"):
            scaled_samples(100, 40)


def test_error_hierarchy():
    from repro.errors import (
        AnalysisError,
        AttackError,
        ConfigurationError,
        CryptoError,
        InsufficientSamplesError,
        KeySizeError,
        ProtocolError,
        ReproError,
        SimulationError,
    )

    assert issubclass(ConfigurationError, ReproError)
    assert issubclass(ConfigurationError, ValueError)
    assert issubclass(KeySizeError, CryptoError)
    assert issubclass(ProtocolError, SimulationError)
    assert issubclass(InsufficientSamplesError, AttackError)
    assert issubclass(AnalysisError, ReproError)
