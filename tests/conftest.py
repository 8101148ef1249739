"""Shared fixtures for the RCoal reproduction test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.gpu.config import GPUConfig
from repro.rng import RngStream

#: ``make fuzz`` (``--hypothesis-profile=fuzz``): long runs on a fresh
#: random seed. Property tests opt in by leaving their example count and
#: seed to the loaded profile (``tests/gpu/test_differential.py``,
#: ``tests/attack/test_estimator.py``); a plain run keeps their tier-1
#: settings.
settings.register_profile("fuzz", max_examples=1000, derandomize=False,
                          print_blob=True)


@pytest.fixture
def rng() -> RngStream:
    """A deterministic RNG stream for tests."""
    return RngStream(1234, "test")


@pytest.fixture
def gpu_config() -> GPUConfig:
    """The paper's Table I machine."""
    return GPUConfig()


@pytest.fixture
def test_key() -> bytes:
    """A fixed AES-128 key."""
    return bytes.fromhex("000102030405060708090a0b0c0d0e0f")
