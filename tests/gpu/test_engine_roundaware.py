"""Tests for round-aware sid maps inside the engine."""

import numpy as np
import pytest

from repro.aes.batch import encrypt_batch
from repro.aes.key_schedule import NUM_ROUNDS
from repro.errors import ConfigurationError
from repro.gpu.engine import GPUSimulator, RoundAwareSidMap
from repro.gpu.warp import build_warp_programs


def indices():
    lines = np.repeat(np.arange(32, dtype=np.uint8), 16).reshape(32, 16)
    return encrypt_batch(bytes(16), lines)[1]


class TestRoundAwareSidMap:
    def test_resolution(self):
        sid_map = RoundAwareSidMap(
            per_round={10: tuple(range(32))},
            default=(0,) * 32,
        )
        assert sid_map.for_round(10) == tuple(range(32))
        assert sid_map.for_round(3) == (0,) * 32
        assert sid_map.for_round(None) == (0,) * 32
        assert len(sid_map) == 32

    def test_rejects_inconsistent_lane_counts(self):
        with pytest.raises(ConfigurationError):
            RoundAwareSidMap(per_round={10: (0,) * 16},
                             default=(0,) * 32)


class TestEngineIntegration:
    def test_only_protected_round_is_split(self):
        sim = GPUSimulator()
        programs = build_warp_programs(indices(), sim.address_map)
        protected = RoundAwareSidMap(
            per_round={NUM_ROUNDS: tuple(range(32))},
            default=(0,) * 32,
        )
        result = sim.run(programs, {0: protected})
        baseline = sim.run(programs, {0: (0,) * 32})

        # Last round: fully split (32 accesses per load).
        assert result.last_round_accesses == 32 * 16
        # Earlier rounds: identical to baseline coalescing.
        for round_index in range(1, NUM_ROUNDS):
            assert result.round_accesses[round_index] \
                == baseline.round_accesses[round_index]

    def test_round_aware_costs_less_than_full_split(self):
        sim = GPUSimulator()
        programs = build_warp_programs(indices(), sim.address_map)
        partial = RoundAwareSidMap(
            per_round={NUM_ROUNDS: tuple(range(32))},
            default=(0,) * 32,
        )
        partial_result = sim.run(programs, {0: partial})
        full_result = sim.run(programs, {0: tuple(range(32))})
        assert partial_result.total_cycles < full_result.total_cycles
        assert partial_result.total_accesses < full_result.total_accesses

    def test_engine_validates_round_aware_width(self):
        sim = GPUSimulator()
        programs = build_warp_programs(indices(), sim.address_map)
        short = RoundAwareSidMap(per_round={}, default=(0,) * 16)
        with pytest.raises(ConfigurationError):
            sim.run(programs, {0: short})
