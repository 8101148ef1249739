"""Tests for the energy model."""

import numpy as np
import pytest

from repro.aes.batch import encrypt_batch
from repro.core.policies import make_policy
from repro.core.rcoal import RCoalGPU
from repro.errors import ConfigurationError
from repro.gpu.energy import EnergyBreakdown, EnergyModel
from repro.gpu.warp import build_warp_programs


def launch(policy_name, m=1):
    gpu = RCoalGPU(make_policy(policy_name, m))
    lines = np.repeat(np.arange(32, dtype=np.uint8), 16).reshape(32, 16)
    programs = build_warp_programs(encrypt_batch(bytes(16), lines)[1],
                                   gpu.address_map)
    return gpu.launch(programs).result


class TestEnergyModel:
    def test_components_are_positive(self):
        breakdown = EnergyModel().evaluate(launch("baseline"))
        assert breakdown.dram_burst_nj > 0
        assert breakdown.dram_activate_nj > 0
        assert breakdown.interconnect_nj > 0
        assert breakdown.static_nj > 0
        assert breakdown.total_nj == pytest.approx(
            breakdown.dram_burst_nj + breakdown.dram_activate_nj
            + breakdown.interconnect_nj + breakdown.static_nj
        )
        assert breakdown.dynamic_nj < breakdown.total_nj

    def test_defenses_cost_energy(self):
        model = EnergyModel()
        baseline = model.evaluate(launch("baseline"))
        defended = model.evaluate(launch("fss", 8))
        nocoal = model.evaluate(launch("nocoal", 32))
        assert baseline.total_nj < defended.total_nj < nocoal.total_nj
        # The paper's 2.3x data movement shows up as ~2x dynamic energy.
        assert 1.8 < nocoal.dynamic_nj / baseline.dynamic_nj < 2.6

    def test_scaled_against(self):
        model = EnergyModel()
        baseline = model.evaluate(launch("baseline"))
        assert baseline.scaled_against(baseline) == pytest.approx(1.0)
        defended = model.evaluate(launch("fss", 8))
        assert defended.scaled_against(baseline) > 1.0

    def test_burst_term_tracks_dram_accesses(self):
        result = launch("baseline")
        breakdown = EnergyModel(burst_nj_per_access=1.0, activate_nj=0.0,
                                interconnect_nj_per_access=0.0,
                                static_nj_per_kcycle=0.0).evaluate(result)
        assert breakdown.total_nj == pytest.approx(
            result.aggregate_dram().accesses
        )

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(burst_nj_per_access=-1.0)
