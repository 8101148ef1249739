"""Tests for the RCoalGPU integration layer."""

import numpy as np
import pytest

from repro.aes.batch import encrypt_batch
from repro.core.policies import FSSPolicy, RSSPolicy, make_policy
from repro.core.rcoal import RCoalGPU
from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.warp import build_warp_programs
from repro.rng import RngStream


def programs_for(gpu, num_lines=32):
    lines = np.repeat(np.arange(num_lines, dtype=np.uint8),
                      16).reshape(num_lines, 16)
    return build_warp_programs(encrypt_batch(bytes(16), lines)[1],
                               gpu.address_map)


class TestLaunch:
    def test_baseline_launch(self):
        gpu = RCoalGPU(make_policy("baseline"))
        outcome = gpu.launch(programs_for(gpu))
        assert outcome.result.total_cycles > 0
        assert outcome.partitions[0].sizes == (32,)

    def test_partitions_drawn_per_warp(self):
        gpu = RCoalGPU(RSSPolicy(4))
        rng = RngStream(4, "victim")
        outcome = gpu.launch(programs_for(gpu, num_lines=96), rng)
        assert set(outcome.partitions) == {0, 1, 2}
        sizes = {outcome.partitions[w].sizes for w in range(3)}
        assert len(sizes) >= 2  # independent draws (w.h.p.)

    def test_fss_partitions_are_identical_across_warps(self):
        gpu = RCoalGPU(FSSPolicy(8))
        outcome = gpu.launch(programs_for(gpu, num_lines=64))
        assert outcome.partitions[0] == outcome.partitions[1]

    def test_policy_changes_access_count(self):
        baseline = RCoalGPU(make_policy("baseline"))
        nocoal = RCoalGPU(make_policy("nocoal"))
        base_result = baseline.launch(programs_for(baseline)).result
        nocoal_result = nocoal.launch(programs_for(nocoal)).result
        assert nocoal_result.total_accesses > base_result.total_accesses

    def test_warp_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            RCoalGPU(FSSPolicy(2, warp_size=16))

    def test_config_passthrough(self):
        config = GPUConfig(num_sms=4)
        gpu = RCoalGPU(make_policy("baseline"), config)
        assert gpu.config.num_sms == 4
