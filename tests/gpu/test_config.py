"""Tests for the GPU configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu.config import DramTiming, GPUConfig


class TestDefaults:
    def test_table1_parameters(self, gpu_config):
        # The paper's Table I machine.
        assert gpu_config.num_sms == 15
        assert gpu_config.warp_size == 32
        assert gpu_config.warp_schedulers_per_sm == 2
        assert gpu_config.num_partitions == 6
        assert gpu_config.num_banks == 16
        assert gpu_config.num_bank_groups == 4
        assert gpu_config.partition_chunk_bytes == 256
        assert gpu_config.core_clock_mhz == 1400
        assert gpu_config.memory_clock_mhz == 924
        timing = gpu_config.dram_timing
        assert (timing.t_cl, timing.t_rp, timing.t_rc) == (12, 12, 40)
        assert (timing.t_ras, timing.t_ccd, timing.t_rcd,
                timing.t_rrd) == (28, 2, 12, 6)

    def test_paper_disables_mshr_and_caches(self, gpu_config):
        assert not gpu_config.enable_mshr
        assert not gpu_config.enable_l2


class TestScaling:
    def test_clock_ratio(self, gpu_config):
        assert gpu_config.clock_ratio == pytest.approx(1400 / 924)

    def test_dram_timing_scaled_to_core_cycles(self, gpu_config):
        scaled = gpu_config.dram_timing_core
        ratio = gpu_config.clock_ratio
        assert scaled.t_cl == round(12 * ratio)
        assert scaled.t_rc == round(40 * ratio)
        assert scaled.t_ccd >= 1  # never scales to zero

    def test_scaled_minimum_one(self):
        assert DramTiming(t_ccd=1).scaled(0.1).t_ccd == 1


class TestValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(num_sms=0)
        with pytest.raises(ConfigurationError):
            GPUConfig(num_partitions=-1)

    def test_rejects_misaligned_chunks(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(partition_chunk_bytes=100, access_bytes=64)

    def test_rejects_bad_bank_grouping(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(num_banks=10, num_bank_groups=4)

    # Machines the engines cannot run: each divides by zero in an engine,
    # or (a row smaller than a chunk) lets the wavefront core time a
    # machine the event engine cannot decode addresses for.
    @pytest.mark.parametrize("overrides", [
        {"row_bytes": 128},
        {"row_bytes": 384},
        {"num_bank_groups": 0},
        {"icnt_requests_per_cycle": 0},
        {"icnt_flit_bytes": 0},
    ])
    def test_rejects_configs_the_engines_cannot_run(self, overrides):
        with pytest.raises(ConfigurationError):
            GPUConfig(**overrides)

    def test_row_may_span_several_chunks(self):
        assert GPUConfig(partition_chunk_bytes=512, row_bytes=1024) \
            .row_bytes == 1024

    def test_with_overrides(self, gpu_config):
        tweaked = gpu_config.with_overrides(num_sms=4)
        assert tweaked.num_sms == 4
        assert gpu_config.num_sms == 15  # original untouched
