"""Tests for the GPU configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu.config import DramTiming, GPUConfig

#: Cycle counts a machine may set to zero but not below.
CYCLE_COUNTS = ("issue_cycles", "round_compute_cycles",
                "coalescer_cycles_per_access", "icnt_latency")


class TestDefaults:
    def test_table1_parameters(self, gpu_config):
        # The paper's Table I machine.
        assert gpu_config.num_sms == 15
        assert gpu_config.warp_size == 32
        assert gpu_config.warp_schedulers_per_sm == 2
        assert gpu_config.num_partitions == 6
        assert gpu_config.num_banks == 16
        assert gpu_config.partition_chunk_bytes == 256
        assert gpu_config.core_clock_mhz == 1400
        assert gpu_config.memory_clock_mhz == 924
        timing = gpu_config.dram_timing
        assert (timing.t_cl, timing.t_rp, timing.t_rc) == (12, 12, 40)
        assert (timing.t_ras, timing.t_ccd, timing.t_rcd) == (28, 2, 12)


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

    # Machines the engines cannot run: each divides by zero in an engine,
    # or (a row smaller than a chunk) lets the wavefront core time a
    # machine the event engine cannot decode addresses for.
    @pytest.mark.parametrize("overrides", [
        {"row_bytes": 128},
        {"row_bytes": 384},
        {"icnt_requests_per_cycle": 0},
        {"icnt_flit_bytes": 0},
    ])
    def test_rejects_configs_the_engines_cannot_run(self, overrides):
        with pytest.raises(ConfigurationError):
            GPUConfig(**overrides)

    # A zero memory clock divides by zero when the DRAM timings are
    # scaled to core cycles; a non-positive core clock silently scales
    # every DRAM timing down to one cycle.
    @pytest.mark.parametrize("overrides", [
        {"memory_clock_mhz": 0},
        {"memory_clock_mhz": -924},
        {"core_clock_mhz": 0},
        {"core_clock_mhz": -1400},
    ])
    def test_rejects_nonpositive_clocks(self, overrides):
        with pytest.raises(ConfigurationError, match="_clock_mhz"):
            GPUConfig(**overrides)

    # A negative cycle count describes no machine; at
    # coalescer_cycles_per_access=-1 the two timing engines even disagree,
    # and the event engine's crossbar rejects a negative icnt_latency only
    # once a launch runs.
    @pytest.mark.parametrize("name", CYCLE_COUNTS)
    def test_rejects_negative_cycle_counts(self, name):
        with pytest.raises(ConfigurationError, match=name):
            GPUConfig(**{name: -1})

    @pytest.mark.parametrize("name", CYCLE_COUNTS)
    def test_zero_cycle_counts_are_allowed(self, name):
        assert getattr(GPUConfig(**{name: 0}), name) == 0

    def test_row_may_span_several_chunks(self):
        assert GPUConfig(partition_chunk_bytes=512, row_bytes=1024) \
            .row_bytes == 1024

    def test_with_overrides(self, gpu_config):
        tweaked = gpu_config.with_overrides(num_sms=4)
        assert tweaked.num_sms == 4
        assert gpu_config.num_sms == 15  # original untouched
