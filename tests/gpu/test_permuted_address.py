"""Tests for the permuted (memory-hashed) address map."""

import pytest

from repro.gpu.address import AddressMap, PermutedAddressMap
from repro.gpu.config import GPUConfig
from repro.rng import RngStream


@pytest.fixture
def maps(gpu_config):
    plain = AddressMap(gpu_config)
    permuted = PermutedAddressMap(gpu_config, RngStream(13, "addr"))
    return plain, permuted


class TestPermutedAddressMap:
    def test_is_a_permutation_of_partitions(self, maps, gpu_config):
        plain, permuted = maps
        seen = {permuted.partition_of(chunk * 256)
                for chunk in range(gpu_config.num_partitions)}
        assert seen == set(range(gpu_config.num_partitions))

    def test_block_addresses_unchanged(self, maps):
        plain, permuted = maps
        for address in (0, 100, 0x10000400):
            assert permuted.block_address(address) \
                == plain.block_address(address)
            assert permuted.decode(address).block_address \
                == plain.decode(address).block_address

    def test_rows_unchanged_banks_permuted(self, maps, gpu_config):
        plain, permuted = maps
        banks = set()
        for chunk in range(gpu_config.num_banks * gpu_config.num_partitions):
            address = chunk * 256
            assert permuted.decode(address).row == plain.decode(address).row
            banks.add(permuted.decode(address).bank)
        assert banks == set(range(gpu_config.num_banks))

    def test_deterministic_per_stream(self, gpu_config):
        a = PermutedAddressMap(gpu_config, RngStream(13, "addr"))
        b = PermutedAddressMap(gpu_config, RngStream(13, "addr"))
        for chunk in range(12):
            assert a.partition_of(chunk * 256) \
                == b.partition_of(chunk * 256)

    def test_coalescing_counts_invariant(self, gpu_config):
        """The leak-relevant quantity cannot depend on the mapping."""
        import numpy as np

        from repro.aes.batch import encrypt_batch
        from repro.gpu.engine import GPUSimulator
        from repro.gpu.warp import build_warp_programs

        lines = np.repeat(np.arange(32, dtype=np.uint8), 16).reshape(32, 16)
        indices = encrypt_batch(bytes(16), lines)[1]

        plain_sim = GPUSimulator(gpu_config)
        permuted_sim = GPUSimulator(
            gpu_config,
            address_map=PermutedAddressMap(gpu_config,
                                           RngStream(13, "addr")),
        )
        plain = plain_sim.run(
            build_warp_programs(indices, plain_sim.address_map),
            {0: (0,) * 32},
        )
        permuted = permuted_sim.run(
            build_warp_programs(indices, permuted_sim.address_map),
            {0: (0,) * 32},
        )
        assert plain.total_accesses == permuted.total_accesses
        assert plain.last_round_accesses == permuted.last_round_accesses
