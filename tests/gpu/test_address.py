"""Tests for address layout and decoding."""

from hypothesis import given
from hypothesis import strategies as st

from repro.aes.tables import TABLE_BYTES
from repro.gpu.address import (
    PLAINTEXT_REGION_BASE,
    TABLE_REGION_BASE,
    AddressMap,
)
from repro.gpu.config import GPUConfig

addresses = st.integers(min_value=0, max_value=2 ** 40)


class TestTableAddresses:
    def test_tables_are_contiguous_1kb_regions(self, gpu_config):
        address_map = AddressMap(gpu_config)
        for table in range(5):
            start = address_map.table_entry_address(table, 0)
            end = address_map.table_entry_address(table, 255)
            assert start == TABLE_REGION_BASE + table * TABLE_BYTES
            assert end - start == 255 * 4

    def test_sixteen_entries_per_block(self, gpu_config):
        address_map = AddressMap(gpu_config)
        blocks = {
            address_map.block_address(address_map.table_entry_address(4, i))
            for i in range(256)
        }
        # R = 16 distinct memory blocks per table (Section II-C).
        assert len(blocks) == 16

    def test_entries_sharing_a_block_match_index_shift(self, gpu_config):
        address_map = AddressMap(gpu_config)
        for i in range(256):
            for j in range(256):
                same_block = (
                    address_map.block_address(
                        address_map.table_entry_address(4, i))
                    == address_map.block_address(
                        address_map.table_entry_address(4, j))
                )
                assert same_block == ((i >> 4) == (j >> 4))
                if j > i + 17:
                    break  # adjacent region is enough coverage


class TestDecoding:
    @given(addresses)
    def test_partition_matches_256_byte_interleave(self, address):
        address_map = AddressMap(GPUConfig())
        assert address_map.partition_of(address) == (address // 256) % 6

    @given(addresses)
    def test_block_address_aligns(self, address):
        address_map = AddressMap(GPUConfig())
        block = address_map.block_address(address)
        assert block % 64 == 0
        assert 0 <= address - block < 64

    @given(addresses)
    def test_decode_is_consistent(self, address):
        address_map = AddressMap(GPUConfig())
        decoded = address_map.decode(address)
        assert decoded.partition == address_map.partition_of(address)
        assert 0 <= decoded.bank < 16
        assert decoded.row >= 0
        assert decoded.block_address == address_map.block_address(address)

    def test_consecutive_chunks_rotate_partitions(self, gpu_config):
        address_map = AddressMap(gpu_config)
        partitions = [address_map.partition_of(i * 256) for i in range(12)]
        assert partitions == [0, 1, 2, 3, 4, 5] * 2

    def test_line_addresses_are_contiguous(self, gpu_config):
        address_map = AddressMap(gpu_config)
        a0 = address_map.line_address(PLAINTEXT_REGION_BASE, 0)
        a1 = address_map.line_address(PLAINTEXT_REGION_BASE, 1)
        assert a1 - a0 == 16
