"""Global address space layout and decoding.

The simulated GPU interleaves the linear global address space across memory
partitions in 256-byte chunks (Table I / the GPGPU-Sim address mapping the
paper cites). Within a partition, consecutive local chunks round-robin over
DRAM banks, and rows are the next level up.

The AES working set is laid out as a real CUDA kernel would place it:

* the five lookup tables T0..T4 contiguously at ``TABLE_REGION_BASE``
  (1 KB each, so table ``t`` entry ``i`` sits at
  ``TABLE_REGION_BASE + 1024*t + 4*i``);
* the plaintext buffer and ciphertext buffer in separate regions, one
  16-byte line per thread, lines consecutive.

Because each table is 1 KB and blocks are 64 B, a table spans R = 16 blocks —
matching the attack's ``index >> 4`` block computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.aes.tables import ENTRY_BYTES, TABLE_BYTES
from repro.gpu.config import GPUConfig

__all__ = [
    "TABLE_REGION_BASE",
    "PLAINTEXT_REGION_BASE",
    "CIPHERTEXT_REGION_BASE",
    "AddressMap",
    "PermutedAddressMap",
]

#: Base virtual addresses of the kernel's data regions.
TABLE_REGION_BASE = 0x1000_0000
PLAINTEXT_REGION_BASE = 0x2000_0000
CIPHERTEXT_REGION_BASE = 0x3000_0000


@dataclass(frozen=True)
class DecodedAddress:
    """DRAM coordinates of a physical address."""

    partition: int
    bank: int
    row: int
    block_address: int


class AddressMap:
    """Address computation and decoding for a :class:`GPUConfig`.

    Decoding is memoized: a kernel touches a small, fixed set of block
    addresses (the 5 KB table region plus one line per thread) but decodes
    each one on every DRAM enqueue, so the cache turns the hot-path cost
    into one dict probe. :class:`DecodedAddress` is frozen, making the
    shared instances safe.
    """

    def __init__(self, config: GPUConfig):
        self._chunk = config.partition_chunk_bytes
        self._block = config.access_bytes
        self._num_partitions = config.num_partitions
        self._num_banks = config.num_banks
        self._rows_chunks = config.row_bytes // self._chunk
        #: Chunk size is a power of two in every real configuration; shift
        #: instead of dividing on the per-access partition lookup.
        chunk = self._chunk
        self._chunk_shift = (chunk.bit_length() - 1
                             if chunk & (chunk - 1) == 0 else None)
        self._decode_cache = {}

    # -- region address builders -------------------------------------------

    def table_entry_address(self, table_id: int, index: int) -> int:
        """Byte address of entry ``index`` of lookup table ``table_id``."""
        return TABLE_REGION_BASE + table_id * TABLE_BYTES + index * ENTRY_BYTES

    def line_address(self, base: int, line: int) -> int:
        """Byte address of 16-byte line ``line`` in a data region."""
        return base + 16 * line

    # -- decoding ------------------------------------------------------------

    def block_address(self, address: int) -> int:
        """The address truncated to its 64-byte memory block."""
        return address - (address % self._block)

    def partition_of(self, address: int) -> int:
        """Memory partition servicing ``address`` (256 B interleave)."""
        if self._chunk_shift is not None:
            return (address >> self._chunk_shift) % self._num_partitions
        return (address // self._chunk) % self._num_partitions

    def decode(self, address: int) -> DecodedAddress:
        """Full DRAM coordinates of ``address`` (memoized)."""
        cached = self._decode_cache.get(address)
        if cached is None:
            cached = self._decode_uncached(address)
            self._decode_cache[address] = cached
        return cached

    def _decode_uncached(self, address: int) -> DecodedAddress:
        chunk_id = address // self._chunk
        partition = chunk_id % self._num_partitions
        local_chunk = chunk_id // self._num_partitions
        bank = local_chunk % self._num_banks
        row = local_chunk // self._num_banks // self._rows_chunks
        return DecodedAddress(
            partition=partition,
            bank=bank,
            row=row,
            block_address=self.block_address(address),
        )


class PermutedAddressMap(AddressMap):
    """An address map with secretly permuted partition/bank assignment.

    Models memory-hierarchy randomization (the paper's second future-work
    direction, Section VII): the chunk→partition and chunk→bank mappings
    are permuted under a secret drawn at boot, as hardware memory hashing
    would. Crucially this does **not** change which requests coalesce —
    the coalescer merges by block address before any mapping — so the
    count-based timing leak survives it untouched; the
    ``ablation_addrmap`` experiment measures exactly that.
    """

    def __init__(self, config: GPUConfig, rng):
        super().__init__(config)
        self._partition_perm = [int(x)
                                for x in rng.permutation(config.num_partitions)]
        self._bank_perm = [int(x) for x in rng.permutation(config.num_banks)]

    def partition_of(self, address: int) -> int:
        return self._partition_perm[super().partition_of(address)]

    def _decode_uncached(self, address: int) -> DecodedAddress:
        plain = super()._decode_uncached(address)
        return DecodedAddress(
            partition=self._partition_perm[plain.partition],
            bank=self._bank_perm[plain.bank],
            row=plain.row,
            block_address=plain.block_address,
        )
