"""AES-128 substrate.

The RCoal evaluation targets the GPU AES-128 implementation attacked by
Jiang et al. (HPCA 2016). This subpackage provides everything that
implementation needs:

* :mod:`repro.aes.sbox` — the Rijndael S-box and inverse, derived from
  GF(2^8) arithmetic rather than hard-coded;
* :mod:`repro.aes.tables` — the T0..T3 round tables and the T4 last-round
  table, plus their memory layout (the coalescing target);
* :mod:`repro.aes.key_schedule` — key expansion and its inverse (the attack
  recovers the *last round key*; invertibility is what makes that equivalent
  to recovering the master key);
* :mod:`repro.aes.cipher` — a reference FIPS-197 implementation;
* :mod:`repro.aes.ttable` — the T-table formulation used on GPUs, recording
  the per-round table-lookup indices each thread generates (one line at a
  time: the reference);
* :mod:`repro.aes.batch` — the same computation over whole line batches as
  numpy arrays, which every simulated launch takes its lookups from;
* :mod:`repro.aes.modes` — multi-line plaintext encryption (one 16-byte line
  per GPU thread).
"""

from repro.aes.cipher import decrypt_block, encrypt_block
from repro.aes.key_schedule import (
    expand_key,
    last_round_key,
    recover_master_key,
)
from repro.aes.modes import decrypt_lines, encrypt_lines, split_lines
from repro.aes.sbox import INV_SBOX, SBOX
from repro.aes.tables import (
    BLOCK_BYTES,
    ENTRIES_PER_BLOCK,
    ENTRY_BYTES,
    NUM_TABLE_BLOCKS,
    TABLE_ENTRIES,
    block_of_index,
)
from repro.aes.ttable import TTableAES, EncryptionTrace, RoundTrace

__all__ = [
    "SBOX",
    "INV_SBOX",
    "expand_key",
    "last_round_key",
    "recover_master_key",
    "encrypt_block",
    "decrypt_block",
    "encrypt_lines",
    "decrypt_lines",
    "split_lines",
    "TTableAES",
    "EncryptionTrace",
    "RoundTrace",
    "ENTRY_BYTES",
    "BLOCK_BYTES",
    "ENTRIES_PER_BLOCK",
    "NUM_TABLE_BLOCKS",
    "TABLE_ENTRIES",
    "block_of_index",
]
