"""Vectorized T-table AES-128 over whole plaintext batches.

:class:`repro.aes.ttable.TTableAES` encrypts one 16-byte line at a time in
pure Python — fine for one launch, but the batched simulation core
(:mod:`repro.gpu.batched`) needs the ciphertexts *and* the per-round table
indices of thousands of lines at once. This module performs the identical
computation as numpy array operations, word-wide: the state of all lines
is an ``(N, 4)`` array of little-endian uint32 column words (byte ``r`` of
column ``c`` at bits ``8r``, through explicit ``'<u4'`` views, so the
result does not depend on host byte order), and T0..T3 are ``(4, 256)``
uint32 word tables. A round is a handful of array steps however large the
batch: one ShiftRows gather of the state's bytes gives the round's 16
indices, one gather reads their 16 words, and three XORs of each column's
four words, plus the round key's, give the next state.

The lookup *order* is preserved exactly: main-round lookup ``k`` hits table
``k % 4`` (the unrolled T0..T3 cycle of ``TTableAES._main_round``), the
last round's lookup ``j`` is the T4 read producing ciphertext byte ``j``.
``encrypt_batch(key, lines)[n]`` therefore equals the scalar trace of line
``n`` byte for byte — a property the parity tests pin against
:class:`TTableAES` directly.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.aes.key_schedule import NUM_ROUNDS, expand_key
from repro.aes.tables import ROUND_TABLES, T4
from repro.aes.ttable import LOOKUPS_PER_ROUND
from repro.errors import BlockSizeError

__all__ = ["encrypt_batch", "table_id_grid"]

#: (10, 16) table id of lookup ``k`` in round ``r``: rounds 1..9 cycle
#: T0..T3 (one lookup into each per output column), round 10 is all T4.
_TABLE_ID_GRID = np.array(
    [[k % 4 for k in range(LOOKUPS_PER_ROUND)]] * (NUM_ROUNDS - 1)
    + [[4] * LOOKUPS_PER_ROUND],
    dtype=np.int64,
)

#: (5, 256, 4) uint8: byte ``r`` of entry ``i`` of table ``t``.
_TABLE_BYTES: np.ndarray = np.array(
    [[entry for entry in table] for table in ROUND_TABLES + (T4,)],
    dtype=np.uint8,
)

#: (4 * 256,) little-endian uint32: entry ``i`` of main-round table ``t``
#: at ``256 t + i``, byte ``r`` of the entry at bits ``8r``.
_WORDS = _TABLE_BYTES[:4].copy().view("<u4").reshape(-1)

#: (4 * 256,) uint8: byte ``r`` of T4's entry ``i`` at ``256 r + i``.
_LAST_BYTES = _TABLE_BYTES[4].T.copy().reshape(-1)

#: Lookup ``k`` of a round reads state byte ``_SHIFT_ROWS[k]``: its row
#: ``r = k % 4`` of column ``(k // 4 + r) % 4``, at ``4 * column + r`` in
#: the column-major state.
_SHIFT_ROWS = np.array([4 * ((k // 4 + k % 4) % 4) + k % 4
                        for k in range(LOOKUPS_PER_ROUND)], dtype=np.intp)

#: Lookup ``k`` reads table (or T4 byte) ``k % 4``: its offset into
#: :data:`_WORDS` and :data:`_LAST_BYTES`.
_TABLE_OFFSETS = 256 * (np.arange(LOOKUPS_PER_ROUND, dtype=np.intp) % 4)

_KEY_CACHE: Dict[bytes, np.ndarray] = {}


def table_id_grid() -> np.ndarray:
    """The (rounds, lookups) -> table id grid (read-only view)."""
    return _TABLE_ID_GRID


def _round_keys(key: bytes) -> np.ndarray:
    """The expanded key as a (11, 16) uint8 matrix (memoized per key)."""
    cached = _KEY_CACHE.get(key)
    if cached is None:
        cached = np.array([list(rk) for rk in expand_key(key)],
                          dtype=np.uint8)
        if len(_KEY_CACHE) > 64:  # a run touches a handful of keys
            _KEY_CACHE.clear()
        _KEY_CACHE[bytes(key)] = cached
    return cached


def encrypt_batch(key: bytes, lines: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Encrypt ``lines`` (shape ``(N, 16)`` uint8) under ``key`` at once.

    Returns ``(ciphertexts, indices)``:

    * ``ciphertexts`` — ``(N, 16)`` uint8, equal to the scalar
      :class:`TTableAES` ciphertext of each line;
    * ``indices`` — ``(N, 10, 16)`` uint8, the table index of lookup ``k``
      of round ``r+1`` for each line, in the exact per-thread instruction
      order the warp programs gather (the table *id* of a lookup is a pure
      function of ``(round, k)`` — see :func:`table_id_grid`).
    """
    lines = np.asarray(lines, dtype=np.uint8)
    if lines.ndim != 2 or lines.shape[1] != 16:
        raise BlockSizeError(
            f"expected an (N, 16) byte matrix, got shape {lines.shape}"
        )
    num_lines = lines.shape[0]
    keys = _round_keys(bytes(key))
    round_words = keys.view("<u4")  # (11, 4): each round key's columns

    # Byte r + 4c of a line is row r of column c: the column-major state
    # is the line itself, read as four words.
    state = (lines ^ keys[0]).view("<u4")
    indices = np.empty((num_lines, NUM_ROUNDS, LOOKUPS_PER_ROUND),
                       dtype=np.uint8)
    for round_index in range(1, NUM_ROUNDS):
        lookups = state.view(np.uint8)[:, _SHIFT_ROWS]
        indices[:, round_index - 1] = lookups
        # (N, column, row): one MixColumns column is the XOR of its four
        # rows' table words and the round key's word.
        words = _WORDS[lookups + _TABLE_OFFSETS].reshape(num_lines, 4, 4)
        state = np.bitwise_xor(words[:, :, 0], words[:, :, 1],
                               out=np.empty((num_lines, 4), dtype="<u4"))
        state ^= words[:, :, 2]
        state ^= words[:, :, 3]
        state ^= round_words[round_index]

    lookups = state.view(np.uint8)[:, _SHIFT_ROWS]
    indices[:, NUM_ROUNDS - 1] = lookups
    ciphertexts = _LAST_BYTES[lookups + _TABLE_OFFSETS]
    ciphertexts ^= keys[NUM_ROUNDS]
    return ciphertexts, indices
