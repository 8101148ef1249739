"""The attacker's coalesced-access estimator.

This generalizes Fig 4's first step to every defense. For key byte ``j``
and guess ``m``, the table-lookup index of each thread (line) is
``t = InvSBox[c_j ^ m]`` (Equation 3) and its memory block is ``t >> 4``.
The attacker then *models the machine* to turn per-thread blocks into an
access count: threads are grouped per warp into subwarps according to the
attacker's **model policy** — exactly one subwarp for the baseline attack,
the known in-order partition for the FSS attack, or freshly drawn
RSS-sizes/RTS-permutations for the corresponding attacks of Section IV-E —
and each subwarp contributes its number of distinct blocks.

One model draw is made per plaintext sample per warp (mirroring the
victim's per-launch draw) and shared across all 256 guesses and 16 byte
positions: redrawing per guess would only add attacker-side noise without
information. ``prepare`` makes all of a batch's draws as one
:meth:`~repro.core.policies.CoalescingPolicy.draw_sids` call, which
consumes the attacker's stream as one draw per (sample, warp) would.

The hot path is one row-gather OR fold per key byte. A module-level
256 × 256 table holds ``bits[c, m] = 1 << (InvSBox[c ^ m] >> 4)``: row
``c`` is the block bit that a ciphertext byte ``c`` touches under every
guess. ``prepare`` fixes group membership once per batch, orders the
modelled groups longest-first and lists, for each step ``k``, the line
that is every group's ``k``-th member; the groups that have a ``k``-th
member are then a prefix of the group order. Per byte, ``access_matrix``
reads the byte column of its batch with one ``np.frombuffer``, seeds a
(groups × 256) mask array with the table rows of step 0, ORs each later
step's rows into its prefix (at most ``warp_size`` steps), then popcounts
the masks and sums them per sample. On the benchmark's
``wide_counts_attack`` (seed 2018, 2-CPU x86-64 VM) the fold took the
estimator's traced time from 3.3-3.4 s to 0.23-0.24 s and the workload's
median ``ref_cpu_s`` from 4.40 s to 1.09 s (docs/performance.md).
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence

import numpy as np

from repro.aes.cipher import BLOCK_BYTES as LINE_BYTES
from repro.aes.sbox import INV_SBOX
from repro.aes.tables import ENTRIES_PER_BLOCK, NUM_TABLE_BLOCKS
from repro.core.policies import CoalescingPolicy
from repro.errors import ConfigurationError
from repro.rng import RngStream

__all__ = ["AccessEstimator"]

_BLOCK_SHIFT = ENTRIES_PER_BLOCK.bit_length() - 1  # 16 entries -> shift 4

#: ``_BITS[c, m]``: the block bit ciphertext byte ``c`` touches under
#: guess ``m``, ``1 << (InvSBox[c ^ m] >> 4)``. A group's OR of its rows
#: has bit ``b`` set <=> the group touched table block ``b``.
_BYTES = np.arange(256, dtype=np.uint8)
_BITS = np.left_shift(
    1, np.array(INV_SBOX, dtype=np.uint16)[_BYTES[:, None] ^ _BYTES]
    >> _BLOCK_SHIFT, dtype=np.uint16)
assert NUM_TABLE_BLOCKS <= 16  # block bits fit the uint16 masks


def _popcount_table(num_bits: int) -> np.ndarray:
    table = np.array([0], dtype=np.uint8)
    for _ in range(num_bits):
        table = np.concatenate([table, table + 1])
    return table


_POPCOUNT = _popcount_table(NUM_TABLE_BLOCKS)

#: Elements of the (groups × guesses) masks in flight at once.
_MAX_ELEMENTS = 1 << 24


class AccessEstimator:
    """Estimates last-round coalesced accesses for all key-byte guesses.

    Parameters
    ----------
    model_policy:
        The attacker's model of the machine's coalescing behaviour.
    rng:
        The *attacker's* random stream, used when the model policy is
        randomized (RSS/RTS mimicry). Independent of the victim's stream.
    warp_size:
        Threads per warp; must equal ``model_policy.warp_size``.
    """

    def __init__(self, model_policy: CoalescingPolicy,
                 rng: Optional[RngStream] = None, warp_size: int = 32):
        if model_policy.is_randomized and rng is None:
            raise ConfigurationError(
                f"model policy {model_policy.describe()} is randomized; "
                "the attacker needs their own RNG stream"
            )
        if model_policy.warp_size != warp_size:
            raise ConfigurationError(
                f"model policy warp size {model_policy.warp_size} != "
                f"estimator warp size {warp_size}"
            )
        self.model_policy = model_policy
        self.warp_size = warp_size
        self._rng = rng
        self.reset()

    # -- sample registration ----------------------------------------------

    def prepare(self, ciphertexts: Sequence[Sequence[bytes]]) -> None:
        """Fix the attacker's model draws for a batch of samples.

        ``ciphertexts[n]`` is the list of 16-byte ciphertext lines of sample
        ``n``. One partition is drawn per (sample, warp), in that order.
        Only the batch's shape is used: :meth:`access_matrix` reads the
        bytes of the batch each call is given.
        """
        if not ciphertexts:
            raise ConfigurationError("no samples to prepare")
        num_lines = len(ciphertexts[0])
        if num_lines == 0:
            raise ConfigurationError("samples must contain at least one line")
        if any(len(sample) != num_lines for sample in ciphertexts):
            raise ConfigurationError("samples must all have the same length")

        num_samples = len(ciphertexts)
        num_warps = -(-num_lines // self.warp_size)
        group_stride = num_warps * self.warp_size  # >= warps * max subwarps
        sids = self.model_policy.draw_sids(
            self._rng, num_samples * num_warps,
        ).reshape(num_samples, group_stride)[:, :num_lines]
        # One label per (sample, line), sample-major: equal labels are
        # one modelled subwarp (group) of one warp of one sample.
        warp_base = np.arange(num_lines) // self.warp_size * self.warp_size
        labels = (np.arange(num_samples)[:, None] * group_stride
                  + warp_base + sids).reshape(-1)

        # Lines sorted by group; the groups in that order are sample-major.
        order = np.argsort(labels, kind="stable")
        sorted_labels = labels[order]
        first = np.empty(sorted_labels.shape, dtype=bool)
        first[0] = True
        np.not_equal(sorted_labels[1:], sorted_labels[:-1], out=first[1:])
        group_of = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        num_groups = len(starts)
        step_of = np.arange(len(order)) - starts[group_of]
        sizes = np.bincount(group_of)

        # Longest group first, so the groups with a k-th member are a
        # prefix; then each line's place is (step k, group rank).
        by_length = np.argsort(-sizes, kind="stable")
        rank = np.empty(num_groups, dtype=np.int64)
        rank[by_length] = np.arange(num_groups)
        self._members = order[np.argsort(
            step_of * num_groups + rank[group_of], kind="stable")]
        self._step_ends = np.cumsum(np.bincount(step_of)).tolist()
        # The ranked groups back in sample-major order, and where each
        # sample's run of groups ends in it.
        self._sample_major = rank
        group_samples = sorted_labels[starts] // group_stride
        self._sample_ends = (np.flatnonzero(np.diff(group_samples)) + 1
                             ).tolist() + [num_groups]
        self._num_samples = num_samples
        self._num_lines = num_lines

    def reset(self) -> None:
        """Forget the prepared batch (e.g. before attacking a new or
        truncated sample set). Randomized models will draw fresh
        partitions on the next :meth:`prepare`."""
        self._members: Optional[np.ndarray] = None
        self._step_ends: List[int] = []
        self._sample_major: Optional[np.ndarray] = None
        self._sample_ends: List[int] = []
        self._num_samples = 0
        self._num_lines = 0

    # -- estimation -----------------------------------------------------------

    def access_matrix(self, ciphertexts: Sequence[Sequence[bytes]],
                      byte_index: int) -> np.ndarray:
        """Fig 4b's memory access matrix for one key byte.

        Returns an array of shape (256, num_samples): entry ``[m, n]`` is
        the modelled number of last-round coalesced accesses that byte
        ``byte_index``'s T4 load generates for sample ``n`` if the key byte
        were ``m``. Call :meth:`prepare` first (or this method will, using
        the given ciphertexts).
        """
        if not 0 <= byte_index < LINE_BYTES:
            raise ConfigurationError(
                f"key byte index must be in [0, {LINE_BYTES}): {byte_index}"
            )
        if self._members is None:
            self.prepare(ciphertexts)
        assert self._members is not None
        if (len(ciphertexts) != self._num_samples
                or any(len(sample) != self._num_lines
                       for sample in ciphertexts)):
            raise ConfigurationError(
                "ciphertexts do not match the prepared batch; call prepare()"
            )
        lines = list(chain.from_iterable(ciphertexts))
        if set(map(len, lines)) != {LINE_BYTES}:
            raise ConfigurationError(
                f"ciphertext lines must be {LINE_BYTES} bytes long"
            )
        try:
            data = b"".join(lines)
        except TypeError:
            raise ConfigurationError(
                "ciphertext lines must be bytes-like") from None
        column = np.frombuffer(data, dtype=np.uint8)[byte_index::LINE_BYTES]
        codes = column[self._members].astype(np.intp)

        # Fold each group's table rows into its block mask, one step (the
        # k-th member of every group that has one) at a time. Guess columns
        # are chunked to bound the (groups x guesses) working set. Every
        # index is in range by construction; mode="clip" skips the bounds
        # check, under which np.take would also buffer its output.
        num_groups = len(self._sample_major)
        step_ends = self._step_ends
        matrix = np.empty((256, self._num_samples), dtype=np.int32)
        chunk = max(1, _MAX_ELEMENTS // num_groups)
        for g0 in range(0, 256, chunk):
            table = _BITS[:, g0:g0 + chunk]
            masks = np.take(table, codes[:num_groups], axis=0)
            rows = np.empty_like(masks)
            for start, stop in zip(step_ends, step_ends[1:]):
                width = stop - start
                np.take(table, codes[start:stop], axis=0, out=rows[:width],
                        mode="clip")
                np.bitwise_or(masks[:width], rows[:width], out=masks[:width])
            counts = np.take(_POPCOUNT, masks, mode="clip").take(
                self._sample_major, axis=0)
            per_sample = np.empty((self._num_samples, masks.shape[1]),
                                  dtype=np.int32)
            start = 0
            for n, stop in enumerate(self._sample_ends):
                counts[start:stop].sum(axis=0, dtype=np.int32,
                                       out=per_sample[n])
                start = stop
            matrix[g0:g0 + chunk] = per_sample.T
        return matrix

    def estimate_sample(self, cipher_lines: Sequence[bytes], byte_index: int,
                        guess: int) -> int:
        """Single-sample, single-guess estimate (reference path for tests).

        Draws a fresh model partition per warp, so randomized model
        policies give an *independent* estimate here; use
        :meth:`access_matrix` for batch attacks.
        """
        num_lines = len(cipher_lines)
        accesses = 0
        for start in range(0, num_lines, self.warp_size):
            warp_lines = cipher_lines[start:start + self.warp_size]
            partition = self.model_policy.draw(self._rng)
            seen = set()
            for tid, line in enumerate(warp_lines):
                index = INV_SBOX[line[byte_index] ^ guess]
                seen.add((partition.assignment[tid],
                          index >> _BLOCK_SHIFT))
            accesses += len(seen)
        return accesses
