"""Batched structure-of-arrays collection core: the one counts engine.

The discrete-event engine dispatches ~5 Python events per coalesced access.
Counts-only collection needs none of its timing, so every counts-only
:class:`repro.workloads.server.EncryptionServer` launch runs here instead,
as numpy array arithmetic over a whole *batch* of launches:

1. :func:`repro.aes.batch.encrypt_batch` produces the ciphertexts and the
   per-round table indices of all lines of all samples at once;
2. table indices gather through a precomputed ``(table, index) -> block``
   grid (derived from the server's address map, so permuted layouts work
   unchanged) into one ``(samples, lanes, instructions)`` block matrix;
3. each lane's ``(block, sid)`` pair is packed into one int64 key —
   the packing of the server's per-byte ``_distinct_blocks`` — and distinct
   pairs per (warp, instruction) are counted by sorting along the lane
   axis and counting value transitions (cf. the ``calculate_bursts``
   distinct-blocks-per-subwarp arithmetic the ROADMAP cites).

Policy randomization is reproduced *exactly*: the core draws one partition
per warp per sample from the same per-sample RNG stream, in the same order,
as :meth:`repro.core.rcoal.RCoalGPU.draw_partitions` — the draws are a few
thousand cheap calls, the per-lane loops they parameterize are what
vectorization removes. Records and coalescer metrics equal the event
engine's counts (see ``tests/gpu/test_batched`` and
``tests/gpu/test_differential``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.aes.batch import encrypt_batch, table_id_grid
from repro.aes.key_schedule import NUM_ROUNDS
from repro.aes.ttable import LOOKUPS_PER_ROUND
from repro.errors import BlockSizeError, ConfigurationError
from repro.gpu.address import CIPHERTEXT_REGION_BASE, PLAINTEXT_REGION_BASE
from repro.rng import RngStream
from repro.workloads.server import EncryptionRecord, EncryptionServer

__all__ = ["BatchedCountsCore"]

#: Memory instructions per warp: input load + 10x16 table loads + store.
_NCOLS = 2 + NUM_ROUNDS * LOOKUPS_PER_ROUND

#: Soft cap on the per-slab key matrix (bytes); batches larger than this
#: are processed in sample slabs so Fig 18-scale sweeps stay in-cache.
_SLAB_KEY_BYTES = 48_000_000


class BatchedCountsCore:
    """Vectorized counts-only collection for one :class:`EncryptionServer`.

    The core borrows the server's key, policy, GPU config, address map and
    telemetry sink; :meth:`encrypt_batch` then simulates many launches as
    array ops, returning :class:`EncryptionRecord` objects equal (``==``)
    to the event engine's with both times zero and no kernel result.
    """

    def __init__(self, server: EncryptionServer):
        if not server.counts_only:
            raise ConfigurationError(
                "the batched core only implements counts-only collection; "
                "build the server with counts_only=True"
            )
        self.policy = server.policy
        config = server.gpu.config
        self.config = config
        self.telemetry = server.gpu.telemetry
        self._key = server.secret_key
        self.warp_size = config.warp_size
        self._block_mask = ~(config.access_bytes - 1)
        address_map = server.gpu.address_map
        self._address_map = address_map
        # (5, 256) block address of each table entry, through the server's
        # address map (a permuted map changes these — and nothing else).
        self._table_blocks = np.array(
            [[address_map.table_entry_address(t, i) & self._block_mask
              for i in range(256)] for t in range(5)],
            dtype=np.int64,
        )
        # round of each instruction column: input load is round 0, the
        # output store sits outside any round (None -> resolved like the
        # engine's sid-map default).
        self._col_rounds: List[Optional[int]] = (
            [0]
            + [r for r in range(1, NUM_ROUNDS + 1)
               for _ in range(LOOKUPS_PER_ROUND)]
            + [None]
        )
        self._line_blocks: Dict[int, np.ndarray] = {}

    # -- internals ---------------------------------------------------------

    def _io_blocks(self, num_lines: int) -> np.ndarray:
        """(2, num_lines) input/output line block addresses (cached)."""
        cached = self._line_blocks.get(num_lines)
        if cached is None:
            line_address = self._address_map.line_address
            mask = self._block_mask
            cached = np.array(
                [[line_address(PLAINTEXT_REGION_BASE, line) & mask
                  for line in range(num_lines)],
                 [line_address(CIPHERTEXT_REGION_BASE, line) & mask
                  for line in range(num_lines)]],
                dtype=np.int64,
            )
            self._line_blocks[num_lines] = cached
        return cached

    def _draw_partitions(self, num_warps: int, rng: Optional[RngStream]):
        """One partition per warp, in warp order — the exact RNG
        consumption of ``RCoalGPU.draw_partitions``."""
        policy = self.policy
        return {warp_id: policy.draw(rng) for warp_id in range(num_warps)}

    def _sid_matrix(self, partitions, num_warps: int,
                    round_aware: bool) -> np.ndarray:
        """Per-lane sid matrix for one sample.

        Returns ``(lanes,)`` when every partition is round-invariant, or
        ``(lanes, ncols)`` when partitions resolve per round (selective
        RCoal).
        """
        if not round_aware:
            return np.array(
                [partitions[w].assignment for w in range(num_warps)],
                dtype=np.int64,
            ).reshape(-1)
        distinct_rounds = sorted(
            {r for r in self._col_rounds if r is not None}
        )
        col_of_round = {r: i for i, r in enumerate(distinct_rounds)}
        col_index = np.array(
            [len(distinct_rounds) if r is None else col_of_round[r]
             for r in self._col_rounds],
            dtype=np.int64,
        )
        per_warp = []
        for w in range(num_warps):
            partition = partitions[w]
            if hasattr(partition, "assignment_for_round"):
                rows = [partition.assignment_for_round(r)
                        for r in distinct_rounds]
                rows.append(partition.assignment_for_round(None))
            else:
                rows = [partition.assignment] * (len(distinct_rounds) + 1)
            # (rounds+1, warp_size) -> per-column sids (warp_size, ncols)
            table = np.array(rows, dtype=np.int64)
            per_warp.append(table[col_index].T)
        return np.concatenate(per_warp, axis=0)  # (lanes, ncols)

    @staticmethod
    def _distinct_along_last_axis(values: np.ndarray) -> np.ndarray:
        """Distinct value count along the last axis (sort + transitions)."""
        ordered = np.sort(values, axis=-1)
        return (np.diff(ordered, axis=-1) != 0).sum(axis=-1) + 1

    def _record_metrics(self, counts: np.ndarray,
                        subwarps: np.ndarray) -> None:
        """Feed the coalescing metrics in bulk.

        Instrument names and bucket shapes mirror the engine's
        :class:`CoalescingUnit`, and histogram feeding goes value-by-value
        via ``observe_many``, so the ``coalescer.*`` snapshots equal the
        event engine's. (PRT occupancy is a timing-model quantity, so that
        one histogram stays engine-only.)
        """
        metrics = self.telemetry.metrics
        num_instructions = int(counts.size)
        metrics.counter("coalescer.instructions").inc(num_instructions)
        metrics.counter("coalescer.accesses").inc(int(counts.sum()))
        access_hist = metrics.histogram(
            "coalescer.accesses_per_instruction",
            buckets=tuple(range(1, 65)),
        )
        for value, times in enumerate(np.bincount(counts.ravel())):
            if times:
                access_hist.observe_many(value, int(times))
        subwarp_hist = metrics.histogram(
            "coalescer.subwarps_per_instruction",
            buckets=tuple(range(1, 33)),
        )
        for value, times in enumerate(np.bincount(subwarps.ravel())):
            if times:
                subwarp_hist.observe_many(value, int(times))

    # -- public API --------------------------------------------------------

    def encrypt_batch(
        self,
        plaintexts: Sequence[bytes],
        rngs: Sequence[Optional[RngStream]],
        on_record: Optional[Callable[[EncryptionRecord], None]] = None,
    ) -> List[EncryptionRecord]:
        """Counts-only records for ``plaintexts[i]`` under ``rngs[i]``.

        The partitions are drawn from ``rngs[i]`` in sample order, so
        passing one stream for every sample consumes it exactly as one
        launch per sample would. ``on_record`` fires once per finished
        sample (progress reporting).
        """
        if len(plaintexts) != len(rngs):
            raise ConfigurationError(
                f"{len(plaintexts)} plaintexts vs {len(rngs)} RNG streams"
            )
        if not plaintexts:
            return []
        num_bytes = len(plaintexts[0])
        if num_bytes == 0:
            raise ConfigurationError("a kernel launch needs at least one "
                                     "plaintext line")
        if num_bytes % 16 != 0:
            raise BlockSizeError(
                f"plaintext length {num_bytes} is not a multiple of 16"
            )
        if any(len(p) != num_bytes for p in plaintexts):
            raise ConfigurationError(
                "batched collection needs equal-length plaintexts"
            )
        num_lines = num_bytes // 16
        warp_size = self.warp_size
        num_warps = -(-num_lines // warp_size)
        lanes = num_warps * warp_size

        per_sample_bytes = lanes * _NCOLS * 8
        slab_samples = max(1, _SLAB_KEY_BYTES // per_sample_bytes)

        records: List[EncryptionRecord] = []
        for start in range(0, len(plaintexts), slab_samples):
            chunk = plaintexts[start:start + slab_samples]
            chunk_rngs = rngs[start:start + slab_samples]
            records.extend(
                self._encrypt_slab(chunk, chunk_rngs, num_lines,
                                   num_warps, on_record)
            )
        return records

    def _encrypt_slab(self, plaintexts, rngs, num_lines: int,
                      num_warps: int, on_record) -> List[EncryptionRecord]:
        warp_size = self.warp_size
        lanes = num_warps * warp_size
        slab = len(plaintexts)

        # Policy draws, sample by sample, warp by warp — RNG parity.
        partitions = [self._draw_partitions(num_warps, rng) for rng in rngs]

        lines = np.frombuffer(b"".join(plaintexts), dtype=np.uint8)
        lines = lines.reshape(slab * num_lines, 16)
        ciphertexts, indices = encrypt_batch(self._key, lines)
        ciphertexts = ciphertexts.reshape(slab, num_lines * 16)
        indices = indices.reshape(slab, num_lines, NUM_ROUNDS,
                                  LOOKUPS_PER_ROUND)

        # Per-thread block address of every memory instruction column.
        io_blocks = self._io_blocks(num_lines)
        blocks = np.empty((slab, num_lines, _NCOLS), dtype=np.int64)
        blocks[:, :, 0] = io_blocks[0]
        blocks[:, :, -1] = io_blocks[1]
        blocks[:, :, 1:-1] = self._table_blocks[
            table_id_grid()[None, None], indices
        ].reshape(slab, num_lines, NUM_ROUNDS * LOOKUPS_PER_ROUND)

        # Pack (block, sid) into one key per lane —
        # ``((address & mask) << 8) | sid`` — and pad a partial final warp
        # by repeating the last real thread's keys, which merges into that
        # thread's (block, sid) pair exactly like skipping inactive lanes.
        round_aware = any(
            hasattr(partitions[s][w], "assignment_for_round")
            for s in range(slab) for w in range(num_warps)
        )
        sids = np.stack([
            self._sid_matrix(partitions[s], num_warps, round_aware)
            for s in range(slab)
        ])
        if round_aware:
            thread_sids = sids[:, :num_lines, :]       # (slab, N, ncols)
        else:
            thread_sids = sids[:, :num_lines, None]    # (slab, N, 1)
        keys = np.empty((slab, lanes, _NCOLS), dtype=np.int64)
        keys[:, :num_lines] = (blocks << 8) | thread_sids
        if lanes > num_lines:
            keys[:, num_lines:] = keys[:, num_lines - 1:num_lines]

        counts = self._distinct_along_last_axis(
            keys.reshape(slab, num_warps, warp_size, _NCOLS)
                .swapaxes(2, 3)
        )  # (slab, num_warps, ncols)

        if self.telemetry.enabled:
            # Distinct sids among active lanes, per instruction; padded
            # lanes repeat the last active lane's sid (merging harmlessly,
            # as above).
            if round_aware:
                sid_lanes = np.empty((slab, lanes, _NCOLS), dtype=np.int64)
                sid_lanes[:, :num_lines] = sids[:, :num_lines]
                if lanes > num_lines:
                    sid_lanes[:, num_lines:] = \
                        sid_lanes[:, num_lines - 1:num_lines]
                subwarps = self._distinct_along_last_axis(
                    sid_lanes.reshape(slab, num_warps, warp_size, _NCOLS)
                             .swapaxes(2, 3)
                )
            else:
                sid_lanes = np.empty((slab, lanes), dtype=np.int64)
                sid_lanes[:, :num_lines] = sids[:, :num_lines]
                if lanes > num_lines:
                    sid_lanes[:, num_lines:] = \
                        sid_lanes[:, num_lines - 1:num_lines]
                per_warp = self._distinct_along_last_axis(
                    sid_lanes.reshape(slab, num_warps, warp_size)
                )  # (slab, num_warps)
                subwarps = np.broadcast_to(
                    per_warp[:, :, None], counts.shape
                )
            self._record_metrics(counts, subwarps)

        totals = counts.sum(axis=(1, 2))
        table_counts = counts[:, :, 1:-1].reshape(
            slab, num_warps, NUM_ROUNDS, LOOKUPS_PER_ROUND
        ).sum(axis=1)                                  # (slab, 10, 16)
        round_totals = table_counts.sum(axis=2)        # (slab, 10)
        last_round_bytes = table_counts[:, NUM_ROUNDS - 1]  # (slab, 16)

        records: List[EncryptionRecord] = []
        for s in range(slab):
            record = EncryptionRecord(
                ciphertext=ciphertexts[s].tobytes(),
                total_time=0,
                last_round_time=0,
                total_accesses=int(totals[s]),
                last_round_accesses=int(round_totals[s, NUM_ROUNDS - 1]),
                round_accesses={r: int(round_totals[s, r - 1])
                                for r in range(1, NUM_ROUNDS + 1)},
                last_round_byte_accesses=[int(v)
                                          for v in last_round_bytes[s]],
                partitions=partitions[s],
            )
            records.append(record)
            if on_record is not None:
                on_record(record)
        return records
