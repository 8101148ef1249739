"""Batched structure-of-arrays collection core: the one counts engine.

The discrete-event engine dispatches ~5 Python events per coalesced access.
Counts-only collection needs none of its timing, so every counts-only
:class:`repro.workloads.server.EncryptionServer` launch runs here instead,
as numpy array arithmetic over a whole *batch* of launches:

1. :func:`repro.aes.batch.encrypt_batch` produces the ciphertexts and the
   per-round table indices of all lines of all samples at once;
2. :func:`repro.gpu.warp.lane_addresses` gathers them through the address
   map's cached table-entry grid and line addresses (so permuted layouts
   work unchanged) into one ``(samples, warps, instructions, lanes)``
   address array, the one the timed front end uses too, and
   :func:`repro.gpu.warp.lane_sids` gives every lane's subwarp id;
3. each lane's ``(block, sid)`` pair is packed into one int64 key,
   ``(block << 8) | sid`` (subwarp ids are lane indices, below 256), and
   distinct pairs per (warp, instruction) are counted by sorting along the
   lane axis and counting value transitions: per instruction, the
   coalesced accesses a :class:`~repro.gpu.coalescer.CoalescingUnit`
   generates (cf. the ``calculate_bursts`` distinct-blocks-per-subwarp
   arithmetic the ROADMAP cites).

Policy randomization is reproduced *exactly*: the core draws one partition
per warp per sample from the same per-sample RNG stream, in the same order,
as :meth:`repro.core.rcoal.RCoalGPU.draw_partitions` — the draws are a few
thousand cheap calls, the per-lane loops they parameterize are what
vectorization removes. Records and coalescer metrics equal the event
engine's counts (see ``tests/gpu/test_batched`` and
``tests/gpu/test_differential``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.aes.batch import encrypt_batch
from repro.aes.key_schedule import NUM_ROUNDS
from repro.aes.ttable import LOOKUPS_PER_ROUND
from repro.errors import BlockSizeError, ConfigurationError
from repro.gpu.warp import (KERNEL_COLUMNS, MemoryInstruction,
                            kernel_skeleton, lane_addresses, lane_sids)
from repro.rng import RngStream
from repro.workloads.server import EncryptionRecord, EncryptionServer

__all__ = ["BatchedCountsCore"]

#: The round of each memory instruction of the AES kernel, in program
#: order: the input load is round 0, the output store sits outside any
#: round (None, resolved like the engine's sid-map default).
_COLUMN_ROUNDS = [ins.round_index for ins in kernel_skeleton()
                  if isinstance(ins, MemoryInstruction)]

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
        self._address_map = server.gpu.address_map

    # -- internals ---------------------------------------------------------

    def _draw_partitions(self, num_warps: int, rng: Optional[RngStream]):
        """One partition per warp, in warp order — the exact RNG
        consumption of ``RCoalGPU.draw_partitions``."""
        policy = self.policy
        return {warp_id: policy.draw(rng) for warp_id in range(num_warps)}

    @staticmethod
    def _distinct_along_last_axis(values: np.ndarray) -> np.ndarray:
        """Distinct value count along the last axis (sort + transitions)."""
        ordered = np.sort(values, axis=-1)
        return (ordered[..., 1:] != ordered[..., :-1]).sum(axis=-1) + 1

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

        per_sample_bytes = lanes * KERNEL_COLUMNS * 8
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
        slab = len(plaintexts)

        # Policy draws, sample by sample, warp by warp — RNG parity.
        partitions = [self._draw_partitions(num_warps, rng) for rng in rngs]

        lines = np.frombuffer(b"".join(plaintexts), dtype=np.uint8)
        lines = lines.reshape(slab * num_lines, 16)
        ciphertexts, indices = encrypt_batch(self._key, lines)
        ciphertexts = ciphertexts.reshape(slab, num_lines * 16)
        indices = indices.reshape(slab, num_lines, NUM_ROUNDS,
                                  LOOKUPS_PER_ROUND)

        # Pack (block, sid) into one key per lane,
        # ``((address & mask) << 8) | sid``. The lanes of a partial final
        # warp repeat its last thread's address and sid, which merges into
        # that thread's (block, sid) pair exactly like skipping them.
        sids = lane_sids(
            [{warp_id: partition.assignment
              for warp_id, partition in drawn.items()}
             for drawn in partitions],
            num_warps, num_lines, _COLUMN_ROUNDS, warp_size)
        keys = lane_addresses(indices, self._address_map, warp_size)
        keys &= self._block_mask
        keys <<= 8
        keys |= sids
        counts = self._distinct_along_last_axis(keys)  # (slab, warps, ncols)
        del keys

        if self.telemetry.enabled:
            # Distinct sids among active lanes, per instruction (a
            # round-invariant map has one row for every instruction).
            self._record_metrics(counts, np.broadcast_to(
                self._distinct_along_last_axis(sids), counts.shape))

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
