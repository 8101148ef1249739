"""The array front end of every AES batch, and the one counts engine.

Every :meth:`repro.workloads.server.EncryptionServer.encrypt_batch`, timed
or counts-only, enters through :func:`sample_slabs`, which

1. validates the batch once, then cuts it into slabs of equal-length
   samples whose lane addresses would fit a byte cap its caller passes
   (a length change starts a new slab);
2. per slab, draws every sample's subwarp partitions through
   :meth:`repro.core.rcoal.RCoalGPU.draw_partitions`, one array draw per
   sample, so a shared stream is consumed exactly as one launch per
   sample would, and resolves the drawn sid rows into lane sids per
   memory instruction (selective policies differ by round);
3. makes one :func:`repro.aes.batch.encrypt_batch` call for the
   ciphertexts and per-round table indices of all lines of the slab.

The timed server gathers each slab's lane addresses itself and wraps the
slab in a :class:`~repro.gpu.warp.SampleBatch` for the timing core.
:class:`BatchedCountsCore` reduces it instead, for counts-only servers,
and never builds an address: :func:`repro.gpu.warp.lane_blocks` maps the
uint8 indices straight to uint16 block ranks through cached per-table
rank grids, and :func:`repro.core.subwarp.access_counts` packs each
lane's ``(block, sid)`` pair into one uint16 key in place and counts the
distinct pairs per (warp, instruction) by sorting along the lane axis:
per instruction, the coalesced accesses a
:class:`~repro.gpu.coalescer.CoalescingUnit` generates. It needs no
generation order, so it does not go through the timing core's coalescer,
whose lane-tagged keys would cost a wider array and a second sort.

Records and coalescer metrics equal the event engine's counts (see
``tests/gpu/test_batched`` and ``tests/gpu/test_differential``).
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence)

import numpy as np

from repro.aes.batch import encrypt_batch
from repro.aes.cipher import BLOCK_BYTES
from repro.aes.key_schedule import NUM_ROUNDS
from repro.aes.ttable import LOOKUPS_PER_ROUND
from repro.core.subwarp import SubwarpPartition, access_counts
from repro.errors import BlockSizeError, ConfigurationError
from repro.gpu.warp import (KERNEL_COLUMNS, MemoryInstruction,
                            kernel_skeleton, lane_blocks)
from repro.rng import RngStream
from repro.workloads.server import EncryptionRecord, EncryptionServer

__all__ = ["BatchedCountsCore", "Slab", "sample_slabs"]

#: The round of each memory instruction of the AES kernel, in program
#: order: the input load is round 0, the output store sits outside any
#: round (None, resolved like the engine's sid-map default).
_COLUMN_ROUNDS = [ins.round_index for ins in kernel_skeleton()
                  if isinstance(ins, MemoryInstruction)]

#: Soft cap on a counts slab, in bytes of int64 lane addresses, the unit
#: of :func:`sample_slabs` (its uint16 keys take a quarter of that);
#: batches larger than this are processed in sample slabs so Fig 18-scale
#: sweeps stay in-cache.
_SLAB_KEY_BYTES = 48_000_000


class Slab(NamedTuple):
    """One slab of equal-length samples, as :func:`sample_slabs` yields it."""

    #: ``(samples, lines * 16)`` uint8.
    ciphertexts: np.ndarray
    #: ``(samples, lines, 10, 16)`` lookup indices of ``encrypt_batch``.
    indices: np.ndarray
    #: ``(samples, warps, 1 | KERNEL_COLUMNS, warp_size)`` int64 lane
    #: sids: one row per memory instruction only when the policy's maps
    #: vary by round. The lanes of a partial final warp repeat its last
    #: thread's sid, as its padded addresses repeat its last line.
    sids: np.ndarray
    #: Per sample: warp id -> the partition drawn for that warp.
    partitions: List[Dict[int, SubwarpPartition]]


def sample_slabs(server: EncryptionServer, plaintexts: Sequence[bytes],
                 rngs: Sequence[Optional[RngStream]],
                 cap_bytes: int) -> Iterator[Slab]:
    """The slabs of one batch: ``plaintexts[i]`` launched under
    ``rngs[i]``, in order.

    The whole batch is validated before the first slab is built. A slab
    holds at most ``cap_bytes // (per-sample lane-address bytes)``
    samples (at least one), all of one length.
    """
    if len(plaintexts) != len(rngs):
        raise ConfigurationError(
            f"{len(plaintexts)} plaintexts vs {len(rngs)} RNG streams")
    for plaintext in plaintexts:
        if len(plaintext) % BLOCK_BYTES:
            raise BlockSizeError(
                f"plaintext length {len(plaintext)} is not a multiple "
                f"of {BLOCK_BYTES}")
        if not plaintext:
            raise ConfigurationError(
                "a kernel launch needs at least one plaintext line")
    gpu = server.gpu
    warp_size = gpu.config.warp_size
    start = 0
    while start < len(plaintexts):
        num_bytes = len(plaintexts[start])
        num_lines = num_bytes // BLOCK_BYTES
        num_warps = -(-num_lines // warp_size)
        stop = min(len(plaintexts), start + max(
            1, cap_bytes // (num_warps * warp_size * KERNEL_COLUMNS * 8)))
        for end in range(start + 1, stop):
            if len(plaintexts[end]) != num_bytes:
                stop = end
                break
        # One array draw per sample, in sample order: RNG parity with
        # one launch at a time.
        draws = [gpu.draw_partitions(range(num_warps), rng)
                 for rng in rngs[start:stop]]
        sids = gpu.policy.round_sids(np.stack([draw.sids for draw in draws]),
                                     _COLUMN_ROUNDS)
        last = num_lines - (num_warps - 1) * warp_size
        if last < warp_size:
            sids[:, -1, :, last:] = sids[:, -1, :, last - 1:last]
        ciphertexts, indices = encrypt_batch(
            server.secret_key,
            np.frombuffer(b"".join(plaintexts[start:stop]), dtype=np.uint8)
            .reshape(-1, BLOCK_BYTES))
        yield Slab(ciphertexts.reshape(stop - start, -1),
                   indices.reshape(stop - start, num_lines, NUM_ROUNDS,
                                   LOOKUPS_PER_ROUND),
                   sids, [draw.partitions for draw in draws])
        start = stop


class BatchedCountsCore:
    """Vectorized counts-only collection for one :class:`EncryptionServer`.

    The core borrows the server, whose key and GPU feed
    :func:`sample_slabs`, and its GPU config and telemetry sink;
    :meth:`encrypt_batch` then reduces many launches to counts as array
    ops, returning :class:`EncryptionRecord` objects equal (``==``) to
    the event engine's with both times zero and no kernel result.
    """

    def __init__(self, server: EncryptionServer):
        if not server.counts_only:
            raise ConfigurationError(
                "the batched core only implements counts-only collection; "
                "build the server with counts_only=True"
            )
        self._server = server
        config = server.gpu.config
        self.telemetry = server.gpu.telemetry
        self.warp_size = config.warp_size
        self._access_bytes = config.access_bytes

    # -- internals ---------------------------------------------------------

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
        records: List[EncryptionRecord] = []
        address_map = self._server.gpu.address_map
        for ciphertexts, indices, sids, partitions in sample_slabs(
                self._server, plaintexts, rngs, _SLAB_KEY_BYTES):
            slab = len(indices)
            # The lanes of a partial final warp repeat its last thread's
            # block and sid, which merges into that thread's pair exactly
            # like skipping them.
            blocks = lane_blocks(indices, address_map, self.warp_size,
                                 self._access_bytes)
            num_warps = blocks.shape[1]
            counts = access_counts(blocks, sids)   # (slab, warps, 162)
            del blocks

            if self.telemetry.enabled:
                # Distinct sids among active lanes, per instruction (a
                # round-invariant map has one row for every instruction).
                self._record_metrics(counts, np.broadcast_to(access_counts(
                    np.zeros(sids.shape, dtype=np.uint16), sids),
                    counts.shape))

            totals = counts.sum(axis=(1, 2))
            table_counts = counts[:, :, 1:-1].reshape(
                slab, num_warps, NUM_ROUNDS, LOOKUPS_PER_ROUND
            ).sum(axis=1)                                  # (slab, 10, 16)
            round_totals = table_counts.sum(axis=2)        # (slab, 10)
            last_round_bytes = table_counts[:, NUM_ROUNDS - 1]  # (slab, 16)

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
