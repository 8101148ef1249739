"""The victim: a GPU AES-128 encryption server.

Each :meth:`EncryptionServer.encrypt` call is one kernel launch: the
plaintext's lines are mapped one-per-thread onto warps, the coalescing
policy draws fresh subwarp partitions (for randomized policies), and the
discrete-event GPU executes the kernel. The returned
:class:`EncryptionRecord` carries the attacker-visible observables —
ciphertext and timings — and the simulator's ground truth (coalesced access
counts), which the counts-based experiments correlate against.

A ``counts_only`` mode skips the timing simulation: launches run on the
structure-of-arrays counts core (:class:`repro.gpu.batched
.BatchedCountsCore`), which draws the same partitions from the same
stream and produces the event engine's counts with zero times, orders of
magnitude faster. Fig 18's 1024-line security sweep and the Monte-Carlo
analysis use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.aes.key_schedule import NUM_ROUNDS
from repro.aes.modes import split_lines
from repro.aes.ttable import TTableAES
from repro.core.policies import CoalescingPolicy
from repro.core.rcoal import RCoalGPU
from repro.core.subwarp import SubwarpPartition
from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.warp import build_warp_programs
from repro.rng import RngStream

__all__ = ["EncryptionRecord", "EncryptionServer"]


def _distinct_blocks(addresses, sid_map, block_mask, active_mask) -> int:
    """Distinct (sid, 64B-block) pairs one instruction generates.

    The pair is packed into one int so set membership hashes a machine
    word instead of a tuple. Subwarp ids are lane indices (< warp size <
    256), so 8 bits always suffice.
    """
    seen = set()
    add = seen.add
    if active_mask is None:
        for tid, address in enumerate(addresses):
            add(((address & block_mask) << 8) | sid_map[tid])
    else:
        for tid, address in enumerate(addresses):
            if active_mask[tid]:
                add(((address & block_mask) << 8) | sid_map[tid])
    return len(seen)


@dataclass
class EncryptionRecord:
    """Observables from one encryption (one kernel launch).

    ``ciphertext`` and the two times are what the paper's (strong) attacker
    sees; access counts are simulator ground truth used by counts-based
    security evaluations and the data-movement metric.
    """

    ciphertext: bytes
    #: Kernel execution time, in core cycles (0 in counts-only mode).
    total_time: int
    #: Last-round execution span, in core cycles (0 in counts-only mode).
    last_round_time: int
    #: All coalesced accesses generated by the kernel.
    total_accesses: int
    #: Coalesced T4 accesses of round 10.
    last_round_accesses: int
    #: Table-load accesses per round.
    round_accesses: Dict[int, int] = field(default_factory=dict)
    #: Coalesced T4 accesses of round 10, split by ciphertext byte position
    #: (the per-instruction ground truth used by Fig 18a's methodology).
    last_round_byte_accesses: List[int] = field(default_factory=list)
    #: The subwarp partitions the policy drew (victim-internal state).
    partitions: Dict[int, SubwarpPartition] = field(default_factory=dict)
    #: Full simulator statistics (DRAM/rounds), kept when the server is
    #: constructed with ``retain_kernel_results=True``. Feeds the energy
    #: model and detailed analyses without re-simulation.
    kernel_result: Optional[object] = None

    @property
    def ciphertext_lines(self) -> List[bytes]:
        return split_lines(self.ciphertext)


class EncryptionServer:
    """A remote GPU AES-128 encryption service under an RCoal policy.

    Parameters
    ----------
    key:
        The 16-byte AES-128 secret key the attacker is after.
    policy:
        Coalescing policy the GPU implements.
    config:
        GPU machine description (defaults to the paper's Table I).
    rng:
        The victim's random stream; randomized policies draw per-launch
        partitions from it. Required for randomized policies.
    counts_only:
        Skip the timing simulation; only access counts are produced, by
        a :class:`~repro.gpu.batched.BatchedCountsCore` built on first use.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` sink threaded into the
        simulator (metrics + trace events). Defaults to the disabled null
        object: uninstrumented runs are bit-identical and pay ~zero cost.
    """

    def __init__(
        self,
        key: bytes,
        policy: CoalescingPolicy,
        config: Optional[GPUConfig] = None,
        rng: Optional[RngStream] = None,
        counts_only: bool = False,
        retain_kernel_results: bool = False,
        address_map=None,
        telemetry=None,
        batched_timing: bool = True,
    ):
        if policy.is_randomized and rng is None:
            raise ConfigurationError(
                f"policy {policy.describe()} is randomized and needs the "
                "victim RNG stream"
            )
        self._aes = TTableAES(key)
        self.gpu = RCoalGPU(policy, config, address_map=address_map,
                            telemetry=telemetry,
                            batched_timing=batched_timing)
        self.policy = policy
        self._rng = rng
        self.counts_only = counts_only
        self.retain_kernel_results = retain_kernel_results
        self._counts_core = None

    @property
    def secret_key(self) -> bytes:
        """The victim's master key (not attacker-visible); the batched
        collection core borrows it for its vectorized encryption."""
        return self._aes.key

    @property
    def last_round_key(self) -> bytes:
        """Ground truth for attack-evaluation code (not attacker-visible)."""
        return self._aes.last_round_key

    def encrypt(self, plaintext: bytes,
                rng: Optional[RngStream] = None) -> EncryptionRecord:
        """Encrypt one plaintext; one kernel launch.

        ``rng`` overrides the server's stream for this launch's policy
        draws. The parallel experiment runner passes a per-sample stream
        derived from ``(root_seed, stream name, sample index)`` so that
        any worker can simulate any sample independently.
        """
        if self.counts_only:
            return self.encrypt_batch([plaintext], [rng])[0]
        launch_rng = rng if rng is not None else self._rng
        lines = split_lines(plaintext)
        traces = [self._aes.encrypt(line) for line in lines]
        ciphertext = b"".join(trace.ciphertext for trace in traces)

        programs = build_warp_programs(
            traces,
            self.gpu.address_map,
            warp_size=self.gpu.config.warp_size,
            round_compute_cycles=self.gpu.config.round_compute_cycles,
        )

        outcome = self.gpu.launch(programs, launch_rng)
        result = outcome.result
        return EncryptionRecord(
            ciphertext=ciphertext,
            total_time=result.total_time,
            last_round_time=result.last_round_time,
            total_accesses=result.total_accesses,
            last_round_accesses=result.last_round_accesses,
            round_accesses=dict(result.round_accesses),
            last_round_byte_accesses=self._per_byte_last_round(
                programs, outcome.partitions
            ),
            partitions=outcome.partitions,
            kernel_result=(result if self.retain_kernel_results else None),
        )

    def encrypt_batch(
        self,
        plaintexts: Sequence[bytes],
        rngs: Optional[Sequence[Optional[RngStream]]] = None,
        on_record: Optional[Callable[[EncryptionRecord], None]] = None,
    ) -> List[EncryptionRecord]:
        """Encrypt many plaintexts (one launch each), in order.

        ``rngs[i]``, when not None, overrides the server's stream for
        launch ``i``, as in :meth:`encrypt`; launches without one draw
        from the server's stream in turn. ``on_record`` fires once per
        finished launch.
        """
        if rngs is None:
            rngs = [None] * len(plaintexts)
        if len(rngs) != len(plaintexts):
            raise ConfigurationError(
                f"{len(plaintexts)} plaintexts vs {len(rngs)} RNG streams")
        rngs = [self._rng if rng is None else rng for rng in rngs]
        if self.counts_only:
            if self._counts_core is None:
                from repro.gpu.batched import BatchedCountsCore
                self._counts_core = BatchedCountsCore(self)
            return self._counts_core.encrypt_batch(plaintexts, rngs,
                                                   on_record=on_record)
        records = []
        for plaintext, rng in zip(plaintexts, rngs):
            records.append(self.encrypt(plaintext, rng=rng))
            if on_record is not None:
                on_record(records[-1])
        return records

    @staticmethod
    def _round_sid_map(partition, round_index):
        """Lane->sid vector for one instruction; selective partitions
        resolve per round, plain partitions are round-invariant."""
        if hasattr(partition, "assignment_for_round"):
            return partition.assignment_for_round(round_index)
        return partition.assignment

    def _per_byte_last_round(
        self,
        programs,
        partitions: Dict[int, SubwarpPartition],
    ) -> List[int]:
        """Round-10 coalesced accesses per ciphertext byte position."""
        block_mask = ~(self.gpu.config.access_bytes - 1)
        per_byte = [0] * 16
        for program in programs:
            sid_map = self._round_sid_map(partitions[program.warp_id],
                                          NUM_ROUNDS)
            loads = program.round_memory_instructions(NUM_ROUNDS)
            for j, instruction in enumerate(loads):
                per_byte[j] += _distinct_blocks(
                    instruction.addresses, sid_map, block_mask,
                    instruction.active_mask,
                )
        return per_byte
