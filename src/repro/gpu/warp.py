"""Warp programs: the instruction streams the simulator executes.

A warp program linearizes one warp's share of the AES kernel into compute
phases and memory instructions, gathered from the per-line table-lookup
indices of :func:`repro.aes.batch.encrypt_batch`:

1. one coalesced **input load** (each thread reads its 16-byte plaintext
   line);
2. per round 1..10: a compute phase (AddRoundKey/XOR work) followed by 16
   **table load** instructions — the k-th load gathers the k-th lookup of
   every thread for that round, in lockstep;
3. one **output store** (each thread writes its ciphertext line).

Line-to-thread mapping is sequential and deterministic (Section II-B):
thread ``tid`` of warp ``w`` processes plaintext line ``w*32 + tid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union
from weakref import WeakKeyDictionary

import numpy as np

from repro.aes.batch import table_id_grid
from repro.aes.key_schedule import NUM_ROUNDS
from repro.aes.ttable import LOOKUPS_PER_ROUND
from repro.errors import ConfigurationError
from repro.gpu.address import (
    CIPHERTEXT_REGION_BASE,
    PLAINTEXT_REGION_BASE,
    AddressMap,
)
from repro.gpu.request import AccessKind

__all__ = ["ComputeInstruction", "MemoryInstruction", "Instruction",
           "WarpProgram", "build_warp_programs"]


@dataclass(frozen=True, slots=True)
class ComputeInstruction:
    """A block of ALU work (no memory traffic)."""

    cycles: int
    round_index: int


@dataclass(frozen=True, slots=True)
class MemoryInstruction:
    """One lockstep warp memory instruction (load or store)."""

    addresses: Tuple[int, ...]
    kind: AccessKind
    round_index: Optional[int]
    is_write: bool = False
    request_size: int = 4
    active_mask: Optional[Tuple[bool, ...]] = None


Instruction = Union[ComputeInstruction, MemoryInstruction]

#: Per-address-map cache of the resolved (5, 256) table-entry address grid
#: (weak keys: dropping a server drops its grid with it).
_TABLE_ADDRESS_GRIDS: "WeakKeyDictionary[AddressMap, np.ndarray]" = \
    WeakKeyDictionary()


@dataclass
class WarpProgram:
    """The full instruction stream of one warp for one kernel launch."""

    warp_id: int
    num_threads: int
    instructions: List[Instruction] = field(default_factory=list)

    def round_memory_instructions(self, round_index: int
                                  ) -> List[MemoryInstruction]:
        """The memory instructions belonging to one AES round."""
        return [i for i in self.instructions
                if isinstance(i, MemoryInstruction)
                and i.round_index == round_index]


def build_warp_programs(
    indices: np.ndarray,
    address_map: AddressMap,
    warp_size: int = 32,
    round_compute_cycles: int = 40,
    include_io: bool = True,
) -> List[WarpProgram]:
    """Build warp programs from per-line table-lookup indices.

    Parameters
    ----------
    indices:
        The ``(lines, 10, 16)`` lookup indices of
        :func:`repro.aes.batch.encrypt_batch`; line ``i`` maps to warp
        ``i // warp_size``, thread ``i % warp_size``.
    address_map:
        Address layout used to place tables and data buffers.
    warp_size:
        Threads per warp (32 in the paper's configuration).
    round_compute_cycles:
        ALU cycles modelled per round between memory phases.
    include_io:
        Also model the plaintext read and ciphertext write of the kernel.
    """
    num_lines = len(indices)
    if not num_lines:
        raise ConfigurationError("cannot build warp programs from zero lines")

    # Table-entry addresses depend only on (table_id, index), and the
    # table id only on (round, lookup): one gather through the 5x256 grid
    # resolves every lane's address. The grid is a pure function of the
    # address map, so it is cached across launches.
    table_addresses = _TABLE_ADDRESS_GRIDS.get(address_map)
    if table_addresses is None:
        table_addresses = np.array(
            [[address_map.table_entry_address(table_id, index)
              for index in range(256)]
             for table_id in range(5)],
            dtype=np.int64,
        )
        _TABLE_ADDRESS_GRIDS[address_map] = table_addresses

    num_warps = -(-num_lines // warp_size)
    # (lanes, lookups) addresses of every table load, in program order;
    # the inactive lanes of a partial final warp repeat its last thread.
    lanes = np.empty((num_warps * warp_size, NUM_ROUNDS * LOOKUPS_PER_ROUND),
                     dtype=np.int64)
    lanes[:num_lines] = table_addresses[table_id_grid(), indices] \
        .reshape(num_lines, -1)
    lanes[num_lines:] = lanes[num_lines - 1]
    # Per warp, per table load: its lane addresses as Python ints.
    table_loads = lanes.reshape(num_warps, warp_size, -1) \
                       .transpose(0, 2, 1).tolist()

    programs: List[WarpProgram] = []
    for warp_id in range(num_warps):
        first_line = warp_id * warp_size
        num_threads = min(warp_size, num_lines - first_line)
        active: Optional[Tuple[bool, ...]] = None
        if num_threads < warp_size:
            active = tuple(i < num_threads for i in range(warp_size))

        def io_addresses(base: int) -> Tuple[int, ...]:
            """One line per thread; inactive lanes repeat the last one."""
            lines = [address_map.line_address(base, first_line + tid)
                     for tid in range(num_threads)]
            return tuple(lines + [lines[-1]] * (warp_size - num_threads))

        program = WarpProgram(warp_id=warp_id, num_threads=num_threads)
        instructions = program.instructions

        if include_io:
            instructions.append(MemoryInstruction(
                addresses=io_addresses(PLAINTEXT_REGION_BASE),
                kind=AccessKind.INPUT_LOAD,
                round_index=0,
                request_size=16,
                active_mask=active,
            ))

        warp_loads = iter(table_loads[warp_id])
        for round_index in range(1, NUM_ROUNDS + 1):
            instructions.append(
                ComputeInstruction(round_compute_cycles, round_index)
            )
            for _ in range(LOOKUPS_PER_ROUND):
                instructions.append(MemoryInstruction(
                    addresses=tuple(next(warp_loads)),
                    kind=AccessKind.TABLE_LOAD,
                    round_index=round_index,
                    request_size=4,
                    active_mask=active,
                ))

        if include_io:
            # round_index None: the store is outside the round windows, so
            # it never extends the measured last-round span.
            instructions.append(MemoryInstruction(
                addresses=io_addresses(CIPHERTEXT_REGION_BASE),
                kind=AccessKind.OUTPUT_STORE,
                round_index=None,
                is_write=True,
                request_size=16,
                active_mask=active,
            ))

        programs.append(program)
    return programs
