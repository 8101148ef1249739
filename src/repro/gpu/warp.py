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

The same kernel also exists as arrays. :func:`lane_addresses` gathers
every lane's address in every memory instruction of many launches at
once, through one cached table-entry grid and one cached set of
input/output line addresses per address map; the timed front end and
:func:`build_warp_programs` take their addresses from it. The counts core
needs only block identity: :func:`lane_blocks` gathers every lane's block
as a uint16 rank through cached rank grids instead. A
:class:`SampleBatch` carries launches to the timing core, which
coalesces and times them without building a :class:`MemoryInstruction`.
Programs are materialized only where the event engine runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, List, Mapping, Optional, Sequence, Tuple,
                    Union)
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
           "WarpProgram", "SampleBatch", "KERNEL_COLUMNS",
           "build_warp_programs", "kernel_skeleton", "lane_addresses",
           "lane_blocks"]


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

#: Memory instructions per warp of the AES kernel: the input load, the
#: 10 x 16 table loads and the output store, in program order.
KERNEL_COLUMNS = 2 + NUM_ROUNDS * LOOKUPS_PER_ROUND

#: Per address map, its tables by key: the (5, 256) table-entry address
#: grid; by line count and warp size, its input and output line addresses
#: padded to whole warps; and, by access size, the block ranks of both.
#: The stock builders read no map state, so every map whose class keeps
#: both shares the entry keyed by :class:`AddressMap`; a map whose class
#: overrides either has its own (weak keys: dropping that map's server
#: drops its tables with it).
_ADDRESS_TABLES: "WeakKeyDictionary[object, dict]" = WeakKeyDictionary()


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


@dataclass(frozen=True)
class SampleBatch:
    """Launches of one program shape, as arrays: the timing core's input.

    Launch ``s`` runs warps ``0 .. warps-1``, and every warp runs
    ``instructions``; its ``m``-th memory instruction takes its lane
    addresses from ``addresses[s, w, m]``, not from its own (empty)
    ``addresses``. Thread ``t`` is lane ``t % warp_size`` of warp
    ``t // warp_size``, the first ``num_threads`` threads are active,
    and the other lanes of a partial final warp repeat its last thread's
    addresses (see :func:`lane_addresses`).
    """

    instructions: Tuple[Instruction, ...]
    #: ``(launches, warps, memory instructions, lanes)`` int64.
    addresses: np.ndarray
    #: The lanes' subwarp ids, padded like ``addresses``: ``(launches,
    #: warps, 1, lanes)`` when no map varies by round, else one row per
    #: memory instruction.
    sids: np.ndarray
    num_threads: int
    #: Per launch: warp id -> that warp's sid map, for the event engine.
    sid_maps: Sequence[Mapping[int, Sequence[int]]]
    #: Launch ``s``'s warp programs, for the event engine.
    programs: Callable[[int], List[WarpProgram]]

    @property
    def num_samples(self) -> int:
        return self.addresses.shape[0]

    @property
    def num_warps(self) -> int:
        return self.addresses.shape[1]


def kernel_skeleton(round_compute_cycles: int = 40,
                    include_io: bool = True) -> Tuple[Instruction, ...]:
    """The AES kernel's instructions, memory ones without addresses."""
    skeleton: List[Instruction] = []
    if include_io:
        skeleton.append(MemoryInstruction((), AccessKind.INPUT_LOAD, 0,
                                          request_size=16))
    for round_index in range(1, NUM_ROUNDS + 1):
        skeleton.append(ComputeInstruction(round_compute_cycles,
                                           round_index))
        skeleton.extend(
            MemoryInstruction((), AccessKind.TABLE_LOAD, round_index,
                              request_size=4)
            for _ in range(LOOKUPS_PER_ROUND))
    if include_io:
        # round_index None: the store is outside the round windows, so it
        # never extends the measured last-round span.
        skeleton.append(MemoryInstruction((), AccessKind.OUTPUT_STORE, None,
                                          is_write=True, request_size=16))
    return tuple(skeleton)


def _tables(address_map: AddressMap, key, build: Callable[[], np.ndarray]
            ) -> np.ndarray:
    """The map's table under ``key`` (see :data:`_ADDRESS_TABLES`),
    built on first use."""
    cls = type(address_map)
    owner = (AddressMap
             if cls.table_entry_address is AddressMap.table_entry_address
             and cls.line_address is AddressMap.line_address
             else address_map)
    tables = _ADDRESS_TABLES.get(owner)
    if tables is None:
        tables = _ADDRESS_TABLES[owner] = {}
    table = tables.get(key)
    if table is None:
        table = tables[key] = build()
    return table


def _entry_grid(address_map: AddressMap) -> np.ndarray:
    """``(5, 256)`` int64: the address of every table entry."""
    return _tables(address_map, "entries", lambda: np.array(
        [[address_map.table_entry_address(table_id, index)
          for index in range(256)] for table_id in range(5)],
        dtype=np.int64))


def _line_grid(address_map: AddressMap, num_lines: int,
               warp_size: int) -> np.ndarray:
    """``(2, warps, warp_size)`` int64: every lane's input and output line
    address, the lanes of a partial final warp repeating its last line."""
    num_warps = -(-num_lines // warp_size)
    return _tables(address_map, ("lines", num_lines, warp_size),
                   lambda: np.array(
        [[address_map.line_address(base, min(line, num_lines - 1))
          for line in range(num_warps * warp_size)]
         for base in (PLAINTEXT_REGION_BASE, CIPHERTEXT_REGION_BASE)],
        dtype=np.int64).reshape(2, num_warps, warp_size))


def _row_ranks(blocks: np.ndarray) -> np.ndarray:
    """Each block's rank among the distinct blocks of its row (last
    axis), as uint16."""
    rows = blocks.reshape(-1, blocks.shape[-1])
    return np.array([np.unique(row, return_inverse=True)[1]
                     for row in rows], dtype=np.uint16).reshape(blocks.shape)


def _gather(indices: np.ndarray, warp_size: int, entries: np.ndarray,
            lines: np.ndarray) -> np.ndarray:
    """Lay ``entries[table id, index]`` and ``lines`` out per lane, in
    the dtype of ``entries``, as :func:`lane_addresses` documents."""
    launches, num_lines = indices.shape[:2]
    num_warps = -(-num_lines // warp_size)
    index = indices.reshape(launches, num_lines, -1)
    if num_lines < num_warps * warp_size:
        index = np.concatenate(
            [index, np.repeat(index[:, -1:],
                              num_warps * warp_size - num_lines, axis=1)],
            axis=1)
    # (launches, warps, table loads, lanes), still one byte per index.
    index = index.reshape(launches, num_warps, warp_size, -1) \
                 .transpose(0, 1, 3, 2)
    lanes = np.empty((launches, num_warps, KERNEL_COLUMNS, warp_size),
                     dtype=entries.dtype)
    lanes[:, :, 0] = lines[0]
    lanes[:, :, 1:-1] = entries[table_id_grid().reshape(-1, 1), index]
    lanes[:, :, -1] = lines[1]
    return lanes


def lane_addresses(indices: np.ndarray, address_map: AddressMap,
                   warp_size: int) -> np.ndarray:
    """Every lane's byte address in every memory instruction of the AES
    kernel, for many launches at once.

    ``indices`` holds ``(launches, lines, 10, 16)`` lookup indices of
    :func:`repro.aes.batch.encrypt_batch`. Returns ``(launches, warps,
    KERNEL_COLUMNS, warp_size)`` int64: column 0 is the input load,
    columns 1 to 160 the table loads in program order, the last column
    the output store. The lanes of a partial final warp repeat its last
    thread's addresses. Table-entry addresses depend only on
    ``(table id, index)`` and the table id only on ``(round, lookup)``,
    so one gather through the cached 5x256 grid resolves every lookup.
    """
    return _gather(indices, warp_size, _entry_grid(address_map),
                   _line_grid(address_map, indices.shape[1], warp_size))


def lane_blocks(indices: np.ndarray, address_map: AddressMap,
                warp_size: int, access_bytes: int) -> np.ndarray:
    """Every lane's memory block, laid out as :func:`lane_addresses`, as a
    uint16 rank below 256.

    A block is an address with its low ``log2(access_bytes)`` bits
    cleared, as the coalescer sees it. Ranks are per table (a table has
    256 entries) and, for the input and output columns, per warp, so two
    lanes of one memory instruction share a rank exactly when they share
    a block. The ranks come from the map's cached address grids.
    """
    num_lines = indices.shape[1]
    shift = access_bytes.bit_length() - 1
    entries = _tables(address_map, ("entry ranks", access_bytes),
                      lambda: _row_ranks(_entry_grid(address_map) >> shift))
    lines = _tables(
        address_map, ("line ranks", num_lines, warp_size, access_bytes),
        lambda: _row_ranks(
            _line_grid(address_map, num_lines, warp_size) >> shift))
    return _gather(indices, warp_size, entries, lines)


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
    # Per warp, per memory instruction: its lane addresses as Python ints.
    lanes = lane_addresses(indices[None], address_map, warp_size)[0]
    if not include_io:
        lanes = lanes[:, 1:-1]
    skeleton = kernel_skeleton(round_compute_cycles, include_io)
    programs: List[WarpProgram] = []
    for warp_id, rows in enumerate(lanes.tolist()):
        num_threads = min(warp_size, num_lines - warp_id * warp_size)
        active: Optional[Tuple[bool, ...]] = None
        if num_threads < warp_size:
            active = tuple(i < num_threads for i in range(warp_size))
        rows = iter(rows)
        programs.append(WarpProgram(
            warp_id=warp_id, num_threads=num_threads,
            instructions=[
                ins if isinstance(ins, ComputeInstruction)
                else MemoryInstruction(tuple(next(rows)), ins.kind,
                                       ins.round_index, ins.is_write,
                                       ins.request_size, active)
                for ins in skeleton]))
    return programs
