"""Tests for warp program construction from AES lookup indices."""

import numpy as np
import pytest

from repro.aes.batch import encrypt_batch
from repro.aes.key_schedule import NUM_ROUNDS
from repro.aes.ttable import LOOKUPS_PER_ROUND, TTableAES
from repro.errors import ConfigurationError
from repro.gpu.address import (
    CIPHERTEXT_REGION_BASE,
    PLAINTEXT_REGION_BASE,
    AddressMap,
    PermutedAddressMap,
)
from repro.gpu.request import AccessKind
from repro.gpu.warp import ComputeInstruction, MemoryInstruction, \
    build_warp_programs, lane_addresses
from repro.rng import RngStream


@pytest.fixture
def address_map(gpu_config):
    return AddressMap(gpu_config)


def lines_for(num_lines: int):
    return [bytes([line % 256]) * 16 for line in range(num_lines)]


def indices_for(num_lines: int, key: bytes = bytes(16)):
    """The (lines, 10, 16) lookup indices of ``lines_for(num_lines)``."""
    lines = np.frombuffer(b"".join(lines_for(num_lines)), dtype=np.uint8)
    return encrypt_batch(key, lines.reshape(num_lines, 16))[1]


def traces_for(num_lines: int, key: bytes = bytes(16)):
    """The scalar reference traces of the same lines."""
    aes = TTableAES(key)
    return [aes.encrypt(line) for line in lines_for(num_lines)]


def reference_program(traces, address_map, warp_id, warp_size=32,
                      round_compute_cycles=40):
    """One warp's instructions, walked out of scalar traces lane by lane
    and resolved through ``AddressMap.table_entry_address``."""
    warp_traces = traces[warp_id * warp_size:(warp_id + 1) * warp_size]
    threads = len(warp_traces)
    active = (None if threads == warp_size
              else tuple(tid < threads for tid in range(warp_size)))

    def lanes(per_thread):
        return tuple(per_thread[min(tid, threads - 1)]
                     for tid in range(warp_size))

    def io(base):
        return lanes([address_map.line_address(base, warp_id * warp_size + t)
                      for t in range(threads)])

    instructions = [MemoryInstruction(io(PLAINTEXT_REGION_BASE),
                                      AccessKind.INPUT_LOAD, 0,
                                      request_size=16, active_mask=active)]
    for round_index in range(1, NUM_ROUNDS + 1):
        instructions.append(ComputeInstruction(round_compute_cycles,
                                               round_index))
        for k in range(LOOKUPS_PER_ROUND):
            instructions.append(MemoryInstruction(
                lanes([address_map.table_entry_address(
                    *trace.rounds[round_index - 1].lookups[k])
                    for trace in warp_traces]),
                AccessKind.TABLE_LOAD, round_index, request_size=4,
                active_mask=active))
    instructions.append(MemoryInstruction(io(CIPHERTEXT_REGION_BASE),
                                          AccessKind.OUTPUT_STORE, None,
                                          is_write=True, request_size=16,
                                          active_mask=active))
    return instructions


class TestStructure:
    def test_one_warp_per_32_lines(self, address_map):
        programs = build_warp_programs(indices_for(96), address_map)
        assert len(programs) == 3
        assert [p.warp_id for p in programs] == [0, 1, 2]
        assert all(p.num_threads == 32 for p in programs)

    def test_instruction_counts(self, address_map):
        program = build_warp_programs(indices_for(32), address_map)[0]
        computes = [i for i in program.instructions
                    if isinstance(i, ComputeInstruction)]
        memories = [i for i in program.instructions
                    if isinstance(i, MemoryInstruction)]
        assert len(computes) == NUM_ROUNDS
        # input load + 10 rounds x 16 table loads + output store
        assert len(memories) == 1 + NUM_ROUNDS * LOOKUPS_PER_ROUND + 1

    def test_io_can_be_disabled(self, address_map):
        program = build_warp_programs(indices_for(32), address_map,
                                      include_io=False)[0]
        kinds = {i.kind for i in program.instructions
                 if isinstance(i, MemoryInstruction)}
        assert kinds == {AccessKind.TABLE_LOAD}

    def test_round_memory_instruction_lookup(self, address_map):
        program = build_warp_programs(indices_for(32), address_map)[0]
        last = program.round_memory_instructions(NUM_ROUNDS)
        assert len(last) == LOOKUPS_PER_ROUND
        assert all(i.kind is AccessKind.TABLE_LOAD for i in last)

    def test_store_is_outside_round_windows(self, address_map):
        program = build_warp_programs(indices_for(32), address_map)[0]
        stores = [i for i in program.instructions
                  if isinstance(i, MemoryInstruction) and i.is_write]
        assert len(stores) == 1
        assert stores[0].round_index is None

    def test_empty_traces_rejected(self, address_map):
        with pytest.raises(ConfigurationError):
            build_warp_programs(np.empty((0, NUM_ROUNDS, LOOKUPS_PER_ROUND),
                                         dtype=np.uint8), address_map)


class TestAddresses:
    def test_table_loads_match_trace_indices(self, address_map):
        traces = traces_for(32)
        program = build_warp_programs(indices_for(32), address_map)[0]
        loads = program.round_memory_instructions(NUM_ROUNDS)
        for k, load in enumerate(loads):
            for tid in range(32):
                table, index = traces[tid].rounds[-1].lookups[k]
                expected = address_map.table_entry_address(table, index)
                assert load.addresses[tid] == expected

    def test_lockstep_ordering(self, address_map):
        """The k-th load gathers the k-th lookup of EVERY thread."""
        traces = traces_for(32)
        program = build_warp_programs(indices_for(32), address_map)[0]
        round1 = program.round_memory_instructions(1)
        for k, load in enumerate(round1):
            tables = {traces[tid].rounds[0].lookups[k][0]
                      for tid in range(32)}
            assert len(tables) == 1  # same table id for all lanes


class TestPartialWarps:
    def test_partial_warp_has_active_mask(self, address_map):
        programs = build_warp_programs(indices_for(40), address_map)
        assert programs[0].num_threads == 32
        assert programs[1].num_threads == 8
        last_loads = programs[1].round_memory_instructions(NUM_ROUNDS)
        mask = last_loads[0].active_mask
        assert mask is not None
        assert sum(mask) == 8
        assert len(last_loads[0].addresses) == 32  # padded to warp width

    def test_full_warp_has_no_mask(self, address_map):
        program = build_warp_programs(indices_for(32), address_map)[0]
        loads = program.round_memory_instructions(1)
        assert loads[0].active_mask is None


class TestScalarReference:
    """Programs gathered from ``encrypt_batch`` indices equal programs
    walked out of scalar ``TTableAES`` traces, instruction for
    instruction."""

    @pytest.mark.parametrize("num_lines", [32, 40, 96])
    @pytest.mark.parametrize("permuted", [False, True])
    def test_matches_scalar_traces(self, gpu_config, num_lines, permuted):
        address_map = (PermutedAddressMap(gpu_config, RngStream(13, "addr"))
                       if permuted else AddressMap(gpu_config))
        key = bytes(range(16))
        traces = traces_for(num_lines, key)
        programs = build_warp_programs(indices_for(num_lines, key),
                                       address_map)
        assert len(programs) == -(-num_lines // 32)
        for program in programs:
            assert program.instructions == reference_program(
                traces, address_map, program.warp_id)
            assert program.num_threads == min(32, num_lines
                                              - 32 * program.warp_id)

    @pytest.mark.parametrize("num_lines", [1, 40, 96])
    @pytest.mark.parametrize("permuted", [False, True])
    def test_array_launch_matches_scalar_traces(self, gpu_config, num_lines,
                                                permuted):
        # Three launches of different plaintexts in one gather: every
        # lane of every memory instruction, padded lanes included, equals
        # the address walked out of that launch's scalar traces.
        address_map = (PermutedAddressMap(gpu_config, RngStream(13, "addr"))
                       if permuted else AddressMap(gpu_config))
        key = bytes(range(16))
        aes = TTableAES(key)
        launches = [[bytes([(line + 7 * s) % 256]) * 16
                     for line in range(num_lines)] for s in range(3)]
        indices = np.stack([
            encrypt_batch(key, np.frombuffer(b"".join(lines), dtype=np.uint8)
                          .reshape(num_lines, 16))[1]
            for lines in launches])
        lanes = lane_addresses(indices, address_map, 32)
        assert lanes.shape == (3, -(-num_lines // 32),
                               2 + NUM_ROUNDS * LOOKUPS_PER_ROUND, 32)
        for s, lines in enumerate(launches):
            traces = [aes.encrypt(line) for line in lines]
            for warp_id in range(lanes.shape[1]):
                expected = [list(ins.addresses) for ins in reference_program(
                    traces, address_map, warp_id)
                    if isinstance(ins, MemoryInstruction)]
                assert lanes[s, warp_id].tolist() == expected


class TestAddressTables:
    """``lane_addresses`` caches each map's table-entry grid and line
    addresses. Maps whose class keeps the stock builders share one entry;
    a class that overrides either builder keeps its own."""

    @pytest.mark.parametrize("builder", ["table_entry_address",
                                         "line_address"])
    def test_an_overriding_map_keeps_its_own_addresses(self, gpu_config,
                                                       builder):
        class Shifted(AddressMap):
            """Every address of one builder 4 KB higher."""

        def shifted(self, *args):
            return getattr(AddressMap, builder)(self, *args) + 4096

        setattr(Shifted, builder, shifted)
        indices = indices_for(40)[None]
        stock = lane_addresses(indices, AddressMap(gpu_config), 32)
        moved = lane_addresses(indices, Shifted(gpu_config), 32)
        # The stock entry, built first, is not the overriding map's ...
        columns = (slice(1, -1) if builder == "table_entry_address"
                   else [0, -1])
        assert (moved[:, :, columns] == stock[:, :, columns] + 4096).all()
        rest = np.ones(stock.shape[2], dtype=bool)
        rest[columns] = False
        assert (moved[:, :, rest] == stock[:, :, rest]).all()
        # ... nor is the overriding map's entry the stock maps'.
        again = lane_addresses(indices,
                               PermutedAddressMap(gpu_config,
                                                  RngStream(13, "addr")), 32)
        assert (again == stock).all()
