"""Simulated GPU configuration (paper Table I).

All timing parameters are expressed in **core cycles**; DRAM parameters given
in memory-clock cycles in Table I are converted using the core/memory clock
ratio at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError

__all__ = ["DramTiming", "GPUConfig"]


@dataclass(frozen=True)
class DramTiming:
    """Hynix GDDR5 timing parameters, in memory-clock cycles (Table I)."""

    t_cl: int = 12
    t_rp: int = 12
    t_rc: int = 40
    t_ras: int = 28
    t_ccd: int = 2
    t_rcd: int = 12
    t_rrd: int = 6
    #: Memory cycles to stream one 64-byte access over the bank-group bus.
    t_burst: int = 4

    def scaled(self, ratio: float) -> "DramTiming":
        """Convert to core cycles given core_clock / memory_clock ratio."""
        def conv(cycles: int) -> int:
            return max(1, round(cycles * ratio))

        return DramTiming(
            t_cl=conv(self.t_cl),
            t_rp=conv(self.t_rp),
            t_rc=conv(self.t_rc),
            t_ras=conv(self.t_ras),
            t_ccd=conv(self.t_ccd),
            t_rcd=conv(self.t_rcd),
            t_rrd=conv(self.t_rrd),
            t_burst=conv(self.t_burst),
        )


@dataclass(frozen=True)
class GPUConfig:
    """Architectural parameters of the simulated GPU (paper Table I).

    The defaults reproduce the paper's configuration: 15 SMs at 1400 MHz with
    SIMT width 32 (16x2), two warp schedulers per SM, 6 GDDR5 memory
    controllers at 924 MHz with 16 banks in 4 bank groups each, FR-FCFS
    scheduling, and 256-byte partition interleaving. MSHRs and caches exist
    but are disabled, matching the paper's evaluation setup.
    """

    # -- core ---------------------------------------------------------------
    num_sms: int = 15
    core_clock_mhz: int = 1400
    warp_size: int = 32
    simt_width: int = 16
    warp_schedulers_per_sm: int = 2
    max_warps_per_sm: int = 48
    #: Core cycles of ALU work per AES round per warp (XOR/shift/byte ops).
    round_compute_cycles: int = 40
    #: Cycles for the scheduler to issue one warp instruction (32 lanes over
    #: a 16-wide SIMT front end = 2 cycles).
    issue_cycles: int = 2

    # -- coalescing ---------------------------------------------------------
    #: Coalesced access size in bytes (one memory block / cache line).
    access_bytes: int = 64
    #: LD/ST unit egress throughput: cycles per generated coalesced access.
    coalescer_cycles_per_access: int = 1

    # -- interconnect -------------------------------------------------------
    icnt_latency: int = 8
    icnt_clock_mhz: int = 1400
    #: Requests a partition's ingress port accepts per core cycle.
    icnt_requests_per_cycle: int = 1
    #: Crossbar flit width; a 64 B data reply is split into
    #: ``1 + access_bytes/icnt_flit_bytes`` flits that serialize at the
    #: receiving SM's ejection port.
    icnt_flit_bytes: int = 32

    # -- memory partitions ----------------------------------------------------
    num_partitions: int = 6
    memory_clock_mhz: int = 924
    num_banks: int = 16
    num_bank_groups: int = 4
    #: Global linear address space interleave chunk (bytes).
    partition_chunk_bytes: int = 256
    #: DRAM row size per bank (bytes).
    row_bytes: int = 2048
    dram_timing: DramTiming = field(default_factory=DramTiming)

    # -- optional features (disabled in the paper's evaluation) -------------
    enable_mshr: bool = False
    mshr_entries: int = 32
    enable_l2: bool = False
    l2_lines: int = 1024
    l2_ways: int = 8
    l2_hit_latency: int = 20

    def __post_init__(self) -> None:
        positive_fields = {
            "num_sms": self.num_sms,
            "warp_size": self.warp_size,
            "simt_width": self.simt_width,
            "warp_schedulers_per_sm": self.warp_schedulers_per_sm,
            "access_bytes": self.access_bytes,
            "num_partitions": self.num_partitions,
            "num_banks": self.num_banks,
            "num_bank_groups": self.num_bank_groups,
            "partition_chunk_bytes": self.partition_chunk_bytes,
            "row_bytes": self.row_bytes,
            "icnt_requests_per_cycle": self.icnt_requests_per_cycle,
            "icnt_flit_bytes": self.icnt_flit_bytes,
        }
        for name, value in positive_fields.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.partition_chunk_bytes % self.access_bytes != 0:
            raise ConfigurationError(
                "partition chunk size must be a multiple of the access size"
            )
        if self.row_bytes % self.partition_chunk_bytes != 0:
            raise ConfigurationError(
                "row size must be a multiple of the partition chunk size"
            )
        if self.num_banks % self.num_bank_groups != 0:
            raise ConfigurationError(
                "num_banks must be divisible by num_bank_groups"
            )

    @property
    def clock_ratio(self) -> float:
        """Core cycles per memory-clock cycle."""
        return self.core_clock_mhz / self.memory_clock_mhz

    @property
    def dram_timing_core(self) -> DramTiming:
        """DRAM timing expressed in core cycles."""
        return self.dram_timing.scaled(self.clock_ratio)

    def with_overrides(self, **kwargs) -> "GPUConfig":
        """A copy of the configuration with selected fields replaced."""
        return replace(self, **kwargs)
