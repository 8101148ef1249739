"""GPU timing-simulator substrate.

A discrete-event stand-in for GPGPU-Sim, modelling the parts of the machine
the RCoal evaluation depends on (Table I of the paper):

* SMs with dual warp schedulers issuing warp instructions in lock step;
* the LD/ST-unit **memory coalescing unit** with its pending-request table
  (PRT), extended with the subwarp-id (sid) field of Fig 11 — the hardware
  hook all three defenses plug into;
* a crossbar interconnect to 6 memory partitions, global address space
  interleaved in 256-byte chunks;
* banked GDDR5 DRAM with FR-FCFS scheduling and Hynix timing parameters.

Like the paper's evaluation (Section VII), the machine has no caches and no
MSHRs, so the intra-warp coalescer is the only bandwidth filter.

The simulator is event-driven (no per-cycle loop), so kernel launches with
tens of thousands of memory requests simulate in milliseconds while
preserving the property the attack exploits: execution time grows with the
number of coalesced accesses, with realistic DRAM queueing noise.
"""

from repro.gpu.config import GPUConfig
from repro.gpu.coalescer import CoalescingUnit, PendingRequestTable
from repro.gpu.energy import EnergyBreakdown, EnergyModel
from repro.gpu.engine import GPUSimulator, KernelResult, RoundAwareSidMap
from repro.gpu.warp import WarpProgram, build_warp_programs

__all__ = [
    "GPUConfig",
    "CoalescingUnit",
    "PendingRequestTable",
    "GPUSimulator",
    "KernelResult",
    "RoundAwareSidMap",
    "WarpProgram",
    "build_warp_programs",
    "EnergyModel",
    "EnergyBreakdown",
]
