"""RCoalGPU: a GPU simulator with a coalescing policy attached.

This is the integration point between the contribution and the substrate:
at each kernel launch the policy draws one subwarp partition per warp (the
hardware sets the PRT sid fields once per launch, Fig 11), and the
discrete-event engine executes the launch with those maps.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.policies import CoalescingPolicy
from repro.core.subwarp import SubwarpPartition
from repro.errors import ConfigurationError
from repro.gpu.config import GPUConfig
from repro.gpu.engine import GPUSimulator, KernelResult
from repro.gpu.warp import WarpProgram
from repro.rng import RngStream

__all__ = ["RCoalGPU", "LaunchDraw", "LaunchOutcome"]


class LaunchDraw(NamedTuple):
    """One launch's policy draw, as arrays and as partitions."""

    #: ``(warps, warp_size)`` int64: row ``i`` is the sid map of the
    #: ``i``-th warp id drawn for.
    sids: np.ndarray
    #: Warp id -> the validated partition of its row.
    partitions: Dict[int, SubwarpPartition]


class LaunchOutcome:
    """A kernel result plus the partitions the policy drew for it."""

    def __init__(self, result: KernelResult,
                 partitions: Dict[int, SubwarpPartition]):
        self.result = result
        self.partitions = partitions


class RCoalGPU:
    """A simulated GPU protected by an RCoal coalescing policy.

    Parameters
    ----------
    policy:
        The coalescing policy (defense mechanism) the hardware implements.
    config:
        Machine description; defaults to the paper's Table I machine.
    """

    def __init__(self, policy: CoalescingPolicy,
                 config: Optional[GPUConfig] = None,
                 address_map=None, telemetry=None,
                 batched_timing: bool = True):
        self.policy = policy
        self.simulator = GPUSimulator(config, address_map=address_map,
                                      telemetry=telemetry,
                                      batched_timing=batched_timing)
        if policy.warp_size != self.simulator.config.warp_size:
            raise ConfigurationError(
                f"policy warp size {policy.warp_size} != machine warp size "
                f"{self.simulator.config.warp_size}"
            )

    @property
    def config(self) -> GPUConfig:
        return self.simulator.config

    @property
    def telemetry(self):
        """The simulator's telemetry sink (the disabled null object when
        uninstrumented); the counts-only fast path records through it."""
        return self.simulator.telemetry

    @property
    def address_map(self):
        return self.simulator.address_map

    def draw_partitions(self, warp_ids: Sequence[int],
                        rng: Optional[RngStream]) -> LaunchDraw:
        """Draw one subwarp partition per warp for a launch, in
        ``warp_ids`` order: one :meth:`CoalescingPolicy.draw_sids` call."""
        sids = self.policy.draw_sids(rng, len(warp_ids))
        return LaunchDraw(sids, dict(zip(warp_ids,
                                         self.policy.partitions(sids))))

    def launch(self, programs: Sequence[WarpProgram],
               rng: Optional[RngStream] = None) -> LaunchOutcome:
        """Run one kernel launch under the policy.

        ``rng`` is the *victim's* random stream; randomized policies draw
        their per-launch partitions from it.
        """
        partitions = self.draw_partitions(
            [p.warp_id for p in programs], rng
        ).partitions
        sid_maps = {warp_id: partition.assignment
                    for warp_id, partition in partitions.items()}
        result = self.simulator.run(programs, sid_maps)
        return LaunchOutcome(result, partitions)
