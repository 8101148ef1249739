"""The subwarp partition datatype.

A :class:`SubwarpPartition` is the complete description of how one warp's
threads are grouped for coalescing during one kernel launch: the subwarp
sizes and the thread→subwarp assignment. It is what a coalescing policy
draws and what gets loaded into the PRT's sid fields (Fig 11).

Invariants (enforced at construction, matching Section IV-B's requirement
that "no subwarp is empty"):

* every subwarp size is positive;
* sizes sum to the warp size;
* the assignment maps each thread to a valid subwarp, with exactly
  ``sizes[s]`` threads mapped to subwarp ``s``.

:func:`access_counts` is the coalescing rule as one array reduction: a
warp instruction makes one access per distinct ``(block, sid)`` pair of
its lanes, that is, per subwarp, one per distinct block. The counts core
and the Monte-Carlo estimators both count with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SubwarpPartition", "access_counts"]


def access_counts(blocks: np.ndarray, sids: np.ndarray) -> np.ndarray:
    """The distinct ``(block, sid)`` pairs of every row of lanes.

    ``blocks`` is a uint16 array whose last axis holds each lane's block
    as a small integer (a rank below 256); ``sids`` holds the lanes'
    subwarp ids (below 256) and broadcasts against it. ``blocks`` is
    consumed: each pair is packed in its place into one key,
    ``block << 8 | sid``, the keys are sorted along the lanes, and a row's
    count is one plus its number of transitions. Returns an int array of
    ``blocks.shape[:-1]``.
    """
    if blocks.dtype != np.uint16:
        raise TypeError(f"blocks must be uint16, not {blocks.dtype}")
    blocks <<= 8
    blocks |= sids.astype(np.uint16, copy=False)
    blocks.sort(axis=-1)
    return (blocks[..., 1:] != blocks[..., :-1]).sum(axis=-1) + 1


@dataclass(frozen=True)
class SubwarpPartition:
    """An immutable thread→subwarp grouping for one warp."""

    #: Number of threads in each subwarp; ``len(sizes)`` is num_subwarps.
    sizes: Tuple[int, ...]
    #: ``assignment[tid]`` is the subwarp id (sid) of thread ``tid``.
    assignment: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ConfigurationError("a partition needs at least one subwarp")
        if any(size <= 0 for size in self.sizes):
            raise ConfigurationError(
                f"subwarp sizes must be positive: {self.sizes}"
            )
        if sum(self.sizes) != len(self.assignment):
            raise ConfigurationError(
                f"sizes sum to {sum(self.sizes)} but assignment covers "
                f"{len(self.assignment)} threads"
            )
        counts: Dict[int, int] = {}
        for sid in self.assignment:
            if not 0 <= sid < len(self.sizes):
                raise ConfigurationError(f"invalid subwarp id {sid}")
            counts[sid] = counts.get(sid, 0) + 1
        for sid, size in enumerate(self.sizes):
            if counts.get(sid, 0) != size:
                raise ConfigurationError(
                    f"subwarp {sid} declared size {size} but "
                    f"{counts.get(sid, 0)} threads are assigned to it"
                )

    @classmethod
    def validated(cls, sizes: Tuple[int, ...],
                  assignment: Tuple[int, ...]) -> "SubwarpPartition":
        """A partition whose fields the caller has already checked (see
        ``CoalescingPolicy.partitions``): built without re-running
        ``__post_init__``."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "sizes", sizes)
        object.__setattr__(partition, "assignment", assignment)
        return partition

    @property
    def num_subwarps(self) -> int:
        return len(self.sizes)

    @property
    def warp_size(self) -> int:
        return len(self.assignment)

    def threads_of(self, sid: int) -> Tuple[int, ...]:
        """The thread ids belonging to subwarp ``sid``, in thread order."""
        return tuple(tid for tid, s in enumerate(self.assignment) if s == sid)

    def groups(self) -> List[Tuple[int, ...]]:
        """All subwarps as thread-id tuples, ordered by sid."""
        return [self.threads_of(sid) for sid in range(self.num_subwarps)]

    @staticmethod
    def single(warp_size: int) -> "SubwarpPartition":
        """The baseline machine: one subwarp holding the whole warp."""
        return SubwarpPartition(
            sizes=(warp_size,), assignment=(0,) * warp_size
        )

    @staticmethod
    def per_thread(warp_size: int) -> "SubwarpPartition":
        """Coalescing effectively disabled: one subwarp per thread."""
        return SubwarpPartition(
            sizes=(1,) * warp_size,
            assignment=tuple(range(warp_size)),
        )
