"""Thread→subwarp assignment schemes (Section IV-C).

Given subwarp sizes, an assignment decides *which* threads land in each
subwarp:

* :func:`in_order_assignment` — the hardware default: consecutive thread
  blocks ("subwarp-ids are allotted in order", Section IV-D);
* :func:`random_assignment` — RTS: a uniformly random permutation of threads
  over the subwarp slots.

Both are array operations on sid rows (one row of per-thread sids per
draw): :func:`in_order_sids` marks where each subwarp starts and takes a
running sum, and :func:`shuffled_sids` scatters the in-order slots to the
threads a permutation names. The policies draw many rows at once with
them; the two functions above are their one-partition forms.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.subwarp import SubwarpPartition
from repro.rng import RngStream

__all__ = ["in_order_assignment", "random_assignment", "in_order_sids",
           "shuffled_sids"]


def in_order_sids(bounds: np.ndarray, warp_size: int) -> np.ndarray:
    """In-order sid rows from subwarp start positions.

    ``bounds`` is ``(n, M - 1)``: row ``i`` lists the first thread of
    subwarps ``1 .. M-1`` of draw ``i``, each in ``[1, warp_size)`` and
    distinct, in any order. Returns ``(n, warp_size)`` int64: the sid of
    thread ``t`` is the number of bounds at or below ``t``.
    """
    marks = np.zeros((len(bounds), warp_size), dtype=np.int64)
    marks[np.arange(len(bounds))[:, None], bounds] = 1
    return np.cumsum(marks, axis=1, out=marks)


def shuffled_sids(ordered: np.ndarray, permutations: np.ndarray
                  ) -> np.ndarray:
    """RTS rows: thread ``permutations[i, slot]`` takes ``ordered``'s sid
    of ``slot`` (``ordered`` is one row or one row per permutation)."""
    sids = np.empty(permutations.shape, dtype=np.int64)
    np.put_along_axis(sids, permutations,
                      np.broadcast_to(ordered, permutations.shape), axis=1)
    return sids


def in_order_assignment(sizes: Sequence[int]) -> SubwarpPartition:
    """Consecutive threads fill subwarp 0, then subwarp 1, and so on."""
    sizes = tuple(sizes)
    sids = in_order_sids(np.cumsum(sizes)[None, :-1], sum(sizes))
    return SubwarpPartition(sizes=sizes, assignment=tuple(sids[0].tolist()))


def random_assignment(sizes: Sequence[int], rng: RngStream
                      ) -> SubwarpPartition:
    """RTS: threads are shuffled uniformly over the subwarp slots."""
    ordered = in_order_assignment(sizes)
    sids = shuffled_sids(ordered.assignment,
                         rng.permutation(ordered.warp_size)[None])
    return SubwarpPartition(sizes=ordered.sizes,
                            assignment=tuple(sids[0].tolist()))
