"""Subwarp sizing schemes (Section IV-A/B, Fig 9).

* :func:`fixed_sizes` — FSS: M equal groups.
* :func:`skewed_sizes` — RSS's preferred distribution: uniform over **all
  compositions** of N into M positive parts ("all possible subwarp size
  combinations equally likely and no subwarp is empty", Section IV-B). Its
  marginals are heavily right-skewed — most parts are small and one part
  tends to be large — which is what improves RSS's performance over FSS.
* :func:`normal_sizes` — RSS's normal variant: sizes drawn from a normal
  distribution centred on N/M, then repaired to a valid partition. The paper
  finds this behaves like FSS and keeps the skewed scheme; both are provided.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import RngStream

__all__ = ["fixed_sizes", "skewed_cuts", "skewed_sizes", "normal_sizes"]


def _check_args(warp_size: int, num_subwarps: int) -> None:
    if warp_size <= 0:
        raise ConfigurationError(f"warp size must be positive: {warp_size}")
    if not 1 <= num_subwarps <= warp_size:
        raise ConfigurationError(
            f"num_subwarps must be in [1, {warp_size}]: {num_subwarps}"
        )


def fixed_sizes(warp_size: int, num_subwarps: int) -> Tuple[int, ...]:
    """FSS sizes: as equal as possible (exactly equal when M divides N)."""
    _check_args(warp_size, num_subwarps)
    base, remainder = divmod(warp_size, num_subwarps)
    return tuple(base + (1 if i < remainder else 0)
                 for i in range(num_subwarps))


def skewed_cuts(warp_size: int, num_subwarps: int,
                rng: RngStream) -> np.ndarray:
    """The ``M-1`` distinct cut points of one skewed draw, unsorted: the
    first threads of subwarps ``1 .. M-1``, in ``[1, N)``. One ``choice``
    call on ``rng`` (none when ``M == 1``)."""
    if num_subwarps == 1:
        return np.empty(0, dtype=np.int64)
    return rng.choice_without_replacement(warp_size - 1,
                                          num_subwarps - 1) + 1


def skewed_sizes(warp_size: int, num_subwarps: int,
                 rng: RngStream) -> Tuple[int, ...]:
    """A uniformly random composition of ``warp_size`` into positive parts.

    Sampled by the stars-and-bars bijection: choose ``M-1`` distinct cut
    points among the ``N-1`` gaps between threads. Every composition —
    ordered size vector — is equally likely, so no subwarp is ever empty and
    extreme splits like (1, 1, 1, 29) are as probable as (8, 8, 8, 8).
    """
    _check_args(warp_size, num_subwarps)
    cuts = sorted(skewed_cuts(warp_size, num_subwarps, rng))
    bounds = [0] + [int(c) for c in cuts] + [warp_size]
    return tuple(bounds[i + 1] - bounds[i] for i in range(num_subwarps))


def normal_sizes(warp_size: int, num_subwarps: int, rng: RngStream,
                 std_fraction: float = 0.25) -> Tuple[int, ...]:
    """Sizes from a normal distribution around N/M, repaired to validity.

    Draws M values from Normal(N/M, std_fraction * N/M), rounds them,
    clamps each to at least 1, then redistributes the surplus/deficit one
    thread at a time (taking from the largest / giving to the smallest) so
    the sizes sum to N with no empty subwarp.
    """
    _check_args(warp_size, num_subwarps)
    if num_subwarps == 1:
        return (warp_size,)
    mean = warp_size / num_subwarps
    draws = rng.normal(mean, std_fraction * mean, size=num_subwarps)
    sizes: List[int] = [max(1, int(round(d))) for d in draws]

    # Repair to the exact total, preserving the shape of the draw.
    delta = warp_size - sum(sizes)
    while delta > 0:
        sizes[sizes.index(min(sizes))] += 1
        delta -= 1
    while delta < 0:
        largest = sizes.index(max(sizes))
        if sizes[largest] <= 1:
            raise ConfigurationError(
                "cannot repair normal size draw without emptying a subwarp"
            )
        sizes[largest] -= 1
        delta += 1
    return tuple(sizes)
