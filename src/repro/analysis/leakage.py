"""Mutual-information leakage of the coalescing side channel.

The correlation rho of Section V measures *linear* dependence between the
victim's access counts U and the attacker's estimate U_hat. Mutual
information I(U; U_hat) is the model-free complement: it upper-bounds what
ANY attacker statistic could extract from the estimates, catching
non-linear residual leakage the correlation metric would miss.

For deterministic policies (baseline, FSS) the joint distribution follows
from the occupancy law exactly (U = U_hat, so I = H(U)). For randomized
policies the joint is estimated by Monte Carlo with plug-in entropy over
the (U, U_hat) histogram — adequate here because both variables live on a
support of at most ~32 values. The samples are drawn and counted as arrays
(:func:`repro.analysis.montecarlo.draw_counts`), and the histogram keeps
the pairs in first-seen order, so the float sums run in sample order.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.montecarlo import draw_blocks, draw_counts
from repro.analysis.occupancy import occupancy_pmf
from repro.core.policies import CoalescingPolicy
from repro.errors import AnalysisError
from repro.rng import RngStream

__all__ = [
    "entropy_bits",
    "mutual_information_bits",
    "occupancy_entropy_bits",
    "empirical_leakage_bits",
]


def entropy_bits(pmf: Dict[object, float]) -> float:
    """Shannon entropy of a pmf given as value -> probability."""
    total = float(sum(pmf.values()))
    if total <= 0:
        raise AnalysisError("pmf has no mass")
    h = 0.0
    for p in pmf.values():
        p = float(p) / total
        if p > 0:
            h -= p * math.log2(p)
    return h


def mutual_information_bits(joint: Dict[Tuple[object, object], float]
                            ) -> float:
    """I(X; Y) from a joint pmf given as (x, y) -> probability."""
    total = float(sum(joint.values()))
    if total <= 0:
        raise AnalysisError("joint pmf has no mass")
    px: Counter = Counter()
    py: Counter = Counter()
    for (x, y), p in joint.items():
        px[x] += p / total
        py[y] += p / total
    mi = 0.0
    for (x, y), p in joint.items():
        p = float(p) / total
        if p > 0:
            mi += p * math.log2(p / (px[x] * py[y]))
    return max(0.0, mi)


def occupancy_entropy_bits(num_threads: int, num_blocks: int) -> float:
    """H(U) for the baseline machine: all leakage is extractable there
    (U_hat = U), so I(U; U_hat) = H(U)."""
    pmf = {i: float(p)
           for i, p in occupancy_pmf(num_threads, num_blocks).items()}
    return entropy_bits(pmf)


def empirical_leakage_bits(
    policy: CoalescingPolicy,
    num_blocks: int,
    num_samples: int,
    rng: RngStream,
    attacker_policy: Optional[CoalescingPolicy] = None,
) -> float:
    """Monte-Carlo I(U; U_hat) for a (possibly randomized) policy.

    Same sampling protocol as
    :func:`repro.analysis.montecarlo.empirical_rho`: victim and attacker
    observe the same thread->block assignment but draw partitions
    independently.
    """
    if num_samples < 10:
        raise AnalysisError("need a meaningful sample count for MI")
    attacker_policy = attacker_policy or policy
    victim_rng = rng.child("mi-victim")
    attacker_rng = rng.child("mi-attacker")
    block_rng = rng.child("mi-blocks")

    blocks = draw_blocks(block_rng, num_blocks, num_samples,
                         policy.warp_size)
    us = draw_counts(policy, blocks, victim_rng)
    u_hats = draw_counts(attacker_policy, blocks, attacker_rng)
    # The (U, U_hat) histogram in first-seen order.
    _, first, times = np.unique(us * (u_hats.max() + 1) + u_hats,
                                return_index=True, return_counts=True)
    order = np.argsort(first)
    joint = {(int(us[i]), int(u_hats[i])): int(n)
             for i, n in zip(first[order], times[order])}
    return mutual_information_bits(joint)
