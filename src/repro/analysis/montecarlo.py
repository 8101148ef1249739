"""Monte-Carlo estimation of the attack correlation rho.

Validates the closed forms of :mod:`repro.analysis.model` and covers
configurations the paper leaves analytically open (standalone RSS, non-
power-of-two M, partial warps). Per sample:

1. draw a uniform thread→block assignment (random plaintext model: each of
   N threads hits one of R memory blocks with probability 1/R);
2. the **victim** draws a partition from the defense policy and counts
   distinct (subwarp, block) pairs → U;
3. the **attacker**, knowing the thread→block assignment (correct key
   guess) but not the victim's private draw, draws their own partition from
   the same policy → U_hat;

then rho is the sample Pearson correlation of U and U_hat.

The samples are arrays: one bulk block draw ``(samples, N)``, one
:meth:`~repro.core.policies.CoalescingPolicy.draw_sids` per side, and one
:func:`~repro.core.subwarp.access_counts` per side. Each stream is
consumed exactly as the per-sample draws would consume it (bulk bounded
integers equal per-row calls; ``draw_sids`` equals ``n`` draws), so the
estimates equal the per-sample loop's bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attack.correlation import pearson
from repro.core.policies import CoalescingPolicy
from repro.core.subwarp import access_counts
from repro.errors import AnalysisError
from repro.rng import RngStream

__all__ = ["empirical_rho", "empirical_access_moments", "draw_blocks",
           "draw_counts"]


def draw_blocks(rng: RngStream, num_blocks: int, num_samples: int,
                num_threads: int) -> np.ndarray:
    """The uniform thread->block assignments of ``num_samples`` samples,
    ``(num_samples, num_threads)``: one bulk draw, equal to one
    ``integers`` call per sample."""
    if not 1 <= num_blocks <= 256:
        raise AnalysisError(f"num_blocks must be in [1, 256]: {num_blocks}")
    return rng.integers(0, num_blocks, size=(num_samples, num_threads))


def draw_counts(policy: CoalescingPolicy, blocks: np.ndarray,
                rng: RngStream) -> np.ndarray:
    """U per sample: ``len(blocks)`` draws of ``policy`` from ``rng``,
    each counting the distinct (subwarp, block) pairs of its row of
    ``blocks``."""
    return access_counts(blocks.astype(np.uint16),
                         policy.draw_sids(rng, len(blocks)))


def empirical_rho(
    policy: CoalescingPolicy,
    num_blocks: int,
    num_samples: int,
    rng: RngStream,
    attacker_policy: Optional[CoalescingPolicy] = None,
) -> float:
    """Monte-Carlo rho between victim counts and attacker estimates.

    ``attacker_policy`` defaults to the same mechanism (the paper's
    corresponding attack); pass a different one to model a mismatched
    attacker (e.g. the baseline attack against an FSS machine).
    """
    if num_samples < 2:
        raise AnalysisError("need at least two samples for a correlation")
    attacker_policy = attacker_policy or policy
    victim_rng = rng.child("mc-victim")
    attacker_rng = rng.child("mc-attacker")
    block_rng = rng.child("mc-blocks")

    blocks = draw_blocks(block_rng, num_blocks, num_samples,
                         policy.warp_size)
    us = draw_counts(policy, blocks, victim_rng).astype(np.float64)
    u_hats = draw_counts(attacker_policy, blocks,
                         attacker_rng).astype(np.float64)
    return pearson(us, u_hats)


def empirical_access_moments(
    policy: CoalescingPolicy,
    num_blocks: int,
    num_samples: int,
    rng: RngStream,
):
    """Monte-Carlo (mean, variance) of the per-warp access count U."""
    if num_samples < 2:
        raise AnalysisError("need at least two samples for moments")
    victim_rng = rng.child("mc-victim")
    block_rng = rng.child("mc-blocks")
    blocks = draw_blocks(block_rng, num_blocks, num_samples,
                         policy.warp_size)
    us = draw_counts(policy, blocks, victim_rng).astype(np.float64)
    return float(us.mean()), float(us.var(ddof=1))
