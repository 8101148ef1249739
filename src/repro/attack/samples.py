"""Samples-to-success estimation (Equation 4).

How many timing samples does a correlation attack need to succeed with
probability ``alpha``, given the achievable correlation ``rho``? The paper
follows Mangard's derivation:

    S = 3 + 8 * (Z_alpha / ln((1 + rho) / (1 - rho)))^2  ~=  2 Z_alpha^2 / rho^2

With alpha = 0.99, ``2 Z^2`` is ~10.8 ("approximately 11" in the paper).
"""

from __future__ import annotations

import math
from statistics import NormalDist

from repro.errors import AnalysisError

__all__ = ["z_quantile", "samples_needed", "samples_needed_exact"]


def z_quantile(alpha: float) -> float:
    """Standard-normal quantile of the attack success probability."""
    if not 0.0 < alpha < 1.0:
        raise AnalysisError(f"alpha must be in (0, 1): {alpha}")
    return NormalDist().inv_cdf(alpha)


def samples_needed(rho: float, alpha: float = 0.99) -> float:
    """The approximation 2 * Z_alpha^2 / rho^2 (right side of Eq 4)."""
    if not -1.0 <= rho <= 1.0:
        raise AnalysisError(f"correlation must be in [-1, 1]: {rho}")
    if rho == 0.0:
        return math.inf
    z = z_quantile(alpha)
    return 2.0 * z * z / (rho * rho)


def samples_needed_exact(rho: float, alpha: float = 0.99) -> float:
    """The full Fisher-transform expression (left side of Eq 4)."""
    if not -1.0 <= rho <= 1.0:
        raise AnalysisError(f"correlation must be in [-1, 1]: {rho}")
    if abs(rho) >= 1.0:
        return 3.0  # perfect correlation: the minimum the formula allows
    if rho == 0.0:
        return math.inf
    z = z_quantile(alpha)
    fisher = math.log((1.0 + rho) / (1.0 - rho))
    return 3.0 + 8.0 * (z / fisher) ** 2
