"""Coalescing policies: the six machine configurations of the paper.

A policy encapsulates one choice along the RCoal design axes and produces,
per warp per kernel launch, the :class:`~repro.core.subwarp.SubwarpPartition`
that the hardware loads into its PRT sid fields:

====================  ===========================  =======================
name                  sizing                       assignment
====================  ===========================  =======================
``baseline``          one subwarp (M = 1)          in order
``nocoal``            one subwarp per thread       in order
``fss``               M equal groups               in order
``fss_rts``           M equal groups               random (RTS)
``rss``               random composition (skewed)  in order
``rss_rts``           random composition (skewed)  random (RTS)
====================  ===========================  =======================

Randomized policies draw fresh sizes/assignments per launch — the paper's
"set at the beginning of the application execution" — from the RNG stream
passed in by the caller, which the encryption server keeps separate from any
attacker stream.

Each policy has one draw implementation, :meth:`CoalescingPolicy.draw_sids`:
``n`` draws as one ``(n, warp_size)`` array of sid rows, consuming the
stream exactly as ``n`` single draws do. FSS+RTS shuffles all rows in one
``Generator.permuted`` call; RSS makes its ``choice`` (and, under RTS,
``permutation``) calls draw by draw, because they interleave on one
stream, and builds the rows with array operations. :meth:`~CoalescingPolicy
.partitions` turns rows into validated :class:`SubwarpPartition` objects,
and :meth:`~CoalescingPolicy.draw` is the partition of a one-row draw.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import in_order_sids, shuffled_sids
from repro.core.sizing import fixed_sizes, normal_sizes, skewed_cuts
from repro.core.subwarp import SubwarpPartition
from repro.errors import ConfigurationError
from repro.rng import RngStream

__all__ = [
    "CoalescingPolicy",
    "BaselinePolicy",
    "NoCoalescingPolicy",
    "FSSPolicy",
    "RSSPolicy",
    "make_policy",
    "POLICY_NAMES",
]


class CoalescingPolicy(ABC):
    """Produces per-launch subwarp partitions for warps."""

    #: Short machine-readable policy name ("fss_rts", ...).
    name: str = "abstract"

    def __init__(self, num_subwarps: int, warp_size: int = 32):
        if not 1 <= num_subwarps <= warp_size:
            raise ConfigurationError(
                f"num_subwarps must be in [1, {warp_size}]: {num_subwarps}"
            )
        self.num_subwarps = num_subwarps
        self.warp_size = warp_size

    @property
    def is_randomized(self) -> bool:
        """True when draws differ between launches (needs an RNG)."""
        return True

    @abstractmethod
    def draw_sids(self, rng: Optional[RngStream], n: int) -> np.ndarray:
        """``n`` draws as ``(n, warp_size)`` int64 sid rows.

        Row ``i`` is the per-thread sid map of the ``i``-th of ``n``
        :meth:`draw` calls, and ``rng`` is left where those calls leave
        it.
        """

    def partitions(self, sids: np.ndarray) -> List[SubwarpPartition]:
        """The validated partition of each sid row (sizes by sid).

        The rows are checked once, as arrays: every sid in ``[0, M)`` and
        every subwarp non-empty. That is all ``SubwarpPartition`` checks
        that sizes counted from the rows could fail, so the partitions
        are then built without its per-lane loop.
        """
        n, m = len(sids), self.num_subwarps
        if sids.size:
            bad = sids[(sids < 0) | (sids >= m)]
            if bad.size:
                raise ConfigurationError(f"invalid subwarp id {bad[0]}")
        sizes = np.bincount((sids + m * np.arange(n)[:, None]).ravel(),
                            minlength=n * m).reshape(n, m)
        empty = np.flatnonzero((sizes <= 0).any(axis=1))
        if empty.size:
            raise ConfigurationError(
                "subwarp sizes must be positive: "
                f"{tuple(sizes[empty[0]].tolist())}")
        return [SubwarpPartition.validated(tuple(size), tuple(row))
                for size, row in zip(sizes.tolist(), sids.tolist())]

    def round_sids(self, sids: np.ndarray,
                   rounds: Sequence[Optional[int]]) -> np.ndarray:
        """Sid rows resolved per AES round: ``(..., 1, warp_size)`` when
        every round uses the drawn map (broadcast over ``rounds``), else
        ``(..., len(rounds), warp_size)``."""
        return sids[..., None, :]

    def draw(self, rng: Optional[RngStream] = None) -> SubwarpPartition:
        """Draw the partition used for one warp in one kernel launch."""
        return self.partitions(self.draw_sids(rng, 1))[0]

    def sid_map(self, rng: Optional[RngStream]) -> Tuple[int, ...]:
        """Convenience: the per-thread sid vector of a fresh draw."""
        return self.draw(rng).assignment

    def describe(self) -> str:
        return f"{self.name}(M={self.num_subwarps})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"


class BaselinePolicy(CoalescingPolicy):
    """The unprotected machine: the whole warp is one subwarp."""

    name = "baseline"

    def __init__(self, num_subwarps: int = 1, warp_size: int = 32):
        if num_subwarps != 1:
            raise ConfigurationError("the baseline has exactly one subwarp")
        super().__init__(1, warp_size)

    @property
    def is_randomized(self) -> bool:
        return False

    def draw_sids(self, rng: Optional[RngStream], n: int) -> np.ndarray:
        return np.zeros((n, self.warp_size), dtype=np.int64)


class NoCoalescingPolicy(CoalescingPolicy):
    """Coalescing disabled: every thread is its own subwarp (Section III)."""

    name = "nocoal"

    def __init__(self, num_subwarps: Optional[int] = None, warp_size: int = 32):
        if num_subwarps is not None and num_subwarps != warp_size:
            raise ConfigurationError(
                "disabling coalescing means one subwarp per thread"
            )
        super().__init__(warp_size, warp_size)

    @property
    def is_randomized(self) -> bool:
        return False

    def draw_sids(self, rng: Optional[RngStream], n: int) -> np.ndarray:
        return np.tile(np.arange(self.warp_size), (n, 1))


class FSSPolicy(CoalescingPolicy):
    """Fixed-sized subwarps, optionally with random threading (RTS)."""

    def __init__(self, num_subwarps: int, warp_size: int = 32,
                 rts: bool = False):
        super().__init__(num_subwarps, warp_size)
        self.rts = rts
        self.name = "fss_rts" if rts else "fss"
        sizes = fixed_sizes(warp_size, num_subwarps)
        #: The in-order sid row of the fixed sizes.
        self._ordered = in_order_sids(np.cumsum(sizes)[None, :-1],
                                      warp_size)[0]

    @property
    def is_randomized(self) -> bool:
        return self.rts

    def draw_sids(self, rng: Optional[RngStream], n: int) -> np.ndarray:
        if not self.rts:
            return np.tile(self._ordered, (n, 1))
        if rng is None:
            raise ConfigurationError("FSS+RTS draws require an RNG stream")
        # One permuted() call shuffles the rows as n permutation() calls.
        permutations = rng.generator.permuted(
            np.broadcast_to(np.arange(self.warp_size), (n, self.warp_size)),
            axis=1)
        return shuffled_sids(self._ordered, permutations)


class RSSPolicy(CoalescingPolicy):
    """Random-sized subwarps, optionally with random threading (RTS)."""

    def __init__(self, num_subwarps: int, warp_size: int = 32,
                 rts: bool = False, distribution: str = "skewed"):
        super().__init__(num_subwarps, warp_size)
        if distribution not in ("skewed", "normal"):
            raise ConfigurationError(
                f"unknown RSS size distribution: {distribution!r}"
            )
        self.rts = rts
        self.distribution = distribution
        self.name = "rss_rts" if rts else "rss"

    def draw_sids(self, rng: Optional[RngStream], n: int) -> np.ndarray:
        if rng is None:
            raise ConfigurationError("RSS draws require an RNG stream")
        warp_size, m = self.warp_size, self.num_subwarps
        bounds = np.empty((n, m - 1), dtype=np.int64)
        permutations = (np.empty((n, warp_size), dtype=np.int64)
                        if self.rts else None)
        # Sizes and RTS permutations interleave on one stream: one pair
        # of calls per draw, in draw order.
        for i in range(n):
            if self.distribution == "skewed":
                bounds[i] = skewed_cuts(warp_size, m, rng)
            else:
                bounds[i] = np.cumsum(
                    normal_sizes(warp_size, m, rng)[:-1])
            if permutations is not None:
                permutations[i] = rng.permutation(warp_size)
        sids = in_order_sids(bounds, warp_size)
        if permutations is None:
            return sids
        return shuffled_sids(sids, permutations)

    def describe(self) -> str:
        return f"{self.name}(M={self.num_subwarps}, {self.distribution})"


#: All policy names accepted by :func:`make_policy`, in paper order.
POLICY_NAMES: Tuple[str, ...] = (
    "baseline", "nocoal", "fss", "fss_rts", "rss", "rss_rts",
)


def make_policy(name: str, num_subwarps: int = 1, warp_size: int = 32,
                **kwargs) -> CoalescingPolicy:
    """Build a policy by name (see module docstring for the table)."""
    factories: Dict[str, object] = {
        "baseline": lambda: BaselinePolicy(warp_size=warp_size),
        "nocoal": lambda: NoCoalescingPolicy(warp_size=warp_size),
        "fss": lambda: FSSPolicy(num_subwarps, warp_size, rts=False),
        "fss_rts": lambda: FSSPolicy(num_subwarps, warp_size, rts=True),
        "rss": lambda: RSSPolicy(num_subwarps, warp_size, rts=False,
                                 **kwargs),
        "rss_rts": lambda: RSSPolicy(num_subwarps, warp_size, rts=True,
                                     **kwargs),
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; expected one of {POLICY_NAMES}"
        ) from None
    return factory()  # type: ignore[operator]
