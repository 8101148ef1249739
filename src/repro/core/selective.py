"""Selective RCoal: randomize only the vulnerable rounds (Section VII).

The paper's first future-work direction: full RCoal randomizes coalescing
for the entire kernel, paying the subwarp overhead on all ten AES rounds
even though the attack reads only the last round. With software identifying
the vulnerable code and hardware able to swap the PRT's sid table between
rounds, the defense can run the efficient single-subwarp mapping everywhere
except the protected rounds.

:class:`SelectiveRCoalPolicy` wraps any base policy and a set of protected
round indices; its draws produce :class:`SelectivePartition` objects whose
``assignment`` is a :class:`~repro.gpu.engine.RoundAwareSidMap` the engine
resolves per instruction. The ablation experiment
(:mod:`repro.experiments.ablation_selective`) quantifies the recovered
performance at unchanged last-round security.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence

import numpy as np

from repro.aes.key_schedule import NUM_ROUNDS
from repro.core.policies import CoalescingPolicy
from repro.core.subwarp import SubwarpPartition
from repro.errors import ConfigurationError
from repro.gpu.engine import RoundAwareSidMap
from repro.rng import RngStream

__all__ = ["SelectivePartition", "SelectiveRCoalPolicy"]


@dataclass(frozen=True)
class SelectivePartition:
    """A per-launch draw of a selective policy.

    ``protected`` applies during the protected rounds; ``unprotected``
    (the baseline single-subwarp mapping) everywhere else, including
    instructions outside round windows.
    """

    protected: SubwarpPartition
    unprotected: SubwarpPartition
    protected_rounds: FrozenSet[int]

    @property
    def assignment(self) -> RoundAwareSidMap:
        """Engine-consumable sid map (resolved per instruction round)."""
        return RoundAwareSidMap(
            per_round={r: self.protected.assignment
                       for r in self.protected_rounds},
            default=self.unprotected.assignment,
        )

    def assignment_for_round(self, round_index: Optional[int]):
        if round_index in self.protected_rounds:
            return self.protected.assignment
        return self.unprotected.assignment

    @property
    def sizes(self):
        """Sizes of the protected draw (the security-relevant grouping)."""
        return self.protected.sizes


class SelectiveRCoalPolicy(CoalescingPolicy):
    """Apply a base RCoal policy only during the protected rounds.

    Parameters
    ----------
    base:
        Any coalescing policy (FSS/RSS, with or without RTS).
    protected_rounds:
        AES round indices to protect; defaults to the last round only —
        the round the correlation attack reads (Section II-C).
    """

    def __init__(self, base: CoalescingPolicy,
                 protected_rounds: Iterable[int] = (NUM_ROUNDS,)):
        super().__init__(base.num_subwarps, base.warp_size)
        rounds = frozenset(int(r) for r in protected_rounds)
        if not rounds:
            raise ConfigurationError(
                "selective RCoal needs at least one protected round"
            )
        if any(not 1 <= r <= NUM_ROUNDS for r in rounds):
            raise ConfigurationError(
                f"protected rounds must lie in [1, {NUM_ROUNDS}]: "
                f"{sorted(rounds)}"
            )
        self.base = base
        self.protected_rounds = rounds
        self.name = f"selective_{base.name}"

    @property
    def is_randomized(self) -> bool:
        return self.base.is_randomized

    def draw_sids(self, rng: Optional[RngStream], n: int) -> np.ndarray:
        """The base policy's rows: the protected rounds' maps."""
        return self.base.draw_sids(rng, n)

    def partitions(self, sids: np.ndarray) -> List[SelectivePartition]:
        return [SelectivePartition(
                    protected=protected,
                    unprotected=SubwarpPartition.single(self.warp_size),
                    protected_rounds=self.protected_rounds)
                for protected in self.base.partitions(sids)]

    def round_sids(self, sids: np.ndarray,
                   rounds: Sequence[Optional[int]]) -> np.ndarray:
        """The drawn rows in protected rounds, one subwarp (all zeros)
        elsewhere, as :meth:`SelectivePartition.assignment_for_round`."""
        resolved = np.zeros(sids.shape[:-1] + (len(rounds), sids.shape[-1]),
                            dtype=sids.dtype)
        resolved[..., [r in self.protected_rounds for r in rounds], :] = \
            sids[..., None, :]
        return resolved

    def describe(self) -> str:
        rounds = ",".join(str(r) for r in sorted(self.protected_rounds))
        return f"{self.name}(M={self.num_subwarps}, rounds={rounds})"
