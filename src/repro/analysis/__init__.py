"""Section V: the information-theoretical security analysis.

Computes, in exact rational arithmetic, the correlation ``rho`` between the
victim's coalesced-access counts and the strongest corresponding attacker's
estimates, and from it the normalized number of samples ``S`` needed for a
successful attack (Table II).

The paper's Equation 6 sums over all frequency vectors, which is infeasible
to enumerate (R^N mappings; C(N+R-1, R-1) ~ 1.6e12 frequency vectors for
N=32, R=16). We instead exploit that every per-frequency quantity decomposes
as a sum of one function per memory block and marginalize analytically with
binomial / pairwise-multinomial marginals (see DESIGN.md Section 5), giving
exact Table II values in milliseconds. A Monte-Carlo estimator cross-checks
the closed forms and covers standalone RSS, which the paper also evaluates
only empirically.
"""

from repro.analysis.combinatorics import (
    binomial,
    composition_pair_pmf,
    composition_part_pmf,
    multinomial_pair_pmf,
    multinomial_single_pmf,
    num_compositions,
    stirling2,
)
from repro.analysis.occupancy import (
    occupancy_mean,
    occupancy_pmf,
    occupancy_variance,
)
from repro.analysis.model import (
    rho_fss,
    rho_fss_rts,
    rho_rss_rts,
)
from repro.analysis.leakage import (
    empirical_leakage_bits,
    entropy_bits,
    mutual_information_bits,
    occupancy_entropy_bits,
)
from repro.analysis.montecarlo import empirical_rho
from repro.analysis.security import (
    SecurityRow,
    normalized_samples,
    security_table,
)

__all__ = [
    "stirling2",
    "binomial",
    "num_compositions",
    "composition_part_pmf",
    "composition_pair_pmf",
    "multinomial_single_pmf",
    "multinomial_pair_pmf",
    "occupancy_pmf",
    "occupancy_mean",
    "occupancy_variance",
    "rho_fss",
    "rho_fss_rts",
    "rho_rss_rts",
    "empirical_rho",
    "entropy_bits",
    "mutual_information_bits",
    "occupancy_entropy_bits",
    "empirical_leakage_bits",
    "SecurityRow",
    "security_table",
    "normalized_samples",
]
