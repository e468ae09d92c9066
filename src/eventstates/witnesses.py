"""Operational witnesses separating ordered event pairs from independent ones.

Two observable signatures distinguish the record state of a causally ordered
pair from that of two independent measurements:

* the joint record state of an ordered pair retains coherence in the first
  record index, while an independent pair's record state is exactly diagonal;
* an ordered pair's second detection time is conditioned on the first, so the
  two firing times covary, while independent detectors with separable timing
  give exactly zero covariance.

Both witnesses are one-sided: a significant value certifies order, a null
value is merely consistent with independence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .event_states import EventState
from .policy import CHEBYSHEV_SLACK, COHERENCE_FLOOR_BITS, TIME_CORRELATION_FLOOR
from .quantum_core import shannon_entropy
from .timing import JointTimeDistribution

__all__ = [
    "WitnessReport",
    "ChebyshevCheck",
    "VERDICT_SIGNATURE",
    "VERDICT_CLEAR",
    "record_coherence",
    "coherence_witness",
    "conditional_mean_arrival",
    "time_correlation",
    "time_witness",
    "chebyshev_check",
]

VERDICT_SIGNATURE = "causal-signature"
VERDICT_CLEAR = "no-signature"


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one witness evaluation."""

    witness: str
    value: float
    verdict: str


def record_coherence(state: EventState) -> float:
    """Coherence (in bits) the record state carries in the record basis.

    Measured as the entropy gained by dephasing in the joint record basis,
    ``max(H(diag rho) - S(rho), 0)``, with ``S(rho)`` read from the spectrum
    the state's validation found (block by block for ordered pairs), so no
    second eigensolve runs.  Diagonal states score exactly zero;
    timer-register states raise.
    """
    populations = np.clip(np.real(np.diag(state.detector_rho)), 0.0, None)
    return max(shannon_entropy(populations) - shannon_entropy(state._spectrum), 0.0)


def coherence_witness(state: EventState) -> WitnessReport:
    """Flag a record state whose coherence exceeds ``COHERENCE_FLOOR_BITS``.

    Independent pairs build diagonal record states, so any coherence above
    rounding noise certifies that the second event acted on the first
    event's output rather than on an independent system.
    """
    value = record_coherence(state)
    verdict = VERDICT_SIGNATURE if value > COHERENCE_FLOOR_BITS else VERDICT_CLEAR
    return WitnessReport(witness="record-coherence", value=value, verdict=verdict)


def _conditional_offsets(dist: JointTimeDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The first-firing bins with mass, and the mean elapsed second firing time ``dt * l`` given each."""
    pa = dist.marginal_a()
    support = pa > 0.0
    return support, (dist.table[support] @ dist.grid.offsets) / pa[support]


def conditional_mean_arrival(dist: JointTimeDistribution) -> np.ndarray:
    """Mean second firing time conditioned on each first-firing bin.

    Every trigger bin must carry mass; restrict the table to its support
    before calling.
    """
    support, means = _conditional_offsets(dist)
    if not np.all(support):
        empty = np.argmin(support)
        raise ValueError(f"trigger bin {empty} carries no mass; restrict the table to its support")
    return dist.grid.t0 + means


def time_correlation(dist: JointTimeDistribution) -> float:
    """Covariance of the two firing times under the joint table.

    The covariance does not depend on where the clock starts, so it is taken
    over the elapsed times ``dt * k``, centered before accumulating so that
    mass far into the grid does not lose precision to cancellation.
    """
    t = dist.grid.offsets
    pa = dist.marginal_a()
    pb = dist.marginal_b()
    center = 0.5 * float(pa @ t + pb @ t)
    ta = t - center
    mixed = float(ta @ dist.table @ ta)
    return mixed - float(pa @ ta) * float(pb @ ta)


def time_witness(dist: JointTimeDistribution) -> WitnessReport:
    """Flag a joint firing-time table whose covariance clears ``TIME_CORRELATION_FLOOR``.

    Independent detectors with separable timing produce a product table and
    hence zero covariance; conditioning the second firing on the first leaves
    a covariance of definite sign.
    """
    value = time_correlation(dist)
    verdict = VERDICT_SIGNATURE if abs(value) > TIME_CORRELATION_FLOOR else VERDICT_CLEAR
    return WitnessReport(witness="time-correlation", value=value, verdict=verdict)


@dataclass(frozen=True)
class ChebyshevCheck:
    """Consistency check relating conditional means to the covariance sign.

    When the conditional mean of the second time is nondecreasing in the
    first time, the covariance equals Cov(T_a, m(T_a)) with m nondecreasing,
    which is nonnegative for comonotone functions of one variable.
    """

    covariance: float
    monotone: bool
    consistent: bool


def chebyshev_check(dist: JointTimeDistribution) -> ChebyshevCheck:
    """Verify that a monotone conditional mean comes with nonnegative covariance.

    Rows without mass are skipped.  ``consistent`` is True when either the
    conditional mean is not monotone (no constraint applies) or the
    covariance is above ``-CHEBYSHEV_SLACK``.
    """
    means = _conditional_offsets(dist)[1]
    span = dist.grid.dt * (dist.grid.n_bins - 1)
    monotone = bool(means.size < 2 or np.all(np.diff(means) >= -CHEBYSHEV_SLACK * max(span, 1.0)))
    cov = time_correlation(dist)
    consistent = (not monotone) or cov >= -CHEBYSHEV_SLACK
    return ChebyshevCheck(covariance=cov, monotone=monotone, consistent=consistent)
