"""Shared numeric tolerances, error types, and how messages quote counts.

Every validation step in the package reads its thresholds from the module
constants below, so each tolerance is stated once.  The values match the
contracts asserted by the test suite.
"""

from __future__ import annotations

from decimal import Context, Decimal

__all__ = ["NumericsError", "ScenarioError"]


class ScenarioError(ValueError):
    """A scenario, file, or argument failed structural validation."""


class NumericsError(ValueError):
    """A numerical invariant (normalization, unitarity, positivity) failed."""


def _integral_text(value: int | float) -> str:
    """``value`` as a message quotes it: whole up to 12 digits, to 12 significant ones beyond ("1e+308")."""
    if abs(value) < 10**12:
        return str(value)
    return format(Decimal(int(value)).normalize(Context(prec=12)), "g")


# Density-matrix validation: max Hermiticity defect, trace defect, and the
# most negative eigenvalue tolerated (values in [-PSD_TOL, 0) add nothing
# to entropies, which skip weights at or below zero).
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
# State-vector norm, basis orthonormality, and unitarity defects.
KET_NORM_TOL = 1e-10
ORTHO_TOL = 1e-10
UNITARY_TOL = 1e-10
# Normalization defect allowed for detection-time distributions.
PROFILE_NORM_TOL = 1e-6
# Record coherence above this many bits counts as a causal signature.
COHERENCE_FLOOR_BITS = 1e-9
# Detection-time covariance above this counts as a causal signature.
TIME_CORRELATION_FLOOR = 1e-8
# Conditional blocks with less probability mass than this are reported as
# absent outcomes rather than normalized.
EMPTY_BLOCK_FLOOR = 1e-12
# Largest eigenvalue of a normalized conditional block must be within this
# of 1 for the block to count as pure.
PURE_BLOCK_TOL = 1e-10
# Conditional states whose pairwise overlaps all fall below this count as
# perfectly distinguishable.
DETERMINISM_TOL = 1e-8
# Eigenvalues at or below this count as zero (pure decompositions, pseudo-inverses).
EIGENVALUE_FLOOR = 1e-14
# A conditional ket's phase is fixed on its first entry above this magnitude.
PHASE_SUPPORT_FLOOR = 1e-12
# Two-hypothesis priors must sum to 1 within this.
PRIOR_SUM_TOL = 1e-9
# Slack on the Tsirelson bound and on the Chebyshev covariance-sign check.
TSIRELSON_SLACK = 1e-9
CHEBYSHEV_SLACK = 1e-9
# Most bins (grid size or delta lag) a scenario file may ask for; a
# conditional profile holds n_bins^2 complex amplitudes.
MAX_GRID_BINS = 4096
# Most bins of a constant branching schedule (``BranchingSchedule.constant``,
# which ``eventstates demo decay`` and ``scripts/decay_convergence.py`` build);
# the default demo uses 13,816, and a run at the bound takes about 1 s and
# 165 MB peak RSS.
MAX_BRANCHING_BINS = 1_000_000
