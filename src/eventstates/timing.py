"""Detection-time amplitudes on uniform grids.

A detector that may fire in any bin of a uniform time grid is described
either by a discrete branching schedule (per-bin firing probabilities and
phases) or by a continuum amplitude profile sampled on the grid.  Marginal
profiles give the firing amplitude of a single detector; conditional
profiles give, per trigger bin ``k``, the amplitude for a second detector
firing at bin ``l >= k``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .policy import PROFILE_NORM_TOL, NumericsError
from .quantum_core import _readonly

__all__ = [
    "TimeGrid",
    "TimingProfile",
    "BranchingSchedule",
    "JointTimeDistribution",
    "exponential_grid",
    "exponential_tail_mass",
    "exponential_profile",
    "exponential_conditional",
    "delta_profile",
    "delta_conditional",
    "branching_amplitude",
    "branching_amplitudes",
    "survival_probability",
    "continuum_limit_check",
    "joint_time_distribution",
]

MARGINAL = "marginal"
CONDITIONAL = "conditional"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_bins points t_k = t0 + k * dt."""

    t0: float
    dt: float
    n_bins: int

    def __post_init__(self):
        if not (self.dt > 0.0) or not math.isfinite(self.dt):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be at least 2, got {self.n_bins}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_bins)

    @property
    def t_end(self) -> float:
        """End of the last bin (grid covers [t0, t_end))."""
        return self.t0 + self.dt * self.n_bins


@dataclass(frozen=True, eq=False)
class TimingProfile:
    """Detection-time amplitudes chi sampled on a grid.

    Marginal profiles hold a vector with sum |chi_k|^2 dt = 1.  Conditional
    profiles hold a matrix whose row k is the amplitude for the second firing
    at bins l >= k, each row normalized the same way; entries below the
    diagonal are exactly zero.
    """

    grid: TimeGrid
    kind: str
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        n = self.grid.n_bins
        if self.kind == MARGINAL:
            if amps.shape != (n,):
                raise ValueError(f"marginal profile needs shape ({n},), got {amps.shape}")
            mass = float(np.sum(np.abs(amps) ** 2) * self.grid.dt)
            if abs(mass - 1.0) > PROFILE_NORM_TOL:
                raise NumericsError(f"marginal profile not normalized: mass {mass:.8f}")
        elif self.kind == CONDITIONAL:
            if amps.shape != (n, n):
                raise ValueError(f"conditional profile needs shape ({n}, {n}), got {amps.shape}")
            if np.any(amps[np.tril_indices(n, k=-1)] != 0.0):
                raise NumericsError("conditional profile must be exactly zero below the diagonal")
            masses = np.sum(np.abs(amps) ** 2, axis=1) * self.grid.dt
            worst = float(np.max(np.abs(masses - 1.0)))
            if worst > PROFILE_NORM_TOL:
                raise NumericsError(f"conditional profile rows not normalized: defect {worst:.3e}")
        else:
            raise ValueError(f"kind must be {MARGINAL!r} or {CONDITIONAL!r}, got {self.kind!r}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("profile amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _readonly(amps))


@dataclass(frozen=True, eq=False)
class BranchingSchedule:
    """Per-bin firing probabilities delta-p_k and phases phi_k."""

    grid: TimeGrid
    step_probs: np.ndarray
    step_phases: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.step_probs, dtype=float)
        phases = np.asarray(self.step_phases, dtype=float)
        n = self.grid.n_bins
        if probs.shape != (n,) or phases.shape != (n,):
            raise ValueError(f"schedule arrays need shape ({n},)")
        if np.any(probs < 0.0) or np.any(probs >= 1.0):
            raise ValueError("step probabilities must lie in [0, 1)")
        if not np.all(np.isfinite(phases)):
            raise ValueError("step phases must be finite")
        if np.any(probs > 0.1):
            warnings.warn(
                "branching step probabilities exceed 0.1; the continuum reading is coarse",
                stacklevel=2,
            )
        object.__setattr__(self, "step_probs", _readonly(probs))
        object.__setattr__(self, "step_phases", _readonly(phases))

    @classmethod
    def constant(cls, grid: TimeGrid, step_prob: float, step_phase: float = 0.0) -> "BranchingSchedule":
        return cls(
            grid=grid,
            step_probs=np.full(grid.n_bins, step_prob),
            step_phases=np.full(grid.n_bins, step_phase),
        )


def exponential_grid(gamma: float, dt: float, *, tail_mass: float = 1e-6, t0: float = 0.0) -> TimeGrid:
    """Grid for an exponential-decay profile, sized so the untruncated tail
    mass beyond the grid end is at most ``tail_mass``."""
    if gamma <= 0.0:
        raise ValueError(f"decay rate must be positive, got {gamma}")
    if not (0.0 < tail_mass < 1.0):
        raise ValueError("tail_mass must lie in (0, 1)")
    n = max(2, int(math.ceil(math.log(1.0 / tail_mass) / (gamma * dt))))
    return TimeGrid(t0=t0, dt=dt, n_bins=n)


def exponential_tail_mass(gamma: float, grid: TimeGrid) -> float:
    """Probability mass of the exponential law beyond the end of the grid."""
    return math.exp(-gamma * (grid.t_end - grid.t0))


def _warn_if_coarse(gamma: float, dt: float) -> None:
    if gamma * dt > 0.1:
        warnings.warn(
            f"gamma * dt = {gamma * dt:.3g} > 0.1; grid is coarse for this decay rate",
            stacklevel=3,
        )


def exponential_profile(gamma: float, grid: TimeGrid) -> TimingProfile:
    """Marginal profile chi(t) = sqrt(gamma) exp(-gamma (t - t0) / 2), renormalized on the grid."""
    if gamma <= 0.0:
        raise ValueError(f"decay rate must be positive, got {gamma}")
    _warn_if_coarse(gamma, grid.dt)
    tail = exponential_tail_mass(gamma, grid)
    if tail > PROFILE_NORM_TOL:
        warnings.warn(
            f"grid truncates {tail:.3g} of the decay mass; extend the grid for accuracy",
            stacklevel=2,
        )
    amps = np.sqrt(gamma) * np.exp(-0.5 * gamma * (grid.times - grid.t0))
    mass = float(np.sum(np.abs(amps) ** 2) * grid.dt)
    amps = amps / math.sqrt(mass)
    return TimingProfile(grid=grid, kind=MARGINAL, amplitudes=amps.astype(complex))


def exponential_conditional(gamma: float, grid: TimeGrid) -> TimingProfile:
    """Conditional profile restarting an exponential decay at the trigger bin.

    Row k holds chi(t_l | t_k) = sqrt(gamma) exp(-gamma (t_l - t_k) / 2) for
    l >= k, renormalized over the remaining window.
    """
    if gamma <= 0.0:
        raise ValueError(f"decay rate must be positive, got {gamma}")
    _warn_if_coarse(gamma, grid.dt)
    t = grid.times
    lag = t[None, :] - t[:, None]
    amps = np.where(lag >= 0.0, np.sqrt(gamma) * np.exp(-0.5 * gamma * np.clip(lag, 0.0, None)), 0.0)
    masses = np.sum(np.abs(amps) ** 2, axis=1, keepdims=True) * grid.dt
    amps = amps / np.sqrt(masses)
    return TimingProfile(grid=grid, kind=CONDITIONAL, amplitudes=amps.astype(complex))


def delta_profile(grid: TimeGrid, bin_index: int) -> TimingProfile:
    """Marginal profile with all mass in a single bin."""
    if not (0 <= bin_index < grid.n_bins):
        raise ValueError(f"bin index {bin_index} outside grid of {grid.n_bins} bins")
    amps = np.zeros(grid.n_bins, dtype=complex)
    amps[bin_index] = 1.0 / math.sqrt(grid.dt)
    return TimingProfile(grid=grid, kind=MARGINAL, amplitudes=amps)


def delta_conditional(grid: TimeGrid, lag_bins: int) -> TimingProfile:
    """Conditional profile firing exactly ``lag_bins`` after the trigger.

    Rows whose target would fall past the grid clip to the last bin.
    """
    if lag_bins < 0:
        raise ValueError(f"lag must be nonnegative, got {lag_bins}")
    n = grid.n_bins
    amps = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    cols = np.minimum(rows + lag_bins, n - 1)
    amps[rows, cols] = 1.0 / math.sqrt(grid.dt)
    return TimingProfile(grid=grid, kind=CONDITIONAL, amplitudes=amps)


def branching_amplitudes(schedule: BranchingSchedule) -> np.ndarray:
    """Firing amplitudes for every bin of a branching schedule.

    Bin k carries sqrt(dp_k) times the survival amplitude
    prod_{l<k} sqrt(1 - dp_l) exp(i phi_l); the squared amplitudes plus the
    never-fired probability telescope to exactly 1.
    """
    dp = schedule.step_probs
    survive = np.sqrt(1.0 - dp) * np.exp(1j * schedule.step_phases)
    prefix = np.concatenate([[1.0 + 0.0j], np.cumprod(survive)[:-1]])
    return np.sqrt(dp) * prefix


def branching_amplitude(schedule: BranchingSchedule, k: int) -> complex:
    """Firing amplitude for bin k alone."""
    if not (0 <= k < schedule.grid.n_bins):
        raise ValueError(f"bin index {k} outside grid of {schedule.grid.n_bins} bins")
    return complex(branching_amplitudes(schedule)[k])


def survival_probability(schedule: BranchingSchedule) -> float:
    """Probability the detector never fires within the grid."""
    return float(np.prod(1.0 - schedule.step_probs))


def continuum_limit_check(schedule: BranchingSchedule, profile: TimingProfile) -> float:
    """Worst relative error between |amplitude_k|^2 / dt and |chi(t_k)|^2.

    Only early bins are compared (those before 99% of the schedule's mass has
    fired) since late bins carry negligible probability either way.  Returns
    0.0 when no bin qualifies.
    """
    if profile.kind != MARGINAL:
        raise ValueError("continuum comparison needs a marginal profile")
    if profile.grid != schedule.grid:
        raise ValueError("schedule and profile grids differ")
    q = np.abs(branching_amplitudes(schedule)) ** 2
    dens = np.abs(profile.amplitudes) ** 2
    mask = (np.cumsum(q) < 0.99) & (dens > 0.0)
    if not np.any(mask):
        return 0.0
    rel = np.abs(q[mask] / schedule.grid.dt - dens[mask]) / dens[mask]
    return float(np.max(rel))


@dataclass(frozen=True, eq=False)
class JointTimeDistribution:
    """Joint probability table p(k, l) for the two detection times."""

    grid: TimeGrid
    kind: str
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        n = self.grid.n_bins
        if table.shape != (n, n):
            raise ValueError(f"table needs shape ({n}, {n}), got {table.shape}")
        if np.any(table < 0.0):
            raise NumericsError("joint time table has negative mass")
        total = float(table.sum())
        if abs(total - 1.0) > PROFILE_NORM_TOL:
            raise NumericsError(f"joint time table not normalized: total {total:.8f}")
        if self.kind not in ("SL", "TL"):
            raise ValueError(f"kind must be 'SL' or 'TL', got {self.kind!r}")
        if self.kind == "TL" and np.any(table[np.tril_indices(n, k=-1)] != 0.0):
            raise NumericsError("ordered table must be exactly zero below the diagonal")
        object.__setattr__(self, "table", _readonly(table))

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def marginal_a(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.table.sum(axis=0)


def joint_time_distribution(
    profile_a: TimingProfile, profile_b: TimingProfile, kind: str
) -> JointTimeDistribution:
    """Joint detection-time table from two profiles.

    ``kind="SL"`` takes two independent marginals; ``kind="TL"`` takes the
    first detector's marginal and the second's conditional rows.
    """
    if profile_a.kind != MARGINAL:
        raise ValueError("first profile must be marginal")
    if profile_a.grid != profile_b.grid:
        raise ValueError("profiles live on different grids")
    dt = profile_a.grid.dt
    pa = np.abs(profile_a.amplitudes) ** 2 * dt
    if kind == "SL":
        if profile_b.kind != MARGINAL:
            raise ValueError("independent events need a marginal second profile")
        pb = np.abs(profile_b.amplitudes) ** 2 * dt
        table = np.outer(pa, pb)
    elif kind == "TL":
        if profile_b.kind != CONDITIONAL:
            raise ValueError("ordered events need a conditional second profile")
        pb = np.abs(profile_b.amplitudes) ** 2 * dt
        table = pa[:, None] * pb
    else:
        raise ValueError(f"kind must be 'SL' or 'TL', got {kind!r}")
    return JointTimeDistribution(grid=profile_a.grid, kind=kind, table=table)
