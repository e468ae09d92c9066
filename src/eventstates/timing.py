"""Detection-time amplitudes on uniform grids.

A detector that may fire in any bin of a uniform time grid is described
either by a discrete branching schedule (per-bin firing probabilities and
phases) or by a continuum amplitude profile sampled on the grid.  Marginal
profiles give the firing amplitude of a single detector; conditional
profiles give, per trigger bin ``k``, the amplitude for a second detector
firing at bin ``l >= k``.  ``EventTiming`` pairs two profiles (or holds a
joint amplitude table) for a scenario; its ``kind`` is the causal
arrangement they describe, and its cell amplitudes and masses are the one
measure every builder and time table reads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .policy import MAX_BRANCHING_BINS, PROFILE_NORM_TOL, NumericsError, ScenarioError, _integral_text
from .policy import _check_arrangement, _check_integer, _check_positive, _check_real
from .quantum_core import _readonly

__all__ = [
    "TimeGrid",
    "TimingProfile",
    "BranchingSchedule",
    "JointTimeDistribution",
    "EventTiming",
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
        if not (_check_real(self.dt, "dt") > 0.0) or not math.isfinite(self.dt):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(_check_real(self.t0, "t0")):
            raise ValueError("t0 must be finite")
        _check_integer(self.n_bins, "n_bins")
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be at least 2, got {self.n_bins}")
        if not math.isfinite(self.t_end):
            raise ValueError("grid end t0 + dt * n_bins must be finite")

    @property
    def offsets(self) -> np.ndarray:
        """Elapsed time dt * k of each bin since t0, exact however large t0 is.

        Lags and in-flight times come from here, not from ``times``.
        """
        return self.dt * np.arange(self.n_bins)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.offsets

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
    diagonal are exactly zero.  Input within ``PROFILE_NORM_TOL`` of unit
    mass is accepted and stored rescaled to exact unit mass (the whole
    vector, or each row), so every reader sees the same normalized masses.

    Amplitudes keep their kind: complex input is stored as complex128 and
    any other input (the exponential and delta profiles are real) as
    float64, so a real n x n profile costs half a complex one.
    """

    grid: TimeGrid
    kind: str
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        amps = amps.astype(complex if np.iscomplexobj(amps) else float, copy=False)
        n = self.grid.n_bins
        if self.kind not in (MARGINAL, CONDITIONAL):
            raise ValueError(f"kind must be {MARGINAL!r} or {CONDITIONAL!r}, got {self.kind!r}")
        shape = (n,) if self.kind == MARGINAL else (n, n)
        if amps.shape != shape:
            raise ValueError(f"{self.kind} profile needs shape {shape}, got {amps.shape}")
        if self.kind == CONDITIONAL and np.any(amps, where=np.tri(n, k=-1, dtype=bool)):
            raise NumericsError("conditional profile must be exactly zero below the diagonal")
        # One mass for a marginal, one per row for a conditional profile,
        # summed from a single real temporary.
        sq = np.abs(amps)
        mass = np.sum(np.square(sq, out=sq), axis=-1, keepdims=True) * self.grid.dt
        del sq
        worst = float(np.max(np.abs(mass - 1.0)))
        if worst > PROFILE_NORM_TOL and self.kind == MARGINAL:
            raise NumericsError(f"marginal profile not normalized: mass {mass[0]:.8f}")
        if worst > PROFILE_NORM_TOL:
            raise NumericsError(f"conditional profile rows not normalized: defect {worst:.3e}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("profile amplitudes must be finite")
        # The rescaled copy is the stored one (no second copy of n x n rows).
        # Complex division by a real scale multiplies by its reciprocal, so
        # doing the same here scales a real profile exactly like its complex twin.
        amps = amps * (1.0 / np.sqrt(mass))
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


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
        if not np.all((probs >= 0.0) & (probs < 1.0)):  # NaN fails both comparisons
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
    def constant(cls, grid: TimeGrid, step_prob: float) -> "BranchingSchedule":
        """The same step probability in every bin, with zero phases; at most ``MAX_BRANCHING_BINS`` bins."""
        if grid.n_bins > MAX_BRANCHING_BINS:
            bins = _integral_text(grid.n_bins)
            raise ValueError(f"the branching grid needs {bins} bins; the bound is {MAX_BRANCHING_BINS}")
        return cls(
            grid=grid,
            step_probs=np.full(grid.n_bins, step_prob),
            step_phases=np.zeros(grid.n_bins),
        )


def exponential_grid(gamma: float, dt: float, *, tail_mass: float = 1e-6) -> TimeGrid:
    """Grid from t0 = 0 for an exponential-decay profile, sized so the
    untruncated tail mass beyond the grid end is at most ``tail_mass``."""
    gamma, dt = _check_positive(gamma, "decay rate"), _check_positive(dt, "dt")
    if not (0.0 < tail_mass < 1.0):
        raise ValueError("tail_mass must lie in (0, 1)")
    rate = gamma * dt
    steps = math.log(1.0 / tail_mass) / rate if rate != 0.0 else math.inf
    if not math.isfinite(steps):
        raise ValueError(f"gamma * dt = {rate:.3g} needs more bins than a float can count")
    return TimeGrid(t0=0.0, dt=dt, n_bins=max(2, math.ceil(steps)))


def exponential_tail_mass(gamma: float, grid: TimeGrid) -> float:
    """Probability mass of the exponential law beyond the end of the grid."""
    gamma = _check_positive(gamma, "decay rate")
    return math.exp(-gamma * (grid.dt * grid.n_bins))


def _decay(gamma: float, grid: TimeGrid) -> np.ndarray:
    """sqrt(gamma) exp(-gamma tau / 2) at the elapsed times tau = dt * k of the grid, for a checked rate."""
    if gamma * grid.dt > 0.1:
        warnings.warn(
            f"gamma * dt = {gamma * grid.dt:.3g} > 0.1; grid is coarse for this decay rate",
            stacklevel=3,
        )
    return np.sqrt(gamma) * np.exp(-0.5 * gamma * grid.offsets)


def exponential_profile(gamma: float, grid: TimeGrid) -> TimingProfile:
    """Marginal profile chi(t) = sqrt(gamma) exp(-gamma (t - t0) / 2), renormalized on the grid."""
    tail = exponential_tail_mass(gamma, grid)  # checks the rate _decay takes as checked
    amps = _decay(gamma, grid)
    if tail > PROFILE_NORM_TOL:
        warnings.warn(
            f"grid truncates {tail:.3g} of the decay mass; extend the grid for accuracy",
            stacklevel=2,
        )
    mass = float(np.sum(amps**2) * grid.dt)
    return TimingProfile(grid=grid, kind=MARGINAL, amplitudes=amps / math.sqrt(mass))


def exponential_conditional(gamma: float, grid: TimeGrid) -> TimingProfile:
    """Conditional profile restarting an exponential decay at the trigger bin.

    Row k holds chi(t_l | t_k) = sqrt(gamma) exp(-gamma (t_l - t_k) / 2) for
    l >= k, renormalized over the remaining window.
    """
    n = grid.n_bins
    decay = _decay(_check_positive(gamma, "decay rate"), grid)
    # lagged[k, l] = decay[l - k] for l >= k and 0 below (a view, no copy);
    # row k's window holds the first n - k lags.
    lagged = sliding_window_view(np.concatenate([np.zeros(n - 1), decay]), n)[::-1]
    norms = np.sqrt(np.cumsum(decay**2)[::-1] * grid.dt)
    return TimingProfile(grid=grid, kind=CONDITIONAL, amplitudes=lagged / norms[:, None])


def delta_profile(grid: TimeGrid, bin_index: int) -> TimingProfile:
    """Marginal profile with all mass in a single bin."""
    bin_index = _check_integer(bin_index, "bin index")
    if not (0 <= bin_index < grid.n_bins):
        raise ValueError(f"bin index {bin_index} outside grid of {grid.n_bins} bins")
    amps = np.zeros(grid.n_bins)
    amps[bin_index] = 1.0 / math.sqrt(grid.dt)
    return TimingProfile(grid=grid, kind=MARGINAL, amplitudes=amps)


def delta_conditional(grid: TimeGrid, lag_bins: int) -> TimingProfile:
    """Conditional profile firing exactly ``lag_bins`` after the trigger.

    Rows whose target would fall past the grid clip to the last bin.
    """
    lag_bins = _check_integer(lag_bins, "lag")
    if lag_bins < 0:
        raise ValueError(f"lag must be nonnegative, got {lag_bins}")
    n = grid.n_bins
    amps = np.zeros((n, n))
    rows = np.arange(n)
    cols = np.minimum(rows + min(lag_bins, n - 1), n - 1)
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
    k = _check_integer(k, "bin index")
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
        if not abs(total - 1.0) <= PROFILE_NORM_TOL:  # a NaN total fails too
            raise NumericsError(f"joint time table not normalized: total {total:.8f}")
        _check_arrangement(self.kind)
        if self.kind == "TL" and np.any(table, where=np.tri(n, k=-1, dtype=bool)):
            raise NumericsError("ordered table must be exactly zero below the diagonal")
        object.__setattr__(self, "table", _readonly(table))

    def marginal_a(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.table.sum(axis=0)


@dataclass(frozen=True, eq=False)
class EventTiming:
    """Detection-time model for a scenario.

    Either two profiles (first marginal; second marginal for independent
    events, conditional for ordered ones), or a raw joint amplitude table on
    a grid for independent events whose detection times are correlated.  A
    joint table is renormalized so its cell masses |chi dt|^2 sum to 1.
    """

    profile_a: TimingProfile | None = None
    profile_b: TimingProfile | None = None
    joint_amplitudes: np.ndarray | None = None
    joint_grid: TimeGrid | None = None

    def __post_init__(self):
        if self.joint_amplitudes is not None:
            if self.profile_a is not None or self.profile_b is not None:
                raise ScenarioError("give either two profiles or a joint table, not both")
            if self.joint_grid is None:
                raise ScenarioError("a joint amplitude table needs a grid")
            n = self.joint_grid.n_bins
            amps = np.asarray(self.joint_amplitudes, dtype=complex)
            if amps.shape != (n, n):
                raise ScenarioError(f"joint table needs shape ({n}, {n}), got {amps.shape}")
            if not np.all(np.isfinite(amps)):
                raise ScenarioError("joint table has non-finite entries")
            mass = float(np.sum(np.abs(amps) ** 2) * self.joint_grid.dt**2)
            if mass <= 0.0:
                raise NumericsError("joint amplitude table carries no mass")
            amps = amps / np.sqrt(mass)
            amps.setflags(write=False)
            object.__setattr__(self, "joint_amplitudes", amps)
            return
        if self.profile_a is None or self.profile_b is None:
            raise ScenarioError("timing needs both profiles (or a joint table)")
        if self.profile_a.kind != MARGINAL:
            raise ScenarioError("the first profile must be marginal")
        if self.profile_a.grid != self.profile_b.grid:
            raise ScenarioError("timing profiles live on different grids")

    @property
    def grid(self) -> TimeGrid:
        if self.joint_grid is not None:
            return self.joint_grid
        return self.profile_a.grid

    @property
    def kind(self) -> str:
        """Causal arrangement these times describe: "TL" iff the second profile is conditional."""
        return "TL" if self.profile_b is not None and self.profile_b.kind == CONDITIONAL else "SL"

    def require_kind(self, kind: str) -> None:
        """Raise :class:`ScenarioError` unless these times describe arrangement ``kind``."""
        if self.kind == kind:
            return
        if self.joint_amplitudes is not None:
            raise ScenarioError("a joint amplitude table only applies to independent pairs")
        if kind == "TL":
            raise ScenarioError("ordered events need a conditional second profile")
        raise ScenarioError("independent events need a marginal second profile")

    def cell_amplitudes(self) -> np.ndarray:
        """Amplitude of each grid cell (k, l), first firing at bin k and second at bin l.

        ``dt * chi_a(t_k) * chi_b(t_l [| t_k])`` for two profiles, or ``dt`` times
        the joint table; the cell masses |amplitude|^2 sum to 1.  A marginal
        second profile broadcasts to the outer product of independent
        firings; a conditional one scales row k by chi_b(t_l | t_k).
        """
        if self.joint_amplitudes is not None:
            return self.grid.dt * self.joint_amplitudes
        return self.grid.dt * self.profile_a.amplitudes[:, None] * self.profile_b.amplitudes

    def cell_masses(self) -> np.ndarray:
        """Probability of each grid cell (k, l): |cell amplitude|^2 as one read-only real array.

        ``dt^2 |chi_a(t_k)|^2 |chi_b(t_l [| t_k])|^2`` for two profiles, or
        ``|dt * joint|^2`` for a joint table; the masses sum to 1.  The table
        is (dt |chi_a(t_k)| |chi_b(t_l)|)^2 or (dt |joint|)^2 squared in place
        in one real n x n array: no complex product and no second array.
        """
        if self.joint_amplitudes is not None:
            masses = np.abs(self.joint_amplitudes)
            masses *= self.grid.dt
        else:
            scale = self.grid.dt * np.abs(self.profile_a.amplitudes)
            masses = np.abs(self.profile_b.amplitudes)
            if masses.ndim == 1:
                masses = np.multiply.outer(scale, masses)
            else:
                masses *= scale[:, None]
        np.square(masses, out=masses)
        masses.setflags(write=False)
        return masses

    def distribution(self) -> JointTimeDistribution:
        """The joint firing-time table of these times: :meth:`cell_masses` on their grid."""
        return JointTimeDistribution(self.grid, self.kind, self.cell_masses())


def joint_time_distribution(
    profile_a: TimingProfile, profile_b: TimingProfile, kind: str
) -> JointTimeDistribution:
    """Joint detection-time table from two profiles.

    ``kind="SL"`` takes two independent marginals; ``kind="TL"`` takes the
    first detector's marginal and the second's conditional rows.
    """
    kind = _check_arrangement(kind)
    timing = EventTiming(profile_a, profile_b)
    timing.require_kind(kind)
    return timing.distribution()
