import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eventstates import (
    BranchingSchedule,
    JointTimeDistribution,
    NumericsError,
    TimeGrid,
    TimingProfile,
    branching_amplitudes,
    continuum_limit_check,
    delta_conditional,
    delta_profile,
    exponential_conditional,
    exponential_grid,
    exponential_profile,
    joint_time_distribution,
    survival_probability,
)
from eventstates.timing import branching_amplitude, exponential_tail_mass

from helpers import (
    BUDGET_BINS,
    REAL_TABLE_BYTES,
    VECTOR_ALLOWANCE_BYTES,
    random_conditional_profile,
    random_marginal_profile,
    rng_for,
    traced_peak,
)


def test_grid_validation_and_times():
    grid = TimeGrid(t0=1.0, dt=0.5, n_bins=4)
    np.testing.assert_allclose(grid.times, [1.0, 1.5, 2.0, 2.5])
    assert grid.t_end == pytest.approx(3.0)
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, dt=0.0, n_bins=4)
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, dt=0.1, n_bins=1)


@pytest.mark.parametrize("n_bins", [2.5, 4.0, True])
def test_grid_refuses_a_bin_count_that_is_not_an_integer(n_bins):
    with pytest.raises(ValueError, match="n_bins must be an integer"):
        TimeGrid(t0=0.0, dt=0.1, n_bins=n_bins)


def test_grid_start_must_be_finite():
    with pytest.raises(ValueError, match="t0 must be finite"):
        TimeGrid(t0=float("inf"), dt=0.1, n_bins=4)


def test_grid_accepts_a_numpy_integer_bin_count():
    grid = TimeGrid(t0=0.0, dt=0.05, n_bins=np.int64(400))
    assert grid.times.shape == (400,)
    assert exponential_conditional(1.0, grid).amplitudes.shape == (400, 400)


def test_profile_normalization_enforced():
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=5)
    with pytest.raises(NumericsError):
        TimingProfile(grid=grid, kind="marginal", amplitudes=np.ones(5))
    with pytest.raises(ValueError):
        TimingProfile(grid=grid, kind="typo", amplitudes=np.ones(5))


def test_conditional_profile_rejects_lower_triangle():
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=3)
    amps = np.full((3, 3), 1.0 + 0j)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2, axis=1, keepdims=True) * grid.dt)
    with pytest.raises(NumericsError):
        TimingProfile(grid=grid, kind="conditional", amplitudes=amps)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("cell", [(1, 0), (3, 0), (3, 2), (2, 1)])
def test_conditional_profile_rejects_one_entry_below_the_diagonal(dtype, cell):
    grid = TimeGrid(t0=0.0, dt=0.25, n_bins=4)
    amps = np.triu(np.ones((4, 4), dtype=dtype))
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2, axis=1, keepdims=True) * grid.dt)
    TimingProfile(grid=grid, kind="conditional", amplitudes=amps)
    # far too small to move any row mass, but not exactly zero
    amps[cell] = 1e-300
    with pytest.raises(NumericsError, match="below the diagonal"):
        TimingProfile(grid=grid, kind="conditional", amplitudes=amps)


def test_profile_dtype_follows_input():
    grid = exponential_grid(1.0, 0.05)
    assert exponential_profile(1.0, grid).amplitudes.dtype == np.float64
    assert exponential_conditional(1.0, grid).amplitudes.dtype == np.float64
    assert delta_profile(grid, 1).amplitudes.dtype == np.float64
    assert delta_conditional(grid, 1).amplitudes.dtype == np.float64
    quarters = TimeGrid(t0=0.0, dt=0.25, n_bins=4)
    ones = TimingProfile(grid=quarters, kind="marginal", amplitudes=[1, 1, 1, 1])
    assert ones.amplitudes.dtype == np.float64
    phased = TimingProfile(grid=quarters, kind="marginal", amplitudes=np.full(4, 1j))
    assert phased.amplitudes.dtype == np.complex128
    np.testing.assert_array_equal(np.abs(phased.amplitudes), ones.amplitudes)


def test_exponential_conditional_peaks_at_two_real_tables():
    # the caller's real table and one more: the mass temporary, then the rescaled copy
    grid = TimeGrid(t0=0.0, dt=0.02, n_bins=BUDGET_BINS)
    profile, peak = traced_peak(exponential_conditional, 1.0, grid)
    assert profile.amplitudes.dtype == np.float64
    assert peak <= 2 * REAL_TABLE_BYTES + VECTOR_ALLOWANCE_BYTES


def test_ordered_joint_distribution_peaks_at_two_real_tables_above_its_inputs():
    # the cell-mass table itself plus boolean masks; no complex product, no |.|^2 copy
    grid = TimeGrid(t0=0.0, dt=0.02, n_bins=BUDGET_BINS)
    pa, pb = exponential_profile(1.0, grid), exponential_conditional(1.0, grid)
    dist, peak = traced_peak(joint_time_distribution, pa, pb, "TL")
    assert dist.table.sum() == pytest.approx(1.0, abs=1e-12)
    assert peak <= 2 * REAL_TABLE_BYTES + VECTOR_ALLOWANCE_BYTES


def test_exponential_grid_covers_tail():
    grid = exponential_grid(2.0, 0.01, tail_mass=1e-6)
    assert exponential_tail_mass(2.0, grid) <= 1e-6
    # one fewer bin would leak more than requested
    shorter = TimeGrid(t0=grid.t0, dt=grid.dt, n_bins=grid.n_bins - 1)
    assert exponential_tail_mass(2.0, shorter) > 1e-6


@pytest.mark.parametrize("gamma", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("maker", [exponential_profile, exponential_conditional])
def test_exponential_makers_refuse_bad_decay_rates(maker, gamma):
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=4)
    with pytest.raises(ValueError, match="decay rate must be positive and finite"):
        maker(gamma, grid)


def test_exponential_profile_is_normalized_and_decaying():
    grid = exponential_grid(1.0, 0.01)
    prof = exponential_profile(1.0, grid)
    mass = np.sum(np.abs(prof.amplitudes) ** 2) * grid.dt
    assert mass == pytest.approx(1.0, abs=1e-12)
    dens = np.abs(prof.amplitudes) ** 2
    assert np.all(np.diff(dens) < 0)
    # density at the origin is gamma, up to O(gamma dt) grid renormalization
    assert dens[0] == pytest.approx(1.0, rel=1e-2)


def test_exponential_profile_warns_on_coarse_grid():
    grid = TimeGrid(t0=0.0, dt=0.5, n_bins=40)
    with pytest.warns(UserWarning):
        exponential_profile(1.0, grid)


def test_exponential_conditional_restarts_rows():
    grid = exponential_grid(1.3, 0.02)
    cond = exponential_conditional(1.3, grid)
    amps = np.abs(cond.amplitudes)
    # row k is row 0 shifted by k bins (same restart shape, fresh renormalization)
    n = grid.n_bins
    row0 = amps[0, : n - 5]
    row5 = amps[5, 5:]
    np.testing.assert_allclose(row5 / row5[0], row0 / row0[0], rtol=1e-9)
    masses = np.sum(amps**2, axis=1) * grid.dt
    np.testing.assert_allclose(masses, 1.0, atol=1e-12)


def test_delta_profiles_are_one_hot():
    grid = TimeGrid(t0=0.0, dt=0.25, n_bins=4)
    prof = delta_profile(grid, 2)
    np.testing.assert_allclose(np.abs(prof.amplitudes) ** 2 * grid.dt, [0, 0, 1, 0], atol=1e-15)
    with pytest.raises(ValueError):
        delta_profile(grid, 4)
    cond = delta_conditional(grid, 1)
    table = np.abs(cond.amplitudes) ** 2 * grid.dt
    # lag 1 everywhere, clipped to the last bin at the end
    np.testing.assert_allclose(np.argmax(table, axis=1), [1, 2, 3, 3])


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=100)
def test_branching_amplitudes_telescope_exactly(seed):
    rng = rng_for(seed)
    n = int(rng.integers(2, 60))
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=n)
    probs = rng.uniform(0.0, 0.09, size=n)
    phases = rng.uniform(-np.pi, np.pi, size=n)
    sched = BranchingSchedule(grid=grid, step_probs=probs, step_phases=phases)
    amps = branching_amplitudes(sched)
    total = np.sum(np.abs(amps) ** 2) + survival_probability(sched)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_branching_amplitude_indexing():
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=3)
    sched = BranchingSchedule.constant(grid, 0.05)
    amps = branching_amplitudes(sched)
    assert branching_amplitude(sched, 2) == pytest.approx(amps[2])
    with pytest.raises(ValueError):
        branching_amplitude(sched, 3)
    # first amplitude carries no survival factor
    assert amps[0] == pytest.approx(np.sqrt(0.05))


def test_branching_phases_shift_later_amplitudes():
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=3)
    flat = BranchingSchedule.constant(grid, 0.05)
    turned = BranchingSchedule(grid=grid, step_probs=flat.step_probs, step_phases=np.full(3, 0.7))
    a0 = branching_amplitudes(flat)
    a1 = branching_amplitudes(turned)
    np.testing.assert_allclose(np.abs(a0), np.abs(a1), atol=1e-15)
    assert np.angle(a1[1]) == pytest.approx(0.7)
    assert np.angle(a1[2]) == pytest.approx(1.4)


def test_schedule_warns_on_large_steps():
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=3)
    with pytest.warns(UserWarning):
        BranchingSchedule.constant(grid, 0.5)


def test_continuum_limit_error_shrinks_linearly():
    gamma = 1.0
    errors = {}
    for dt in (1e-2, 1e-3):
        grid = exponential_grid(gamma, dt)
        sched = BranchingSchedule.constant(grid, gamma * dt)
        errors[dt] = continuum_limit_check(sched, exponential_profile(gamma, grid))
    assert errors[1e-3] < errors[1e-2]
    # first-order convergence: one decade in dt buys about a decade in error
    assert errors[1e-2] / errors[1e-3] == pytest.approx(10.0, rel=0.35)


def test_continuum_limit_check_rejects_mismatched_grids():
    grid = exponential_grid(1.0, 0.01)
    other = TimeGrid(t0=0.0, dt=0.02, n_bins=grid.n_bins)
    sched = BranchingSchedule.constant(grid, 0.01)
    with pytest.raises(ValueError):
        continuum_limit_check(sched, exponential_profile(1.0, other))
    cond = exponential_conditional(1.0, grid)
    with pytest.raises(ValueError):
        continuum_limit_check(sched, cond)


def test_continuum_limit_check_is_zero_when_the_first_bin_holds_the_mass():
    # 99.5% fires in bin 0, so no bin precedes 99% of the mass and none is compared
    grid = exponential_grid(1.0, 0.01)
    with pytest.warns(UserWarning, match="continuum reading is coarse"):
        sched = BranchingSchedule.constant(grid, 0.995)
    assert continuum_limit_check(sched, exponential_profile(1.0, grid)) == 0.0


def test_joint_time_distribution_product_and_ordered():
    grid = TimeGrid(t0=0.0, dt=0.2, n_bins=6)
    rng = rng_for(10)
    pa = random_marginal_profile(rng, grid)
    pb = random_marginal_profile(rng, grid)
    dist = joint_time_distribution(pa, pb, "SL")
    np.testing.assert_allclose(
        dist.table, np.outer(dist.marginal_a(), dist.marginal_b()), atol=1e-12
    )
    cond = random_conditional_profile(rng, grid)
    ordered = joint_time_distribution(pa, cond, "TL")
    assert ordered.table.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(ordered.table[np.tril_indices(6, k=-1)] == 0.0)
    with pytest.raises(ValueError):
        joint_time_distribution(pa, cond, "SL")
    with pytest.raises(ValueError):
        joint_time_distribution(pa, pb, "TL")


def test_joint_table_validation():
    grid = TimeGrid(t0=0.0, dt=0.2, n_bins=3)
    bad = np.full((3, 3), 1.0 / 9.0)
    bad[0, 0] = -1.0 / 9.0
    with pytest.raises(NumericsError):
        JointTimeDistribution(grid=grid, kind="SL", table=bad)
    with pytest.raises(NumericsError):
        JointTimeDistribution(grid=grid, kind="SL", table=np.full((3, 3), 1.0))
    lower = np.zeros((3, 3))
    lower[2, 0] = 1.0
    with pytest.raises(NumericsError):
        JointTimeDistribution(grid=grid, kind="TL", table=lower)


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_joint_table_refuses_non_finite_mass(entry):
    # NaN is neither negative nor far from 1, so the normalization guard must fail on it
    grid = TimeGrid(t0=0.0, dt=0.5, n_bins=4)
    with pytest.raises(NumericsError, match="not normalized"):
        JointTimeDistribution(grid=grid, kind="SL", table=np.full((4, 4), entry))
    table = np.full((4, 4), 1.0 / 16.0)
    table[1, 2] = entry
    with pytest.raises(NumericsError, match="not normalized"):
        JointTimeDistribution(grid=grid, kind="SL", table=table)


@pytest.mark.parametrize(
    "gamma, dt, error",
    [
        (np.inf, 0.01, "decay rate must be positive and finite, got inf"),
        (np.nan, 0.01, "decay rate must be positive and finite, got nan"),
        (1.0, np.nan, "dt must be positive and finite, got nan"),
        (1.0, np.inf, "dt must be positive and finite, got inf"),
    ],
    ids=["infinite-rate", "nan-rate", "nan-step", "infinite-step"],
)
def test_exponential_grid_refuses_rates_and_steps_that_are_not_positive_and_finite(gamma, dt, error):
    # an infinite rate used to give a two-bin grid, a NaN one a message about bin counts
    with pytest.raises(ValueError, match=f"^{error}$"):
        exponential_grid(gamma, dt)
