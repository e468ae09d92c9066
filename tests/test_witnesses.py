import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eventstates import (
    EventScenario,
    JointTimeDistribution,
    MeasurementModel,
    ScenarioError,
    TimeGrid,
    build_sl_fuzzy,
    build_sl_instant,
    build_timed_state,
    build_tl_fuzzy,
    build_tl_instant,
    canonical_dumps,
    chebyshev_check,
    coherence_witness,
    conditional_mean_arrival,
    exponential_conditional,
    exponential_grid,
    exponential_profile,
    joint_time_distribution,
    record_coherence,
    relative_entropy_of_coherence,
    state_from_json,
    state_to_json,
    time_correlation,
    time_witness,
    trace_out_timers,
)
from eventstates.witnesses import VERDICT_CLEAR, VERDICT_SIGNATURE

from helpers import (
    random_ket,
    random_marginal_profile,
    random_sl_scenario,
    random_timed_sl_scenario,
    random_timed_tl_scenario,
    random_tl_scenario,
    rng_for,
)


# ------------------------------------------------------------ record coherence


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=40)
def test_independent_pairs_carry_no_coherence(seed):
    rng = rng_for(seed)
    state = build_sl_instant(random_sl_scenario(rng, mixed=bool(rng.integers(2))))
    # entropy difference of an exactly diagonal matrix is eigensolver noise
    assert record_coherence(state) <= 1e-12
    report = coherence_witness(state)
    assert report.verdict == VERDICT_CLEAR
    assert report.witness == "record-coherence"


def _read_back(state):
    return state_from_json(json.loads(canonical_dumps(state_to_json(state))))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize(
    "make, build",
    [(random_sl_scenario, build_sl_instant), (random_timed_sl_scenario, build_sl_fuzzy)],
    ids=["sharp", "averaged"],
)
def test_independent_pairs_score_exactly_zero(make, build, seed):
    rng = rng_for(seed)
    da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    state = build(make(rng, da=da, db=db, mixed=bool(rng.integers(2))))
    assert record_coherence(state) == 0.0
    assert record_coherence(_read_back(state)) == 0.0


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize(
    "make",
    [
        lambda rng, dim: build_tl_instant(random_tl_scenario(rng, dim, mixed=bool(rng.integers(2)))),
        lambda rng, dim: build_tl_fuzzy(random_timed_tl_scenario(rng, dim=dim, mixed=bool(rng.integers(2)))),
        lambda rng, dim: trace_out_timers(build_timed_state(random_timed_tl_scenario(rng, n_bins=2, dim=dim))),
    ],
    ids=["sharp", "averaged", "timers-traced-out"],
)
def test_ordered_coherence_reads_the_validated_spectrum(make, seed):
    # the spectrum kept by validation gives the dense relative entropy of coherence
    rng = rng_for(seed)
    state = make(rng, int(rng.integers(2, 5)))
    da, db = state.dims
    assert state._spectrum.shape == (da * db,) and not state._spectrum.flags.writeable
    for each in (state, _read_back(state)):
        assert abs(record_coherence(each) - relative_entropy_of_coherence(each.rho)) <= 1e-12


def test_hadamard_pair_scores_exactly_one_bit():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    sc = EventScenario(
        kind="TL",
        initial=np.array([1.0, 1.0]) / np.sqrt(2),
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sz(),
        evolution=h,
    )
    value = record_coherence(build_tl_instant(sc))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert coherence_witness(build_tl_instant(sc)).verdict == VERDICT_SIGNATURE


def test_orthogonal_records_score_zero_even_when_ordered():
    # perfectly deterministic ordered pair: records are classical
    sc = EventScenario(
        kind="TL",
        initial=np.array([1.0, 0.0]),
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sz(),
    )
    assert record_coherence(build_tl_instant(sc)) == pytest.approx(0.0, abs=1e-12)


def test_coherence_witness_needs_detector_space():
    state = build_timed_state(random_timed_tl_scenario(rng_for(1), n_bins=2))
    with pytest.raises(ScenarioError):
        record_coherence(state)


# --------------------------------------------------------------- firing times


def _shifted_table(pa: np.ndarray, lag_weights: np.ndarray, grid: TimeGrid) -> JointTimeDistribution:
    # translation-invariant conditional: p(l | k) = q(l - k), trigger support
    # kept short enough that nothing truncates at the grid end
    n = grid.n_bins
    m = lag_weights.size
    assert pa.size + m - 1 <= n
    table = np.zeros((n, n))
    for k in range(pa.size):
        table[k, k : k + m] = pa[k] * lag_weights
    return JointTimeDistribution(grid=grid, kind="TL", table=table / table.sum())


def test_conditional_mean_arrival_shifted_rows():
    grid = TimeGrid(t0=0.0, dt=1.0, n_bins=3)
    pa = np.array([0.4, 0.3, 0.3])
    table = np.zeros((3, 3))
    table[0, :2] = pa[0] * 0.5
    table[1, 1:] = pa[1] * 0.5
    table[2, 2] = pa[2]  # last trigger bin: partner cannot fire later
    dist = JointTimeDistribution(grid=grid, kind="TL", table=table)
    # half the mass stays put, half moves one bin, except at the boundary
    np.testing.assert_allclose(conditional_mean_arrival(dist), [0.5, 1.5, 2.0], atol=1e-12)


def test_conditional_mean_arrival_rejects_empty_rows():
    grid = TimeGrid(t0=0.0, dt=1.0, n_bins=5)
    dist = _shifted_table(np.array([0.4, 0.3, 0.3, 0.0, 0.0]), np.array([1.0]), grid)
    with pytest.raises(ValueError):
        conditional_mean_arrival(dist)


def test_conditional_mean_arrival_on_full_support():
    grid = TimeGrid(t0=2.0, dt=0.5, n_bins=4)
    rng = rng_for(9)
    pa = rng.dirichlet(np.ones(4))
    table = pa[:, None] * np.full((4, 4), 0.25)
    dist = JointTimeDistribution(grid=grid, kind="SL", table=table)
    means = conditional_mean_arrival(dist)
    np.testing.assert_allclose(means, np.full(4, grid.times.mean()), atol=1e-12)


def test_product_table_has_zero_covariance():
    grid = TimeGrid(t0=0.0, dt=0.2, n_bins=8)
    rng = rng_for(12)
    dist = joint_time_distribution(
        random_marginal_profile(rng, grid), random_marginal_profile(rng, grid), "SL"
    )
    assert time_correlation(dist) == pytest.approx(0.0, abs=1e-12)
    assert time_witness(dist).verdict == VERDICT_CLEAR


def test_product_table_far_from_origin_stays_clean():
    # centering keeps the covariance from drowning in cancellation error
    grid = TimeGrid(t0=1.0e6, dt=0.2, n_bins=8)
    rng = rng_for(13)
    dist = joint_time_distribution(
        random_marginal_profile(rng, grid), random_marginal_profile(rng, grid), "SL"
    )
    assert time_correlation(dist) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.filterwarnings("ignore::UserWarning")  # 8 bins truncate the decay
def test_time_witnesses_ignore_the_grid_origin():
    # at t0 = 1e16 the absolute times of neighbouring bins round together
    near, far = (TimeGrid(t0=t0, dt=0.25, n_bins=8) for t0 in (0.0, 1e16))
    for maker in (exponential_profile, exponential_conditional):
        np.testing.assert_array_equal(maker(0.7, far).amplitudes, maker(0.7, near).amplitudes)
    table = joint_time_distribution(
        exponential_profile(0.7, near), exponential_conditional(0.7, near), "TL"
    ).table
    dist_near, dist_far = (JointTimeDistribution(grid=g, kind="TL", table=table) for g in (near, far))
    assert time_correlation(dist_far) == time_correlation(dist_near)
    assert time_correlation(dist_near) > 0.0
    assert chebyshev_check(dist_far) == chebyshev_check(dist_near)
    np.testing.assert_array_equal(
        conditional_mean_arrival(dist_far), 1e16 + conditional_mean_arrival(dist_near)
    )


def test_exact_lag_gives_variance_of_first_time():
    grid = TimeGrid(t0=0.0, dt=0.5, n_bins=10)
    rng = rng_for(14)
    pa = rng.dirichlet(np.ones(7))
    dist = _shifted_table(pa, np.array([1.0]), grid)
    t = grid.times[:7]
    var = float(pa @ t**2 - (pa @ t) ** 2)
    assert time_correlation(dist) == pytest.approx(var, abs=1e-12)
    assert time_witness(dist).verdict == VERDICT_SIGNATURE


def test_exponential_chain_covariance_near_continuum():
    gamma = 2.0
    grid = exponential_grid(gamma, 0.005, tail_mass=1e-9)
    dist = joint_time_distribution(
        exponential_profile(gamma, grid), exponential_conditional(gamma, grid), "TL"
    )
    assert time_correlation(dist) == pytest.approx(1.0 / gamma**2, rel=2e-2)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=50)
def test_monotone_conditional_mean_implies_nonnegative_covariance(seed):
    rng = rng_for(seed)
    n = int(rng.integers(6, 16))
    m = int(rng.integers(1, 4))
    grid = TimeGrid(t0=float(rng.uniform(-5, 5)), dt=float(rng.uniform(0.05, 1.0)), n_bins=n)
    pa = rng.dirichlet(np.ones(n - m + 1))
    lag_weights = rng.dirichlet(np.ones(m))
    dist = _shifted_table(pa, lag_weights, grid)
    check = chebyshev_check(dist)
    assert check.monotone
    assert check.consistent
    assert check.covariance >= -1e-9


def test_chebyshev_check_detects_non_monotone_rows():
    grid = TimeGrid(t0=0.0, dt=1.0, n_bins=3)
    table = np.array([
        [0.0, 0.0, 0.4],  # early trigger, late partner
        [0.0, 0.3, 0.0],
        [0.0, 0.0, 0.3],
    ])
    dist = JointTimeDistribution(grid=grid, kind="TL", table=table)
    check = chebyshev_check(dist)
    assert not check.monotone
    assert check.consistent  # no constraint once monotonicity fails
    assert check.covariance < 0.0


def test_time_witness_flags_timed_ordered_build():
    sc = random_timed_tl_scenario(rng_for(77), n_bins=4)
    from eventstates import timer_distribution

    dist = timer_distribution(build_timed_state(sc))
    # a conditional second profile correlates the registers generically
    assert abs(time_correlation(dist)) > 1e-6
    assert time_witness(dist).verdict == VERDICT_SIGNATURE
