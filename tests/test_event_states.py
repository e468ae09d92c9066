import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from eventstates import event_states as ev, timing as tm
from eventstates import (
    EventScenario,
    EventState,
    EventTiming,
    MeasurementModel,
    NumericsError,
    ScenarioError,
    TimeGrid,
    TimingProfile,
    build_event_state,
    build_sl_fuzzy,
    build_sl_instant,
    build_timed_state,
    build_tl_fuzzy,
    build_tl_instant,
    chsh_scenarios,
    chsh_value,
    conditional_decomposition,
    delta_conditional,
    delta_profile,
    determinism_check,
    exponential_conditional,
    exponential_profile,
    joint_time_distribution,
    outcome_probabilities,
    predict_future_outcome,
    reconstruct_from_decomposition,
    timer_distribution,
    trace_out_timers,
    validate_density,
)

from helpers import (
    BUDGET_BINS,
    REAL_TABLE_BYTES,
    VECTOR_ALLOWANCE_BYTES,
    random_basis,
    random_conditional_profile,
    random_density,
    random_hermitian,
    random_ket,
    random_marginal_profile,
    random_sl_scenario,
    random_timed_sl_scenario,
    random_timed_tl_scenario,
    random_tl_scenario,
    random_unitary,
    rng_for,
    traced_peak,
)


# ---------------------------------------------------------------- sharp builds


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=60)
def test_sl_instant_matches_born_rule(seed):
    rng = rng_for(seed)
    da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    sc = random_sl_scenario(rng, da, db, mixed=bool(rng.integers(2)))
    state = build_sl_instant(sc)
    rho0 = sc.initial_density()
    expect = np.zeros((da, db))
    for a in range(da):
        for b in range(db):
            ket = np.kron(sc.basis_a.ket(a), sc.basis_b.ket(b))
            expect[a, b] = np.real(ket.conj() @ rho0 @ ket)
    np.testing.assert_allclose(outcome_probabilities(state), expect, atol=1e-12)
    # independent records hold no coherence at all
    off = state.rho - np.diag(np.diag(state.rho))
    assert np.max(np.abs(off)) == 0.0


def test_sl_prep_rotations_apply_per_factor():
    rng = rng_for(42)
    ua, ub = random_unitary(rng, 2), random_unitary(rng, 2)
    psi = random_ket(rng, 4)
    base = EventScenario(
        kind="SL",
        initial=np.kron(ua, ub) @ psi,
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sx(),
    )
    rotated = EventScenario(
        kind="SL",
        initial=psi,
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sx(),
        evolution_a=ua,
        evolution_b=ub,
    )
    np.testing.assert_allclose(
        build_sl_instant(rotated).rho, build_sl_instant(base).rho, atol=1e-12
    )


def _tl_instant_oracle(sc):
    d = sc.basis_a.dim
    rho0 = sc.initial_density()
    u = sc.evolution if sc.evolution is not None else np.eye(d)
    out = np.zeros((d, d, d, d), dtype=complex)
    for a in range(d):
        for a2 in range(d):
            amp = sc.basis_a.ket(a).conj() @ rho0 @ sc.basis_a.ket(a2)
            for b in range(d):
                hop1 = sc.basis_b.ket(b).conj() @ u @ sc.basis_a.ket(a)
                hop2 = sc.basis_b.ket(b).conj() @ u @ sc.basis_a.ket(a2)
                out[a, b, a2, b] += hop1 * amp * np.conj(hop2)
    return out.reshape(d * d, d * d)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=60)
def test_tl_instant_matches_elementwise_oracle(seed):
    rng = rng_for(seed)
    dim = int(rng.integers(2, 4))
    sc = random_tl_scenario(rng, dim, mixed=bool(rng.integers(2)))
    state = build_tl_instant(sc)
    np.testing.assert_allclose(state.rho, _tl_instant_oracle(sc), atol=1e-12)
    assert validate_density(state.rho).ok


def test_tl_instant_defaults_to_identity_evolution():
    rng = rng_for(3)
    psi = random_ket(rng, 2)
    sc = EventScenario(
        kind="TL", initial=psi, basis_a=MeasurementModel.sz(), basis_b=MeasurementModel.sz()
    )
    state = build_tl_instant(sc)
    # same basis twice with no evolution: second record copies the first
    probs = outcome_probabilities(state)
    np.testing.assert_allclose(np.diag(probs), np.abs(psi) ** 2, atol=1e-12)
    assert probs[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_tl_second_marginal_is_born_after_first_decoheres():
    # p(b) only sees the first record's populations, never its coherences
    rng = rng_for(11)
    sc = random_tl_scenario(rng, 3)
    state = build_tl_instant(sc)
    probs = outcome_probabilities(state)
    rho0 = sc.initial_density()
    hops = np.abs(sc.basis_b.kets.conj() @ sc.evolution @ sc.basis_a.kets.T) ** 2
    pops = np.real(np.einsum("ai,ij,aj->a", sc.basis_a.kets.conj(), rho0, sc.basis_a.kets))
    np.testing.assert_allclose(probs.sum(axis=0), hops @ pops, atol=1e-12)


def test_builders_reject_wrong_kind():
    rng = rng_for(0)
    with pytest.raises(ScenarioError):
        build_tl_instant(random_sl_scenario(rng))
    with pytest.raises(ScenarioError):
        build_sl_instant(random_tl_scenario(rng))


# ------------------------------------------------------------ scenario checks


def test_scenario_validation_catches_structure_errors():
    rng = rng_for(5)
    ket2, ket4 = random_ket(rng, 2), random_ket(rng, 4)
    sz = MeasurementModel.sz()
    with pytest.raises(ScenarioError):
        EventScenario(kind="XX", initial=ket2, basis_a=sz, basis_b=sz)
    with pytest.raises(ScenarioError):  # ordered pair needs matching dims
        EventScenario(kind="TL", initial=ket4, basis_a=sz, basis_b=sz)
    with pytest.raises(ScenarioError):  # independent pair needs da*db == dim
        EventScenario(kind="SL", initial=ket2, basis_a=sz, basis_b=sz)
    with pytest.raises(ScenarioError):  # inter-event unitary is a TL concept
        EventScenario(kind="SL", initial=ket4, basis_a=sz, basis_b=sz, evolution=np.eye(4))
    with pytest.raises(ScenarioError):  # per-factor rotations are an SL concept
        EventScenario(kind="TL", initial=ket2, basis_a=sz, basis_b=sz, evolution_a=np.eye(2))
    with pytest.raises(ScenarioError):  # joint and per-factor generators conflict
        EventScenario(
            kind="SL",
            initial=ket4,
            basis_a=sz,
            basis_b=sz,
            hamiltonian=np.eye(4),
            hamiltonian_a=np.eye(2),
        )
    with pytest.raises(NumericsError):
        EventScenario(kind="TL", initial=ket2, basis_a=sz, basis_b=sz, evolution=np.diag([1.0, 0.5]))
    with pytest.raises(NumericsError, match="hamiltonian is not Hermitian"):
        EventScenario(kind="TL", initial=ket2, basis_a=sz, basis_b=sz, hamiltonian=np.array([[0, 1], [0, 0]]))


# (field, arrangement it applies to, its dimension in a 2 x 3 SL or a qubit TL scenario, kind of operator)
_OPERATOR_CASES = [
    ("evolution", "TL", 2, "unitary"),
    ("evolution_a", "SL", 2, "unitary"),
    ("evolution_b", "SL", 3, "unitary"),
    ("hamiltonian", "TL", 2, "hermitian"),
    ("hamiltonian", "SL", 6, "hermitian"),
    ("hamiltonian_a", "SL", 2, "hermitian"),
    ("hamiltonian_b", "SL", 3, "hermitian"),
]


@pytest.mark.parametrize("field, kind, dim, op", _OPERATOR_CASES)
def test_operator_fields_follow_one_rule(field, kind, dim, op):
    rng = rng_for(7)
    bases = {"SL": (random_basis(rng, 2), random_basis(rng, 3)), "TL": (random_basis(rng, 2),) * 2}
    initial = {"SL": random_ket(rng, 6), "TL": random_ket(rng, 2)}

    def scenario(kind, value):
        basis_a, basis_b = bases[kind]
        return EventScenario(kind=kind, initial=initial[kind], basis_a=basis_a, basis_b=basis_b, **{field: value})

    good = random_unitary(rng, dim) if op == "unitary" else random_hermitian(rng, dim)
    stored = getattr(scenario(kind, good), field)
    np.testing.assert_array_equal(stored, good)
    assert not stored.flags.writeable
    with pytest.raises(ScenarioError, match=f"{field} dimension does not match"):
        scenario(kind, np.eye(dim + 1))
    bad = np.eye(dim) + np.triu(np.ones((dim, dim)), k=1)  # neither unitary nor Hermitian
    with pytest.raises(NumericsError, match=f"{field} is not {'unitary' if op == 'unitary' else 'Hermitian'}"):
        scenario(kind, bad)
    if field != "hamiltonian":  # the one operator both arrangements take
        with pytest.raises(ScenarioError, match=f"{field} only applies to"):
            scenario("TL" if kind == "SL" else "SL", good)


def test_timing_validation():
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=4)
    rng = rng_for(6)
    marg = random_marginal_profile(rng, grid)
    cond = random_conditional_profile(rng, grid)
    with pytest.raises(ScenarioError):
        EventTiming(profile_a=marg)
    with pytest.raises(ScenarioError):
        EventTiming(profile_a=cond, profile_b=marg)
    other = TimeGrid(t0=0.0, dt=0.2, n_bins=4)
    with pytest.raises(ScenarioError):
        EventTiming(profile_a=marg, profile_b=random_marginal_profile(rng, other))
    with pytest.raises(ScenarioError):
        EventTiming(profile_a=marg, profile_b=marg, joint_amplitudes=np.ones((4, 4)), joint_grid=grid)
    with pytest.raises(ScenarioError):
        EventTiming(joint_amplitudes=np.ones((3, 3)), joint_grid=grid)

    sz = MeasurementModel.sz()
    psi2, psi4 = random_ket(rng, 2), random_ket(rng, 4)
    with pytest.raises(ScenarioError):  # ordered events need a conditional second profile
        EventScenario(
            kind="TL", initial=psi2, basis_a=sz, basis_b=sz,
            timing=EventTiming(profile_a=marg, profile_b=marg),
        )
    with pytest.raises(ScenarioError):  # independent events need a marginal one
        EventScenario(
            kind="SL", initial=psi4, basis_a=sz, basis_b=sz,
            timing=EventTiming(profile_a=marg, profile_b=cond),
        )
    with pytest.raises(ScenarioError):  # joint tables only describe independent pairs
        EventScenario(
            kind="TL", initial=psi2, basis_a=sz, basis_b=sz,
            timing=EventTiming(joint_amplitudes=np.ones((4, 4)), joint_grid=grid),
        )


def test_timing_kind_is_the_arrangement_of_its_second_profile():
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=4)
    rng = rng_for(8)
    marg = random_marginal_profile(rng, grid)
    assert EventTiming(profile_a=marg, profile_b=random_marginal_profile(rng, grid)).kind == "SL"
    assert EventTiming(profile_a=marg, profile_b=random_conditional_profile(rng, grid)).kind == "TL"
    assert EventTiming(joint_amplitudes=np.ones((4, 4)), joint_grid=grid).kind == "SL"
    assert ev.EventTiming is tm.EventTiming


def test_timed_ordered_scenario_refuses_a_sharp_evolution():
    rng = rng_for(9)
    timed = random_timed_tl_scenario(rng)
    with pytest.raises(ScenarioError, match="evolve under the hamiltonian"):
        dataclasses.replace(timed, evolution=random_unitary(rng, 2))
    # without timing the same evolution is the sharp inter-event step
    assert dataclasses.replace(timed, evolution=random_unitary(rng, 2), timing=None).evolution is not None


def test_joint_amplitudes_renormalize():
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=3)
    timing = EventTiming(joint_amplitudes=np.full((3, 3), 7.0), joint_grid=grid)
    mass = np.sum(np.abs(timing.joint_amplitudes) ** 2) * grid.dt**2
    assert mass == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------- fuzzy builders


def _sl_fuzzy_oracle(sc):
    timing = sc.timing
    grid = timing.grid
    da, db = sc.dims
    wa = np.abs(timing.profile_a.amplitudes) ** 2 * grid.dt
    wb = np.abs(timing.profile_b.amplitudes) ** 2 * grid.dt
    wa, wb = wa / wa.sum(), wb / wb.sum()
    rho0 = sc.initial_density()
    probs = np.zeros((da, db))
    for k, tk in enumerate(grid.times):
        ua = expm(-1j * sc.hamiltonian_a * (tk - grid.t0))
        for l, tl in enumerate(grid.times):
            ub = expm(-1j * sc.hamiltonian_b * (tl - grid.t0))
            u = np.kron(ua, ub)
            rho_t = u @ rho0 @ u.conj().T
            for a in range(da):
                for b in range(db):
                    ket = np.kron(sc.basis_a.ket(a), sc.basis_b.ket(b))
                    probs[a, b] += wa[k] * wb[l] * np.real(ket.conj() @ rho_t @ ket)
    return probs


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=15)
def test_sl_fuzzy_matches_double_time_average(seed):
    rng = rng_for(seed)
    grid = TimeGrid(t0=float(rng.uniform(-1, 1)), dt=float(rng.uniform(0.1, 0.5)), n_bins=4)
    sc = EventScenario(
        kind="SL",
        initial=random_density(rng, 4) if rng.integers(2) else random_ket(rng, 4),
        basis_a=random_basis(rng, 2),
        basis_b=random_basis(rng, 2),
        hamiltonian_a=random_hermitian(rng, 2),
        hamiltonian_b=random_hermitian(rng, 2),
        timing=EventTiming(
            profile_a=random_marginal_profile(rng, grid),
            profile_b=random_marginal_profile(rng, grid),
        ),
    )
    state = build_sl_fuzzy(sc)
    np.testing.assert_allclose(outcome_probabilities(state), _sl_fuzzy_oracle(sc), atol=1e-10)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=40)
def test_sl_builds_match_their_joint_contractions(seed):
    # the joint five- and three-index einsums, written out, at records of dimension <= 4
    rng = rng_for(seed)
    da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    mixed = bool(rng.integers(2))
    sharp = random_sl_scenario(rng, da, db, mixed=mixed)
    rho = sharp.initial_density().reshape(da, db, da, db)
    ka, kb = sharp.basis_a.kets, sharp.basis_b.kets
    expect = np.einsum("ai,bj,ijIJ,aI,bJ->ab", ka.conj(), kb.conj(), rho, ka, kb)
    np.testing.assert_allclose(
        outcome_probabilities(build_sl_instant(sharp)), np.clip(expect.real, 0.0, None), rtol=0.0, atol=1e-15
    )

    fuzzy = random_timed_sl_scenario(rng, n_bins=int(rng.integers(2, 6)), da=da, db=db, mixed=mixed)
    grid = fuzzy.timing.grid
    effects = []
    for h, basis, profile in (
        (fuzzy.hamiltonian_a, fuzzy.basis_a, fuzzy.timing.profile_a),
        (fuzzy.hamiltonian_b, fuzzy.basis_b, fuzzy.timing.profile_b),
    ):
        hops = np.einsum("ai,kij->kaj", basis.kets.conj(), ev._evolution_family(h, grid.offsets))
        weights = np.abs(profile.amplitudes) ** 2 * grid.dt
        effects.append(np.einsum("k,kaj,kaJ->ajJ", weights, hops, hops.conj()))
    rho = fuzzy.initial_density().reshape(da, db, da, db)
    expect = np.einsum("ajJ,bnN,jnJN->ab", *effects, rho)
    np.testing.assert_allclose(
        outcome_probabilities(build_sl_fuzzy(fuzzy)), np.clip(expect.real, 0.0, None), rtol=0.0, atol=1e-15
    )


def _tl_fuzzy_oracle(sc):
    timing = sc.timing
    grid = timing.grid
    d = sc.basis_a.dim
    wa = np.abs(timing.profile_a.amplitudes) ** 2 * grid.dt
    wa /= wa.sum()
    wb = np.abs(timing.profile_b.amplitudes) ** 2 * grid.dt
    wb /= wb.sum(axis=1, keepdims=True)
    rho0 = sc.initial_density()
    ka, kb = sc.basis_a.kets, sc.basis_b.kets
    out = np.zeros((d, d, d, d), dtype=complex)
    for k, tk in enumerate(grid.times):
        u1 = expm(-1j * sc.hamiltonian * (tk - grid.t0))
        rho_k = u1 @ rho0 @ u1.conj().T
        rho_rec = ka.conj() @ rho_k @ ka.T
        for l in range(k, grid.n_bins):
            u2 = expm(-1j * sc.hamiltonian * (grid.times[l] - tk))
            hops = kb.conj() @ u2 @ ka.T
            w = wa[k] * wb[k, l]
            for b in range(d):
                out[:, b, :, b] += w * (hops[b, :, None] * rho_rec * hops[b, None, :].conj())
    return out.reshape(d * d, d * d)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=15)
def test_tl_fuzzy_matches_double_time_average(seed):
    rng = rng_for(seed)
    sc = random_timed_tl_scenario(rng, n_bins=4)
    state = build_tl_fuzzy(sc)
    np.testing.assert_allclose(state.rho, _tl_fuzzy_oracle(sc), atol=1e-10)


# tiny grids truncate the exponential decay and warn about it
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("profiles", ["complex", "exponential"])
@pytest.mark.parametrize("n_bins", [2, 3, 5])
def test_tl_fuzzy_lag_view_matches_longhand_double_sum(n_bins, profiles):
    # the lag regroup reads past each row's end into the next row's lower triangle
    rng = rng_for(40 + n_bins)
    sc = random_timed_tl_scenario(rng, n_bins=n_bins, dim=3)
    if profiles == "exponential":
        grid = sc.timing.grid
        timing = EventTiming(profile_a=exponential_profile(0.7, grid), profile_b=exponential_conditional(0.7, grid))
        sc = dataclasses.replace(sc, timing=timing)
    np.testing.assert_allclose(build_tl_fuzzy(sc).rho, _tl_fuzzy_oracle(sc), atol=1e-12)


def test_tl_fuzzy_peaks_at_two_real_tables_above_its_inputs():
    grid = TimeGrid(t0=0.0, dt=0.02, n_bins=BUDGET_BINS)
    sc = EventScenario(
        kind="TL",
        initial=np.array([0.6, 0.8]),
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sx(),
        hamiltonian=np.array([[0.0, 0.5], [0.5, 0.0]]),
        timing=EventTiming(profile_a=exponential_profile(1.0, grid), profile_b=exponential_conditional(1.0, grid)),
    )
    state, peak = traced_peak(build_tl_fuzzy, sc)
    assert state.rho.shape == (4, 4)
    assert peak <= 2 * REAL_TABLE_BYTES + VECTOR_ALLOWANCE_BYTES


@pytest.mark.parametrize("kind", ["SL", "TL", "joint"])
def test_cell_masses_are_squared_cell_amplitudes(kind):
    rng = rng_for(44)
    grid = TimeGrid(t0=0.3, dt=0.2, n_bins=5)
    if kind == "joint":
        timing = EventTiming(joint_amplitudes=rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)), joint_grid=grid)
    else:
        second = random_marginal_profile if kind == "SL" else random_conditional_profile
        timing = EventTiming(profile_a=random_marginal_profile(rng, grid), profile_b=second(rng, grid))
    masses = timing.cell_masses()
    assert masses.dtype == np.float64 and not masses.flags.writeable
    np.testing.assert_allclose(masses, np.abs(timing.cell_amplitudes()) ** 2, rtol=1e-13, atol=0.0)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_fuzzy_with_zero_hamiltonian_reduces_to_instant():
    rng = rng_for(21)
    grid = TimeGrid(t0=0.0, dt=0.3, n_bins=5)
    psi = random_ket(rng, 4)
    ba, bb = random_basis(rng, 2), random_basis(rng, 2)
    sl = EventScenario(
        kind="SL", initial=psi, basis_a=ba, basis_b=bb,
        hamiltonian_a=np.zeros((2, 2)), hamiltonian_b=np.zeros((2, 2)),
        timing=EventTiming(
            profile_a=random_marginal_profile(rng, grid),
            profile_b=random_marginal_profile(rng, grid),
        ),
    )
    bare = EventScenario(kind="SL", initial=psi, basis_a=ba, basis_b=bb)
    np.testing.assert_allclose(build_sl_fuzzy(sl).rho, build_sl_instant(bare).rho, atol=1e-12)

    psi2 = random_ket(rng, 2)
    tl = EventScenario(
        kind="TL", initial=psi2, basis_a=ba, basis_b=bb,
        hamiltonian=np.zeros((2, 2)),
        timing=EventTiming(
            profile_a=random_marginal_profile(rng, grid),
            profile_b=random_conditional_profile(rng, grid),
        ),
    )
    bare2 = EventScenario(kind="TL", initial=psi2, basis_a=ba, basis_b=bb)
    np.testing.assert_allclose(build_tl_fuzzy(tl).rho, build_tl_instant(bare2).rho, atol=1e-12)


def test_fuzzy_requires_generators_and_profiles():
    rng = rng_for(22)
    grid = TimeGrid(t0=0.0, dt=0.2, n_bins=3)
    timing = EventTiming(
        profile_a=random_marginal_profile(rng, grid),
        profile_b=random_marginal_profile(rng, grid),
    )
    sc = EventScenario(
        kind="SL", initial=random_ket(rng, 4),
        basis_a=MeasurementModel.sz(), basis_b=MeasurementModel.sz(), timing=timing,
    )
    with pytest.raises(ScenarioError):  # per-factor generators must be explicit
        build_sl_fuzzy(sc)
    tl = EventScenario(
        kind="TL", initial=random_ket(rng, 2),
        basis_a=MeasurementModel.sz(), basis_b=MeasurementModel.sz(),
        timing=EventTiming(
            profile_a=random_marginal_profile(rng, grid),
            profile_b=random_conditional_profile(rng, grid),
        ),
    )
    with pytest.raises(ScenarioError):
        build_tl_fuzzy(tl)
    with pytest.raises(ScenarioError):  # no timing at all
        build_tl_fuzzy(EventScenario(
            kind="TL", initial=random_ket(rng, 2),
            basis_a=MeasurementModel.sz(), basis_b=MeasurementModel.sz(),
        ))


def test_build_event_state_dispatch():
    rng = rng_for(23)
    sharp = random_tl_scenario(rng)
    assert build_event_state(sharp).rho.shape == (4, 4)
    timed = random_timed_tl_scenario(rng)
    state = build_event_state(timed)
    assert state.timers is None  # dispatcher averages times out
    np.testing.assert_allclose(state.rho, build_tl_fuzzy(timed).rho, atol=1e-12)


# ------------------------------------------------------------- timer registers


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=10)
def test_timed_tl_reduces_to_fuzzy_and_profile_table(seed):
    rng = rng_for(seed)
    sc = random_timed_tl_scenario(rng, n_bins=3)
    # the same scenario with conditional rows inside PROFILE_NORM_TOL of unit
    # mass, each off by a different amount
    cond = sc.timing.profile_b
    rows = cond.amplitudes * np.sqrt(1.0 + 8e-7 * np.array([-1.0, 0.5, 1.0]))[:, None]
    skewed = TimingProfile(grid=cond.grid, kind="conditional", amplitudes=rows)
    for sc in (sc, dataclasses.replace(sc, timing=EventTiming(profile_a=sc.timing.profile_a, profile_b=skewed))):
        timed = build_timed_state(sc)
        assert validate_density(timed.rho).ok
        np.testing.assert_allclose(trace_out_timers(timed).rho, build_tl_fuzzy(sc).rho, atol=1e-10)
        ref = joint_time_distribution(sc.timing.profile_a, sc.timing.profile_b, "TL")
        np.testing.assert_allclose(timer_distribution(timed).table, ref.table, atol=1e-10)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=10)
def test_timed_sl_reduces_to_fuzzy_and_profile_table(seed):
    rng = rng_for(seed)
    sc = random_timed_sl_scenario(rng, n_bins=3)
    timed = build_timed_state(sc)
    assert validate_density(timed.rho).ok
    reduced = trace_out_timers(timed)
    np.testing.assert_allclose(reduced.rho, build_sl_fuzzy(sc).rho, atol=1e-10)
    ref = joint_time_distribution(sc.timing.profile_a, sc.timing.profile_b, "SL")
    np.testing.assert_allclose(timer_distribution(timed).table, ref.table, atol=1e-10)


def test_timed_delta_profiles_collapse_to_evolved_instant():
    rng = rng_for(31)
    grid = TimeGrid(t0=0.5, dt=0.4, n_bins=4)
    ham = random_hermitian(rng, 2)
    psi = random_ket(rng, 2)
    ba, bb = random_basis(rng, 2), random_basis(rng, 2)
    k0, lag = 1, 2
    sc = EventScenario(
        kind="TL", initial=psi, basis_a=ba, basis_b=bb, hamiltonian=ham,
        timing=EventTiming(
            profile_a=delta_profile(grid, k0),
            profile_b=delta_conditional(grid, lag),
        ),
    )
    reduced = trace_out_timers(build_timed_state(sc))
    sharp = EventScenario(
        kind="TL",
        initial=expm(-1j * ham * k0 * grid.dt) @ psi,
        basis_a=ba,
        basis_b=bb,
        evolution=expm(-1j * ham * lag * grid.dt),
    )
    np.testing.assert_allclose(reduced.rho, build_tl_instant(sharp).rho, atol=1e-10)
    table = timer_distribution(build_timed_state(sc)).table
    assert table[k0, k0 + lag] == pytest.approx(1.0, abs=1e-10)


def test_timed_sl_orderings_match_projection_oracle():
    # second fires before, with, and after the first; all three orders live
    # in one joint table
    rng = rng_for(33)
    grid = TimeGrid(t0=0.0, dt=0.3, n_bins=3)
    ham = random_hermitian(rng, 4)
    psi = random_ket(rng, 4)
    ba, bb = random_basis(rng, 2), random_basis(rng, 2)
    amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    sc = EventScenario(
        kind="SL", initial=psi, basis_a=ba, basis_b=bb, hamiltonian=ham,
        timing=EventTiming(joint_amplitudes=amps, joint_grid=grid),
    )
    timed = build_timed_state(sc)
    table = timer_distribution(timed).table
    cell = np.abs(sc.timing.joint_amplitudes) ** 2 * grid.dt**2
    expect = np.zeros((3, 3))
    for k in range(3):
        for l in range(3):
            u_early = expm(-1j * ham * (grid.times[min(k, l)] - grid.t0))
            u_mid = expm(-1j * ham * abs(grid.times[l] - grid.times[k]))
            vec = u_early @ psi
            total = 0.0
            for a in range(2):
                pa = np.kron(np.outer(ba.ket(a), ba.ket(a).conj()), np.eye(2))
                for b in range(2):
                    pb = np.kron(np.eye(2), np.outer(bb.ket(b), bb.ket(b).conj()))
                    if k < l:
                        branch = pb @ u_mid @ pa @ vec
                    elif l < k:
                        branch = pa @ u_mid @ pb @ vec
                    else:
                        branch = pa @ pb @ vec
                    total += float(np.real(branch.conj() @ branch))
            expect[k, l] = cell[k, l] * total
    np.testing.assert_allclose(table, expect, atol=1e-10)


def _timed_state_oracle(sc: EventScenario) -> np.ndarray:
    """Schrodinger-picture timer-register state, one expm per evolution leg."""
    grid = sc.timing.grid
    n, dt = grid.n_bins, grid.dt
    da, db = sc.dims
    ham = sc.hamiltonian
    proj_a = [np.outer(k, k.conj()) for k in sc.basis_a.kets]
    proj_b = [np.outer(k, k.conj()) for k in sc.basis_b.kets]
    if sc.kind == "SL":
        proj_a = [np.kron(p, np.eye(db)) for p in proj_a]
        proj_b = [np.kron(np.eye(da), p) for p in proj_b]
        cells = dt * sc.timing.joint_amplitudes
    else:
        cells = dt * sc.timing.profile_a.amplitudes[:, None] * sc.timing.profile_b.amplitudes
    cells = cells / np.sqrt(np.sum(np.abs(cells) ** 2))
    taus = grid.times - grid.t0
    vals, vecs = np.linalg.eigh(sc.initial_density())
    rho = np.zeros((n * da * n * db,) * 2, dtype=complex)
    for weight, psi in zip(vals, vecs.T):
        rows = []
        for k in range(n):
            for a in range(da):
                for l in range(n):
                    for b in range(db):
                        early, late = sorted((taus[k], taus[l]))
                        first, second = (proj_a[a], proj_b[b]) if l >= k else (proj_b[b], proj_a[a])
                        vec = (
                            expm(-1j * ham * late).conj().T
                            @ second
                            @ expm(-1j * ham * (late - early))
                            @ first
                            @ expm(-1j * ham * early)
                            @ psi
                        )
                        rows.append(cells[k, l] * vec)
        rows = np.array(rows)
        rho += weight * (rows @ rows.conj().T)
    return rho


def test_timed_state_matches_schrodinger_oracle():
    # a rank-2 initial state takes the pure-decomposition sum over two kets
    rng = rng_for(36)
    grid = TimeGrid(t0=0.3, dt=0.25, n_bins=8)
    tl = EventScenario(
        kind="TL", initial=random_density(rng, 2), basis_a=random_basis(rng, 2),
        basis_b=random_basis(rng, 2), hamiltonian=random_hermitian(rng, 2),
        timing=EventTiming(
            profile_a=random_marginal_profile(rng, grid),
            profile_b=random_conditional_profile(rng, grid),
        ),
    )
    assert len(tl.initial_kets()) == 2
    np.testing.assert_allclose(build_timed_state(tl).rho, _timed_state_oracle(tl), atol=1e-10)

    # a joint generator and a joint table put weight on l < k, l == k and l > k
    grid = TimeGrid(t0=-0.2, dt=0.3, n_bins=3)
    sl = EventScenario(
        kind="SL", initial=random_density(rng, 4, rank=2), basis_a=random_basis(rng, 2),
        basis_b=random_basis(rng, 2), hamiltonian=random_hermitian(rng, 4),
        timing=EventTiming(
            joint_amplitudes=rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
            joint_grid=grid,
        ),
    )
    assert len(sl.initial_kets()) == 2
    np.testing.assert_allclose(build_timed_state(sl).rho, _timed_state_oracle(sl), atol=1e-10)


def test_timed_dimension_bound():
    rng = rng_for(34)
    grid = TimeGrid(t0=0.0, dt=0.1, n_bins=9)  # (9*2)*(9*2) = 324 > 256
    sc = EventScenario(
        kind="TL", initial=random_ket(rng, 2),
        basis_a=MeasurementModel.sz(), basis_b=MeasurementModel.sz(),
        hamiltonian=np.zeros((2, 2)),
        timing=EventTiming(
            profile_a=random_marginal_profile(rng, grid),
            profile_b=random_conditional_profile(rng, grid),
        ),
    )
    with pytest.raises(ScenarioError):
        build_timed_state(sc)


def test_timer_helpers_reject_wrong_space():
    rng = rng_for(35)
    sharp = build_tl_instant(random_tl_scenario(rng))
    with pytest.raises(ScenarioError):
        trace_out_timers(sharp)
    with pytest.raises(ScenarioError):
        timer_distribution(sharp)
    timed = build_timed_state(random_timed_tl_scenario(rng, n_bins=2))
    with pytest.raises(ScenarioError):
        outcome_probabilities(timed)
    with pytest.raises(ScenarioError):
        conditional_decomposition(timed)


# --------------------------------------------------------------- decomposition


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=40)
def test_decomposition_reconstructs_state(seed):
    rng = rng_for(seed)
    if rng.integers(2):
        sc = random_tl_scenario(rng, int(rng.integers(2, 4)), mixed=bool(rng.integers(2)))
        state = build_tl_instant(sc)
    else:
        sc = random_sl_scenario(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        state = build_sl_instant(sc)
    decomp = conditional_decomposition(state)
    assert decomp.probs.sum() == pytest.approx(1.0, abs=1e-9)
    for b, sigma in enumerate(decomp.conditionals):
        if sigma is not None:
            assert validate_density(sigma).ok
        else:
            assert decomp.probs[b] == 0.0
    np.testing.assert_allclose(
        reconstruct_from_decomposition(decomp, state.dims[0]), state.rho, atol=1e-10
    )


def test_tl_pure_conditionals_match_branch_formula():
    rng = rng_for(44)
    sc = random_tl_scenario(rng, 3)
    state = build_tl_instant(sc)
    decomp = conditional_decomposition(state)
    assert decomp.pure
    psi = sc.initial
    for b in range(3):
        branch = np.array([
            (sc.basis_b.ket(b).conj() @ sc.evolution @ sc.basis_a.ket(a))
            * (sc.basis_a.ket(a).conj() @ psi)
            for a in range(3)
        ])
        p = float(np.sum(np.abs(branch) ** 2))
        assert decomp.probs[b] == pytest.approx(p, abs=1e-12)
        lam = decomp.lambdas[b]
        # equal up to the fixed phase convention
        overlap = abs(np.vdot(lam, branch / np.linalg.norm(branch)))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        lead = lam[np.flatnonzero(np.abs(lam) > 1e-12)[0]]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0.0


def test_empty_outcome_reported_as_none():
    # second basis aligned with the evolved first basis: one outcome per branch
    sc = EventScenario(
        kind="TL",
        initial=np.array([1.0, 0.0]),
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sz(),
    )
    decomp = conditional_decomposition(build_tl_instant(sc))
    assert decomp.probs[0] == pytest.approx(1.0)
    assert decomp.probs[1] == 0.0
    assert decomp.conditionals[1] is None
    assert decomp.lambdas[1] is None


def test_decomposition_rejects_cross_record_coherence():
    # a Bell state treated as a record state couples the two record slots
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    state = EventState(
        kind="TL", rho=bell, basis_a=MeasurementModel.sz(), basis_b=MeasurementModel.sz()
    )
    with pytest.raises(NumericsError):
        conditional_decomposition(state)


@pytest.mark.parametrize("seed", range(6))
def test_split_of_a_block_state_matches_the_scanned_split(seed):
    # one 1e-300 pair off the blocks sends validation to the dense eigensolver and
    # the split through its cross-record scan; the blocks it reads are the same
    rng = rng_for(seed)
    dim, mixed = int(rng.integers(2, 5)), bool(rng.integers(2))
    if seed % 2:
        state = build_tl_fuzzy(random_timed_tl_scenario(rng, dim=dim, mixed=mixed))
    else:
        state = build_tl_instant(random_tl_scenario(rng, dim, mixed=mixed))
    rho = np.array(state.rho)
    rho[0, 1] = rho[1, 0] = 1e-300
    scanned = EventState(kind="TL", rho=rho, basis_a=state.basis_a, basis_b=state.basis_b)
    assert state._in_blocks and not scanned._in_blocks
    block, scan = conditional_decomposition(state), conditional_decomposition(scanned)
    np.testing.assert_array_equal(block.probs, scan.probs)
    np.testing.assert_array_equal(block.sigmas, scan.sigmas)


def test_fuzzy_tl_conditionals_can_be_mixed():
    rng = rng_for(55)
    sc = random_timed_tl_scenario(rng, n_bins=4)
    decomp = conditional_decomposition(build_tl_fuzzy(sc))
    # averaging over firing times generally leaves mixed branches
    assert not decomp.pure
    assert decomp.lambdas is None


def test_independent_pairs_carry_no_branch_kets():
    # the one live conditional is pure, but branch kets belong to ordered pairs
    sc = EventScenario(
        kind="SL",
        initial=np.array([1.0, 0.0, 0.0, 0.0]),
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sz(),
    )
    decomp = conditional_decomposition(build_sl_instant(sc))
    np.testing.assert_array_equal(decomp.conditionals[0], np.diag([1.0, 0.0]))
    assert decomp.lambdas is None
    assert not decomp.pure


@pytest.mark.parametrize("dim", [2, 3], ids=["helstrom", "square-root"])
def test_each_state_is_split_once(dim):
    state = build_tl_instant(random_tl_scenario(rng_for(44), dim))
    decomp = conditional_decomposition(state)
    assert conditional_decomposition(state) is decomp
    predict_future_outcome(state)
    determinism_check(state)
    assert conditional_decomposition(state) is decomp


def test_sigmas_are_read_only_and_zero_where_an_outcome_never_fires():
    sc = EventScenario(
        kind="TL",
        initial=np.array([1.0, 0.0]),
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sz(),
    )
    decomp = conditional_decomposition(build_tl_instant(sc))
    assert decomp.sigmas.shape == (2, 2, 2)
    assert not decomp.sigmas.flags.writeable
    assert decomp.probs[1] == 0.0
    assert np.all(decomp.sigmas[1] == 0.0)
    np.testing.assert_array_equal(decomp.conditionals[0], decomp.sigmas[0])
    with pytest.raises(ValueError):
        decomp.sigmas[0, 0, 0] = 0.0


def test_split_failures_raise_on_every_call():
    timed = build_timed_state(random_timed_tl_scenario(rng_for(35), n_bins=2))
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    coherent = EventState(kind="TL", rho=bell, basis_a=MeasurementModel.sz(), basis_b=MeasurementModel.sz())
    for state, error in ((timed, ScenarioError), (coherent, NumericsError)):
        for _ in range(2):
            with pytest.raises(error):
                conditional_decomposition(state)


def test_event_state_validates_density_and_dims():
    sz = MeasurementModel.sz()
    with pytest.raises(NumericsError):
        EventState(kind="TL", rho=np.diag([1.5, -0.5, 0.0, 0.0]), basis_a=sz, basis_b=sz)
    with pytest.raises(ScenarioError):
        EventState(kind="TL", rho=np.eye(2) / 2, basis_a=sz, basis_b=sz)


def test_event_state_refuses_an_unknown_arrangement():
    sz = MeasurementModel.sz()
    with pytest.raises(ScenarioError, match="^kind must be 'SL' or 'TL', got 'XX'$"):
        EventState(kind="XX", rho=np.eye(4) / 4, basis_a=sz, basis_b=sz)


@pytest.mark.parametrize("kind", [np.array(["SL"]), np.array(["SL", "TL"])], ids=["one-element", "two-element"])
def test_an_arrangement_that_is_not_a_string_is_refused(kind):
    sz = MeasurementModel.sz()
    with pytest.raises(ScenarioError, match="^kind must be 'SL' or 'TL', got "):
        EventScenario(kind=kind, initial=np.eye(4)[0], basis_a=sz, basis_b=sz)
    with pytest.raises(ScenarioError, match="^kind must be 'SL' or 'TL', got "):
        EventState(kind=kind, rho=np.eye(4) / 4, basis_a=sz, basis_b=sz)


def test_each_state_space_is_read_only_by_its_own_readers():
    rng = rng_for(35)
    sharp = build_tl_instant(random_tl_scenario(rng))
    assert sharp.detector_rho is sharp.rho
    timed = build_timed_state(random_timed_tl_scenario(rng, n_bins=2))
    with pytest.raises(ScenarioError, match="trace out the timer registers first"):
        timed.detector_rho
    for reader in (trace_out_timers, timer_distribution):
        with pytest.raises(ScenarioError, match="state carries no timer registers"):
            reader(sharp)


@pytest.mark.parametrize("seed", range(6))
def test_swapping_the_factors_of_an_sl_build_transposes_its_probabilities(seed):
    rng = rng_for(seed)
    da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    scenario = random_sl_scenario(rng, da, db, mixed=bool(seed % 2))
    # SWAP maps |a>|b> on A x B to |b>|a> on B x A.
    swap = np.eye(da * db)[np.arange(da * db).reshape(da, db).T.ravel()]
    initial = scenario.initial
    initial = swap @ initial if initial.ndim == 1 else swap @ initial @ swap.T
    swapped = EventScenario(kind="SL", initial=initial, basis_a=scenario.basis_b, basis_b=scenario.basis_a)
    # Equal up to the order of the rounded sums, which the swap changes.
    np.testing.assert_allclose(
        outcome_probabilities(build_sl_instant(swapped)),
        outcome_probabilities(build_sl_instant(scenario)).T,
        rtol=0.0,
        atol=1e-14,
    )


def _traced_timed_state(scenario):
    return trace_out_timers(build_timed_state(scenario))


_BUILD_PATHS = {
    "tl-instant": ("TL", build_tl_instant),
    "sl-instant": ("SL", build_sl_instant),
    "tl-fuzzy": ("TL", build_tl_fuzzy),
    "sl-fuzzy": ("SL", build_sl_fuzzy),
    "tl-timed": ("TL", _traced_timed_state),
    "sl-timed": ("SL", _traced_timed_state),
}


def _random_build_case(rng, kind, build):
    """A scenario for ``build`` with record dims 2-4, pure or mixed, on 2-5 timing bins."""
    mixed = bool(rng.integers(2))
    da = int(rng.integers(2, 5))
    db = da if kind == "TL" else int(rng.integers(2, 5))
    if build in (build_tl_instant, build_sl_instant):
        return random_tl_scenario(rng, da, mixed) if kind == "TL" else random_sl_scenario(rng, da, db, mixed)
    # timer registers square the grid size into the state dimension
    max_bins = int(np.sqrt(ev.TIMED_DIM_BOUND // (da * db))) if build is _traced_timed_state else 5
    n_bins = int(rng.integers(2, min(5, max_bins) + 1))
    if kind == "TL":
        return random_timed_tl_scenario(rng, n_bins, da, mixed)
    return random_timed_sl_scenario(rng, n_bins, da, db, mixed)


@pytest.mark.parametrize("kind, build", _BUILD_PATHS.values(), ids=_BUILD_PATHS.keys())
@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=40)
def test_no_record_marginal_depends_on_the_later_or_distant_basis(kind, build, seed):
    # The causal order read from record statistics alone: the first record's
    # marginal ignores the second basis, and an independent pair's second
    # record ignores the first basis too (each factor of a timed SL scenario
    # evolves under its own generator; factors that interact could signal).
    rng = rng_for(seed)
    scenario = _random_build_case(rng, kind, build)
    probs = outcome_probabilities(build(scenario))
    da, db = scenario.dims
    other_b = outcome_probabilities(build(dataclasses.replace(scenario, basis_b=random_basis(rng, db))))
    np.testing.assert_allclose(other_b.sum(axis=1), probs.sum(axis=1), rtol=0.0, atol=1e-12)
    if kind == "SL":
        other_a = outcome_probabilities(build(dataclasses.replace(scenario, basis_a=random_basis(rng, da))))
        np.testing.assert_allclose(other_a.sum(axis=0), probs.sum(axis=0), rtol=0.0, atol=1e-12)


_GRID4 = TimeGrid(t0=0.0, dt=0.25, n_bins=4)
_SZ = MeasurementModel.sz()


def _mixed_dims_chsh_family():
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    qubits = build_sl_instant(chsh_scenarios(singlet, [0.0, 1.0], [0.5, 1.5])[0])
    qutrit_b = EventState(kind="SL", rho=np.eye(6) / 6, basis_a=_SZ, basis_b=MeasurementModel.computational(3))
    return [qubits, qubits, qubits, qutrit_b]


# (callable, error class, message) for input checks of the library that no
# other test reaches.
_INPUT_ERRORS = {
    "joint-table-shape": (
        lambda: tm.JointTimeDistribution(grid=_GRID4, kind="SL", table=np.full((3, 3), 1.0 / 9.0)),
        ValueError, "table needs shape",
    ),
    "joint-table-kind": (
        lambda: tm.JointTimeDistribution(grid=_GRID4, kind="XX", table=np.full((4, 4), 1.0 / 16.0)),
        ValueError, "kind must be 'SL' or 'TL'",
    ),
    "joint-amplitudes-without-grid": (
        lambda: EventTiming(joint_amplitudes=np.ones((4, 4))), ScenarioError, "needs a grid",
    ),
    "joint-amplitudes-non-finite": (
        lambda: EventTiming(joint_amplitudes=np.full((4, 4), np.nan), joint_grid=_GRID4),
        ScenarioError, "non-finite",
    ),
    "joint-amplitudes-without-mass": (
        lambda: EventTiming(joint_amplitudes=np.zeros((4, 4)), joint_grid=_GRID4),
        NumericsError, "carries no mass",
    ),
    "profile-shape": (
        lambda: TimingProfile(grid=_GRID4, kind="marginal", amplitudes=np.ones(3)), ValueError, "needs shape",
    ),
    "profile-non-finite": (
        lambda: TimingProfile(grid=_GRID4, kind="marginal", amplitudes=np.array([2.0, 0.0, 0.0, np.nan])),
        ValueError, "must be finite",
    ),
    "schedule-shape": (
        lambda: tm.BranchingSchedule(grid=_GRID4, step_probs=np.zeros(3), step_phases=np.zeros(3)),
        ValueError, "schedule arrays need shape",
    ),
    "schedule-certain-step": (
        lambda: tm.BranchingSchedule(grid=_GRID4, step_probs=np.full(4, 1.0), step_phases=np.zeros(4)),
        ValueError, r"must lie in \[0, 1\)",
    ),
    "schedule-non-finite-phase": (
        lambda: tm.BranchingSchedule(grid=_GRID4, step_probs=np.full(4, 0.01), step_phases=np.full(4, np.nan)),
        ValueError, "phases must be finite",
    ),
    "grid-decay-rate": (lambda: tm.exponential_grid(0.0, 0.1), ValueError, "decay rate must be positive"),
    "grid-tail-mass": (
        lambda: tm.exponential_grid(1.0, 0.1, tail_mass=1.0), ValueError, r"tail_mass must lie in \(0, 1\)",
    ),
    "negative-lag": (lambda: delta_conditional(_GRID4, -1), ValueError, "lag must be nonnegative"),
    "sl-fuzzy-of-ordered": (
        lambda: build_sl_fuzzy(random_timed_tl_scenario(rng_for(1))), ScenarioError, "independent events",
    ),
    "tl-fuzzy-of-independent": (
        lambda: build_tl_fuzzy(random_timed_sl_scenario(rng_for(1))), ScenarioError, "ordered events",
    ),
    "chsh-mixed-dims": (lambda: chsh_value(_mixed_dims_chsh_family()), ScenarioError, "share record dimensions"),
    "label-count": (
        lambda: MeasurementModel.from_kets(np.eye(2), [1.0]), ValueError, "one label per basis ket",
    ),
    "timing-type": (
        lambda: EventScenario(kind="TL", initial=np.array([1.0, 0.0]), basis_a=_SZ, basis_b=_SZ, timing="soon"),
        ScenarioError, "timing must be an EventTiming",
    ),
}


@pytest.mark.parametrize("make, error, message", _INPUT_ERRORS.values(), ids=_INPUT_ERRORS.keys())
def test_library_input_checks(make, error, message):
    with pytest.raises(error, match=message):
        make()
