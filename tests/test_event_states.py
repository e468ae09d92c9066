import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from eventstates import (
    EventScenario,
    EventState,
    EventTiming,
    MeasurementModel,
    NumericsError,
    ScenarioError,
    TimeGrid,
    build_event_state,
    build_sl_fuzzy,
    build_sl_instant,
    build_timed_state,
    build_tl_fuzzy,
    build_tl_instant,
    conditional_decomposition,
    delta_conditional,
    delta_profile,
    exponential_conditional,
    exponential_profile,
    joint_time_distribution,
    outcome_probabilities,
    reconstruct_from_decomposition,
    timer_distribution,
    trace_out_timers,
    validate_density,
)

from helpers import (
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


def test_fuzzy_tl_conditionals_can_be_mixed():
    rng = rng_for(55)
    sc = random_timed_tl_scenario(rng, n_bins=4)
    decomp = conditional_decomposition(build_tl_fuzzy(sc))
    # averaging over firing times generally leaves mixed branches
    assert not decomp.pure
    assert decomp.lambdas is None


def test_event_state_validates_density_and_dims():
    sz = MeasurementModel.sz()
    with pytest.raises(NumericsError):
        EventState(kind="TL", rho=np.diag([1.5, -0.5, 0.0, 0.0]), basis_a=sz, basis_b=sz)
    with pytest.raises(ScenarioError):
        EventState(kind="TL", rho=np.eye(2) / 2, basis_a=sz, basis_b=sz)
