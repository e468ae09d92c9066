"""Discrimination, correlation, and determinism checks against brute oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventstates import inference
from eventstates import (
    EventScenario,
    EventState,
    MeasurementModel,
    NumericsError,
    ScenarioError,
    build_sl_instant,
    build_tl_instant,
    classical_correlation,
    conditional_decomposition,
    determinism_check,
    find_deterministic_basis,
    outcome_probabilities,
    helstrom_pure,
    helstrom_success,
    partial_trace,
    predict_future_outcome,
    reconstruct_from_decomposition,
    record_coherence,
    shannon_entropy,
    von_neumann_entropy,
)
from eventstates.quantum_core import PAULI_X, PAULI_Y, PAULI_Z, projector

from helpers import (
    random_basis,
    random_density,
    random_ket,
    random_sl_scenario,
    random_tl_scenario,
    random_unitary,
    rng_for,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
ZERO = np.array([1.0, 0.0])


def _bloch_vector(rho: np.ndarray) -> np.ndarray:
    return np.array([float(np.real(np.trace(s @ rho))) for s in (PAULI_X, PAULI_Y, PAULI_Z)])


def _projective_guess_oracle(p1, rho1, p2, rho2, n_theta=256, n_phi=512) -> float:
    # best success over rank-1 projective measurements plus the option of
    # ignoring the measurement and betting on the larger prior
    d = p1 * _bloch_vector(rho1) - p2 * _bloch_vector(rho2)
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    axes = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    )
    measured = 0.5 + 0.5 * np.abs(axes @ d)
    return max(float(measured.max()), max(p1, p2))


def test_known_qubit_pair_success():
    result = helstrom_success(0.5, projector(ZERO), 0.5, projector(PLUS))
    assert result.success == pytest.approx(0.8535533905932738, abs=1e-12)
    assert helstrom_pure(0.5, ZERO, 0.5, PLUS) == pytest.approx(result.success, abs=1e-12)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=40)
def test_mixed_state_success_matches_pure_closed_form(seed):
    rng = rng_for(seed)
    k1, k2 = random_ket(rng, 3), random_ket(rng, 3)
    p1 = float(rng.uniform(0.05, 0.95))
    result = helstrom_success(p1, projector(k1), 1.0 - p1, projector(k2))
    assert result.success == pytest.approx(helstrom_pure(p1, k1, 1.0 - p1, k2), abs=1e-12)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=10)
def test_success_matches_projective_scan(seed):
    rng = rng_for(seed)
    rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
    p1 = float(rng.uniform(0.1, 0.9))
    result = helstrom_success(p1, rho1, 1.0 - p1, rho2)
    oracle = _projective_guess_oracle(p1, rho1, 1.0 - p1, rho2)
    assert result.success >= oracle - 1e-9
    assert result.success == pytest.approx(oracle, abs=1e-4)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=25)
def test_reported_projector_attains_the_success(seed):
    rng = rng_for(seed)
    rho1, rho2 = random_density(rng, 3), random_density(rng, 3)
    p1 = float(rng.uniform(0.1, 0.9))
    result = helstrom_success(p1, rho1, 1.0 - p1, rho2)
    eye = np.eye(3)
    attained = p1 * np.trace(result.projector @ rho1) + (1.0 - p1) * np.trace(
        (eye - result.projector) @ rho2
    )
    assert float(np.real(attained)) == pytest.approx(result.success, abs=1e-10)


def test_rejects_unnormalized_priors():
    with pytest.raises(ValueError, match="priors"):
        helstrom_success(0.6, projector(ZERO), 0.6, projector(PLUS))
    with pytest.raises(ValueError, match="priors"):
        helstrom_success(-0.2, projector(ZERO), 1.2, projector(PLUS))


@pytest.mark.parametrize(
    "p1, p2",
    [(np.nan, np.nan), (0.5, np.nan), (np.nan, 0.5), (-0.2, 1.2), (0.6, 0.6), (np.inf, -np.inf)],
    ids=["both-nan", "second-nan", "first-nan", "negative", "not-summing", "infinite"],
)
def test_both_helstrom_forms_refuse_bad_priors(p1, p2):
    # a NaN prior fails every comparison, so each guard must be written to fail on it
    with pytest.raises(ValueError, match="priors must be nonnegative and sum to 1"):
        helstrom_success(p1, projector(ZERO), p2, projector(PLUS))
    with pytest.raises(ValueError, match="priors must be nonnegative and sum to 1"):
        helstrom_pure(p1, ZERO, p2, PLUS)


def _deterministic_scenario() -> EventScenario:
    # |+x> prepared, z record taken, quarter turn about x, y record taken:
    # the y outcome is a function of the z record
    u = (np.cos(np.pi / 4) * np.eye(2) + 1j * np.sin(np.pi / 4) * PAULI_X).astype(complex)
    return EventScenario(
        kind="TL",
        initial=PLUS,
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sy(),
        evolution=u,
    )


def test_prediction_is_certain_for_orthogonal_conditionals():
    report = predict_future_outcome(build_tl_instant(_deterministic_scenario()))
    assert report.exact
    assert report.success == pytest.approx(1.0, abs=1e-12)


def test_prediction_single_live_outcome_is_trivial():
    scenario = EventScenario(
        kind="TL",
        initial=ZERO,
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sz(),
    )
    report = predict_future_outcome(build_tl_instant(scenario))
    assert report.success == 1.0
    assert report.exact
    assert report.projector is None


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=25)
def test_prediction_two_outcomes_reports_exact_value(seed):
    rng = rng_for(seed)
    state = build_tl_instant(random_tl_scenario(rng))
    report = predict_future_outcome(state)
    assert report.exact
    assert 0.5 - 1e-12 <= report.success <= 1.0 + 1e-12


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=15)
def test_prediction_beyond_two_outcomes_is_flagged_achievable(seed):
    rng = rng_for(seed)
    state = build_tl_instant(random_tl_scenario(rng, dim=3))
    report = predict_future_outcome(state)
    probs = np.array(
        [
            float(np.real(np.trace(state.rho.reshape(3, 3, 3, 3)[:, b, :, b])))
            for b in range(3)
        ]
    )
    assert not report.exact
    assert report.projector is None
    # square-root measurement is achievable, so it can only undershoot the
    # optimum; it still beats squared guessing of the best prior
    assert probs.max() ** 2 - 1e-12 <= report.success <= 1.0 + 1e-12
    assert report.pairwise.shape == (3, 3)
    assert np.allclose(report.pairwise, report.pairwise.T, atol=1e-12)
    live = [b for b in range(3) if probs[b] > 0.0]
    for i in live:
        for j in live:
            if i < j:
                assert 0.5 - 1e-12 <= report.pairwise[i, j] <= 1.0 + 1e-12


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=30)
def test_square_root_and_pairwise_values_match_their_longhand_forms(seed):
    rng = rng_for(seed)
    dim = int(rng.integers(3, 7))
    state = build_tl_instant(random_tl_scenario(rng, dim, mixed=bool(rng.integers(2))))
    report = predict_future_outcome(state)
    decomp = conditional_decomposition(state)
    probs, sigmas = decomp.probs, decomp.sigmas
    live = [b for b in range(dim) if probs[b] > 0.0]
    assert len(live) >= 3 and not report.exact
    # sum_b Tr[(R p_b sigma_b R) p_b sigma_b] with R the inverse root of the average, one outcome at a time
    vals, vecs = np.linalg.eigh(sum(probs[b] * sigmas[b] for b in live))
    inv_root = sum(projector(vecs[:, i]) / np.sqrt(vals[i]) for i in range(dim) if vals[i] > 1e-14)
    srm = 0.0
    for b in live:
        weighted = probs[b] * sigmas[b]
        srm += float(np.real(np.trace((inv_root @ weighted @ inv_root) @ weighted)))
    assert report.success == pytest.approx(min(srm, 1.0), abs=1e-12)
    for i in live:
        for j in live:
            if i < j:
                scale = probs[i] + probs[j]
                expect = helstrom_success(probs[i] / scale, sigmas[i], probs[j] / scale, sigmas[j])
                assert report.pairwise[i, j] == report.pairwise[j, i]
                assert report.pairwise[i, j] == pytest.approx(expect.success, abs=1e-12)


def _cc_oracle(rho: np.ndarray, n_theta: int = 100, n_phi: int = 200) -> float:
    # plain-loop scan over first-record bases, written out longhand
    db = rho.shape[0] // 2
    rho4 = rho.reshape(2, db, 2, db)
    rho_b = np.einsum("aBaC->BC", rho4)

    def entropy(mat):
        vals = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
        vals = vals[vals > 1e-15]
        return float(-(vals * np.log2(vals)).sum())

    base = entropy(rho_b)
    best = 0.0
    for theta in np.linspace(0.0, np.pi, n_theta):
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        for phi in np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False):
            kets = (
                np.array([c, np.exp(1j * phi) * s]),
                np.array([-np.exp(-1j * phi) * s, c]),
            )
            value = base
            for ket in kets:
                block = np.einsum("a,abAB,A->bB", ket.conj(), rho4, ket)
                mass = float(np.real(np.trace(block)))
                if mass > 1e-12:
                    value -= mass * entropy(block / mass)
            best = max(best, value)
    return best


def test_classical_correlation_matches_coarse_scan():
    rng = rng_for(77)
    for _ in range(2):
        state = build_tl_instant(random_tl_scenario(rng, mixed=True))
        ours = classical_correlation(state).bits
        oracle = _cc_oracle(state.rho)
        assert ours >= oracle - 5e-4
        assert ours == pytest.approx(oracle, abs=2e-3)


def test_classical_correlation_vanishes_on_product_states():
    rng = rng_for(3)
    ket = np.kron(random_ket(rng, 2), random_ket(rng, 2))
    scenario = EventScenario(
        kind="SL",
        initial=ket,
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sz(),
    )
    value = classical_correlation(build_sl_instant(scenario)).bits
    assert abs(value) <= 1e-9


def test_classically_correlated_records_score_one_bit():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    scenario = EventScenario(
        kind="SL",
        initial=bell,
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sz(),
    )
    value = classical_correlation(build_sl_instant(scenario)).bits
    assert value == pytest.approx(1.0, abs=1e-9)


def test_commuting_records_shortcut_follows_the_diagonal_rule(monkeypatch):
    # -0.0 off the diagonal leaves the state diagonal, so C_A = I(A:B) without a search;
    # 1e-300 there does not, so the Bloch search runs and finds the same value
    searches = []
    minimize = inference.minimize
    monkeypatch.setattr(inference, "minimize", lambda *args, **kwargs: searches.append(1) or minimize(*args, **kwargs))
    joint = np.array([[0.4, 0.1], [0.2, 0.3]])
    mutual = shannon_entropy(joint.sum(axis=1)) + shannon_entropy(joint.sum(axis=0)) - shannon_entropy(joint.ravel())
    rho = np.diag(joint.ravel()).astype(complex)
    rho[0, 3] = rho[3, 0] = -0.0
    report = classical_correlation(EventState("SL", rho, MeasurementModel.sz(), MeasurementModel.sz()))
    assert searches == []
    assert report.bits == pytest.approx(mutual, abs=1e-15)
    np.testing.assert_array_equal(report.basis.kets, np.eye(2))
    rho[0, 3] = rho[3, 0] = 1e-300
    searched = classical_correlation(EventState("SL", rho, MeasurementModel.sz(), MeasurementModel.sz()))
    assert searches == [1]
    assert searched.bits == pytest.approx(mutual, abs=1e-9)


def test_deterministic_pair_recovers_the_full_bit():
    value = classical_correlation(build_tl_instant(_deterministic_scenario())).bits
    assert value == pytest.approx(1.0, abs=1e-9)


def test_correlation_report_basis_attains_its_value():
    rng = rng_for(21)
    state = build_tl_instant(random_tl_scenario(rng, mixed=True))
    report = classical_correlation(state)
    replay = classical_correlation(state, measurements=[report.basis])
    assert replay.bits == pytest.approx(report.bits, abs=1e-10)
    assert replay.basis is report.basis


def test_correlation_report_points_at_the_record_basis():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    scenario = EventScenario(
        kind="SL",
        initial=bell,
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sz(),
    )
    report = classical_correlation(build_sl_instant(scenario))
    # extracting the full bit forces the z axis, up to outcome ordering
    weights = np.max(np.abs(report.basis.kets) ** 2, axis=1)
    assert weights == pytest.approx([1.0, 1.0], abs=1e-5)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=10)
def test_classical_correlation_respects_entropy_bound(seed):
    rng = rng_for(seed)
    state = build_tl_instant(random_tl_scenario(rng, mixed=bool(rng.integers(2))))
    value = classical_correlation(state).bits
    bound = von_neumann_entropy(partial_trace(state.rho, (2, 2), keep="B"))
    assert -1e-9 <= value <= bound + 1e-9


def test_large_first_records_need_explicit_bases():
    rng = rng_for(11)
    state = build_tl_instant(random_tl_scenario(rng, dim=3))
    with pytest.raises(ValueError, match="explicit"):
        classical_correlation(state)
    candidates = [MeasurementModel.computational(3), random_basis(rng, 3)]
    value = classical_correlation(state, measurements=candidates).bits
    bound = von_neumann_entropy(partial_trace(state.rho, (3, 3), keep="B"))
    assert -1e-9 <= value <= bound + 1e-9


@pytest.mark.parametrize("da, db", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_large_commuting_first_records_need_no_candidates(da, db):
    for seed in range(5):
        state = build_sl_instant(random_sl_scenario(rng_for(seed), da, db, mixed=bool(seed % 2)))
        p = outcome_probabilities(state)
        mutual = shannon_entropy(p.sum(axis=0)) + shannon_entropy(p.sum(axis=1)) - shannon_entropy(p)
        bits = classical_correlation(state).bits
        assert bits == pytest.approx(mutual, abs=1e-12)
        assert bits <= shannon_entropy(p.sum(axis=0)) + 1e-12


def test_diagonal_ordered_qutrit_scores_zero_without_candidates():
    computational = MeasurementModel.computational(3)
    scenario = EventScenario(kind="TL", initial=np.eye(3)[0], basis_a=computational, basis_b=computational)
    assert classical_correlation(build_tl_instant(scenario)).bits == 0.0


def test_classical_correlation_wants_detector_only_states():
    rng = rng_for(5)
    from eventstates import build_timed_state
    from helpers import random_timed_tl_scenario

    state = build_timed_state(random_timed_tl_scenario(rng))
    with pytest.raises(ScenarioError, match="timer"):
        classical_correlation(state)


def test_determinism_detects_orthogonal_records():
    report = determinism_check(build_tl_instant(_deterministic_scenario()))
    assert report.deterministic
    assert report.max_overlap < 1e-10
    assert np.allclose(report.gram, np.eye(2), atol=1e-5)


def test_determinism_flags_overlapping_records():
    scenario = EventScenario(
        kind="TL",
        initial=ZERO,
        basis_a=MeasurementModel.sz(),
        basis_b=MeasurementModel.sx(),
    )
    report = determinism_check(build_tl_instant(scenario))
    assert not report.deterministic
    assert report.max_overlap == pytest.approx(1.0, abs=1e-12)
    assert report.gram == pytest.approx(np.ones((2, 2)), abs=1e-9)


def test_determinism_is_an_ordered_pair_question():
    rng = rng_for(9)
    with pytest.raises(ScenarioError, match="ordered"):
        determinism_check(build_sl_instant(random_sl_scenario(rng)))


def test_basis_search_recovers_the_working_basis():
    scenario = _deterministic_scenario()
    result = find_deterministic_basis(PLUS, scenario.evolution, MeasurementModel.sy())
    assert result.found
    assert result.residual <= 1e-6
    rebuilt = EventScenario(
        kind="TL",
        initial=PLUS,
        basis_a=result.basis,
        basis_b=MeasurementModel.sy(),
        evolution=scenario.evolution,
    )
    assert determinism_check(build_tl_instant(rebuilt)).deterministic


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=10)
def test_some_first_basis_always_works_for_qubits(seed):
    # choosing the first basis unbiased to the initial ket makes the two
    # unnormalized conditionals cancel, so a working basis always exists
    rng = rng_for(seed)
    psi0 = random_ket(rng, 2)
    u = random_unitary(rng, 2)
    basis_b = random_basis(rng, 2)
    result = find_deterministic_basis(psi0, u, basis_b)
    assert result.found
    assert result.residual <= 1e-6
    rebuilt = EventScenario(
        kind="TL", initial=psi0, basis_a=result.basis, basis_b=basis_b, evolution=u
    )
    assert determinism_check(build_tl_instant(rebuilt)).deterministic
    axis = _bloch_vector(projector(result.basis.kets[0]))
    assert abs(axis @ _bloch_vector(projector(psi0))) <= 1e-12


def test_closed_form_basis_is_exact_on_random_qubits():
    worst = 0.0
    for seed in range(2000):
        rng = rng_for(seed)
        psi0 = random_ket(rng, 2)
        u = random_unitary(rng, 2)
        basis_b = random_basis(rng, 2)
        worst = max(worst, find_deterministic_basis(psi0, u, basis_b).residual)
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "psi0, theta, phi",
    [
        (np.array([1.0, 0.0]), np.pi / 2, 0.0),  # r = +z: the whole equator works
        (np.array([0.0, 1.0]), np.pi / 2, 0.0),  # r = -z
        (PLUS, 0.0, 0.0),  # r = +x: the z axis itself works
        (np.array([1.0, 1.0j]) / np.sqrt(2.0), 0.0, 0.0),  # r = +y
    ],
)
def test_basis_search_tie_rule(psi0, theta, phi):
    result = find_deterministic_basis(psi0, None, MeasurementModel.sx())
    assert result.found
    assert result.theta == pytest.approx(theta, abs=1e-12)
    assert result.phi == pytest.approx(phi, abs=1e-12)


def test_basis_search_input_checks():
    rng = rng_for(21)
    with pytest.raises(ScenarioError, match="pure"):
        find_deterministic_basis(random_density(rng, 2), None, MeasurementModel.sz())
    with pytest.raises(ScenarioError, match="qubit"):
        find_deterministic_basis(random_ket(rng, 3), None, MeasurementModel.computational(3))


def _empty_outcome_state():
    # U3 (+) 1 never reaches level 3 and the initial ket has no weight there,
    # so the second outcome 3 never fires; three outcomes stay live
    rng = rng_for(41)
    u = np.eye(4, dtype=complex)
    u[:3, :3] = random_unitary(rng, 3)
    first = np.eye(4, dtype=complex)
    first[:3, :3] = random_unitary(rng, 3)
    psi = np.zeros(4, dtype=complex)
    psi[:3] = random_ket(rng, 3)
    scenario = EventScenario(
        kind="TL",
        initial=psi,
        basis_a=MeasurementModel.from_kets(first, [0.0, 1.0, 2.0, 3.0]),
        basis_b=MeasurementModel.computational(4),
        evolution=u,
    )
    return build_tl_instant(scenario)


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8, "empty"])
def test_pairwise_table_matches_per_pair_helstrom(dim):
    if dim == "empty":
        state = _empty_outcome_state()
    else:
        state = build_tl_instant(random_tl_scenario(rng_for(600 + dim), dim=dim, mixed=True))
    report = predict_future_outcome(state)
    decomp = conditional_decomposition(state)
    probs, sigmas = decomp.probs, decomp.conditionals
    for i in range(probs.size):
        for j in range(probs.size):
            if i == j:
                assert report.pairwise[i, j] == 1.0
            elif sigmas[i] is None or sigmas[j] is None:
                assert np.isnan(report.pairwise[i, j])
            else:
                scale = probs[i] + probs[j]
                expect = helstrom_success(probs[i] / scale, sigmas[i], probs[j] / scale, sigmas[j])
                assert report.pairwise[i, j] == pytest.approx(expect.success, abs=1e-12)
    assert (dim == "empty") == any(s is None for s in sigmas)


def test_empty_outcome_among_several_is_left_out():
    state = _empty_outcome_state()
    four = state.rho.reshape(4, 4, 4, 4)
    probs = [float(np.real(np.trace(four[:, b, :, b]))) for b in range(4)]
    assert probs[3] == 0.0
    sigmas = [four[:, b, :, b] / probs[b] for b in range(3)]

    decomp = conditional_decomposition(state)
    assert decomp.conditionals[3] is None and decomp.lambdas[3] is None
    np.testing.assert_allclose(decomp.probs, probs, atol=1e-12)
    for b in range(3):
        np.testing.assert_allclose(decomp.conditionals[b], sigmas[b], atol=1e-12)
        lam = decomp.lambdas[b]
        np.testing.assert_allclose(np.outer(lam, lam.conj()), sigmas[b], atol=1e-12)
    np.testing.assert_allclose(reconstruct_from_decomposition(decomp, 4), state.rho, atol=1e-12)

    report = predict_future_outcome(state)
    assert not report.exact
    assert np.all(np.isnan(report.pairwise[3, :3]))
    assert np.all(np.isnan(report.pairwise[:3, 3]))
    np.testing.assert_array_equal(np.diag(report.pairwise), 1.0)
    # square-root measurement and the pairwise Helstrom values, longhand
    rho_bar = sum(p * s for p, s in zip(probs, sigmas))
    vals, vecs = np.linalg.eigh(rho_bar)
    inv_root = sum(
        projector(vecs[:, i]) / np.sqrt(vals[i]) for i in range(4) if vals[i] > 1e-14
    )
    srm = 0.0
    for p, s in zip(probs, sigmas):
        srm += float(np.real(np.trace(inv_root @ (p * s) @ inv_root @ (p * s))))
    assert report.success == pytest.approx(srm, abs=1e-12)
    for i in range(3):
        for j in range(3):
            if i != j:
                pi, pj = probs[i] / (probs[i] + probs[j]), probs[j] / (probs[i] + probs[j])
                gap = pi * sigmas[i] - pj * sigmas[j]
                expect = 0.5 * (1.0 + np.sum(np.abs(np.linalg.eigvalsh(gap))))
                assert report.pairwise[i, j] == pytest.approx(expect, abs=1e-12)

    det = determinism_check(state)
    assert np.all(det.gram[3] == 0.0) and np.all(det.gram[:, 3] == 0.0)
    overlaps = [
        [float(np.real(np.trace(sigmas[i] @ sigmas[j]))) for j in range(3)] for i in range(3)
    ]
    np.testing.assert_allclose(det.gram[:3, :3], np.sqrt(np.clip(overlaps, 0.0, None)), atol=1e-12)
    worst = max(overlaps[i][j] for i in range(3) for j in range(3) if i != j)
    assert det.max_overlap == pytest.approx(worst, abs=1e-12)


@pytest.mark.parametrize(
    "initial, evolution, error",
    [
        (ZERO, 2.0 * np.eye(2), "evolution is not unitary"),
        (2.0 * ZERO, None, "initial state is not normalized"),
    ],
    ids=["non-unitary-evolution", "unnormalized-ket"],
)
def test_basis_search_checks_its_ket_and_evolution(initial, evolution, error):
    with pytest.raises(NumericsError, match=error):
        find_deterministic_basis(initial, evolution, MeasurementModel.sx())


def test_reconstruction_refuses_a_wrong_first_record_dimension():
    decomp = conditional_decomposition(build_tl_instant(random_tl_scenario(rng_for(4), 3)))
    with pytest.raises(ScenarioError, match="3-dim first records, not 2"):
        reconstruct_from_decomposition(decomp, 2)


# Relabelling the second record (its kets and labels permuted together) names
# the same measurement, so nothing read off the first record may move.
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@pytest.mark.parametrize("dim, perm", [(2, [1, 0]), (3, [1, 2, 0]), (3, [2, 1, 0])])
def test_permuting_the_second_basis_changes_no_first_record_figure(dim, perm, mixed, seed):
    rng = rng_for(seed)
    scenario = random_tl_scenario(rng, dim, mixed=mixed)
    candidates = None if dim == 2 else [MeasurementModel.computational(3), random_basis(rng, 3)]
    basis_b = MeasurementModel(kets=scenario.basis_b.kets[perm], labels=scenario.basis_b.labels[perm])

    def figures(state):
        return [
            record_coherence(state),
            predict_future_outcome(state).success,
            determinism_check(state).max_overlap,
            classical_correlation(state, measurements=candidates).bits,
        ]

    before = figures(build_tl_instant(scenario))
    after = figures(build_tl_instant(dataclasses.replace(scenario, basis_b=basis_b)))
    assert after == pytest.approx(before, abs=1e-12)


def test_classical_correlation_is_the_projective_optimum_not_the_povm_one():
    # Three equally likely trine conditionals of a qubit first record.  The
    # best projective readout gains 0.459148 bit about the second record; the
    # anti-trine POVM, elements (2/3)|t_k-perp><t_k-perp|, gains log2(3) - 1.
    trine = np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)] for k in range(3)])
    rho = sum(np.kron(projector(t), np.diag(np.eye(3)[b])) for b, t in enumerate(trine)) / 3.0
    state = EventState(kind="TL", rho=rho, basis_a=MeasurementModel.sz(), basis_b=MeasurementModel.computational(3))
    bits = classical_correlation(state).bits
    assert bits == pytest.approx(0.459148, abs=1e-6)

    perp = np.stack([trine[:, 1], -trine[:, 0]], axis=1)
    povm = [2.0 / 3.0 * projector(k) for k in perp]
    assert sum(povm) == pytest.approx(np.eye(2), abs=1e-12)
    joint = np.array([[np.real(np.trace(e @ projector(t))) / 3.0 for e in povm] for t in trine])  # p(b, k)
    mutual = sum(
        p * np.log2(p / (joint.sum(axis=1)[b] * joint.sum(axis=0)[k]))
        for (b, k), p in np.ndenumerate(joint)
        if p > 0.0
    )
    assert mutual == pytest.approx(np.log2(3.0) - 1.0, abs=1e-12)
    assert bits < mutual - 0.1
