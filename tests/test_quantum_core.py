import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eventstates import (
    MeasurementModel,
    NumericsError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_ket,
    bloch_pair,
    dephase,
    partial_trace,
    relative_entropy_of_coherence,
    shannon_entropy,
    tensor_product,
    trace_distance,
    validate_density,
    von_neumann_entropy,
)
from eventstates.quantum_core import as_ket, assert_density, assert_unitary, is_unitary, projector

from helpers import random_density, random_ket, random_unitary, rng_for


def test_pauli_algebra():
    eye = np.eye(2)
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        np.testing.assert_allclose(sigma @ sigma, eye, atol=1e-15)
    np.testing.assert_allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z, atol=1e-15)


def test_as_ket_rejects_unnormalized():
    with pytest.raises(NumericsError):
        as_ket([1.0, 1.0])
    with pytest.raises(ValueError):
        as_ket([[1.0], [0.0]])


def test_bloch_ket_endpoints():
    np.testing.assert_allclose(bloch_ket(0.0), [1, 0], atol=1e-15)
    np.testing.assert_allclose(bloch_ket(np.pi), [0, 1], atol=1e-15)
    # equator, azimuth pi/2 lands on +y
    np.testing.assert_allclose(bloch_ket(np.pi / 2, np.pi / 2), np.array([1, 1j]) / np.sqrt(2), atol=1e-15)


@given(st.integers(0, 2_000))
@settings(deadline=None, max_examples=50)
def test_bloch_pair_orthonormal(seed):
    rng = rng_for(seed)
    theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
    pair = bloch_pair(theta, phi)
    np.testing.assert_allclose(pair.conj() @ pair.T, np.eye(2), atol=1e-14)


def test_bloch_pair_broadcasts_over_array_angles():
    rng = rng_for(11)
    thetas, phis = rng.uniform(0, np.pi, 5), rng.uniform(0, 2 * np.pi, 7)
    grid = bloch_pair(thetas[:, None], phis)
    assert grid.shape == (5, 7, 2, 2)
    expect = np.array([[bloch_pair(t, p) for p in phis] for t in thetas])
    np.testing.assert_array_equal(grid, expect)
    np.testing.assert_array_equal(bloch_pair(thetas), [bloch_pair(t) for t in thetas])
    assert bloch_pair(0.4, 1.2).shape == (2, 2)
    assert bloch_pair(0.4).shape == (2, 2)


def test_partial_trace_product_state():
    rho_a = random_density(rng_for(1), 2)
    rho_b = random_density(rng_for(2), 3)
    joint = tensor_product(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, (2, 3), keep="A"), rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, (2, 3), keep="B"), rho_b, atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6) / 6, (2, 2))
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, (2, 2), keep="C")


def test_entropy_known_values():
    assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # H(1/4, 3/4) = 2 - (3/4) log2 3
    expect = 2.0 - 0.75 * np.log2(3.0)
    assert shannon_entropy([0.25, 0.75]) == pytest.approx(expect, abs=1e-12)


@given(st.integers(0, 2_000))
@settings(deadline=None, max_examples=50)
def test_entropy_unitary_invariance(seed):
    rng = rng_for(seed)
    dim = int(rng.integers(2, 5))
    rho = random_density(rng, dim)
    u = random_unitary(rng, dim)
    s1 = von_neumann_entropy(rho)
    s2 = von_neumann_entropy(u @ rho @ u.conj().T)
    assert 0.0 <= s1 <= np.log2(dim) + 1e-12
    assert s1 == pytest.approx(s2, abs=1e-9)


def test_entropy_rejects_negative_operator():
    with pytest.raises(NumericsError):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_trace_distance_orthogonal_states():
    assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)
    rho = random_density(rng_for(3), 3)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)


@given(st.integers(0, 2_000))
@settings(deadline=None, max_examples=50)
def test_dephase_fixes_diagonal_and_is_idempotent(seed):
    rng = rng_for(seed)
    dim = int(rng.integers(2, 5))
    rho = random_density(rng, dim)
    basis = MeasurementModel.from_kets(random_unitary(rng, dim), np.arange(dim, dtype=float))
    once = dephase(rho, basis)
    np.testing.assert_allclose(dephase(once, basis), once, atol=1e-12)
    np.testing.assert_allclose(np.trace(once), 1.0, atol=1e-12)
    # populations in the dephasing basis survive
    probs = np.einsum("mi,ij,mj->m", basis.kets.conj(), rho, basis.kets)
    probs2 = np.einsum("mi,ij,mj->m", basis.kets.conj(), once, basis.kets)
    np.testing.assert_allclose(probs2, probs, atol=1e-12)


def test_coherence_plus_state_is_one_bit():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert relative_entropy_of_coherence(projector(plus)) == pytest.approx(1.0, abs=1e-12)
    assert relative_entropy_of_coherence(np.diag([0.3, 0.7])) == pytest.approx(0.0, abs=1e-12)


@given(st.integers(0, 2_000))
@settings(deadline=None, max_examples=50)
def test_coherence_nonnegative_and_zero_in_eigenbasis(seed):
    rng = rng_for(seed)
    dim = int(rng.integers(2, 5))
    rho = random_density(rng, dim)
    assert relative_entropy_of_coherence(rho) >= 0.0
    vals, vecs = np.linalg.eigh(rho)
    eig_basis = MeasurementModel.from_kets(vecs.T, np.arange(dim, dtype=float))
    assert relative_entropy_of_coherence(rho, eig_basis) == pytest.approx(0.0, abs=1e-9)


def test_validate_density_reports_defects():
    check = validate_density(np.diag([0.6, 0.4]))
    assert check.ok and check.dim == 2
    bad = validate_density(np.diag([0.8, 0.8]))
    assert not bad.trace_ok and not bad.ok
    with pytest.raises(NumericsError):
        assert_density(np.diag([1.2, -0.2]))


def test_unitary_checks():
    assert is_unitary(random_unitary(rng_for(7), 4))
    assert not is_unitary(np.diag([1.0, 0.5]))
    with pytest.raises(NumericsError):
        assert_unitary(np.diag([1.0, 0.5]))


def test_measurement_model_validation():
    with pytest.raises(NumericsError):
        MeasurementModel.from_kets([[1.0, 0.0], [1.0, 0.0]], [1.0, -1.0])
    with pytest.raises(ValueError):
        MeasurementModel.from_kets(np.eye(2), [1.0, 1.0])
    model = MeasurementModel.sy()
    # +1 outcome of the y basis is (|0> + i|1>)/sqrt(2)
    np.testing.assert_allclose(model.ket(0), np.array([1.0, 1.0j]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(model.projector(0) @ model.ket(0), model.ket(0), atol=1e-15)
    assert model.labels[0] == 1.0


def test_measurement_model_refuses_non_finite_kets():
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementModel.from_axis_angle(np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementModel.from_kets([[1.0, 0.0], [0.0, np.nan]], [1.0, -1.0])


def test_axis_angle_basis_matches_bloch_pair():
    model = MeasurementModel.from_axis_angle(0.7, 1.3)
    np.testing.assert_allclose(model.kets, bloch_pair(0.7, 1.3), atol=1e-15)


def test_kets_are_read_only():
    model = MeasurementModel.sz()
    with pytest.raises(ValueError):
        model.kets[0, 0] = 2.0
