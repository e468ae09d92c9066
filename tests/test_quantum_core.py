import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eventstates import (
    DensityCheck,
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
from eventstates.policy import HERMITICITY_TOL, PSD_TOL, TRACE_TOL
from eventstates.quantum_core import (
    _density_check,
    _pieces,
    _record_blocks,
    as_ket,
    as_operator,
    assert_density,
    assert_unitary,
    is_unitary,
    projector,
)

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
    assert math.copysign(1.0, shannon_entropy([1.0])) == 1.0


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


def test_entropy_reads_the_hermitian_part():
    # the Hermitian part of [[0.5, 0.1], [-0.1, 0.5]] is diag(0.5, 0.5), so its spectrum is read off the diagonal
    assert von_neumann_entropy([[0.5, 0.1], [-0.1, 0.5]]) == 1.0


def test_entropy_names_the_negative_eigenvalue():
    message = "^operator is not positive semidefinite: min eigenvalue -5.000e-01$"
    with pytest.raises(NumericsError, match=message):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_entropy_of_entries_near_the_float_maximum_names_their_eigenvalue():
    # the Hermitian part is halved before adding, so 1e308 + 1e308 never overflows to inf
    with pytest.raises(NumericsError, match="min eigenvalue -1.000e\\+308$"):
        von_neumann_entropy([[1.0, 1e308], [1e308, 1.0]])


@pytest.mark.parametrize("shape", [(2, 3), (0, 0)])
def test_as_operator_refuses_a_non_square_or_empty_array(shape):
    with pytest.raises(ValueError, match=f"^rho must be a square matrix, got shape {re.escape(str(shape))}$"):
        as_operator(np.zeros(shape), name="rho")


def test_as_ket_refuses_non_finite_entries():
    with pytest.raises(ValueError, match="^ket has non-finite entries$"):
        as_ket([np.nan, 1.0])


def test_entropy_of_no_weight_is_exactly_zero():
    value = shannon_entropy([0.0, 0.0])
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("measure", [dephase, relative_entropy_of_coherence])
def test_a_basis_of_another_dimension_is_refused(measure):
    message = "^basis dimension 3 does not match operator dimension 2$"
    with pytest.raises(ValueError, match=message):
        measure(np.eye(2) / 2.0, MeasurementModel.computational(3))


def test_trace_distance_orthogonal_states():
    assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)
    rho = random_density(rng_for(3), 3)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_trace_distance_refuses_mismatched_dimensions():
    with pytest.raises(ValueError, match="dimension mismatch"):
        trace_distance(np.eye(2) / 2.0, np.eye(3) / 3.0)


def test_dephasing_without_a_basis_keeps_the_computational_diagonal():
    rho = random_density(rng_for(4), 3)
    np.testing.assert_array_equal(dephase(rho), np.diag(np.diag(rho)))


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


def _eigvalsh_check(mat: np.ndarray) -> DensityCheck:
    """validate_density's report with the minimum eigenvalue always taken from eigvalsh."""
    adjoint = mat.conj().T
    herm = float(np.max(np.abs(mat - adjoint)))
    trace = float(abs(np.trace(mat) - 1.0))
    low = float(np.linalg.eigvalsh(0.5 * mat + 0.5 * adjoint).min())
    return DensityCheck(
        dim=mat.shape[0],
        hermiticity_defect=herm,
        trace_defect=trace,
        min_eigenvalue=low,
        hermitian_ok=herm <= HERMITICITY_TOL,
        trace_ok=trace <= TRACE_TOL,
        psd_ok=low >= -PSD_TOL,
    )


def test_validate_density_of_a_diagonal_matches_eigvalsh():
    # negative, complex (non-Hermitian), zero and signed-zero diagonals
    diagonals = [[0.0, -0.0, 1.0], [-0.0, -0.0], [1.0, -1e-300, 0.0]]
    for seed in range(12):
        rng = rng_for(seed)
        dim = int(rng.integers(1, 7))
        real = rng.dirichlet(np.ones(dim)) if seed % 2 else rng.normal(size=dim)
        entries = real + 1j * (rng.normal(size=dim) if seed % 3 == 0 else 0.0)
        entries[rng.random(dim) < 0.3] = rng.choice([0.0, -0.0])
        diagonals.append(entries)
    for entries in diagonals:
        mat = np.diag(np.asarray(entries, dtype=complex))
        assert validate_density(mat) == _eigvalsh_check(mat)


def test_one_tiny_off_diagonal_entry_takes_the_eigensolver():
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 1] = mat[1, 0] = 1e-300
    check = validate_density(mat)
    assert check == _eigvalsh_check(mat)
    assert check.min_eigenvalue < 0.0  # the diagonal alone would read 0


def _block_state(blocks: np.ndarray) -> np.ndarray:
    """sum_b blocks[b] (x) |b><b| on record_a x record_b, written entry by entry."""
    db, da = blocks.shape[:2]
    mat = np.zeros((da * db, da * db), dtype=complex)
    for b in range(db):
        mat[b::db, b::db] = blocks[b]
    return mat


def _random_blocks(rng, da: int, db: int) -> np.ndarray:
    probs = rng.dirichlet(np.ones(db))
    return np.stack([p * random_density(rng, da, rank=int(rng.integers(1, da + 1))) for p in probs])


@pytest.mark.parametrize("fault", ["none", "negative-block", "non-hermitian-block"])
@pytest.mark.parametrize("seed", range(8))
def test_block_check_matches_eigvalsh(seed, fault):
    rng = rng_for(seed)
    da, db = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    blocks = _random_blocks(rng, da, db)
    b = int(rng.integers(db))
    if fault == "negative-block":
        blocks[b] -= 0.01 * np.eye(da)
    elif fault == "non-hermitian-block":
        blocks[b, 0, 1] += 1e-3
    mat = _block_state(blocks)
    check, vals, in_blocks = _density_check(mat, db)
    dense = _eigvalsh_check(mat)
    assert in_blocks
    assert (check.hermitian_ok, check.trace_ok, check.psd_ok) == (dense.hermitian_ok, dense.trace_ok, dense.psd_ok)
    assert check.ok == (fault == "none")
    assert (check.hermiticity_defect, check.trace_defect) == (dense.hermiticity_defect, dense.trace_defect)
    assert abs(check.min_eigenvalue - dense.min_eigenvalue) <= 1e-14
    herm = 0.5 * mat + 0.5 * mat.conj().T
    np.testing.assert_allclose(np.sort(vals), np.linalg.eigvalsh(herm), rtol=0.0, atol=1e-14)
    # the public check keeps the dense eigensolver
    assert validate_density(mat) == dense


def test_one_tiny_entry_off_the_blocks_takes_the_eigensolver():
    da, db = 3, 2
    mat = _block_state(_random_blocks(rng_for(3), da, db))
    mat[0, 1] = mat[1, 0] = 1e-300  # records (a, b) = (0, 0) and (0, 1)
    check, vals, in_blocks = _density_check(mat, db)
    assert not in_blocks
    assert check == _eigvalsh_check(mat)
    np.testing.assert_array_equal(vals, np.linalg.eigvalsh(0.5 * mat + 0.5 * mat.conj().T))


def test_a_diagonal_takes_the_diagonal_rule_before_the_blocks():
    rng = rng_for(4)
    for da, db in ((2, 2), (3, 4), (5, 1)):
        probs = rng.dirichlet(np.ones(da * db))
        probs[rng.random(da * db) < 0.3] = 0.0
        mat = np.diag(probs / probs.sum()).astype(complex)
        check, vals, in_blocks = _density_check(mat, db)
        assert in_blocks
        assert check == _eigvalsh_check(mat)
        np.testing.assert_array_equal(vals, np.diagonal(mat).real)


def test_record_blocks_are_a_view_that_writes_the_old_fancy_index_layout():
    rng = rng_for(11)
    da, db = 3, 4
    blocks = rng.normal(size=(db, da, da)) + 1j * rng.normal(size=(db, da, da))
    mat = np.zeros((da * db, da * db), dtype=complex)
    view = _record_blocks(mat, db)
    assert np.shares_memory(view, mat)
    view[...] = blocks
    want = np.zeros((da, db, da, db), dtype=complex)
    idx = np.arange(db)
    want[:, idx, :, idx] = blocks
    np.testing.assert_array_equal(mat, want.reshape(da * db, da * db))
    np.testing.assert_array_equal(_record_blocks(mat, db), blocks)


def test_the_block_cut_of_pieces_is_a_view_of_its_input():
    da, db = 2, 3
    mat = _block_state(_random_blocks(rng_for(12), da, db))
    pieces = _pieces(mat, db)
    assert pieces.shape == (db, da, da)
    assert np.shares_memory(pieces, mat)


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


@pytest.mark.parametrize("labels", [[0.0, -0.0], [1.0, 1.0]])
def test_measurement_model_refuses_repeated_labels(labels):
    with pytest.raises(ValueError, match="outcome labels must be distinct"):
        MeasurementModel.from_kets(np.eye(2), labels)


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
