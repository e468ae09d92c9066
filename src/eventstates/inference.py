"""Predicting one record from the other: discrimination and correlation.

Given the joint record state of an event pair, how well can an observer who
holds only the first record guess the second outcome?  Two quantities answer
this:

* the optimal discrimination success probability between the first-record
  conditionals (exact for two hypotheses, an achievable square-root
  measurement bound otherwise), and
* the classical correlation: the entropy of the second record minus its
  average entropy conditioned on the best projective first-record readout.

For ordered qubit events there is additionally a closed-form choice of
first-measurement basis that makes the second outcome perfectly
predictable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .event_states import EventState, conditional_decomposition
from .policy import DETERMINISM_TOL, EIGENVALUE_FLOOR, EMPTY_BLOCK_FLOOR, PRIOR_SUM_TOL, ScenarioError
from .quantum_core import (
    MeasurementModel,
    _hermitian_part,
    _pieces,
    as_ket,
    assert_unitary,
    bloch_pair,
    partial_trace,
    von_neumann_entropy,
)

__all__ = [
    "HelstromResult",
    "PredictionReport",
    "CorrelationReport",
    "DeterminismReport",
    "BasisSearchResult",
    "helstrom_success",
    "helstrom_pure",
    "predict_future_outcome",
    "classical_correlation",
    "determinism_check",
    "find_deterministic_basis",
]


# Bloch-sphere search for the classical correlation: a theta-major coarse
# grid (theta in [0, pi] inclusive, phi in [0, 2 pi) exclusive, so ties
# resolve toward the smallest polar angle), then a simplex refinement.
THETA_POINTS = 64
PHI_POINTS = 128
REFINE_MAXITER = 200
REFINE_TOL = 1e-6


@dataclass(frozen=True)
class HelstromResult:
    """Optimal two-hypothesis discrimination outcome.

    ``projector`` projects onto the subspace where the first hypothesis is
    favored; guessing "first" on a click and "second" otherwise attains
    ``success``.
    """

    success: float
    projector: np.ndarray


def _check_priors(p1: float, p2: float) -> None:
    """Two-hypothesis priors are nonnegative and sum to 1; NaN fails, as it fails every comparison."""
    if not (p1 >= 0.0 and p2 >= 0.0 and abs(p1 + p2 - 1.0) <= PRIOR_SUM_TOL):
        raise ValueError(f"priors must be nonnegative and sum to 1, got {p1} and {p2}")


def helstrom_success(
    p1: float, rho1: np.ndarray, p2: float, rho2: np.ndarray
) -> HelstromResult:
    """Best success probability for telling two weighted states apart.

    Equals (1 + tracenorm(p1 rho1 - p2 rho2)) / 2, attained by measuring the
    sign of the weighted difference's Hermitian part.  Priors must sum to 1.
    """
    _check_priors(p1, p2)
    gap = p1 * np.asarray(rho1, dtype=complex) - p2 * np.asarray(rho2, dtype=complex)
    vals, vecs = np.linalg.eigh(_hermitian_part(gap))
    pos = vecs[:, vals > 0.0]
    return HelstromResult(success=float(_success(vals)), projector=pos @ pos.conj().T)


def _success(vals: np.ndarray) -> np.ndarray:
    """Helstrom success (1 + tracenorm(gap)) / 2, capped at 1, from the eigenvalues on the last axis."""
    return np.minimum(0.5 * (1.0 + np.sum(np.abs(vals), axis=-1)), 1.0)


def helstrom_pure(p1: float, ket1: np.ndarray, p2: float, ket2: np.ndarray) -> float:
    """Closed form of the two-state success probability for pure hypotheses.

    Priors must sum to 1, as for :func:`helstrom_success`.
    """
    _check_priors(p1, p2)
    overlap = abs(np.vdot(np.asarray(ket1, dtype=complex), np.asarray(ket2, dtype=complex))) ** 2
    radicand = max(1.0 - 4.0 * p1 * p2 * overlap, 0.0)
    return 0.5 * (1.0 + np.sqrt(radicand))


def _sqrt_pinv(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(_hermitian_part(rho))
    inv = np.where(vals > EIGENVALUE_FLOOR, 1.0 / np.sqrt(np.clip(vals, 1e-300, None)), 0.0)
    return (vecs * inv) @ vecs.conj().T


@dataclass(frozen=True)
class PredictionReport:
    """How well the second outcome can be guessed from the first record.

    ``exact`` is True when ``success`` is the optimal value (at most two
    outcomes carry mass); with more outcomes ``success`` is the achievable
    square-root-measurement value and ``pairwise[i, j]`` holds the exact
    two-hypothesis success for each supported pair.
    """

    success: float
    exact: bool
    projector: np.ndarray | None
    pairwise: np.ndarray | None


def predict_future_outcome(state: EventState) -> PredictionReport:
    """Optimal probability of predicting the second record from the first.

    Decomposes the state by the second outcome and discriminates the
    first-record conditionals with their outcome probabilities as priors.
    Beyond two live outcomes ``success`` is the square-root measurement's
    sum_b Tr[R p_b sigma_b R p_b sigma_b] with R = (sum_b p_b sigma_b)^(-1/2),
    and ``pairwise`` holds every live pair's Helstrom value from one batched ``eigvalsh``.
    """
    decomp = conditional_decomposition(state)
    probs, sigmas = decomp.probs, decomp.sigmas
    live = np.flatnonzero(probs > 0.0)
    if live.size <= 1:
        return PredictionReport(success=1.0, exact=True, projector=None, pairwise=None)
    if live.size == 2:
        # Other outcomes carry zero mass, so the two live priors sum to 1
        # up to the mass dropped with empty blocks.
        i, j = live
        scale = probs[i] + probs[j]
        result = helstrom_success(probs[i] / scale, sigmas[i], probs[j] / scale, sigmas[j])
        return PredictionReport(
            success=result.success, exact=True, projector=result.projector, pairwise=None
        )

    weighted = probs[:, None, None] * sigmas
    root = _sqrt_pinv(weighted.sum(axis=0))
    success = float(np.real(np.einsum("bij,bji->", root @ weighted @ root, weighted)))
    # helstrom_success of each live pair i < j from one eigvalsh of the stacked gaps
    # (p_i sigma_i - p_j sigma_j) / (p_i + p_j), Hermitian as the sigmas are: L(L-1)/2
    # da x da matrices for L live outcomes, 28 KB at L = da = 8 and 0.5 MB at 16.
    i, j = live[np.array(np.triu_indices(live.size, 1))]
    gaps = (weighted[i] - weighted[j]) / (probs[i] + probs[j])[:, None, None]
    pairwise = np.full((probs.size, probs.size), np.nan)
    pairwise[i, j] = pairwise[j, i] = _success(np.linalg.eigvalsh(gaps))
    np.fill_diagonal(pairwise, 1.0)
    return PredictionReport(
        success=min(success, 1.0), exact=False, projector=None, pairwise=pairwise
    )


def _plogp(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def _holevo_like(rho4: np.ndarray, kets: np.ndarray, entropy_b: float) -> np.ndarray:
    """Entropy drop of the second record given a batch of first-record bases.

    ``kets[n, o]`` is outcome ket o of basis n.  Returns, per basis, the
    second-record entropy minus the average conditional entropy.
    """
    blocks = np.einsum("noa,abAB,noA->nobB", kets.conj(), rho4, kets)
    probs = np.real(np.einsum("nobb->no", blocks))
    vals = np.linalg.eigvalsh(_hermitian_part(blocks))
    cond = np.sum(_plogp(probs), axis=1) - np.sum(_plogp(vals), axis=(1, 2))
    return entropy_b - cond


@dataclass(frozen=True)
class CorrelationReport:
    """Maximized entropy reduction on the second record, with its argmax.

    ``bits`` is the classical correlation; ``basis`` is the first-record
    measurement attaining it (ties resolve toward the smallest polar angle
    on the Bloch grid, or the earliest entry of an explicit candidate list).
    For commuting records it is the record basis, with the first record's labels.
    """

    bits: float
    basis: MeasurementModel


def classical_correlation(
    state: EventState,
    *,
    measurements: list[MeasurementModel] | None = None,
) -> CorrelationReport:
    """Classical correlation of the second record with the first, in bits.

    Maximizes S(rho_b) - sum_i p_i S(rho_b | i) over complete projective
    measurements of the first record: a lower bound on Henderson-Vedral's
    C_A, whose maximum over POVMs can exceed it once three or more second
    outcomes carry mass.  For ``rho`` diagonal in the record basis, the record
    basis meets the Holevo bound: C_A = I(A:B) of p(a, b), exact in any
    dimension.  Otherwise qubit first records are searched over the Bloch
    sphere (coarse grid plus a simplex refinement); larger records need
    ``measurements``, a list of candidate :class:`MeasurementModel` bases.
    """
    rho = state.detector_rho
    da, db = state.dims
    rho4 = rho.reshape(da, db, da, db)
    rho_b = partial_trace(rho, (da, db), keep="B")
    entropy_b = von_neumann_entropy(rho_b)

    if measurements is None and _pieces(rho).shape[-1] == 1:
        measurements = [MeasurementModel.from_kets(np.eye(da), state.basis_a.labels)]
    if measurements is not None:
        values = _holevo_like(rho4, np.stack([m.kets for m in measurements]), entropy_b)
        best = int(np.argmax(values))
        return CorrelationReport(bits=float(values[best]), basis=measurements[best])
    if da != 2:
        raise ScenarioError("first record is not a qubit; pass an explicit list of candidate measurements")

    thetas = np.linspace(0.0, np.pi, THETA_POINTS)
    phis = np.linspace(0.0, 2.0 * np.pi, PHI_POINTS, endpoint=False)
    grid = bloch_pair(thetas[:, None], phis).reshape(-1, 2, 2)
    values = _holevo_like(rho4, grid, entropy_b)
    best = int(np.argmax(values))
    best_value = float(values[best])
    x0 = np.array([thetas[best // PHI_POINTS], phis[best % PHI_POINTS]])

    def objective(x):
        return -float(_holevo_like(rho4, bloch_pair(x[0], x[1])[None], entropy_b)[0])

    options = {"maxiter": REFINE_MAXITER, "xatol": REFINE_TOL, "fatol": REFINE_TOL}
    refined = minimize(objective, x0, method="Nelder-Mead", options=options)
    if -float(refined.fun) > best_value:
        best_value, x0 = -float(refined.fun), refined.x
    return CorrelationReport(
        bits=best_value, basis=MeasurementModel.from_axis_angle(float(x0[0]), float(x0[1]))
    )


@dataclass(frozen=True)
class DeterminismReport:
    """Distinguishability of the first-record conditionals.

    ``max_overlap`` is the largest pairwise overlap Tr(sigma_b sigma_b')
    between supported conditionals; the pair is deterministic when every
    overlap sits below ``DETERMINISM_TOL``, i.e. the second outcome is
    readable from the first record without error.  ``gram`` holds the full
    pairwise picture on the amplitude scale, sqrt(Tr(sigma_b sigma_b')),
    which for pure conditionals is the magnitude of the ket overlap; rows
    of unsupported outcomes are zero.
    """

    deterministic: bool
    max_overlap: float
    gram: np.ndarray


def determinism_check(state: EventState) -> DeterminismReport:
    """Decide whether the second outcome is perfectly encoded in the first record."""
    if state.kind != "TL":
        raise ScenarioError("determinism of the second outcome only applies to ordered pairs")
    sigmas = conditional_decomposition(state).sigmas
    # Tr(sigma_b sigma_c) for Hermitian blocks; rows of empty outcomes are zero.
    overlaps = np.real(np.einsum("bij,cij->bc", sigmas, sigmas.conj()))
    worst = float(np.max(overlaps[~np.eye(len(sigmas), dtype=bool)], initial=0.0))
    return DeterminismReport(
        deterministic=worst < DETERMINISM_TOL,
        max_overlap=worst,
        gram=np.sqrt(np.clip(overlaps, 0.0, None)),
    )


@dataclass(frozen=True)
class BasisSearchResult:
    """Result of searching first-measurement bases for perfect predictability."""

    found: bool
    basis: MeasurementModel | None
    residual: float
    theta: float
    phi: float


def find_deterministic_basis(
    initial: np.ndarray,
    evolution: np.ndarray | None,
    basis_b: MeasurementModel,
) -> BasisSearchResult:
    """Qubit first-measurement basis that makes the second outcome certain.

    For a first basis along the Bloch axis n, the two conditional records
    overlap by (n . r)(n . m) / 2, where r is the Bloch vector of the initial
    ket and m depends only on the evolution and the second basis; so every
    axis perpendicular to r works.  Of those, the axis with the
    smallest polar angle is returned; when r lies along +-z every axis on the
    equator qualifies and the smallest azimuth, (pi/2, 0), is taken.

    For that axis, with G = H diag|<a|psi>|^2 H^dagger the Gram matrix of the
    unnormalized conditionals (H[b, a] = <b|U|a>), the residual is
    |G_01| / sqrt(G_00 G_11), or 0 when an outcome carries less than
    ``EMPTY_BLOCK_FLOOR``.  Its square is the Tr(sigma_0 sigma_1) that
    :func:`determinism_check` bounds, and ``found`` holds when it is below
    ``DETERMINISM_TOL``.  The initial state must be a unit ket and
    ``evolution`` (None for none) unitary.
    """
    psi0 = np.asarray(initial, dtype=complex)
    if psi0.ndim != 1:
        raise ScenarioError("the basis search needs a pure initial state")
    if psi0.shape[0] != 2 or basis_b.dim != 2:
        raise ScenarioError("the basis search is implemented for qubits")
    psi0 = as_ket(psi0, name="initial state")
    u = np.eye(2, dtype=complex) if evolution is None else assert_unitary(evolution, name="evolution")

    a, b = psi0
    ab = complex(np.conj(a) * b)
    rx, ry, rz = 2.0 * ab.real, 2.0 * ab.imag, float(abs(a) ** 2 - abs(b) ** 2)
    # The highest point of the great circle n . r = 0 sits at polar angle
    # atan2(|rz|, |r_xy|) and azimuth that of -rz * (rx, ry).
    r_xy = math.hypot(rx, ry)
    theta = math.atan2(abs(rz), r_xy)
    phi = 0.0 if r_xy == 0.0 or rz == 0.0 else math.atan2(-rz * ry, -rz * rx) % (2.0 * math.pi)

    kets = bloch_pair(theta, phi)
    hops = basis_b.kets.conj() @ u @ kets.T
    gram = (hops * np.abs(kets.conj() @ psi0) ** 2) @ hops.conj().T
    g00, g11 = gram[0, 0].real, gram[1, 1].real
    residual = 0.0 if min(g00, g11) < EMPTY_BLOCK_FLOOR else float(abs(gram[0, 1]) / math.sqrt(g00 * g11))
    found = residual**2 < DETERMINISM_TOL
    basis = MeasurementModel.from_axis_angle(theta, phi) if found else None
    return BasisSearchResult(found=found, basis=basis, residual=residual, theta=theta, phi=phi)
