"""Dense complex linear algebra and quantum-information primitives.

Conventions used throughout the package:

* Operators are square complex ``numpy`` arrays (row-major indexing).
* Kets are one-dimensional complex arrays with unit norm.
* All entropies are in bits (logarithms base 2).
* Spectra are of the Hermitian part (M + M^dagger) / 2, halved before adding.
* A measurement basis stores one ket per row, paired with a real outcome
  label per ket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .policy import (
    HERMITICITY_TOL,
    KET_NORM_TOL,
    ORTHO_TOL,
    PSD_TOL,
    TRACE_TOL,
    UNITARY_TOL,
    NumericsError,
)

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "MeasurementModel",
    "DensityCheck",
    "as_operator",
    "as_ket",
    "bloch_ket",
    "bloch_pair",
    "tensor_product",
    "partial_trace",
    "projector",
    "von_neumann_entropy",
    "shannon_entropy",
    "trace_distance",
    "dephase",
    "relative_entropy_of_coherence",
    "validate_density",
    "assert_density",
    "is_unitary",
    "assert_unitary",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X.setflags(write=False)
PAULI_Y.setflags(write=False)
PAULI_Z.setflags(write=False)


def as_operator(value, *, name: str = "operator") -> np.ndarray:
    """Coerce ``value`` to a square complex matrix with finite entries."""
    mat = np.asarray(value, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} has non-finite entries")
    return mat


def as_ket(value, *, name: str = "ket") -> np.ndarray:
    """Coerce ``value`` to a unit-norm complex vector."""
    vec = np.asarray(value, dtype=complex)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError(f"{name} must be a vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} has non-finite entries")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > KET_NORM_TOL:
        raise NumericsError(f"{name} is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return vec


def bloch_ket(theta: float, phi: float = 0.0) -> np.ndarray:
    """Qubit ket at polar angle ``theta`` and azimuth ``phi`` on the Bloch sphere."""
    return bloch_pair(theta, phi)[0]


def bloch_pair(theta: float | np.ndarray, phi: float | np.ndarray = 0.0) -> np.ndarray:
    """Orthonormal qubit pair (rows): the ket at (theta, phi) and its antipode.

    The angles broadcast against each other: array angles give a stack of
    shape ``(..., 2, 2)`` over their broadcast shape, scalars one ``(2, 2)``
    pair.
    """
    half = np.asarray(theta, dtype=float) / 2.0
    c, s, phi = np.broadcast_arrays(np.cos(half), np.sin(half), np.asarray(phi, dtype=float))
    top = np.stack([c, np.exp(1j * phi) * s], axis=-1)
    bottom = np.stack([-np.exp(-1j * phi) * s, c], axis=-1)
    return np.stack([top, bottom], axis=-2)


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector |ket><ket|."""
    vec = np.asarray(ket, dtype=complex)
    return np.outer(vec, vec.conj())


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two operators (or kets)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho, dims: tuple[int, int], keep: str = "A") -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    rho:
        Operator on a space of dimension ``dims[0] * dims[1]``.
    dims:
        Factor dimensions ``(d_a, d_b)``.
    keep:
        ``"A"`` keeps the first factor, ``"B"`` the second.
    """
    mat = as_operator(rho, name="rho")
    da, db = int(dims[0]), int(dims[1])
    if da < 1 or db < 1 or mat.shape[0] != da * db:
        raise ValueError(f"dimension mismatch: operator is {mat.shape[0]}-dim, dims give {da * db}")
    four = mat.reshape(da, db, da, db)
    if keep == "A":
        out = np.einsum("ajbj->ab", four)
    elif keep == "B":
        out = np.einsum("iaib->ab", four)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return _hermitian_part(out)


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M^dagger) / 2 of a matrix or stack, halving first: a sum near the float maximum would overflow."""
    return 0.5 * mat + 0.5 * mat.conj().swapaxes(-1, -2)


def _record_blocks(mat: np.ndarray, db: int) -> np.ndarray:
    """Second-record blocks ``[b, a, A] = <a, b| mat |A, b>`` as a view, writing through to a contiguous ``mat``."""
    da = mat.shape[0] // db
    return np.einsum("abAb->baA", mat.reshape(da, db, da, db))


def _pieces(mat: np.ndarray, db: int = 1) -> np.ndarray:
    """``mat`` as a stack of diagonal blocks that hold all its nonzero entries.

    The first exact rule that holds picks the cut.  When every nonzero entry
    lies on the diagonal, the pieces are the diagonal entries, 1 x 1, in
    index order.  Otherwise, for ``db > 1``, when every nonzero entry lies
    in the ``db`` second-record blocks, the pieces are those blocks, as the
    ``(db, da, da)`` view :func:`_record_blocks`.  Otherwise, however small
    the entry outside, the whole matrix is the one piece.
    Each cut is closed under transposition, so the adjoint and the
    Hermitian part of ``mat`` are zero off the same pieces.
    """
    nonzero = np.count_nonzero(mat)
    diagonal = np.diagonal(mat)
    if nonzero == np.count_nonzero(diagonal):
        return diagonal[:, None, None]
    if db > 1:
        blocks = _record_blocks(mat, db)
        if nonzero == np.count_nonzero(blocks):
            return blocks
    return mat[None]


def _spectrum(herm: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix given as its :func:`_pieces` stack, piece after piece.

    A block-diagonal matrix's spectrum is the union of its blocks' spectra,
    so this is one batched ``eigvalsh`` of the stack, and for 1 x 1 pieces
    (a diagonal matrix) their real parts in index order, with no eigensolve.
    """
    if herm.shape[-1] == 1:
        return herm[:, 0, 0].real
    return np.linalg.eigvalsh(herm).ravel()


def shannon_entropy(probs) -> float:
    """Shannon entropy in bits of a nonnegative weight vector (zeros ignored)."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return 0.0 - float(p @ np.log2(p))  # 0.0, never -0.0, for a certain outcome


def von_neumann_entropy(rho) -> float:
    """Spectral entropy of a density matrix (of its Hermitian part), in bits."""
    mat = as_operator(rho, name="rho")
    check, vals, _ = _density_check(_hermitian_part(mat))
    if not check.psd_ok:
        raise NumericsError(f"operator is not positive semidefinite: min eigenvalue {check.min_eigenvalue:.3e}")
    return shannon_entropy(vals)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference of two Hermitian operators."""
    a = as_operator(rho, name="rho")
    b = as_operator(sigma, name="sigma")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(_hermitian_part(a - b)))))


def _populations(mat: np.ndarray, basis: MeasurementModel | None) -> np.ndarray:
    """Diagonal of ``mat`` in ``basis``, or in the computational basis for None."""
    if basis is None:
        return np.diag(mat)
    if basis.dim != mat.shape[0]:
        raise ValueError(f"basis dimension {basis.dim} does not match operator dimension {mat.shape[0]}")
    return np.einsum("mi,ij,mj->m", basis.kets.conj(), mat, basis.kets)


def dephase(rho, basis: MeasurementModel | None = None) -> np.ndarray:
    """Zero all coherences of ``rho`` in ``basis``: a :class:`MeasurementModel`,
    or None for the computational basis."""
    mat = as_operator(rho, name="rho")
    probs = _populations(mat, basis)
    if basis is None:
        return np.diag(probs)
    return np.einsum("m,mi,mj->ij", probs, basis.kets, basis.kets.conj())


def relative_entropy_of_coherence(rho, basis: MeasurementModel | None = None) -> float:
    """Entropy gained by dephasing ``rho`` in the given basis, in bits.

    Equals S(dephased) - S(rho); zero exactly when dephasing leaves the state
    unchanged.  ``basis`` is a :class:`MeasurementModel`, or None for the
    computational basis, as in :func:`dephase`.
    """
    mat = as_operator(rho, name="rho")
    probs = np.real(_populations(mat, basis))
    value = shannon_entropy(probs) - von_neumann_entropy(mat)
    return max(value, 0.0)


@dataclass(frozen=True)
class DensityCheck:
    """Diagnostic report produced by :func:`validate_density`."""

    dim: int
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    hermitian_ok: bool
    trace_ok: bool
    psd_ok: bool

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.psd_ok


def _density_check(mat: np.ndarray, db: int = 1) -> tuple[DensityCheck, np.ndarray, bool]:
    """:class:`DensityCheck` of a coerced operator, run on its :func:`_pieces`.

    Off the pieces ``mat`` and its adjoint are both zero, so the Hermiticity
    defect and the spectrum of the Hermitian part are the pieces'.  Also
    returns that spectrum, and whether the cut found smaller pieces than
    the whole matrix.
    """
    pieces = _pieces(mat, db)
    adjoint = pieces.conj().swapaxes(-1, -2)
    herm_defect = float(np.max(np.abs(pieces - adjoint)))
    trace_defect = float(abs(np.trace(mat) - 1.0))
    vals = _spectrum(_hermitian_part(pieces))
    min_eig = float(vals.min())
    check = DensityCheck(
        dim=mat.shape[0],
        hermiticity_defect=herm_defect,
        trace_defect=trace_defect,
        min_eigenvalue=min_eig,
        hermitian_ok=herm_defect <= HERMITICITY_TOL,
        trace_ok=trace_defect <= TRACE_TOL,
        psd_ok=min_eig >= -PSD_TOL,
    )
    return check, vals, pieces.shape[-1] < mat.shape[0]


def validate_density(op) -> DensityCheck:
    """Report how far ``op`` is from being a valid density matrix."""
    return _density_check(as_operator(op, name="operator"))[0]


def _require_density(check: DensityCheck, name: str) -> None:
    """Raise :class:`NumericsError` naming ``name`` unless ``check`` passed."""
    if not check.ok:
        raise NumericsError(
            f"{name} is not a valid density matrix: "
            f"hermiticity defect {check.hermiticity_defect:.3e}, "
            f"trace defect {check.trace_defect:.3e}, "
            f"min eigenvalue {check.min_eigenvalue:.3e}"
        )


def assert_density(op, *, name: str = "state") -> np.ndarray:
    """Validate ``op`` as a density matrix, raising :class:`NumericsError` on failure."""
    mat = as_operator(op, name=name)
    _require_density(validate_density(mat), name)
    return mat


def _assert_hermitian(mat: np.ndarray, *, name: str) -> np.ndarray:
    mat = as_operator(mat, name=name)
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > HERMITICITY_TOL:
        raise NumericsError(f"{name} is not Hermitian: defect {defect:.3e}")
    return mat


def _unitarity_defect(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))


def is_unitary(op) -> bool:
    return _unitarity_defect(as_operator(op, name="operator")) <= UNITARY_TOL


def assert_unitary(op, *, name: str = "operator") -> np.ndarray:
    mat = as_operator(op, name=name)
    defect = _unitarity_defect(mat)
    if defect > UNITARY_TOL:
        raise NumericsError(f"{name} is not unitary: defect {defect:.3e}")
    return mat


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only array, copied unless it already is one that owns its data."""
    if not arr.flags.writeable and arr.flags.owndata:
        return arr
    out = np.array(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """A complete orthonormal measurement basis with real outcome labels.

    ``kets[i]`` is the i-th basis ket; ``labels[i]`` is the value recorded
    when that outcome fires.  Labels must be pairwise distinct.
    """

    kets: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        kets = as_operator(self.kets, name="basis kets")
        labels = np.asarray(self.labels, dtype=float)
        if labels.shape != (kets.shape[0],):
            raise ValueError("one label per basis ket required")
        if not np.all(np.isfinite(labels)):
            raise ValueError("outcome labels must be finite")
        gram = kets.conj() @ kets.T
        defect = float(np.max(np.abs(gram - np.eye(kets.shape[0]))))
        if defect > ORTHO_TOL:
            raise NumericsError(f"basis is not orthonormal: defect {defect:.3e}")
        if len(set(labels.tolist())) != labels.size:
            raise ValueError("outcome labels must be distinct")
        object.__setattr__(self, "kets", _readonly(kets))
        object.__setattr__(self, "labels", _readonly(labels))

    @property
    def dim(self) -> int:
        return self.kets.shape[0]

    def ket(self, index: int) -> np.ndarray:
        return self.kets[index]

    def projector(self, index: int) -> np.ndarray:
        return projector(self.kets[index])

    @classmethod
    def from_kets(cls, kets: Sequence, labels: Sequence[float]) -> "MeasurementModel":
        return cls(kets=np.asarray(kets, dtype=complex), labels=np.asarray(labels, dtype=float))

    @classmethod
    def sz(cls) -> "MeasurementModel":
        return cls.from_kets([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0])

    @classmethod
    def sx(cls) -> "MeasurementModel":
        r = 1.0 / np.sqrt(2.0)
        return cls.from_kets([[r, r], [r, -r]], [1.0, -1.0])

    @classmethod
    def sy(cls) -> "MeasurementModel":
        r = 1.0 / np.sqrt(2.0)
        return cls.from_kets([[r, 1j * r], [r, -1j * r]], [1.0, -1.0])

    @classmethod
    def computational(cls, dim: int) -> "MeasurementModel":
        return cls.from_kets(np.eye(dim), np.arange(dim, dtype=float))

    @classmethod
    def from_axis_angle(
        cls, theta: float, phi: float = 0.0, labels: Sequence[float] = (1.0, -1.0)
    ) -> "MeasurementModel":
        """Qubit basis measuring the spin axis at Bloch angles (theta, phi)."""
        return cls(kets=bloch_pair(theta, phi), labels=np.asarray(labels, dtype=float))
