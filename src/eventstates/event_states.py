"""Joint detector/timer density matrices for a pair of measurement events.

A scenario fixes the system state, the two measured bases, the evolution
between or during the events, and optionally when the detectors fire.  The
builders return the joint state of the two measurement records:

* ``build_sl_instant`` / ``build_tl_instant``: sharp, simultaneous-readout
  records for independent (SL) or ordered (TL) event pairs.
* ``build_sl_fuzzy`` / ``build_tl_fuzzy``: records after averaging over the
  detection times drawn from timing profiles, with Hamiltonian evolution
  until each detector fires.
* ``build_timed_state``: the full state over timer registers and detector
  records, one register bin per grid point (small grids only).

Record spaces are indexed by measurement outcome, so a matrix entry at row
``a * d_b + b`` refers to the record "first detector saw outcome a, second
saw outcome b".  Ordered-pair states are block diagonal in the second
record; independent-pair states are diagonal in the joint record basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .policy import (
    EIGENVALUE_FLOOR,
    EMPTY_BLOCK_FLOOR,
    HERMITICITY_TOL,
    PHASE_SUPPORT_FLOOR,
    PURE_BLOCK_TOL,
    NumericsError,
    ScenarioError,
)
from .quantum_core import (
    MeasurementModel,
    _assert_hermitian,
    _density_check,
    _hermitian_part,
    _readonly,
    _record_blocks,
    _require_density,
    as_ket,
    as_operator,
    assert_density,
    assert_unitary,
)
from .timing import EventTiming, JointTimeDistribution, TimeGrid, TimingProfile, _check_arrangement

__all__ = [
    "EventScenario",
    "EventState",
    "ConditionalDecomposition",
    "build_sl_instant",
    "build_tl_instant",
    "build_sl_fuzzy",
    "build_tl_fuzzy",
    "build_timed_state",
    "build_event_state",
    "check_buildable",
    "trace_out_timers",
    "timer_distribution",
    "outcome_probabilities",
    "conditional_decomposition",
    "reconstruct_from_decomposition",
]

TIMED_DIM_BOUND = 256


_PAIRS = {"SL": "independent", "TL": "ordered"}

# Operator fields of a scenario: the arrangements each applies to, the check
# it must pass, and the space it acts on (the system, or factor A or B).
_OPERATOR_FIELDS = (
    ("evolution", ("TL",), assert_unitary, "system"),
    ("evolution_a", ("SL",), assert_unitary, "A"),
    ("evolution_b", ("SL",), assert_unitary, "B"),
    ("hamiltonian", ("SL", "TL"), _assert_hermitian, "system"),
    ("hamiltonian_a", ("SL",), _assert_hermitian, "A"),
    ("hamiltonian_b", ("SL",), _assert_hermitian, "B"),
)


@dataclass(frozen=True, eq=False)
class EventScenario:
    """Everything needed to build the joint record state of two events.

    ``kind="SL"`` describes two independent measurements on the two factors
    of a bipartite system; ``kind="TL"`` describes two measurements on the
    same system, with ``evolution`` applied between them (sharp builds only;
    timed ordered events evolve under ``hamiltonian``).  ``evolution_a`` /
    ``evolution_b`` optionally rotate the two factors of an independent pair
    before anything fires.  Hamiltonians generate the in-flight evolution
    for time-averaged and timer-register builds: a single generator for
    ordered events, per-factor generators (``hamiltonian_a/b``) or one joint
    generator for independent ones.
    """

    kind: Literal["SL", "TL"]
    initial: np.ndarray
    basis_a: MeasurementModel
    basis_b: MeasurementModel
    evolution: np.ndarray | None = None
    evolution_a: np.ndarray | None = None
    evolution_b: np.ndarray | None = None
    hamiltonian: np.ndarray | None = None
    hamiltonian_a: np.ndarray | None = None
    hamiltonian_b: np.ndarray | None = None
    timing: EventTiming | None = None

    def __post_init__(self):
        _check_arrangement(self.kind)
        initial = np.asarray(self.initial, dtype=complex)
        initial = (as_ket if initial.ndim == 1 else as_operator)(initial, name="initial state")
        dim = initial.shape[0]
        da, db = self.dims

        if self.kind == "TL" and not (da == db == dim):
            raise ScenarioError(
                f"ordered events measure one system twice: need basis dims equal to "
                f"state dim {dim}, got {da} and {db}"
            )
        if self.kind == "SL" and da * db != dim:
            raise ScenarioError(
                f"independent events need basis dims whose product is the state dim: "
                f"{da} * {db} != {dim}"
            )
        if initial.ndim == 2:  # the spectrum is checked once the size is known to fit
            initial = assert_density(initial, name="initial state")
        object.__setattr__(self, "initial", _readonly(initial))
        spaces = {"system": (dim, "the system"), "A": (da, "its factor"), "B": (db, "its factor")}
        for field, kinds, check, space in _OPERATOR_FIELDS:
            op = getattr(self, field)
            if op is None:
                continue
            if self.kind not in kinds:
                raise ScenarioError(f"{field} only applies to {_PAIRS[kinds[0]]} event pairs")
            op = check(op, name=field)
            size, where = spaces[space]
            if op.shape[0] != size:
                raise ScenarioError(f"{field} dimension does not match {where}")
            object.__setattr__(self, field, _readonly(op))
        if self.hamiltonian is not None and (self.hamiltonian_a is not None or self.hamiltonian_b is not None):
            raise ScenarioError("give either a joint hamiltonian or per-factor ones, not both")

        if self.timing is not None:
            if not isinstance(self.timing, EventTiming):
                raise ScenarioError("timing must be an EventTiming")
            self.timing.require_kind(self.kind)
            # Row sums bound each generator's spectrum, so this keeps every
            # in-flight phase H * tau over the grid, and every eigenvalue of
            # the joint generator of a timed build, finite.
            generators = [
                f for f in ("hamiltonian", "hamiltonian_a", "hamiltonian_b") if getattr(self, f) is not None
            ]
            rate = sum(float(np.abs(getattr(self, f)).sum(axis=1).max()) for f in generators)
            grid = self.timing.grid
            if not math.isfinite(rate * grid.dt * (grid.n_bins - 1)):
                raise ScenarioError(
                    f"{' + '.join(generators)}: entries too large for the timing grid; "
                    "the in-flight phases overflow"
                )
            if self.evolution is not None:
                raise ScenarioError(
                    "timed ordered events evolve under the hamiltonian; give evolution or timing, not both"
                )

    @property
    def dims(self) -> tuple[int, int]:
        return self.basis_a.dim, self.basis_b.dim

    def initial_density(self) -> np.ndarray:
        """System density matrix, with any preparation rotations applied."""
        state = self.initial
        rho = np.outer(state, state.conj()) if state.ndim == 1 else np.array(state)
        if self.kind == "SL" and (self.evolution_a is not None or self.evolution_b is not None):
            da, db = self.dims
            ua = self.evolution_a if self.evolution_a is not None else np.eye(da)
            ub = self.evolution_b if self.evolution_b is not None else np.eye(db)
            prep = np.kron(ua, ub)
            rho = prep @ rho @ prep.conj().T
        return rho

    def _initial_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights and kets (columns) of the pure components of the prepared initial state."""
        vals, vecs = np.linalg.eigh(self.initial_density())
        keep = vals > EIGENVALUE_FLOOR
        return vals[keep], vecs[:, keep]

    def initial_kets(self) -> list[tuple[float, np.ndarray]]:
        """Pure decomposition of the (prepared) initial state as (weight, ket) pairs."""
        vals, vecs = self._initial_spectrum()
        return [(float(w), np.array(ket)) for w, ket in zip(vals, vecs.T)]


@dataclass(frozen=True, eq=False)
class EventState:
    """Joint density matrix of the two measurement records, arranged "SL" or "TL".

    Detector-space states live on record_a x record_b (dimension da * db).
    Timer-register states carry ``timers`` and live on
    (timer_a x record_a) x (timer_b x record_b), with the row index laid out
    as ``((k * da + a) * n + l) * db + b`` for timer bins k, l.

    ``rho`` is validated once, on construction, piece by piece on the cut
    :func:`~eventstates.quantum_core._pieces` finds (a timer-register state
    is cut only at its diagonal).  The spectrum found is kept as
    ``_spectrum`` for :func:`~eventstates.witnesses.record_coherence`, and
    ``_in_blocks`` records whether a cut held, so that
    :func:`conditional_decomposition` need not scan for cross-record
    coherence.
    """

    kind: Literal["SL", "TL"]
    rho: np.ndarray
    basis_a: MeasurementModel
    basis_b: MeasurementModel
    timers: TimeGrid | None = None

    def __post_init__(self):
        _check_arrangement(self.kind)
        rho = as_operator(self.rho, name="event state")
        da, db = self.basis_a.dim, self.basis_b.dim
        expect = da * db
        if self.timers is not None:
            expect *= self.timers.n_bins**2
        if rho.shape[0] != expect:
            raise ScenarioError(f"state dimension {rho.shape[0]} does not match bases/timers ({expect})")
        check, spectrum, in_blocks = _density_check(rho, db if self.timers is None else 1)
        _require_density(check, "event state")
        spectrum.setflags(write=False)
        object.__setattr__(self, "rho", _readonly(rho))
        object.__setattr__(self, "_spectrum", spectrum)
        object.__setattr__(self, "_in_blocks", in_blocks)

    @property
    def dims(self) -> tuple[int, int]:
        return self.basis_a.dim, self.basis_b.dim

    @property
    def detector_rho(self) -> np.ndarray:
        """``rho`` of a detector-space state; a timer-register state raises :class:`ScenarioError`."""
        if self.timers is not None:
            raise ScenarioError("trace out the timer registers first")
        return self.rho

    def _timed_tensor(self) -> np.ndarray:
        """``rho`` of a timer-register state as an eight-index (k, a, l, b, k', a', l', b') tensor."""
        if self.timers is None:
            raise ScenarioError("state carries no timer registers")
        n = self.timers.n_bins
        da, db = self.dims
        return self.rho.reshape(n, da, n, db, n, da, n, db)

    @functools.cached_property
    def _split(self) -> ConditionalDecomposition:
        """The split behind :func:`conditional_decomposition`, made once: ``rho`` is read-only."""
        rho = self.detector_rho
        blocks = _record_blocks(rho, self.basis_b.dim)
        if not self._in_blocks:  # else validation found every cross-record entry zero
            cross = float(np.max(np.abs(rho - _block_diagonal_in_b(blocks))))
            if cross > HERMITICITY_TOL:
                raise NumericsError(
                    f"state carries coherence between second-record values (max {cross:.3e}); "
                    "it does not decompose by that record"
                )

        probs = np.real(np.einsum("baa->b", blocks))
        live = probs >= EMPTY_BLOCK_FLOOR
        probs = np.where(live, probs, 0.0)
        sigmas = _hermitian_part(blocks / np.where(live, probs, 1.0)[:, None, None])
        sigmas[~live] = 0.0
        return ConditionalDecomposition(
            kind=self.kind, probs=_readonly(probs), sigmas=_readonly(sigmas), labels_b=self.basis_b.labels
        )


def _evolution_family(hamiltonian: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Stack of exp(-i H tau) for each tau (hbar = 1)."""
    vals, vecs = np.linalg.eigh(hamiltonian)
    phases = np.exp(-1j * np.outer(taus, vals))
    return np.einsum("ij,mj,kj->mik", vecs, phases, vecs.conj())


def _block_diagonal_in_b(blocks: np.ndarray) -> np.ndarray:
    """Assemble sum_b blocks[b] (x) |b><b| on record_a x record_b."""
    db, da = blocks.shape[:2]
    out = np.zeros((da * db, da * db), dtype=complex)
    _record_blocks(out, db)[...] = blocks
    return out


def _require_kind(scenario: EventScenario, kind: str) -> None:
    """Raise :class:`ScenarioError` unless ``scenario`` describes arrangement ``kind``."""
    if scenario.kind != kind:
        raise ScenarioError(f"scenario does not describe {_PAIRS[kind]} events")


def _state(source: EventScenario | EventState, rho: np.ndarray, timers: TimeGrid | None = None) -> EventState:
    """Record state ``rho`` with the arrangement and bases of the scenario or state it comes from."""
    return EventState(kind=source.kind, rho=rho, basis_a=source.basis_a, basis_b=source.basis_b, timers=timers)


def _sl_state(scenario: EventScenario, effects_a: np.ndarray, effects_b: np.ndarray) -> EventState:
    """Diagonal state of p(a, b) = Tr[(E_a (x) E_b) rho] from effect stacks ``[a, j, J] = <J|E_a|j>``."""
    da, db = scenario.dims
    rho = scenario.initial_density().reshape(da, db, da, db)
    half = np.einsum("ajJ,jnJN->anN", effects_a, rho)
    probs = np.clip(np.real(np.einsum("anN,bnN->ab", half, effects_b)), 0.0, None)
    diag = np.diag(probs.reshape(da * db)).astype(complex)
    return _state(scenario, diag)


def build_sl_instant(scenario: EventScenario) -> EventState:
    """Record state for two independent measurements read out sharply.

    The result is diagonal in the joint record basis, with entries equal to
    the Born probabilities of the two outcomes.
    """
    _require_kind(scenario, "SL")
    kets = scenario.basis_a.kets, scenario.basis_b.kets
    return _sl_state(scenario, *(np.einsum("aj,aJ->ajJ", k.conj(), k) for k in kets))


def build_tl_instant(scenario: EventScenario) -> EventState:
    """Record state for two ordered measurements of one system.

    The first record keeps the coherences of the system state in the first
    measured basis; the result is block diagonal in the second record index.
    """
    _require_kind(scenario, "TL")
    d = scenario.basis_a.dim
    rho_s = scenario.initial_density()
    u = scenario.evolution if scenario.evolution is not None else np.eye(d, dtype=complex)
    rho_a = scenario.basis_a.kets.conj() @ rho_s @ scenario.basis_a.kets.T
    hops = scenario.basis_b.kets.conj() @ u @ scenario.basis_a.kets.T  # <b| U |a>, indexed [b, a]
    blocks = hops[:, :, None] * rho_a * hops[:, None, :].conj()
    return _state(scenario, _block_diagonal_in_b(blocks))


def _require_timing(scenario: EventScenario) -> EventTiming:
    if scenario.timing is None:
        raise ScenarioError("scenario has no timing model")
    return scenario.timing


def check_buildable(scenario: EventScenario) -> None:
    """Raise :class:`ScenarioError` unless :func:`build_event_state` can build ``scenario``.

    Sharp builds need nothing beyond a valid scenario.  Time averaging needs
    separable profiles and the generators of the in-flight evolution: one
    for ordered events, one per factor for independent ones.
    """
    timing = scenario.timing
    if timing is None:
        return
    if scenario.kind == "SL":
        if timing.joint_amplitudes is not None:
            raise ScenarioError("time averaging needs separable profiles, not a joint table")
        if scenario.hamiltonian_a is None or scenario.hamiltonian_b is None:
            raise ScenarioError("time averaging needs per-factor hamiltonians (zero matrices are fine)")
    elif scenario.hamiltonian is None:
        raise ScenarioError("time averaging needs a hamiltonian (a zero matrix is fine)")


def _averaged_effects(basis: MeasurementModel, hamiltonian: np.ndarray, profile: TimingProfile) -> np.ndarray:
    """Effects f_a = sum_k |chi(t_k)|^2 dt U(tau_k)^dagger |a><a| U(tau_k), stacked as ``[a, j, J] = <J|f_a|j>``."""
    hops = np.einsum("ai,kij->kaj", basis.kets.conj(), _evolution_family(hamiltonian, profile.grid.offsets))
    weights = np.abs(profile.amplitudes) ** 2 * profile.grid.dt
    return np.einsum("k,kaj,kaJ->ajJ", weights, hops, hops.conj())


def build_sl_fuzzy(scenario: EventScenario) -> EventState:
    """Record state for independent events averaged over their firing times.

    Each factor evolves under its own Hamiltonian until its detector fires;
    the firing times are drawn from the two marginal profiles.  The result
    is diagonal in the joint record basis.
    """
    _require_kind(scenario, "SL")
    timing = _require_timing(scenario)
    check_buildable(scenario)
    fa = _averaged_effects(scenario.basis_a, scenario.hamiltonian_a, timing.profile_a)
    fb = _averaged_effects(scenario.basis_b, scenario.hamiltonian_b, timing.profile_b)
    return _sl_state(scenario, fa, fb)


def build_tl_fuzzy(scenario: EventScenario) -> EventState:
    """Record state for ordered events averaged over their firing times.

    The system evolves under the Hamiltonian until the first detector fires,
    and again between the two firings; the first firing time follows the
    marginal profile, the second the conditional rows.  Averaging can leave
    the per-outcome conditionals mixed.
    """
    _require_kind(scenario, "TL")
    timing = _require_timing(scenario)
    check_buildable(scenario)
    n = timing.grid.n_bins
    ufam = _evolution_family(scenario.hamiltonian, timing.grid.offsets)

    rho0 = scenario.initial_density()
    ka, kb = scenario.basis_a.kets, scenario.basis_b.kets
    rho_t = np.einsum("kij,jJ,kIJ->kiI", ufam, rho0, ufam.conj())
    rho_rec = np.einsum("ai,kiI,AI->kaA", ka.conj(), rho_t, ka)

    joint_w = timing.cell_masses()

    # Regroup the double time sum by lag g = l - k: the inter-event evolution
    # depends on the lag alone on a uniform grid.  lag_w[k, g] = joint_w[k, k + g]
    # is every (n + 1)-th length-n window of the flat table; where k + g >= n it
    # wraps into the next row's lower triangle, which the conditional profile
    # holds at exactly zero.  The last row has no next row and only its g = 0 cell.
    lag_w = sliding_window_view(joint_w.ravel(), n)[:: n + 1]
    summed = np.einsum("kg,kaA->gaA", lag_w, rho_rec[:-1])
    summed[0] += joint_w[-1, -1] * rho_rec[-1]
    hops = np.einsum("bi,gij,aj->gba", kb.conj(), ufam, ka)
    blocks = np.einsum("gba,gaA,gbA->baA", hops, summed, hops.conj())
    return _state(scenario, _block_diagonal_in_b(blocks))


def build_timed_state(scenario: EventScenario) -> EventState:
    """Full record state over timer registers and detectors.

    Every grid bin becomes one basis state of each timer register, so the
    result lives on a space of dimension (n * da) * (n * db); the build is
    refused above dimension 256.  With Heisenberg projectors
    P(t) = U(t)^dagger P U(t), U(t) = exp(-i H (t - t0)), the row for "first
    outcome a at bin k, second outcome b at bin l" is the time-ordered
    product applied to each initial ket psi, scaled by the cell amplitude:
    P_b(t_l) P_a(t_k) psi when l >= k and P_a(t_k) P_b(t_l) psi when l < k.
    With one column per pure component w of the initial state, scaled by
    sqrt(w), the rows form one factor R and the state is R R^dagger.
    Ordered pairs never use the second form, since their conditional
    amplitudes vanish below the diagonal; independent pairs
    cover both orders, with same-bin firings (where the two projectors
    commute) carrying one grid cell of the continuum measure.
    """
    timing = _require_timing(scenario)
    grid = timing.grid
    n = grid.n_bins
    da, db = scenario.dims
    total = (n * da) * (n * db)
    if total > TIMED_DIM_BOUND:
        raise ScenarioError(
            f"timer-register state would be {total}-dimensional; the bound is {TIMED_DIM_BOUND}"
        )
    ka, kb = scenario.basis_a.kets, scenario.basis_b.kets
    proj_a = np.einsum("ai,aj->aij", ka, ka.conj())
    proj_b = np.einsum("bi,bj->bij", kb, kb.conj())
    if scenario.kind == "TL":
        ham = scenario.hamiltonian if scenario.hamiltonian is not None else np.zeros((da, da))
    else:
        proj_a = np.kron(proj_a, np.eye(db))
        proj_b = np.kron(np.eye(da), proj_b)
        if scenario.hamiltonian is not None:
            ham = scenario.hamiltonian
        else:
            ha = scenario.hamiltonian_a if scenario.hamiltonian_a is not None else np.zeros((da, da))
            hb = scenario.hamiltonian_b if scenario.hamiltonian_b is not None else np.zeros((db, db))
            ham = np.kron(ha, np.eye(db)) + np.kron(np.eye(da), hb)
    u = _evolution_family(ham, grid.offsets)[:, None]
    heis_a, heis_b = (u.conj().swapaxes(-1, -2) @ proj @ u for proj in (proj_a, proj_b))
    bins = np.arange(n)
    later = (bins[None, :] >= bins[:, None])[:, None, :, None, None, None]
    amp = timing.cell_amplitudes()[:, None, :, None, None, None]
    # One column sqrt(w) psi_w per pure component w of the initial state.
    weights, kets = scenario._initial_spectrum()
    psi = kets * np.sqrt(weights)
    forward = np.einsum("lbij,kajw->kalbiw", heis_b, heis_a @ psi)
    backward = np.einsum("kaij,lbjw->kalbiw", heis_a, heis_b @ psi)
    rows = (amp * np.where(later, forward, backward)).reshape(total, -1)
    return _state(scenario, rows @ rows.conj().T, grid)


def build_event_state(scenario: EventScenario) -> EventState:
    """Build the detector-space record state a scenario describes.

    Scenarios without timing build sharp records; scenarios with timing
    average over firing times.  Timer-register states are only built by
    calling :func:`build_timed_state` explicitly.
    """
    if scenario.timing is None:
        builder = build_sl_instant if scenario.kind == "SL" else build_tl_instant
    else:
        builder = build_sl_fuzzy if scenario.kind == "SL" else build_tl_fuzzy
    return builder(scenario)


def trace_out_timers(state: EventState) -> EventState:
    """Reduce a timer-register state to the detector records alone."""
    da, db = state.dims
    reduced = np.einsum("kalbkAlB->abAB", state._timed_tensor()).reshape(da * db, da * db)
    return _state(state, _hermitian_part(reduced))


def timer_distribution(state: EventState) -> JointTimeDistribution:
    """Joint firing-time table read off a timer-register state."""
    table = np.real(np.einsum("kalbkalb->kl", state._timed_tensor()))
    return JointTimeDistribution(grid=state.timers, kind=state.kind, table=np.clip(table, 0.0, None))


def outcome_probabilities(state: EventState) -> np.ndarray:
    """Joint record probabilities p(a, b) of a detector-space state."""
    da, db = state.dims
    return np.clip(np.real(np.diag(state.detector_rho)).reshape(da, db), 0.0, None)


@dataclass(frozen=True, eq=False)
class ConditionalDecomposition:
    """Record state split by the second detector's outcome: sum_b probs[b] sigmas[b] (x) |b><b|.

    ``probs[b]`` is the chance of second outcome b; ``sigmas`` is one
    read-only (db, da, da) array of the first record's states given each
    outcome, exactly zero where ``probs[b] == 0`` (``conditionals`` has None
    there).  For ordered events whose conditionals are all pure,
    ``lambdas[b]`` holds the conditional kets, phase-fixed so the first
    nonvanishing amplitude is real positive, computed on first request.
    """

    kind: Literal["SL", "TL"]
    probs: np.ndarray
    sigmas: np.ndarray
    labels_b: np.ndarray

    @property
    def conditionals(self) -> tuple:
        return tuple(sigma if p > 0.0 else None for sigma, p in zip(self.sigmas, self.probs))

    @functools.cached_property
    def lambdas(self) -> tuple | None:
        if self.kind != "TL":
            return None
        live = self.probs > 0.0
        vals, vecs = np.linalg.eigh(self.sigmas)
        if not np.all(np.abs(vals[live, -1] - 1.0) <= PURE_BLOCK_TOL):
            return None
        kets = vecs[..., -1]
        first = np.argmax(np.abs(kets) > PHASE_SUPPORT_FLOOR, axis=1)
        lead = np.take_along_axis(kets, first[:, None], axis=1)
        kets = _readonly(kets * (lead.conj() / np.abs(lead)))
        return tuple(ket if ok else None for ket, ok in zip(kets, live))

    @property
    def pure(self) -> bool:
        return self.lambdas is not None


def conditional_decomposition(state: EventState) -> ConditionalDecomposition:
    """Split a detector-space state by the second record's value.

    Requires the state to carry no coherence between different second
    records (true of every state this module builds).  Each state is split
    once; later calls return the same object.
    """
    return state._split


def reconstruct_from_decomposition(decomp: ConditionalDecomposition, da: int) -> np.ndarray:
    """Reassemble sum_b p_b sigma_b (x) |b><b| from a decomposition of da x da blocks."""
    if da != decomp.sigmas.shape[-1]:
        raise ScenarioError(f"decomposition holds {decomp.sigmas.shape[-1]}-dim first records, not {da}")
    return _block_diagonal_in_b(decomp.probs[:, None, None] * decomp.sigmas)
