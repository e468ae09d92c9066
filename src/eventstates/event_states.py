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

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .policy import (
    EMPTY_BLOCK_FLOOR,
    HERMITICITY_TOL,
    PURE_BLOCK_TOL,
    NumericsError,
    ScenarioError,
)
from .quantum_core import (
    MeasurementModel,
    _readonly,
    as_ket,
    as_operator,
    assert_density,
    assert_unitary,
)
from .timing import (
    CONDITIONAL,
    MARGINAL,
    JointTimeDistribution,
    TimeGrid,
    TimingProfile,
)

__all__ = [
    "EventTiming",
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


def _assert_hermitian(mat: np.ndarray, *, name: str) -> np.ndarray:
    mat = as_operator(mat, name=name)
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > HERMITICITY_TOL:
        raise NumericsError(f"{name} is not Hermitian: defect {defect:.3e}")
    return mat


@dataclass(frozen=True, eq=False)
class EventTiming:
    """Detection-time model for a scenario.

    Either two profiles (first marginal; second marginal for independent
    events, conditional for ordered ones), or a raw joint amplitude table on
    a grid for independent events whose detection times are correlated.  A
    joint table is renormalized so its cell masses |chi dt|^2 sum to 1.
    """

    profile_a: TimingProfile | None = None
    profile_b: TimingProfile | None = None
    joint_amplitudes: np.ndarray | None = None
    joint_grid: TimeGrid | None = None

    def __post_init__(self):
        if self.joint_amplitudes is not None:
            if self.profile_a is not None or self.profile_b is not None:
                raise ScenarioError("give either two profiles or a joint table, not both")
            if self.joint_grid is None:
                raise ScenarioError("a joint amplitude table needs a grid")
            n = self.joint_grid.n_bins
            amps = np.asarray(self.joint_amplitudes, dtype=complex)
            if amps.shape != (n, n):
                raise ScenarioError(f"joint table needs shape ({n}, {n}), got {amps.shape}")
            if not np.all(np.isfinite(amps)):
                raise ScenarioError("joint table has non-finite entries")
            mass = float(np.sum(np.abs(amps) ** 2) * self.joint_grid.dt**2)
            if mass <= 0.0:
                raise NumericsError("joint amplitude table carries no mass")
            object.__setattr__(self, "joint_amplitudes", _readonly(amps / np.sqrt(mass)))
            return
        if self.profile_a is None or self.profile_b is None:
            raise ScenarioError("timing needs both profiles (or a joint table)")
        if self.profile_a.kind != MARGINAL:
            raise ScenarioError("the first profile must be marginal")
        if self.profile_a.grid != self.profile_b.grid:
            raise ScenarioError("timing profiles live on different grids")

    @property
    def grid(self) -> TimeGrid:
        if self.joint_grid is not None:
            return self.joint_grid
        return self.profile_a.grid


@dataclass(frozen=True, eq=False)
class EventScenario:
    """Everything needed to build the joint record state of two events.

    ``kind="SL"`` describes two independent measurements on the two factors
    of a bipartite system; ``kind="TL"`` describes two measurements on the
    same system, with ``evolution`` applied between them.  ``evolution_a`` /
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
        if self.kind not in ("SL", "TL"):
            raise ScenarioError(f"kind must be 'SL' or 'TL', got {self.kind!r}")
        initial = np.asarray(self.initial, dtype=complex)
        if initial.ndim == 1:
            initial = as_ket(initial, name="initial state")
        else:
            initial = assert_density(initial, name="initial state")
        object.__setattr__(self, "initial", _readonly(initial))
        dim = initial.shape[0]
        da, db = self.basis_a.dim, self.basis_b.dim

        if self.kind == "TL":
            if not (da == db == dim):
                raise ScenarioError(
                    f"ordered events measure one system twice: need basis dims equal to "
                    f"state dim {dim}, got {da} and {db}"
                )
            for field in ("evolution_a", "evolution_b", "hamiltonian_a", "hamiltonian_b"):
                if getattr(self, field) is not None:
                    raise ScenarioError(f"{field} only applies to independent event pairs")
            if self.evolution is not None:
                u = assert_unitary(self.evolution, name="evolution")
                if u.shape[0] != dim:
                    raise ScenarioError("evolution dimension does not match the system")
                object.__setattr__(self, "evolution", _readonly(u))
            if self.hamiltonian is not None:
                h = _assert_hermitian(self.hamiltonian, name="hamiltonian")
                if h.shape[0] != dim:
                    raise ScenarioError("hamiltonian dimension does not match the system")
                object.__setattr__(self, "hamiltonian", _readonly(h))
        else:
            if da * db != dim:
                raise ScenarioError(
                    f"independent events need basis dims whose product is the state dim: "
                    f"{da} * {db} != {dim}"
                )
            if self.evolution is not None:
                raise ScenarioError("an inter-event evolution only applies to ordered pairs")
            for field, d in (("evolution_a", da), ("evolution_b", db)):
                u = getattr(self, field)
                if u is not None:
                    u = assert_unitary(u, name=field)
                    if u.shape[0] != d:
                        raise ScenarioError(f"{field} dimension does not match its factor")
                    object.__setattr__(self, field, _readonly(u))
            if self.hamiltonian is not None and (
                self.hamiltonian_a is not None or self.hamiltonian_b is not None
            ):
                raise ScenarioError("give either a joint hamiltonian or per-factor ones, not both")
            if self.hamiltonian is not None:
                h = _assert_hermitian(self.hamiltonian, name="hamiltonian")
                if h.shape[0] != dim:
                    raise ScenarioError("joint hamiltonian dimension does not match the system")
                object.__setattr__(self, "hamiltonian", _readonly(h))
            for field, d in (("hamiltonian_a", da), ("hamiltonian_b", db)):
                h = getattr(self, field)
                if h is not None:
                    h = _assert_hermitian(h, name=field)
                    if h.shape[0] != d:
                        raise ScenarioError(f"{field} dimension does not match its factor")
                    object.__setattr__(self, field, _readonly(h))

        if self.timing is not None:
            if not isinstance(self.timing, EventTiming):
                raise ScenarioError("timing must be an EventTiming")
            if self.kind == "TL":
                if self.timing.joint_amplitudes is not None:
                    raise ScenarioError("a joint amplitude table only applies to independent pairs")
                if self.timing.profile_b.kind != CONDITIONAL:
                    raise ScenarioError("ordered events need a conditional second profile")
            else:
                if self.timing.joint_amplitudes is None and self.timing.profile_b.kind != MARGINAL:
                    raise ScenarioError("independent events need a marginal second profile")

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

    def initial_kets(self) -> list[tuple[float, np.ndarray]]:
        """Pure decomposition of the (prepared) initial state as (weight, ket) pairs."""
        rho = self.initial_density()
        vals, vecs = np.linalg.eigh(rho)
        return [
            (float(w), np.array(vecs[:, i]))
            for i, w in enumerate(vals)
            if w > 1e-14
        ]


@dataclass(frozen=True, eq=False)
class EventState:
    """Joint density matrix of the two measurement records.

    Detector-space states live on record_a x record_b (dimension da * db).
    Timer-register states carry ``timers`` and live on
    (timer_a x record_a) x (timer_b x record_b), with the row index laid out
    as ``((k * da + a) * n + l) * db + b`` for timer bins k, l.
    """

    kind: Literal["SL", "TL"]
    rho: np.ndarray
    basis_a: MeasurementModel
    basis_b: MeasurementModel
    timers: TimeGrid | None = None

    def __post_init__(self):
        rho = assert_density(self.rho, name="event state")
        da, db = self.basis_a.dim, self.basis_b.dim
        expect = da * db
        if self.timers is not None:
            expect *= self.timers.n_bins**2
        if rho.shape[0] != expect:
            raise ScenarioError(f"state dimension {rho.shape[0]} does not match bases/timers ({expect})")
        object.__setattr__(self, "rho", _readonly(rho))

    @property
    def dims(self) -> tuple[int, int]:
        return self.basis_a.dim, self.basis_b.dim


def _record_matrix(basis_to: MeasurementModel, u: np.ndarray, basis_from: MeasurementModel) -> np.ndarray:
    """Matrix elements <to_b| U |from_a>, indexed [b, a]."""
    return basis_to.kets.conj() @ u @ basis_from.kets.T


def _evolution_family(hamiltonian: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Stack of exp(-i H tau) for each tau (hbar = 1)."""
    vals, vecs = np.linalg.eigh(hamiltonian)
    phases = np.exp(-1j * np.outer(taus, vals))
    return np.einsum("ij,mj,kj->mik", vecs, phases, vecs.conj())


def _block_diagonal_in_b(blocks: np.ndarray) -> np.ndarray:
    """Assemble sum_b blocks[b] (x) |b><b| on record_a x record_b."""
    db, da = blocks.shape[:2]
    out = np.zeros((da, db, da, db), dtype=complex)
    idx = np.arange(db)
    out[:, idx, :, idx] = blocks
    return out.reshape(da * db, da * db)


def build_sl_instant(scenario: EventScenario) -> EventState:
    """Record state for two independent measurements read out sharply.

    The result is diagonal in the joint record basis, with entries equal to
    the Born probabilities of the two outcomes.
    """
    if scenario.kind != "SL":
        raise ScenarioError("scenario does not describe independent events")
    da, db = scenario.dims
    rho = scenario.initial_density().reshape(da, db, da, db)
    ka, kb = scenario.basis_a.kets, scenario.basis_b.kets
    probs = np.einsum("ai,bj,ijIJ,aI,bJ->ab", ka.conj(), kb.conj(), rho, ka, kb)
    probs = np.clip(np.real(probs), 0.0, None)
    return EventState(
        kind="SL",
        rho=np.diag(probs.reshape(da * db)).astype(complex),
        basis_a=scenario.basis_a,
        basis_b=scenario.basis_b,
    )


def build_tl_instant(scenario: EventScenario) -> EventState:
    """Record state for two ordered measurements of one system.

    The first record keeps the coherences of the system state in the first
    measured basis; the result is block diagonal in the second record index.
    """
    if scenario.kind != "TL":
        raise ScenarioError("scenario does not describe ordered events")
    d = scenario.basis_a.dim
    rho_s = scenario.initial_density()
    u = scenario.evolution if scenario.evolution is not None else np.eye(d, dtype=complex)
    rho_a = scenario.basis_a.kets.conj() @ rho_s @ scenario.basis_a.kets.T
    hops = _record_matrix(scenario.basis_b, u, scenario.basis_a)
    blocks = hops[:, :, None] * rho_a * hops[:, None, :].conj()
    return EventState(
        kind="TL",
        rho=_block_diagonal_in_b(blocks),
        basis_a=scenario.basis_a,
        basis_b=scenario.basis_b,
    )


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


def build_sl_fuzzy(scenario: EventScenario) -> EventState:
    """Record state for independent events averaged over their firing times.

    Each factor evolves under its own Hamiltonian until its detector fires;
    the firing times are drawn from the two marginal profiles.  The result
    is diagonal in the joint record basis.
    """
    if scenario.kind != "SL":
        raise ScenarioError("scenario does not describe independent events")
    timing = _require_timing(scenario)
    check_buildable(scenario)
    da, db = scenario.dims
    grid = timing.grid
    dt = grid.dt
    taus = grid.times - grid.t0
    ua = _evolution_family(scenario.hamiltonian_a, taus)
    ub = _evolution_family(scenario.hamiltonian_b, taus)
    # Renormalize bin masses exactly so the output trace is 1 to rounding.
    wa = np.abs(timing.profile_a.amplitudes) ** 2 * dt
    wa /= wa.sum()
    wb = np.abs(timing.profile_b.amplitudes) ** 2 * dt
    wb /= wb.sum()
    ka, kb = scenario.basis_a.kets, scenario.basis_b.kets

    probs = np.zeros((da, db))
    for weight, ket in scenario.initial_kets():
        psi = ket.reshape(da, db)
        t1 = np.einsum("ai,kij,jn->kan", ka.conj(), ua, psi)
        t2 = np.einsum("bj,ljJ->lbJ", kb.conj(), ub)
        fa = np.einsum("k,kaj,kaJ->ajJ", wa, t1, t1.conj())
        gb = np.einsum("l,lbj,lbJ->bjJ", wb, t2, t2.conj())
        probs += weight * np.real(np.einsum("ajJ,bjJ->ab", fa, gb))
    probs = np.clip(probs, 0.0, None)
    return EventState(
        kind="SL",
        rho=np.diag(probs.reshape(da * db)).astype(complex),
        basis_a=scenario.basis_a,
        basis_b=scenario.basis_b,
    )


def build_tl_fuzzy(scenario: EventScenario) -> EventState:
    """Record state for ordered events averaged over their firing times.

    The system evolves under the Hamiltonian until the first detector fires,
    and again between the two firings; the first firing time follows the
    marginal profile, the second the conditional rows.  Averaging can leave
    the per-outcome conditionals mixed.
    """
    if scenario.kind != "TL":
        raise ScenarioError("scenario does not describe ordered events")
    timing = _require_timing(scenario)
    check_buildable(scenario)
    grid = timing.grid
    dt = grid.dt
    n = grid.n_bins
    taus = grid.times - grid.t0
    ufam = _evolution_family(scenario.hamiltonian, taus)

    rho0 = scenario.initial_density()
    ka, kb = scenario.basis_a.kets, scenario.basis_b.kets
    rho_t = np.einsum("kij,jJ,kIJ->kiI", ufam, rho0, ufam.conj())
    rho_rec = np.einsum("ai,kiI,AI->kaA", ka.conj(), rho_t, ka)

    # Renormalize bin masses exactly so the output trace is 1 to rounding.
    wa = np.abs(timing.profile_a.amplitudes) ** 2 * dt
    wa /= wa.sum()
    wb = np.abs(timing.profile_b.amplitudes) ** 2 * dt
    wb /= wb.sum(axis=1, keepdims=True)
    joint_w = wa[:, None] * wb

    # Regroup the double time sum by lag g = l - k: the inter-event evolution
    # depends on the lag alone on a uniform grid.
    lag_w = np.zeros((n, n))
    for g in range(n):
        lag_w[: n - g, g] = joint_w[np.arange(n - g), np.arange(g, n)]
    summed = np.einsum("kg,kaA->gaA", lag_w, rho_rec)
    hops = np.einsum("bi,gij,aj->gba", kb.conj(), ufam, ka)
    blocks = np.einsum("gba,gaA,gbA->baA", hops, summed, hops.conj())
    return EventState(
        kind="TL",
        rho=_block_diagonal_in_b(blocks),
        basis_a=scenario.basis_a,
        basis_b=scenario.basis_b,
    )


def _timed_amplitudes(scenario: EventScenario) -> np.ndarray:
    """Per-cell record amplitudes a(k, l) with sum of |a|^2 equal to 1."""
    timing = scenario.timing
    grid = timing.grid
    dt = grid.dt
    if timing.joint_amplitudes is not None:
        amp = dt * timing.joint_amplitudes
    else:
        chi_a = timing.profile_a.amplitudes
        if scenario.kind == "TL":
            amp = dt * chi_a[:, None] * timing.profile_b.amplitudes
        else:
            amp = dt * np.outer(chi_a, timing.profile_b.amplitudes)
    # Renormalize exactly so the assembled state has unit trace to rounding.
    return amp / np.sqrt(np.sum(np.abs(amp) ** 2))


def build_timed_state(scenario: EventScenario) -> EventState:
    """Full record state over timer registers and detectors.

    Every grid bin becomes one basis state of each timer register, so the
    result lives on a space of dimension (n * da) * (n * db); the build is
    refused above dimension 256.  With Heisenberg projectors
    P(t) = U(t)^dagger P U(t), U(t) = exp(-i H (t - t0)), the row for "first
    outcome a at bin k, second outcome b at bin l" is the time-ordered
    product applied to each initial ket psi, scaled by the cell amplitude:
    P_b(t_l) P_a(t_k) psi when l >= k and P_a(t_k) P_b(t_l) psi when l < k.
    The state is sum_w w R R^dagger over the pure components of the initial
    state.  Ordered pairs never use the second form, since their
    conditional amplitudes vanish below the diagonal; independent pairs
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
    u = _evolution_family(ham, grid.times - grid.t0)[:, None]
    heis_a, heis_b = (u.conj().swapaxes(-1, -2) @ proj @ u for proj in (proj_a, proj_b))
    bins = np.arange(n)
    later = (bins[None, :] >= bins[:, None])[:, None, :, None, None]
    amp = _timed_amplitudes(scenario)[:, None, :, None, None]

    rho = np.zeros((total, total), dtype=complex)
    for weight, psi in scenario.initial_kets():
        forward = np.einsum("lbij,kaj->kalbi", heis_b, heis_a @ psi)
        backward = np.einsum("kaij,lbj->kalbi", heis_a, heis_b @ psi)
        rows = (amp * np.where(later, forward, backward)).reshape(total, -1)
        rho += weight * (rows @ rows.conj().T)
    return EventState(
        kind=scenario.kind,
        rho=rho,
        basis_a=scenario.basis_a,
        basis_b=scenario.basis_b,
        timers=grid,
    )


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


def _timed_tensor(state: EventState) -> np.ndarray:
    n = state.timers.n_bins
    da, db = state.dims
    return state.rho.reshape(n, da, n, db, n, da, n, db)


def trace_out_timers(state: EventState) -> EventState:
    """Reduce a timer-register state to the detector records alone."""
    if state.timers is None:
        raise ScenarioError("state carries no timer registers")
    da, db = state.dims
    reduced = np.einsum("kalbkAlB->abAB", _timed_tensor(state)).reshape(da * db, da * db)
    reduced = 0.5 * (reduced + reduced.conj().T)
    return EventState(kind=state.kind, rho=reduced, basis_a=state.basis_a, basis_b=state.basis_b)


def timer_distribution(state: EventState) -> JointTimeDistribution:
    """Joint firing-time table read off a timer-register state."""
    if state.timers is None:
        raise ScenarioError("state carries no timer registers")
    table = np.real(np.einsum("kalbkalb->kl", _timed_tensor(state)))
    return JointTimeDistribution(grid=state.timers, kind=state.kind, table=np.clip(table, 0.0, None))


def outcome_probabilities(state: EventState) -> np.ndarray:
    """Joint record probabilities p(a, b) of a detector-space state."""
    if state.timers is not None:
        raise ScenarioError("trace out the timer registers first")
    da, db = state.dims
    return np.clip(np.real(np.diag(state.rho)).reshape(da, db), 0.0, None)


@dataclass(frozen=True, eq=False)
class ConditionalDecomposition:
    """Record state split by the second detector's outcome.

    ``probs[b]`` is the chance of second outcome b; ``conditionals[b]`` is
    the first record's state given that outcome (None when the outcome never
    fires).  For ordered events whose conditionals are all pure,
    ``lambdas[b]`` holds the conditional kets, phase-fixed so the first
    nonvanishing amplitude is real positive.
    """

    kind: Literal["SL", "TL"]
    probs: np.ndarray
    conditionals: tuple
    lambdas: tuple | None
    labels_b: np.ndarray

    @property
    def n_outcomes(self) -> int:
        return self.probs.size

    @property
    def pure(self) -> bool:
        return self.lambdas is not None


def conditional_decomposition(state: EventState) -> ConditionalDecomposition:
    """Split a detector-space state by the second record's value.

    Requires the state to carry no coherence between different second
    records (true of every state this module builds).
    """
    if state.timers is not None:
        raise ScenarioError("trace out the timer registers first")
    da, db = state.dims
    four = state.rho.reshape(da, db, da, db)
    off_diagonal = ~np.eye(db, dtype=bool)
    cross = float(np.max(np.max(np.abs(four), axis=(0, 2))[off_diagonal], initial=0.0))
    if cross > HERMITICITY_TOL:
        raise NumericsError(
            f"state carries coherence between second-record values (max {cross:.3e}); "
            "it does not decompose by that record"
        )

    probs = np.zeros(db)
    conditionals: list[np.ndarray | None] = []
    for b in range(db):
        block = four[:, b, :, b]
        p = float(np.real(np.trace(block)))
        if p < EMPTY_BLOCK_FLOOR:
            probs[b] = 0.0
            conditionals.append(None)
            continue
        probs[b] = p
        sigma = block / p
        conditionals.append(_readonly(0.5 * (sigma + sigma.conj().T)))

    lambdas: tuple | None = None
    if state.kind == "TL":
        kets: list[np.ndarray | None] = []
        all_pure = True
        for sigma in conditionals:
            if sigma is None:
                kets.append(None)
                continue
            vals, vecs = np.linalg.eigh(sigma)
            if abs(vals[-1] - 1.0) > PURE_BLOCK_TOL:
                all_pure = False
                break
            ket = vecs[:, -1]
            support = np.flatnonzero(np.abs(ket) > 1e-12)
            lead = ket[support[0]]
            ket = ket * (lead.conjugate() / abs(lead))
            kets.append(_readonly(ket))
        if all_pure:
            lambdas = tuple(kets)

    return ConditionalDecomposition(
        kind=state.kind,
        probs=_readonly(probs),
        conditionals=tuple(conditionals),
        lambdas=lambdas,
        labels_b=state.basis_b.labels,
    )


def reconstruct_from_decomposition(decomp: ConditionalDecomposition, da: int) -> np.ndarray:
    """Reassemble sum_b p_b sigma_b (x) |b><b| from a decomposition."""
    blocks = [
        np.zeros((da, da)) if sigma is None else p * sigma
        for p, sigma in zip(decomp.probs, decomp.conditionals)
    ]
    return _block_diagonal_in_b(np.array(blocks))
