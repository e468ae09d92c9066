"""Seeded generators shared by the test modules."""

import tracemalloc

import numpy as np

from eventstates import EventScenario, EventTiming, MeasurementModel, TimeGrid, TimingProfile


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    probs = rng.dirichlet(np.ones(rank))
    rho = np.zeros((dim, dim), dtype=complex)
    for p in probs:
        ket = random_ket(rng, dim)
        rho += p * np.outer(ket, ket.conj())
    return 0.5 * (rho + rho.conj().T)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (mat + mat.conj().T)


def random_basis(rng: np.random.Generator, dim: int) -> MeasurementModel:
    return MeasurementModel.from_kets(random_unitary(rng, dim), np.arange(dim, dtype=float))


def random_pm_basis(rng: np.random.Generator) -> MeasurementModel:
    return MeasurementModel.from_kets(random_unitary(rng, 2), [1.0, -1.0])


def random_marginal_profile(rng: np.random.Generator, grid: TimeGrid) -> TimingProfile:
    amps = rng.normal(size=grid.n_bins) + 1j * rng.normal(size=grid.n_bins)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * grid.dt)
    return TimingProfile(grid=grid, kind="marginal", amplitudes=amps)


def random_conditional_profile(rng: np.random.Generator, grid: TimeGrid) -> TimingProfile:
    n = grid.n_bins
    amps = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    amps[np.tril_indices(n, k=-1)] = 0.0
    masses = np.sum(np.abs(amps) ** 2, axis=1, keepdims=True) * grid.dt
    return TimingProfile(grid=grid, kind="conditional", amplitudes=amps / np.sqrt(masses))


def random_tl_scenario(rng: np.random.Generator, dim: int = 2, mixed: bool = False) -> EventScenario:
    initial = random_density(rng, dim) if mixed else random_ket(rng, dim)
    return EventScenario(
        kind="TL",
        initial=initial,
        basis_a=random_basis(rng, dim),
        basis_b=random_basis(rng, dim),
        evolution=random_unitary(rng, dim),
    )


def random_sl_scenario(rng: np.random.Generator, da: int = 2, db: int = 2, mixed: bool = False) -> EventScenario:
    initial = random_density(rng, da * db) if mixed else random_ket(rng, da * db)
    return EventScenario(
        kind="SL",
        initial=initial,
        basis_a=random_basis(rng, da),
        basis_b=random_basis(rng, db),
    )


def random_timed_tl_scenario(rng: np.random.Generator, n_bins: int = 3, dim: int = 2) -> EventScenario:
    grid = TimeGrid(t0=float(rng.uniform(-1, 1)), dt=float(rng.uniform(0.1, 0.6)), n_bins=n_bins)
    return EventScenario(
        kind="TL",
        initial=random_ket(rng, dim),
        basis_a=random_basis(rng, dim),
        basis_b=random_basis(rng, dim),
        hamiltonian=random_hermitian(rng, dim),
        timing=EventTiming(
            profile_a=random_marginal_profile(rng, grid),
            profile_b=random_conditional_profile(rng, grid),
        ),
    )


def random_timed_sl_scenario(rng: np.random.Generator, n_bins: int = 3) -> EventScenario:
    grid = TimeGrid(t0=float(rng.uniform(-1, 1)), dt=float(rng.uniform(0.1, 0.6)), n_bins=n_bins)
    return EventScenario(
        kind="SL",
        initial=random_ket(rng, 4),
        basis_a=random_basis(rng, 2),
        basis_b=random_basis(rng, 2),
        hamiltonian_a=random_hermitian(rng, 2),
        hamiltonian_b=random_hermitian(rng, 2),
        timing=EventTiming(
            profile_a=random_marginal_profile(rng, grid),
            profile_b=random_marginal_profile(rng, grid),
        ),
    )


# Memory budgets are stated in real n x n tables at this grid size, with room
# for a few dozen length-n vectors on top.
BUDGET_BINS = 1024
REAL_TABLE_BYTES = 8 * BUDGET_BINS**2
VECTOR_ALLOWANCE_BYTES = 64 * 8 * BUDGET_BINS


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it held above what was live before the call."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak
