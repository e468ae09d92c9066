"""Seeded inputs for the four workloads.

Everything here is plain numpy and JSON: the program under test never runs
while inputs are made, and the same seed always gives byte-identical text
from :func:`dumps`.  Complex arrays travel as ``[re, im]`` pairs of nested
lists, scenario files in the package's own scenario format.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("cli", "records", "searches", "grids")

# Distinct cases per run; operations cycle through them.  Sized so that a
# 20 s run rarely repeats a case, which keeps the per-run mean cost close to
# the population mean whatever the seed.
RECORD_BUNDLES = 48
SEARCH_CASES = 256
GRID_CASES = 48

# Fuzzy-build ladder (bins) and timer-register grids (bins) of the grids
# workload.  Ladder grids cover the decay up to a tail mass of 1e-7.
LADDER_BINS = (250, 500, 1000, 2000)
LADDER_TAIL = 1e-7
TIMED_BINS = (4, 8)
TIMED_GAMMA_DT = 0.5


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def pair(arr) -> list:
    arr = np.asarray(arr, dtype=complex)
    return [np.real(arr).tolist(), np.imag(arr).tolist()]


def unpair(data) -> np.ndarray:
    return np.asarray(data[0], dtype=float) + 1j * np.asarray(data[1], dtype=float)


def ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def density(rng: np.random.Generator, dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    for weight in rng.dirichlet(np.ones(dim)):
        vec = ket(rng, dim)
        rho += weight * np.outer(vec, vec.conj())
    return 0.5 * (rho + rho.conj().T)


def hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (mat + mat.conj().T)


def operator_json(mat) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {"dim": int(mat.shape[0]), "re": np.real(mat).tolist(), "im": np.imag(mat).tolist()}


def ket_json(vec) -> dict:
    vec = np.asarray(vec, dtype=complex)
    return {"re": np.real(vec).tolist(), "im": np.imag(vec).tolist()}


def explicit_basis_json(rng: np.random.Generator, dim: int) -> dict:
    out = operator_json(unitary(rng, dim))
    out["labels"] = [float(x) for x in range(dim)]
    return out


def axis_basis_json(rng: np.random.Generator) -> dict:
    return {"theta": float(rng.uniform(0.0, math.pi)), "phi": float(rng.uniform(0.0, 2 * math.pi))}


# ------------------------------------------------------------------ records


def _records_bundle(rng: np.random.Generator) -> dict:
    sl = {
        "kind": "SL",
        "initial": {"ket": ket_json(ket(rng, 4))},
        "basisA": axis_basis_json(rng),
        "basisB": axis_basis_json(rng),
        "chsh": {
            "anglesA": [float(x) for x in rng.uniform(-180.0, 180.0, 2)],
            "anglesB": [float(x) for x in rng.uniform(-180.0, 180.0, 2)],
        },
    }
    tl2 = {
        "kind": "TL",
        "initial": {"ket": ket_json(ket(rng, 2))},
        "basisA": dict(axis_basis_json(rng), labels=[1.0, -1.0]),
        "basisB": explicit_basis_json(rng, 2),
        "evolution": {"axis": "xyz"[int(rng.integers(3))], "angle": float(rng.uniform(-math.pi, math.pi))},
    }
    tl3 = {
        "kind": "TL",
        "initial": {"density": operator_json(density(rng, 3))},
        "basisA": explicit_basis_json(rng, 3),
        "basisB": explicit_basis_json(rng, 3),
        "evolution": operator_json(unitary(rng, 3)),
    }
    tl8 = {
        "kind": "TL",
        "initial": {"ket": ket_json(ket(rng, 8))},
        "basisA": explicit_basis_json(rng, 8),
        "basisB": explicit_basis_json(rng, 8),
        "evolution": operator_json(unitary(rng, 8)),
    }
    return {"sl": sl, "tl2": tl2, "tl3": tl3, "tl8": tl8}


def records_inputs(seed: int) -> dict:
    rng = _rng("records", seed)
    return {"bundles": [_records_bundle(rng) for _ in range(RECORD_BUNDLES)]}


# ----------------------------------------------------------------- searches


def searches_inputs(seed: int) -> dict:
    rng = _rng("searches", seed)
    cases = []
    for _ in range(SEARCH_CASES):
        cases.append(
            {
                "psi": pair(ket(rng, 2)),
                "evolution": pair(unitary(rng, 2)),
                "basisA": pair(unitary(rng, 2)),
                "basisB": pair(unitary(rng, 2)),
                "psi_sl": pair(ket(rng, 4)),
                "basisA_sl": pair(unitary(rng, 2)),
                "basisB_sl": pair(unitary(rng, 2)),
            }
        )
    return {"cases": cases}


# -------------------------------------------------------------------- grids


def grids_inputs(seed: int) -> dict:
    rng = _rng("grids", seed)
    cases = []
    for _ in range(GRID_CASES):
        gamma = float(rng.uniform(0.5, 2.0))
        cases.append(
            {
                "gamma": gamma,
                "gammaB": gamma * float(rng.uniform(1.0, 1.5)),
                "hamiltonian": pair(hermitian(rng, 2)),
                "hamiltonianA": pair(hermitian(rng, 2)),
                "hamiltonianB": pair(hermitian(rng, 2)),
                "psi": pair(ket(rng, 2)),
                "psi_sl": pair(ket(rng, 4)),
                "basisA": pair(unitary(rng, 2)),
                "basisB": pair(unitary(rng, 2)),
            }
        )
    return {
        "cases": cases,
        "ladder": list(LADDER_BINS),
        "ladder_tail": LADDER_TAIL,
        "timed_bins": list(TIMED_BINS),
        "timed_gamma_dt": TIMED_GAMMA_DT,
    }


# ---------------------------------------------------------------------- cli

# Malformed scenarios that ``validate`` should reject with exit 2 and a
# one-line ``error:`` message.  They do not depend on the seed.
_PLAIN_TL = {
    "kind": "TL",
    "initial": {"ket": {"re": [0.6, 0.8], "im": [0.0, 0.0]}},
    "basisA": "Sz",
    "basisB": "Sx",
}
_ZERO_H = {"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
_GRID4 = {"dt": 0.5, "n_bins": 4}
MALFORMED = {
    "bad_duplicate_labels.json": dict(_PLAIN_TL, basisA={"theta": 0.3, "labels": [1.0, 1.0]}),
    "bad_delta_bin.json": dict(
        _PLAIN_TL,
        hamiltonian=_ZERO_H,
        timing={
            "grid": _GRID4,
            "profileA": {"type": "delta", "bin": 9},
            "profileB": {"type": "delta", "conditional": True, "lag_bins": 0},
        },
    ),
    "bad_ragged_re.json": dict(
        _PLAIN_TL,
        initial={"density": {"dim": 2, "re": [[0.5, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}},
    ),
    "bad_exponential_no_gamma.json": dict(
        _PLAIN_TL,
        hamiltonian=_ZERO_H,
        timing={
            "grid": _GRID4,
            "profileA": {"type": "exponential"},
            "profileB": {"type": "exponential", "gamma": 1.0, "conditional": True},
        },
    ),
    "bad_nan_ket.json": dict(_PLAIN_TL, initial={"ket": {"re": [float("nan"), 1.0], "im": [0.0, 0.0]}}),
}


def cli_inputs(seed: int) -> dict:
    rng = _rng("cli", seed)
    timed_n = 8
    timed_gamma = float(rng.uniform(0.5, 2.0))
    files = {
        "sl_qubit.json": {
            "kind": "SL",
            "initial": {"ket": ket_json(ket(rng, 4))},
            "basisA": axis_basis_json(rng),
            "basisB": axis_basis_json(rng),
            "chsh": {
                "anglesA": [float(x) for x in rng.uniform(-180.0, 180.0, 2)],
                "anglesB": [float(x) for x in rng.uniform(-180.0, 180.0, 2)],
            },
        },
        "sl_qubit_qutrit.json": {
            "kind": "SL",
            "initial": {"density": operator_json(density(rng, 6))},
            "basisA": explicit_basis_json(rng, 2),
            "basisB": explicit_basis_json(rng, 3),
        },
        "tl_qubit.json": {
            "kind": "TL",
            "initial": {"ket": ket_json(ket(rng, 2))},
            "basisA": explicit_basis_json(rng, 2),
            "basisB": explicit_basis_json(rng, 2),
            "evolution": operator_json(unitary(rng, 2)),
        },
        "tl_qutrit.json": {
            "kind": "TL",
            "initial": {"density": operator_json(density(rng, 3))},
            "basisA": explicit_basis_json(rng, 3),
            "basisB": explicit_basis_json(rng, 3),
            "evolution": operator_json(unitary(rng, 3)),
        },
        "timed_tl.json": {
            "kind": "TL",
            "initial": {"ket": ket_json(ket(rng, 2))},
            "basisA": explicit_basis_json(rng, 2),
            "basisB": explicit_basis_json(rng, 2),
            "hamiltonian": operator_json(hermitian(rng, 2)),
            "timing": {
                "grid": {"t0": 0.0, "dt": TIMED_GAMMA_DT / timed_gamma, "n_bins": timed_n},
                "profileA": {"type": "exponential", "gamma": timed_gamma},
                "profileB": {"type": "exponential", "gamma": timed_gamma, "conditional": True},
            },
        },
    }
    files.update(MALFORMED)
    rotation = [
        ["demo", "appendix-e", "--json"],
        ["demo", "decay", "--json"],
        ["demo", "hadamard-tl", "--json"],
        ["demo", "bell-sl", "--json"],
        ["validate", "sl_qubit.json", "--json"],
        ["build", "tl_qubit.json", "--out", "tl_qubit.state.json"],
        ["build", "sl_qubit_qutrit.json", "--out", "sl_qubit_qutrit.state.json"],
        ["build", "timed_tl.json", "--timed", "--out", "timed_tl.state.json"],
        ["witness", "timed_tl.json", "--json"],
        ["witness", "timed_tl.state.json", "--json"],
        ["witness", "tl_qutrit.json", "--json"],
        ["discriminate", "tl_qubit.state.json", "--json"],
        ["classical-corr", "tl_qubit.json", "--json"],
        ["chsh", "sl_qubit.json", "--csv"],
    ] + [["validate", name] for name in MALFORMED]
    return {"files": files, "rotation": rotation}


MAKERS = {
    "cli": cli_inputs,
    "records": records_inputs,
    "searches": searches_inputs,
    "grids": grids_inputs,
}


def make_inputs(workload: str, seed: int) -> dict:
    return MAKERS[workload](seed)


def dumps(inputs: dict) -> str:
    """Canonical text of an input set; NaN is kept for the malformed file."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"))
