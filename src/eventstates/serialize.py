"""JSON round-trips for operators, bases, profiles, and record states.

All matrices serialize as separate real and imaginary nested lists in
row-major order, so files stay grep-able and diff-able.  Canonical dumps
round every float to 12 significant digits and sort keys, making repeated
runs byte-identical.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .event_states import EventState
from .policy import ScenarioError
from .quantum_core import MeasurementModel
from .timing import TimeGrid, TimingProfile

__all__ = [
    "operator_to_json",
    "operator_from_json",
    "basis_to_json",
    "basis_from_json",
    "profile_to_json",
    "profile_from_json",
    "state_to_json",
    "state_from_json",
    "chsh_report_to_json",
    "canonical_dumps",
    "save_state",
    "load_state",
    "load_json_file",
]


def _complex_parts(arr: np.ndarray) -> tuple[list, list]:
    arr = np.asarray(arr, dtype=complex)
    return np.real(arr).tolist(), np.imag(arr).tolist()


def _require(data: dict, key: str, context: str) -> Any:
    if not isinstance(data, dict):
        raise ScenarioError(f"{context}: expected an object, got {type(data).__name__}")
    if key not in data:
        raise ScenarioError(f"{context}: missing key {key!r}")
    return data[key]


def _parts_to_array(data: dict, context: str) -> np.ndarray:
    parts = _require(data, "re", context), _require(data, "im", context)
    try:
        re, im = (np.asarray(part, dtype=float) for part in parts)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{context}: re/im must be rectangular arrays of numbers") from exc
    if re.shape != im.shape:
        raise ScenarioError(f"{context}: re/im shapes differ ({re.shape} vs {im.shape})")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ScenarioError(f"{context}: non-finite entries")
    return re + 1j * im


def operator_to_json(op: np.ndarray) -> dict:
    """Serialize a square complex matrix."""
    mat = np.asarray(op, dtype=complex)
    re, im = _complex_parts(mat)
    return {"dim": int(mat.shape[0]), "re": re, "im": im}


def operator_from_json(data: dict, *, name: str = "operator") -> np.ndarray:
    mat = _parts_to_array(data, name)
    dim = int(_require(data, "dim", name))
    if mat.shape != (dim, dim):
        raise ScenarioError(f"{name}: declared dim {dim} does not match shape {mat.shape}")
    return mat


def basis_to_json(basis: MeasurementModel) -> dict:
    """Serialize a measurement basis (kets as rows, one label per row)."""
    out = operator_to_json(basis.kets)
    out["labels"] = [float(x) for x in basis.labels]
    return out


def basis_from_json(data: dict, *, name: str = "basis") -> MeasurementModel:
    kets = operator_from_json(data, name=name)
    labels = _require(data, "labels", name)
    try:
        return MeasurementModel.from_kets(kets, labels)
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def profile_to_json(profile: TimingProfile) -> dict:
    """Serialize a timing profile together with its grid."""
    re, im = _complex_parts(profile.amplitudes)
    return {
        "t0": float(profile.grid.t0),
        "dt": float(profile.grid.dt),
        "kind": profile.kind,
        "re": re,
        "im": im,
    }


def profile_from_json(data: dict, *, name: str = "profile") -> TimingProfile:
    amps = _parts_to_array(data, name)
    kind = _require(data, "kind", name)
    n = amps.shape[0]
    try:
        grid = TimeGrid(
            t0=float(_require(data, "t0", name)), dt=float(_require(data, "dt", name)), n_bins=n
        )
        return TimingProfile(grid=grid, kind=kind, amplitudes=amps)
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def state_to_json(state: EventState) -> dict:
    """Serialize a record state with its bases and any timer grid."""
    out = operator_to_json(state.rho)
    out["kind"] = state.kind
    out["record_basisA"] = basis_to_json(state.basis_a)
    out["record_basisB"] = basis_to_json(state.basis_b)
    if state.timers is not None:
        out["timers"] = {
            "t0": float(state.timers.t0),
            "dt": float(state.timers.dt),
            "n_bins": int(state.timers.n_bins),
        }
    return out


def state_from_json(data: dict) -> EventState:
    """Rebuild a record state, revalidating every structural invariant."""
    kind = _require(data, "kind", "state")
    if kind not in ("SL", "TL"):
        raise ScenarioError(f"state: kind must be 'SL' or 'TL', got {kind!r}")
    rho = operator_from_json(data, name="state")
    basis_a = basis_from_json(_require(data, "record_basisA", "state"), name="record_basisA")
    basis_b = basis_from_json(_require(data, "record_basisB", "state"), name="record_basisB")
    timers = None
    if "timers" in data:
        spec = data["timers"]
        try:
            timers = TimeGrid(
                t0=float(_require(spec, "t0", "timers")),
                dt=float(_require(spec, "dt", "timers")),
                n_bins=int(_require(spec, "n_bins", "timers")),
            )
        except ValueError as exc:
            raise ScenarioError(f"timers: {exc}") from exc
    return EventState(kind=kind, rho=rho, basis_a=basis_a, basis_b=basis_b, timers=timers)


def chsh_report_to_json(report) -> dict:
    """Serialize a CHSH report (correlators in setting order, value, bound flag)."""
    return {
        "E": [float(x) for x in report.correlators],
        "S": float(report.value),
        "tsirelson_ok": bool(report.tsirelson_ok),
    }


def _rounded(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, (np.floating, float)):
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        return float(f"{x:.12g}")
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _rounded(value.tolist())
    if isinstance(value, dict):
        return {str(k): _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, 12-significant-digit floats."""
    return json.dumps(_rounded(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def save_state(path: str, state: EventState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(state_to_json(state)))
        fh.write("\n")


def load_json_file(path: str) -> dict:
    """Read a JSON object from disk; malformed content raises ScenarioError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return data


def load_state(path: str) -> EventState:
    return state_from_json(load_json_file(path))
