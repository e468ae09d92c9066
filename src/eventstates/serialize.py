"""JSON round-trips for operators, bases, profiles, and record states.

All matrices serialize as separate real and imaginary nested lists in
row-major order, so files stay grep-able and diff-able.  Canonical dumps
round every float to 12 significant digits and sort keys, making repeated
runs byte-identical.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from json.encoder import encode_basestring_ascii as _json_string
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


def _number(data: dict, key: str, context: str) -> float:
    """``data[key]`` as a float; anything but a JSON number raises ScenarioError."""
    value = _require(data, key, context)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{context}: {key} must be a number, got {type(value).__name__}")
    return float(value)


def _integer(data: dict, key: str, context: str) -> int:
    """``data[key]`` as an int; only an integral JSON number (4 or 4.0) passes."""
    value = _require(data, key, context)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        shown = repr(value) if isinstance(value, float) else type(value).__name__
        raise ScenarioError(f"{context}: {key} must be an integer, got {shown}")
    return int(value)


def _float_array(value: Any, error: str) -> np.ndarray:
    """``value`` as a float array; unless it is rectangular and every element is
    a real number but not a bool (one flat scan of types), raise ``error``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(error) from exc
    leaves = value if arr.ndim else [value]
    for _ in range(arr.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    if not all(t is not bool and issubclass(t, numbers.Real) for t in set(map(type, leaves))):
        raise ScenarioError(error)
    return arr


def _parts_to_array(data: dict, context: str) -> np.ndarray:
    parts = _require(data, "re", context), _require(data, "im", context)
    error = f"{context}: re/im must be rectangular arrays of numbers"
    re, im = (_float_array(part, error) for part in parts)
    if re.shape != im.shape:
        raise ScenarioError(f"{context}: re/im shapes differ ({re.shape} vs {im.shape})")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ScenarioError(f"{context}: non-finite entries")
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def operator_to_json(op: np.ndarray) -> dict:
    """Serialize a square complex matrix."""
    mat = np.asarray(op, dtype=complex)
    re, im = _complex_parts(mat)
    return {"dim": int(mat.shape[0]), "re": re, "im": im}


def operator_from_json(data: dict, *, name: str = "operator") -> np.ndarray:
    mat = _parts_to_array(data, name)
    dim = _integer(data, "dim", name)
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
    labels = _float_array(_require(data, "labels", name), f"{name}: labels must be an array of numbers")
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
    t0, dt = _number(data, "t0", name), _number(data, "dt", name)
    try:
        grid = TimeGrid(t0=t0, dt=dt, n_bins=amps.shape[0])
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
    rho = operator_from_json(data, name="state")
    basis_a = basis_from_json(_require(data, "record_basisA", "state"), name="record_basisA")
    basis_b = basis_from_json(_require(data, "record_basisB", "state"), name="record_basisB")
    timers = None
    if "timers" in data:
        spec = data["timers"]
        t0, dt = _number(spec, "t0", "timers"), _number(spec, "dt", "timers")
        n_bins = _integer(spec, "n_bins", "timers")
        try:
            timers = TimeGrid(t0=t0, dt=dt, n_bins=n_bins)
        except (OverflowError, ValueError) as exc:
            raise ScenarioError(f"timers: {exc}") from exc
    return EventState(kind=kind, rho=rho, basis_a=basis_a, basis_b=basis_b, timers=timers)


def chsh_report_to_json(report) -> dict:
    """Serialize a CHSH report (correlators in setting order, value, bound flag)."""
    return {
        "E": [float(x) for x in report.correlators],
        "S": float(report.value),
        "tsirelson_ok": bool(report.tsirelson_ok),
    }


def _float_text(x: float) -> str:
    """JSON text of one float rounded to 12 significant digits."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return repr(float(f"{x:.12g}"))


@functools.cache
def _row_format(n: int) -> str:
    return ",".join(["%.12g"] * n)


def _float_array_text(values: list) -> str:
    """JSON array of plain floats, each rounded to 12 significant digits.

    The row is formatted by one "%.12g" string.  For a finite normal double a
    decimal of at most 12 significant digits is the unique shortest repr of
    the double it parses to, so the text equals ``repr(float(f"{x:.12g}"))``
    once bare integers get their ".0".  Rows holding "n" (nan, inf), "e+1"
    (1e12 up to 1e16, where "%g" writes an exponent and repr does not) or
    "e-3" (subnormals, whose repr can be shorter) take the per-number path.
    """
    text = _row_format(len(values)) % tuple(values)
    if "n" in text or "e+1" in text or "e-3" in text:
        text = ",".join(map(repr, map(float, map("{:.12g}".format, values))))
        # A finite float's repr never holds an "n"; "nan" and "inf" do.
        if "n" in text:
            for x in values:
                _float_text(x)
    elif text.count(".") < len(values):
        # No token holds two dots, so some token lacks one: a bare integer,
        # which repr writes with ".0", or a form such as "1e-05", which it
        # does not.
        text = ",".join([t if "." in t or "e" in t else t + ".0" for t in text.split(",")])
    return f"[{text}]"


def _encode(value: Any) -> str:
    """Canonical JSON text of ``value``, built directly from the values."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (np.floating, float)):
        return _float_text(float(value))
    if isinstance(value, (np.integer, int)):
        return int.__repr__(int(value))
    if isinstance(value, np.ndarray):
        return _encode(value.tolist())
    if isinstance(value, dict):
        fields = {str(k): _encode(v) for k, v in value.items()}
        return "{" + ",".join(f"{_json_string(k)}:{fields[k]}" for k in sorted(fields)) + "}"
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) == {float}:
            return _float_array_text(value)
        return "[" + ",".join(map(_encode, value)) + "]"
    if value is None:
        return "null"
    if isinstance(value, str):
        return _json_string(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, 12-significant-digit floats, no whitespace.

    Non-finite floats raise ValueError.  The text is written directly from
    the values (lists of floats one join each), without a rounded copy of
    the payload.
    """
    return _encode(obj)


def save_state(path: str, state: EventState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(state_to_json(state)))
        fh.write("\n")


def _json_int(text: str) -> int | float:
    """An integer literal; one beyond the float range reads as an infinity, as 1e400 does."""
    value = float(text)
    return int(text) if math.isfinite(value) else value


def load_json_file(path: str) -> dict:
    """Read a JSON object from disk; content that is not UTF-8 JSON raises ScenarioError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=_json_int)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return data


def load_state(path: str) -> EventState:
    return state_from_json(load_json_file(path))
