"""JSON round-trips for operators, bases, profiles, and record states.

All matrices serialize as separate real and imaginary nested arrays in
row-major order, so files stay grep-able and diff-able.  Payloads hold
float64 arrays, so ``json.dumps`` needs ``default=np.ndarray.tolist``.
Canonical dumps round floats to 12 significant digits and sort keys, so
repeated runs are byte-identical; a 2-D float64 array is written from its
nonzero entries, a block of rows at a time, as each number alone would be.
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
from .policy import MAX_GRID_BINS, ScenarioError, _integral_text
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


def _complex_parts(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(arr, dtype=complex)
    return arr.real.copy(), arr.imag.copy()


def _require(data: dict, key: str, context: str) -> Any:
    if not isinstance(data, dict):
        raise ScenarioError(f"{context}: expected an object, got {type(data).__name__}")
    if key not in data:
        raise ScenarioError(f"{context}: missing key {key!r}")
    return data[key]


def _number(value: Any, context: str, key: str) -> float:
    """``value`` as a float; anything but a finite JSON number raises ScenarioError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{context}: {key} must be a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ScenarioError(f"{context}: {key} must be finite")
    return float(value)


def _integer(value: Any, context: str, key: str, *, most: int | None = None) -> int:
    """``value`` as an int; only an integral JSON number (4 or 4.0), at most ``most`` if given, passes."""
    integral = isinstance(value, float) and value.is_integer() or isinstance(value, numbers.Integral)
    if isinstance(value, bool) or not integral:
        shown = repr(value) if isinstance(value, float) else type(value).__name__
        raise ScenarioError(f"{context}: {key} must be an integer, got {shown}")
    if most is not None and value > most:
        raise ScenarioError(f"{context}: {key} must be at most {most}, got {_integral_text(value)}")
    return int(value)


def _worded(context: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises becomes ScenarioError("<context>: <message>")."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{context}: {exc}") from exc


def _time_grid(spec: dict, context: str, n_bins: int | None = None) -> TimeGrid:
    """The grid of ``spec``: ``t0`` (0 when absent), ``dt``, and the bin count ``n_bins`` unless given."""
    dt = _number(_require(spec, "dt", context), context, "dt")
    t0 = _number(spec.get("t0", 0.0), context, "t0")
    if n_bins is None:
        n_bins = _integer(_require(spec, "n_bins", context), context, "n_bins", most=MAX_GRID_BINS)
    return _worded(context, TimeGrid, t0=t0, dt=dt, n_bins=n_bins)


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


def operator_from_json(data: dict, name: str = "operator") -> np.ndarray:
    mat = _parts_to_array(data, name)
    dim = _integer(_require(data, "dim", name), name, "dim")
    if mat.shape != (dim, dim):
        raise ScenarioError(f"{name}: declared dim {_integral_text(dim)} does not match shape {mat.shape}")
    return mat


def basis_to_json(basis: MeasurementModel) -> dict:
    """Serialize a measurement basis (kets as rows, one label per row)."""
    out = operator_to_json(basis.kets)
    out["labels"] = np.array(basis.labels, dtype=float)
    return out


def basis_from_json(data: dict, name: str = "basis") -> MeasurementModel:
    kets = operator_from_json(data, name)
    labels = _float_array(_require(data, "labels", name), f"{name}: labels must be an array of numbers")
    return _worded(name, MeasurementModel.from_kets, kets, labels)


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


def profile_from_json(data: dict, name: str = "profile") -> TimingProfile:
    amps = _parts_to_array(data, name)
    kind = _require(data, "kind", name)
    if amps.ndim == 0:
        raise ScenarioError(f"{name}: re/im must be arrays, not single numbers")
    grid = _time_grid(data, name, n_bins=len(amps))
    return _worded(name, TimingProfile, grid=grid, kind=kind, amplitudes=amps)


def state_to_json(state: EventState) -> dict:
    """Serialize a record state with its bases and any timer grid."""
    out = operator_to_json(state.rho)
    out["kind"] = state.kind
    out["record_basisA"] = basis_to_json(state.basis_a)
    out["record_basisB"] = basis_to_json(state.basis_b)
    if state.timers is not None:
        grid = state.timers
        out["timers"] = {"t0": float(grid.t0), "dt": float(grid.dt), "n_bins": int(grid.n_bins)}
    return out


def state_from_json(data: dict) -> EventState:
    """Rebuild a record state, revalidating every structural invariant."""
    kind = _require(data, "kind", "state")
    rho = operator_from_json(data, "state")
    basis_a = basis_from_json(_require(data, "record_basisA", "state"), "record_basisA")
    basis_b = basis_from_json(_require(data, "record_basisB", "state"), "record_basisB")
    timers = _time_grid(data["timers"], "timers") if "timers" in data else None
    return EventState(kind=kind, rho=rho, basis_a=basis_a, basis_b=basis_b, timers=timers)


def chsh_report_to_json(report) -> dict:
    """Serialize a CHSH report (correlators in setting order, value, bound flag)."""
    return {
        "E": np.array(report.correlators, dtype=float),
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
    "e-3" (subnormals, whose repr can be shorter) are written number by number
    by :func:`_float_text`, which raises on the first non-finite one.
    """
    text = _row_format(len(values)) % tuple(values)
    if "n" in text or "e+1" in text or "e-3" in text:
        text = ",".join(map(_float_text, values))
    elif text.count(".") < len(values):
        # No token holds two dots, so some token lacks one: a bare integer,
        # which repr writes with ".0", or a form such as "1e-05", which it
        # does not.
        text = ",".join([t if "." in t or "e" in t else t + ".0" for t in text.split(",")])
    return f"[{text}]"


# Entries per block of matrix rows: the block's temporaries, not the whole
# matrix's, are what a large state write holds at once.
_MATRIX_BLOCK = 4096
_ZERO_TEXTS = np.array(["0.0", "-0.0"], dtype=object)


def _float_matrix_text(matrix: np.ndarray) -> str:
    """JSON array of the rows' ``_float_array_text``, formatting only nonzero entries.

    ``matrix`` is a non-empty 2-D float64 array of any layout.  A record
    state is block-diagonal in the later record, so most of its entries are
    exact zeros; those are written as the fixed tokens "0.0" and "-0.0", and
    the nonzero entries of each block of rows sliced from it go through
    ``_float_array_text`` in one call.  A NaN or inf is nonzero and raises
    there, the first in row-major order, as the per-row text would.
    """
    step = max(1, _MATRIX_BLOCK // matrix.shape[1])
    blocks = []
    for start in range(0, len(matrix), step):
        values = matrix[start : start + step]
        texts = _ZERO_TEXTS[np.signbit(values).view(np.uint8)]
        nonzero = values != 0.0
        if nonzero.any():
            texts[nonzero] = _float_array_text(values[nonzero].tolist())[1:-1].split(",")
        blocks.append("],[".join(map(",".join, texts.tolist())))
    return "[[" + "],[".join(blocks) + "]]"


def _encode(value: Any) -> str:
    """Canonical JSON text of ``value``, built directly from the values."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (np.floating, float)):
        return _float_text(float(value))
    if isinstance(value, (np.integer, int)):
        return int.__repr__(int(value))
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 and value.size:
            if value.ndim == 2:
                return _float_matrix_text(value)
            if value.ndim == 1:
                return _float_array_text(value.tolist())
        return _encode(value.tolist())
    if isinstance(value, dict):
        fields = {str(k): _encode(v) for k, v in value.items()}
        return "{" + ",".join(f"{_json_string(k)}:{fields[k]}" for k in sorted(fields)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_encode, value)) + "]"
    if value is None:
        return "null"
    if isinstance(value, str):
        return _json_string(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, 12-significant-digit floats, no whitespace.

    Non-finite floats raise ValueError.  :func:`_encode` writes the text.
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
