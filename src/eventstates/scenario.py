"""Scenario files: a small JSON format describing an event pair to build.

A scenario file fixes the causal arrangement, the initial state, the two
measured bases, and optionally evolutions, Hamiltonians, a timing block, and
CHSH settings.  Files are schema-validated before any numerics run, so
malformed input fails with a pointed diagnostic rather than a shape error.

Angles in scenario files are radians, except the CHSH settings, which are
conventionally quoted in degrees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from .event_states import EventScenario
from .policy import MAX_GRID_BINS, ScenarioError
from .quantum_core import PAULI_X, PAULI_Y, PAULI_Z, MeasurementModel
from .serialize import (
    _parts_to_array,
    basis_from_json,
    load_json_file,
    operator_from_json,
    profile_from_json,
)
from .timing import (
    EventTiming,
    TimeGrid,
    TimingProfile,
    delta_conditional,
    delta_profile,
    exponential_conditional,
    exponential_profile,
)

__all__ = ["ScenarioFile", "scenario_from_json", "load_scenario", "schema"]

_SCHEMA_CACHE: dict | None = None


def schema() -> dict:
    """The JSON schema scenario files are validated against."""
    global _SCHEMA_CACHE
    if _SCHEMA_CACHE is None:
        text = resources.files("eventstates").joinpath("data/scenario.schema.json").read_text()
        _SCHEMA_CACHE = json.loads(text)
    return _SCHEMA_CACHE


@dataclass(frozen=True)
class ScenarioFile:
    """A parsed scenario plus any CHSH settings carried alongside it."""

    scenario: EventScenario
    chsh_angles: tuple[tuple[float, float], tuple[float, float]] | None
    source: str


def _finite(value, field: str, key: str) -> float:
    """``float(value)``, refusing the NaN and infinities that JSON parsing lets through."""
    x = float(value)
    if not math.isfinite(x):
        raise ScenarioError(f"{field}: {key} must be a finite number, got {x}")
    return x


def _bin_count(value, field: str, key: str) -> int:
    """``int(value)``, refusing counts beyond ``MAX_GRID_BINS``."""
    if value > MAX_GRID_BINS:
        raise ScenarioError(f"{field}: {key} must be at most {MAX_GRID_BINS}, got {value}")
    return int(value)


def _rotation_unitary(axis: str, angle: float) -> np.ndarray:
    sigma = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}[axis]
    return np.cos(angle / 2.0) * np.eye(2, dtype=complex) - 1j * np.sin(angle / 2.0) * sigma


def _parse_unitary(data: dict, name: str) -> np.ndarray:
    if "axis" in data:
        return _rotation_unitary(data["axis"], _finite(data["angle"], name, "angle"))
    return operator_from_json(data, name=name)


_NAMED_BASES = {
    "Sz": MeasurementModel.sz,
    "Sx": MeasurementModel.sx,
    "Sy": MeasurementModel.sy,
}


def _parse_basis(data, name: str) -> MeasurementModel:
    if isinstance(data, str):
        return _NAMED_BASES[data]()
    if "theta" in data:
        labels = data.get("labels", (1.0, -1.0))
        theta = _finite(data["theta"], name, "theta")
        phi = _finite(data.get("phi", 0.0), name, "phi")
        try:
            return MeasurementModel.from_axis_angle(theta, phi, labels=labels)
        except ValueError as exc:
            raise ScenarioError(f"{name}: {exc}") from exc
    return basis_from_json(data, name=name)


def _parse_initial(data: dict) -> np.ndarray:
    if "ket" in data:
        ket = _parts_to_array(data["ket"], "initial.ket")
        if ket.ndim != 1:
            raise ScenarioError("initial.ket: re/im must be equal-length vectors")
        return ket
    return operator_from_json(data["density"], name="initial.density")


def _parse_profile(data: dict, grid: TimeGrid, name: str) -> TimingProfile:
    if "type" not in data:
        profile = profile_from_json(data, name=name)
        if profile.grid != grid:
            raise ScenarioError(f"{name}: profile grid does not match the timing grid")
        return profile
    conditional = bool(data.get("conditional", False))
    if data["type"] == "exponential":
        if "gamma" not in data:
            raise ScenarioError(f"{name}: an exponential profile needs 'gamma'")
        maker = exponential_conditional if conditional else exponential_profile
        return maker(_finite(data["gamma"], name, "gamma"), grid)
    if conditional:
        return delta_conditional(grid, _bin_count(data.get("lag_bins", 0), name, "lag_bins"))
    try:
        return delta_profile(grid, int(data.get("bin", 0)))
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def _parse_timing(data: dict) -> EventTiming:
    spec = data["grid"]
    n_bins = _bin_count(spec["n_bins"], "timing.grid", "n_bins")
    t0 = _finite(spec.get("t0", 0.0), "timing.grid", "t0")
    dt = _finite(spec["dt"], "timing.grid", "dt")
    try:
        grid = TimeGrid(t0=t0, dt=dt, n_bins=n_bins)
    except ValueError as exc:
        raise ScenarioError(f"timing.grid: {exc}") from exc
    if "joint" in data:
        return EventTiming(
            joint_amplitudes=_parts_to_array(data["joint"], "timing.joint"), joint_grid=grid
        )
    profile_a = _parse_profile(data["profileA"], grid, "timing.profileA")
    profile_b = _parse_profile(data["profileB"], grid, "timing.profileB")
    return EventTiming(profile_a=profile_a, profile_b=profile_b)


def scenario_from_json(data: dict, *, source: str = "<memory>") -> ScenarioFile:
    """Validate and build a scenario from already-parsed JSON."""
    try:
        jsonschema.validate(data, schema())
    except jsonschema.ValidationError as exc:
        raise ScenarioError(f"{source}: {exc.json_path}: {exc.message}") from None

    kwargs = {
        "kind": data["kind"],
        "initial": _parse_initial(data["initial"]),
        "basis_a": _parse_basis(data["basisA"], "basisA"),
        "basis_b": _parse_basis(data["basisB"], "basisB"),
    }
    for json_key, field in (
        ("evolution", "evolution"),
        ("evolutionA", "evolution_a"),
        ("evolutionB", "evolution_b"),
    ):
        if json_key in data:
            kwargs[field] = _parse_unitary(data[json_key], json_key)
    for json_key, field in (
        ("hamiltonian", "hamiltonian"),
        ("hamiltonianA", "hamiltonian_a"),
        ("hamiltonianB", "hamiltonian_b"),
    ):
        if json_key in data:
            kwargs[field] = operator_from_json(data[json_key], name=json_key)
    if "timing" in data:
        kwargs["timing"] = _parse_timing(data["timing"])

    scenario = EventScenario(**kwargs)

    chsh_angles = None
    if "chsh" in data:
        if scenario.kind != "SL":
            raise ScenarioError(f"{source}: CHSH settings only apply to independent pairs")
        block = data["chsh"]
        chsh_angles = tuple(
            tuple(math.radians(_finite(x, "chsh", key)) for x in block[key])
            for key in ("anglesA", "anglesB")
        )
    return ScenarioFile(scenario=scenario, chsh_angles=chsh_angles, source=source)


def load_scenario(path: str) -> ScenarioFile:
    """Load and validate a scenario file.

    Missing files raise FileNotFoundError; malformed JSON or schema
    violations raise ScenarioError; numeric invariant failures raise
    NumericsError.
    """
    return scenario_from_json(load_json_file(path), source=path)
