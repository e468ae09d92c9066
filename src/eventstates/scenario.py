"""Scenario files: a small JSON format describing an event pair to build.

A scenario file fixes the causal arrangement, the initial state, the two
measured bases, and optionally evolutions, Hamiltonians, a timing block, and
CHSH settings.  Files are validated against the packaged draft-07 schema,
``data/scenario.schema.json``, before any numerics run, so malformed input
fails with a pointed diagnostic rather than a shape error.  Acceptance is
decided by one boolean walk of that schema (:func:`_accepts`); draft 07's
own pass words the refusals.

Angles in scenario files are radians, except the CHSH settings, which are
conventionally quoted in degrees.
"""

from __future__ import annotations

import functools
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
    _integer,
    _number,
    _parts_to_array,
    _time_grid,
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

@functools.cache
def schema() -> dict:
    """The JSON schema scenario files are validated against.

    It is read from the package and meta-checked against draft 07 once per
    process, on first use.
    """
    text = resources.files("eventstates").joinpath("data/scenario.schema.json").read_text()
    packaged = json.loads(text)
    jsonschema.Draft7Validator.check_schema(packaged)
    return packaged


class _Undecided(Exception):
    """The walk has no exact draft-07 verdict: a value ``json.load`` never
    makes, or a keyword or keyword form the packaged schema does not use."""


# The exact types json.load makes, and the draft-07 type names each satisfies.
_JSON_TYPES = {
    dict: ("object",),
    list: ("array",),
    str: ("string",),
    int: ("integer", "number"),
    float: ("number",),
    bool: ("boolean",),
    type(None): ("null",),
}
_TYPE_NAMES = frozenset(name for names in _JSON_TYPES.values() for name in names)


def _type(instance, name, node) -> bool:
    if type(name) is not str or name not in _TYPE_NAMES:
        raise _Undecided  # a list of types, or no draft-07 type
    if type(instance) is float:  # draft 07 counts 4.0 as an integer
        return name == "number" or name == "integer" and instance.is_integer()
    return name in _JSON_TYPES[type(instance)]


def _enum(instance, values, node) -> bool:
    if any(type(value) is not str for value in values):
        raise _Undecided
    return type(instance) is str and instance in values


def _required(instance, names, node) -> bool:
    return type(instance) is not dict or all(name in instance for name in names)


def _properties(instance, properties, node) -> bool:
    if type(instance) is not dict:
        return True
    return all(_accepts(instance[key], sub) for key, sub in properties.items() if key in instance)


def _additional_properties(instance, allowed, node) -> bool:
    if allowed is not False or "patternProperties" in node:
        raise _Undecided
    if type(instance) is not dict:
        return True
    properties = node.get("properties", {})
    return all(key in properties for key in instance)


def _items(instance, item, node) -> bool:
    if type(item) is not dict:
        raise _Undecided  # a list of schemas, or a boolean schema
    if type(instance) is not list:
        return True
    if item == {"type": "number"} and set(map(type, instance)) <= {float, int}:
        return True
    return all(_accepts(entry, item) for entry in instance)


def _is_number(instance) -> bool:
    return type(instance) in (float, int)  # not bool, as in draft 07


# Keyword -> check(instance, keyword value, schema node).  NaN passes the
# bounds, as in draft 07, which compares with < and <=.
_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": lambda instance, least, node: type(instance) is not list or len(instance) >= least,
    "maxItems": lambda instance, most, node: type(instance) is not list or len(instance) <= most,
    "minimum": lambda instance, least, node: not (_is_number(instance) and instance < least),
    "exclusiveMinimum": lambda instance, bound, node: not (_is_number(instance) and instance <= bound),
    "oneOf": lambda instance, alternatives, node: sum(_accepts(instance, alt) for alt in alternatives) == 1,
}
# Annotations, and the definitions that references name: no verdict reads them.
_KEYWORDS.update(dict.fromkeys(("$schema", "title", "description", "definitions"), lambda *args: True))


def _accepts(instance, node) -> bool:
    """Whether draft 07 accepts ``instance`` against ``node`` of :func:`schema`.

    Returns what ``Draft7Validator(schema()).is_valid`` returns, for the
    keywords and keyword forms the packaged schema uses, and raises
    :class:`_Undecided` rather than answer for anything else.
    """
    if type(instance) not in _JSON_TYPES or type(node) is not dict:
        raise _Undecided  # numpy scalars, tuples, boolean schemas
    if "$ref" in node:  # draft 07 ignores the keywords next to a reference
        prefix, _, name = node["$ref"].rpartition("/")
        target = schema()["definitions"].get(name) if prefix == "#/definitions" else None
        if target is None:
            raise _Undecided
        return _accepts(instance, target)
    for keyword, value in node.items():
        check = _KEYWORDS.get(keyword)
        if check is None:
            raise _Undecided
        if not check(instance, value, node):
            return False
    return True


@functools.cache
def _validator_class() -> type:
    """Draft 07 that lets :func:`_accepts` decide acceptance.

    Its ``iter_errors`` yields nothing when the walk accepts the instance;
    when the walk refuses it or cannot decide, draft 07's own pass runs, so
    every refusal is worded as the plain pass words it.  Its
    ``check_schema`` does nothing: the one schema it is given,
    :func:`schema`, is meta-checked there.
    """
    cls = jsonschema.validators.extend(jsonschema.Draft7Validator, {})
    draft7_iter_errors = cls.iter_errors

    def iter_errors(validator, instance):
        try:
            if _accepts(instance, validator.schema):
                return iter(())
        except _Undecided:
            pass
        return draft7_iter_errors(validator, instance)

    cls.iter_errors = iter_errors
    cls.check_schema = classmethod(lambda cls, schema, format_checker=None: None)
    return cls


@dataclass(frozen=True)
class ScenarioFile:
    """A parsed scenario plus any CHSH settings carried alongside it."""

    scenario: EventScenario
    chsh_angles: tuple[tuple[float, float], tuple[float, float]] | None
    source: str


def _rotation_unitary(axis: str, angle: float) -> np.ndarray:
    sigma = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}[axis]
    return np.cos(angle / 2.0) * np.eye(2, dtype=complex) - 1j * np.sin(angle / 2.0) * sigma


def _parse_unitary(data: dict, name: str) -> np.ndarray:
    if "axis" in data:
        return _rotation_unitary(data["axis"], _number(data["angle"], name, "angle"))
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
        theta = _number(data["theta"], name, "theta")
        phi = _number(data.get("phi", 0.0), name, "phi")
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
        return maker(_number(data["gamma"], name, "gamma"), grid)
    if conditional:
        return delta_conditional(grid, _integer(data.get("lag_bins", 0), name, "lag_bins", most=MAX_GRID_BINS))
    index = _integer(data.get("bin", 0), name, "bin", most=MAX_GRID_BINS)
    try:
        return delta_profile(grid, index)
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def _parse_timing(data: dict) -> EventTiming:
    grid = _time_grid(data["grid"], "timing.grid")
    if "joint" in data:
        return EventTiming(
            joint_amplitudes=_parts_to_array(data["joint"], "timing.joint"), joint_grid=grid
        )
    profile_a = _parse_profile(data["profileA"], grid, "timing.profileA")
    profile_b = _parse_profile(data["profileB"], grid, "timing.profileB")
    return EventTiming(profile_a=profile_a, profile_b=profile_b)


def scenario_from_json(data: dict, *, source: str = "<memory>") -> ScenarioFile:
    """Validate and build a scenario from already-parsed JSON.

    ``data`` is checked first by one ``jsonschema.validate`` call against
    the packaged draft-07 schema, which is meta-checked once per process,
    not once per call.  A boolean walk of the schema accepts valid data;
    draft 07's own pass runs only to word a refusal, or when the walk
    cannot decide (a value ``json.load`` never makes, such as a numpy
    scalar), so verdicts and messages are the plain pass's.
    """
    try:
        jsonschema.validate(data, schema(), cls=_validator_class())
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
        dims = (scenario.basis_a.dim, scenario.basis_b.dim)
        if dims != (2, 2):
            raise ScenarioError(f"{source}: CHSH settings need two qubit records, got {dims[0]} x {dims[1]}")
        block = data["chsh"]
        chsh_angles = tuple(
            tuple(math.radians(_number(x, "chsh", key)) for x in block[key])
            for key in ("anglesA", "anglesB")
        )
    return ScenarioFile(scenario=scenario, chsh_angles=chsh_angles, source=source)


def load_scenario(path: str) -> ScenarioFile:
    """Load and validate a scenario file.

    Missing or unreadable files raise OSError (FileNotFoundError when
    missing); content that is not UTF-8 JSON, or schema violations, raise
    ScenarioError; numeric invariant failures raise
    NumericsError.
    """
    return scenario_from_json(load_json_file(path), source=path)
