"""Scenario files: a small JSON format describing an event pair to build.

A scenario file fixes the causal arrangement, the initial state, the two
measured bases, and optionally evolutions, Hamiltonians, a timing block, and
CHSH settings.  Files are validated against the packaged draft-07 schema,
``data/scenario.schema.json``, before any numerics run, so malformed input
fails with a pointed diagnostic rather than a shape error.  Acceptance of
any value is decided by one boolean walk of that schema (:func:`_accepts`)
with draft 07's own type rules; draft 07's own pass only words the refusals.

Angles in scenario files are radians, except the CHSH settings, which are
conventionally quoted in degrees.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
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
    _worded,
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

    It is read from the package once per process, on first use.  It ships
    with the package, so its validity as a draft-07 schema is pinned by the
    test suite, not meta-checked at run time.
    """
    return json.loads(resources.files("eventstates").joinpath("data/scenario.schema.json").read_text())


# Draft 07's type names and the values each takes, as its type checker has
# them: a bool is no number, and an integral float is an integer.
_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and type(x) is not bool or isinstance(x, float) and x.is_integer(),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and type(x) is not bool,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _definition(node: dict) -> dict:
    """The definition ``{"$ref": "#/definitions/<name>"}`` names, or ``node`` itself."""
    if "$ref" in node:  # draft 07 ignores the keywords next to a reference
        return schema()["definitions"][node["$ref"].rpartition("/")[2]]
    return node


def _required(instance, names, node) -> bool:
    return not isinstance(instance, dict) or all(name in instance for name in names)


def _properties(instance, properties, node) -> bool:
    if not isinstance(instance, dict):
        return True
    return all(_accepts(instance[key], sub) for key, sub in properties.items() if key in instance)


def _additional_properties(instance, allowed, node) -> bool:
    if not isinstance(instance, dict):
        return True
    properties = node.get("properties", {})
    return all(key in properties for key in instance)


def _items(instance, item, node) -> bool:
    if not isinstance(instance, list):
        return True
    item = _definition(item)  # once per array, not once per entry
    if item == {"type": "number"} and set(map(type, instance)) <= {float, int}:
        return True
    return all(_accepts(entry, item) for entry in instance)


# Keyword -> check(instance, keyword value, schema node), for the keyword forms
# the packaged schema uses, which its tests pin.  An enum holds only strings,
# so ``in`` compares as draft 07 does; NaN passes the bounds, as in draft 07,
# which compares with < and <=.
_KEYWORDS = {
    "type": lambda instance, name, node: _TYPES[name](instance),
    "enum": lambda instance, values, node: instance in values,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": lambda instance, least, node: not isinstance(instance, list) or len(instance) >= least,
    "maxItems": lambda instance, most, node: not isinstance(instance, list) or len(instance) <= most,
    "minimum": lambda instance, least, node: not (_TYPES["number"](instance) and instance < least),
    "exclusiveMinimum": lambda instance, bound, node: not (_TYPES["number"](instance) and instance <= bound),
    "oneOf": lambda instance, alternatives, node: sum(_accepts(instance, alt) for alt in alternatives) == 1,
}
# Annotations, and the definitions that references name: no verdict reads them.
_KEYWORDS.update(dict.fromkeys(("$schema", "title", "description", "definitions"), lambda *args: True))


def _accepts(instance, node) -> bool:
    """Whether draft 07 accepts ``instance`` against ``node`` of :func:`schema`.

    Returns what ``Draft7Validator(schema()).is_valid`` returns, for any
    Python value: numpy scalars, tuples and dict subclasses are typed by
    draft 07's own rules.  A comparison draft 07 cannot make either (a
    complex number against ``minimum``) raises here or is refused, and the
    refusal's draft-07 pass raises.
    """
    node = _definition(node)
    for keyword, value in node.items():
        if not _KEYWORDS[keyword](instance, value, node):
            return False
    return True


@functools.cache
def _validator_class() -> type:
    """Draft 07 that lets :func:`_accepts` decide acceptance.

    Its ``iter_errors`` yields nothing when the walk accepts the instance;
    when the walk refuses it, draft 07's own pass runs, so every refusal is
    worded as the plain pass words it.  Its ``check_schema``, which
    ``jsonschema.validate`` calls on every scenario, does nothing: the one
    schema it is given, :func:`schema`, is the packaged one, which the test
    suite meta-checks.
    """
    cls = jsonschema.validators.extend(jsonschema.Draft7Validator, {})
    draft7_iter_errors = cls.iter_errors

    def iter_errors(validator, instance):
        if _accepts(instance, validator.schema):
            return iter(())
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
    return operator_from_json(data, name)


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
        return _worded(name, MeasurementModel.from_axis_angle, theta, phi, labels=labels)
    return basis_from_json(data, name)


def _parse_initial(data: dict, name: str) -> np.ndarray:
    if "ket" in data:
        return _parts_to_array(data["ket"], f"{name}.ket")
    return operator_from_json(data["density"], f"{name}.density")


def _parse_profile(data: dict, grid: TimeGrid, name: str) -> TimingProfile:
    if "type" not in data:
        profile = profile_from_json(data, name)
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
    return _worded(name, delta_profile, grid, index)


def _parse_timing(data: dict, name: str) -> EventTiming:
    grid = _time_grid(data["grid"], f"{name}.grid")
    if "joint" in data:
        return EventTiming(joint_amplitudes=_parts_to_array(data["joint"], f"{name}.joint"), joint_grid=grid)
    profile_a = _parse_profile(data["profileA"], grid, f"{name}.profileA")
    profile_b = _parse_profile(data["profileB"], grid, f"{name}.profileB")
    return EventTiming(profile_a=profile_a, profile_b=profile_b)


# File key, the EventScenario field it fills, and its reader (value, name), in reading order.
_FIELDS = (
    ("initial", "initial", _parse_initial),
    ("basisA", "basis_a", _parse_basis),
    ("basisB", "basis_b", _parse_basis),
    ("evolution", "evolution", _parse_unitary),
    ("evolutionA", "evolution_a", _parse_unitary),
    ("evolutionB", "evolution_b", _parse_unitary),
    ("hamiltonian", "hamiltonian", operator_from_json),
    ("hamiltonianA", "hamiltonian_a", operator_from_json),
    ("hamiltonianB", "hamiltonian_b", operator_from_json),
    ("timing", "timing", _parse_timing),
)


def scenario_from_json(data: dict, *, source: str = "<memory>") -> ScenarioFile:
    """Validate and build a scenario from already-parsed JSON.

    ``data`` is checked first against :func:`schema`, as the module
    docstring describes; a refusal, or a value draft 07 cannot compare,
    raises ScenarioError prefixed with ``source``.
    """
    try:
        jsonschema.validate(data, schema(), cls=_validator_class())
    except jsonschema.ValidationError as exc:
        raise ScenarioError(f"{source}: {exc.json_path}: {exc.message}") from None
    except (TypeError, ValueError) as exc:  # a library caller's value draft 07 cannot compare
        raise ScenarioError(f"{source}: {exc}") from None

    fields = {field: read(data[key], key) for key, field, read in _FIELDS if key in data}
    scenario = EventScenario(kind=data["kind"], **fields)

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
