"""The schema pass in front of the scenario parser."""

import copy
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from eventstates import ScenarioError, scenario
from eventstates.scenario import scenario_from_json, schema


def _bundled(name: str) -> dict:
    return json.loads(resources.files("eventstates").joinpath(f"data/{name}").read_text())


_TIMED_TL = {
    "kind": "TL",
    "initial": {"ket": {"re": [0.6, 0.8], "im": [0.0, 0.0]}},
    "basisA": "Sz",
    "basisB": "Sx",
    "hamiltonian": {"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    "timing": {
        "grid": {"dt": 0.25, "n_bins": 4},
        "profileA": {"type": "delta", "bin": 0},
        "profileB": {"type": "delta", "conditional": True, "lag_bins": 1},
    },
}

_IDENTITY = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
_EXPLICIT_TL = {
    "kind": "TL",
    "initial": {"ket": {"re": [0.6, 0.8], "im": [0.0, 0.0]}},
    "basisA": dict(_IDENTITY, labels=[1.0, -1.0]),
    "basisB": "Sx",
    "evolution": _IDENTITY,
}
_JOINT_TIMING = {
    "grid": {"dt": 0.5, "n_bins": 2},
    "joint": {"re": [[0.5, 0.5], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]},
}


def test_packaged_schema_is_valid_draft7():
    jsonschema.Draft7Validator.check_schema(schema())


def test_packaged_schema_is_meta_checked_once_per_process(monkeypatch):
    # a benchmark tracer wraps jsonschema.validate, so every scenario still goes through it once
    scenario.schema.cache_clear()
    validated, checked = [], []
    validate = jsonschema.validate
    check_schema = jsonschema.Draft7Validator.check_schema

    def counting_validate(*args, **kwargs):
        validated.append(args[0])
        return validate(*args, **kwargs)

    def recording_check_schema(cls, schema_doc, *args, **kwargs):
        checked.append(schema_doc)
        return check_schema(schema_doc, *args, **kwargs)

    monkeypatch.setattr(jsonschema, "validate", counting_validate)
    monkeypatch.setattr(jsonschema.Draft7Validator, "check_schema", classmethod(recording_check_schema))
    data = _bundled("bell_sl.json")
    for _ in range(20):
        scenario_from_json(data)
    assert len(validated) == 20
    assert [doc is schema() for doc in checked].count(True) == 1


def test_scenarios_validate_with_no_meta_check_of_their_own(monkeypatch):
    # a meta-check runs a draft-07 validator over the meta-schema; schema() ran its one already
    schema()
    checks = []
    iter_errors = jsonschema.Draft7Validator.iter_errors

    def recording_iter_errors(self, *args, **kwargs):
        if self.schema == jsonschema.Draft7Validator.META_SCHEMA:
            checks.append(args)
        return iter_errors(self, *args, **kwargs)

    monkeypatch.setattr(jsonschema.Draft7Validator, "iter_errors", recording_iter_errors)
    for _ in range(5):
        scenario_from_json(_bundled("bell_sl.json"))
    assert checks == []


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _without(doc, key):
    doc = copy.deepcopy(doc)
    del doc[key]
    return doc


@pytest.mark.parametrize(
    "data",
    [
        _set(_bundled("bell_sl.json"), ("kind",), "sideways"),
        _without(_bundled("bell_sl.json"), "basisB"),
        dict(_bundled("bell_sl.json"), extra=1),
        _set(_bundled("bell_sl.json"), ("initial", "ket", "re", 1), "x"),
        _set(_TIMED_TL, ("timing", "grid", "n_bins"), 1),
        _set(_TIMED_TL, ("initial", "density"), _TIMED_TL["hamiltonian"]),
        _set(_bundled("bell_sl.json"), ("initial", "ket", "re", 1), True),
        _set(_bundled("bell_sl.json"), ("initial", "ket", "re"), []),
        _set(_TIMED_TL, ("hamiltonian", "re", 0), None),
        _set(_EXPLICIT_TL, ("basisA", "re", 1), []),
        _set(_TIMED_TL, ("hamiltonian", "im", 0, 1), True),
        _set(_TIMED_TL, ("timing",), _set(_JOINT_TIMING, ("joint", "re", 1, 0), "x")),
        _set(_TIMED_TL, ("hamiltonian", "re", 1), 0.0),
        _set(_EXPLICIT_TL, ("evolution", "re", 0), None),
        _set(_EXPLICIT_TL, ("basisA", "im"), []),
        _set(_EXPLICIT_TL, ("basisA", "labels"), [1.0, False]),
    ],
    ids=[
        "wrong-kind",
        "missing-basisB",
        "extra-key",
        "string-in-re",
        "one-bin-grid",
        "ket-and-density",
        "true-in-re",
        "empty-re",
        "none-row",
        "empty-basis-row",
        "true-in-hamiltonian-row",
        "string-in-joint-row",
        "number-for-row",
        "none-evolution-row",
        "empty-basis-matrix",
        "false-in-labels",
    ],
)
def test_schema_faults_read_as_the_plain_schema_pass_reads_them(data):
    with pytest.raises(jsonschema.ValidationError) as oracle:
        jsonschema.validate(data, schema())
    with pytest.raises(ScenarioError) as raised:
        scenario_from_json(data, source="case.json")
    assert str(raised.value) == f"case.json: {oracle.value.json_path}: {oracle.value.message}"


def test_numpy_floats_in_a_library_made_dict_are_accepted():
    # np.float64 is not exactly float, so these rows take draft 07's own items check
    data = _set(_TIMED_TL, ("hamiltonian", "re"), [list(row) for row in np.array([[0.0, 0.5], [0.5, 0.0]])])
    assert all(type(x) is np.float64 for row in data["hamiltonian"]["re"] for x in row)
    jsonschema.validate(data, schema())
    plain = _set(_TIMED_TL, ("hamiltonian", "re"), [[0.0, 0.5], [0.5, 0.0]])
    np.testing.assert_array_equal(
        scenario_from_json(data).scenario.hamiltonian, scenario_from_json(plain).scenario.hamiltonian
    )


@pytest.mark.parametrize(
    "path",
    [("basisA", "re"), ("evolution", "im")],
    ids=["basis-re", "evolution-im"],
)
@pytest.mark.parametrize("rows", ["all", "one"])
def test_numpy_float_matrix_rows_are_accepted_where_plain_rows_are(path, rows):
    # a matrix with any row that is not all exact floats or ints takes draft 07's own items
    plain = _EXPLICIT_TL[path[0]][path[1]]
    numpy_rows = [list(row) for row in np.array(plain)]
    data = _set(_EXPLICIT_TL, path, numpy_rows if rows == "all" else [numpy_rows[0], plain[1]])
    jsonschema.validate(data, schema())
    got, want = scenario_from_json(data).scenario, scenario_from_json(_EXPLICIT_TL).scenario
    np.testing.assert_array_equal(got.basis_a.kets, want.basis_a.kets)
    np.testing.assert_array_equal(got.evolution, want.evolution)


def _refs(node):
    """Every object in a JSON document that holds a ``$ref`` key."""
    if isinstance(node, dict):
        if "$ref" in node:
            yield node
        for value in node.values():
            yield from _refs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _refs(value)


def test_every_schema_reference_names_a_definition_alone():
    # the validator looks references up in definitions by name, and only in this form
    refs = list(_refs(schema()))
    assert refs
    for node in refs:
        assert list(node) == ["$ref"], node
        prefix, _, name = node["$ref"].rpartition("/")
        assert prefix == "#/definitions", node
        assert name in schema()["definitions"], node


def test_vector_definition_is_what_the_matrix_scan_assumes():
    # a matrix passes in one scan when every row is a non-empty list of plain numbers
    assert schema()["definitions"]["vector"] == {"type": "array", "minItems": 1, "items": {"type": "number"}}
