"""The schema pass in front of the scenario parser."""

import copy
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventstates import ScenarioError, scenario
from eventstates.scenario import _accepts, _validator_class, scenario_from_json, schema
from test_cli import _MUTANT_SEEDS, _mutant, _mutated_scenarios


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


def test_packaged_schema_is_never_meta_checked_at_run_time(monkeypatch):
    # the packaged schema's validity is pinned by test_packaged_schema_is_valid_draft7;
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
    assert checked == []


def test_scenarios_validate_with_no_meta_check_of_their_own(monkeypatch):
    # a meta-check runs a draft-07 validator over the meta-schema; the schema is loaded before counting
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


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("kind",), np.array(["SL", "TL"]), "^case.json: The truth value"),
        (("basisA",), np.array(["Sz", "Sx"]), "^case.json: The truth value"),
        (("hamiltonian", "dim"), 2j, "^case.json: '<' not supported"),
        (("timing", "grid", "dt"), 1j, "^case.json: '<=' not supported"),
        (("kind",), np.array(["TL"]), r"^kind must be 'SL' or 'TL', got array\(\['TL'\]"),
    ],
    ids=["array-kind", "array-basis", "complex-dim", "complex-dt", "one-element-array-kind"],
)
def test_library_values_draft7_cannot_compare_are_scenario_errors(path, value, message):
    # files cannot carry these values; a library caller's dict can
    with pytest.raises(ScenarioError, match=message):
        scenario_from_json(_set(_TIMED_TL, path, value), source="case.json")


def test_numpy_floats_in_a_library_made_dict_are_accepted():
    # np.float64 is not exactly float, so the walk types these rows entry by entry
    data = _set(_TIMED_TL, ("hamiltonian", "re"), [list(row) for row in np.array([[0.0, 0.5], [0.5, 0.0]])])
    assert all(type(x) is np.float64 for row in data["hamiltonian"]["re"] for x in row)
    jsonschema.validate(data, schema())
    assert _accepts(data, schema()) is True
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
    # a row that is not all exact floats or ints is typed entry by entry
    plain = _EXPLICIT_TL[path[0]][path[1]]
    numpy_rows = [list(row) for row in np.array(plain)]
    data = _set(_EXPLICIT_TL, path, numpy_rows if rows == "all" else [numpy_rows[0], plain[1]])
    jsonschema.validate(data, schema())
    assert _accepts(data, schema()) is True
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
    # the walk looks references up in definitions by name, once, and only in this form
    refs = list(_refs(schema()))
    assert refs
    for node in refs:
        assert list(node) == ["$ref"], node
        prefix, _, name = node["$ref"].rpartition("/")
        assert prefix == "#/definitions", node
        assert name in schema()["definitions"], node
        assert "$ref" not in schema()["definitions"][name], node


def test_vector_definition_is_what_the_matrix_scan_assumes():
    # a matrix passes in one scan when every row is a non-empty list of plain numbers
    assert schema()["definitions"]["vector"] == {"type": "array", "minItems": 1, "items": {"type": "number"}}


class _Object(dict):
    """A dict subclass, as a library may hand one over."""


# Values json.load makes, and values only a library makes.
_PROBES = [True, 0, 4.0, 4.5, float("nan"), float("inf"), 1j, np.float64(4.0), np.float32(0.5), np.int64(2)]
_PROBES += [np.bool_(True), np.str_("Sz"), "", None, [], (), {}, _Object()]


def test_type_table_is_draft7s_type_checker():
    checker = jsonschema.Draft7Validator.TYPE_CHECKER
    names = jsonschema.Draft7Validator.META_SCHEMA["definitions"]["simpleTypes"]["enum"]
    assert sorted(scenario._TYPES) == sorted(names)
    for name in names:
        for value in _PROBES:
            assert scenario._TYPES[name](value) == checker.is_type(value, name), (name, value)


def _library_forms(value):
    """``value`` as numpy, a tuple or a dict subclass would hand it over."""
    if isinstance(value, dict):
        return [_Object(value)]
    if isinstance(value, list):
        try:
            array = np.array(value, dtype=float)
        except (TypeError, ValueError):  # ragged, or not numbers
            return [tuple(value)]
        return [tuple(value), array, list(array)]
    if isinstance(value, bool):
        return [np.bool_(value)]
    if isinstance(value, str):
        return [np.str_(value)]
    if isinstance(value, int):
        return [np.int64(value), np.float64(value)]
    if isinstance(value, float):
        return [np.float64(value), np.float32(value)]
    return [value]


def _node_paths(doc, path=()):
    """Key paths to every node of a JSON document but the document itself."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from _node_paths(value, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_LIBRARY_SEEDS = [(doc, list(_node_paths(doc))) for doc in _MUTANT_SEEDS]
_LIBRARY_LEAVES = [np.float64("nan"), np.int64(-1), np.bool_(False), np.str_("x"), 1j, (), np.array(2.0), _Object()]


@st.composite
def _library_made_scenarios(draw):
    """A seed scenario with one node, container or leaf, handed over by a library."""
    doc, paths = draw(st.sampled_from(_LIBRARY_SEEDS))
    path = draw(st.sampled_from(paths))
    return _mutant(doc, path, draw(st.sampled_from(_library_forms(_node(doc, path)) + _LIBRARY_LEAVES)))


@given(st.one_of(_mutated_scenarios(), _library_made_scenarios()))
@settings(max_examples=300, deadline=None)
def test_walk_decides_as_draft7_decides(data):
    try:
        accepted = jsonschema.Draft7Validator(schema()).is_valid(data)
    except (TypeError, ValueError) as exc:
        # draft 07 cannot compare some values (a complex dim with minimum, a
        # numpy array with an enum); then the one validate call raises as it does
        with pytest.raises(type(exc)):
            jsonschema.validate(data, schema(), cls=_validator_class())
        return
    assert _accepts(data, schema()) is accepted


def _subschemas(node):
    """Every schema node of a schema, the node itself first; none is a boolean schema."""
    assert type(node) is dict, node
    yield node
    for keyword in ("properties", "definitions"):
        for sub in node.get(keyword, {}).values():
            yield from _subschemas(sub)
    for sub in node.get("oneOf", []):
        yield from _subschemas(sub)
    if "items" in node:
        yield from _subschemas(node["items"])


def test_walk_handles_every_keyword_and_form_of_the_packaged_schema():
    # the walk reads only these forms (references: test_every_schema_reference_names_a_definition_alone);
    # nothing checks them at run time
    nodes = list(_subschemas(schema()))
    assert len(nodes) > 50
    for node in nodes:
        assert set(node) <= set(scenario._KEYWORDS) | {"$ref"}, node
        if "type" in node:
            assert type(node["type"]) is str and node["type"] in scenario._TYPES, node
        if "enum" in node:
            assert all(type(value) is str for value in node["enum"]), node
        if "additionalProperties" in node:
            assert node["additionalProperties"] is False and "patternProperties" not in node, node
        if "items" in node:
            assert type(node["items"]) is dict, node
    assert _accepts(_bundled("bell_sl.json"), schema()) is True


_NUMPY_ROWS = [list(row) for row in np.array([[0.0, 0.5], [0.5, 0.0]])]


@pytest.mark.parametrize(
    ("data", "verdict", "message"),
    [
        (_set(_TIMED_TL, ("timing", "grid", "n_bins"), 4.0), True, None),
        (
            _set(_TIMED_TL, ("timing", "grid", "n_bins"), 4.5),
            False,
            "$.timing.grid.n_bins: 4.5 is not of type 'integer'",
        ),
        (_set(_TIMED_TL, ("timing", "grid", "dt"), True), False, "$.timing.grid.dt: True is not of type 'number'"),
        (_set(_TIMED_TL, ("timing", "grid", "dt"), float("nan")), True, "timing.grid: dt must be finite"),
        (_set(_TIMED_TL, ("initial", "density"), _TIMED_TL["hamiltonian"]), False, None),
        (dict(_TIMED_TL, extra=1), False, None),
        (_set(_TIMED_TL, ("hamiltonian", "re"), _NUMPY_ROWS), True, None),
    ],
    ids=[
        "integral-float-bins",
        "fractional-bins",
        "true-as-number",
        "nan-dt",
        "ket-and-density",
        "extra-key",
        "numpy-rows",
    ],
)
def test_walk_verdicts_at_the_edges_of_draft7(data, verdict, message):
    draft7 = jsonschema.Draft7Validator(schema()).is_valid(data)
    if verdict:
        assert _accepts(data, schema()) is True and draft7
        if message is None:
            scenario_from_json(data)
        else:
            with pytest.raises(ScenarioError, match=f"^{message}$"):
                scenario_from_json(data)
    else:
        assert _accepts(data, schema()) is False and not draft7
        with pytest.raises(jsonschema.ValidationError) as oracle:
            jsonschema.validate(data, schema())
        worded = f"{oracle.value.json_path}: {oracle.value.message}"
        assert message is None or worded == message
        with pytest.raises(ScenarioError) as raised:
            scenario_from_json(data, source="case.json")
        assert str(raised.value) == f"case.json: {worded}"


def test_valid_scenarios_enter_no_draft7_keyword(monkeypatch):
    entered = []
    keywords = _validator_class().VALIDATORS

    def recording(name, check):
        def keyword(validator, value, instance, node):
            entered.append(name)
            return check(validator, value, instance, node)

        return keyword

    for name, check in list(keywords.items()):
        monkeypatch.setitem(keywords, name, recording(name, check))
    numpy_rows = _set(_TIMED_TL, ("hamiltonian", "re"), _NUMPY_ROWS)
    for data in (_bundled("bell_sl.json"), _bundled("hadamard_tl.json"), _TIMED_TL, _EXPLICIT_TL, numpy_rows):
        scenario_from_json(data)
    assert entered == []
    # a refusal is worded by draft 07's own keywords, so the recording sees them
    with pytest.raises(ScenarioError):
        scenario_from_json(dict(_TIMED_TL, extra=1))
    assert "additionalProperties" in entered
