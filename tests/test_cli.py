"""End-to-end command-line checks, run in process through main()."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventstates import (
    EventState,
    MeasurementModel,
    ScenarioError,
    TimeGrid,
    build_event_state,
    build_timed_state,
    build_tl_instant,
    canonical_dumps,
    chsh_scenarios,
    chsh_value,
    classical_correlation,
    coherence_witness,
    determinism_check,
    joint_time_distribution,
    load_scenario,
    predict_future_outcome,
    profile_to_json,
    save_state,
    state_from_json,
    time_witness,
    timer_distribution,
    trace_out_timers,
)
from eventstates.cli import DEMO_FILES, main
from eventstates.scenario import _validator_class, scenario_from_json, schema

from helpers import random_conditional_profile, random_marginal_profile, random_tl_scenario, rng_for


def _bundled(name: str) -> str:
    return str(resources.files("eventstates").joinpath(f"data/{name}"))


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_reports_scenario_shape(capsys):
    code, out, err = _run(capsys, "validate", _bundled("bell_sl.json"))
    assert code == 0
    assert err == ""
    assert "ok" in out
    assert "kind = SL" in out
    assert "records = 2 x 2" in out
    assert "chsh settings = yes" in out


def test_validate_json_output_is_reproducible(capsys):
    code, first, _ = _run(capsys, "validate", _bundled("hadamard_tl.json"), "--json")
    assert code == 0
    code, second, _ = _run(capsys, "validate", _bundled("hadamard_tl.json"), "--json")
    assert code == 0
    assert first == second
    payload = json.loads(first)
    assert payload["ok"] is True
    assert payload["kind"] == "TL"


def test_missing_file_exits_one(capsys):
    code, out, err = _run(capsys, "validate", "/nonexistent/nowhere.json")
    assert code == 1
    assert "file not found" in err


def test_malformed_scenario_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "sideways"}')
    code, out, err = _run(capsys, "validate", str(bad))
    assert code == 2
    assert err.startswith("error:")


_PLAIN_TL = {
    "kind": "TL",
    "initial": {"ket": {"re": [0.6, 0.8], "im": [0.0, 0.0]}},
    "basisA": "Sz",
    "basisB": "Sx",
}
_ZERO_H = {"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
_GRID4 = {"dt": 0.5, "n_bins": 4}


def _coarse_grid_warnings():
    """Expect what an exponential profile on a deliberately coarse grid warns."""
    return pytest.warns(UserWarning, match="grid is coarse|grid truncates")


def _timed_tl(grid=None, profile_b=None):
    """TL scenario with an exponential first profile and, by default, a delta lag of one bin."""
    return dict(
        _PLAIN_TL,
        hamiltonian=_ZERO_H,
        timing={
            "grid": dict({"dt": 0.25, "n_bins": 4}, **(grid or {})),
            "profileA": {"type": "exponential", "gamma": 1.0},
            "profileB": profile_b or {"type": "delta", "conditional": True, "lag_bins": 1},
        },
    )


@pytest.mark.parametrize(
    "scenario, field",
    [
        (dict(_PLAIN_TL, basisA={"theta": 0.3, "labels": [1.0, 1.0]}), "basisA"),
        (
            dict(
                _PLAIN_TL,
                hamiltonian=_ZERO_H,
                timing={
                    "grid": _GRID4,
                    "profileA": {"type": "delta", "bin": 9},
                    "profileB": {"type": "delta", "conditional": True, "lag_bins": 0},
                },
            ),
            "timing.profileA",
        ),
        (
            dict(
                _PLAIN_TL,
                initial={"density": {"dim": 2, "re": [[0.5, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}},
            ),
            "initial.density",
        ),
        (
            dict(
                _PLAIN_TL,
                hamiltonian=_ZERO_H,
                timing={
                    "grid": _GRID4,
                    "profileA": {"type": "exponential"},
                    "profileB": {"type": "exponential", "gamma": 1.0, "conditional": True},
                },
            ),
            "timing.profileA",
        ),
        (dict(_PLAIN_TL, initial={"ket": {"re": [float("nan"), 1.0], "im": [0.0, 0.0]}}), "initial.ket"),
        (dict(_PLAIN_TL, basisA={"theta": float("nan")}), "basisA"),
        (dict(_PLAIN_TL, basisA={"theta": 0.3, "labels": [float("nan"), 1.0]}), "basisA"),
        (dict(_PLAIN_TL, evolution={"axis": "x", "angle": float("inf")}), "evolution"),
        (
            dict(
                _PLAIN_TL,
                hamiltonian=_ZERO_H,
                timing={
                    "grid": {"dt": float("nan"), "n_bins": 4},
                    "profileA": {"type": "delta", "bin": 0},
                    "profileB": {"type": "delta", "conditional": True, "lag_bins": 0},
                },
            ),
            "timing.grid",
        ),
        (
            dict(
                _PLAIN_TL,
                hamiltonian=_ZERO_H,
                timing={
                    "grid": _GRID4,
                    "profileA": {"type": "exponential", "gamma": float("nan")},
                    "profileB": {"type": "exponential", "gamma": 1.0, "conditional": True},
                },
            ),
            "timing.profileA",
        ),
        (
            {
                "kind": "SL",
                "initial": {"ket": {"re": [0.6, 0.0, 0.0, 0.8], "im": [0.0, 0.0, 0.0, 0.0]}},
                "basisA": "Sz",
                "basisB": "Sx",
                "chsh": {"anglesA": [float("nan"), 0.0], "anglesB": [45.0, 90.0]},
            },
            "chsh",
        ),
        (_timed_tl(grid={"n_bins": 1e308}), "timing.grid"),
        (
            _timed_tl(
                grid={"n_bins": 100000},
                profile_b={"type": "exponential", "gamma": 1.0, "conditional": True},
            ),
            "timing.grid",
        ),
        (
            _timed_tl(profile_b={"type": "delta", "conditional": True, "lag_bins": 1e308}),
            "timing.profileB",
        ),
        (_timed_tl(grid={"dt": 1e308}), "timing.grid"),
        (
            dict(
                _timed_tl(grid={"dt": 0.5, "n_bins": 8}),
                hamiltonian={"dim": 2, "re": [[1e308, 0.0], [0.0, 0.0]], "im": _ZERO_H["im"]},
            ),
            "hamiltonian",
        ),
        # integers beyond the float range read as 1e400 reads: as an infinity
        (dict(_PLAIN_TL, initial={"ket": {"re": [10**400, 0.0], "im": [0.0, 0.0]}}), "initial.ket"),
        (dict(_PLAIN_TL, evolution={"axis": "x", "angle": -(10**400)}), "evolution"),
        (dict(_PLAIN_TL, basisA={"theta": 0.3, "labels": [10**400, 1.0]}), "basisA"),
    ],
    ids=[
        "duplicate-labels",
        "delta-bin-off-grid",
        "ragged-re",
        "exponential-no-gamma",
        "nan-ket",
        "nan-axis-theta",
        "nan-axis-label",
        "infinite-rotation-angle",
        "nan-grid-dt",
        "nan-gamma",
        "nan-chsh-angle",
        "huge-grid",
        "oversized-conditional-grid",
        "huge-lag",
        "huge-grid-dt",
        "huge-hamiltonian-entry",
        "huge-integer-ket-entry",
        "huge-integer-rotation-angle",
        "huge-integer-axis-label",
    ],
)
def test_malformed_fields_exit_two_with_one_line(request, capsys, tmp_path, scenario, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    # these two reach an exponential profile on a coarse grid before their fault
    coarse = request.node.callspec.id in ("huge-lag", "huge-hamiltonian-entry")
    with _coarse_grid_warnings() if coarse else contextlib.nullcontext():
        code, out, err = _run(capsys, "validate", str(path))
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {field}:")
        assert "Traceback" not in err
        # the commands that build or analyse the scenario stop at the same line
        for command in ("build", "chsh") if scenario["kind"] == "SL" else ("build",):
            assert _run(capsys, command, str(path)) == (2, "", err)


@pytest.mark.parametrize("entry", [1e308, -1e308], ids=["huge", "huge-negative"])
def test_huge_density_entries_exit_three_with_one_line(capsys, tmp_path, entry):
    zeros = [[0.0] * 3 for _ in range(3)]
    identity = {"dim": 3, "re": np.eye(3).tolist(), "im": zeros, "labels": [0.0, 1.0, 2.0]}
    density = {"dim": 3, "re": [[0.5, 0.0, 0.0], [0.0, entry, 0.0], [0.0, 0.0, 0.5]], "im": zeros}
    scenario = {"kind": "TL", "initial": {"density": density}, "basisA": identity, "basisB": identity}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scenario))
    code, out, err = _run(capsys, "validate", str(path))
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: initial state is not a valid density matrix:")
    for command in ("build", "witness"):
        assert _run(capsys, command, str(path)) == (3, "", err)


# Mutants: one leaf of a bundled demo, of a small timed TL scenario or of the
# state files built from it, deleted or replaced by a value of the wrong kind,
# sign or size.
_DELETE = object()
_MUTANT_VALUES = [_DELETE, None, "x", -1, 0, 2, 1e308, -1e308, float("nan"), [], {}, True, [1, 2, 3]]


def _built_state(*flags):
    """The state file that ``build --out`` writes for the small timed TL scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "timed.json"), os.path.join(tmp, "timed.state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_timed_tl(), fh)
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            assert main(["build", path, *flags, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


_MUTANT_SEEDS = [
    json.loads(resources.files("eventstates").joinpath(f"data/{name}").read_text())
    for name in DEMO_FILES.values()
] + [_timed_tl(), _built_state(), _built_state("--timed")]
_MUTANT_COMMANDS = (
    ["validate"],
    ["build"],
    ["witness"],
    ["discriminate"],
    ["classical-corr"],
    ["chsh"],
    ["build", "--timed"],
)


def _leaf_paths(doc, path=()):
    """Key paths to every scalar in a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


def _mutant(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _leaf_fields(doc):
    """Leaf paths grouped by field: the key path with its list indices dropped."""
    fields = {}
    for path in _leaf_paths(doc):
        fields.setdefault(tuple(key for key in path if isinstance(key, str)), []).append(path)
    return list(fields.values())


# Seeds with their fields.  A field is drawn before a leaf in it, so the
# thousands of matrix entries in a state file do not crowd out dim, labels,
# timers and kind.
_MUTANT_FIELDS = [(doc, _leaf_fields(doc)) for doc in _MUTANT_SEEDS]


@st.composite
def _mutated_scenarios(draw):
    doc, fields = draw(st.sampled_from(_MUTANT_FIELDS))
    path = draw(st.sampled_from(draw(st.sampled_from(fields))))
    return _mutant(doc, path, draw(st.sampled_from(_MUTANT_VALUES)))


# coarse grids and overflowing norms warn; only the exit codes matter here
@pytest.mark.filterwarnings("ignore")
@given(_mutated_scenarios())
@settings(max_examples=80, deadline=None)
def test_mutated_scenarios_exit_cleanly(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        for command, *flags in _MUTANT_COMMANDS:
            # any exception escaping main() fails the test with its traceback
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, path, *flags])
            assert code in (0, 2, 3), (command, flags)


@given(_mutated_scenarios())
@settings(max_examples=150, deadline=None)
def test_mutated_scenarios_read_as_the_plain_schema_pass_reads_them(scenario):
    try:
        jsonschema.validate(scenario, schema())
    except jsonschema.ValidationError as oracle:
        with pytest.raises(ScenarioError) as raised:
            scenario_from_json(scenario, source="mutant.json")
        assert str(raised.value) == f"mutant.json: {oracle.json_path}: {oracle.message}"
    else:
        jsonschema.validate(scenario, schema(), cls=_validator_class())


def test_validate_rejects_what_build_rejects(capsys, tmp_path):
    # an SL timing block without per-factor generators cannot be time averaged
    scenario = {
        "kind": "SL",
        "initial": {"ket": {"re": [0.6, 0.0, 0.0, 0.8], "im": [0.0, 0.0, 0.0, 0.0]}},
        "basisA": "Sz",
        "basisB": "Sx",
        "timing": {
            "grid": _GRID4,
            "profileA": {"type": "delta", "bin": 0},
            "profileB": {"type": "delta", "bin": 1},
        },
    }
    path = tmp_path / "sl_timing.json"
    path.write_text(json.dumps(scenario))
    code, _, build_err = _run(capsys, "build", str(path))
    assert code == 2
    code, out, err = _run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == build_err


@pytest.mark.parametrize("command", ["validate", "build", "witness"])
def test_far_grid_origin_prints_what_the_zero_origin_prints(capsys, tmp_path, command):
    # at t0 = 1e16 the absolute times t0 + k * dt of neighbouring bins round together
    exponential_b = {"type": "exponential", "gamma": 1.0, "conditional": True}
    path = tmp_path / "grid.json"
    runs = []
    for t0 in (0.0, 1e16):
        path.write_text(json.dumps(_timed_tl(grid={"t0": t0, "n_bins": 8}, profile_b=exponential_b)))
        with _coarse_grid_warnings():
            runs.append(_run(capsys, command, str(path)))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_near_normalised_raw_profiles_witness_like_their_timed_state(capsys, tmp_path):
    # the marginal and every conditional row carry mass 1 + 8e-7, inside PROFILE_NORM_TOL
    rng = rng_for(8)
    grid = TimeGrid(t0=0.0, dt=0.5, n_bins=4)
    profiles = {}
    for key, make in (("profileA", random_marginal_profile), ("profileB", random_conditional_profile)):
        profile = make(rng, grid)
        amps = profile.amplitudes * np.sqrt(1.0 + 8e-7)
        profiles[key] = dict(profile_to_json(profile), re=amps.real.tolist(), im=amps.imag.tolist())
    hamiltonian = {"dim": 2, "re": [[0.3, 0.1], [0.1, -0.3]], "im": [[0.0, 0.2], [-0.2, 0.0]]}
    scenario = dict(_PLAIN_TL, hamiltonian=hamiltonian, timing={"grid": {"dt": 0.5, "n_bins": 4}, **profiles})
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(scenario))
    code, out, err = _run(capsys, "witness", str(path), "--json")
    assert (code, err) == (0, "")
    timed = build_timed_state(load_scenario(str(path)).scenario)
    expect = [
        coherence_witness(trace_out_timers(timed)).value,
        time_witness(timer_distribution(timed)).value,
    ]
    np.testing.assert_allclose([w["value"] for w in json.loads(out)["witnesses"]], expect, rtol=0, atol=1e-12)
    state = tmp_path / "raw.state.json"
    assert _run(capsys, "build", str(path), "--timed", "--out", str(state))[0] == 0
    code, out, err = _run(capsys, "witness", str(state), "--json")
    assert (code, err) == (0, "")
    np.testing.assert_allclose([w["value"] for w in json.loads(out)["witnesses"]], expect, rtol=0, atol=1e-12)


def test_broken_state_file_exits_three(capsys, tmp_path):
    state = build_tl_instant(random_tl_scenario(rng_for(3)))
    path = tmp_path / "state.json"
    save_state(str(path), state)
    data = json.loads(path.read_text())
    data["re"][0][0] += 0.25
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, "witness", str(path))
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("n_bins", ["Infinity", "1" + "0" * 400], ids=["infinite", "400-digit"])
def test_state_file_with_oversized_timer_grid_exits_two(capsys, tmp_path, n_bins):
    state = build_tl_instant(random_tl_scenario(rng_for(3)))
    path = tmp_path / "state.json"
    save_state(str(path), state)
    data = json.loads(path.read_text())
    data["timers"] = {"t0": 0.0, "dt": 0.5, "n_bins": 2}
    path.write_text(json.dumps(data).replace('"n_bins": 2', f'"n_bins": {n_bins}'))
    code, out, err = _run(capsys, "witness", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: timers:")


@pytest.mark.parametrize(
    "flags, path, value, error",
    [
        ((), ("dim",), None, "state: dim must be an integer, got NoneType"),
        ((), ("dim",), [4], "state: dim must be an integer, got list"),
        ((), ("dim",), 2.5, "state: dim must be an integer, got 2.5"),
        ((), ("dim",), "4", "state: dim must be an integer, got str"),
        ((), ("re", 0, 0), 10**400, "state: non-finite entries"),
        ((), ("record_basisA", "labels"), {"a": 1}, "record_basisA: labels must be an array of numbers"),
        ((), ("record_basisB", "labels", 0), 10**400, "record_basisB: outcome labels must be finite"),
        (("--timed",), ("timers", "t0"), [0.0], "timers: t0 must be a number, got list"),
        (("--timed",), ("timers", "t0"), 10**400, "timers: t0 must be finite"),
        (("--timed",), ("timers", "n_bins"), None, "timers: n_bins must be an integer, got NoneType"),
        (("--timed",), ("timers", "n_bins"), 2.5, "timers: n_bins must be an integer, got 2.5"),
        (("--timed",), ("timers", "n_bins"), "4", "timers: n_bins must be an integer, got str"),
        (("--timed",), ("timers",), [1, 2], "timers: expected an object, got list"),
    ],
    ids=[
        "null-dim",
        "list-dim",
        "fractional-dim",
        "string-dim",
        "huge-integer-entry",
        "object-labels",
        "huge-integer-label",
        "list-t0",
        "huge-integer-t0",
        "null-n-bins",
        "fractional-n-bins",
        "string-n-bins",
        "list-timers",
    ],
)
def test_malformed_state_fields_exit_two_with_one_line(capsys, tmp_path, flags, path, value, error):
    state = tmp_path / "timed.state.json"
    state.write_text(json.dumps(_mutant(_built_state(*flags), path, value)))
    for command in ("witness", "discriminate", "classical-corr"):
        assert _run(capsys, command, str(state)) == (2, "", f"error: {error}\n")


# A TL scenario whose first profile is a raw table; the schema leaves its re/im open.
_RAW_PROFILE_TL = dict(
    _PLAIN_TL,
    hamiltonian=_ZERO_H,
    timing={
        "grid": {"dt": 0.5, "n_bins": 2},
        "profileA": {"t0": 0.0, "dt": 0.5, "kind": "marginal", "re": [1.0, 1.0], "im": [0.0, 0.0]},
        "profileB": {"type": "delta", "conditional": True, "lag_bins": 0},
    },
)
_NOT_LABELS = "labels must be an array of numbers"
_NOT_PARTS = "re/im must be rectangular arrays of numbers"


@pytest.mark.parametrize(
    "kind, path, value, error",
    [
        ("state", ("record_basisA", "labels", 0), "2", f"record_basisA: {_NOT_LABELS}"),
        ("state", ("record_basisA", "labels", 0), True, f"record_basisA: {_NOT_LABELS}"),
        ("state", ("record_basisA", "re", 0, 0), True, f"record_basisA: {_NOT_PARTS}"),
        ("state", ("record_basisA", "im", 0, 0), False, f"record_basisA: {_NOT_PARTS}"),
        ("state", ("re", 0, 0), "0.36", f"state: {_NOT_PARTS}"),
        ("scenario", ("timing", "profileA", "re"), [True, True], f"timing.profileA: {_NOT_PARTS}"),
        ("scenario", ("timing", "profileA", "re"), ["1", "1"], f"timing.profileA: {_NOT_PARTS}"),
        ("scenario", ("timing", "profileA", "im"), [0.0, None], f"timing.profileA: {_NOT_PARTS}"),
    ],
    ids=[
        "string-label",
        "boolean-label",
        "boolean-basis-re",
        "boolean-basis-im",
        "string-state-entry",
        "boolean-profile-re",
        "string-profile-re",
        "null-profile-im",
    ],
)
def test_number_arrays_take_only_json_numbers(capsys, tmp_path, kind, path, value, error):
    if kind == "state":
        doc, commands = _built_state(), ("witness", "discriminate", "classical-corr")
    else:
        doc, commands = _RAW_PROFILE_TL, ("validate", "build", "witness")
    file = tmp_path / f"{kind}.json"
    file.write_text(json.dumps(doc))
    assert _run(capsys, commands[0], str(file))[0] == 0
    file.write_text(json.dumps(_mutant(doc, path, value)))
    for command in commands:
        assert _run(capsys, command, str(file)) == (2, "", f"error: {error}\n")


def test_unreadable_paths_exit_one_and_undecodable_files_exit_two(capsys, tmp_path):
    for argv in (["validate", str(tmp_path)], ["build", _bundled("bell_sl.json"), "--out", str(tmp_path)]):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {tmp_path}: ")
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    for command in ("validate", "witness"):
        code, out, err = _run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: not valid JSON (")


def test_classical_corr_of_a_qutrit_first_record_exits_two(capsys, tmp_path):
    # a TL qutrit with record coherence: the Fourier evolution between computational bases
    identity = {"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist(), "labels": [0.0, 1.0, 2.0]}
    ket = {"re": [0.6, 0.48, 0.64], "im": [0.0, 0.0, 0.0]}
    fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    evolution = {"dim": 3, "re": fourier.real.tolist(), "im": fourier.imag.tolist()}
    doc = {"kind": "TL", "initial": {"ket": ket}, "basisA": identity, "basisB": identity, "evolution": evolution}
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "classical-corr", str(path))
    assert (code, out) == (2, "")
    assert err == "error: first record is not a qubit; pass an explicit list of candidate measurements\n"
    # library callers that catch ValueError still catch it
    with pytest.raises(ValueError, match="not a qubit"):
        classical_correlation(build_event_state(load_scenario(str(path)).scenario))


def test_classical_corr_of_a_certain_second_record_is_positive_zero(capsys, tmp_path):
    # |0> read in Sz twice: the second record is certain, so C_A is 0.0, never -0.0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(dict(_PLAIN_TL, initial={"ket": {"re": [1.0, 0.0], "im": [0.0, 0.0]}}, basisB="Sz")))
    assert _run(capsys, "classical-corr", str(path), "--json") == (0, '{"classical_correlation_bits":0.0}\n', "")
    assert _run(capsys, "classical-corr", str(path)) == (0, "C_A = 0.000000 bit\n", "")


def test_build_prints_summary(capsys):
    code, out, err = _run(capsys, "build", _bundled("hadamard_tl.json"))
    assert code == 0
    assert "kind = TL" in out
    assert "dim = 4" in out
    assert "trace = 1.000000000000" in out


def test_build_json_is_byte_identical_across_runs(capsys):
    code, first, _ = _run(capsys, "build", _bundled("bell_sl.json"), "--json")
    assert code == 0
    code, second, _ = _run(capsys, "build", _bundled("bell_sl.json"), "--json")
    assert first == second
    state = state_from_json(json.loads(first))
    assert state.kind == "SL"


def test_build_out_feeds_the_analysis_commands(capsys, tmp_path):
    out_file = tmp_path / "hadamard_state.json"
    code, out, _ = _run(capsys, "build", _bundled("hadamard_tl.json"), "--out", str(out_file))
    assert code == 0
    assert f"wrote {out_file}" in out

    code, scen_out, _ = _run(capsys, "witness", _bundled("hadamard_tl.json"), "--json")
    assert code == 0
    code, state_out, _ = _run(capsys, "witness", str(out_file), "--json")
    assert code == 0
    scen_val = json.loads(scen_out)["witnesses"][0]
    state_val = json.loads(state_out)["witnesses"][0]
    assert scen_val["witness"] == state_val["witness"] == "record-coherence"
    assert scen_val["value"] == pytest.approx(state_val["value"], abs=1e-9)
    assert scen_val["verdict"] == "causal-signature"

    code, out, _ = _run(capsys, "discriminate", str(out_file))
    assert code == 0
    assert "p_suc = 1.000000" in out
    assert "deterministic" in out

    code, out, _ = _run(capsys, "classical-corr", str(out_file))
    assert code == 0
    assert "C_A = 1.000000 bit" in out


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_witness_csv_lists_coherence_first(capsys, tmp_path):
    # deliberately coarse grid; the profile warnings are part of the deal
    scenario = {
        "kind": "TL",
        "initial": {"ket": {"re": [1.0, 0.0], "im": [0.0, 0.0]}},
        "basisA": "Sz",
        "basisB": "Sx",
        "hamiltonian": {"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        "timing": {
            "grid": {"t0": 0.0, "dt": 0.4, "n_bins": 4},
            "profileA": {"type": "exponential", "gamma": 1.0},
            "profileB": {"type": "exponential", "gamma": 1.0, "conditional": True},
        },
    }
    path = tmp_path / "timed.json"
    path.write_text(json.dumps(scenario))
    code, out, err = _run(capsys, "witness", str(path), "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "witness,value,verdict"
    assert lines[1].startswith("record-coherence,")
    assert lines[2].startswith("time-correlation,")
    assert lines[2].endswith("causal-signature")


def test_witness_kind_filters_reports(capsys):
    code, out, err = _run(capsys, "witness", _bundled("hadamard_tl.json"), "--kind", "coherence", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [w["witness"] for w in payload["witnesses"]] == ["record-coherence"]

    code, out, err = _run(capsys, "witness", _bundled("hadamard_tl.json"), "--kind", "timecorr")
    assert code == 2
    assert "no timing information" in err


def test_chsh_csv_golden_line(capsys):
    code, out, err = _run(capsys, "chsh", _bundled("bell_sl.json"), "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "E_ab,E_abp,E_apb,E_apbp,S,tsirelson_ok"
    assert lines[1] == (
        "-0.707106781187,-0.707106781187,-0.707106781187,"
        "0.707106781187,2.82842712475,true"
    )


_WITNESS_CSV_HEADER = b"witness,value,verdict\r\n"
_CHSH_CSV = (
    b"E_ab,E_abp,E_apb,E_apbp,S,tsirelson_ok\r\n"
    b"-0.707106781187,-0.707106781187,-0.707106781187,0.707106781187,2.82842712475,true\r\n"
)


def _stdout_bytes(*argv: str) -> bytes:
    result = subprocess.run([sys.executable, "-m", "eventstates", *argv], capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize(
    "argv, expect",
    [
        (
            ["witness", _bundled("hadamard_tl.json"), "--csv"],
            _WITNESS_CSV_HEADER + b"record-coherence,1,causal-signature\r\n",
        ),
        (
            ["witness", _bundled("bell_sl.json"), "--csv", "--json"],
            _WITNESS_CSV_HEADER + b"record-coherence,0,no-signature\r\n",
        ),
        (["chsh", _bundled("bell_sl.json"), "--csv"], _CHSH_CSV),
        (["chsh", _bundled("bell_sl.json"), "--csv", "--json"], _CHSH_CSV),
    ],
    ids=["witness", "witness-csv-over-json", "chsh", "chsh-csv-over-json"],
)
def test_csv_output_bytes(argv, expect):
    # csv.writer's rows end in \r\n, and --csv wins over --json
    assert _stdout_bytes(*argv) == expect


def _witness_csv(*reports) -> bytes:
    return _WITNESS_CSV_HEADER + "".join(f"{r.witness},{r.value:.12g},{r.verdict}\r\n" for r in reports).encode()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_witness_csv_of_a_timed_scenario_and_its_state_file(tmp_path):
    scenario_path, state_path = str(tmp_path / "timed.json"), str(tmp_path / "timed.state.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(_timed_tl(profile_b={"type": "exponential", "gamma": 1.0, "conditional": True}), fh)
    scenario = load_scenario(scenario_path).scenario
    save_state(state_path, build_timed_state(scenario))
    timed = state_from_json(json.loads((tmp_path / "timed.state.json").read_text()))
    times = time_witness(joint_time_distribution(scenario.timing.profile_a, scenario.timing.profile_b, "TL"))

    assert _stdout_bytes("witness", scenario_path, "--csv") == _witness_csv(
        coherence_witness(build_event_state(scenario)), times
    )
    assert _stdout_bytes("witness", state_path, "--csv") == _witness_csv(
        coherence_witness(trace_out_timers(timed)), time_witness(timer_distribution(timed))
    )
    assert _stdout_bytes("witness", scenario_path, "--csv", "--kind", "timecorr") == _witness_csv(times)


def test_chsh_needs_settings(capsys):
    code, out, err = _run(capsys, "chsh", _bundled("hadamard_tl.json"))
    assert code == 2
    assert "no chsh settings" in err


def test_chsh_settings_on_a_qutrit_record_exit_two(capsys, tmp_path):
    # the settings are qubit angles, so validate refuses them before chsh meets a 6-dim state
    identity = {"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist(), "labels": [0.0, 1.0, 2.0]}
    scenario = {
        "kind": "SL",
        "initial": {"ket": {"re": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], "im": [0.0] * 6}},
        "basisA": identity,
        "basisB": "Sz",
        "chsh": {"anglesA": [0.0, 90.0], "anglesB": [45.0, 135.0]},
    }
    path = tmp_path / "qutrit_chsh.json"
    path.write_text(json.dumps(scenario))
    line = f"error: {path}: CHSH settings need two qubit records, got 3 x 2\n"
    for command in ("validate", "build", "chsh"):
        assert _run(capsys, command, str(path)) == (2, "", line)


def test_chsh_settings_on_an_ordered_pair_exit_two(capsys, tmp_path):
    path = tmp_path / "tl_chsh.json"
    path.write_text(json.dumps(dict(_PLAIN_TL, chsh={"anglesA": [0.0, 90.0], "anglesB": [45.0, 135.0]})))
    line = f"error: {path}: CHSH settings only apply to independent pairs\n"
    assert _run(capsys, "validate", str(path)) == (2, "", line)


@pytest.mark.parametrize(
    ("index", "message"),
    [(1e308, "bin must be at most 4096, got 1e+308"), (9, "bin index 9 outside grid of 4 bins")],
    ids=["huge", "off-grid"],
)
def test_delta_profile_bin_is_read_as_lag_bins_is(capsys, tmp_path, index, message):
    scenario = dict(
        _PLAIN_TL,
        hamiltonian=_ZERO_H,
        timing={
            "grid": _GRID4,
            "profileA": {"type": "delta", "bin": index},
            "profileB": {"type": "delta", "conditional": True, "lag_bins": 0},
        },
    )
    path = tmp_path / "delta_bin.json"
    path.write_text(json.dumps(scenario))
    assert _run(capsys, "validate", str(path)) == (2, "", f"error: timing.profileA: {message}\n")


_IDENTITY_BASIS = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]], "labels": [1.0, -1.0]}


@pytest.mark.parametrize(
    ("path", "value", "line"),
    [
        (("hamiltonian", "dim"), 1e308, "hamiltonian: declared dim 1e+308 does not match shape (2, 2)"),
        (("hamiltonian", "dim"), 10**299, "hamiltonian: declared dim 1e+299 does not match shape (2, 2)"),
        (("hamiltonian", "dim"), 3, "hamiltonian: declared dim 3 does not match shape (2, 2)"),
        (("basisA", "dim"), 1e308, "basisA: declared dim 1e+308 does not match shape (2, 2)"),
        (("timing", "grid", "n_bins"), 10**299, "timing.grid: n_bins must be at most 4096, got 1e+299"),
        (("timing", "grid", "n_bins"), 5000, "timing.grid: n_bins must be at most 4096, got 5000"),
        (("timing", "profileA", "bin"), 10**299, "timing.profileA: bin must be at most 4096, got 1e+299"),
        (("timing", "profileB", "lag_bins"), 10**299, "timing.profileB: lag_bins must be at most 4096, got 1e+299"),
        (("dim",), 1e308, "state: declared dim 1e+308 does not match shape (64, 64)"),
    ],
    ids=["dim-1e308", "dim-300-digits", "dim-3", "basis-dim", "n_bins", "n_bins-5000", "bin", "lag_bins", "state-dim"],
)
def test_integral_numbers_are_quoted_to_twelve_digits(capsys, tmp_path, path, value, line):
    # JSON keeps every digit of an integer literal; a refusal quotes at most 12 of them
    if path == ("dim",):
        doc = _mutant(_built_state("--timed"), path, value)
    else:
        profiles = {"profileA": {"type": "delta", "bin": 0}, "profileB": {"type": "delta", "conditional": True}}
        scenario = dict(_PLAIN_TL, basisA=_IDENTITY_BASIS, hamiltonian=_ZERO_H, timing=dict(grid=_GRID4, **profiles))
        doc = _mutant(scenario, path, value)
    file = tmp_path / "huge.json"
    file.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "witness", str(file))
    assert (code, out, err) == (2, "", f"error: {line}\n")
    assert len(err) < 200


_TIMED4 = dict(
    _PLAIN_TL,
    hamiltonian=_ZERO_H,
    timing={"grid": _GRID4, "profileA": {"type": "delta"}, "profileB": {"type": "delta", "conditional": True}},
)
_RAW_MARGINAL = {"t0": 0.0, "dt": 0.5, "kind": "marginal", "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}


@pytest.mark.parametrize(
    ("flags", "path", "value", "line"),
    [
        (None, ("basisA",), {"theta": 0.3, "labels": [1, 1]}, "basisA: outcome labels must be distinct"),
        (
            None,
            ("basisA",),
            dict(_IDENTITY_BASIS, re=[[1, 0], [1, 0]]),
            "basisA: basis is not orthonormal: defect 1.000e+00",
        ),
        (None, ("timing", "profileA", "bin"), 9, "timing.profileA: bin index 9 outside grid of 4 bins"),
        (
            None,
            ("timing", "profileA"),
            _RAW_MARGINAL,
            "timing.profileA: marginal profile not normalized: mass 0.50000000",
        ),
        (
            None,
            ("timing", "grid"),
            {"t0": 1e308, "dt": 1e308, "n_bins": 4},
            "timing.grid: grid end t0 + dt * n_bins must be finite",
        ),
        ((), ("record_basisB", "labels"), [1.0, 1.0], "record_basisB: outcome labels must be distinct"),
        (("--timed",), ("timers", "n_bins"), 1, "timers: n_bins must be at least 2, got 1"),
        (("--timed",), ("timers", "dt"), 0, "timers: dt must be positive, got 0.0"),
    ],
    ids=["axis-labels", "explicit-rows", "delta-bin", "raw-profile", "grid-end", "state-labels", "n-bins", "dt"],
)
def test_constructor_refusals_exit_two_with_their_field(capsys, tmp_path, flags, path, value, line):
    # a constructor's ValueError is worded "<field>: <message>", in a scenario or a state file
    doc = _mutant(_TIMED4 if flags is None else _built_state(*flags), path, value)
    file = tmp_path / "refused.json"
    file.write_text(json.dumps(doc))
    assert _run(capsys, "validate" if flags is None else "witness", str(file)) == (2, "", f"error: {line}\n")


# The size of a matrix is checked before its spectrum: a wrong-sized one that is
# no density matrix is refused for its size, as a density matrix is.
_SPECTRA = pytest.mark.parametrize("spectrum", [[0.5, 0.5, 0.0], [2.0, -1.0, 0.0]], ids=["density", "not-density"])


@_SPECTRA
def test_a_wrong_sized_state_file_exits_two(capsys, tmp_path, spectrum):
    rho = np.diag(spectrum + [0.0, 0.0, 0.0])
    doc = dict(_built_state(), dim=6, re=rho.tolist(), im=np.zeros((6, 6)).tolist())
    file = tmp_path / "six.state.json"
    file.write_text(json.dumps(doc))
    line = "error: state dimension 6 does not match bases/timers (4)\n"
    for command in ("witness", "discriminate", "classical-corr"):
        assert _run(capsys, command, str(file)) == (2, "", line)


@_SPECTRA
def test_a_wrong_sized_initial_density_exits_two(capsys, tmp_path, spectrum):
    density = {"dim": 3, "re": np.diag(spectrum).tolist(), "im": np.zeros((3, 3)).tolist()}
    file = tmp_path / "qutrit_density.json"
    file.write_text(json.dumps(dict(_PLAIN_TL, initial={"density": density})))
    line = "error: ordered events measure one system twice: need basis dims equal to state dim 3, got 2 and 2\n"
    for command in ("validate", "build"):
        assert _run(capsys, command, str(file)) == (2, "", line)


def test_demo_appendix_e_exact_lines(capsys):
    code, out, err = _run(capsys, "demo", "appendix-e")
    assert code == 0
    assert out == "p_suc = 1.0000\nC_A = 1.0000 bit\ndeterministic = true\n"


def test_demo_hadamard_reports_full_coherence(capsys):
    code, out, err = _run(capsys, "demo", "hadamard-tl", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["record_coherence_bits"] == pytest.approx(1.0, abs=1e-9)
    assert payload["verdict"] == "causal-signature"
    assert payload["p_suc"] == pytest.approx(1.0, abs=1e-9)


def test_demo_bell_reaches_the_bound(capsys):
    code, out, err = _run(capsys, "demo", "bell-sl")
    assert code == 0
    assert "S = 2.828427" in out
    assert "tsirelson_ok = true" in out


def test_demo_decay_tracks_the_continuum(capsys):
    code, out, err = _run(capsys, "demo", "decay", "--gamma", "1.0", "--dt", "0.01", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["branching_max_relative_error"] < 0.05
    assert payload["time_covariance"] == pytest.approx(1.0, rel=0.05)
    assert payload["verdict"] == "causal-signature"


@pytest.mark.parametrize("gamma", ["10", "100"])
def test_demo_decay_table_step_follows_the_lifetime(capsys, gamma):
    # the covariance table steps 0.02 / gamma, so cov * gamma^2 does not depend on gamma
    code, out, err = _run(capsys, "demo", "decay", "--gamma", gamma, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["time_covariance"] * float(gamma) ** 2 == pytest.approx(0.99942, abs=1e-5)


def test_demo_decay_rejects_coarse_grids(capsys):
    code, out, err = _run(capsys, "demo", "decay", "--gamma", "2.0", "--dt", "0.6")
    assert code == 2
    assert "gamma * dt" in err


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--gamma", "nan"], 2),
        (["--gamma", "-1"], 2),
        (["--dt", "0"], 2),
        (["--dt", "nan"], 2),
        (["--dt", "-0.5"], 2),
        # 13,815,510,558 bins: refused before any array is made
        (["--gamma", "1e-6"], 2),
        # a 6,908-bin covariance table, beyond MAX_GRID_BINS
        (["--gamma", "0.1"], 2),
        # gamma * dt underflows to zero
        (["--gamma", "1e-200", "--dt", "1e-200"], 2),
        # a valid grid whose time moments overflow
        (["--gamma", "1e-305", "--dt", "1e304"], 3),
    ],
    ids=[
        "nan-gamma",
        "negative-gamma",
        "zero-dt",
        "nan-dt",
        "negative-dt",
        "tiny-gamma",
        "big-table",
        "zero-rate",
        "overflow",
    ],
)
def test_demo_decay_refuses_bad_rates_and_steps_in_one_line(flags, code):
    result = subprocess.run(
        [sys.executable, "-m", "eventstates", "demo", "decay", *flags],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == code
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if not line.startswith("warning: ")]
    assert len(errors) == 1 and errors[0].startswith("error: ")


@pytest.mark.parametrize("gamma, dt", [("1e-305", "1e304"), ("1e-155", "1e153")], ids=["overflow", "square-overflow"])
def test_demo_decay_refuses_an_overflowing_covariance_without_a_warning(gamma, dt):
    # the covariance's matmul overflows; the refusal is the one line, even under -W error
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "eventstates", "demo", "decay", "--gamma", gamma, "--dt", dt],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.splitlines() == [f"error: demo decay: the time covariance overflows at gamma = {gamma}"]


def test_demo_decay_prints_a_covariance_just_below_the_float_maximum():
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "eventstates", "demo", "decay", "--gamma", "1e-154", "--dt", "1e152"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert "verdict = causal-signature" in result.stdout


def test_warnings_print_as_one_line_each_before_the_error(tmp_path):
    # a coarse, truncating exponential grid warns twice before the lag is refused
    path = tmp_path / "huge_lag.json"
    path.write_text(json.dumps(_timed_tl(profile_b={"type": "delta", "conditional": True, "lag_bins": 1e308})))
    result = subprocess.run(
        [sys.executable, "-m", "eventstates", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["warning", "warning", "error"]
    assert "grid is coarse" in lines[0]
    assert "truncates" in lines[1]
    assert lines[2].startswith("error: timing.profileB:")


def test_discriminate_refuses_a_state_file_with_cross_record_coherence(capsys, tmp_path):
    # a Bell state is Hermitian and PSD, so it loads; it does not split by the second record
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    sz = MeasurementModel.sz()
    path = tmp_path / "bell.state.json"
    save_state(str(path), EventState(kind="TL", rho=bell, basis_a=sz, basis_b=sz))
    code, out, err = _run(capsys, "discriminate", str(path), "--json")
    assert code == 3
    assert out == ""
    assert "coherence between second-record values" in err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "eventstates", "validate", _bundled("bell_sl.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "ok" in result.stdout


def test_chsh_measures_the_prepared_state(capsys, tmp_path):
    # a 1 rad y-rotation on A prepares kron(U_A, I) @ singlet before the settings are measured
    scenario = json.loads(resources.files("eventstates").joinpath("data/bell_sl.json").read_text())
    scenario["evolutionA"] = {"axis": "y", "angle": 1.0}
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(scenario))
    code, out, err = _run(capsys, "chsh", str(path), "--json")
    assert (code, err) == (0, "")
    u_a = np.cos(0.5) * np.eye(2) - 1j * np.sin(0.5) * np.array([[0.0, -1.0j], [1.0j, 0.0]])
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    angles = [np.radians(scenario["chsh"][key]) for key in ("anglesA", "anglesB")]
    family = chsh_scenarios(np.kron(u_a, np.eye(2)) @ singlet, *angles)
    expect = chsh_value([build_event_state(s) for s in family])
    np.testing.assert_allclose(json.loads(out)["E"], expect.correlators, rtol=0, atol=1e-12)
    code, out, err = _run(capsys, "chsh", str(path))
    assert "S = 1.528206" in out.splitlines()


def _joint_sl(**extra):
    """SL scenario with a correlated joint detection-time table on 4 bins."""
    rng = rng_for(52)
    amps = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return dict(
        {
            "kind": "SL",
            "initial": {"ket": {"re": [0.6, 0.0, 0.0, 0.8], "im": [0.0, 0.0, 0.0, 0.0]}},
            "basisA": "Sz",
            "basisB": "Sx",
            "timing": {"grid": _GRID4, "joint": {"re": amps.real.tolist(), "im": amps.imag.tolist()}},
        },
        **extra,
    )


def test_joint_table_time_witness_needs_no_record_build(capsys, tmp_path):
    joint_h = {"dim": 4, "re": np.diag([0.1, -0.2, 0.3, 0.0]).tolist(), "im": np.zeros((4, 4)).tolist()}
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(_joint_sl(hamiltonian=joint_h)))
    state = tmp_path / "joint.state.json"
    assert _run(capsys, "build", str(path), "--timed", "--out", str(state))[0] == 0
    code, via_state, err = _run(capsys, "witness", str(state), "--kind", "timecorr", "--json")
    assert (code, err) == (0, "")
    code, out, err = _run(capsys, "witness", str(path), "--kind", "timecorr", "--json")
    assert (code, err) == (0, "")
    [got], [want] = json.loads(out)["witnesses"], json.loads(via_state)["witnesses"]
    assert got["witness"] == "time-correlation" and got["verdict"] == want["verdict"]
    assert got["value"] == pytest.approx(want["value"], abs=1e-12)
    # the record state of a joint table cannot be time averaged, and validate says so
    for command in ("validate", "build"):
        code, out, err = _run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == "error: time averaging needs separable profiles, not a joint table\n"


def test_raw_profile_off_the_timing_grid_exits_two(capsys, tmp_path):
    rng = rng_for(53)
    profile = profile_to_json(random_marginal_profile(rng, TimeGrid(t0=0.0, dt=0.5, n_bins=4)))
    scenario = _timed_tl()  # its grid steps by 0.25
    scenario["timing"]["profileA"] = profile
    path = tmp_path / "off_grid.json"
    path.write_text(canonical_dumps(scenario))
    code, out, err = _run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: timing.profileA: profile grid does not match the timing grid\n"


def test_raw_conditional_profile_off_unit_mass_exits_two(capsys, tmp_path):
    amps = 2.0 * np.eye(4)  # unit rows on the 0.25 grid, but row 0 holds 1.8^2 * 0.25 = 0.81
    amps[0, 0] = 1.8
    profile = {"t0": 0.0, "dt": 0.25, "kind": "conditional", "re": amps.tolist(), "im": np.zeros((4, 4)).tolist()}
    path = tmp_path / "off_mass.json"
    path.write_text(json.dumps(_timed_tl(profile_b=profile)))
    with _coarse_grid_warnings():
        code, out, err = _run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: timing.profileB: conditional profile rows not normalized: defect 1.900e-01\n"


def test_discriminate_traces_out_the_timers_of_a_timed_state(capsys, tmp_path):
    path = tmp_path / "timed.json"
    path.write_text(json.dumps(_timed_tl()))
    timed = tmp_path / "timed.state.json"
    with _coarse_grid_warnings():
        assert _run(capsys, "build", str(path), "--timed", "--out", str(timed))[0] == 0
    code, out, err = _run(capsys, "discriminate", str(timed), "--json")
    assert (code, err) == (0, "")
    records = trace_out_timers(state_from_json(json.loads(timed.read_text())))
    det = determinism_check(records)
    assert json.loads(out) == {
        "success": pytest.approx(predict_future_outcome(records).success, abs=1e-12),
        "exact": True,
        "deterministic": det.deterministic,
        "max_overlap": pytest.approx(det.max_overlap, abs=1e-12),
    }


def test_ordered_evolution_with_timing_exits_two(capsys, tmp_path):
    # timed ordered events evolve under the hamiltonian; a sharp evolution would be ignored
    path = tmp_path / "evolution_and_timing.json"
    path.write_text(json.dumps(dict(_timed_tl(), evolution={"axis": "x", "angle": 0.4})))
    for argv in (["validate"], ["build"], ["build", "--timed"]):
        with _coarse_grid_warnings():
            code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: timed ordered events evolve under the hamiltonian")


def test_state_file_with_an_unknown_arrangement_exits_two(capsys, tmp_path):
    state = tmp_path / "timed.state.json"
    state.write_text(json.dumps(_mutant(_built_state(), ("kind",), "XX")))
    for command in ("witness", "discriminate", "classical-corr"):
        assert _run(capsys, command, str(state)) == (2, "", "error: kind must be 'SL' or 'TL', got 'XX'\n")


def test_scenario_and_state_files_read_numbers_alike(capsys, tmp_path):
    # one set of readers serves both file kinds: a t0 of 10**400 reads as an
    # infinity, and both refuse it with the same words
    scenario = tmp_path / "far.json"
    scenario.write_text(json.dumps(_timed_tl(grid={"t0": 10**400})))
    state = tmp_path / "far.state.json"
    state.write_text(json.dumps(_mutant(_built_state("--timed"), ("timers", "t0"), 10**400)))
    for command, path, context in (("validate", scenario, "timing.grid"), ("witness", state, "timers")):
        assert _run(capsys, command, str(path)) == (2, "", f"error: {context}: t0 must be finite\n")


def test_state_file_timers_may_omit_t0(capsys, tmp_path):
    # as in a scenario grid, an absent t0 reads as 0
    doc = _built_state("--timed")
    assert doc["timers"]["t0"] == 0.0
    full, bare = tmp_path / "full.state.json", tmp_path / "bare.state.json"
    full.write_text(json.dumps(doc))
    bare.write_text(json.dumps(_mutant(doc, ("timers", "t0"), _DELETE)))
    expected = _run(capsys, "witness", str(full), "--json")
    assert expected[0] == 0
    assert _run(capsys, "witness", str(bare), "--json") == expected


def test_raw_profile_of_single_numbers_exits_two(capsys, tmp_path):
    profile = {"t0": 0.0, "dt": 0.5, "kind": "marginal", "re": 1.0, "im": 0.0}
    timing = {"grid": _GRID4, "profileA": profile, "profileB": {"type": "delta", "conditional": True}}
    path = tmp_path / "scalar_profile.json"
    path.write_text(json.dumps(dict(_PLAIN_TL, hamiltonian=_ZERO_H, timing=timing)))
    error = "error: timing.profileA: re/im must be arrays, not single numbers\n"
    assert _run(capsys, "validate", str(path)) == (2, "", error)


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--gamma", "nan"], "decay rate must be positive and finite, got nan"),
        (["--gamma", "inf"], "decay rate must be positive and finite, got inf"),
        (["--gamma", "-1"], "decay rate must be positive and finite, got -1.0"),
        (["--dt", "nan"], "dt must be positive and finite, got nan"),
        (["--dt", "-0.5"], "dt must be positive and finite, got -0.5"),
        (["--dt", "1e-300"], "the branching grid needs 1.3815510558e+301 bins; the bound is 1000000"),
        (["--gamma", "1e-6"], "the branching grid needs 13815510558 bins; the bound is 1000000"),
    ],
    ids=["nan-gamma", "infinite-gamma", "negative-gamma", "nan-dt", "negative-dt", "tiny-dt", "tiny-gamma"],
)
def test_demo_decay_states_the_decay_rate_rule_of_exponential_grid(capsys, flags, error):
    assert _run(capsys, "demo", "decay", *flags) == (2, "", f"error: demo decay: {error}\n")
