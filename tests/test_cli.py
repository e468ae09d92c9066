"""End-to-end command-line checks, run in process through main()."""

import json
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from eventstates import ScenarioError, build_tl_instant, save_state, state_from_json
from eventstates.cli import main

from helpers import random_tl_scenario, rng_for


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
    ],
)
def test_malformed_fields_exit_two_with_one_line(capsys, tmp_path, scenario, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    code, out, err = _run(capsys, "validate", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {field}:")
    assert "Traceback" not in err
    # the commands that build or analyse the scenario stop at the same line
    for command in ("build", "chsh") if scenario["kind"] == "SL" else ("build",):
        assert _run(capsys, command, str(path)) == (2, "", err)


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


def test_chsh_needs_settings(capsys):
    code, out, err = _run(capsys, "chsh", _bundled("hadamard_tl.json"))
    assert code == 2
    assert "no chsh settings" in err


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


def test_demo_decay_rejects_coarse_grids(capsys):
    code, out, err = _run(capsys, "demo", "decay", "--gamma", "2.0", "--dt", "0.6")
    assert code == 2
    assert "gamma * dt" in err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "eventstates", "validate", _bundled("bell_sl.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "ok" in result.stdout
