"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/tests

Every workload runs end to end in quick mode on two seeds and traced; the
same seed regenerates byte-identical inputs; and every correctness check is
shown to reject a deliberately perturbed output, so none passes vacuously.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402
from eventstates import cli as es_cli  # noqa: E402

# The timer-register grids are coarse on purpose; the program says so on every build.
pytestmark = pytest.mark.filterwarnings("ignore:.*grid (is coarse|truncates)")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def run_benchmark(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args, "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = inputs.dumps(inputs.make_inputs(workload, 7))
    assert first == inputs.dumps(inputs.make_inputs(workload, 7))
    assert first != inputs.dumps(inputs.make_inputs(workload, 8))


# --------------------------------------------------------------- quick runs


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_quick_run_is_clean(workload, seed):
    report = run_benchmark("--workload", workload, "--seed", str(seed), "--trace", "0")
    assert report["correct"] is True
    assert report["attempted"] >= 2
    # Only the five malformed-input validate calls fail, once per rotation.
    rotation = len(inputs.cli_inputs(seed)["rotation"]) if workload == "cli" else None
    expect = report["attempted"] // rotation * len(inputs.MALFORMED) if rotation else 0
    assert report["failed"] == expect
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(report["metrics"]) == names
    assert all(report["metrics"][n]["value"] > 0 for n in names)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_quick_traced_run_reports_every_layer(workload):
    report = run_benchmark("--workload", workload, "--seed", "3", "--trace", "1")
    assert report["correct"] is True
    assert list(report["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for spec in BENCHMARK["per_layer"]:
        assert report["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "records", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------- checks reject perturbation


def _scale_largest(arr, factor):
    index = np.unravel_index(np.argmax(np.abs(arr)), arr.shape)
    arr[index] *= factor


RECORD_PERTURBATIONS = {
    "records.rho_matches_own": lambda o, r: o["tl2"]["rho"].__setitem__((0, 0), o["tl2"]["rho"][0, 0] + 1e-6),
    "records.round_trip_12_digits": lambda o, r: _scale_largest(o["tl8"]["back"], 1 + 1e-10),
    "records.coherence_matches_own": lambda o, r: o["tl3"].__setitem__("coherence", o["tl3"]["coherence"] + 1e-6),
    "records.probs_match_own": lambda o, r: o["sl"]["probs"].__setitem__(0, o["sl"]["probs"][0] + 1e-6),
    "records.discrimination_matches_own": lambda o, r: o["tl3"].__setitem__("success", o["tl3"]["success"] + 1e-6),
    "records.overlap_matches_own": lambda o, r: o["tl8"].__setitem__("max_overlap", o["tl8"]["max_overlap"] + 1e-6),
    "records.chsh_matches_own": lambda o, r: o["sl"]["chsh_E"].__setitem__(2, o["sl"]["chsh_E"][2] + 1e-6),
    "records.chsh_within_tsirelson": lambda o, r: o["sl"].__setitem__("chsh_S", 2.0 * np.sqrt(2.0) + 1e-6),
}


def _tilt_basis(o, r):
    # A small rotation of the found basis leaves the conditionals overlapping.
    c, s = np.cos(1e-3), np.sin(1e-3)
    o["found_kets"] = np.array([[c, s], [-s, c]]) @ o["found_kets"]


SEARCH_PERTURBATIONS = {
    "searches.ca_at_least_scan": lambda o, r: o.__setitem__("ca_tl", o["ca_tl"] - 1e-5),
    "searches.ca_at_most_entropy_b": lambda o, r: o.__setitem__("ca_sl", r["entropy_b_sl"] + 1e-6),
    "searches.basis_found": lambda o, r: o.__setitem__("found", False),
    "searches.found_basis_deterministic": _tilt_basis,
}

GRID_PERTURBATIONS = {
    "grids.tl_fuzzy_valid": lambda o, r: o["tl"][2].__setitem__((0, 0), o["tl"][2][0, 0] + 1e-6),
    "grids.sl_fuzzy_matches_own": lambda o, r: o["sl"][1].__setitem__((1, 1), o["sl"][1][1, 1] + 1e-6),
    "grids.tl_covariance_matches_own": lambda o, r: o["cov"].__setitem__(3, o["cov"][3] * (1 + 1e-6)),
    "grids.tl_covariance_approaches_continuum": lambda o, r: o["cov"].__setitem__(0, o["cov"][0] * 1.01),
    "grids.sl_covariance_zero": lambda o, r: o.__setitem__("cov_sl", 1e-6),
    "grids.chebyshev_consistent": lambda o, r: o.__setitem__("chebyshev", (False,) + o["chebyshev"][1:]),
    "grids.timed_traces_to_fuzzy": lambda o, r: o["timed"][1]["reduced"].__setitem__((0, 0), o["timed"][1]["reduced"][0, 0] + 1e-6),
    "grids.timer_table_matches_own": lambda o, r: o["timed"][0]["table"].__setitem__((0, 1), o["timed"][0]["table"][0, 1] + 1e-6),
    "grids.timed_covariance_matches_own": lambda o, r: o["timed"][1].__setitem__("cov", o["timed"][1]["cov"] * (1 + 1e-6)),
    "grids.timed_state_valid": lambda o, r: o["timed_rho"].__setitem__((0, 1), o["timed_rho"][0, 1] + 1e-6),
    "grids.timed_round_trip_12_digits": lambda o, r: _scale_largest(o["timed_back"], 1 + 1e-10),
}


@pytest.mark.parametrize(
    "cls, table",
    [(workloads.Records, RECORD_PERTURBATIONS), (workloads.Searches, SEARCH_PERTURBATIONS), (workloads.Grids, GRID_PERTURBATIONS)],
)
def test_every_check_rejects_a_perturbed_output(cls, table, tmp_path):
    assert set(table) == set(cls.CHECKS)
    wl = cls(inputs.make_inputs(cls.name, 4), str(tmp_path))
    for i in range(2):
        wl.prepare(i)
        out = wl.op(i)
        assert wl.check(i, out) == []
        for name, perturb in table.items():
            bad = copy.deepcopy(out)
            perturb(bad, wl.reference(i))
            assert name in wl.check(i, bad), name


def _json_edit(edit):
    def apply(stdout, rundir):
        payload = json.loads(stdout)
        edit(payload)
        return json.dumps(payload)
    return apply


def _file_edit(name):
    def apply(stdout, rundir):
        path = os.path.join(rundir, name)
        data = json.load(open(path))
        data["re"][0][0] += 1e-6
        json.dump(data, open(path, "w"))
        return stdout
    return apply


def _witness_edit(which):
    def edit(payload):
        for item in payload["witnesses"]:
            if item["witness"] == which:
                item["value"] *= 1 + 1e-6
    return _json_edit(edit)


def _csv_edit(stdout, rundir):
    header, row = stdout.strip().splitlines()
    values = row.split(",")
    values[1] = repr(float(values[1]) + 1e-6)
    return header + "\n" + ",".join(values) + "\n"


CLI_PERTURBATIONS = {
    "cli.demo_appendix_e": _json_edit(lambda p: p.__setitem__("p_suc", 0.999)),
    "cli.demo_decay": _json_edit(lambda p: p.__setitem__("time_covariance", p["time_covariance"] * 1.01)),
    "cli.demo_hadamard_tl": _json_edit(lambda p: p.__setitem__("record_coherence_bits", 1 - 1e-6)),
    "cli.demo_bell_sl": _json_edit(lambda p: p["E"].__setitem__(0, p["E"][0] + 1e-6)),
    "cli.validate_sl_qubit": _json_edit(lambda p: p.__setitem__("chsh", False)),
    "cli.build_tl_qubit": _file_edit("tl_qubit.state.json"),
    "cli.build_sl_qubit_qutrit": _file_edit("sl_qubit_qutrit.state.json"),
    "cli.build_timed_tl": _file_edit("timed_tl.state.json"),
    "cli.witness_timed_tl": _witness_edit("time-correlation"),
    "cli.witness_timed_tl.state": _witness_edit("record-coherence"),
    "cli.witness_tl_qutrit": _witness_edit("record-coherence"),
    "cli.discriminate_tl_qubit.state": _json_edit(lambda p: p.__setitem__("success", p["success"] + 1e-6)),
    "cli.classical_corr_tl_qubit": _json_edit(
        lambda p: p.__setitem__("classical_correlation_bits", p["classical_correlation_bits"] - 1e-5)
    ),
    "cli.chsh_sl_qubit": _csv_edit,
}


def test_every_cli_check_rejects_a_perturbed_output(tmp_path):
    rundir = str(tmp_path)
    wl = workloads.Cli(inputs.make_inputs("cli", 5), rundir)
    good = [argv for argv in wl.rotation if not wl.malformed(argv)]
    assert set(CLI_PERTURBATIONS) == {wl.check_name(argv) for argv in good}
    for argv in good:
        stdout = io.StringIO()
        cwd = os.getcwd()
        os.chdir(rundir)
        try:
            with contextlib.redirect_stdout(stdout):
                status = es_cli.main(argv)
        finally:
            os.chdir(cwd)
        done = subprocess.CompletedProcess(argv, status, stdout.getvalue(), "")
        assert wl.check(argv, done) == (False, []), argv
        name = wl.check_name(argv)
        backup = {f: open(os.path.join(rundir, f)).read() for f in os.listdir(rundir)}
        bad = subprocess.CompletedProcess(argv, 0, CLI_PERTURBATIONS[name](done.stdout, rundir), "")
        assert wl.check(argv, bad) == (False, [name]), argv
        assert wl.check(argv, subprocess.CompletedProcess(argv, 1, "", "Traceback")) == (True, [name + ".exit_0"])
        for f, text in backup.items():
            open(os.path.join(rundir, f), "w").write(text)


def test_malformed_calls_count_as_failed_until_they_exit_2(tmp_path):
    wl = workloads.Cli(inputs.make_inputs("cli", 5), str(tmp_path))
    for name in inputs.MALFORMED:
        argv = ["validate", name]
        mended = subprocess.CompletedProcess(argv, 2, "", f"error: {name}: bad input\n")
        today = subprocess.CompletedProcess(argv, 1, "", "Traceback (most recent call last):\n  ...\nValueError: x\n")
        assert wl.check(argv, mended) == (False, [])
        assert wl.check(argv, today) == (True, [])
