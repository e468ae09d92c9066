"""The sweep scripts, run as a user runs them: refusals and small valid runs."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _script(name: str, *args: str, cwd: str) -> subprocess.CompletedProcess:
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error", os.path.join(ROOT, "scripts", name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("chsh_angle_scan.py", ["--points", "0", "--out", "x.csv"], "argument --points: must be at least 1, got 0"),
        ("chsh_angle_scan.py", ["--points", "-3"], "argument --points: must be at least 1, got -3"),
        ("decay_convergence.py", ["--dt", "0"], "--gamma 1 with --dt 0: dt must be positive and finite, got 0.0"),
        (
            "decay_convergence.py",
            ["--gamma", "nan"],
            "--gamma nan with --dt 0.03: decay rate must be positive and finite, got nan",
        ),
        ("decay_convergence.py", ["--dt", "0.03", "2"], "--gamma 1 with --dt 2: step probabilities must lie in [0, 1)"),
        (
            "decay_convergence.py",
            ["--dt", "1e-300"],
            "--gamma 1 with --dt 1e-300: the branching grid needs 1.3815510558e+301 bins; the bound is 1000000",
        ),
    ],
    ids=["zero-points", "negative-points", "zero-dt", "nan-gamma", "dt-past-one", "dt-past-the-bin-bound"],
)
def test_scripts_refuse_bad_arguments_with_usage_and_one_error_line(tmp_path, name, args, message):
    result = _script(name, *args, cwd=str(tmp_path))
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert lines[0].startswith(f"usage: {name}")
    assert lines[-1] == f"{name}: error: {message}"
    assert "Traceback" not in result.stderr
    assert os.listdir(tmp_path) == []


def test_chsh_angle_scan_writes_its_csv(tmp_path):
    # nine points step b' by 45 degrees, so the Tsirelson peak at -45 is sampled
    result = _script("chsh_angle_scan.py", "--points", "9", "--out", "scan.csv", cwd=str(tmp_path))
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout == "wrote scan.csv; peak S = 2.828427 at b' = -45.0 deg\n"
    rows = (tmp_path / "scan.csv").read_text().splitlines()
    assert rows[0] == "bprime_deg,S,tsirelson_ok"
    assert len(rows) == 10


def test_decay_convergence_prints_one_row_per_step(tmp_path):
    result = _script("decay_convergence.py", "--dt", "0.03", "0.01", cwd=str(tmp_path))
    assert result.returncode == 0 and result.stderr == ""
    rows = result.stdout.splitlines()
    assert rows[0] == "dt,n_bins,max_rel_error,error_over_dt"
    assert [row.split(",")[:2] for row in rows[1:]] == [["0.03", "461"], ["0.01", "1382"]]
