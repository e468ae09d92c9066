"""Benchmark of the eventstates toolkit: four workloads, one command.

    python3 perfbench/run.py --workload records --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Runs from the root of a source checkout (the package is used from ``src/``,
not installed).  Inputs are made from ``--seed`` before any timing, the
workload runs for ``--seconds`` in a fresh interpreter with the BLAS thread
variables removed, and every output is checked against computations made
apart from the program.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Run files go to ``.perfbench/`` at the root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402

THREAD_VARS = ("EVENTSTATE_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_STARTS = 3  # fresh interpreters per run for setup_s; the median is reported
IMPORT_STARTS = 3  # fresh interpreters per traced run for the import layer
RUN_LIMIT_S = 170  # a run that takes longer than this is stopped
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
IMPORT_MODULES = {"import.total_s": "eventstates", "import.numpy_s": "numpy",
                  "import.scipy_optimize_s": "scipy.optimize", "import.jsonschema_s": "jsonschema"}


def clean_env() -> dict:
    """The caller's environment without BLAS thread settings, with src/ importable."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(rundir: str, workload: str, env: dict) -> float:
    """Median time from spawning a fresh interpreter to its first finished operation."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "probe", rundir, workload],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
    return statistics.median(times)


def import_layers(env: dict) -> dict:
    """Import-layer figures from ``-X importtime`` and bare interpreter starts."""
    found = {name: [] for name in IMPORT_MODULES}
    bare = []
    for _ in range(IMPORT_STARTS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import eventstates"],
                              env=env, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if match:
                cumulative.setdefault(match.group(2), int(match.group(1)) / 1e6)
        for metric, module in IMPORT_MODULES.items():
            found[metric].append(cumulative[module])
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(time.perf_counter() - start)
    out = {metric: statistics.median(values) for metric, values in found.items()}
    out["import.interpreter_s"] = statistics.median(bare)
    return out


def per_layer_units() -> dict:
    units = {metric: unit for metric, _name, _stat, unit in spans.metric_specs()}
    units.update({metric: "s" for metric in IMPORT_MODULES})
    units.update({"import.interpreter_s": "s", "trace.overhead_pct": "%", "trace.uncovered_pct": "%"})
    return units


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    rundir = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    with open(os.path.join(rundir, "inputs.json"), "w", encoding="utf-8") as fh:
        fh.write(inputs.dumps(inputs.make_inputs(workload, seed)))
    env = clean_env()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "run", rundir, workload,
           str(seed), str(seconds), str(int(trace)), str(int(quick))]
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=RUN_LIMIT_S)
    with open(os.path.join(rundir, "result.json"), "r", encoding="utf-8") as fh:
        result = json.load(fh)

    tally = result["tally"]
    if trace:
        values = dict(result["layers"])
        values.update(import_layers(env))
        units = per_layer_units()
    else:
        lat = tally["latencies"]
        values = {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
            "setup_s": setup_seconds(rundir, workload, env),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    missing = [name for name in units if values.get(name) is None]
    if missing:
        raise RuntimeError(f"no value for {missing}")
    report = {
        "correct": not tally["failed_checks"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(rundir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(report, failed_checks=tally["failed_checks"], errors=tally["errors"],
                       blas_threads=result["blas_threads"], samples=len(tally["latencies"])), fh, indent=1)
    print(f"# {workload}: seed {seed}, {tally['attempted']} attempted, {tally['failed']} failed, "
          f"{len(tally['latencies'])} timed, BLAS threads {result['blas_threads']}, nproc {os.cpu_count()}")
    for check, count in sorted(tally["failed_checks"].items()):
        print(f"#   FAILED CHECK {check} x{count}")
    for error in tally["errors"]:
        print(error, file=sys.stderr)
    for name, item in report["metrics"].items():
        print(f"#   {name:<48} {item['value']:>14.6g} {item['unit']}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="a few operations per workload (tests)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "eventstates", "__init__.py")):
        print(f"error: no eventstates sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick) for name in names}
    if len(reports) == 1:
        final = reports[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{w}.{m}": v for w, r in reports.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
