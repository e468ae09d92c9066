"""One workload in a fresh interpreter; started by ``run.py``, not by hand.

``worker.py run RUNDIR WORKLOAD SEED SECONDS TRACE QUICK`` runs the closed
loop and writes ``RUNDIR/result.json``.  ``worker.py probe RUNDIR WORKLOAD``
imports the program, finishes one warm-up operation and prints ``ready``;
``run.py`` times it from spawn to that line.

The loop has one client: the next operation starts when the previous one
and its check have finished.  Only the operation itself is timed.  A traced
run pairs every untraced operation with a traced repeat of the same input,
so the tracing overhead is a ratio of like with like.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter

# The timer-register grids are deliberately coarse; the program warns about
# that on every build, which would only add noise to the run.
warnings.filterwarnings("ignore", message=r".*grid (is coarse|truncates)")

WARMUP_S = 1.5  # untimed operations first: lazy set-up and the BLAS pool settle
QUICK_OPS = 2
HERE = os.path.dirname(os.path.abspath(__file__))


def blas_threads() -> int:
    """Thread count of numpy's bundled OpenBLAS as it runs, or -1 if not found."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return -1


class Tally:
    """Attempted and failed operations, failed checks and latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: Counter = Counter()
        self.errors: list[str] = []
        self.latencies: list[float] = []

    def note(self, failed: bool, checks: list[str], counted: bool) -> None:
        self.checks.update(checks)
        if counted:
            self.attempted += 1
            self.failed += bool(failed)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_checks": dict(self.checks),
            "errors": self.errors[:5],
            "latencies": self.latencies,
        }


# ------------------------------------------------------------- in-process


def attempt(wl, i: int, tally: Tally, counted: bool = True):
    """One operation and its check; returns (start, end) or None if it raised."""
    wl.prepare(i)
    start = time.perf_counter()
    try:
        out = wl.op(i)
    except Exception:  # noqa: BLE001 - an operation that raises is a failed operation
        tally.errors.append(traceback.format_exc())
        tally.note(True, [], counted)
        return None
    end = time.perf_counter()
    if counted:
        tally.latencies.append(end - start)
    tally.note(False, wl.check(i, out), counted)
    return start, end


def warm_up(wl, tally: Tally, quick: bool) -> int:
    i = 0
    until = time.perf_counter() + (0.0 if quick else WARMUP_S)
    while True:
        attempt(wl, i, tally, counted=False)
        i += 1
        if time.perf_counter() >= until:
            return i


def done(tally: Tally, started: float, seconds: float, quick: bool) -> bool:
    if quick:
        return tally.attempted >= QUICK_OPS
    return time.perf_counter() - started >= seconds


def run_inprocess(wl, seconds: float, quick: bool) -> dict:
    tally = Tally()
    i = warm_up(wl, tally, quick)
    started = time.perf_counter()
    while not done(tally, started, seconds, quick):
        attempt(wl, i, tally)
        i += 1
    return {"tally": tally.as_dict(), "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced_op(tracer, wl, i, op_id, tally: Tally, memory: bool = False, counted: bool = True):
    wl.prepare(i)  # before the spans go in: preparation is not the operation
    tracer.op, tracer.memory = op_id, memory
    tracer.install()
    try:
        return attempt(wl, i, tally, counted)
    finally:
        tracer.uninstall()
        tracer.memory = False


def coverage(tracer, own: str, seed: int, rundir: str, tally: Tally) -> tuple[list, list]:
    """Traced operations of the other workloads, for layers this one never calls."""
    import inputs
    import workloads

    time_ops, mem_ops = [], []
    for name, cls in workloads.IN_PROCESS.items():
        if name == own:
            continue
        wl = cls(inputs.make_inputs(name, seed), rundir)
        attempt(wl, 0, tally, counted=False)  # untraced: per-case preparation stays outside the spans
        traced_op(tracer, wl, 0, f"cover-{name}", tally, counted=False)
        time_ops.append(f"cover-{name}")
        if name == "grids":
            traced_op(tracer, wl, 0, "cover-grids-memory", tally, memory=True, counted=False)
            mem_ops.append("cover-grids-memory")
    if own != "cli":
        covdir = os.path.join(rundir, "cover-cli")
        os.makedirs(covdir, exist_ok=True)
        cli = workloads.Cli(inputs.make_inputs("cli", seed), covdir)
        tracer.op = "cover-cli"
        tracer.install()
        try:
            for argv in (["demo", "decay", "--json"], ["demo", "hadamard-tl", "--json"]):
                cli.inprocess(argv)
        finally:
            tracer.uninstall()
        time_ops.append("cover-cli")
    return time_ops, mem_ops


def traced_stats(tracer, windows: dict, ratios: list, mem_ops: list, cover: tuple) -> dict:
    """Per-layer figures from this workload's traced operations.

    A function this workload never calls is measured on the first coverage
    operation that does call it.
    """
    import spans

    main = spans.layer_stats(tracer.spans, list(windows))
    main_mem = spans.layer_stats(tracer.spans, mem_ops)
    cover_time = [spans.layer_stats(tracer.spans, [op]) for op in cover[0]]
    cover_mem = [spans.layer_stats(tracer.spans, [op]) for op in cover[1]]
    out = {}
    for metric, _name, stat, _unit in spans.metric_specs():
        first, rest = (main_mem, cover_mem) if stat == "peak" else (main, cover_time)
        candidates = [first[metric]] + [stats[metric] for stats in rest]
        out[metric] = next((value for value in candidates if value is not None), None)
    out["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
    out["trace.uncovered_pct"] = spans.uncovered_share(tracer.spans, windows) * 100.0
    return out


def run_traced_inprocess(wl, seconds: float, quick: bool, seed: int, rundir: str) -> dict:
    import spans

    tally = Tally()
    tracer = spans.Tracer()
    i = warm_up(wl, tally, quick)
    mem_ops = []
    if wl.name == "grids":
        traced_op(tracer, wl, i, "memory", tally, memory=True, counted=False)
        mem_ops.append("memory")
        i += 1
    windows, ratios = {}, []
    started = time.perf_counter()
    while not done(tally, started, seconds, quick):
        plain = attempt(wl, i, tally)
        traced = traced_op(tracer, wl, i, i, tally)
        if plain and traced:
            windows[i] = traced
            ratios.append((traced[1] - traced[0]) / (plain[1] - plain[0]))
        i += 1
    cover = coverage(tracer, wl.name, seed, rundir, tally)
    tracer.dump(os.path.join(rundir, "spans.jsonl"))
    return {"tally": tally.as_dict(), "layers": traced_stats(tracer, windows, ratios, mem_ops, cover)}


# -------------------------------------------------------------------- cli


def cli_call(wl, argv, env, prefix, tally: Tally):
    start = time.perf_counter()
    finished = wl.call(argv, env, prefix)
    end = time.perf_counter()
    tally.latencies.append(end - start)
    failed, checks = wl.check(argv, finished)
    tally.note(failed, checks, True)
    return start, end


def run_cli(wl, seconds: float, trace: bool, quick: bool, seed: int, rundir: str) -> dict:
    """Whole rounds of the rotation; traced runs pair each call.

    The first round always runs; another starts only if, at the pace of the
    last one, it ends within ``seconds``.
    """
    import spans

    tally = Tally()
    env = dict(os.environ)
    plain = [sys.executable, "-m", "eventstates"]
    spans_path = os.path.join(rundir, "child-spans.jsonl")
    bootstrap = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path]
    tracer = spans.Tracer()
    windows, ratios = {}, []

    wl.call(wl.rotation[0], env, plain)  # untimed warm-up: file cache and bytecode
    started = time.perf_counter()
    call = 0
    while True:
        round_start = time.perf_counter()
        for argv in wl.rotation:
            first = cli_call(wl, argv, env, plain, tally)
            if trace:
                second = cli_call(wl, argv, env, bootstrap, tally)
                offset = len(tracer.spans)
                for name, s, e, parent, _op, extra in spans.load_spans(spans_path):
                    tracer.add_span(name, s, e, call, None if parent is None else parent + offset, extra)
                windows[call] = second
                ratios.append((second[1] - second[0]) / (first[1] - first[0]))
            call += 1
        now = time.perf_counter()
        if quick or (now - started) + (now - round_start) > seconds:
            break
    result = {"tally": tally.as_dict(), "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    if trace:
        cover = coverage(tracer, "cli", seed, rundir, tally)
        tracer.dump(os.path.join(rundir, "spans.jsonl"))
        result["layers"] = traced_stats(tracer, windows, ratios, [], cover)
    return result


# ------------------------------------------------------------------- main


def main(argv: list[str]) -> int:
    mode, rundir, workload = argv[0], argv[1], argv[2]
    with open(os.path.join(rundir, "inputs.json"), "r", encoding="utf-8") as fh:
        inputs = json.load(fh)
    import workloads

    wl = workloads.ALL[workload](inputs, rundir)
    if mode == "probe":
        if workload == "cli":
            wl.inprocess(wl.rotation[0])
        else:
            wl.prepare(0)
            wl.op(0)
        print("ready", flush=True)
        return 0

    seed, seconds, trace, quick = int(argv[3]), float(argv[4]), argv[5] == "1", argv[6] == "1"
    if workload == "cli":
        result = run_cli(wl, seconds, trace, quick, seed, rundir)
    elif trace:
        result = run_traced_inprocess(wl, seconds, quick, seed, rundir)
    else:
        result = run_inprocess(wl, seconds, quick)
    result["blas_threads"] = blas_threads()
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
