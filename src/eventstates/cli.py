"""Command-line front end.

Subcommands load a scenario (or a previously built record state), run one
analysis, and print either human-readable lines or machine-readable JSON
(``--json``, canonical formatting) / CSV (``--csv``).

Exit codes: 0 on success, 1 for an input file that is missing or cannot be
read or an output file that cannot be written, 2 for a malformed scenario or
state file, 3 for a numerical invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from importlib import resources

import numpy as np

from .bell import chsh_scenarios, chsh_value
from .event_states import (
    EventState,
    build_event_state,
    build_timed_state,
    check_buildable,
    conditional_decomposition,
    trace_out_timers,
    timer_distribution,
)
from .inference import classical_correlation, determinism_check, predict_future_outcome
from .policy import NumericsError, ScenarioError
from .scenario import ScenarioFile, scenario_from_json, load_scenario
from .serialize import (
    _worded,
    canonical_dumps,
    chsh_report_to_json,
    load_json_file,
    save_state,
    state_from_json,
    state_to_json,
)
from .timing import (
    BranchingSchedule,
    continuum_limit_check,
    exponential_conditional,
    exponential_grid,
    exponential_profile,
    joint_time_distribution,
)
from .witnesses import coherence_witness, time_witness

DEMO_FILES = {
    "appendix-e": "deterministic_tl.json",
    "hadamard-tl": "hadamard_tl.json",
    "bell-sl": "bell_sl.json",
}
DEMO_NAMES = ("appendix-e", "decay", "hadamard-tl", "bell-sl")


def _load_any(path: str) -> tuple[EventState | None, ScenarioFile | None]:
    """Read either a scenario file or a serialized record state."""
    data = load_json_file(path)
    if "record_basisA" in data:
        return state_from_json(data), None
    return None, scenario_from_json(data, source=path)


def _detector_state(state: EventState | None, loaded: ScenarioFile | None) -> EventState:
    """The detector-space record state of what :func:`_load_any` read."""
    if state is None:
        state = build_event_state(loaded.scenario)
    if state.timers is not None:
        state = trace_out_timers(state)
    return state


def _emit(args, payload: dict, lines: list[str], rows: list[list] | None = None) -> None:
    """Print ``rows`` as CSV under ``--csv``, else ``payload`` under ``--json``, else ``lines``."""
    if rows is not None and args.csv:
        csv.writer(sys.stdout).writerows(rows)
    elif args.json:
        print(canonical_dumps(payload))
    else:
        for line in lines:
            print(line)


def _cmd_validate(args) -> int:
    loaded = load_scenario(args.scenario)
    s = loaded.scenario
    check_buildable(s)
    payload = {
        "ok": True,
        "kind": s.kind,
        "dimA": s.basis_a.dim,
        "dimB": s.basis_b.dim,
        "timing": s.timing is not None,
        "chsh": loaded.chsh_angles is not None,
    }
    lines = [
        f"{args.scenario}: ok",
        f"kind = {s.kind}",
        f"records = {s.basis_a.dim} x {s.basis_b.dim}",
        f"timing = {'yes' if s.timing is not None else 'no'}",
        f"chsh settings = {'yes' if loaded.chsh_angles is not None else 'no'}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_build(args) -> int:
    loaded = load_scenario(args.scenario)
    state = (build_timed_state if args.timed else build_event_state)(loaded.scenario)
    if args.out:
        save_state(args.out, state)
        print(f"wrote {args.out} ({state.rho.shape[0]}-dimensional, kind {state.kind})")
    elif args.json:
        print(canonical_dumps(state_to_json(state)))
    else:
        probs = np.real(np.diag(state.rho))
        print(f"kind = {state.kind}")
        print(f"dim = {state.rho.shape[0]}")
        print(f"trace = {float(np.real(np.trace(state.rho))):.12f}")
        print(f"largest record weight = {float(probs.max()):.6f}")
    return 0


def _cmd_witness(args) -> int:
    state, loaded = _load_any(args.path)
    reports = []
    if args.kind != "coherence":
        if state is not None and state.timers is not None:
            reports.append(time_witness(timer_distribution(state)))
        elif state is None and loaded.scenario.timing is not None:
            # no name holds the n x n table, so it is freed before the record build forms its own
            reports.append(time_witness(loaded.scenario.timing.distribution()))
        elif args.kind == "timecorr":
            raise ScenarioError(f"{args.path}: no timing information for the {args.kind} witness")
    if args.kind != "timecorr":
        reports.insert(0, coherence_witness(_detector_state(state, loaded)))

    payload = {"witnesses": [{"witness": r.witness, "value": r.value, "verdict": r.verdict} for r in reports]}
    lines = [f"{r.witness}: value = {r.value:.6g}, verdict = {r.verdict}" for r in reports]
    rows = [["witness", "value", "verdict"]] + [[r.witness, f"{r.value:.12g}", r.verdict] for r in reports]
    _emit(args, payload, lines, rows)
    return 0


def _cmd_discriminate(args) -> int:
    state = _detector_state(*_load_any(args.path))
    report = predict_future_outcome(state)
    payload = {"success": report.success, "exact": report.exact}
    lines = [f"p_suc = {report.success:.6f}", f"exact = {'true' if report.exact else 'false'}"]
    if state.kind == "TL":
        det = determinism_check(state)
        payload["deterministic"] = det.deterministic
        payload["max_overlap"] = det.max_overlap
        lines.append(f"deterministic = {'true' if det.deterministic else 'false'}")
        lines.append(f"max conditional overlap = {det.max_overlap:.6g}")
    _emit(args, payload, lines)
    return 0


def _cmd_classical_corr(args) -> int:
    state = _detector_state(*_load_any(args.path))
    report = classical_correlation(state)
    _emit(
        args,
        {"classical_correlation_bits": report.bits},
        [f"C_A = {report.bits:.6f} bit"],
    )
    return 0


def _chsh_output(loaded: ScenarioFile):
    """The CHSH report of a scenario file with its JSON payload and text lines."""
    if loaded.chsh_angles is None:
        raise ScenarioError(f"{loaded.source}: no chsh settings in scenario")
    angles_a, angles_b = loaded.chsh_angles
    scenarios = chsh_scenarios(loaded.scenario.initial_density(), angles_a, angles_b)
    report = chsh_value([build_event_state(s) for s in scenarios])
    lines = [
        "E = " + ", ".join(f"{e:+.6f}" for e in report.correlators),
        f"S = {report.value:.6f}",
        f"tsirelson_ok = {'true' if report.tsirelson_ok else 'false'}",
    ]
    return report, chsh_report_to_json(report), lines


def _cmd_chsh(args) -> int:
    report, payload, lines = _chsh_output(load_scenario(args.scenario))
    rows = [
        ["E_ab", "E_abp", "E_apb", "E_apbp", "S", "tsirelson_ok"],
        [f"{e:.12g}" for e in report.correlators] + [f"{report.value:.12g}", str(report.tsirelson_ok).lower()],
    ]
    _emit(args, payload, lines, rows)
    return 0


def _demo_scenario(name: str) -> ScenarioFile:
    text = resources.files("eventstates").joinpath(f"data/{DEMO_FILES[name]}").read_text()
    return scenario_from_json(json.loads(text), source=f"demo:{name}")


def _short(x: float) -> str:
    """``x`` with six decimals, in exponent form from 1e15 on, so that a line stays short."""
    return f"{x:.6e}" if abs(x) >= 1e15 else f"{x:.6f}"


def _demo_decay(args) -> tuple[dict, list[str]]:
    gamma, dt = args.gamma, args.dt
    # Both grids are sized before any array is made; BranchingSchedule.constant
    # bounds the branching grid, and the covariance table steps 0.02 mean
    # lifetimes, so it has 691 bins at every gamma.  exponential_grid refuses
    # a rate or step that is not positive and finite.
    grid = _worded("demo decay", exponential_grid, gamma, dt)
    table_grid = _worded("demo decay", exponential_grid, gamma, 0.02 / gamma)
    if gamma * dt >= 1.0:
        raise ScenarioError(f"gamma * dt = {gamma * dt:.3g} >= 1; no per-bin probability exists")
    schedule = _worded("demo decay", BranchingSchedule.constant, grid, gamma * dt)
    profile = exponential_profile(gamma, grid)
    err = continuum_limit_check(schedule, profile)

    table = joint_time_distribution(
        exponential_profile(gamma, table_grid),
        exponential_conditional(gamma, table_grid),
        "TL",
    )
    # an overflowing covariance is refused just below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        witness = time_witness(table)
    continuum = 1.0 / gamma / gamma
    if not (math.isfinite(witness.value) and math.isfinite(continuum)):
        raise NumericsError(f"demo decay: the time covariance overflows at gamma = {gamma:g}")
    payload = {
        "gamma": gamma,
        "dt": dt,
        "branching_max_relative_error": err,
        "time_covariance": witness.value,
        "continuum_covariance": continuum,
        "verdict": witness.verdict,
    }
    lines = [
        f"gamma = {gamma:g}, dt = {dt:g}, bins = {grid.n_bins}",
        f"branching vs continuum: max relative error = {err:.3e}",
        f"time covariance = {_short(witness.value)} (continuum 1/gamma^2 = {_short(continuum)})",
        f"verdict = {witness.verdict}",
    ]
    return payload, lines


def _demo_record_pair(name: str) -> tuple[dict, list[str]]:
    loaded = _demo_scenario(name)
    state = build_event_state(loaded.scenario)
    if name == "appendix-e":
        prediction = predict_future_outcome(state)
        corr = classical_correlation(state).bits
        det = determinism_check(state)
        payload = {
            "p_suc": prediction.success,
            "classical_correlation_bits": corr,
            "deterministic": det.deterministic,
        }
        lines = [
            f"p_suc = {prediction.success:.4f}",
            f"C_A = {corr:.4f} bit",
            f"deterministic = {'true' if det.deterministic else 'false'}",
        ]
        return payload, lines
    witness = coherence_witness(state)
    decomp = conditional_decomposition(state)
    prediction = predict_future_outcome(state)
    payload = {
        "record_coherence_bits": witness.value,
        "verdict": witness.verdict,
        "p_suc": prediction.success,
        "probs": np.array(decomp.probs, dtype=float),
    }
    lines = [
        f"record coherence = {witness.value:.6f} bit",
        f"verdict = {witness.verdict}",
        f"p_suc = {prediction.success:.6f}",
        "second-record probabilities = " + ", ".join(f"{p:.4f}" for p in decomp.probs),
    ]
    return payload, lines


def _cmd_demo(args) -> int:
    if args.name == "decay":
        payload, lines = _demo_decay(args)
    elif args.name == "bell-sl":
        _, payload, lines = _chsh_output(_demo_scenario("bell-sl"))
    else:
        payload, lines = _demo_record_pair(args.name)
    _emit(args, payload, lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventstates",
        description="Build and analyze joint record states of measurement event pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")

    p = sub.add_parser("validate", help="check that a scenario file can be built", parents=[common])
    p.add_argument("scenario")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("build", help="build the record state a scenario describes", parents=[common])
    p.add_argument("scenario")
    p.add_argument("--timed", action="store_true", help="keep timer registers (small grids only)")
    p.add_argument("--out", help="write the state JSON here instead of stdout")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("witness", help="run causal-signature witnesses", parents=[common])
    p.add_argument("path", help="scenario file or serialized record state")
    p.add_argument(
        "--kind",
        choices=("coherence", "timecorr", "all"),
        default="all",
        help="which witness to run (default: every applicable one)",
    )
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("discriminate", help="predict the second record from the first", parents=[common])
    p.add_argument("path", help="scenario file or serialized record state")
    p.set_defaults(handler=_cmd_discriminate)

    p = sub.add_parser("classical-corr", help="classical correlation of the two records", parents=[common])
    p.add_argument("path", help="scenario file or serialized record state")
    p.set_defaults(handler=_cmd_classical_corr)

    p = sub.add_parser("chsh", help="CHSH combination from a scenario's settings", parents=[common])
    p.add_argument("scenario")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_chsh)

    p = sub.add_parser("demo", help="run a bundled worked example", parents=[common])
    p.add_argument("name", choices=DEMO_NAMES)
    p.add_argument("--gamma", type=float, default=1.0, help="decay rate for the decay demo")
    p.add_argument("--dt", type=float, default=0.001, help="grid step for the decay demo")
    p.set_defaults(handler=_cmd_demo)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Warnings print as one "warning: <message>" line each, like errors.
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: file not found: {name}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a path that exists but cannot be read or written (a directory, say)
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning
