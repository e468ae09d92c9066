"""The four workloads: operations on the program and the checks on their outputs.

Every operation calls the program through module attributes
(``ev.build_event_state`` rather than a name imported once), so the spans
:mod:`spans` installs see every call.  ``check`` compares an operation's
outputs with :mod:`reference`, which never imports the program, and returns
the names of the checks that failed; it runs outside the timed span.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import reference as ref
from inputs import MALFORMED, unpair

from eventstates import bell
from eventstates import cli as es_cli
from eventstates import event_states as ev
from eventstates import inference as inf
from eventstates import quantum_core as qc
from eventstates import scenario as sc
from eventstates import serialize as se
from eventstates import timing as tm
from eventstates import witnesses as wi

TSIRELSON = 2.0 * math.sqrt(2.0)
# C_A from the program's grid plus simplex refinement may fall below the
# benchmark's coarser independent scan by at most this many bits.
SCAN_TOL_BITS = 1e-6
DETERMINISM_TOL = 1e-8


def _failed(checks: dict[str, bool]) -> list[str]:
    return [name for name, ok in checks.items() if not ok]


def _model(kets: np.ndarray) -> qc.MeasurementModel:
    return qc.MeasurementModel.from_kets(kets, [1.0, -1.0])


# ------------------------------------------------------------------ records


class Records:
    """Each operation: one bundle of four scenario dicts through the whole chain."""

    name = "records"
    KEYS = ("sl", "tl2", "tl3", "tl8")
    CHECKS = (
        "records.rho_matches_own",
        "records.round_trip_12_digits",
        "records.coherence_matches_own",
        "records.probs_match_own",
        "records.discrimination_matches_own",
        "records.overlap_matches_own",
        "records.chsh_matches_own",
        "records.chsh_within_tsirelson",
    )

    def __init__(self, inputs: dict, rundir: str):
        self.bundles = inputs["bundles"]
        self._refs: dict[int, dict] = {}

    def prepare(self, i: int) -> None:
        """The scenario dicts are the program's inputs as they stand."""

    def op(self, i: int) -> dict:
        bundle = self.bundles[i % len(self.bundles)]
        out = {}
        for key in self.KEYS:
            loaded = sc.scenario_from_json(bundle[key], source=key)
            state = ev.build_event_state(loaded.scenario)
            coherence = wi.coherence_witness(state)
            decomp = ev.conditional_decomposition(state)
            prediction = inf.predict_future_outcome(state)
            determinism = inf.determinism_check(state) if state.kind == "TL" else None
            chsh = None
            if loaded.chsh_angles is not None:
                family = bell.chsh_scenarios(loaded.scenario.initial, *loaded.chsh_angles)
                chsh = bell.chsh_value([ev.build_event_state(s) for s in family])
            text = se.canonical_dumps(se.state_to_json(state))
            back = se.state_from_json(json.loads(text))
            out[key] = {
                "rho": np.array(state.rho),
                "coherence": coherence.value,
                "probs": np.array(decomp.probs),
                "success": prediction.success,
                "exact": prediction.exact,
                "max_overlap": None if determinism is None else determinism.max_overlap,
                "chsh_E": None if chsh is None else np.array(chsh.correlators),
                "chsh_S": None if chsh is None else chsh.value,
                "back": np.array(back.rho),
            }
        return out

    def reference(self, i: int) -> dict:
        j = i % len(self.bundles)
        if j not in self._refs:
            out = {}
            for key in self.KEYS:
                data = self.bundles[j][key]
                da = ref.basis(data["basisA"])[0].shape[0]
                db = ref.basis(data["basisB"])[0].shape[0]
                rho = ref.scenario_state(data)
                conds = ref.conditionals(rho, da, db)
                item = {
                    "rho": rho,
                    "coherence": ref.coherence(rho),
                    "probs": np.array([p for p, _ in conds]),
                    "success": ref.discrimination(rho, da, db),
                    "live": sum(1 for _, s in conds if s is not None),
                    "max_overlap": ref.max_overlap(rho, da, db),
                }
                if "chsh" in data:
                    corr = ref.chsh_correlators(
                        ref.matrix(data["initial"]["ket"]), data["chsh"]["anglesA"], data["chsh"]["anglesB"]
                    )
                    item["chsh_E"], item["chsh_S"] = corr, ref.chsh_value(corr)
                out[key] = item
            self._refs[j] = out
        return self._refs[j]

    def check(self, i: int, out: dict) -> list[str]:
        refs = self.reference(i)
        ok = dict.fromkeys(self.CHECKS, True)
        for key in self.KEYS:
            got, want = out[key], refs[key]
            ok["records.rho_matches_own"] &= bool(np.max(np.abs(got["rho"] - want["rho"])) <= 1e-10)
            ok["records.round_trip_12_digits"] &= ref.rounding_excess(got["rho"], got["back"]) <= 0.0
            ok["records.coherence_matches_own"] &= abs(got["coherence"] - want["coherence"]) <= 1e-9
            ok["records.probs_match_own"] &= bool(np.max(np.abs(got["probs"] - want["probs"])) <= 1e-10)
            ok["records.discrimination_matches_own"] &= (
                abs(got["success"] - want["success"]) <= 1e-9 and got["exact"] == (want["live"] <= 2)
            )
            if got["max_overlap"] is not None:
                ok["records.overlap_matches_own"] &= abs(got["max_overlap"] - want["max_overlap"]) <= 1e-9
            if "chsh_E" in want:
                ok["records.chsh_matches_own"] &= (
                    got["chsh_E"] is not None
                    and bool(np.max(np.abs(got["chsh_E"] - want["chsh_E"])) <= 1e-9)
                    and abs(got["chsh_S"] - want["chsh_S"]) <= 1e-9
                )
                ok["records.chsh_within_tsirelson"] &= got["chsh_S"] is not None and got["chsh_S"] <= TSIRELSON + 1e-9
        return _failed(ok)


# ----------------------------------------------------------------- searches


class Searches:
    """Each operation: C_A of a pure TL pair and an entangled SL pair, then the basis search."""

    name = "searches"
    CHECKS = (
        "searches.ca_at_least_scan",
        "searches.ca_at_most_entropy_b",
        "searches.basis_found",
        "searches.found_basis_deterministic",
    )

    def __init__(self, inputs: dict, rundir: str):
        self.raw = inputs["cases"]
        self._cases: dict[int, dict] = {}
        self._refs: dict[int, dict] = {}

    def prepare(self, i: int) -> None:
        """Program-side inputs: the two record states, built before timing."""
        j = i % len(self.raw)
        if j not in self._cases:
            c = self.raw[j]
            psi, u = unpair(c["psi"]), unpair(c["evolution"])
            basis_b = _model(unpair(c["basisB"]))
            tl = ev.build_tl_instant(
                ev.EventScenario(kind="TL", initial=psi, basis_a=_model(unpair(c["basisA"])), basis_b=basis_b, evolution=u)
            )
            sl = ev.build_sl_instant(
                ev.EventScenario(
                    kind="SL",
                    initial=unpair(c["psi_sl"]),
                    basis_a=_model(unpair(c["basisA_sl"])),
                    basis_b=_model(unpair(c["basisB_sl"])),
                )
            )
            self._cases[j] = {"psi": psi, "evolution": u, "basis_b": basis_b, "tl": tl, "sl": sl}

    def op(self, i: int) -> dict:
        c = self._cases[i % len(self.raw)]
        ca_tl = inf.classical_correlation(c["tl"])
        ca_sl = inf.classical_correlation(c["sl"])
        found = inf.find_deterministic_basis(c["psi"], c["evolution"], c["basis_b"])
        det = None
        if found.found:
            rebuilt = ev.EventScenario(
                kind="TL", initial=c["psi"], basis_a=found.basis, basis_b=c["basis_b"], evolution=c["evolution"]
            )
            det = inf.determinism_check(ev.build_tl_instant(rebuilt))
        return {
            "ca_tl": ca_tl.bits,
            "ca_sl": ca_sl.bits,
            "found": found.found,
            "found_kets": None if found.basis is None else np.array(found.basis.kets),
            "max_overlap": None if det is None else det.max_overlap,
            "deterministic": None if det is None else det.deterministic,
        }

    def reference(self, i: int) -> dict:
        j = i % len(self.raw)
        if j not in self._refs:
            c = self.raw[j]
            psi, u, kb = unpair(c["psi"]), unpair(c["evolution"]), unpair(c["basisB"])
            tl = ref.tl_instant(np.outer(psi, psi.conj()), unpair(c["basisA"]), kb, u)
            psi_sl = unpair(c["psi_sl"])
            sl = ref.sl_instant(np.outer(psi_sl, psi_sl.conj()), unpair(c["basisA_sl"]), unpair(c["basisB_sl"]))
            self._refs[j] = {
                "psi": psi,
                "evolution": u,
                "kb": kb,
                "scan_tl": ref.scan_classical_correlation(tl),
                "scan_sl": ref.scan_classical_correlation(sl),
                "entropy_b_tl": ref.vn_entropy(ref.reduced_b(tl, 2, 2)),
                "entropy_b_sl": ref.vn_entropy(ref.reduced_b(sl, 2, 2)),
                # A basis perpendicular to psi's Bloch vector always works.
                "perpendicular_overlap": ref.branch_overlap(ref.perpendicular_basis(psi), psi, u, kb),
            }
        return self._refs[j]

    def check(self, i: int, out: dict) -> list[str]:
        want = self.reference(i)
        ok = {
            "searches.ca_at_least_scan": out["ca_tl"] >= want["scan_tl"] - SCAN_TOL_BITS
            and out["ca_sl"] >= want["scan_sl"] - SCAN_TOL_BITS,
            "searches.ca_at_most_entropy_b": out["ca_tl"] <= want["entropy_b_tl"] + 1e-9
            and out["ca_sl"] <= want["entropy_b_sl"] + 1e-9,
            "searches.basis_found": bool(out["found"]) and want["perpendicular_overlap"] <= 1e-12,
            "searches.found_basis_deterministic": False,
        }
        if out["found_kets"] is not None:
            own = ref.branch_overlap(out["found_kets"], want["psi"], want["evolution"], want["kb"])
            ok["searches.found_basis_deterministic"] = (
                own <= DETERMINISM_TOL and bool(out["deterministic"]) and abs(out["max_overlap"] - own) <= 1e-9
            )
        return _failed(ok)


# -------------------------------------------------------------------- grids


class Grids:
    """Each operation: one decay case on the fuzzy ladder, two timer grids and a large round trip."""

    name = "grids"
    CHECKS = (
        "grids.tl_fuzzy_valid",
        "grids.sl_fuzzy_matches_own",
        "grids.tl_covariance_matches_own",
        "grids.tl_covariance_approaches_continuum",
        "grids.sl_covariance_zero",
        "grids.chebyshev_consistent",
        "grids.timed_traces_to_fuzzy",
        "grids.timer_table_matches_own",
        "grids.timed_covariance_matches_own",
        "grids.timed_state_valid",
        "grids.timed_round_trip_12_digits",
    )

    def __init__(self, inputs: dict, rundir: str):
        self.raw = inputs["cases"]
        self.ladder = inputs["ladder"]
        self.tail = inputs["ladder_tail"]
        self.log_tail = math.log(1.0 / self.tail)
        self.timed_bins = inputs["timed_bins"]
        self.timed_gamma_dt = inputs["timed_gamma_dt"]
        self._cases: dict[int, dict] = {}
        self._refs: dict[int, dict] = {}

    def ladder_dt(self, gamma: float, n: int) -> float:
        return self.log_tail / (gamma * n)

    def prepare(self, i: int) -> None:
        """Program-side inputs: arrays and measurement bases, made before timing."""
        j = i % len(self.raw)
        if j not in self._cases:
            c = self.raw[j]
            self._cases[j] = {
                "gamma": c["gamma"],
                "gammaB": c["gammaB"],
                "hamiltonian": unpair(c["hamiltonian"]),
                "hamiltonianA": unpair(c["hamiltonianA"]),
                "hamiltonianB": unpair(c["hamiltonianB"]),
                "psi": unpair(c["psi"]),
                "psi_sl": unpair(c["psi_sl"]),
                "basis_a": _model(unpair(c["basisA"])),
                "basis_b": _model(unpair(c["basisB"])),
            }

    def _scenarios(self, c: dict, grid, with_sl: bool):
        pa = tm.exponential_profile(c["gamma"], grid)
        pc = tm.exponential_conditional(c["gamma"], grid)
        tl = ev.EventScenario(
            kind="TL", initial=c["psi"], basis_a=c["basis_a"], basis_b=c["basis_b"],
            hamiltonian=c["hamiltonian"], timing=ev.EventTiming(profile_a=pa, profile_b=pc),
        )
        if not with_sl:
            return pa, pc, None, tl, None
        pb = tm.exponential_profile(c["gammaB"], grid)
        sl = ev.EventScenario(
            kind="SL", initial=c["psi_sl"], basis_a=c["basis_a"], basis_b=c["basis_b"],
            hamiltonian_a=c["hamiltonianA"], hamiltonian_b=c["hamiltonianB"],
            timing=ev.EventTiming(profile_a=pa, profile_b=pb),
        )
        return pa, pc, pb, tl, sl

    def op(self, i: int) -> dict:
        c = self._cases[i % len(self.raw)]
        out = {"tl": [], "sl": [], "cov": []}
        for n in self.ladder:
            grid = tm.TimeGrid(t0=0.0, dt=self.ladder_dt(c["gamma"], n), n_bins=n)
            pa, pc, pb, tl, sl = self._scenarios(c, grid, with_sl=True)
            out["tl"].append(np.array(ev.build_tl_fuzzy(tl).rho))
            out["sl"].append(np.array(ev.build_sl_fuzzy(sl).rho))
            table = tm.joint_time_distribution(pa, pc, "TL")
            out["cov"].append(wi.time_witness(table).value)
        cheb = wi.chebyshev_check(table)
        out["chebyshev"] = (cheb.monotone, cheb.consistent, cheb.covariance)
        out["cov_sl"] = wi.time_witness(tm.joint_time_distribution(pa, pb, "SL")).value
        del pa, pc, pb, tl, sl, table

        out["timed"] = []
        for n in self.timed_bins:
            grid = tm.TimeGrid(t0=0.0, dt=self.timed_gamma_dt / c["gamma"], n_bins=n)
            _, _, _, tl, _ = self._scenarios(c, grid, with_sl=False)
            timed = ev.build_timed_state(tl)
            dist = ev.timer_distribution(timed)
            out["timed"].append(
                {
                    "reduced": np.array(ev.trace_out_timers(timed).rho),
                    "fuzzy": np.array(ev.build_tl_fuzzy(tl).rho),
                    "table": np.array(dist.table),
                    "cov": wi.time_witness(dist).value,
                }
            )
        text = se.canonical_dumps(se.state_to_json(timed))
        back = se.state_from_json(json.loads(text))
        out["timed_rho"], out["timed_back"] = np.array(timed.rho), np.array(back.rho)
        return out

    def reference(self, i: int) -> dict:
        j = i % len(self.raw)
        if j not in self._refs:
            c = self.raw[j]
            gamma, gamma_b = c["gamma"], c["gammaB"]
            ka, kb = unpair(c["basisA"]), unpair(c["basisB"])
            ham = unpair(c["hamiltonian"])
            psi = unpair(c["psi"])
            ladder = []
            for n in self.ladder:
                dt = self.ladder_dt(gamma, n)
                wa, _ = ref.exponential_weights(gamma, dt, n)
                wb, _ = ref.exponential_weights(gamma_b, dt, n)
                probs = ref.sl_fuzzy_probs(
                    unpair(c["psi_sl"]), ka, kb, unpair(c["hamiltonianA"]), unpair(c["hamiltonianB"]), wa, wb, dt
                )
                ladder.append(
                    {
                        "dt": dt,
                        "sl": np.diag(probs.reshape(4)).astype(complex),
                        "cov": ref.exponential_covariance(gamma, dt, n),
                    }
                )
            timed = []
            for n in self.timed_bins:
                dt = self.timed_gamma_dt / gamma
                pa, rows = ref.exponential_weights(gamma, dt, n)
                table = pa[:, None] * rows
                timed.append(
                    {
                        "table": table,
                        "fuzzy": ref.tl_fuzzy_small(np.outer(psi, psi.conj()), ka, kb, ham, table, dt),
                        "cov": ref.exponential_covariance(gamma, dt, n),
                    }
                )
            self._refs[j] = {"gamma": gamma, "ladder": ladder, "timed": timed}
        return self._refs[j]

    def check(self, i: int, out: dict) -> list[str]:
        want = self.reference(i)
        gamma = want["gamma"]
        ok = dict.fromkeys(self.CHECKS, True)
        ok["grids.sl_covariance_zero"] = abs(out["cov_sl"]) <= 1e-10
        ok["grids.timed_round_trip_12_digits"] = ref.rounding_excess(out["timed_rho"], out["timed_back"]) <= 0.0
        errors = []
        for rho_tl, rho_sl, cov, rung in zip(out["tl"], out["sl"], out["cov"], want["ladder"]):
            trace, herm, low = ref.density_defects(rho_tl)
            four = rho_tl.reshape(2, 2, 2, 2)
            cross = max(float(np.max(np.abs(four[:, 0, :, 1]))), float(np.max(np.abs(four[:, 1, :, 0]))))
            ok["grids.tl_fuzzy_valid"] &= trace <= 1e-9 and herm <= 1e-12 and low >= -1e-10 and cross == 0.0
            ok["grids.sl_fuzzy_matches_own"] &= bool(np.max(np.abs(rho_sl - rung["sl"])) <= 1e-10)
            ok["grids.tl_covariance_matches_own"] &= abs(cov - rung["cov"]) <= 1e-9 * rung["cov"]
            error = abs(gamma**2 * cov - 1.0)
            errors.append(error)
            ok["grids.tl_covariance_approaches_continuum"] &= error <= ref.decay_grid_error(gamma, rung["dt"], self.tail)
        ok["grids.tl_covariance_approaches_continuum"] &= errors[-1] < errors[0]
        monotone, consistent, cheb_cov = out["chebyshev"]
        ok["grids.chebyshev_consistent"] = monotone and consistent and abs(cheb_cov - out["cov"][-1]) <= 1e-12
        for got, own in zip(out["timed"], want["timed"]):
            ok["grids.timed_traces_to_fuzzy"] &= bool(
                np.max(np.abs(got["reduced"] - got["fuzzy"])) <= 1e-10
                and np.max(np.abs(got["fuzzy"] - own["fuzzy"])) <= 1e-10
            )
            ok["grids.timer_table_matches_own"] &= bool(np.max(np.abs(got["table"] - own["table"])) <= 1e-10)
            ok["grids.timed_covariance_matches_own"] &= abs(got["cov"] - own["cov"]) <= 1e-9 * own["cov"]
        trace, herm, low = ref.density_defects(out["timed_rho"])
        ok["grids.timed_state_valid"] = trace <= 1e-9 and herm <= 1e-12 and low >= -1e-10
        return _failed(ok)


# ---------------------------------------------------------------------- cli

BELL_ANGLES = ((0.0, 90.0), (45.0, -45.0))  # the bell-sl demo's documented settings, degrees
# The decay demo runs at its default rate and tabulates its covariance on a
# grid of step max(dt, 0.02) that keeps all but 1e-6 of the decay.
DECAY_GAMMA, DECAY_TABLE_DT, DECAY_TAIL = 1.0, 0.02, 1e-6


class Cli:
    """Each operation: one ``python -m eventstates`` call from a fixed rotation."""

    name = "cli"

    def __init__(self, inputs: dict, rundir: str):
        self.rundir = rundir
        self.rotation = inputs["rotation"]
        self.files = inputs["files"]
        for name, data in self.files.items():
            with open(os.path.join(rundir, name), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        self._refs: dict | None = None

    @staticmethod
    def malformed(argv: list[str]) -> bool:
        return argv[0] == "validate" and argv[1] in MALFORMED

    @staticmethod
    def check_name(argv: list[str]) -> str:
        return "cli." + "_".join(a.replace(".json", "").replace("-", "_") for a in argv[:2])

    def call(self, argv: list[str], env: dict, prefix: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(prefix + argv, cwd=self.rundir, env=env, capture_output=True, text=True)

    def inprocess(self, argv: list[str]) -> int:
        """Run the CLI in this interpreter (set-up probe and traced coverage)."""
        cwd = os.getcwd()
        os.chdir(self.rundir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return es_cli.main(argv)
        finally:
            os.chdir(cwd)

    def reference(self) -> dict:
        if self._refs is None:
            f = self.files
            tl = ref.scenario_state(f["tl_qubit.json"])
            timed = f["timed_tl.json"]
            t_gamma = timed["timing"]["profileA"]["gamma"]
            t_dt, t_n = timed["timing"]["grid"]["dt"], timed["timing"]["grid"]["n_bins"]
            pa, rows = ref.exponential_weights(t_gamma, t_dt, t_n)
            ka, _ = ref.basis(timed["basisA"])
            kb, _ = ref.basis(timed["basisB"])
            fuzzy = ref.tl_fuzzy_small(
                ref.initial_density(timed["initial"]), ka, kb, ref.matrix(timed["hamiltonian"]), pa[:, None] * rows, t_dt
            )
            sl = f["sl_qubit.json"]
            corr = ref.chsh_correlators(ref.matrix(sl["initial"]["ket"]), sl["chsh"]["anglesA"], sl["chsh"]["anglesB"])
            self._refs = {
                "tl_qubit": tl,
                "tl_qutrit_coherence": ref.coherence(ref.scenario_state(f["tl_qutrit.json"])),
                "sl_qubit_qutrit": ref.scenario_state(f["sl_qubit_qutrit.json"]),
                "helstrom": ref.discrimination(tl, 2, 2),
                "max_overlap": ref.max_overlap(tl, 2, 2),
                "scan": ref.scan_classical_correlation(tl),
                "entropy_b": ref.vn_entropy(ref.reduced_b(tl, 2, 2)),
                "timed_table": pa[:, None] * rows,
                "timed_n": t_n,
                "timed_fuzzy": fuzzy,
                "timed_coherence": ref.coherence(fuzzy),
                "timed_cov": ref.exponential_covariance(t_gamma, t_dt, t_n),
                "chsh_E": corr,
                "chsh_S": ref.chsh_value(corr),
            }
        return self._refs

    def _state_file(self, name: str) -> tuple[dict, np.ndarray]:
        with open(os.path.join(self.rundir, name), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return data, ref.matrix(data)

    @staticmethod
    def _valid(rho: np.ndarray) -> bool:
        trace, herm, low = ref.density_defects(rho)
        return trace <= 1e-10 and herm <= 1e-11 and low >= -1e-10

    def _witness_values(self, stdout: str) -> dict:
        return {w["witness"]: w["value"] for w in json.loads(stdout)["witnesses"]}

    def check(self, argv: list[str], done) -> tuple[bool, list[str]]:
        """(counts as failed, failed checks) for one finished call."""
        if self.malformed(argv):
            lines = done.stderr.strip().splitlines()
            named_fault = not (done.returncode == 2 and len(lines) == 1 and lines[0].startswith("error:"))
            return named_fault, []
        name = self.check_name(argv)
        if done.returncode != 0:
            return True, [name + ".exit_0"]
        try:
            ok = self._check_output(argv, done.stdout)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            print(f"{name}: unreadable output: {exc!r}", file=sys.stderr)
            ok = False
        return False, [] if ok else [name]

    def _check_output(self, argv: list[str], stdout: str) -> bool:
        want = self.reference()
        cmd, arg = argv[0], argv[1]
        if cmd == "demo":
            out = json.loads(stdout)
            if arg == "appendix-e":
                return abs(out["p_suc"] - 1) <= 1e-9 and abs(out["classical_correlation_bits"] - 1) <= 1e-6 and out["deterministic"] is True
            if arg == "hadamard-tl":
                return abs(out["record_coherence_bits"] - 1) <= 1e-9 and out["verdict"] == "causal-signature"
            if arg == "bell-sl":
                expect = [-math.cos(math.radians(a - b)) for a in BELL_ANGLES[0] for b in BELL_ANGLES[1]]
                return (
                    max(abs(e - x) for e, x in zip(out["E"], expect)) <= 1e-9
                    and abs(out["S"] - TSIRELSON) <= 1e-9
                    and out["tsirelson_ok"] is True
                )
            gamma = DECAY_GAMMA
            cov = out["time_covariance"]
            return (
                abs(gamma**2 * cov - 1) <= ref.decay_grid_error(gamma, DECAY_TABLE_DT, DECAY_TAIL)
                and abs(out["continuum_covariance"] * gamma**2 - 1) <= 1e-11
                and out["verdict"] == "causal-signature"
            )
        if cmd == "validate":
            return json.loads(stdout) == {"ok": True, "kind": "SL", "dimA": 2, "dimB": 2, "timing": False, "chsh": True}
        if cmd == "build":
            target = argv[argv.index("--out") + 1]
            data, rho = self._state_file(target)
            if not stdout.startswith(f"wrote {target} ({rho.shape[0]}-dimensional") or not self._valid(rho):
                return False
            if "--timed" not in argv:
                return bool(np.max(np.abs(rho - want[arg.replace(".json", "")])) <= 1e-11)
            n = data["timers"]["n_bins"]
            tensor = rho.reshape(n, 2, n, 2, n, 2, n, 2)
            table = np.real(np.einsum("kalbkalb->kl", tensor))
            reduced = np.einsum("kalbkAlB->abAB", tensor).reshape(4, 4)
            return (
                n == want["timed_n"]
                and bool(np.max(np.abs(table - want["timed_table"])) <= 1e-10)
                and bool(np.max(np.abs(reduced - want["timed_fuzzy"])) <= 1e-10)
            )
        if cmd == "witness":
            values = self._witness_values(stdout)
            if arg == "tl_qutrit.json":
                return list(values) == ["record-coherence"] and abs(
                    values["record-coherence"] - want["tl_qutrit_coherence"]
                ) <= 1e-9
            return (
                abs(values["record-coherence"] - want["timed_coherence"]) <= 1e-9
                and abs(values["time-correlation"] - want["timed_cov"]) <= 1e-9 * want["timed_cov"]
            )
        if cmd == "discriminate":
            out = json.loads(stdout)
            return (
                abs(out["success"] - want["helstrom"]) <= 1e-9
                and out["exact"] is True
                and abs(out["max_overlap"] - want["max_overlap"]) <= 1e-9
                and out["deterministic"] == (want["max_overlap"] < DETERMINISM_TOL)
            )
        if cmd == "classical-corr":
            bits = json.loads(stdout)["classical_correlation_bits"]
            return want["scan"] - SCAN_TOL_BITS <= bits <= want["entropy_b"] + 1e-9
        if cmd == "chsh":
            header, row = stdout.strip().splitlines()
            values = row.split(",")
            corr = np.array([float(x) for x in values[:4]])
            return (
                header == "E_ab,E_abp,E_apb,E_apbp,S,tsirelson_ok"
                and bool(np.max(np.abs(corr - want["chsh_E"])) <= 1e-9)
                and abs(float(values[4]) - want["chsh_S"]) <= 1e-9
                and values[5] == "true"
            )
        raise ValueError(f"no check for {argv}")


IN_PROCESS = {"records": Records, "searches": Searches, "grids": Grids}
ALL = dict(IN_PROCESS, cli=Cli)
