"""Every public array and count argument passes the rule that owns it.

``_ROWS`` lists, for each public callable that takes an array or a count, one
valid call (keyword arguments) and the ways to break it, one argument at a
time: a NaN entry, a wrong or mismatched shape, a bool or fractional count.
A broken call must raise a ``ValueError`` (``ScenarioError`` and
``NumericsError`` are its subclasses) from the package's own code, in the
words the row expects, with no ``RuntimeWarning`` on the way.  Every name in
``eventstates.__all__`` is either covered by a row or listed in
``_TYPED_ONLY``.
"""

from __future__ import annotations

import dataclasses
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

import eventstates as es
from eventstates import MeasurementModel, TimeGrid

NAN = float("nan")
PACKAGE = Path(es.__file__).resolve().parent

_SZ = MeasurementModel.sz()
_SX = MeasurementModel.sx()
_MIXED = np.eye(2) / 2.0
_GRID = TimeGrid(t0=0.0, dt=0.25, n_bins=4)
_DECAY_GRID = es.exponential_grid(20.0, 0.005)
_TL_STATE = es.build_tl_instant(es.EventScenario(kind="TL", initial=[0.6, 0.8], basis_a=_SX, basis_b=_SZ))
_DECOMP = es.conditional_decomposition(_TL_STATE)
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
_PROFILE = es.delta_profile(_GRID, 0)
_LAG = es.delta_conditional(_GRID, 1)


# (id, the public name it covers, callable, valid keyword arguments,
#  {break id: (argument, broken value, message regex)})
_ROWS = [
    ("as_operator", "as_operator", es.as_operator, {"value": _MIXED}, {
        "nan": ("value", [[0.5, 0.0], [0.0, NAN]], "^operator has non-finite entries$"),
        "shape": ("value", np.ones((2, 3)), "^operator must be a square matrix, got shape"),
    }),
    ("as_ket", "as_ket", es.as_ket, {"value": [1.0, 0.0]}, {
        "nan": ("value", [NAN, 1.0], "^ket has non-finite entries$"),
        "shape": ("value", np.eye(2), "^ket must be a vector"),
        "unnormalized": ("value", [2.0, 0.0], "^ket is not normalized"),
    }),
    ("bloch_ket", "bloch_ket", es.bloch_ket, {"theta": 0.3, "phi": 0.2}, {
        "nan-theta": ("theta", NAN, "^theta has non-finite entries$"),
        "nan-phi": ("phi", NAN, "^phi has non-finite entries$"),
    }),
    ("bloch_pair", "bloch_pair", es.bloch_pair, {"theta": np.array([0.3, 0.4]), "phi": 0.2}, {
        "nan-theta": ("theta", np.array([0.3, NAN]), "^theta has non-finite entries$"),
        "inf-phi": ("phi", np.inf, "^phi has non-finite entries$"),
    }),
    ("tensor_product", "tensor_product", es.tensor_product, {"a": _MIXED, "b": [1.0, 0.0]}, {
        "nan-a": ("a", [[NAN]], "^a has non-finite entries$"),
        "shape-a": ("a", np.ones((2, 3)), "^a must be a square matrix"),
        "unnormalized-b": ("b", [2.0, 0.0], "^b is not normalized"),
    }),
    ("partial_trace", "partial_trace", es.partial_trace, {"rho": np.eye(4) / 4.0, "dims": (2, 2)}, {
        "nan": ("rho", np.diag([0.25, 0.25, 0.25, NAN]), "^rho has non-finite entries$"),
        "shape": ("rho", np.ones((4, 3)), "^rho must be a square matrix"),
        "fractional-dims": ("dims", (2.7, 2.2), r"^dims\[0\] must be an integer, got 2.7$"),
        "bool-dim": ("dims", (True, 4), r"^dims\[0\] must be an integer, got True$"),
        "three-dims": ("dims", (2, 2, 2), "^dims must be two factor dimensions"),
        "scalar-dims": ("dims", 4, "^dims must be two factor dimensions"),
        "mismatched-dims": ("dims", (2, 3), "^dimension mismatch"),
    }),
    ("projector", "projector", es.projector, {"ket": [0.6, 0.8]}, {
        "nan": ("ket", [NAN, 1.0], "^ket has non-finite entries$"),
        "unnormalized": ("ket", [1.0, 1.0], "^ket is not normalized"),
        "shape": ("ket", np.eye(2), "^ket must be a vector"),
    }),
    ("von_neumann_entropy", "von_neumann_entropy", es.von_neumann_entropy, {"rho": _MIXED}, {
        "nan": ("rho", [[NAN, 0.0], [0.0, 0.5]], "^rho has non-finite entries$"),
        "shape": ("rho", [0.5, 0.5], "^rho must be a square matrix"),
    }),
    ("shannon_entropy", "shannon_entropy", es.shannon_entropy, {"probs": [0.25, 0.75]}, {
        "nan": ("probs", [NAN, 1.0], "^probs has non-finite entries$"),
        "negative": ("probs", [-0.5, 1.5], "^probs has a negative weight: -5.000e-01$"),
    }),
    ("trace_distance", "trace_distance", es.trace_distance, {"rho": _MIXED, "sigma": _MIXED}, {
        "nan": ("rho", [[0.5, 0.0], [0.0, NAN]], "^rho has non-finite entries$"),
        "mismatched": ("sigma", np.eye(3) / 3.0, r"^dimension mismatch: \(2, 2\) vs \(3, 3\)$"),
    }),
    ("dephase", "dephase", es.dephase, {"rho": _MIXED, "basis": _SX}, {
        "nan": ("rho", [[0.5, NAN], [0.0, 0.5]], "^rho has non-finite entries$"),
        "mismatched": ("basis", MeasurementModel.computational(3), "^basis dimension 3 does not match"),
    }),
    ("coherence", "relative_entropy_of_coherence", es.relative_entropy_of_coherence, {"rho": _MIXED}, {
        "nan": ("rho", [[0.5, NAN], [0.0, 0.5]], "^rho has non-finite entries$"),
        "not-psd": ("rho", np.diag([1.5, -0.5]), "^operator is not positive semidefinite"),
    }),
    ("validate_density", "validate_density", es.validate_density, {"op": _MIXED}, {
        "nan": ("op", [[0.5, NAN], [0.0, 0.5]], "^operator has non-finite entries$"),
        "shape": ("op", np.ones((1, 2)), "^operator must be a square matrix"),
    }),
    ("assert_density", "assert_density", es.assert_density, {"op": _MIXED}, {
        "nan": ("op", [[0.5, NAN], [0.0, 0.5]], "^state has non-finite entries$"),
        "not-density": ("op", np.eye(2), "^state is not a valid density matrix"),
    }),
    ("is_unitary", "is_unitary", es.is_unitary, {"op": np.eye(2)}, {
        "nan": ("op", [[1.0, NAN], [0.0, 1.0]], "^operator has non-finite entries$"),
        "shape": ("op", [1.0, 0.0], "^operator must be a square matrix"),
    }),
    ("assert_unitary", "assert_unitary", es.assert_unitary, {"op": np.eye(2)}, {
        "nan": ("op", [[1.0, NAN], [0.0, 1.0]], "^operator has non-finite entries$"),
        "not-unitary": ("op", 2.0 * np.eye(2), "^operator is not unitary"),
    }),
    ("basis", "MeasurementModel", MeasurementModel.from_kets, {"kets": np.eye(2), "labels": [1.0, -1.0]}, {
        "nan-kets": ("kets", [[1.0, 0.0], [0.0, NAN]], "^basis kets has non-finite entries$"),
        "nan-label": ("labels", [1.0, NAN], "^outcome labels must be finite$"),
        "label-count": ("labels", [1.0], "^one label per basis ket required$"),
    }),
    ("computational-basis", "MeasurementModel", MeasurementModel.computational, {"dim": 3}, {
        "fractional-dim": ("dim", 2.5, "^dim must be an integer, got 2.5$"),
        "bool-dim": ("dim", True, "^dim must be an integer, got True$"),
        "negative-dim": ("dim", -1, "^dim must be at least 1, got -1$"),
        "zero-dim": ("dim", 0, "^dim must be at least 1, got 0$"),
    }),
    ("basis-ket", "MeasurementModel", _SZ.ket, {"index": 1}, {
        "fractional-index": ("index", 1.5, "^ket index must be an integer, got 1.5$"),
        "bool-index": ("index", True, "^ket index must be an integer, got True$"),
        "negative-index": ("index", -1, r"^ket index -1 is outside \[0, 2\)$"),
        "outside": ("index", 2, r"^ket index 2 is outside \[0, 2\)$"),
    }),
    ("basis-projector", "MeasurementModel", _SZ.projector, {"index": np.int64(0)}, {
        "fractional-index": ("index", 0.0, "^ket index must be an integer, got 0.0$"),
        "outside": ("index", 5, r"^ket index 5 is outside \[0, 2\)$"),
    }),
    ("axis-angle-basis", "MeasurementModel", MeasurementModel.from_axis_angle, {"theta": 0.3}, {
        "nan-theta": ("theta", NAN, "^theta has non-finite entries$"),
    }),
    ("TimeGrid", "TimeGrid", TimeGrid, {"t0": 0.0, "dt": 0.25, "n_bins": 4}, {
        "nan-dt": ("dt", NAN, "^dt must be positive"),
        "zero-dt": ("dt", 0.0, "^dt must be positive, got 0.0$"),
        "text-dt": ("dt", "0.1", "^dt must be a real number, got '0.1'$"),
        "bool-dt": ("dt", True, "^dt must be a real number, got True$"),
        "text-t0": ("t0", "0", "^t0 must be a real number, got '0'$"),
        "nan-t0": ("t0", NAN, "^t0 must be finite$"),
        "fractional-bins": ("n_bins", 4.0, "^n_bins must be an integer, got 4.0$"),
        "bool-bins": ("n_bins", True, "^n_bins must be an integer, got True$"),
    }),
    ("TimingProfile", "TimingProfile", es.TimingProfile,
        {"grid": _GRID, "kind": "marginal", "amplitudes": np.full(4, 1.0)}, {
        "nan": ("amplitudes", np.array([2.0, 0.0, 0.0, NAN]), "^profile amplitudes must be finite$"),
        "shape": ("amplitudes", np.ones(3), r"^marginal profile needs shape \(4,\)"),
    }),
    ("BranchingSchedule", "BranchingSchedule", es.BranchingSchedule,
        {"grid": _GRID, "step_probs": np.full(4, 0.01), "step_phases": np.zeros(4)}, {
        "nan-step": ("step_probs", [NAN, 0.01, 0.01, 0.01], r"^step probabilities must lie in \[0, 1\)$"),
        "nan-phase": ("step_phases", [0.0, 0.0, NAN, 0.0], "^step phases must be finite$"),
        "shape": ("step_probs", np.full(3, 0.01), r"^schedule arrays need shape \(4,\)$"),
    }),
    ("constant-schedule", "BranchingSchedule", es.BranchingSchedule.constant,
        {"grid": _GRID, "step_prob": 0.01}, {
        "nan-step": ("step_prob", NAN, r"^step probabilities must lie in \[0, 1\)$"),
    }),
    ("JointTimeDistribution", "JointTimeDistribution", es.JointTimeDistribution,
        {"grid": _GRID, "kind": "SL", "table": np.full((4, 4), 1.0 / 16.0)}, {
        "nan": ("table", np.diag([1.0, 0.0, 0.0, NAN]), "^joint time table not normalized: total nan$"),
        "shape": ("table", np.full((3, 3), 1.0 / 9.0), r"^table needs shape \(4, 4\)"),
        "bool-kind": ("kind", True, "^kind must be 'SL' or 'TL', got True$"),
    }),
    ("EventTiming", "EventTiming", es.EventTiming, {"joint_amplitudes": np.ones((4, 4)), "joint_grid": _GRID}, {
        "nan": ("joint_amplitudes", np.diag([1.0, 1.0, 1.0, NAN]), "^joint table has non-finite entries$"),
        "shape": ("joint_amplitudes", np.ones((3, 3)), r"^joint table needs shape \(4, 4\)"),
    }),
    ("exponential_grid", "exponential_grid", es.exponential_grid, {"gamma": 1.0, "dt": 0.1}, {
        "nan-rate": ("gamma", NAN, "^decay rate must be positive and finite, got nan$"),
        "text-rate": ("gamma", "1", "^decay rate must be a real number, got '1'$"),
        "text-step": ("dt", "0.1", "^dt must be a real number, got '0.1'$"),
        "nan-step": ("dt", NAN, "^dt must be positive and finite, got nan$"),
        "nan-tail": ("tail_mass", NAN, r"^tail_mass must lie in \(0, 1\)$"),
    }),
    ("exponential_tail_mass", "exponential_tail_mass", es.exponential_tail_mass, {"gamma": 1.0, "grid": _GRID}, {
        "negative-rate": ("gamma", -1.0, "^decay rate must be positive and finite, got -1.0$"),
        "nan-rate": ("gamma", NAN, "^decay rate must be positive and finite, got nan$"),
    }),
    ("exponential_profile", "exponential_profile", es.exponential_profile, {"gamma": 20.0, "grid": _DECAY_GRID}, {
        "negative-rate": ("gamma", -1.0, "^decay rate must be positive and finite, got -1.0$"),
        "complex-rate": ("gamma", 1j, "^decay rate must be a real number, got 1j$"),
        "nan-rate": ("gamma", NAN, "^decay rate must be positive and finite, got nan$"),
    }),
    ("exponential_conditional", "exponential_conditional", es.exponential_conditional,
        {"gamma": 20.0, "grid": _DECAY_GRID}, {
        "negative-rate": ("gamma", -1.0, "^decay rate must be positive and finite, got -1.0$"),
        "nan-rate": ("gamma", NAN, "^decay rate must be positive and finite, got nan$"),
    }),
    ("delta_profile", "delta_profile", es.delta_profile, {"grid": _GRID, "bin_index": 1}, {
        "fractional-bin": ("bin_index", 1.5, "^bin index must be an integer, got 1.5$"),
        "bool-bin": ("bin_index", True, "^bin index must be an integer, got True$"),
        "outside": ("bin_index", 9, "^bin index 9 outside grid of 4 bins$"),
    }),
    ("delta_conditional", "delta_conditional", es.delta_conditional, {"grid": _GRID, "lag_bins": 1}, {
        "fractional-lag": ("lag_bins", 1.5, "^lag must be an integer, got 1.5$"),
        "nan-lag": ("lag_bins", NAN, "^lag must be an integer, got nan$"),
        "negative-lag": ("lag_bins", -1, "^lag must be nonnegative, got -1$"),
    }),
    ("branching_amplitude", "branching_amplitude", es.branching_amplitude,
        {"schedule": es.BranchingSchedule.constant(_GRID, 0.01), "k": 1}, {
        "fractional-bin": ("k", 1.5, "^bin index must be an integer, got 1.5$"),
        "bool-bin": ("k", False, "^bin index must be an integer, got False$"),
    }),
    ("joint_time_distribution", "joint_time_distribution", es.joint_time_distribution,
        {"profile_a": _PROFILE, "profile_b": _LAG, "kind": "TL"}, {
        "bad-kind": ("kind", "XX", "^kind must be 'SL' or 'TL', got 'XX'$"),
        "bool-kind": ("kind", True, "^kind must be 'SL' or 'TL', got True$"),
    }),
    ("EventScenario", "EventScenario", es.EventScenario,
        {"kind": "TL", "initial": [0.6, 0.8], "basis_a": _SX, "basis_b": _SZ, "evolution": np.eye(2)}, {
        "nan-ket": ("initial", [NAN, 1.0], "^initial state has non-finite entries$"),
        "unnormalized-ket": ("initial", [2.0, 0.0], "^initial state is not normalized"),
        "nan-operator": ("initial", [[0.5, NAN], [0.0, 0.5]], "^initial state has non-finite entries$"),
        "shape": ("initial", np.ones((2, 3)), "^initial state must be a square matrix"),
        "mismatched": ("initial", [1.0, 0.0, 0.0], "^ordered events measure one system twice"),
        "bool-kind": ("kind", True, "^kind must be 'SL' or 'TL', got True$"),
        "nan-evolution": ("evolution", [[1.0, NAN], [0.0, 1.0]], "^evolution has non-finite entries$"),
        "mismatched-evolution": ("evolution", np.eye(3), "^evolution dimension does not match the system$"),
    }),
    ("EventState", "EventState", es.EventState, {"kind": "TL", "rho": _TL_STATE.rho, "basis_a": _SX, "basis_b": _SZ}, {
        "nan": ("rho", np.diag([0.5, 0.5, 0.0, NAN]), "^event state has non-finite entries$"),
        "mismatched": ("rho", np.eye(3) / 3.0, r"^state dimension 3 does not match bases/timers \(4\)$"),
        "bool-kind": ("kind", False, "^kind must be 'SL' or 'TL', got False$"),
    }),
    ("reconstruct", "reconstruct_from_decomposition", es.reconstruct_from_decomposition,
        {"decomp": _DECOMP, "da": 2}, {
        "fractional-dim": ("da", 2.0, "^da must be an integer, got 2.0$"),
        "bool-dim": ("da", True, "^da must be an integer, got True$"),
        "mismatched": ("da", 3, "^decomposition holds 2-dim first records, not 3$"),
    }),
    ("helstrom_success", "helstrom_success", es.helstrom_success,
        {"p1": 0.5, "rho1": np.diag([1.0, 0.0]), "p2": 0.5, "rho2": _MIXED}, {
        "nan": ("rho1", [[0.5, 0.0], [0.0, NAN]], "^rho1 has non-finite entries$"),
        "mismatched": ("rho2", np.eye(3) / 3.0, r"^dimension mismatch: \(2, 2\) vs \(3, 3\)$"),
        "nan-prior": ("p1", NAN, "^priors must be nonnegative and sum to 1"),
    }),
    ("helstrom_pure", "helstrom_pure", es.helstrom_pure,
        {"p1": 0.5, "ket1": [1.0, 0.0], "p2": 0.5, "ket2": [0.6, 0.8]}, {
        "unnormalized": ("ket1", [2.0, 0.0], "^ket1 is not normalized"),
        "nan": ("ket1", [NAN, 0.0], "^ket1 has non-finite entries$"),
        "mismatched": ("ket2", [1.0, 0.0, 0.0], r"^dimension mismatch: \(2,\) vs \(3,\)$"),
    }),
    ("classical_correlation", "classical_correlation", es.classical_correlation,
        {"state": _TL_STATE, "measurements": [_SZ, _SX]}, {
        "no-candidates": ("measurements", [], "^measurements must be a non-empty list of 2-dim bases"),
        "mismatched": ("measurements", [MeasurementModel.computational(3)], "^measurements must be a non-empty list"),
    }),
    ("find_deterministic_basis", "find_deterministic_basis", es.find_deterministic_basis,
        {"initial": [0.6, 0.8], "evolution": None, "basis_b": _SZ}, {
        "nan": ("initial", [NAN, 1.0], "^initial state has non-finite entries$"),
        "operator": ("initial", _MIXED, "^the basis search needs a pure initial state$"),
        "qutrit": ("initial", [1.0, 0.0, 0.0], "^the basis search is implemented for qubits$"),
        "nan-evolution": ("evolution", [[1.0, NAN], [0.0, 1.0]], "^evolution has non-finite entries$"),
    }),
    ("chsh_scenarios", "chsh_scenarios", es.chsh_scenarios,
        {"initial": _SINGLET, "angles_a": [0.0, 1.0], "angles_b": [0.5, 1.5]}, {
        "nan-state": ("initial", np.array([0.0, 1.0, NAN, 0.0]), "^initial state has non-finite entries$"),
        "nan-angle": ("angles_a", [0.0, NAN], "^theta has non-finite entries$"),
        "three-angles": ("angles_b", [0.0, 0.5, 1.0], "^two settings per side are required$"),
        "one-angle": ("angles_a", 0.5, "^two settings per side are required$"),
    }),
    ("operator_to_json", "operator_to_json", es.operator_to_json, {"op": np.eye(2)}, {
        "vector": ("op", [1.0, 2.0, 3.0], "^operator must be a square matrix"),
        "nan": ("op", [[1.0, NAN], [0.0, 1.0]], "^operator has non-finite entries$"),
    }),
    ("canonical_dumps", "canonical_dumps", es.canonical_dumps, {"obj": {"x": np.array([0.5, 1.0])}}, {
        "nan": ("obj", {"x": np.array([0.5, NAN])}, "^cannot serialize non-finite float nan$"),
    }),
]

# Names that take no raw array or count: they take only typed objects
# (states, bases, grids, profiles, schedules, decompositions, reports), JSON
# documents or paths (the file rule, pinned by the scenario and serialize
# tests), or are constants, error types and the report records the package
# builds itself.
_TYPED_ONLY = {
    "NumericsError", "ScenarioError", "PAULI_X", "PAULI_Y", "PAULI_Z", "DensityCheck",
    "branching_amplitudes", "survival_probability", "continuum_limit_check",
    "ConditionalDecomposition", "build_sl_instant", "build_tl_instant", "build_sl_fuzzy", "build_tl_fuzzy",
    "build_timed_state", "build_event_state", "check_buildable", "trace_out_timers", "timer_distribution",
    "outcome_probabilities", "conditional_decomposition",
    "WitnessReport", "ChebyshevCheck", "VERDICT_SIGNATURE", "VERDICT_CLEAR", "record_coherence",
    "coherence_witness", "conditional_mean_arrival", "time_correlation", "time_witness", "chebyshev_check",
    "HelstromResult", "PredictionReport", "CorrelationReport", "DeterminismReport", "BasisSearchResult",
    "predict_future_outcome", "determinism_check",
    "TSIRELSON_BOUND", "ChshReport", "event_correlator", "chsh_value",
    "ScenarioFile", "scenario_from_json", "load_scenario", "schema",
    "operator_from_json", "basis_to_json", "basis_from_json", "profile_to_json", "profile_from_json",
    "state_to_json", "state_from_json", "chsh_report_to_json", "save_state", "load_state", "load_json_file",
    "__version__",
}

_BROKEN = [
    pytest.param(fn, {**valid, key: bad}, message, id=f"{row}-{case}")
    for row, _, fn, valid, breaks in _ROWS
    for case, (key, bad, message) in breaks.items()
]


def _finite_result(value) -> bool:
    """False if ``value``, or a number or array field of it, holds a NaN."""
    if dataclasses.is_dataclass(value):
        return all(_finite_result(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return all(map(_finite_result, value))
    if isinstance(value, dict):
        return all(map(_finite_result, value.values()))
    if isinstance(value, (float, complex, np.ndarray)):
        return not np.any(np.isnan(value))
    return True


def test_every_public_name_is_in_the_table_or_takes_only_typed_objects():
    covered = {name for _, name, *_ in _ROWS}
    assert not covered & _TYPED_ONLY
    assert covered | _TYPED_ONLY == set(es.__all__)


@pytest.mark.parametrize("fn, valid", [pytest.param(fn, valid, id=row) for row, _, fn, valid, _ in _ROWS])
def test_the_valid_call_of_each_row_returns_no_nan(fn, valid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _finite_result(fn(**valid))


@pytest.mark.parametrize("fn, kwargs, message", _BROKEN)
def test_a_broken_argument_is_refused_in_the_package_words(fn, kwargs, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message) as info:
            fn(**kwargs)
    raised_in = Path(traceback.extract_tb(info.tb)[-1].filename).resolve()
    assert raised_in.is_relative_to(PACKAGE), f"raised outside the package, in {raised_in}"
