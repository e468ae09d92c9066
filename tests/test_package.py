"""The package surface: every module's public names, declared once in that module."""

import eventstates
from eventstates import bell, event_states, inference, policy, quantum_core, scenario, serialize, timing, witnesses

MODULES = [policy, quantum_core, timing, event_states, witnesses, inference, bell, scenario, serialize]

# The package-level names of version 0.1.0 before the modules' own lists
# became the only declaration; none may go.
EARLIER_NAMES = """
NumericsError ScenarioError PAULI_X PAULI_Y PAULI_Z MeasurementModel bloch_ket bloch_pair dephase
partial_trace relative_entropy_of_coherence shannon_entropy tensor_product trace_distance
validate_density von_neumann_entropy BranchingSchedule JointTimeDistribution TimeGrid TimingProfile
branching_amplitudes continuum_limit_check delta_conditional delta_profile exponential_conditional
exponential_grid exponential_profile joint_time_distribution survival_probability
ConditionalDecomposition EventScenario EventState EventTiming build_event_state build_sl_fuzzy
build_sl_instant build_timed_state build_tl_fuzzy build_tl_instant conditional_decomposition
outcome_probabilities reconstruct_from_decomposition timer_distribution trace_out_timers
ChebyshevCheck WitnessReport chebyshev_check coherence_witness conditional_mean_arrival
record_coherence time_correlation time_witness BasisSearchResult CorrelationReport DeterminismReport
HelstromResult PredictionReport classical_correlation determinism_check find_deterministic_basis
helstrom_pure helstrom_success predict_future_outcome TSIRELSON_BOUND ChshReport chsh_scenarios
chsh_value event_correlator ScenarioFile load_scenario scenario_from_json basis_from_json
basis_to_json canonical_dumps chsh_report_to_json load_state operator_from_json operator_to_json
profile_from_json profile_to_json save_state state_from_json state_to_json __version__
""".split()
# Names each module already declared public, first exported by the package
# when it began re-exporting the module lists.
ADDED_NAMES = {
    "DensityCheck", "as_operator", "as_ket", "projector", "assert_density", "is_unitary", "assert_unitary",
    "exponential_tail_mass", "branching_amplitude",
    "check_buildable",
    "VERDICT_SIGNATURE", "VERDICT_CLEAR",
    "schema",
    "load_json_file",
}


def test_package_exports_each_module_list_once_in_module_order():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert eventstates.__all__ == expected
    assert len(set(eventstates.__all__)) == len(eventstates.__all__)


def test_every_export_is_its_owning_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(eventstates, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert eventstates.__version__ == "0.1.0"


def test_the_surface_only_grows_by_names_the_modules_declared():
    assert len(EARLIER_NAMES) == len(set(EARLIER_NAMES)) == 84
    assert set(EARLIER_NAMES) <= set(eventstates.__all__)
    assert set(eventstates.__all__) - set(EARLIER_NAMES) == ADDED_NAMES
