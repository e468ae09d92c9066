"""The package against the independent oracle in ``perfbench/reference.py``.

That module rebuilds record states, Helstrom and square-root-measurement
values, conditional overlaps and a Bloch-grid scan of the classical
correlation from the textbook formulas, with numpy alone and without
importing eventstates.  It is loaded here by file path and only read.
"""

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventstates import (
    build_sl_instant,
    build_tl_instant,
    classical_correlation,
    determinism_check,
    find_deterministic_basis,
    outcome_probabilities,
    predict_future_outcome,
)
from eventstates.quantum_core import bloch_pair

from helpers import random_basis, random_ket, random_sl_scenario, random_tl_scenario, random_unitary, rng_for

_REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_spec = importlib.util.spec_from_file_location("perfbench_reference", _REFERENCE)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)

_SEEDS = st.integers(0, 100_000)
_DIMS = st.sampled_from([2, 3])


def _random_state(rng, kind, da, db, mixed):
    """A sharp build and its oracle twin: TL measures one da-level system twice."""
    if kind == "TL":
        scenario = random_tl_scenario(rng, da, mixed=mixed)
        oracle = ref.tl_instant(
            scenario.initial_density(), scenario.basis_a.kets, scenario.basis_b.kets, scenario.evolution
        )
        return build_tl_instant(scenario), oracle
    scenario = random_sl_scenario(rng, da, db, mixed=mixed)
    oracle = ref.sl_instant(scenario.initial_density(), scenario.basis_a.kets, scenario.basis_b.kets)
    return build_sl_instant(scenario), oracle


@given(_SEEDS, st.sampled_from(["SL", "TL"]), _DIMS, _DIMS, st.booleans())
@settings(deadline=None, max_examples=40)
def test_builders_and_discrimination_match_the_oracle(seed, kind, da, db, mixed):
    state, oracle = _random_state(rng_for(seed), kind, da, db, mixed)
    np.testing.assert_allclose(state.rho, oracle, rtol=0.0, atol=1e-12)
    da, db = state.dims
    success = predict_future_outcome(state).success
    assert success == pytest.approx(ref.discrimination(oracle, da, db), abs=1e-12)
    if kind == "TL":
        assert determinism_check(state).max_overlap == pytest.approx(ref.max_overlap(oracle, da, db), abs=1e-12)


@given(_SEEDS)
@settings(deadline=None, max_examples=40)
def test_basis_search_residual_is_the_oracle_branch_overlap(seed):
    rng = rng_for(seed)
    psi, u, basis_b = random_ket(rng, 2), random_unitary(rng, 2), random_basis(rng, 2)
    result = find_deterministic_basis(psi, u, basis_b)
    overlap = ref.branch_overlap(bloch_pair(result.theta, result.phi), psi, u, basis_b.kets)
    assert result.residual**2 == pytest.approx(overlap, abs=1e-12)
    assert result.found == (overlap < 1e-8)


@given(_SEEDS, st.sampled_from(["SL", "TL"]), st.booleans())
@settings(deadline=None, max_examples=12)
def test_classical_correlation_meets_the_oracle_scan_and_stays_below_the_second_entropy(seed, kind, mixed):
    state, oracle = _random_state(rng_for(seed), kind, 2, 2, mixed)
    bits = classical_correlation(state).bits
    assert bits >= ref.scan_classical_correlation(oracle) - 1e-9
    assert bits <= ref.vn_entropy(ref.reduced_b(oracle, 2, 2)) + 1e-12


def _mutual_information(p):
    """I(A:B) in bits of a joint distribution p(a, b)."""
    outer = np.outer(p.sum(axis=1), p.sum(axis=0))
    live = p > 0.0
    return float(np.sum(p[live] * np.log2(p[live] / outer[live])))


@given(_SEEDS, st.booleans())
@settings(deadline=None, max_examples=40)
def test_classical_correlation_of_sl_records_is_their_mutual_information(seed, mixed):
    # SL records commute, so the record basis meets the Holevo bound and no search runs
    state, oracle = _random_state(rng_for(seed), "SL", 2, 2, mixed)
    report = classical_correlation(state)
    assert report.bits == pytest.approx(_mutual_information(outcome_probabilities(state)), abs=1e-12)
    assert report.bits >= ref.scan_classical_correlation(oracle) - 1e-12
    np.testing.assert_array_equal(report.basis.kets, np.eye(2))
    np.testing.assert_array_equal(report.basis.labels, state.basis_a.labels)
