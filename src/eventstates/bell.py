"""Correlators and the CHSH combination for families of event pairs.

The correlator of a record state is the expectation of the product of the
two outcome labels.  Four scenarios sharing one prepared state but measured
in two settings per side combine into the CHSH quantity; for record states
built by this package the quantum bound of 2 sqrt(2) holds regardless of
the causal arrangement of the two events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .event_states import EventScenario, EventState, outcome_probabilities
from .policy import TSIRELSON_SLACK, ScenarioError
from .quantum_core import MeasurementModel

__all__ = [
    "TSIRELSON_BOUND",
    "ChshReport",
    "event_correlator",
    "chsh_value",
    "chsh_scenarios",
]

TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)


def event_correlator(state: EventState) -> float:
    """Expectation of the product of the two recorded outcome labels (detector-space states only)."""
    probs = outcome_probabilities(state)
    return float(state.basis_a.labels @ probs @ state.basis_b.labels)


@dataclass(frozen=True)
class ChshReport:
    """CHSH combination of four correlators.

    ``correlators`` follow the setting order (a, b), (a, b'), (a', b),
    (a', b'); ``value`` is |E1 + E2 + E3 - E4|.
    """

    correlators: np.ndarray
    value: float
    tsirelson_ok: bool


def _check_family(states: Sequence[EventState]) -> None:
    if len(states) != 4:
        raise ScenarioError(f"the CHSH combination needs 4 record states, got {len(states)}")
    kinds = {s.kind for s in states}
    if len(kinds) != 1:
        raise ScenarioError("CHSH settings must share one causal arrangement")
    dims = {s.dims for s in states}
    if len(dims) != 1:
        raise ScenarioError("CHSH settings must share record dimensions")
    for s in states:
        for labels in (s.basis_a.labels, s.basis_b.labels):
            if not np.array_equal(np.sort(labels), [-1.0, 1.0]):
                raise ScenarioError("CHSH needs two-outcome records labeled +1 and -1")


def chsh_value(states: Sequence[EventState]) -> ChshReport:
    """CHSH combination of four two-setting record states.

    States must arrive in the order (a, b), (a, b'), (a', b), (a', b').
    """
    _check_family(states)
    corr = np.array([event_correlator(s) for s in states])
    value = float(abs(corr[0] + corr[1] + corr[2] - corr[3]))
    return ChshReport(
        correlators=corr, value=value, tsirelson_ok=value <= TSIRELSON_BOUND + TSIRELSON_SLACK
    )


def chsh_scenarios(
    initial: np.ndarray,
    angles_a: Sequence[float],
    angles_b: Sequence[float],
) -> list[EventScenario]:
    """Four independent-pair scenarios for CHSH, one per setting combination.

    Angles are polar angles (radians) of measurement axes in the x-z plane,
    two per side; the returned scenarios follow the order (a, b), (a, b'),
    (a', b), (a', b').
    """
    if len(angles_a) != 2 or len(angles_b) != 2:
        raise ScenarioError("two settings per side are required")
    bases_a = [MeasurementModel.from_axis_angle(float(t)) for t in angles_a]
    bases_b = [MeasurementModel.from_axis_angle(float(t)) for t in angles_b]
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return [
        EventScenario(kind="SL", initial=initial, basis_a=bases_a[i], basis_b=bases_b[j])
        for i, j in pairs
    ]
