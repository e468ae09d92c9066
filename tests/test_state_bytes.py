"""The bytes of state files, pinned.

Each case is the sha256 of ``canonical_dumps(state_to_json(state))``, taken
from the writer before its small-matrix path and the scalar Bloch bases were
added.  The seeded states are made by elementwise arithmetic on integers and
explicit signed zeros, with no BLAS call and no transcendental function, so
their bytes do not depend on the machine.  Between them they hold exact
zeros, ``-0.0``, labels between 1e12 and 1e16, and subnormal entries and
labels, the tokens that the writer formats apart from the rest.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from eventstates import EventState, MeasurementModel, build_event_state, canonical_dumps, scenario_from_json, state_to_json

SUBNORMAL = 4e-320
LARGE = 1234567890123.5  # "%.12g" writes it with an exponent, repr does not


def _digest(state: EventState) -> str:
    return hashlib.sha256(canonical_dumps(state_to_json(state)).encode()).hexdigest()


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _signed_zeros(rng: np.random.Generator, shape) -> np.ndarray:
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


def _basis(rng: np.random.Generator, d: int, labels: list[float]) -> MeasurementModel:
    """A permuted computational basis with phases 1, -1, i, -i, its zeros signed at random."""
    re, im = _signed_zeros(rng, (d, d)), _signed_zeros(rng, (d, d))
    phases = rng.integers(4, size=d)
    for row, (col, phase) in enumerate(zip(rng.permutation(d), phases)):
        (re if phase < 2 else im)[row, col] = 1.0 if phase % 2 == 0 else -1.0
    return MeasurementModel.from_kets(_complex(re, im), labels)


def _labels(rng: np.random.Generator, d: int) -> list[float]:
    specials = [-0.0, LARGE, SUBNORMAL, -2.5e13][:d]
    return specials + [float(x) for x in rng.permutation(np.arange(3, 3 + d - len(specials)))]


def _seeded_state(kind: str, d: int, seed: int) -> EventState:
    """A d x d record state: diagonal for SL, block-diagonal in the second record for TL."""
    rng = np.random.default_rng(seed)
    n = d * d
    weights = rng.integers(0, 5, size=d if kind == "TL" else n).astype(float)
    weights[0] = 0.0
    weights[-1] += 1.0
    probs = weights / weights.sum()
    re, im = _signed_zeros(rng, (n, n)), _signed_zeros(rng, (n, n))
    if kind == "SL":
        re[np.diag_indices(n)] = probs
    else:
        rows = re.reshape(d, d, d, d)
        imag = im.reshape(d, d, d, d)
        for b, p in enumerate(probs):
            vr, vi = rng.integers(-3, 4, size=d).astype(float), rng.integers(-3, 4, size=d).astype(float)
            vr[0] = 1.0
            scale = p / float(vr @ vr + vi @ vi)
            rows[:, b, :, b] = (np.outer(vr, vr) + np.outer(vi, vi)) * scale
            imag[:, b, :, b] = (np.outer(vi, vr) - np.outer(vr, vi)) * scale
    re[0, 1] = re[1, 0] = SUBNORMAL
    return EventState(kind=kind, rho=_complex(re, im), basis_a=_basis(rng, d, _labels(rng, d)), basis_b=_basis(rng, d, _labels(rng, d)))


_DEMOS = {
    "bell_sl.json": "5d767679454660c35e32701ef397d37ee0ed75cd420a500538f935d24c92b373",
    "deterministic_tl.json": "9f5564c5337a10fec74a9874d8e642d9d4e806910b3694374b8cf1aaa5d0ad26",
    "hadamard_tl.json": "a0e9d0520d30f6f332ec0ebd852aae46281949dae799b7814fac1a093adc7789",
}

_SEEDED = {
    ("SL", 2): "afa3bae41409ca0392af97d624e530d940f07441b88604bf6493f5e6265c7bab",
    ("SL", 3): "e6060e741ebc0c535c1f736d7b293c1919cf6ecfaa2025969b1bf69aa2a5633a",
    ("SL", 4): "fa18a2e9fc0bdf5b7d1196ed16efb0b31d41508589f4966e50a9de7aed61d6d0",
    ("SL", 8): "c3e2e4206e9dd290e1c84056befd8e7b4508e58411c2833d87968e285e4304d5",
    ("TL", 2): "93f6433e0f33f23d7598a706693ac9340ca81390423fe109df3833d97decefea",
    ("TL", 3): "640724675be1cfc774ac35f7af36172c6534e5e55e1e3d172c117a0d4dbb49aa",
    ("TL", 4): "1ce1b97be13db4b0dbd52a6d0b86b24c9bcae967897bfaff834c7c6bb631d2df",
    ("TL", 8): "dbd25989938ae12ef76adb7626bf66b1c631b66f6dd4349fb85689d098f3a909",
}


@pytest.mark.parametrize("name", sorted(_DEMOS))
def test_bundled_demo_states_write_the_pinned_bytes(name):
    data = json.loads(resources.files("eventstates").joinpath(f"data/{name}").read_text())
    assert _digest(build_event_state(scenario_from_json(data).scenario)) == _DEMOS[name]


@pytest.mark.parametrize("kind, d", sorted(_SEEDED))
def test_seeded_states_write_the_pinned_bytes(kind, d):
    state = _seeded_state(kind, d, seed=100 * d + len(kind))
    values = np.concatenate([state.rho.real.ravel(), state.rho.imag.ravel(), state.basis_a.labels])
    # the tokens the writer formats apart from the rest are all present
    assert np.any((values == 0.0) & np.signbit(values)) and np.any((values == 0.0) & ~np.signbit(values))
    assert np.any((1e12 < np.abs(values)) & (np.abs(values) < 1e16))
    assert np.any((0.0 < np.abs(values)) & (np.abs(values) < 2.2250738585072014e-308))
    assert _digest(state) == _SEEDED[kind, d]
