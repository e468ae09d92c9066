"""Round-trips and canonical-form guarantees for the JSON layer."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eventstates import (
    ScenarioError,
    TimeGrid,
    TimingProfile,
    basis_from_json,
    basis_to_json,
    build_sl_fuzzy,
    build_sl_instant,
    build_timed_state,
    build_tl_instant,
    canonical_dumps,
    chsh_report_to_json,
    chsh_scenarios,
    chsh_value,
    load_state,
    operator_from_json,
    operator_to_json,
    profile_from_json,
    profile_to_json,
    save_state,
    state_from_json,
    state_to_json,
)
from eventstates import serialize
from eventstates.serialize import _float_array_text

from helpers import (
    random_basis,
    random_density,
    random_ket,
    random_marginal_profile,
    random_sl_scenario,
    random_timed_sl_scenario,
    random_timed_tl_scenario,
    random_tl_scenario,
    rng_for,
)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=30)
def test_operator_round_trip(seed):
    rng = rng_for(seed)
    op = random_density(rng, int(rng.integers(2, 5)))
    again = operator_from_json(json.loads(canonical_dumps(operator_to_json(op))))
    assert np.allclose(again, op, atol=1e-11)


def test_operator_rejects_mismatched_parts():
    data = operator_to_json(np.eye(2))
    data["im"] = [[0.0]]
    with pytest.raises(ScenarioError, match="shapes differ"):
        operator_from_json(data)
    data = operator_to_json(np.eye(2))
    data["dim"] = 3
    with pytest.raises(ScenarioError, match="does not match"):
        operator_from_json(data)
    with pytest.raises(ScenarioError, match="missing key"):
        operator_from_json({"re": [[1.0]]})


def test_operator_rejects_non_finite_entries():
    data = operator_to_json(np.eye(2))
    data["re"][0][0] = float("nan")
    with pytest.raises(ScenarioError, match="non-finite"):
        operator_from_json(data)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=30)
def test_basis_round_trip(seed):
    rng = rng_for(seed)
    basis = random_basis(rng, int(rng.integers(2, 5)))
    again = basis_from_json(json.loads(canonical_dumps(basis_to_json(basis))))
    assert np.allclose(again.kets, basis.kets, atol=1e-11)
    assert np.array_equal(again.labels, basis.labels)


def test_basis_rejects_non_orthonormal_rows():
    data = basis_to_json(random_basis(rng_for(1), 2))
    data["re"][0] = [2.0, 0.0]
    data["im"][0] = [0.0, 0.0]
    with pytest.raises(ScenarioError):
        basis_from_json(data)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=30)
def test_profile_round_trip(seed):
    rng = rng_for(seed)
    grid = TimeGrid(t0=float(rng.uniform(-2, 2)), dt=float(rng.uniform(0.05, 0.5)), n_bins=6)
    profile = random_marginal_profile(rng, grid)
    again = profile_from_json(json.loads(canonical_dumps(profile_to_json(profile))))
    assert again.kind == "marginal"
    assert again.grid.t0 == pytest.approx(grid.t0, abs=1e-11)
    assert again.grid.dt == pytest.approx(grid.dt, abs=1e-12)
    assert np.allclose(again.amplitudes, profile.amplitudes, atol=1e-9)


def test_profile_rejects_bad_kind_and_grid():
    profile = random_marginal_profile(rng_for(2), TimeGrid(t0=0.0, dt=0.1, n_bins=4))
    data = profile_to_json(profile)
    data["kind"] = "sideways"
    with pytest.raises(ScenarioError):
        profile_from_json(data)
    data = profile_to_json(profile)
    data["dt"] = -0.1
    with pytest.raises(ScenarioError):
        profile_from_json(data)


@given(st.integers(0, 5_000))
@settings(deadline=None, max_examples=20)
def test_state_round_trip_survives_revalidation(seed):
    rng = rng_for(seed)
    if rng.integers(2):
        state = build_tl_instant(random_tl_scenario(rng, mixed=bool(rng.integers(2))))
    else:
        state = build_sl_instant(random_sl_scenario(rng))
    again = state_from_json(json.loads(canonical_dumps(state_to_json(state))))
    assert again.kind == state.kind
    assert again.timers is None
    assert np.allclose(again.rho, state.rho, atol=1e-10)
    assert np.allclose(again.basis_a.kets, state.basis_a.kets, atol=1e-10)


def test_timed_state_round_trip_keeps_the_grid():
    state = build_timed_state(random_timed_tl_scenario(rng_for(4)))
    again = state_from_json(json.loads(canonical_dumps(state_to_json(state))))
    assert again.timers is not None
    assert again.timers.n_bins == state.timers.n_bins
    assert again.timers.dt == pytest.approx(state.timers.dt, abs=1e-12)
    assert np.allclose(again.rho, state.rho, atol=1e-10)


def test_state_json_requires_structural_keys():
    state = build_sl_instant(random_sl_scenario(rng_for(6)))
    data = state_to_json(state)
    data.pop("record_basisB")
    with pytest.raises(ScenarioError, match="record_basisB"):
        state_from_json(data)
    data = state_to_json(state)
    data["kind"] = "diagonal"
    with pytest.raises(ScenarioError, match="kind"):
        state_from_json(data)


def test_state_json_rejects_broken_density():
    state = build_sl_instant(random_sl_scenario(rng_for(7)))
    data = state_to_json(state)
    data["re"][0][0] += 0.5
    with pytest.raises(ValueError):
        state_from_json(data)


def test_canonical_dumps_is_order_insensitive_and_stable():
    payload = {"b": 1.0 / 3.0, "a": [1e-17, 2.5], "flag": True, "name": "x"}
    scrambled = {"name": "x", "flag": True, "a": [1e-17, 2.5], "b": 1.0 / 3.0}
    once = canonical_dumps(payload)
    assert once == canonical_dumps(scrambled)
    assert once == canonical_dumps(json.loads(once))
    assert canonical_dumps({"x": 0.1 + 0.2}) == canonical_dumps({"x": 0.3})


def test_canonical_dumps_rounds_to_twelve_digits():
    text = canonical_dumps({"x": 1.2345678901234567})
    assert text == '{"x":1.23456789012}'
    assert canonical_dumps({"n": np.int64(3), "y": np.float64(2.0)}) == '{"n":3,"y":2.0}'


def test_canonical_dumps_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        canonical_dumps({"x": float("inf")})
    with pytest.raises(TypeError):
        canonical_dumps({"x": object()})


def _rounded_oracle(value):
    """The rounded copy canonical_dumps used to hand to json.dumps."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (np.floating, float)):
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        return float(f"{x:.12g}")
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _rounded_oracle(value.tolist())
    if isinstance(value, dict):
        return {str(k): _rounded_oracle(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded_oracle(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _oracle_dumps(obj):
    return json.dumps(_rounded_oracle(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _outcome(dumps, obj):
    try:
        return dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_payload_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _finite,
    st.text(),
    _finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.lists(_finite, max_size=8),
    hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=4), elements=_finite),
    hnp.arrays(np.int64, hnp.array_shapes(max_dims=2, max_side=4)),
    hnp.arrays(np.bool_, hnp.array_shapes(max_dims=2, max_side=4)),
)
_payloads = st.recursive(
    _payload_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(-3, 3)), inner, max_size=5),
    ),
    max_leaves=25,
)


@given(_payloads)
@settings(deadline=None, max_examples=300)
def test_canonical_dumps_matches_rounded_json_dumps(payload):
    assert canonical_dumps(payload) == _oracle_dumps(payload)


@given(_payloads, st.sampled_from([float("nan"), float("inf"), -float("inf")]), st.integers(0, 3))
@settings(deadline=None, max_examples=150)
def test_canonical_dumps_refuses_non_finite_like_the_rounded_oracle(payload, bad, where):
    # the non-finite value as a scalar, in a float list, in an array, or beside the payload
    carrier = [bad, [1.0, bad], np.array([[0.5, bad]]), {"z": payload, "a": bad}][where]
    for obj in ({"payload": payload, "bad": carrier}, [carrier, payload]):
        expected = _outcome(_oracle_dumps, obj)
        assert isinstance(expected, tuple)
        assert _outcome(canonical_dumps, obj) == expected


def test_canonical_dumps_matches_the_oracle_on_state_payloads():
    rng = rng_for(71)
    states = (
        build_timed_state(random_timed_tl_scenario(rng)),
        build_tl_instant(random_tl_scenario(rng)),
        build_sl_instant(random_sl_scenario(rng)),
        build_sl_fuzzy(random_timed_sl_scenario(rng)),
        build_timed_state(random_timed_tl_scenario(rng, n_bins=8)),
    )
    assert states[-1].rho.shape == (256, 256)
    for state in states:
        payload = state_to_json(state)
        assert canonical_dumps(payload) == _oracle_dumps(payload)


def test_canonical_dumps_refuses_what_the_oracle_refuses():
    for obj in ({"x": 1 + 2j}, [np.bool_(True)], {"k": object()}, [1.0, float("nan"), float("inf")]):
        assert _outcome(canonical_dumps, obj) == _outcome(_oracle_dumps, obj)


def _per_number_array_text(values):
    """The per-number formula _float_array_text must match byte for byte."""
    return "[" + ",".join(repr(float(f"{x:.12g}")) for x in values) + "]"


def _signed(magnitudes):
    return st.tuples(st.booleans(), magnitudes).map(lambda pair: -pair[1] if pair[0] else pair[1])


_row_floats = st.one_of(
    _finite,
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-4, 1e12, 1e16, 1e308]),
    st.integers(-(10**15), 10**15).map(float),
    _signed(st.floats(min_value=5e-324, max_value=2.2250738585072014e-308)),
    _signed(st.floats(min_value=1e-5, max_value=1e-3)),
    _signed(st.floats(min_value=1e11, max_value=1e17)),
    _signed(st.floats(min_value=1e307, max_value=1.7976931348623157e308)),
)


@given(st.lists(_row_floats, min_size=1, max_size=40))
@settings(deadline=None, max_examples=500)
def test_float_array_text_matches_the_per_number_formula(values):
    assert _float_array_text(values) == _per_number_array_text(values)


@given(
    st.lists(_row_floats, max_size=20),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.integers(0, 20),
)
@settings(deadline=None, max_examples=100)
def test_float_array_text_refuses_non_finite(values, bad, where):
    values.insert(where, bad)
    with pytest.raises(ValueError, match="non-finite"):
        _float_array_text(values)


def _per_number_matrix_text(rows):
    return "[" + ",".join(map(_per_number_array_text, rows)) + "]"


# Zero-heavy entries, as in a record state that is block-diagonal in the later record.
_matrix_floats = st.one_of(st.just(0.0), st.just(-0.0), _row_floats)


@st.composite
def _float_matrices(draw):
    width = draw(st.integers(1, 6))
    height = draw(st.integers(1, 12))
    return draw(st.lists(st.lists(_matrix_floats, min_size=width, max_size=width), min_size=height, max_size=height))


@given(_float_matrices(), st.sampled_from([1, 2, 3, 7, serialize._MATRIX_BLOCK]))
@settings(deadline=None, max_examples=400)
def test_float_matrix_text_matches_the_per_number_formula_row_by_row(rows, block):
    # a small block puts several blocks of rows into one small matrix
    with mock.patch.object(serialize, "_MATRIX_BLOCK", block):
        assert canonical_dumps(rows) == _per_number_matrix_text(rows)
        assert canonical_dumps(np.array(rows)) == _per_number_matrix_text(rows)


@pytest.mark.parametrize("shape", [(2 * serialize._MATRIX_BLOCK + 3, 1), (150, 64), (3, 5000)])
def test_float_matrix_text_matches_the_per_number_formula_across_row_blocks(shape):
    rng = rng_for(sum(shape))
    specials = np.array([0.0, -0.0, 5e-324, 1e-4, 1e12, 123456789012345.0, 1e16, -2.5, 3.0])
    values = np.where(rng.random(shape) < 0.8, 0.0, rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, shape))
    picks = rng.random(shape) < 0.1
    values[picks] = rng.choice(specials, size=int(picks.sum()))
    rows = values.tolist()
    assert shape[0] * shape[1] > serialize._MATRIX_BLOCK
    assert canonical_dumps(rows) == _per_number_matrix_text(rows)
    assert canonical_dumps(values) == _per_number_matrix_text(rows)


@given(
    _float_matrices(),
    st.lists(st.sampled_from([float("nan"), float("inf"), -float("inf")]), min_size=1, max_size=3),
    st.data(),
    st.sampled_from([1, 2, serialize._MATRIX_BLOCK]),
)
@settings(deadline=None, max_examples=200)
def test_float_matrix_text_refuses_non_finite_like_the_rounded_oracle(rows, bads, data, block):
    for bad in bads:
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i][data.draw(st.integers(0, len(rows[0]) - 1))] = bad
    expected = _outcome(_oracle_dumps, rows)
    assert isinstance(expected, tuple)
    with mock.patch.object(serialize, "_MATRIX_BLOCK", block):
        assert _outcome(canonical_dumps, rows) == expected
        assert _outcome(canonical_dumps, np.array(rows)) == expected


@given(
    hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=12), elements=_matrix_floats),
    st.sampled_from(["as is", "transposed", "real part of a complex array"]),
    st.sampled_from([1, 3, serialize._MATRIX_BLOCK]),
)
@settings(deadline=None, max_examples=400)
def test_float64_arrays_write_as_their_lists_do(values, layout, block):
    if layout == "transposed":
        values = values.T
    elif layout == "real part of a complex array":
        carrier = np.empty(values.shape, dtype=complex)
        carrier.real, carrier.imag = values, 1.5
        values = carrier.real
    with mock.patch.object(serialize, "_MATRIX_BLOCK", block):
        assert canonical_dumps(values) == canonical_dumps(values.tolist())


def _payload_arrays(payload):
    for key, value in payload.items():
        if key in ("re", "im", "labels"):
            yield value
        elif isinstance(value, dict):
            yield from _payload_arrays(value)


def _basis_fields(basis):
    return basis.kets, basis.labels


def _state_fields(state):
    return state.kind, state.timers, state.rho, *_basis_fields(state.basis_a), *_basis_fields(state.basis_b)


def test_payloads_hold_float64_arrays_that_read_back_as_their_canonical_text():
    # a state read back from canonical text holds only 12-digit floats, which that text keeps exactly
    built = build_timed_state(random_timed_tl_scenario(rng_for(29)))
    state = state_from_json(json.loads(canonical_dumps(state_to_json(built))))
    # unit masses, so that normalizing on reading leaves the amplitudes as they are
    grid = TimeGrid(t0=0.5, dt=0.25, n_bins=4)
    profile = TimingProfile(grid=grid, kind="marginal", amplitudes=np.array([1.0, -1.0j, 1.0j, -1.0]))
    cases = [
        # (writer, reader, value, arrays in its payload, the fields that compare two read values)
        (state_to_json, state_from_json, state, 8, _state_fields),
        (operator_to_json, operator_from_json, state.rho, 2, lambda m: (m,)),
        (basis_to_json, basis_from_json, state.basis_b, 3, _basis_fields),
        (profile_to_json, profile_from_json, profile, 2, lambda p: (p.kind, p.grid, p.amplitudes)),
    ]
    for to_json, from_json, value, n_arrays, fields in cases:
        payload = to_json(value)
        arrays = list(_payload_arrays(payload))
        assert len(arrays) == n_arrays
        for arr in arrays:
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.flags.writeable
        again = fields(from_json(json.loads(canonical_dumps(payload))))
        for mine, theirs in zip(fields(from_json(payload)), again, strict=True):
            assert np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 0.0], [2.0]],
        [[0.0], []],
        [[], []],
        [(1.0, 0.0), (0.0, -0.0)],
        [[1.0, 0.0], (0.0, 2.0)],
        [[1.0, 0], [0.0, 2.0]],
        [[1, 0], [0, 2]],
        [[1.0, False], [0.0, 2.0]],
        [[np.float64(0.5), 0.0], [0.0, -0.0]],
        [[np.float32(0.5), 0.0], [0.0, 1e-17]],
        [[0.0, None], [0.0, 1.0]],
        [[0.0, [1.0]], [0.0, 1.0]],
        ([0.0, -0.0], [1.0, 2.0]),
    ],
)
def test_shapes_off_the_matrix_path_match_the_oracle(rows):
    assert canonical_dumps(rows) == _oracle_dumps(rows)
    assert canonical_dumps({"m": rows}) == _oracle_dumps({"m": rows})


def test_chsh_report_serializes_flat():
    angles = np.radians([0.0, 90.0, 45.0, -45.0])
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    family = [build_sl_instant(s) for s in chsh_scenarios(singlet, angles[:2], angles[2:])]
    data = chsh_report_to_json(chsh_value(family))
    assert sorted(data) == ["E", "S", "tsirelson_ok"]
    assert len(data["E"]) == 4
    assert data["tsirelson_ok"] is True
    assert canonical_dumps(data) == canonical_dumps(data)


def test_save_and_load_state_round_trip(tmp_path):
    state = build_tl_instant(random_tl_scenario(rng_for(9)))
    path = tmp_path / "state.json"
    save_state(str(path), state)
    first = path.read_bytes()
    save_state(str(path), state)
    assert path.read_bytes() == first
    again = load_state(str(path))
    assert np.allclose(again.rho, state.rho, atol=1e-10)


def test_load_state_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_state(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="object"):
        load_state(str(path))
    with pytest.raises(FileNotFoundError):
        load_state(str(tmp_path / "missing.json"))
