"""The checks of values that enter the package from outside.

Covers:
    - ``errors.integer``, ``errors.finite_real`` and ``errors.real``: what
      they take, what they refuse, and their one message wording
    - values the public constructors once took or failed on with a raw
      TypeError: each now raises UsageError
    - NaN and infinite tolerances, step targets and contraction factors,
      which used to pass a check or stop a run silently
    - a ``box`` that is not a pair (lo, hi)
    - a base table that is ragged or not square
    - a property: every public entry point, given a value of any kind in
      any of its count or real slots, as its box, or as an entry of a base
      table, returns or raises UsageError
"""

import contextlib
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ametric_fix import (
    AMetricSpace,
    Box,
    ConstructionError,
    FiniteCarrier,
    MapSpec,
    StopRule,
    UsageError,
    axiom_samples,
    check_axioms,
    check_symmetry,
    check_triangle_inequality,
    compute_delta,
    make_absdiff_space,
    make_lifted_space,
    make_map,
    pair_samples,
    picard_run,
    start_samples,
    table_space,
    tail_bound,
    triple_samples,
    verify_cauchy,
    verify_contraction_inequalities,
    verify_decay,
)
from ametric_fix.errors import finite_real, integer, real

BROKEN_3 = [[0, 5, 1], [5, 0, 1], [1, 1, 0]]  # 5 > 1 + 1: the simplex law fails


def test_integer_takes_python_and_numpy_integers():
    for value in (7, np.int64(7), np.uint8(7)):
        got = integer(value, "n")
        assert got == 7 and type(got) is int
    assert integer(np.uint64(2 ** 64 - 1), "seed", 0, 2 ** 64 - 1) == 2 ** 64 - 1
    assert integer(10 ** 30, "image", maximum=None) == 10 ** 30


@pytest.mark.parametrize("value, message", [
    (True, "n must be an integer, got True"),
    (np.True_, "n must be an integer, got np.True_"),
    (2.5, "n must be an integer, got 2.5"),
    (np.float64(2.0), "n must be an integer, got np.float64(2.0)"),
    ("3", "n must be an integer, got '3'"),
    (None, "n must be an integer, got None"),
    ([1], "n must be an integer, got [1]"),
    (0, "n must be >= 1, got 0"),
    (10 ** 400, f"n must be <= {sys.maxsize}, got {10 ** 400!r}"),
])
def test_integer_refuses(value, message):
    with pytest.raises(UsageError) as err:
        integer(value, "n", 1)
    assert str(err.value) == message


def test_finite_real_takes_integers_and_numpy_reals():
    for value, want in ((2, 2.0), (np.float64(0.25), 0.25), (np.int64(-3), -3.0), (-0.0, -0.0)):
        got = finite_real(value, "x")
        assert type(got) is float and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got == want


@pytest.mark.parametrize("value, message", [
    (True, "x must be a real number, got True"),
    (np.False_, "x must be a real number, got np.False_"),
    ("1.5", "x must be a real number, got '1.5'"),
    (b"1.5", "x must be a real number, got b'1.5'"),
    (bytearray(b"2"), "x must be a real number, got bytearray(b'2')"),
    (None, "x must be a real number, got None"),
    ([1.0], "x must be a real number, got [1.0]"),
    (math.nan, "x must be finite, got nan"),
    (np.float64(math.inf), "x must be finite, got np.float64(inf)"),
    (-math.inf, "x must be finite, got -inf"),
    (10 ** 400, f"x must be finite, got {10 ** 400!r}"),
])
def test_finite_real_refuses(value, message):
    with pytest.raises(UsageError) as err:
        finite_real(value, "x")
    assert str(err.value) == message


def test_real_passes_non_finite_values_and_refuses_what_finite_real_refuses():
    for value, want in ((math.nan, math.nan), (-math.inf, -math.inf), (10 ** 400, math.inf),
                        (-10 ** 400, -math.inf), (np.float64(0.25), 0.25), (3, 3.0)):
        got = real(value, "x")
        assert type(got) is float and (got == want or math.isnan(got) and math.isnan(want))
    for value in (True, np.False_, "1.5", b"1.5", bytearray(b"2"), None, [1.0]):
        with pytest.raises(UsageError, match=r"^x must be a real number, got "):
            real(value, "x")


def test_finite_real_bounds():
    assert finite_real(0, "eq_tol", 0) == 0.0
    with pytest.raises(UsageError, match=r"^eq_tol must be >= 0, got -1e-300$"):
        finite_real(-1e-300, "eq_tol", 0)
    with pytest.raises(UsageError, match=r"^eps must be > 0, got 0\.0$"):
        finite_real(0.0, "eps", 0, strict=True)
    assert finite_real(-2, "tol") == -2.0


@pytest.mark.parametrize("probe", [
    lambda: FiniteCarrier(2.5),
    lambda: FiniteCarrier(True),
    lambda: FiniteCarrier("3"),
    lambda: tail_bound(0.5, 3, True, 1),
    lambda: StopRule(bound_eps=True),
    lambda: StopRule(bound_eps="a"),
    lambda: make_absdiff_space(3, eq_tol=True),
    lambda: pair_samples(make_absdiff_space(3), 2.5, 0),
    lambda: pair_samples(make_absdiff_space(3), 2, 0, stream=-1),
], ids=["size-float", "size-bool", "size-string", "d0-bool", "bound-eps-bool",
        "bound-eps-string", "eq-tol-bool", "n-float", "stream-negative"])
def test_ill_typed_values_raise_usage_error(probe):
    with pytest.raises(UsageError):
        probe()


def _truncated(x, y):
    """min(|x - y|, 1): a metric whose lift passes the law gate on any box."""
    return min(abs(x - y), 1.0)


@pytest.mark.parametrize("box", [(0,), 5, None, (1.0, 2.0, 3.0)])
def test_a_box_that_is_not_a_pair_raises_usage_error(box):
    message = rf"^box must be a pair \(lo, hi\), got {re.escape(repr(box))}$"
    with pytest.raises(UsageError, match=message):
        make_absdiff_space(3, box=box)
    if box is not None:  # a callable base without a box has its own message
        with pytest.raises(UsageError, match=message):
            make_lifted_space(3, _truncated, box=box)


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1]], "base table[1]: expected 2 entries, got 1"),
    ([[0, 1], [1, 0, 1]], "base table[1]: expected 2 entries, got 3"),
    ([[0, 1, 2], [1, 0, 1]], "base table[0]: expected 2 entries, got 3"),
    ([[0, 1]], "base table[0]: expected 1 entries, got 2"),
    (np.zeros((2, 3)), "base table[0]: expected 2 entries, got 3"),
    (np.zeros((2, 2, 2)), "base table[0][0] must be a real number, got [0.0, 0.0]"),
    ([], "base table: expected a nonempty list of rows"),
    ([0.0, 1.0], "base table: expected a nonempty list of rows"),
], ids=["short-row", "long-row", "two-by-three", "one-by-two", "array-2x3", "array-3d", "empty",
        "flat"])
def test_a_ragged_or_non_square_table_raises_usage_error(table, message):
    # numpy once raised its own ValueError on the ragged rows.
    for build in (table_space, make_lifted_space):
        with pytest.raises(UsageError) as err:
            build(3, table)
        assert str(err.value) == message


@pytest.mark.parametrize("field, value", [
    ("eps", math.inf), ("eps", math.nan), ("eps", True), ("eps", "1e-12"),
    ("bound_eps", math.inf), ("bound_eps", math.nan), ("bound_eps", True), ("bound_eps", "1e-6"),
])
def test_stop_rule_refuses_infinite_nan_bool_and_string_targets(field, value):
    # With eps = inf, a run of lam = 0.5 from 64.0 used to stop after one
    # step as "converged", at 32.0.
    space = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=0.5), space)
    with pytest.raises(UsageError, match=field):
        picard_run(space, f, 64.0, 0.5, StopRule(**{field: value}))


def test_check_axioms_refuses_a_nan_tolerance():
    space = table_space(3, BROKEN_3)
    samples = axiom_samples(space, 10, 0)
    assert check_axioms(space, samples, 1e-9).violations_total == 12
    with pytest.raises(UsageError, match="tol must be finite, got nan"):
        check_axioms(space, samples, math.nan)


def test_verify_decay_refuses_a_nan_tolerance():
    # lam = 0.9 steps cannot decay at the forged delta = 0.5.
    space = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=0.9), space)
    trace = picard_run(space, f, 64.0, 0.5, StopRule())
    assert not verify_decay(trace, 1e-9).passed
    with pytest.raises(UsageError, match="tol must be finite, got nan"):
        verify_decay(trace, math.nan)


def test_picard_run_refuses_a_nan_delta():
    # A NaN delta compared false both ways and turned monitoring off.
    space = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=0.5), space)
    with pytest.raises(UsageError, match="delta must be finite, got nan"):
        picard_run(space, f, 64.0, math.nan, StopRule())


def test_negative_tolerances_stay_allowed():
    space = table_space(3, BROKEN_3)
    assert not check_symmetry(space, pair_samples(space, 10, 0), -2).passed


# Every public entry point, each of its count and real slots given one value
# of any kind: it returns or raises UsageError, never another exception.

ODD_VALUES = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, b"1", "0.5"]),
    st.lists(st.one_of(st.integers(-2, 3), st.floats(allow_nan=True)), max_size=3),
    st.sampled_from([np.True_, np.False_, np.int64(3), np.int64(-1), np.uint64(7),
                     np.float64(math.nan), np.float64(0.25), np.float32(-math.inf)]),
    st.integers(-3, 12),
    st.floats(-3.0, 3.0),
)

_LINE = make_absdiff_space(3)
_TABLE = table_space(2, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
_HALF = make_map(MapSpec.of("linear-scale", lam=0.5), _LINE)
_PAIRS = pair_samples(_LINE, 3, 0)
_TRACE = picard_run(_LINE, _HALF, 64.0, 0.5, StopRule(eps=1e-3))
_SAMPLERS = (axiom_samples, pair_samples, triple_samples, start_samples)


def _lifted_entry(v):
    """make_lifted_space on a 2x2 table with ``v`` off the diagonal; a real
    that breaks the metric laws fails the gate, as it should."""
    with contextlib.suppress(ConstructionError):
        make_lifted_space(3, [[0.0, v], [v, 0.0]])


SLOTS = {
    "StopRule.eps": lambda v: StopRule(eps=v),
    "StopRule.max_iter": lambda v: StopRule(max_iter=v),
    "StopRule.bound_eps": lambda v: StopRule(bound_eps=v),
    "Box.of lo": lambda v: Box.of(v, 5.0),
    "Box.of hi": lambda v: Box.of(-5.0, v),
    "Box.of d": lambda v: Box.of(-5.0, 5.0, v),
    "FiniteCarrier.size": FiniteCarrier,
    "AMetricSpace.t": lambda v: AMetricSpace(t=v, distance=sum, carrier=FiniteCarrier(2)),
    "AMetricSpace.eq_tol": lambda v: AMetricSpace(t=2, distance=sum, carrier=FiniteCarrier(2),
                                                  eq_tol=v),
    "make_absdiff_space t": make_absdiff_space,
    "make_absdiff_space d": lambda v: make_absdiff_space(3, v),
    "make_absdiff_space box": lambda v: make_absdiff_space(3, box=(v, 5.0)),
    "make_absdiff_space eq_tol": lambda v: make_absdiff_space(3, eq_tol=v),
    "make_absdiff_space box pair": lambda v: make_absdiff_space(3, box=v),
    "make_lifted_space box pair": lambda v: make_lifted_space(3, _truncated, box=v),
    "table_space t": lambda v: table_space(v, [[0.0, 1.0], [1.0, 0.0]]),
    "table_space base_table entry": lambda v: table_space(3, [[0.0, v], [v, 0.0]]),
    "make_lifted_space base_table entry": _lifted_entry,
    "tail_bound delta": lambda v: tail_bound(v, 3, 1.0, 2),
    "tail_bound t": lambda v: tail_bound(0.5, v, 1.0, 2),
    "tail_bound d0": lambda v: tail_bound(0.5, 3, v, 2),
    "tail_bound n": lambda v: tail_bound(0.5, 3, 1.0, v),
    "compute_delta a": lambda v: compute_delta(v, 0.0, 0.0, 3),
    "compute_delta b": lambda v: compute_delta(0.1, v, 0.0, 3),
    "compute_delta c": lambda v: compute_delta(0.1, 0.0, v, 3),
    "compute_delta t": lambda v: compute_delta(0.1, 0.0, 0.0, v),
    # n on a finite carrier, where the sets are enumerated whatever n is;
    # the seed on a box, where it keys the draws.
    "*_samples n": lambda v: [draw(_TABLE, v, 0) for draw in _SAMPLERS],
    "*_samples seed": lambda v: [draw(_LINE, 2, v) for draw in _SAMPLERS],
    "pair_samples stream": lambda v: pair_samples(_LINE, 2, 0, stream=v),
    "check_axioms tol": lambda v: check_axioms(_TABLE, axiom_samples(_TABLE, 1, 0), v),
    "check_symmetry tol": lambda v: check_symmetry(_LINE, _PAIRS, v),
    "check_triangle_inequality tol": lambda v: check_triangle_inequality(
        _LINE, triple_samples(_LINE, 2, 0), v),
    "verify_decay tol": lambda v: verify_decay(_TRACE, v),
    "verify_cauchy tol": lambda v: verify_cauchy(_TRACE, _LINE, v),
    "verify_contraction_inequalities delta": lambda v: verify_contraction_inequalities(
        _LINE, _HALF, v, _PAIRS),
    "verify_contraction_inequalities tol": lambda v: verify_contraction_inequalities(
        _LINE, _HALF, 0.5, _PAIRS, v),
}


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(ODD_VALUES)
def test_entry_points_return_or_raise_usage_error(value):
    for call in SLOTS.values():
        with contextlib.suppress(UsageError):
            call(value)
