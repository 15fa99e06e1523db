"""Space constructions and the self-map catalog.

Covers:
    - absdiff construction at several arities and dimensions
    - the closed-form two-point reduction against the pair-sum reference
    - lifted spaces agreeing with the closed-form space on a shared base
    - the construction gate: structural table defects and law violations
    - map construction, range checking, and the declarative spec round-trip
    - each map kind's array form against its scalar form, bit for bit
    - positive homogeneity of linear maps on the absdiff space
    - ``read_table`` against the entry-by-entry reference: the same array
      bit for bit, or the same error and message
    - the table a lifted space is built from: the array read once, its
      diagonal, and what the lift does with it
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref

from ametric_fix import (
    AMetricSpace,
    Box,
    ConstructionError,
    FiniteCarrier,
    MapSpec,
    UsageError,
    check_axioms,
    axiom_samples,
    evaluate,
    make_absdiff_space,
    make_lifted_space,
    make_map,
    rep_distance,
    table_space,
)
from ametric_fix.sampling import STREAM_GATE, STREAM_MAP_CHECK, SampleSet, _python, philox
from ametric_fix import spaces
from ametric_fix.spaces import default_catalog, pair_lift, read_table

SEED = 77


def test_absdiff_t2_is_plain_metric():
    s = make_absdiff_space(2)
    assert evaluate(s, (3.0, 7.0)) == 4.0
    assert evaluate(s, (-1.5, -1.5)) == 0.0


def test_absdiff_t3_hand_sum():
    s = make_absdiff_space(3)
    assert evaluate(s, (1.0, 2.0, 3.0)) == 4.0


def test_absdiff_t4_d2_all_equal():
    s = make_absdiff_space(4, d=2, box=(-5.0, 5.0))
    assert evaluate(s, ((1.0, -1.0),) * 4) == 0.0


def test_lifted_callable_matches_absdiff():
    t = 3
    closed = make_absdiff_space(t)
    lifted = make_lifted_space(t, lambda x, y: abs(x - y), box=(-100.0, 100.0), seed=SEED)
    rng = philox(SEED, 99)
    pts = closed.carrier.sample(rng, 3 * 50)
    for k in range(50):
        tup = tuple(pts[3 * k: 3 * k + 3])
        assert evaluate(lifted, tup) == evaluate(closed, tup)


@pytest.mark.parametrize("base, got", [
    (lambda x, y: x != y, "True"),
    (lambda x, y: str(min(abs(x - y), 1.0)), "'"),
], ids=["bool", "string"])
def test_lifted_callable_base_values_are_read_as_reals(base, got):
    # float() would read True and "1.0" as 1.0; the gate's first evaluation refuses them.
    with pytest.raises(UsageError, match=f"^a callable base's value must be a real number, got {got}"):
        make_lifted_space(3, base, box=(0.0, 5.0))


@pytest.mark.parametrize("base", [lambda x, y: int(x != y), lambda x, y: np.float64(abs(x - y))],
                         ids=["int", "numpy-float"])
def test_lifted_callable_base_may_return_any_real(base):
    s = make_lifted_space(3, base, box=(0.0, 5.0))
    assert evaluate(s, (0.0, 2.0, 2.0)) == 2.0 * base(0.0, 2.0)


def test_lifted_discrete_metric():
    table = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    s = make_lifted_space(3, table)
    assert evaluate(s, (0, 1, 2)) == 3.0


# A negative or asymmetric entry comes in pairs (i, j) and (j, i): the
# first in row order is named.

def test_lifted_negative_entry_rejected():
    table = [[0.0, -1.0], [-1.0, 0.0]]
    with pytest.raises(ConstructionError) as err:
        make_lifted_space(3, table)
    assert (str(err.value), err.value.witness) == ("base table entry (0,1) is negative", (0, 1))


def test_lifted_asymmetric_rejected():
    for table, first in (([[0.0, 1.0], [2.0, 0.0]], (0, 1)),
                         ([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], (0, 2))):
        with pytest.raises(ConstructionError) as err:
            make_lifted_space(3, table)
        assert str(err.value) == f"base table is asymmetric at ({first[0]},{first[1]})"
        assert err.value.witness == first


def test_lifted_nonzero_diagonal_rejected():
    for table, first in (([[1.0, 1.0], [1.0, 0.0]], 0),
                         ([[0.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 4.0]], 1)):
        with pytest.raises(ConstructionError) as err:
            make_lifted_space(3, table)
        assert str(err.value) == f"base table diagonal entry {first} is nonzero"
        assert err.value.witness == (first, first)


def test_lifted_gate_catches_law_violation():
    # triangle-breaking base: d(0,1) wildly exceeds d(0,2) + d(2,1)
    table = [
        [0.0, 10.0, 1.0],
        [10.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ]
    with pytest.raises(ConstructionError) as err:
        make_lifted_space(3, table)
    assert err.value.witness.law == "simplex"
    # The first of the gate's violations.
    space = table_space(3, table)
    gate = check_axioms(space, axiom_samples(space, spaces._N_GATE, 0, stream=STREAM_GATE))
    assert gate.violations_total > 1 and err.value.witness == gate.violations[0]


def test_lifted_gate_samples_a_box_at_seed_zero_by_default():
    def square(x, y):  # not a metric: its lift breaks the simplex law
        return (x - y) ** 2

    space = pair_lift(3, square, Box.of(-10.0, 10.0), zero_diagonal=False)
    gates = [check_axioms(space, axiom_samples(space, spaces._N_GATE, seed, stream=STREAM_GATE))
             for seed in (0, 1)]
    assert gates[0].violations[0] != gates[1].violations[0]
    with pytest.raises(ConstructionError) as err:
        make_lifted_space(3, square, box=(-10.0, 10.0))
    assert err.value.witness == gates[0].violations[0]


def test_lifted_metric_base_passes_gate():
    # distances of points on a line always lift cleanly
    xs = [0.0, 0.7, 1.9, 3.2]
    table = [[abs(a - b) for b in xs] for a in xs]
    s = make_lifted_space(4, table, seed=SEED)
    assert check_axioms(s, axiom_samples(s, 10, SEED)).passed


def test_lifted_gate_draws_its_own_tuples(monkeypatch):
    # The gate samples on its own stream, so the law check run later on the
    # same seed tests fresh tuples instead of the gate's.
    gated = []
    monkeypatch.setattr(spaces, "check_axioms",
                        lambda space, samples: gated.append(samples) or check_axioms(space, samples))
    s = make_lifted_space(3, lambda x, y: abs(x - y), box=(-10.0, 10.0), seed=5)
    (gate,) = gated
    law = axiom_samples(s, 1000, 5)
    assert len(gate) == 300 + 24 and not gate.exhaustive
    assert not set(gate.entries) & set(law.entries)


def test_make_map_examples():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    assert f(7.0) == 2.0
    ident = make_map(MapSpec.of("identity"), s)
    assert ident(3.25) == 3.25
    unit = make_absdiff_space(3, box=(0.0, 1.0))
    const = make_map(MapSpec.of("constant", value=0.3), unit)
    assert const(0.9) == 0.3


def test_make_map_escape_rejected():
    s = make_absdiff_space(3, box=(0.0, 1.0))
    with pytest.raises(ConstructionError) as err:
        make_map(MapSpec.of("constant", value=5.0), s)
    assert err.value.witness is not None


def test_linear_map_scales_distances():
    s = make_absdiff_space(4)
    f = make_map(MapSpec.of("two-sevenths"), s)
    tup = (7.0, -3.0, 0.5, 21.0)
    image = tuple(f(x) for x in tup)
    assert evaluate(s, image) == pytest.approx((2 / 7) * evaluate(s, tup), rel=1e-14)


def test_piecewise_map():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("piecewise", breakpoints=[0.0],
                            pieces=[[0.4, 0.0], [-0.25, 0.0]]), s)
    assert f(-10.0) == -4.0
    assert f(8.0) == -2.0
    assert f(0.0) == -0.0


def test_piecewise_validation():
    s = make_absdiff_space(3)
    with pytest.raises(UsageError):
        make_map(MapSpec.of("piecewise", breakpoints=[1.0, 0.0],
                            pieces=[[0.1, 0], [0.1, 0], [0.1, 0]]), s)
    with pytest.raises(UsageError, match="^breakpoints must be strictly increasing$"):
        make_map(MapSpec.of("piecewise", breakpoints=[0.5, 0.5],
                            pieces=[[0.1, 0], [0.1, 0], [0.1, 0]]), s)
    with pytest.raises(UsageError, match="^need 2 pieces for 1 breakpoints$"):
        make_map(MapSpec.of("piecewise", breakpoints=[0.0], pieces=[[0.1, 0]]), s)


def test_constructors_default_to_the_spaces_eq_tol():
    default = AMetricSpace(t=2, distance=sum, carrier=FiniteCarrier(2)).eq_tol
    table = [[0.0, 1.0], [1.0, 0.0]]
    for s in (pair_lift(3, spaces._l1_1d, Box.of(0.0, 1.0), zero_diagonal=True),
              make_absdiff_space(3), table_space(3, table), make_lifted_space(3, table)):
        assert s.eq_tol == default == 1e-12


def test_finite_table_map():
    table = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    s = make_lifted_space(3, table)
    f = make_map(MapSpec.of("finite-table", images=[1, 1, 1]), s)
    assert [f(i) for i in range(3)] == [1, 1, 1]
    with pytest.raises(UsageError):
        make_map(MapSpec.of("finite-table", images=[0, 1]), s)
    with pytest.raises(ConstructionError):
        make_map(MapSpec.of("finite-table", images=[3, 3, 3]), s)


def test_map_spec_round_trip():
    spec = MapSpec.of("linear-scale", lam=0.5)
    assert MapSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(UsageError):
        MapSpec.from_dict({"kind": "warp-drive"})


def test_shift_map_keeps_wide_carrier():
    s = make_absdiff_space(3, box=(-1e6, 1e6))
    f = make_map(MapSpec.of("shift", offset=1.0), s, seed=SEED)
    assert f(0.0) == 1.0


def test_d2_componentwise_maps():
    s = make_absdiff_space(3, d=2, box=(-10.0, 10.0))
    f = make_map(MapSpec.of("linear-scale", lam=0.5), s)
    assert f((4.0, -2.0)) == (2.0, -1.0)


def test_catalog_constructs_on_wide_box():
    s = make_absdiff_space(3, box=(-1e6, 1e6))
    for name, spec, _ in default_catalog():
        f = make_map(spec, s, seed=SEED)
        assert f.kind == spec.kind, name


def test_rep_scaling_for_lifted_table():
    xs = [0.0, 1.0, 2.5]
    table = [[abs(a - b) for b in xs] for a in xs]
    s = make_lifted_space(3, table, seed=SEED)
    for i in range(3):
        for j in range(3):
            assert rep_distance(s, i, j) == (s.t - 1) * table[i][j]


LINE_TABLE = [[abs(a - b) for b in (0, 1, 3, 4, 7)] for a in (0, 1, 3, 4, 7)]


def pair_sum_rep(space, x, y):
    """Reference two-point reduction: the pair sum over (x,...,x,y)."""
    return space.distance((x,) * (space.t - 1) + (y,))


def rep_pairs(space, n=40):
    if space.carrier.finite:
        size = space.carrier.size
        return [(i, j) for i in range(size) for j in range(size)]
    pts = space.carrier.sample(philox(SEED, 98), 2 * n)
    return [(pts[2 * k], pts[2 * k + 1]) for k in range(n)] + [(pts[0], pts[0])]


@pytest.mark.parametrize("t", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("table", [
    LINE_TABLE,
    [[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]],  # asymmetric
    [[2.0, 3.0], [5.0, 7.0]],                              # nonzero diagonal
])
def test_closed_form_rep_matches_pair_sum_on_tables(t, table):
    # Integer entries keep every pair sum exact, so the match is bit for bit.
    s = table_space(t, table)
    for x, y in rep_pairs(s):
        assert s.rep_fn(x, y) == pair_sum_rep(s, x, y)


@pytest.mark.parametrize("build", [
    lambda t: make_absdiff_space(t),
    lambda t: make_lifted_space(t, lambda x, y: abs(x - y), box=(-100.0, 100.0), seed=SEED),
], ids=["absdiff", "callable-lift"])
@pytest.mark.parametrize("t", [2, 3])
def test_closed_form_rep_matches_pair_sum_exactly_at_low_arity(build, t):
    s = build(t)
    for x, y in rep_pairs(s):
        assert s.rep_fn(x, y) == pair_sum_rep(s, x, y)


@pytest.mark.parametrize("t", [2, 3, 5, 8])
def test_closed_form_rep_matches_pair_sum_on_callable_with_diagonal(t):
    # Integer-valued base with base(x, x) = 1: the C(t-1, 2) term is exercised.
    s = pair_lift(t, lambda x, y: abs(x - y) + 1.0, Box.of(-8.0, 8.0), zero_diagonal=False)
    for x in range(-8, 9, 3):
        for y in range(-8, 9, 2):
            assert s.rep_fn(float(x), float(y)) == pair_sum_rep(s, float(x), float(y))


@pytest.mark.parametrize("t, d", [(4, 1), (5, 1), (8, 1), (2, 4), (3, 4), (8, 4)])
def test_closed_form_rep_matches_pair_sum_on_absdiff(t, d):
    # Summation order differs from the pair sum, so the last digits may move.
    s = make_absdiff_space(t, d=d)
    for x, y in rep_pairs(s):
        assert s.rep_fn(x, y) == pytest.approx(pair_sum_rep(s, x, y), rel=1e-15 * t)


PIECE_BREAKS = [-40.0, 0.0, 12.5, 99.0]
BOX_MAPS = {
    "two-sevenths": {},
    "linear-scale": {"lam": -0.3},
    "affine": {"alpha": 0.6, "beta": -3.0},
    "constant": {"value": 0.3},
    "identity": {},
    "shift": {"offset": -1.0},
    "piecewise": {"breakpoints": PIECE_BREAKS,
                  "pieces": [[0.1, 1.0], [-0.5, 0.0], [0.3, -2.0], [0.25, 0.5], [-0.2, 0.0]]},
}


def one_d_points():
    """Random points, both zeros, the box ends and every piecewise breakpoint
    exactly, with its neighbouring floats."""
    rng = np.random.default_rng(SEED)
    pts = [0.0, -0.0, -100.0, 100.0] + rng.uniform(-100.0, 100.0, 200).tolist()
    for b in PIECE_BREAKS:
        pts += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
    return pts


def assert_many_matches_fn(f, carrier, points):
    arr = carrier.array(points)
    scalar = np.array([f(p) for p in _python(arr.tolist())])
    array_form = np.asarray(f.many(arr))
    assert array_form.dtype == scalar.dtype and array_form.shape == scalar.shape
    assert array_form.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("kind", sorted(BOX_MAPS))
def test_map_array_form_matches_scalar_form_on_boxes(kind):
    s = make_absdiff_space(3, box=(-100.0, 100.0))
    f = make_map(MapSpec.of(kind, **BOX_MAPS[kind]), make_absdiff_space(3, box=(-1e3, 1e3)))
    assert_many_matches_fn(f, s.carrier, one_d_points())
    if kind != "piecewise":
        params = dict(BOX_MAPS[kind], **({"value": [0.3, -0.0]} if kind == "constant" else {}))
        s2 = make_absdiff_space(3, d=2, box=(-1e3, 1e3))
        f2 = make_map(MapSpec.of(kind, **params), s2)
        pts = one_d_points()
        assert_many_matches_fn(f2, s2.carrier, list(zip(pts, reversed(pts))))


@pytest.mark.parametrize("spec", [
    MapSpec.of("finite-table", images=[2, 0, 0, 1]),
    MapSpec.of("constant", value=3),
    MapSpec.of("identity"),
], ids=lambda spec: spec.kind)
def test_map_array_form_matches_scalar_form_on_finite_carriers(spec):
    s = table_space(3, [[float(abs(a - b)) for b in range(4)] for a in range(4)])
    assert_many_matches_fn(make_map(spec, s), s.carrier, [3, 0, 1, 2, 2, 1, 0, 3])


def test_two_sevenths_is_finite_up_to_the_largest_float():
    huge = [2.0 ** 1023, 1e308, sys.float_info.max, math.nextafter(2.0 ** 1023, 0.0)]
    xs = np.array(huge + [-x for x in huge])
    # A box holding both ends of the float range has a width that overflows
    # and is rejected; the map reads only the box's dimension.
    s = make_absdiff_space(3, box=(0.0, sys.float_info.max))
    fn, many = spaces._build_fn(MapSpec.of("two-sevenths"), s)
    scalar = np.array([fn(x) for x in xs.tolist()])
    assert np.all(np.isfinite(scalar))
    assert many(xs).tobytes() == scalar.tobytes()
    # Below 2**1023 the value is 2x/7 as it always was.
    assert scalar[3] == 2.0 * huge[3] / 7.0 and scalar[-1] == -2.0 * huge[3] / 7.0
    assert scalar[1] == 2.0 * (1e308 / 7.0)


def test_make_map_names_the_first_escaping_probe():
    s = make_absdiff_space(3, box=(-1.0, 1.0))
    probes = _python(s.carrier.sample(philox(SEED, STREAM_MAP_CHECK), spaces._N_CHECK).tolist())
    first = next(p for p in probes if p + 0.5 > 1.0 + 1e-12 * 2.0)
    with pytest.raises(ConstructionError) as err:
        make_map(MapSpec.of("shift", offset=0.5), s, seed=SEED)
    assert err.value.witness == first
    assert str(err.value) == f"map 'shift' sends {first!r} outside the carrier"


@pytest.mark.parametrize("images, first", [([0, 1, 9, -1], 2), ([0, 10 ** 30, 1, 1], 1)])
def test_make_map_rejects_table_images_outside_the_carrier(images, first):
    s = table_space(3, [[float(abs(a - b)) for b in range(4)] for a in range(4)])
    with pytest.raises(ConstructionError) as err:
        make_map(MapSpec.of("finite-table", images=images), s)
    assert err.value.witness == first


# read_table against the reference loop: one numpy pass on a table of plain
# ints and floats, the loop otherwise, with one result either way.

# Plain entries, which take the numpy pass, including ints that round when
# converted and one beyond the float range.
PLAIN_ENTRIES = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0, 2 ** 53 + 1, 2 ** 64 + 1, -(2 ** 63) - 1, 3 * 2 ** 1022 + 1,
                     2 ** 1024 - 1]),
)
ODD_ENTRIES = st.sampled_from([
    True, False, np.True_, np.False_, np.float64(0.25), np.float64(-0.0), np.float64(math.nan),
    np.int64(-3), "1", "abc", b"1", None, [1.0], [[0.0]], (), math.nan, math.inf, -math.inf,
    10 ** 400, -10 ** 400,
])
SHAPES = ("lists", "tuples", "ragged", "empty", "row-not-a-list", "not-a-list",
          "float-array", "int-array", "bool-array")


@st.composite
def tables(draw):
    n = draw(st.integers(1, 4))
    entries = PLAIN_ENTRIES if draw(st.booleans()) else st.one_of(PLAIN_ENTRIES, ODD_ENTRIES)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(SHAPES))
    if shape == "tuples":
        return tuple(map(tuple, rows))
    if shape == "ragged":
        i = draw(st.integers(0, n - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0.0]
        return rows
    if shape == "empty":
        return draw(st.sampled_from([[], (), np.zeros((0, 0)), [[]]]))
    if shape == "row-not-a-list":
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, "ab", None, np.zeros(n)]))
        return rows
    if shape == "not-a-list":
        return draw(st.sampled_from([None, 5, 1.5, "ab", np.zeros(n), np.float64(1.0)]))
    floats = st.floats(allow_nan=shape == "float-array", allow_infinity=shape == "float-array")
    kind = {"float-array": floats, "int-array": st.integers(-2 ** 63, 2 ** 63 - 1),
            "bool-array": st.booleans()}.get(shape)
    if kind is not None:
        return np.array(draw(st.lists(kind, min_size=n * n, max_size=n * n))).reshape(n, n)
    return rows


def read_outcome(read, table):
    try:
        arr = read(table, "cfg.json: space.base_table")
    except Exception as err:  # the class is part of the comparison
        return "raise", type(err), str(err)
    return "value", arr.dtype, arr.shape, arr.tobytes()


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(tables())
def test_read_table_matches_the_reference(table):
    assert read_outcome(read_table, table) == read_outcome(ref.read_table, table)


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1]], "base table[1]: expected 2 entries, got 1"),
    ([[0, 1, 2], [1, 0, 2]], "base table[0]: expected 2 entries, got 3"),
    ([[0, True], [True, 0]], "base table[0][1] must be a real number, got True"),
    ([[0, "1"], [1, 0]], "base table[0][1] must be a real number, got '1'"),
    ([[0, 1], [1, 0], [1, 0]], "base table[0]: expected 3 entries, got 2"),
    ([[0, 1], [1, 10 ** 400]], f"base table[1][1] must be finite, got {10 ** 400!r}"),
    (np.array([[0.0, np.nan], [np.nan, 0.0]]), "base table[0][1] must be finite, got nan"),
    (np.array([[False]]), "base table[0][0] must be a real number, got False"),
    (np.zeros(3), "base table: expected a nonempty list of rows"),
    ([], "base table: expected a nonempty list of rows"),
])
def test_read_table_names_the_first_bad_row_or_entry(table, message):
    with pytest.raises(UsageError) as err:
        read_table(table)
    assert str(err.value) == message


def test_read_table_takes_tuples_and_arrays_and_returns_a_new_float_array():
    want = np.array([[0.0, 1.5], [1.5, 0.0]])
    for table in ([[0, 1.5], [1.5, 0]], ((0, 1.5), (1.5, 0)), want, [(0.0, 1.5), [1.5, -0.0]],
                  [[np.int64(0), np.float64(1.5)], [1.5, 0]]):
        got = read_table(table)
        assert got.dtype == float and np.array_equal(got, want) and got is not table
        assert not got.flags.writeable and not np.shares_memory(got, want)
    assert read_table(np.array([[0, 2], [2, 0]])).tolist() == [[0.0, 2.0], [2.0, 0.0]]


def test_lifted_spaces_read_their_table_once(monkeypatch):
    reads = []
    monkeypatch.setattr(spaces, "read_table", lambda *a: reads.append(a) or read_table(*a))
    make_lifted_space(3, [[0, 1], [1, 0]])
    assert len(reads) == 1
    table_space(3, [[0, 1], [1, 0]])
    assert len(reads) == 2


@pytest.mark.parametrize("diagonal, off, zero", [
    ((0.0, -0.0, 0), 1.0, True), ((0.0, 0.0, 0.5), 1.0, False), ((-1e-300, 0.0, 0.0), 1.0, False),
    ((0.0, 0.5, 0.0), 0.0, False),  # zeros off the diagonal: only its own entries decide
], ids=["diagonal0-True", "diagonal1-False", "diagonal2-False", "zeros-off-the-diagonal"])
def test_table_space_drops_the_diagonal_term_only_on_a_zero_diagonal(diagonal, off, zero):
    # rep(x, y) = (t-1) base(x, y) + C(t-1, 2) base(x, x): at t = 4 the second
    # term is 3 base(x, x), there unless every diagonal entry is zero (-0.0 too).
    table = [[diagonal[i] if i == j else off for j in range(3)] for i in range(3)]
    s = table_space(4, table)
    for x in range(3):
        assert s.rep_fn(x, (x + 1) % 3) == 3.0 * off + (0.0 if zero else 3 * diagonal[x])
