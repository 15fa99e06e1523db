"""Space constructions and the self-map catalog.

Covers:
    - absdiff construction at several arities and dimensions
    - the closed-form two-point reduction against the pair-sum reference
    - lifted spaces agreeing with the closed-form space on a shared base
    - the construction gate: structural table defects and law violations
    - map construction, range checking, and the declarative spec round-trip
    - each map kind's array form against its scalar form, bit for bit
    - positive homogeneity of linear maps on the absdiff space
"""

import math
import sys

import numpy as np
import pytest

from ametric_fix import (
    Box,
    ConstructionError,
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
from ametric_fix.sampling import STREAM_MAP_CHECK, SampleSet, philox
from ametric_fix import spaces
from ametric_fix.spaces import default_catalog, pair_lift

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


def test_lifted_discrete_metric():
    table = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    s = make_lifted_space(3, table)
    assert evaluate(s, (0, 1, 2)) == 3.0


def test_lifted_negative_entry_rejected():
    table = [[0.0, -1.0], [-1.0, 0.0]]
    with pytest.raises(ConstructionError) as err:
        make_lifted_space(3, table)
    assert err.value.witness is not None


def test_lifted_asymmetric_rejected():
    with pytest.raises(ConstructionError):
        make_lifted_space(3, [[0.0, 1.0], [2.0, 0.0]])


def test_lifted_nonzero_diagonal_rejected():
    with pytest.raises(ConstructionError):
        make_lifted_space(3, [[1.0, 1.0], [1.0, 0.0]])


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
    with pytest.raises(UsageError):
        make_map(MapSpec.of("piecewise", breakpoints=[0.0], pieces=[[0.1, 0]]), s)


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
    scalar = np.array([f(p) for p in carrier.points(arr)])
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
    s = make_absdiff_space(3, box=(-sys.float_info.max, sys.float_info.max))
    fn, many = spaces._build_fn(MapSpec.of("two-sevenths"), s)
    scalar = np.array([fn(x) for x in xs.tolist()])
    assert np.all(np.isfinite(scalar))
    assert many(xs).tobytes() == scalar.tobytes()
    # Below 2**1023 the value is 2x/7 as it always was.
    assert scalar[3] == 2.0 * huge[3] / 7.0 and scalar[-1] == -2.0 * huge[3] / 7.0
    assert scalar[1] == 2.0 * (1e308 / 7.0)


def test_make_map_names_the_first_escaping_probe():
    s = make_absdiff_space(3, box=(-1.0, 1.0))
    probes = s.carrier.sample(philox(SEED, STREAM_MAP_CHECK), spaces._N_CHECK)
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
