"""The Picard loop and the carriers' ``canon`` against ``scalar_reference.py``.

``solver.picard_run`` binds its per-step lookups once per run and takes its
first step before the loop; ``Box.canon`` and ``FiniteCarrier.canon``
return a point that is already canonical, and inside, as it is.  The
reference keeps the loop and the conversion as they were.

Covers:
    - traces bit for bit (floats by ``float.hex``, with their types),
      status, limit and d0, on every catalog map at d = 1 and d = 3, on
      finite-table maps, and on scheduled steps at the stop rules' edges
    - overflow, escapes (same index and message) and ``max_iter=1``
    - maps whose images are not canonical, which take canon's slow path
    - canon at the edges of its fast path: value, type, exception class
      and message as before, and no conversion for a canonical point
    - canon refuses a bool or a string as a number, with UsageError
"""

import math

import numpy as np
import pytest

import scalar_reference as ref
from ametric_fix import (
    Box,
    CarrierDomainError,
    FiniteCarrier,
    MapSpec,
    SelfMap,
    StopRule,
    UsageError,
    default_catalog,
    make_absdiff_space,
    make_lifted_space,
    make_map,
    picard_run,
)
from ametric_fix import core
from ametric_fix.sampling import SampleSet
from test_solver import scheduled

SEED = 13

LINE7 = [[float(abs(a - b)) for b in (0, 1, 3, 4, 7, 9, 12)] for a in (0, 1, 3, 4, 7, 9, 12)]


def bits(v):
    """``v`` with its type, every float written by ``float.hex``, recursively."""
    if isinstance(v, float):
        return type(v).__name__, v.hex()
    if isinstance(v, (tuple, list)):
        return type(v).__name__, tuple(map(bits, v))
    return type(v).__name__, v


def outcome(run, *args):
    """A run's whole result: its trace, bit for bit, or its error."""
    try:
        trace = run(*args)
    except CarrierDomainError as err:
        return "escape", err.index, str(err), bits(err.point)
    except UsageError as err:
        return "usage", str(err)
    return ("trace", bits(trace.iterates), bits(trace.steps), trace.status, bits(trace.limit),
            bits(trace.d0), bits(trace.delta), trace.t)


def same_run(space, f, x0, delta, rule):
    """Run both loops; they must agree.  Returns the outcome."""
    got = outcome(picard_run, space, f, x0, delta, rule)
    assert got == outcome(ref.picard_run, space, f, x0, delta, rule)
    return got


RULES = (StopRule(eps=1e-9, max_iter=400), StopRule(eps=1e-12, max_iter=400, bound_eps=1e-6))


def catalog_cases():
    for d in (1, 3):
        for name, spec, _ in default_catalog():
            if d > 1 and spec.kind == "piecewise":  # one-dimensional only
                continue
            if d > 1 and spec.kind == "constant":
                spec = MapSpec.of("constant", value=[0.3, -1.0, 2.0])
            yield pytest.param(d, spec, id=f"{name}-d{d}")


@pytest.mark.parametrize("d, spec", catalog_cases())
def test_catalog_runs_match_the_reference(d, spec):
    space = make_absdiff_space(3, d, box=(-1e6, 1e6))
    f = make_map(spec, space, seed=SEED)
    starts = ((7.0, -90.0, 0.0, 1e5, 3) if d == 1
              else ((7.0, -3.0, 1.5), [1, 2, 3], (0.0, 0.0, 0.0), (-1e5, 0.25, 90.0)))
    statuses = set()
    for x0 in starts:
        for delta in (0.9, 0.0, -1.0):
            for rule in RULES:
                statuses.add(same_run(space, f, x0, delta, rule)[3])
    assert statuses <= {"converged", "max_iter"}


@pytest.mark.parametrize("images", [
    [0, 0, 1, 0, 1, 2, 0],   # the benchmark's table map
    [1, 0, 1, 2, 3, 4, 5],   # 0 and 1 swap forever
    [6, 5, 4, 3, 2, 1, 0],   # an involution with the fixed point 3
    [0, 1, 2, 3, 4, 5, 6],   # every start is fixed
])
def test_finite_table_runs_match_the_reference(images):
    space = make_lifted_space(3, LINE7)
    f = make_map(MapSpec.of("finite-table", images=images), space)
    for x0 in range(7):
        for delta in (0.5, 0.0, -1.0):
            for rule in (StopRule(max_iter=50), StopRule(max_iter=50, bound_eps=0.3)):
                same_run(space, f, x0, delta, rule)


def doubling(n, first=1.0, factor=2.0):
    steps = [first]
    for _ in range(n - 1):
        steps.append(steps[-1] * factor)
    return steps


@pytest.mark.parametrize("steps, delta, rule, expected", [
    # The 11th of 20 growing steps completes the 10-step growth window.
    (doubling(20), -1.0, StopRule(max_iter=20), ("diverged", 11)),
    # Growth counted from the second step on, after a shrinking start.
    ([5.0, 1.0] + doubling(18, first=2.0), -1.0, StopRule(max_iter=20), ("diverged", 12)),
    # A factor of exactly 1 + 1e-9 is not growth.
    (doubling(20, factor=1.0 + 1e-9), -1.0, StopRule(max_iter=20), ("max_iter", 20)),
    (doubling(20, factor=1.0 + 5e-9), -1.0, StopRule(max_iter=20), ("diverged", 11)),
    # One shrinking step resets the window.
    (doubling(9) + [1.0] + doubling(10, first=2.0), -1.0, StopRule(max_iter=20), ("diverged", 20)),
    # A step equal to eps converges.
    ([1.0, 0.5, 0.25, 0.125], 0.5, StopRule(eps=0.25, max_iter=4), ("converged", 3)),
    # A zero first step: x0 is fixed, no steps.
    ([0.0, 1.0], 0.5, StopRule(), ("converged", 0)),
    # A zero step later converges, and is recorded.
    ([1.0, 0.0, 1.0], 0.5, StopRule(), ("converged", 2)),
    # The tail envelope reaching bound_eps, at delta 0.5 and at delta 0.
    ([1.0] * 8, 0.5, StopRule(bound_eps=0.5, max_iter=8), ("converged", 3)),
    ([1.0] * 8, 0.0, StopRule(bound_eps=0.5, max_iter=8), ("converged", 1)),
    # bound_eps without monitoring stops nothing.
    ([1.0] * 8, -1.0, StopRule(bound_eps=0.5, max_iter=8), ("max_iter", 8)),
    # max_iter = 1: one step, recorded.
    ([2.0, 1.0], 0.5, StopRule(max_iter=1), ("max_iter", 1)),
    # Steps that are not finite end the run unrecorded.
    ([math.nan, 1.0], 0.5, StopRule(), ("overflow", 0)),
    ([1.0, math.inf, 1.0], 0.5, StopRule(), ("overflow", 1)),
    ([1.0, 0.5, -math.inf], -1.0, StopRule(), ("overflow", 2)),
])
def test_scheduled_runs_match_the_reference(steps, delta, rule, expected):
    space, f = scheduled(steps)
    got = same_run(space, f, 0, delta, rule)
    assert (got[3], len(got[2][1])) == expected


def test_overflow_and_escapes_match_the_reference():
    s = make_absdiff_space(3, box=(0.0, 1.5e308))
    jumper = SelfMap(kind="jumper", fn=lambda x: 1.5e308 if x < 1.0 else x / 2.0)
    assert same_run(s, jumper, 4.0, 0.5, StopRule())[3] == "overflow"
    assert same_run(s, jumper, 0.0, 0.5, StopRule())[3] == "overflow"
    box = make_absdiff_space(3, box=(0.0, 10.0))
    walker = SelfMap(kind="walker", fn=lambda x: x + 3.0)
    assert same_run(box, walker, 5.0, -1.0, StopRule())[:2] == ("escape", 2)
    assert same_run(box, walker, 9.0, -1.0, StopRule())[:2] == ("escape", 1)
    assert same_run(box, walker, 5.0, -1.0, StopRule(max_iter=1))[3] == "max_iter"
    nan = SelfMap(kind="nan", fn=lambda x: math.nan)
    assert same_run(box, nan, 5.0, -1.0, StopRule())[:2] == ("escape", 1)
    cube = make_absdiff_space(3, 2, box=(0.0, 10.0))
    corner = SelfMap(kind="corner", fn=lambda p: (p[0] / 2.0, p[1] + 3.0))
    assert same_run(cube, corner, (8.0, 2.0), 0.5, StopRule())[:2] == ("escape", 3)
    # A start outside the carrier is refused before any step.
    assert same_run(box, walker, 11.0, -1.0, StopRule())[0] == "escape"


def test_max_iter_one_matches_the_reference():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=0.5), s)
    for x0 in (64.0, 0.0, -3):
        same_run(s, f, x0, 0.5, StopRule(max_iter=1))
        same_run(s, f, x0, 0.5, StopRule(max_iter=1, bound_eps=100.0))


LINE = make_absdiff_space(3, box=(-100.0, 100.0))
CUBE = make_absdiff_space(3, 3, box=(-100.0, 100.0))
TABLE = make_lifted_space(3, LINE7)


@pytest.mark.parametrize("space, fn, x0", [
    (LINE, lambda x: int(x) // 2, 90.0),                          # ints
    (LINE, lambda x: int(x) + 40, 0.0),                           # ints that escape
    (LINE, lambda x: np.float64(x) * 0.5, 90.0),                  # np.float64
    (LINE, lambda x: [x / 2.0], 90.0),                            # 1-element lists
    (LINE, lambda x: (x / 2.0,), 90.0),                           # 1-element tuples
    (LINE, lambda x: [x / 2.0, x], 90.0),                         # lists of the wrong length
    (LINE, lambda x: -0.0 if abs(x) < 1.0 else x / 2.0, 8.0),    # -0.0
    (LINE, lambda x: -(x * 0.5), -0.0),
    (LINE, lambda x: True if x > 1.0 else x / 2.0, 90.0),         # a bool is no number
    (CUBE, lambda p: [c / 2.0 for c in p], (7.0, -3.0, 1.5)),     # lists
    (CUBE, lambda p: tuple(int(c) // 2 for c in p), (70.0, -3.0, 15.0)),    # tuples of ints
    (CUBE, lambda p: tuple(np.float64(c) / 2.0 for c in p), (7.0, -3.0, 1.5)),
    (CUBE, lambda p: (p[0] / 2.0, p[1] / 2.0), (7.0, -3.0, 1.5)),            # too short
    (CUBE, lambda p: 0.5, (7.0, -3.0, 1.5)),                                 # a scalar
    (CUBE, lambda p: (p[0] + 60.0, p[1], p[2]), (7.0, -3.0, 1.5)),           # escapes
    (CUBE, lambda p: (p[0] / 2.0, math.nan, p[2]), (7.0, -3.0, 1.5)),
    (TABLE, lambda i: i > 0, 3),                                  # bools
    (TABLE, lambda i: np.int64(max(i - 1, 0)), 3),                # np.int64
    (TABLE, lambda i: float(max(i - 1, 0)), 3),                   # floats
    (TABLE, lambda i: i + 3, 2),                                  # escapes
    (TABLE, lambda i: i - 3, 2),
], ids=["int", "int-escape", "float64", "list1", "tuple1", "list2", "minus-zero",
        "minus-zero-start", "bool-box", "list-d3", "int-tuple-d3", "float64-d3", "short-d3",
        "scalar-d3", "escape-d3", "nan-d3", "bool-table", "int64-table", "float-table",
        "escape-table", "negative-table"])
def test_runs_with_noncanonical_images_match_the_reference(space, fn, x0):
    f = SelfMap(kind="noncanonical", fn=fn)
    for delta in (0.5, -1.0):
        same_run(space, f, x0, delta, StopRule(max_iter=100))


# canon at the edges of its fast path: the reference converts and checks
# every point, as canon did before the fast path.

def canon_outcome(canon, p):
    try:
        value = canon(p)
    except Exception as err:  # the class is part of the comparison
        return "raise", type(err), str(err), bits(getattr(err, "point", None))
    return "value", bits(value)


def box_points(box):
    """The slack bounds and one float past each, as floats and in the types
    that take the conversion path, and values that fail in every way."""
    lo, hi = box._lo_slack[0], box._hi_slack[0]
    below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return [lo, hi, below, above, math.nan, math.inf, -math.inf, -0.0, 0.0, True, False, 1, -2,
            np.float64(lo), np.float64(hi), np.float64(below), np.float64(above),
            np.float32(0.5), [lo], (hi,), [below], (above,), [0.5, 0.5], (), "0.5", None]


@pytest.mark.parametrize("box", [Box.of(-1.0, 1.0), Box.of(-1e6, 3.0), Box.of(2.5, 7.0)],
                         ids=repr)
def test_box_canon_matches_the_reference_at_d1(box):
    for p in box_points(box):
        assert canon_outcome(box.canon, p) == canon_outcome(lambda q: ref.canon(box, q), p), p


def cube_points(box):
    """Corners at the slack bounds and points one float past them, as tuples
    of floats and in the forms that take the conversion path."""
    lo, hi = box._lo_slack, box._hi_slack
    mid = tuple((a + b) / 2.0 for a, b in zip(box.lo, box.hi))
    below, above = math.nextafter(lo[0], -math.inf), math.nextafter(hi[1], math.inf)
    return [lo, hi, (lo[0], hi[1], mid[2]), (below, mid[1], mid[2]), (mid[0], above, mid[2]),
            (mid[0], mid[1], math.nan), (mid[0], math.inf, mid[2]), (mid[0], -0.0, mid[2]),
            list(lo), list(hi), [below, mid[1], mid[2]], (np.float64(lo[0]), lo[1], lo[2]),
            (lo[0], int(mid[1]), hi[2]), (lo[0], True, mid[2]), (np.float64(0.5), *mid[1:]),
            (below, 0, mid[2]), mid[:2], (*mid, 0.0), mid[0], np.float64(0.5), np.array(mid),
            None, "abc"]


@pytest.mark.parametrize("box", [Box.of(-1.0, 1.0, 3), Box.of((-1.0, 0.0, 2.0), (1.0, 5.0, 3.0))],
                         ids=repr)
def test_box_canon_matches_the_reference_at_d3(box):
    for p in cube_points(box):
        assert canon_outcome(box.canon, p) == canon_outcome(lambda q: ref.canon(box, q), p), p


@pytest.mark.parametrize("p, message", [
    ("0.5", "point must be a real number, got '0.5'"),
    (b"1", "point must be a real number, got b'1'"),
    (bytearray(b"2"), "point must be a real number, got bytearray(b'2')"),
    (True, "point must be a real number, got True"),
    (np.True_, "point must be a real number, got np.True_"),
    (None, "point must be a real number, got None"),
])
def test_box_canon_refuses_bools_and_strings(p, message):
    # float() takes each of these; canon once returned 0.5, 1.0, 2.0, 1.0 and 1.0.
    with pytest.raises(UsageError) as err:
        Box.of(-1.0, 1.0).canon(p)
    assert str(err.value) == message
    with pytest.raises(UsageError) as err:
        Box.of(-1.0, 1.0, 3).canon((0.5, p, 0.5))
    assert str(err.value) == message.replace("point", "point coordinate", 1)


def test_box_canon_keeps_non_finite_values_and_huge_ints_as_escapes():
    # NaN, ±inf and integers beyond the float range lie outside every box:
    # a Picard run that meets one escapes, as before.
    line, cube = Box.of(-1.0, 1.0), Box.of(-1.0, 1.0, 3)
    for p in (math.nan, math.inf, -math.inf, np.float64(math.nan), 10 ** 400, -10 ** 400):
        with pytest.raises(CarrierDomainError, match="outside carrier box"):
            line.canon(p)
        with pytest.raises(CarrierDomainError, match="outside carrier box"):
            cube.canon((0.5, p, 0.5))


class Index(int):
    """An int subclass: an index that takes the conversion path."""


@pytest.mark.parametrize("size", [1, 7])
def test_finite_canon_matches_the_reference(size):
    carrier = FiniteCarrier(size)
    for p in (0, size - 1, size, -1, True, False, np.int64(0), np.int64(size), 0.0, None, "0",
              Index(0), Index(size - 1), Index(size), Index(-1), np.int64(size - 1), np.int32(-1),
              np.uint8(0), np.True_, 2.0, np.float64(0.0), 10 ** 30, -10 ** 30):
        assert (canon_outcome(carrier.canon, p)
                == canon_outcome(lambda q: ref.canon(carrier, q), p)), p


@pytest.mark.parametrize("p", [np.int64(2), np.int32(2), np.uint8(2), Index(2)],
                         ids=repr)
def test_finite_canon_reads_numpy_and_subclass_indices_as_ints(p):
    # The rule of errors.integer, which FiniteCarrier(size) and finite-table
    # images also follow; numpy indices were once refused.
    q = FiniteCarrier(7).canon(p)
    assert type(q) is int and q == 2


@pytest.mark.parametrize("p", [True, np.True_, 2.0, np.float64(2.0), "0", None], ids=repr)
def test_finite_canon_refuses_non_integers_in_one_wording(p):
    with pytest.raises(UsageError) as err:
        FiniteCarrier(7).canon(p)
    assert str(err.value) == f"point must be an integer, got {p!r}"


@pytest.mark.parametrize("p", [-1, 7, np.int64(7), np.int64(-1), 10 ** 30, -10 ** 30], ids=repr)
def test_finite_canon_keeps_indices_outside_as_escapes(p):
    with pytest.raises(CarrierDomainError, match="outside carrier of size 7") as err:
        FiniteCarrier(7).canon(p)
    assert type(err.value.point) is int and err.value.point == p


def test_numpy_indices_enter_at_every_finite_boundary():
    space = make_lifted_space(3, LINE7)
    f = make_map(MapSpec.of("finite-table", images=[0, 0, 1, 2, 3, 4, 5]), space)
    rule = StopRule(eps=1e-9, max_iter=400)
    assert outcome(picard_run, space, f, np.int64(6), 0.5, rule) == outcome(
        picard_run, space, f, 6, 0.5, rule)
    assert all(type(p) is int for p in picard_run(space, f, np.int64(6), 0.5, rule).iterates)
    arr = space.carrier.array([np.int64(1)])
    assert arr.dtype == np.intp and arr.tolist() == [1]
    samples = SampleSet.from_entries(space, [(np.int64(0), 1)])
    assert samples.entries == ((0, 1),) and type(samples.entry(0)[0]) is int


def test_canonical_points_inside_skip_the_conversion(monkeypatch):
    line, cube, table = Box.of(-1.0, 1.0), Box.of(-1.0, 1.0, 3), FiniteCarrier(7)

    def refuse(*args):
        raise AssertionError(f"conversion path taken for {args[0]!r}")

    # Each branch of canon's conversion path starts with an isinstance test,
    # which the fast paths never reach.
    monkeypatch.setattr(core, "isinstance", refuse, raising=False)
    for p in (line._lo_slack[0], line._hi_slack[0], -0.0, 0.5):
        assert line.canon(p) is p
    for p in (cube._lo_slack, cube._hi_slack, (-0.0, 0.5, 0.0)):
        assert cube.canon(p) is p
    for p in (0, 6):
        assert table.canon(p) is p
