"""The box and lift kernels against their reference forms in ``scalar_reference.py``.

``Box.sample``, ``Box.equal`` and ``Box.spread`` and the lift's
``distance_many`` run along the long axis of a block, one elementwise pass
per tuple slot or coordinate; the references are the forms they replaced,
which reduce over the short axes (``rng.uniform``, ``max``/``min``/``all``
over an axis, one base call per pair).  Each comparison is on ``tobytes()``,
so every bit of every value must agree, on inputs that include NaN, +-inf,
+-0.0, subnormals and sums that overflow.
"""

import itertools
import math

import numpy as np
import pytest

import scalar_reference as ref
from ametric_fix import Box, make_absdiff_space, table_space
from ametric_fix.sampling import philox
from ametric_fix.spaces import _l1_1d_many, _l1_nd_many

DIMS = [1, 2, 4, 7]
ARITIES = [2, 3, 8]
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -2.5, 5e-324, -5e-324, 1e308, -1e308]
ASYMMETRIC = [[0.0, 1.0, 4.0, 2.5],
              [3.0, 0.0, 1.0, 2.0],
              [0.5, 7.0, 0.0, 1.0],
              [1.0, 1.0, 9.0, 0.0]]
# Zeros of both signs, on and off the diagonal.
SIGNED_ZEROS = [[-0.0, 0.0, 1.0],
                [-0.0, 0.0, -0.0],
                [2.0, -0.0, -0.0]]


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


def same_state(a, b) -> bool:
    """Two generator states (dicts of ints and arrays) are equal."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return type(a) is type(b) and bool(np.array_equal(a, b))


def blocks(d, t, rng, values, n=60):
    """Point blocks of shape (n, t) at d = 1, (n, t, d) above, in three kinds:
    entries from ``values``, uniform draws, and draws with repeated slots."""
    shape = (n, t) if d == 1 else (n, t, d)
    yield rng.choice(values, size=shape)
    drawn = rng.uniform(-100.0, 100.0, size=shape)
    yield drawn
    repeated = drawn.copy()
    repeated[::2, 1:] = repeated[::2, :1]  # all-equal tuples
    repeated[1::3, -1] = repeated[1::3, 0] + 1e-13  # within eq_tol on every coordinate
    yield repeated


BOXES = [
    ((-100.0, 100.0), 1), ((-100.0, 100.0), 2), ((-100.0, 100.0), 4), ((-100.0, 100.0), 7),
    ((0.0, 1.5e308), 1), ((0.0, 1.5e308), 4),
    ((0.0, 1e-320), 1), ((-1e-320, 1e-320), 2),  # subnormal widths
    (((-1.0, 0.0, 5.0, -1e300), (1.0, 1e-300, 6.0, 1e300)), None),  # one width per coordinate
]


@pytest.mark.parametrize("bounds, d", BOXES)
@pytest.mark.parametrize("n", [0, 1, 2700])
def test_sample_draws_the_reference_bits_and_leaves_the_same_state(bounds, d, n):
    box = Box.of(*bounds) if d is None else Box.of(*bounds, d)
    for seed in range(50 if n < 2700 else 5):
        fast, slow = philox(seed, 3), philox(seed, 3)
        assert bits(box.sample(fast, n)) == bits(ref.box_sample(box, slow, n))
        assert same_state(fast.bit_generator.state, slow.bit_generator.state)
        # The next draw from the same generator, as _draw takes it.
        assert bits(box.sample(fast, 7)) == bits(ref.box_sample(box, slow, 7))


@pytest.mark.parametrize("t", ARITIES)
@pytest.mark.parametrize("d", DIMS)
def test_spread_matches_the_reference(t, d):
    box, rng = Box.of(-1.0, 1.0, d), np.random.default_rng(10 * t + d)
    finite = [v for v in SPECIAL if math.isfinite(v)]
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(20):
            for pts in blocks(d, t, rng, finite):
                assert bits(box.spread(pts)) == bits(ref.box_spread(box, pts))
            # NaN and inf coordinates: every value, and where the NaNs are,
            # agree.  The sign bit of a NaN is left out: numpy's own axis
            # reduction returns a NaN of either sign, by its place in the
            # row, so it never was a defined output.  Box points are finite.
            pts = next(blocks(d, t, rng, SPECIAL))
            fast, slow = box.spread(pts), ref.box_spread(box, pts)
            assert bits(np.where(np.isnan(fast), math.nan, fast)) == \
                bits(np.where(np.isnan(slow), math.nan, slow))


def test_spread_of_a_nan_coordinate_is_nan():
    box = Box.of(-1.0, 1.0, 2)
    pts = np.array([[[0.0, math.nan], [1.0, 0.0]], [[0.0, 0.0], [math.nan, 1.0]]])
    with np.errstate(invalid="ignore"):
        assert np.isnan(box.spread(pts)).all()
        assert np.isnan(ref.box_spread(box, pts)).all()


@pytest.mark.parametrize("t", ARITIES)
@pytest.mark.parametrize("d", DIMS)
def test_equal_matches_the_reference(t, d):
    box, rng = Box.of(-1.0, 1.0, d), np.random.default_rng(20 * t + d)
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(20):
            for pts in blocks(d, t, rng, SPECIAL):
                for tol in (0.0, 1e-12, 1.0, math.inf, math.nan):
                    # As _axiom_laws compares each tuple's first point with the others.
                    assert bits(box.equal(pts[:, :1], pts[:, 1:], tol)) == \
                        bits(ref.box_equal(box, pts[:, :1], pts[:, 1:], tol))
                    assert bits(box.equal(pts[:, 0], pts[:, -1], tol)) == \
                        bits(ref.box_equal(box, pts[:, 0], pts[:, -1], tol))


@pytest.mark.parametrize("d", DIMS)
def test_equal_of_two_points_matches_the_reference(d):
    box = Box.of(-1.0, 1.0, d)
    values = [0.0, -0.0, 1e-13, 1.0, math.nan, math.inf]
    points = values if d == 1 else [tuple(p) for p in itertools.product(values, repeat=2)]
    for a, b in itertools.product(points, repeat=2):
        if d > 2:
            a, b = a + (0.5,) * (d - 2), b + (0.5,) * (d - 2)
        for tol in (0.0, 1e-12):
            with np.errstate(invalid="ignore", over="ignore"):
                fast, slow = box.equal(a, b, tol), ref.box_equal(box, a, b, tol)
            assert type(fast) is type(slow) and bool(fast) is bool(slow)


@pytest.mark.parametrize("d", [2, 7])
def test_equal_needs_every_coordinate(d):
    # Points that differ in one coordinate only, each coordinate in turn.
    box = Box.of(-1.0, 1.0, d)
    a = np.zeros((d, 3, d))
    for k in range(d):
        a[k, 1:, k] = 0.5
    assert not box.equal(a[:, :1], a[:, 1:], 0.25).any()
    assert box.equal(a[:, :1], a[:, 1:], 0.5).all()


@pytest.mark.parametrize("t", ARITIES)
@pytest.mark.parametrize("d", DIMS)
def test_absdiff_distance_many_matches_the_per_pair_reference(t, d):
    space, rng = make_absdiff_space(t, d), np.random.default_rng(30 * t + d)
    base = _l1_1d_many if d == 1 else ref.l1_nd_many
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(10):
            for pts in blocks(d, t, rng, SPECIAL):
                assert bits(space.distance_many(pts)) == bits(ref.lift_distance_many(base, t, pts))
                # A block's tuples, as check_axioms slices them from (tuple, pivot) entries.
                wide = np.concatenate((pts, pts[:, :1]), axis=1)[:, :t]
                assert bits(space.distance_many(wide)) == bits(ref.lift_distance_many(base, t, wide))


@pytest.mark.parametrize("d", [2, 4, 7])
def test_l1_kernel_matches_the_reference_and_broadcasts(d):
    rng = np.random.default_rng(d)
    xs, ys = rng.choice(SPECIAL, size=(50, d)), rng.choice(SPECIAL, size=(3, 50, d))
    with np.errstate(invalid="ignore", over="ignore"):
        assert bits(_l1_nd_many(xs, ys[0])) == bits(ref.l1_nd_many(xs, ys[0]))
        stacked = np.stack([ref.l1_nd_many(xs, y) for y in ys])
        assert bits(_l1_nd_many(xs, ys)) == bits(stacked)


@pytest.mark.parametrize("table", [ASYMMETRIC, SIGNED_ZEROS], ids=["asymmetric", "signed-zeros"])
@pytest.mark.parametrize("t", ARITIES)
def test_table_distance_many_matches_the_per_pair_reference(table, t):
    space, arr = table_space(t, table), np.array(table)
    rng = np.random.default_rng(t)
    lookup = lambda i, j: arr[i, j]  # noqa: E731
    for order in ("C", "F"):  # the grid sweep hands its tuples over column-major
        pts = np.asarray(rng.integers(0, len(arr), size=(200, t)), order=order)
        pts[::5] = pts[::5, :1]  # all-equal tuples, which pick the diagonal
        assert bits(space.distance_many(pts)) == bits(ref.lift_distance_many(lookup, t, pts))
        # The order of the two points of a pair matters on an asymmetric table.
        assert bits(space.distance_many(pts)) == \
            bits(np.array([space.distance(tuple(row)) for row in pts.tolist()]))

