"""Concrete space constructions and the self-map catalog.

Every space here is a sum-over-pairs lift of a two-point base metric, built
by :func:`pair_lift`, whose two-point reduction rep is closed-form.  The
pairwise absolute-difference space lifts |x - y| (the l1 gap for d > 1) and
satisfies the defining laws by construction.  Lifted spaces apply the same
recipe to an arbitrary base metric, given either as a finite symmetric
table or as a callable.  Nothing guarantees the simplex law for an
arbitrary base, so :func:`make_lifted_space` is gated on an axiom check and
fails loudly with the offending witness.  :func:`table_space` and
``_lift_table``, which the CLI uses, are not gated; the CLI runs the full
law checks as its first stage instead.

Self-maps are described by declarative ``MapSpec`` values so they can be
round-tripped through CLI configs.  Construction verifies that the map
sends the carrier into itself (exhaustively on finite carriers, on a
seeded sample otherwise).
"""

from __future__ import annotations

import bisect
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .core import AMetricSpace, Box, Carrier, FiniteCarrier, Point, _only, check_axioms
from .errors import CarrierDomainError, ConstructionError, UsageError, finite_real, integer, real
from .sampling import STREAM_GATE, STREAM_MAP_CHECK, _python, axiom_samples, philox

# Axiom tuples the law gate of make_lifted_space samples.
_N_GATE = 300
# Points of a continuous carrier whose images make_map checks.
_N_CHECK = 200


def pair_lift(t: int, base: Callable[[Point, Point], float], carrier: Carrier, *,
              zero_diagonal: bool, base_many: Callable | None = None,
              base_farthest: Callable | None = None, eq_tol: float = 1e-12) -> AMetricSpace:
    """Sum-over-pairs lift of a two-point ``base`` on canonical points.

    A(x_1..x_t) sums base(x_i, x_j) over i < j, so the two-point reduction
    has the closed form

        rep(x, y) = (t-1) * base(x, y) + C(t-1, 2) * base(x, x)

    whose second term is dropped when ``zero_diagonal`` declares that
    base(x, x) == 0 for every x.  ``base`` must return floats.
    ``base_many`` is its array form over point arrays (see
    ``carrier.array``), returning exactly base's values.  It must broadcast
    over leading axes: given x of shape (n, ...) and y of shape (k, n, ...),
    it returns the (k, n) array of base(x[r], y[s, r]).  The lift's
    ``rep_many`` and ``distance_many`` are built from it with the scalar
    forms' order of operations, so both forms agree bit for bit;
    ``distance_many`` makes one call per first slot i, against all the
    slots j > i at once.  Without it the array forms call the scalar ones
    row by row.

    ``base_farthest(pts)`` gives, for each row i of a point array but the
    last, an index j > i where base_many(pts[i], pts[j]) is largest.  For a
    fixed first point, rep rounds to a nondecreasing function of base: a
    positive multiple, plus a term that does not depend on the second
    point.  So the same index maximizes rep_many, and ``base_farthest``
    becomes the space's ``farthest_later``.
    """
    def distance(pts: tuple) -> float:
        total = 0.0
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                total += base(p, q)
        return total

    t = integer(t, "t", 2)
    tm1 = t - 1
    same = tm1 * (tm1 - 1) // 2
    if zero_diagonal:
        def rep(x: Point, y: Point) -> float:
            return tm1 * base(x, y)
    else:
        def rep(x: Point, y: Point) -> float:
            return tm1 * base(x, y) + same * base(x, x)

    rep_many = distance_many = None
    if base_many is not None:
        def rep_many(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
            if zero_diagonal:
                return tm1 * base_many(xs, ys)
            return tm1 * base_many(xs, ys) + same * base_many(xs, xs)

        def distance_many(pts: np.ndarray) -> np.ndarray:
            cols = np.ascontiguousarray(pts.swapaxes(0, 1))  # cols[i]: every tuple's point i
            total = np.zeros(len(pts))
            for i in range(t - 1):
                for row in base_many(cols[i], cols[i + 1:]):  # j = i+1, ..., t-1, in turn
                    total += row
            return total

    return AMetricSpace(t=t, distance=distance, carrier=carrier, eq_tol=eq_tol,
                        rep_fn=rep, rep_many=rep_many, distance_many=distance_many,
                        farthest_later=base_farthest)


def _l1_1d(x: float, y: float) -> float:
    return abs(x - y)


def _l1_nd(x: tuple, y: tuple) -> float:
    total = 0.0
    for a, b in zip(x, y):
        total += abs(a - b)
    return total


def _l1_1d_many(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return np.abs(xs - ys)


def _l1_nd_many(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # Coordinate by coordinate, in _l1_nd's order, so the sums round alike;
    # 0.0 + |a - b| is |a - b|, so the sum starts at the first coordinate.
    total = np.abs(xs[..., 0] - ys[..., 0])
    for k in range(1, xs.shape[-1]):
        total += np.abs(xs[..., k] - ys[..., k])
    return total


def _suffix_arg(xs: np.ndarray, best: np.ufunc) -> np.ndarray:
    """For each i < len(xs) - 1, an index j > i where xs[j] is the ``best``
    (np.maximum or np.minimum) of xs[i+1:]."""
    back = xs[:0:-1]                     # xs[n-1], ..., xs[1]
    run = best.accumulate(back)
    # The last place at or before each position where the running extreme
    # was reached holds that extreme.
    at = np.maximum.accumulate(np.where(back == run, np.arange(len(back)), 0))
    return (len(xs) - 1 - at)[::-1]


def _l1_1d_farthest(xs: np.ndarray) -> np.ndarray:
    # fl(|a - b|) is monotone in b on either side of a, so the farthest
    # later point is the largest or the smallest one.
    hi, lo = _suffix_arg(xs, np.maximum), _suffix_arg(xs, np.minimum)
    head = xs[:-1]
    return np.where(_l1_1d_many(head, xs[hi]) >= _l1_1d_many(head, xs[lo]), hi, lo)


def _box_bounds(box) -> tuple:
    """The (lo, hi) of a ``box`` argument, which must be a pair."""
    try:
        lo, hi = box
    except (TypeError, ValueError):
        raise UsageError(f"box must be a pair (lo, hi), got {box!r}") from None
    return lo, hi


def make_absdiff_space(t: int, d: int = 1, box=(-100.0, 100.0), eq_tol: float = 1e-12) -> AMetricSpace:
    """Pairwise absolute-difference space: sum of |x_i - x_j| over i < j.

    The lift of the l1 gap, which is |x - y| at d = 1.
    """
    carrier = Box.of(*_box_bounds(box), d)
    if carrier.d == 1:
        base, base_many, farthest = _l1_1d, _l1_1d_many, _l1_1d_farthest
    else:
        base, base_many, farthest = _l1_nd, _l1_nd_many, None
    return pair_lift(t, base, carrier, zero_diagonal=True, base_many=base_many,
                     base_farthest=farthest, eq_tol=eq_tol)


def read_table(table, what: str = "base table") -> np.ndarray:
    """A square, nonempty table of finite reals as a new, read-only float array.

    Rows are lists or tuples of equal length, or a 2-d array's rows, and
    each entry is a real by :func:`finite_real`'s rule.  A square int or
    float array of finite values is copied once, and plain int and float
    rows are read in one numpy pass; otherwise entry by entry, so an error
    names the first bad row or entry in row order, prefixed by ``what``.
    """
    if (isinstance(table, np.ndarray) and table.dtype.kind in "iuf" and table.ndim == 2
            and 0 < len(table) == table.shape[1] and np.isfinite(table).all()):
        arr = np.array(table, dtype=float)  # its Python rows would take four times this
        arr.flags.writeable = False
        return arr
    rows = table.tolist() if isinstance(table, np.ndarray) else table
    if not (isinstance(rows, (list, tuple)) and rows
            and all(isinstance(row, (list, tuple)) for row in rows)):
        raise UsageError(f"{what}: expected a nonempty list of rows")
    n = len(rows)
    arr = None
    if all(len(row) == n for row in rows) and _only(chain.from_iterable(rows), int, float):
        with suppress(OverflowError):  # an int beyond the float range
            arr = np.array(rows, dtype=float)
    if arr is None or not np.isfinite(arr).all():
        checked = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise UsageError(f"{what}[{i}]: expected {n} entries, got {len(row)}")
            checked.append([finite_real(v, f"{what}[{i}][{j}]") for j, v in enumerate(row)])
        arr = np.array(checked, dtype=float)
    arr.flags.writeable = False
    return arr


def _lift_table(t: int, table: np.ndarray, eq_tol: float) -> AMetricSpace:
    """The sum-over-pairs space of a :func:`read_table` array, lifted as it is (no copy)."""
    size, flat = len(table), table.ravel()
    return pair_lift(t, table.item, FiniteCarrier(size),
                     zero_diagonal=not flat[::size + 1].any(),
                     base_many=lambda i, j: flat.take(i * size + j), eq_tol=eq_tol)


def table_space(t: int, table, eq_tol: float = 1e-12) -> AMetricSpace:
    """Ungated sum-over-pairs space from a raw table.

    No structural or law checks are performed: this is the entry point for
    running diagnostics against deliberately broken tables.
    """
    return _lift_table(t, read_table(table), eq_tol)


def make_lifted_space(t: int, base, *, box=None, eq_tol: float = 1e-12,
                      seed: int = 0) -> AMetricSpace:
    """Sum-over-pairs lift of a base metric, admitted only after an axiom check.

    ``base`` is either a square table (finite carrier, indices as points) or
    a callable two-argument metric, in which case ``box`` describes the
    carrier and each value is read by :func:`~.errors.real` (a bool or a
    string raises :class:`UsageError`).  Structural defects of a table (negative entry, asymmetry,
    nonzero diagonal) and any law violation found by the gating sweep raise
    :class:`ConstructionError` carrying the witness.  The gate is a library
    entry point only: the CLI lifts its table ungated and runs the full law
    checks as its first stage.
    """
    if callable(base):
        if box is None:
            raise UsageError("a callable base needs an explicit carrier box")
        space = pair_lift(t, lambda x, y: real(base(x, y), "a callable base's value"),
                          Box.of(*_box_bounds(box), 1), zero_diagonal=False, eq_tol=eq_tol)
    else:
        arr = read_table(base)
        for bad, defect in ((arr < 0, "entry ({},{}) is negative"),
                            (arr != arr.T, "is asymmetric at ({},{})"),
                            (np.diag(np.diagonal(arr) != 0), "diagonal entry {} is nonzero")):
            found = np.argwhere(bad)
            if len(found):
                i, j = (int(v) for v in found[0])
                raise ConstructionError("base table " + defect.format(i, j), witness=(i, j))
        space = _lift_table(t, arr, eq_tol)

    gate = check_axioms(space, axiom_samples(space, _N_GATE, seed, stream=STREAM_GATE))
    if not gate.passed:
        first = gate.violations[0]
        raise ConstructionError(
            f"lift violates the {first.law} law at {first.witness!r} "
            f"(gap {first.gap:.3g})",
            witness=first,
        )
    return space


# Map kind -> the names of its parameters.
MAP_PARAMS = {
    "two-sevenths": (),
    "linear-scale": ("lam",),
    "affine": ("alpha", "beta"),
    "constant": ("value",),
    "identity": (),
    "shift": ("offset",),
    "piecewise": ("breakpoints", "pieces"),
    "finite-table": ("images",),
}
MAP_KINDS = tuple(MAP_PARAMS)
_MAP_DEFAULTS = {"shift": {"offset": 1.0}}  # map kind -> its optional parameters' defaults


@dataclass(frozen=True)
class MapSpec:
    """Declarative self-map description, JSON round-trippable, defaults included."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", {**_MAP_DEFAULTS.get(self.kind, {}), **self.params})

    @staticmethod
    def of(kind: str, **params) -> "MapSpec":
        return MapSpec(kind=kind, params=params)

    @staticmethod
    def from_dict(doc: dict) -> "MapSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise UsageError(f"map spec must be an object with a 'kind', got {doc!r}")
        kind = doc["kind"]
        if kind not in MAP_KINDS:
            raise UsageError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
        params = {k: v for k, v in doc.items() if k != "kind"}
        for name in params:
            if name not in MAP_PARAMS[kind]:
                raise UsageError(f"map kind {kind!r} has no parameter {name!r}; "
                                 f"its parameters are {list(MAP_PARAMS[kind])}")
        return MapSpec(kind=kind, params=params)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}


@dataclass(frozen=True)
class SelfMap:
    """A pure endomorphism of a space's carrier.

    ``many(pts)`` is its array form over a point array made by
    ``carrier.array``: the images of the points, equal to ``fn``'s point by
    point and not yet validated, as an array or a list that
    ``carrier.array`` takes.  When omitted it calls ``fn`` once per point
    (see :func:`_looped_map`).
    """

    kind: str
    fn: Callable[[Point], Point]
    many: Callable[[np.ndarray], Sequence] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.many is None:
            object.__setattr__(self, "many", _looped_map(self.fn))

    def __call__(self, p: Point) -> Point:
        return self.fn(p)


def _looped_map(fn: Callable[[Point], Point]) -> Callable[[np.ndarray], list]:
    """Array form of a map without one: ``fn`` on each point of the array.

    ``fn`` receives the plain Python point the scalar code would pass it (a
    row of a 2-d array as a tuple), and its images are returned as given,
    for ``carrier.array`` to validate.
    """
    def many(pts: np.ndarray) -> list:
        return list(map(fn, _python(pts.tolist())))

    return many


def _quiet(g: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """``g`` on arrays, overflowing to inf without a warning, as Python floats do."""
    def many(pts: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return g(pts)

    return many


def _by_coordinate(carrier: Carrier, g: Callable, g_many: Callable | None = None) -> tuple:
    """A map of one coordinate as a map of points, and its array form:
    ``g_many`` (by default ``g``, which numpy applies elementwise) on the
    whole point array."""
    return carrier.componentwise(g), _quiet(g if g_many is None else g_many)


# From this magnitude on, 2x overflows while x/7 does not.
_TWICE_OVERFLOWS = 2.0 ** 1023


def _two_sevenths(x: float) -> float:
    return 2.0 * x / 7.0 if abs(x) < _TWICE_OVERFLOWS else 2.0 * (x / 7.0)


def _two_sevenths_many(xs: np.ndarray) -> np.ndarray:
    return np.where(np.abs(xs) < _TWICE_OVERFLOWS, 2.0 * xs / 7.0, 2.0 * (xs / 7.0))


def _param(spec: MapSpec, name: str):
    if name not in spec.params:
        raise UsageError(f"map kind {spec.kind!r} requires parameter {name!r}")
    return spec.params[name]


def _build_fn(spec: MapSpec, space: AMetricSpace) -> tuple[Callable, Callable]:
    """The map's scalar form and its array form (see :class:`SelfMap`)."""
    kind = spec.kind
    carrier = space.carrier
    finite = carrier.finite
    if kind == "finite-table":
        if not finite:
            raise UsageError("finite-table maps need a finite carrier")
        images = _param(spec, "images")
        size = carrier.size
        if not isinstance(images, (list, tuple)) or len(images) != size:
            raise UsageError(f"finite-table images must be {size} integer indices")
        table = tuple(integer(v, "image", maximum=None) for v in images)
        # An image outside the carrier (which make_map rejects) is stored as
        # `size`: outside too, and within the array's integer type.
        lookup = np.array([v if 0 <= v < size else size for v in table], dtype=np.intp)
        return (lambda p: table[p]), (lambda pts: lookup[pts])
    if finite and kind != "identity" and kind != "constant":
        raise UsageError(f"map kind {kind!r} needs a continuous carrier")
    if kind == "two-sevenths":
        return _by_coordinate(carrier, _two_sevenths, _two_sevenths_many)
    if kind == "linear-scale":
        lam = finite_real(_param(spec, "lam"), "lam")
        return _by_coordinate(carrier, lambda x: lam * x)
    if kind == "affine":
        alpha = finite_real(_param(spec, "alpha"), "alpha")
        beta = finite_real(_param(spec, "beta"), "beta")
        return _by_coordinate(carrier, lambda x: alpha * x + beta)
    if kind == "constant":
        value = _param(spec, "value")
        if finite:
            pt = integer(value, "value")
        elif isinstance(value, (list, tuple)):
            pt = tuple(finite_real(v, "value") for v in value)
        else:
            pt = finite_real(value, "value")
        return (lambda p: pt), (lambda pts: [pt] * len(pts))
    if kind == "identity":
        return (lambda p: p), (lambda pts: pts)
    if kind == "shift":
        offset = finite_real(_param(spec, "offset"), "offset")
        return _by_coordinate(carrier, lambda x: x + offset)
    if kind == "piecewise":
        if carrier.d != 1:
            raise UsageError("piecewise maps are one-dimensional")
        breaks = _param(spec, "breakpoints")
        if not isinstance(breaks, (list, tuple)):
            raise UsageError(f"breakpoints must be a list, got {breaks!r}")
        breaks = [finite_real(v, "breakpoint") for v in breaks]
        pieces = _param(spec, "pieces")
        if not isinstance(pieces, (list, tuple)):
            raise UsageError(f"pieces must be a list, got {pieces!r}")
        if any(b >= c for b, c in zip(breaks, breaks[1:])):
            raise UsageError("breakpoints must be strictly increasing")
        if len(pieces) != len(breaks) + 1:
            raise UsageError(f"need {len(breaks) + 1} pieces for {len(breaks)} breakpoints")
        for piece in pieces:
            if not (isinstance(piece, (list, tuple)) and len(piece) == 2):
                raise UsageError(f"a piece must be [slope, intercept], got {piece!r}")
        coeffs = [(finite_real(p[0], "slope"), finite_real(p[1], "intercept")) for p in pieces]
        cuts = np.array(breaks, dtype=float)
        slopes, intercepts = (np.array(v) for v in zip(*coeffs))

        def piecewise(x: float) -> float:
            a, c = coeffs[bisect.bisect_right(breaks, x)]
            return a * x + c

        def piecewise_many(xs: np.ndarray) -> np.ndarray:
            k = np.searchsorted(cuts, xs, side="right")  # bisect_right, elementwise
            return slopes[k] * xs + intercepts[k]

        return piecewise, _quiet(piecewise_many)
    raise UsageError(f"unknown map kind {kind!r}")


def make_map(spec: MapSpec, space: AMetricSpace, *, seed: int = 0) -> SelfMap:
    """Build the map and verify its image stays inside the carrier.

    Finite carriers are checked exhaustively; continuous ones on a seeded
    sample.  An escaping image raises :class:`ConstructionError` with the
    witness point, the first probe whose image escapes: ``carrier.array`` names
    only the bad image, so a failure replays the probes one by one to find it.
    """
    fn, many = _build_fn(spec, space)
    carrier = space.carrier
    if carrier.finite:
        probes = carrier.array(range(carrier.size))
    else:
        probes = carrier.sample(philox(seed, STREAM_MAP_CHECK), _N_CHECK)
    try:
        carrier.array(many(probes))
    except CarrierDomainError:
        for p in _python(probes.tolist()):
            try:
                carrier.canon(fn(p))
            except CarrierDomainError:
                raise ConstructionError(
                    f"map {spec.kind!r} sends {p!r} outside the carrier", witness=p
                ) from None
        raise
    return SelfMap(kind=spec.kind, fn=fn, many=many)


def default_catalog() -> list[tuple[str, MapSpec, bool]]:
    """Named fixture maps: (name, spec, expected to certify as contractive).

    Intended for a one-dimensional box carrier wide enough that the shift
    map's sampled range check passes, e.g. (-1e6, 1e6).
    """
    return [
        ("two-sevenths", MapSpec.of("two-sevenths"), True),
        ("linear-half", MapSpec.of("linear-scale", lam=0.5), True),
        ("linear-nine-tenths", MapSpec.of("linear-scale", lam=0.9), True),
        ("affine-contraction", MapSpec.of("affine", alpha=0.6, beta=3.0), True),
        ("constant", MapSpec.of("constant", value=0.3), True),
        ("piecewise-contraction",
         MapSpec.of("piecewise", breakpoints=[0.0], pieces=[[0.4, 0.0], [-0.25, 0.0]]), True),
        ("identity", MapSpec.of("identity"), False),
        ("shift", MapSpec.of("shift", offset=1.0), False),
    ]
