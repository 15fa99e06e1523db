"""Arity-t distance spaces: carriers, evaluation, and empirical law checks.

A space is a distance function over t-tuples of points (t >= 2) together
with a carrier describing the point set.  The checks in this module gather
evidence that a space satisfies the three defining laws

    nonneg    A(x1,...,xt) >= 0
    identity  A(x1,...,xt) == 0  iff  x1 == ... == xt
    simplex   A(x1,...,xt) <= sum_i A(xi,...,xi,y)   for every pivot y

together with two derived facts the solver relies on: symmetry of the
two-point reduction A(x,...,x,y) and the pair of triangle-type
inequalities it obeys.  On continuous carriers the checks are sampled
evidence, not proof; small finite carriers are swept exhaustively.

Points are plain Python values owned by the carrier: a float for a
1-dimensional box, a tuple of floats for higher dimensions, an integer
index for finite carriers.  The sweeps hold them as numpy arrays instead:
shape (n,) for a 1-dimensional box, (n, d) above, integer indices on finite
carriers.  Only the carrier classes branch on either format; other code
validates, converts, compares, spreads, draws and maps points through their
methods.  The law checks work on blocks of at most ``BLOCK`` entries, so
their memory does not grow with the sample set.  All comparisons between
distances use an absolute tolerance scaled by the magnitudes involved,
since distances grow with the arity and the coordinate range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence, Union

import numpy as np

from .errors import CarrierDomainError, UsageError
from .sampling import SampleSet

Point = Union[int, float, tuple]

# Slack (relative to the box scale) admitted when testing carrier membership,
# so a boundary iterate is not rejected for one rounding step.
_CONTAIN_SLACK = 1e-12

# Entries (or pairs) one array sweep handles at a time: the sweeps' working
# memory is a few arrays of this length, whatever the sample or trace size.
BLOCK = 4096


def _only(values, cls) -> bool:
    """True when every value is exactly of type ``cls`` (bool is not int)."""
    return set(map(type, values)) <= {cls}


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box carrier in R^d."""

    lo: tuple
    hi: tuple
    scale: float = field(init=False, repr=False, compare=False)
    _lo_slack: tuple = field(init=False, repr=False, compare=False)
    _hi_slack: tuple = field(init=False, repr=False, compare=False)
    finite = False

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise UsageError("box bounds must be nonempty and of equal dimension")
        for a, b in zip(self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise UsageError(f"invalid box bounds [{a}, {b}]")
        scale = max(max(abs(v) for v in self.lo), max(abs(v) for v in self.hi))
        slack = _CONTAIN_SLACK * (1.0 + scale)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_lo_slack", tuple(a - slack for a in self.lo))
        object.__setattr__(self, "_hi_slack", tuple(b + slack for b in self.hi))

    @staticmethod
    def of(lo, hi, d: int = 1) -> "Box":
        """Build a box from scalar or per-coordinate bounds."""
        if d < 1:
            raise UsageError(f"dimension must be >= 1, got {d}")
        lo_t = tuple(float(v) for v in lo) if isinstance(lo, (tuple, list)) else (float(lo),) * d
        hi_t = tuple(float(v) for v in hi) if isinstance(hi, (tuple, list)) else (float(hi),) * d
        return Box(lo_t, hi_t)

    @property
    def d(self) -> int:
        return len(self.lo)

    def canon(self, p) -> Point:
        """Validate membership and return the canonical point value."""
        if len(self.lo) == 1:
            if isinstance(p, (tuple, list)):
                if len(p) != 1:
                    raise UsageError(f"expected a scalar point, got {p!r}")
                p = p[0]
            x = float(p)
            if not (self._lo_slack[0] <= x <= self._hi_slack[0]):
                raise CarrierDomainError(f"point {p!r} outside carrier box", point=p)
            return x
        if not isinstance(p, (tuple, list)) or len(p) != len(self.lo):
            raise UsageError(f"expected a point of dimension {self.d}, got {p!r}")
        x = tuple(float(c) for c in p)
        for c, a, b in zip(x, self._lo_slack, self._hi_slack):
            if not (a <= c <= b):
                raise CarrierDomainError(f"point {p!r} outside carrier box", point=p)
        return x

    def array(self, points) -> np.ndarray:
        """Validated canonical points as one float array, shape (n,) at d = 1, (n, d) above.

        Plain floats (tuples of floats at d > 1), or a float array of that
        shape, inside the box are taken as they are; anything else goes
        through :meth:`canon` point by point (an array as its Python
        points), which raises for the first bad point in order.
        """
        width = () if len(self.lo) == 1 else (len(self.lo),)
        if isinstance(points, np.ndarray) and points.dtype == float and points.shape[1:] == width:
            arr = points
        else:
            pts, arr = list(points), None
            if width:
                plain = (_only(pts, tuple) and set(map(len, pts)) <= set(width)
                         and _only(chain.from_iterable(pts), float))
            else:
                plain = _only(pts, float)
            if plain:
                arr = np.array(pts, dtype=float).reshape((len(pts),) + width)
        if arr is not None:
            if np.all((arr >= self._lo_slack) & (arr <= self._hi_slack)):
                return arr
            pts = self.points(arr)
        return np.array([self.canon(p) for p in pts], dtype=float).reshape((len(pts),) + width)

    def points(self, arr: np.ndarray) -> list:
        """The canonical Python points of an array made by :meth:`array`."""
        if len(self.lo) == 1:
            return arr.tolist()
        return list(map(tuple, arr.tolist()))

    def equal(self, a, b, tol: float):
        """Coordinate-wise equality within ``tol``, of two canonical points or
        elementwise over arrays of them."""
        close = np.abs(np.subtract(a, b)) <= tol
        return close if len(self.lo) == 1 else np.all(close, axis=-1)

    def spread(self, pts: np.ndarray) -> np.ndarray:
        """Largest coordinate-wise gap within each row of an (n, width, ...) point array.

        Per coordinate that is max - min, which rounds to the largest of the
        rounded pairwise gaps, so it equals the pairwise maximum exactly.
        """
        gaps = pts.max(axis=1) - pts.min(axis=1)
        return gaps if len(self.lo) == 1 else gaps.max(axis=-1)

    def sample(self, rng, n: int) -> list:
        """``n`` canonical points drawn uniformly from the box by ``rng``."""
        rows = rng.uniform(self.lo, self.hi, size=(n, len(self.lo))).tolist()
        if len(self.lo) == 1:
            return [row[0] for row in rows]
        return [tuple(row) for row in rows]

    def coords(self, p: Point) -> tuple:
        """The coordinates of a canonical point, as a tuple."""
        return (p,) if len(self.lo) == 1 else p

    def componentwise(self, g: Callable[[float], float]) -> Callable[[Point], Point]:
        """Lift a map of one coordinate to a map of points, applied to each coordinate."""
        if len(self.lo) == 1:
            return g
        return lambda p: tuple(map(g, p))


@dataclass(frozen=True)
class FiniteCarrier:
    """Finite carrier; points are integer indices 0..size-1."""

    size: int
    finite = True

    def __post_init__(self):
        if self.size < 1:
            raise UsageError(f"finite carrier needs at least one point, got {self.size}")

    def canon(self, p) -> int:
        if isinstance(p, bool) or not isinstance(p, int):
            raise UsageError(f"finite-carrier points are integer indices, got {p!r}")
        if not 0 <= p < self.size:
            raise CarrierDomainError(f"index {p} outside carrier of size {self.size}", point=p)
        return p

    def array(self, points) -> np.ndarray:
        """Validated indices as one integer array, from Python ints or an integer
        array; bad points raise as in :meth:`canon`, for the first one in order."""
        if isinstance(points, np.ndarray) and points.dtype.kind == "i" and points.ndim == 1:
            if not len(points) or (0 <= points.min() and points.max() < self.size):
                return points.astype(np.intp, copy=False)
            pts = points.tolist()
        else:
            pts = list(points)
            if pts and _only(pts, int) and 0 <= min(pts) and max(pts) < self.size:
                return np.array(pts, dtype=np.intp)
        return np.array([self.canon(p) for p in pts], dtype=np.intp)

    def points(self, arr: np.ndarray) -> list:
        """The indices of an array made by :meth:`array`, as Python ints."""
        return arr.tolist()

    def equal(self, a, b, tol: float):
        """Index equality, of two points or elementwise over arrays; ``tol`` is ignored."""
        return np.equal(a, b)

    def spread(self, pts: np.ndarray) -> np.ndarray:
        """Per row of an (n, width) index array: 0 if all equal, +inf otherwise
        (indices have no coordinates)."""
        return np.where(np.all(pts == pts[:, :1], axis=1), 0.0, math.inf)

    def sample(self, rng, n: int) -> list:
        """``n`` indices drawn uniformly by ``rng``."""
        return rng.integers(0, self.size, size=n).tolist()

    def coords(self, p: int) -> tuple:
        """The index as a one-coordinate tuple."""
        return (p,)


Carrier = Union[Box, FiniteCarrier]


@dataclass(frozen=True)
class AMetricSpace:
    """An arity-t distance oracle over a carrier.

    ``distance`` receives a tuple of ``t`` canonical points and returns a
    real number.  It is expected (but not trusted) to satisfy the three
    defining laws; :func:`check_axioms` is the instrument for that.

    ``rep_fn`` is the two-point reduction rep(x, y) = A(x,...,x,y) on
    canonical points.  Neither it nor ``distance`` validates its arguments:
    callers canonicalise points where they enter (see :func:`rep_distance`).
    When omitted it evaluates ``distance`` on the full t-tuple.

    ``rep_many(xs, ys)`` and ``distance_many(pts)`` are their array forms,
    over point arrays made by ``carrier.array`` (``pts`` has shape
    (n, t, ...)); each returns a float array of length n with the same
    values the scalar forms give row by row.  When omitted they call the
    scalar forms once per row (see :func:`_looped`).
    """

    t: int
    distance: Callable[[tuple], float]
    carrier: Carrier
    eq_tol: float = 1e-12
    kind: str = "custom"
    rep_fn: Callable[[Point, Point], float] | None = field(default=None, repr=False, compare=False)
    rep_many: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    distance_many: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.t, bool) or not isinstance(self.t, int) or self.t < 2:
            raise UsageError(f"arity must be an integer >= 2, got {self.t!r}")
        if not (math.isfinite(self.eq_tol) and self.eq_tol >= 0):
            raise UsageError(f"eq_tol must be a nonnegative real, got {self.eq_tol!r}")
        if self.rep_fn is None:
            distance, head = self.distance, self.t - 1
            object.__setattr__(self, "rep_fn", lambda x, y: float(distance((x,) * head + (y,))))
        if self.rep_many is None:
            object.__setattr__(self, "rep_many", _looped(self.carrier, self.rep_fn))
        if self.distance_many is None:
            by_row = _looped(self.carrier, lambda *pts: self.distance(pts))
            object.__setattr__(self, "distance_many", lambda pts: by_row(*np.moveaxis(pts, 1, 0)))


def _looped(carrier: Carrier, fn: Callable[..., float]) -> Callable[..., np.ndarray]:
    """Array form of ``fn(p1, ..., pk)``: one Python call per row of k point arrays.

    ``fn`` receives the canonical Python points of each row, the values the
    scalar code would pass it, and its results are stored as float64.
    """
    points = carrier.points

    def many(*arrays: np.ndarray) -> np.ndarray:
        return np.fromiter(map(fn, *map(points, arrays)), dtype=float, count=len(arrays[0]))

    return many


def evaluate(space: AMetricSpace, points: Sequence[Point]) -> float:
    """Apply the space's distance to a full t-tuple of carrier points."""
    pts = tuple(points)
    if len(pts) != space.t:
        raise UsageError(f"expected {space.t} points, got {len(pts)}")
    canon = tuple(space.carrier.canon(p) for p in pts)
    return float(space.distance(canon))


def rep_distance(space: AMetricSpace, x: Point, y: Point) -> float:
    """Two-point reduction: the distance of (x,...,x,y) with x repeated t-1 times."""
    canon = space.carrier.canon
    return space.rep_fn(canon(x), canon(y))


def points_equal(space: AMetricSpace, x: Point, y: Point) -> bool:
    """Coordinate-wise equality within the space's eq_tol (exact on finite carriers)."""
    carrier = space.carrier
    return bool(carrier.equal(carrier.canon(x), carrier.canon(y), space.eq_tol))


def tuple_spread(space: AMetricSpace, points: Sequence[Point]) -> float:
    """Largest coordinate-wise gap over all point pairs of the tuple.

    Finite carriers have no coordinates: the spread is 0 for an all-equal
    tuple and +inf otherwise.
    """
    carrier = space.carrier
    return float(carrier.spread(carrier.array(points)[np.newaxis])[0])


def scaled_tol(base: float, *values: float) -> float:
    """Absolute tolerance grown with the magnitude of the compared values."""
    mag = 0.0
    for v in values:
        a = abs(v)
        if mag < a < math.inf:  # largest finite magnitude; NaN and inf are skipped
            mag = a
    return base * (1.0 + mag)


def scaled_tols(base: float, *values: np.ndarray) -> np.ndarray:
    """:func:`scaled_tol` elementwise over float arrays, with the same skips."""
    mag = np.zeros(np.shape(values[0]))
    for v in values:
        a = np.abs(v)
        mag = np.where((mag < a) & (a < math.inf), a, mag)
    return base * (1.0 + mag)


@dataclass(frozen=True)
class Violation:
    """One failed inequality instance: ``lhs <= rhs + tol`` did not hold."""

    law: str
    witness: tuple
    lhs: float
    rhs: float
    gap: float
    tol: float

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "witness": _json_points(self.witness),
            "lhs": _json_num(self.lhs),
            "rhs": _json_num(self.rhs),
            "gap": _json_num(self.gap),
            "tol": _json_num(self.tol),
        }


@dataclass
class CheckReport:
    """Outcome of one empirical check over a sample set."""

    name: str
    checked: int
    violations: tuple
    violations_total: int
    max_gap: float
    passed: bool
    exhaustive: bool = False
    info: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "exhaustive": self.exhaustive,
            "max_gap": _json_num(self.max_gap),
            "violations_total": self.violations_total,
            "violations": [v.to_dict() for v in self.violations],
            "info": {k: _json_num(v) if isinstance(v, float) else v for k, v in sorted(self.info.items())},
        }


def _json_num(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def _json_points(obj):
    if isinstance(obj, tuple):
        return [_json_points(v) for v in obj]
    return _json_num(obj)


class _Recorder:
    """Accumulates inequality instances and their worst gap."""

    def __init__(self, name: str, max_witnesses: int):
        self.name = name
        self.max_witnesses = max_witnesses
        self.checked = 0
        self.total = 0
        self.max_gap = -math.inf
        self.violations: list[Violation] = []

    def add(self, law: str, witness: tuple, lhs: float, rhs: float, tol: float):
        self.checked += 1
        gap = lhs - rhs
        if gap > self.max_gap:
            self.max_gap = gap
        if gap > tol:
            self.total += 1
            if len(self.violations) < self.max_witnesses:
                self.violations.append(Violation(law, witness, lhs, rhs, gap, tol))

    def add_many(self, witness: Callable[[str, int], tuple], checks: Sequence[tuple]):
        """Record one block of entries, as :meth:`add` called entry by entry would.

        ``checks`` lists ``(law, lhs, rhs, tol, where)`` in the order the
        scalar loop adds them for one entry: lhs, rhs and tol are floats or
        float arrays over the block, and ``where`` masks the entries the law
        applies to (None: all of them).  ``witness(law, i)`` is the witness of
        entry i.  The first violations are kept in scalar order, by entry and
        then by law, and ``max_gap`` gets the value the scalar running maximum
        would, down to the sign of a zero.
        """
        room = max(self.max_witnesses - len(self.violations), 0)
        found, gaps, top = [], [], -math.inf
        for pos, (law, lhs, rhs, tol, where) in enumerate(checks):
            gap = np.subtract(lhs, rhs)
            if where is None:
                where = np.ones(gap.shape, dtype=bool)
            gaps.append((gap, where))
            self.checked += int(np.count_nonzero(where))
            top = max(top, float(np.fmax.reduce(gap, where=where, initial=-math.inf)))
            bad = np.flatnonzero(where & (gap > tol))
            self.total += len(bad)
            found.extend((int(i), pos, law, lhs, rhs, gap, tol) for i in bad[:room])
        if top > self.max_gap:
            if top == 0.0:
                # Tied gaps differ only in the sign of zero: the first one wins.
                i, pos = min((int(np.argmax(zero)), pos) for pos, zero in
                             enumerate(where & (gap == 0.0) for gap, where in gaps) if zero.any())
                top = float(gaps[pos][0][i])
            self.max_gap = top
        found.sort(key=lambda v: v[:2])
        for i, _, law, lhs, rhs, gap, tol in found[:room]:
            self.violations.append(Violation(law, witness(law, i), _item(lhs, i), _item(rhs, i),
                                             float(gap[i]), _item(tol, i)))

    def report(self, exhaustive: bool = False, info: dict | None = None) -> CheckReport:
        return CheckReport(
            name=self.name,
            checked=self.checked,
            violations=tuple(self.violations),
            violations_total=self.total,
            max_gap=self.max_gap if self.checked else 0.0,
            passed=self.total == 0,
            exhaustive=exhaustive,
            info=info or {},
        )


def _item(v, i: int) -> float:
    """Entry i of a float array, or the float itself."""
    return float(v[i]) if np.ndim(v) else float(v)


def _require_entries(samples: SampleSet, width: int, what: str) -> tuple:
    if len(samples) == 0:
        raise UsageError(f"{what} needs a nonempty sample set")
    for entry in samples:
        if not isinstance(entry, tuple) or len(entry) != width:
            raise UsageError(f"{what} expects entries of {width} points, got {entry!r}")
    return samples.entries


def _blocks(carrier: Carrier, entries: tuple):
    """Consecutive blocks of at most BLOCK entries, each with its validated point array.

    The array has shape (len(block), width, ...): the points of every
    entry, turned into canonical form by ``carrier.array``.
    """
    for start in range(0, len(entries), BLOCK):
        block = entries[start:start + BLOCK]
        pts = carrier.array(chain.from_iterable(block))
        yield block, pts.reshape((len(block), -1) + pts.shape[1:])


def check_axioms(space: AMetricSpace, samples: SampleSet, tol: float = 1e-9,
                 max_witnesses: int = 100) -> CheckReport:
    """Evaluate the three defining laws on every sampled (tuple, pivot) entry.

    The identity law is tested in both directions: an all-equal tuple must
    evaluate to ~0, and a ~0 evaluation must come from a near-degenerate
    tuple (exactly degenerate on finite carriers).  Entries are validated
    block by block, as the sweep reaches them; witnesses keep the entry as
    given.
    """
    entries = _require_entries(samples, space.t + 1, "check_axioms")
    rec = _Recorder("axioms", max_witnesses)
    t, carrier, eq_tol = space.t, space.carrier, space.eq_tol
    with np.errstate(invalid="ignore", over="ignore"):
        for block, pts in _blocks(carrier, entries):
            xs, pivot = pts[:, :t], pts[:, t]
            d = space.distance_many(xs)
            te = scaled_tols(tol, d)
            degenerate = np.all(carrier.equal(xs[:, :1], xs[:, 1:], eq_tol), axis=1)
            # identity, reverse direction: zero distance away from the diagonal
            near_zero = ~degenerate & (np.abs(d) <= te)
            # simplex: d <= sum_i rep(x_i, pivot)
            rhs = np.zeros(len(block))
            for i in range(t):
                rhs += space.rep_many(xs[:, i], pivot)
            rec.add_many(lambda law, i: block[i] if law == "simplex" else block[i][:t], (
                ("nonneg", 0.0, d, te, None),
                ("identity", np.abs(d), 0.0, te, degenerate),
                ("identity-reverse", carrier.spread(xs), np.maximum(10.0 * te, eq_tol), 0.0,
                 near_zero),
                ("simplex", d, rhs, scaled_tols(tol, d, rhs), None),
            ))
    return rec.report(exhaustive=samples.exhaustive)


def check_symmetry(space: AMetricSpace, pairs: SampleSet, tol: float = 1e-9,
                   max_witnesses: int = 100) -> CheckReport:
    """Two-point reduction must not depend on argument order."""
    entries = _require_entries(pairs, 2, "check_symmetry")
    rec = _Recorder("symmetry", max_witnesses)
    with np.errstate(invalid="ignore", over="ignore"):
        for block, pts in _blocks(space.carrier, entries):
            x, y = pts[:, 0], pts[:, 1]
            fwd = space.rep_many(x, y)
            bwd = space.rep_many(y, x)
            rec.add_many(lambda law, i: block[i], (
                ("symmetry", np.abs(fwd - bwd), 0.0, scaled_tols(tol, fwd, bwd), None),
            ))
    return rec.report(exhaustive=pairs.exhaustive)


def check_triangle_inequality(space: AMetricSpace, triples: SampleSet, tol: float = 1e-9,
                              max_witnesses: int = 100) -> CheckReport:
    """Both triangle-type forms of the two-point reduction.

    For each sampled (x, y, z):
        rep(x, z) <= (t-1) * rep(x, y) + rep(z, y)
        rep(x, z) <= (t-1) * rep(x, y) + rep(y, z)
    """
    entries = _require_entries(triples, 3, "check_triangle_inequality")
    rec = _Recorder("triangle", max_witnesses)
    tm1, rep = space.t - 1, space.rep_many
    with np.errstate(invalid="ignore", over="ignore"):
        for block, pts in _blocks(space.carrier, entries):
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            lhs = rep(x, z)
            xy = rep(x, y)
            rhs_a = tm1 * xy + rep(z, y)
            rhs_b = tm1 * xy + rep(y, z)
            rec.add_many(lambda law, i: block[i], (
                ("triangle-a", lhs, rhs_a, scaled_tols(tol, lhs, rhs_a), None),
                ("triangle-b", lhs, rhs_b, scaled_tols(tol, lhs, rhs_b), None),
            ))
    return rec.report(exhaustive=triples.exhaustive)
