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
index for finite carriers.  Only the carrier classes branch on that format;
other code validates, compares, spreads, draws and maps points through
their methods.  All comparisons between distances use an
absolute tolerance scaled by the magnitudes involved, since distances grow
with the arity and the coordinate range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

from .errors import CarrierDomainError, UsageError
from .sampling import SampleSet

Point = Union[int, float, tuple]

# Slack (relative to the box scale) admitted when testing carrier membership,
# so a boundary iterate is not rejected for one rounding step.
_CONTAIN_SLACK = 1e-12


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

    def equal(self, a: Point, b: Point, tol: float) -> bool:
        """Coordinate-wise equality of canonical points within ``tol``."""
        if len(self.lo) == 1:
            return abs(a - b) <= tol
        return max(abs(p - q) for p, q in zip(a, b)) <= tol

    def spread(self, pts: Sequence[Point]) -> float:
        """Largest coordinate-wise gap over all pairs of canonical points."""
        if len(self.lo) == 1:
            return max(pts) - min(pts)
        return max(
            abs(a - b)
            for i, p in enumerate(pts)
            for q in pts[i + 1:]
            for a, b in zip(p, q)
        )

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

    def equal(self, a: int, b: int, tol: float) -> bool:
        """Index equality; ``tol`` is ignored, finite points are exact."""
        return a == b

    def spread(self, pts: Sequence[int]) -> float:
        """0 for an all-equal tuple, +inf otherwise: indices have no coordinates."""
        return 0.0 if all(p == pts[0] for p in pts) else math.inf

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
    """

    t: int
    distance: Callable[[tuple], float]
    carrier: Carrier
    eq_tol: float = 1e-12
    kind: str = "custom"
    rep_fn: Callable[[Point, Point], float] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.t, bool) or not isinstance(self.t, int) or self.t < 2:
            raise UsageError(f"arity must be an integer >= 2, got {self.t!r}")
        if not (math.isfinite(self.eq_tol) and self.eq_tol >= 0):
            raise UsageError(f"eq_tol must be a nonnegative real, got {self.eq_tol!r}")
        if self.rep_fn is None:
            distance, head = self.distance, self.t - 1
            object.__setattr__(self, "rep_fn", lambda x, y: float(distance((x,) * head + (y,))))


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
    return carrier.equal(carrier.canon(x), carrier.canon(y), space.eq_tol)


def tuple_spread(space: AMetricSpace, points: Sequence[Point]) -> float:
    """Largest coordinate-wise gap over all point pairs of the tuple.

    Finite carriers have no coordinates: the spread is 0 for an all-equal
    tuple and +inf otherwise.
    """
    carrier = space.carrier
    return carrier.spread([carrier.canon(p) for p in points])


def scaled_tol(base: float, *values: float) -> float:
    """Absolute tolerance grown with the magnitude of the compared values."""
    mag = 0.0
    for v in values:
        a = abs(v)
        if mag < a < math.inf:  # largest finite magnitude; NaN and inf are skipped
            mag = a
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
    return obj


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


def _require_entries(samples: SampleSet, width: int, what: str) -> tuple:
    if len(samples) == 0:
        raise UsageError(f"{what} needs a nonempty sample set")
    for entry in samples:
        if not isinstance(entry, tuple) or len(entry) != width:
            raise UsageError(f"{what} expects entries of {width} points, got {entry!r}")
    return samples.entries


def check_axioms(space: AMetricSpace, samples: SampleSet, tol: float = 1e-9,
                 max_witnesses: int = 100) -> CheckReport:
    """Evaluate the three defining laws on every sampled (tuple, pivot) entry.

    The identity law is tested in both directions: an all-equal tuple must
    evaluate to ~0, and a ~0 evaluation must come from a near-degenerate
    tuple (exactly degenerate on finite carriers).  Each entry is validated
    once, as the loop reaches it; witnesses keep the entry as given.
    """
    entries = _require_entries(samples, space.t + 1, "check_axioms")
    rec = _Recorder("axioms", max_witnesses)
    t, carrier, rep, eq_tol = space.t, space.carrier, space.rep_fn, space.eq_tol
    canon, equal = carrier.canon, carrier.equal
    for entry in entries:
        pts = tuple(map(canon, entry))
        xs, pivot, given = pts[:t], pts[t], entry[:t]
        d = float(space.distance(xs))
        te = scaled_tol(tol, d)
        # nonneg: 0 <= d
        rec.add("nonneg", given, 0.0, d, te)
        # identity, forward direction
        degenerate = all(equal(xs[0], p, eq_tol) for p in xs[1:])
        if degenerate:
            rec.add("identity", given, abs(d), 0.0, te)
        elif abs(d) <= te:
            # identity, reverse direction: zero distance away from the diagonal
            spread = carrier.spread(xs)
            bound = max(10.0 * te, eq_tol)
            rec.add("identity-reverse", given, spread, bound, 0.0)
        # simplex: d <= sum_i rep(x_i, pivot)
        rhs = 0.0
        for x in xs:
            rhs += rep(x, pivot)
        rec.add("simplex", entry, d, rhs, scaled_tol(tol, d, rhs))
    return rec.report(exhaustive=samples.exhaustive)


def check_symmetry(space: AMetricSpace, pairs: SampleSet, tol: float = 1e-9,
                   max_witnesses: int = 100) -> CheckReport:
    """Two-point reduction must not depend on argument order."""
    entries = _require_entries(pairs, 2, "check_symmetry")
    rec = _Recorder("symmetry", max_witnesses)
    canon, rep = space.carrier.canon, space.rep_fn
    for entry in entries:
        x, y = canon(entry[0]), canon(entry[1])
        fwd = rep(x, y)
        bwd = rep(y, x)
        rec.add("symmetry", entry, abs(fwd - bwd), 0.0, scaled_tol(tol, fwd, bwd))
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
    tm1 = space.t - 1
    canon, rep = space.carrier.canon, space.rep_fn
    for entry in entries:
        x, y, z = canon(entry[0]), canon(entry[1]), canon(entry[2])
        lhs = rep(x, z)
        xy = rep(x, y)
        rhs_a = tm1 * xy + rep(z, y)
        rhs_b = tm1 * xy + rep(y, z)
        rec.add("triangle-a", entry, lhs, rhs_a, scaled_tol(tol, lhs, rhs_a))
        rec.add("triangle-b", entry, lhs, rhs_b, scaled_tol(tol, lhs, rhs_b))
    return rec.report(exhaustive=triples.exhaustive)
