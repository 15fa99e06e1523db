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
validates, compares, spreads, draws and maps points through their methods,
and ``sampling._python`` alone turns an array back into Python points.
The law checks read a set by its ``block`` method, ``BLOCK`` entries at a
time, so their memory does not grow with the set.  The exhaustive set of a
finite carrier of n points, every (t+1)-tuple, is a ``sampling.ProductSet``
described by its shape, and :func:`check_axioms` sweeps it from that shape,
in groups of at most ``BLOCK`` t-tuples: one distance per t-tuple, the laws
that depend on the t-tuple alone recorded once for all n of its pivots, and
the simplex entries of a tuple cleared together by their smallest right-hand
side.  Its report is the entry-by-entry sweep's, bit for bit.  A report's
``max_gap`` is the largest gap, with a zero written as 0.0, so its sign
never depends on the order in which a sweep meets the entries.
All comparisons between distances use an absolute tolerance scaled by the
magnitudes involved, since distances grow with the arity and the
coordinate range.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence, Union

import numpy as np

from .errors import CarrierDomainError, UsageError, finite_real, integer, real
from .sampling import ProductSet, SampleSet, _python

Point = Union[int, float, tuple]

_quote = json.encoder.encode_basestring_ascii

# Slack (relative to the box scale) admitted when testing carrier membership,
# so a boundary iterate is not rejected for one rounding step.
_CONTAIN_SLACK = 1e-12

# Entries (or pairs) one array sweep handles at a time: the sweeps' working
# memory is a few arrays of this length, whatever the sample or trace size.
# A lift's distance_many holds up to t - 1 slots of a block at once, so its
# working memory is O(t * BLOCK * d).
BLOCK = 4096

# Violations a check report keeps as witnesses; violations_total counts all.
MAX_WITNESSES = 100


def _only(values, *types) -> bool:
    """True when every value is exactly of one of ``types`` (bool is not int)."""
    return set(map(type, values)) <= set(types)


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box carrier in R^d."""

    lo: tuple
    hi: tuple
    _lo_slack: tuple = field(init=False, repr=False, compare=False)
    _hi_slack: tuple = field(init=False, repr=False, compare=False)
    # The range in which canon returns a float as it is: the slack bounds
    # at d = 1, an empty range above, where a float is not a point.
    _float_lo: float = field(init=False, repr=False, compare=False)
    _float_hi: float = field(init=False, repr=False, compare=False)
    # lo and hi - lo as float arrays, for sample.
    _lo_array: np.ndarray = field(init=False, repr=False, compare=False)
    _width_array: np.ndarray = field(init=False, repr=False, compare=False)
    finite = False

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(finite_real(a, "lo") for a in self.lo))
        object.__setattr__(self, "hi", tuple(finite_real(b, "hi") for b in self.hi))
        if len(self.lo) != len(self.hi) or not self.lo:
            raise UsageError("box bounds must be nonempty and of equal dimension")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise UsageError(f"invalid box bounds [{a}, {b}]")
            if not math.isfinite(b - a):
                raise UsageError(f"box width of [{a}, {b}] overflows a float")
        scale = max(max(abs(v) for v in self.lo), max(abs(v) for v in self.hi))
        slack = _CONTAIN_SLACK * (1.0 + scale)
        object.__setattr__(self, "_lo_slack", tuple(a - slack for a in self.lo))
        object.__setattr__(self, "_hi_slack", tuple(b + slack for b in self.hi))
        scalar = len(self.lo) == 1
        object.__setattr__(self, "_float_lo", self._lo_slack[0] if scalar else math.inf)
        object.__setattr__(self, "_float_hi", self._hi_slack[0] if scalar else -math.inf)
        object.__setattr__(self, "_lo_array", np.array(self.lo))
        object.__setattr__(self, "_width_array", np.subtract(self.hi, self.lo))

    @staticmethod
    def of(lo, hi, d: int = 1) -> "Box":
        """Build a box from scalar or per-coordinate bounds."""
        d = integer(d, "d", 1)
        lo, hi = (tuple(v) if isinstance(v, (tuple, list)) else (v,) * d for v in (lo, hi))
        return Box(lo, hi)

    @property
    def d(self) -> int:
        return len(self.lo)

    def canon(self, p) -> Point:
        """Validate membership and return the canonical point value.

        A canonical point inside the box, a float at d = 1 or a tuple of d
        floats above, is returned as it is.  Any other value is converted
        by :func:`errors.real`'s rule (a bool or a string is no number) and
        checked, and a value that fails raises.
        """
        if type(p) is float and self._float_lo <= p <= self._float_hi:
            return p
        if len(self.lo) == 1:
            if isinstance(p, (tuple, list)):
                if len(p) != 1:
                    raise UsageError(f"expected a scalar point, got {p!r}")
                p = p[0]
            x = real(p, "point")
            if not (self._lo_slack[0] <= x <= self._hi_slack[0]):
                raise CarrierDomainError(f"point {p!r} outside carrier box", point=p)
            return x
        if type(p) is tuple and len(p) == len(self.lo):
            for c, a, b in zip(p, self._lo_slack, self._hi_slack):
                if type(c) is not float or not a <= c <= b:
                    break
            else:
                return p
        if not isinstance(p, (tuple, list)) or len(p) != len(self.lo):
            raise UsageError(f"expected a point of dimension {self.d}, got {p!r}")
        x = tuple(real(c, "point coordinate") for c in p)
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
            pts = points.tolist() if isinstance(points, np.ndarray) else list(points)
            arr = None
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
            pts = _python(arr.tolist())
        return np.array([self.canon(p) for p in pts], dtype=float).reshape((len(pts),) + width)

    def equal(self, a, b, tol: float):
        """Coordinate-wise equality within ``tol``, of two canonical points or
        elementwise over arrays of them."""
        close = np.abs(np.subtract(a, b)) <= tol
        if len(self.lo) == 1:
            return close
        # One elementwise pass per coordinate: an axis reduction over the
        # few coordinates would loop once per point.
        same = close[..., 0]
        for k in range(1, len(self.lo)):
            same &= close[..., k]
        return same[()]  # a numpy bool for two points, as np.all gives

    def spread(self, pts: np.ndarray) -> np.ndarray:
        """Largest coordinate-wise gap within each row of an (n, width, ...) point array.

        Per coordinate that is max - min, which rounds to the largest of the
        rounded pairwise gaps, so it equals the pairwise maximum exactly.
        Both extremes and the largest gap are taken by elementwise passes,
        over the row's points and then over the coordinates, each along the
        n rows.
        """
        cols = np.ascontiguousarray(pts.swapaxes(0, 1))  # cols[i]: every row's point i
        hi, lo = cols[0].copy(), cols[0].copy()
        for col in cols[1:]:
            np.maximum(hi, col, out=hi)
            np.minimum(lo, col, out=lo)
        gaps = np.subtract(hi, lo, out=hi).reshape(len(pts), -1)  # (n, d); one column at d = 1
        widest = gaps[:, 0]
        for k in range(1, gaps.shape[1]):
            np.maximum(widest, gaps[:, k], out=widest)
        return widest

    def sample(self, rng, n: int) -> np.ndarray:
        """``n`` points drawn uniformly from the box by ``rng``, as :meth:`array` returns them.

        ``rng.uniform(lo, hi, size=(n, d))`` computes ``lo + (hi - lo) * u`` from
        the doubles ``rng.random`` draws, in the same order; so does this, with
        the same points and the same generator state after it.
        """
        rows = rng.random((n, len(self.lo)))
        rows *= self._width_array
        rows += self._lo_array
        return rows[:, 0] if len(self.lo) == 1 else rows

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
        object.__setattr__(self, "size", integer(self.size, "size", 1))

    def canon(self, p) -> int:
        """The index ``p`` as a Python int, by :func:`errors.integer`'s rule;
        an index outside the carrier, however large, is an escape."""
        if type(p) is int and 0 <= p < self.size:
            return p
        p = integer(p, "point", maximum=None)
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
            pts = points.tolist() if isinstance(points, np.ndarray) else list(points)
            if pts and _only(pts, int) and 0 <= min(pts) and max(pts) < self.size:
                return np.array(pts, dtype=np.intp)
        return np.array([self.canon(p) for p in pts], dtype=np.intp)

    def equal(self, a, b, tol: float):
        """Index equality, of two points or elementwise over arrays; ``tol`` is ignored."""
        return np.equal(a, b)

    def spread(self, pts: np.ndarray) -> np.ndarray:
        """Per row of an (n, width) index array: 0 if all equal, +inf otherwise
        (indices have no coordinates)."""
        return np.where(np.all(pts == pts[:, :1], axis=1), 0.0, math.inf)

    def sample(self, rng, n: int) -> np.ndarray:
        """``n`` indices drawn uniformly by ``rng``, as :meth:`array` returns them."""
        return rng.integers(0, self.size, size=n).astype(np.intp, copy=False)


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

    ``farthest_later(pts)``, when the space has it, takes one point array
    of length n and gives, for each row i < n - 1, an index j > i where
    ``rep_many(pts[i], pts[j])`` is largest over all j > i.  Spaces without
    such a kernel leave it None.
    """

    t: int
    distance: Callable[[tuple], float]
    carrier: Carrier
    eq_tol: float = 1e-12
    rep_fn: Callable[[Point, Point], float] | None = field(default=None, repr=False, compare=False)
    rep_many: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    distance_many: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    farthest_later: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "t", integer(self.t, "t", 2))
        object.__setattr__(self, "eq_tol", finite_real(self.eq_tol, "eq_tol", 0))
        if self.rep_fn is None:
            distance, head = self.distance, self.t - 1
            object.__setattr__(self, "rep_fn", lambda x, y: float(distance((x,) * head + (y,))))
        if self.rep_many is None:
            object.__setattr__(self, "rep_many", _looped(self.rep_fn))
        if self.distance_many is None:
            by_row = _looped(lambda *pts: self.distance(pts))
            object.__setattr__(self, "distance_many", lambda pts: by_row(*np.moveaxis(pts, 1, 0)))


def _looped(fn: Callable[..., float]) -> Callable[..., np.ndarray]:
    """Array form of ``fn(p1, ..., pk)``: one Python call per row of k point arrays.

    ``fn`` receives the canonical Python points of each row, the values the
    scalar code would pass it, and its results are stored as float64.
    """
    def many(*arrays: np.ndarray) -> np.ndarray:
        points = (_python(a.tolist()) for a in arrays)
        return np.fromiter(map(fn, *points), dtype=float, count=len(arrays[0]))

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


def scaled_tol(base: float, *values: float) -> float:
    """Absolute tolerance grown with the magnitude of the compared values."""
    mag = 0.0
    for v in values:
        a = abs(v)
        if mag < a < math.inf:  # largest finite magnitude; NaN and inf are skipped
            mag = a
    return base * (1.0 + mag)


def scaled_tols(base: float, *values: np.ndarray) -> np.ndarray:
    """:func:`scaled_tol` elementwise over float arrays that broadcast together,
    with the same skips: the magnitude is the largest finite ``|v|``, or 0."""
    mags = [np.abs(v) for v in values]
    mag = functools.reduce(np.fmax, mags)  # fmax skips NaN
    if not mag.max(initial=0.0) < math.inf:  # an inf somewhere, or NaN in every value
        mag = functools.reduce(np.maximum, [np.where(a < math.inf, a, 0.0) for a in mags])
    return base * (1.0 + mag)


class Reported:
    """A report object, written by :func:`json_text` as its fields, ``vars(self)``."""

    def to_dict(self) -> dict:
        """The report as JSON values: :func:`json_text`'s text, read back."""
        return json.loads(json_text(self))


@dataclass(frozen=True)
class Violation(Reported):
    """One failed inequality instance: ``lhs <= rhs + tol`` did not hold."""

    law: str
    witness: tuple
    lhs: float
    rhs: float
    gap: float
    tol: float


@dataclass
class CheckReport(Reported):
    """Outcome of one empirical check over a sample set."""

    name: str
    checked: int
    violations: tuple
    violations_total: int
    max_gap: float
    passed: bool
    exhaustive: bool = False
    info: dict = field(default_factory=dict)


def json_text(doc) -> str:
    """The one JSON rule of every report, written in one pass: the text of
    ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\\n"`` for a ``doc``
    of dicts with str keys, lists, tuples and numpy arrays (written as the lists they equal),
    strings, ints, floats, bools, None and :class:`Reported` objects (written as ``vars(obj)``),
    where a non-finite float is written as its quoted repr (``"inf"``, ``"-inf"``, ``"nan"``)."""
    out: list = []
    _put(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _put(obj, out: list, indent: str) -> None:
    """Append the text of ``obj`` to ``out``; ``indent`` starts each line after its first."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else _quote(repr(obj)))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, Reported):
        _put(vars(obj), out, indent)
    elif isinstance(obj, np.ndarray):  # a row at a time: no list of all a table's floats
        _put(obj.tolist() if obj.ndim < 2 else list(obj), out, indent)
    elif not isinstance(obj, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    elif not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        inner = indent + "  "
        head = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(head + _quote(key) + ": ")
            _put(value, out, inner)
            head = "," + inner
        out.append(indent + "}")
    else:
        inner = indent + "  "
        try:  # floats alone, all finite, go in one join: no finite float's repr has an "n"
            text = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:
            text = "n"
        if "n" not in text:
            out.append("[" + inner + text + indent + "]")
            return
        head = "[" + inner
        for value in obj:
            out.append(head)
            _put(value, out, inner)
            head = "," + inner
        out.append(indent + "]")


class _Recorder:
    """Accumulates inequality instances, their worst gap and the first ``cap`` violations."""

    def __init__(self, name: str):
        self.name = name
        self.cap = MAX_WITNESSES
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
            if len(self.violations) < self.cap:
                self.violations.append(Violation(law, witness, lhs, rhs, gap, tol))

    def add_many(self, witness: Callable[[str, int], tuple], checks: Sequence[tuple],
                 shape: tuple | None = None):
        """Record one block of entries, as :meth:`add` called entry by entry would.

        ``checks`` lists ``(law, lhs, rhs, tol, where)`` in the order the
        scalar loop adds them for one entry.  lhs, rhs and tol are floats or
        float arrays, and ``where`` masks the entries the law applies to
        (None: all of them).  All of them broadcast to the block's shape, and
        entry i is flat index i of that shape: a law given as an (m, 1) array
        of an (m, n) block holds one value for each run of n entries.  Such a
        law is tested once per value and counted once per entry, and only its
        failing values are expanded into entries.  ``shape``, when given, is
        the block's shape, for a block no law spans.
        ``witness(law, i)`` is the witness of entry i.  The first violations
        are kept in scalar order, by entry and then by law, and ``max_gap``
        is the largest gap, which :meth:`report` writes with a zero as ``0.0``.
        """
        laws = []
        for law, lhs, rhs, tol, where in checks:
            gap = np.subtract(lhs, rhs)
            bad = gap > tol if where is None else (gap > tol) & where
            if gap.shape != bad.shape:
                gap = np.broadcast_to(gap, bad.shape)
            laws.append((law, lhs, rhs, tol, where, gap, bad))
        if shape is None:
            shape = np.broadcast(*(bad for *_, bad in laws)).shape
        size = math.prod(shape)
        if not size:
            return
        room = self.cap - len(self.violations)
        found, tops = [], [self.max_gap]
        for pos, (law, lhs, rhs, tol, where, gap, bad) in enumerate(laws):
            if where is None:
                self.checked += size
                tops.append(float(np.fmax.reduce(gap, axis=None, initial=-math.inf)))
            else:
                self.checked += size // where.size * int(np.count_nonzero(where))
                tops.append(float(np.fmax.reduce(gap, axis=None, where=where, initial=-math.inf)))
            count = int(np.count_nonzero(bad))
            self.total += size // bad.size * count
            if count and room:
                entries = np.flatnonzero(np.broadcast_to(bad, shape))[:room]
                found.extend((int(i), pos, law, lhs, rhs, gap, tol) for i in entries)
        self.max_gap = max(tops)
        found.sort(key=lambda v: v[:2])
        for i, _, law, lhs, rhs, gap, tol in found[:room]:
            self.violations.append(Violation(law, witness(law, i), _item(lhs, i, shape),
                                             _item(rhs, i, shape), _item(gap, i, shape),
                                             _item(tol, i, shape)))

    def add_cleared(self, count: int, top: float):
        """Record ``count`` entries shown to pass without enumerating them;
        ``top`` is their largest gap."""
        self.checked += count
        if top > self.max_gap:
            self.max_gap = top

    def report(self, exhaustive: bool = False, info: dict | None = None) -> CheckReport:
        """The check's report.  Its ``max_gap`` is the largest gap, 0.0 when no
        instance was checked; adding 0.0 writes a zero of either sign as 0.0."""
        return CheckReport(
            name=self.name,
            checked=self.checked,
            violations=tuple(self.violations),
            violations_total=self.total,
            max_gap=self.max_gap + 0.0 if self.checked else 0.0,
            passed=self.total == 0,
            exhaustive=exhaustive,
            info=info or {},
        )


def _item(v, i: int, shape: tuple) -> float:
    """Entry i of a float or float array broadcast to ``shape``, as a float."""
    return float(np.broadcast_to(v, shape).flat[i])


def _blocks(carrier: Carrier, samples: SampleSet | ProductSet, width: int, what: str):
    """Blocks of up to BLOCK entries, each as ``(start, pts)``: the index of
    its first entry and its validated points, shape (len(block), width, ...).

    The set's size and entry width are checked on the call.  A block is read
    by ``samples.block`` when it is reached, and ``carrier.array`` checks its
    bounds, which guards a set built by hand, not drawn or made by ``from_entries``.
    """
    if len(samples) == 0:
        raise UsageError(f"{what} needs a nonempty sample set")
    if samples.block(0, 1).shape[1:2] != (width,):
        raise UsageError(f"{what} expects entries of {width} points, got {samples.entry(0)!r}")
    starts = range(0, len(samples), BLOCK)
    blocks = (samples.block(start, start + BLOCK) for start in starts)
    arrays = (carrier.array(pts.reshape((-1,) + pts.shape[2:])) for pts in blocks)
    return ((start, pts.reshape((-1, width) + pts.shape[1:])) for start, pts in zip(starts, arrays))


def _tuple_laws(space: AMetricSpace, xs: np.ndarray, d: np.ndarray, te: np.ndarray) -> tuple:
    """The laws of :func:`check_axioms` that depend on the t-tuple alone, for
    :meth:`_Recorder.add_many`: ``xs`` holds one block's m t-tuples, ``d``
    their distances and ``te`` their tolerances, both (m, 1) arrays, so each
    law holds for all of a tuple's entries."""
    carrier = space.carrier
    degenerate = np.all(carrier.equal(xs[:, :1], xs[:, 1:], space.eq_tol), axis=1)[:, None]
    # identity, reverse direction: zero distance away from the diagonal
    near_zero = ~degenerate & (np.abs(d) <= te)
    return (
        ("nonneg", 0.0, d, te, None),
        ("identity", np.abs(d), 0.0, te, degenerate),
        ("identity-reverse", carrier.spread(xs)[:, None], np.maximum(10.0 * te, space.eq_tol),
         0.0, near_zero),
    )


def _simplex_law(d: np.ndarray, rhs: np.ndarray, tol: float) -> tuple:
    """simplex: d <= sum_i rep(x_i, pivot), for ``rhs`` of shape (m, k): k pivots per tuple."""
    return ("simplex", d, rhs, scaled_tols(tol, d, rhs), None)


def _rows(checks: tuple, lo: int, hi: int) -> tuple:
    """``checks`` cut to the tuples lo, ..., hi - 1: the rows of their arrays."""
    return tuple((law, *(v[lo:hi] if isinstance(v, np.ndarray) else v for v in values))
                 for law, *values in checks)


def _sweep_product(space: AMetricSpace, samples: ProductSet, tol: float, rec: _Recorder):
    """:func:`check_axioms` on every (t+1)-tuple of the space's n points, from the set's shape.

    Entry q*n + p is t-tuple q of ``ProductSet(n, t)`` with pivot p.  The tuples
    are read in groups of whole runs of their last slot, at most BLOCK tuples
    when n <= BLOCK, and each tuple's distance and per-tuple laws are computed once.  Its
    simplex right-hand sides are ((0 + R[x_0, p]) + R[x_1, p]) + ... +
    R[x_(t-1), p], R the n x n table of rep_many values: the entry sweep's
    additions, with the sums over the first t - 1 slots made once per run.
    A tuple is cleared when tol >= 0 and fl(d - min_p rhs) <= scaled_tols(tol,
    d), which a NaN gap never is.  That test is exact, infinities included:
    fl(d - x) does not grow with x, so every entry's gap is at most that one
    or NaN, and every entry's tolerance scaled_tols(tol, d, rhs) is at least
    scaled_tols(tol, d).  A group whose tuples all clear has no simplex
    violation, so its per-tuple laws go to ``add_many`` over the group's
    (m, n) shape and its simplex entries to ``add_cleared``.  Any other
    group is swept entry by entry, whole tuples of up to BLOCK entries at a
    time, with the same distances.
    """
    t, n = space.t, samples.n
    idx = space.carrier.array(np.arange(n))
    reps = space.rep_many(np.repeat(idx, n), np.tile(idx, n)).reshape(n, n)  # reps[x, p]
    by_pivot = np.ascontiguousarray(reps.T)
    heads = n ** (t - 1)  # runs of the last slot, one per head: the first t - 1 slots
    runs = max(1, BLOCK // n)  # per group; a block of the entry sweep holds as many tuples

    def witness(law: str, i: int) -> tuple:
        return samples.entry(i)[:t + 1 if law == "simplex" else t]

    for h0 in range(0, heads, runs):
        xs = ProductSet(n, t).block(h0 * n, (h0 + runs) * n)
        m = len(xs)
        d = space.distance_many(xs)[:, None]
        te = scaled_tols(tol, d)
        laws = _tuple_laws(space, xs, d, te)
        sums = np.zeros((n, m // n))  # sums[p, run]: the head's part of the right-hand side
        for i in range(t - 1):
            sums += np.take(by_pivot, xs[::n, i], axis=1)
        low = np.add(by_pivot[0, :, None], sums[0])  # low[last slot, run]: min over the pivots
        pivot_rhs = np.empty_like(low)
        for p in range(1, n):
            np.fmin(low, np.add(by_pivot[p, :, None], sums[p], out=pivot_rhs), out=low)
        gap = d - low.T.reshape(-1, 1)
        first = h0 * n * n  # the group's first entry
        if tol >= 0.0 and np.all(gap <= te):
            rec.add_many(lambda law, i: witness(law, first + i), laws, (m, n))
            rec.add_cleared(m * n, float(gap.max()))
            continue
        for lo in range(0, m, runs):
            hi = min(lo + runs, m)
            rhs = sums.T[np.arange(lo, hi) // n] + reps[xs[lo:hi, t - 1]]
            rec.add_many(lambda law, i: witness(law, first + lo * n + i),
                         _rows(laws, lo, hi) + (_simplex_law(d[lo:hi], rhs, tol),))


def check_axioms(space: AMetricSpace, samples: SampleSet | ProductSet,
                 tol: float = 1e-9) -> CheckReport:
    """Evaluate the three defining laws on every sampled (tuple, pivot) entry.

    The identity law is tested in both directions: an all-equal tuple must
    evaluate to ~0, and a ~0 evaluation must come from a near-degenerate
    tuple (exactly degenerate on finite carriers).

    The set's type decides the sweep.  The :class:`ProductSet` of (t+1)-tuples
    of a finite carrier's n points is swept from its shape, t-tuple by
    t-tuple, one distance per t-tuple (see :func:`_sweep_product`).  Every
    other set is swept entry by entry, in blocks of BLOCK entries.  Both give
    the entry-by-entry report bit for bit: counts, ``max_gap``, and the
    first ``MAX_WITNESSES`` violations in entry order.
    """
    tol = finite_real(tol, "tol")
    rec = _Recorder("axioms")
    t, carrier = space.t, space.carrier
    with np.errstate(invalid="ignore", over="ignore"):
        if (isinstance(samples, ProductSet) and samples.width == t + 1 and carrier.finite
                and samples.n == carrier.size):
            _sweep_product(space, samples, tol, rec)
        else:
            for start, pts in _blocks(carrier, samples, t + 1, "check_axioms"):
                xs = pts[:, :t]
                rhs = np.zeros(len(pts))
                for i in range(t):
                    rhs += space.rep_many(xs[:, i], pts[:, t])
                d = space.distance_many(xs)[:, None]
                te = scaled_tols(tol, d)
                rec.add_many(lambda law, i: samples.entry(start + i)[:t + 1 if law == "simplex" else t],
                             _tuple_laws(space, xs, d, te) + (_simplex_law(d, rhs[:, None], tol),))
    return rec.report(exhaustive=samples.exhaustive)


def check_symmetry(space: AMetricSpace, pairs: SampleSet, tol: float = 1e-9) -> CheckReport:
    """Two-point reduction must not depend on argument order; keeps ``MAX_WITNESSES`` witnesses."""
    tol = finite_real(tol, "tol")
    rec = _Recorder("symmetry")
    with np.errstate(invalid="ignore", over="ignore"):
        for start, pts in _blocks(space.carrier, pairs, 2, "check_symmetry"):
            x, y = pts[:, 0], pts[:, 1]
            fwd = space.rep_many(x, y)
            bwd = space.rep_many(y, x)
            rec.add_many(lambda law, i: pairs.entry(start + i), (
                ("symmetry", np.abs(fwd - bwd), 0.0, scaled_tols(tol, fwd, bwd), None),
            ))
    return rec.report(exhaustive=pairs.exhaustive)


def check_triangle_inequality(space: AMetricSpace, triples: SampleSet,
                              tol: float = 1e-9) -> CheckReport:
    """Both triangle-type forms of the two-point reduction.

    For each sampled (x, y, z), keeping the first ``MAX_WITNESSES`` violations:
        rep(x, z) <= (t-1) * rep(x, y) + rep(z, y)
        rep(x, z) <= (t-1) * rep(x, y) + rep(y, z)
    """
    tol = finite_real(tol, "tol")
    rec = _Recorder("triangle")
    tm1, rep = space.t - 1, space.rep_many
    with np.errstate(invalid="ignore", over="ignore"):
        for start, pts in _blocks(space.carrier, triples, 3, "check_triangle_inequality"):
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            lhs = rep(x, z)
            xy = rep(x, y)
            rhs_a = tm1 * xy + rep(z, y)
            rhs_b = tm1 * xy + rep(y, z)
            rec.add_many(lambda law, i: triples.entry(start + i), (
                ("triangle-a", lhs, rhs_a, scaled_tols(tol, lhs, rhs_a), None),
                ("triangle-b", lhs, rhs_b, scaled_tols(tol, lhs, rhs_b), None),
            ))
    return rec.report(exhaustive=triples.exhaustive)
