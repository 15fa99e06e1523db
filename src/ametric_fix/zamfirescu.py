"""Branch-contraction classification of self-maps.

A self-map f is admissible when every point pair (x, y) satisfies at least
one of three branch inequalities on the two-point reduction rep:

    banach      rep(fx, fy) <= a * rep(x, y)                      a < 1
    kannan      rep(fx, fy) <= b * [rep(fx, x) + rep(fy, y)]      b < 1/t
    chatterjea  rep(fx, fy) <= c * [rep(fx, y) + rep(fy, x)]      c < 1/t

Classification measures, per pair, the minimal constant each branch would
need, normalizes by the branch cap, and checks that every pair has some
branch below its cap.  The reported global constants (a, b, c) come from a
canonical assignment: every pair goes to the lowest-numbered branch whose
normalized requirement does not exceed the worst per-pair minimum, so a
plain Lipschitz contraction reports b = c = 0 exactly.  The constants feed

    delta = max(a, b / (1 - b(t-1)), c / (1 - c(t-1)))  in [0, 1)

which is the contraction factor governing every solver error envelope.
Degenerate requirement ratios are resolved as 0/0 -> 0 (any constant works)
and k/0 -> +inf for k > 0 (the branch is infeasible for that pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import AMetricSpace, CheckReport, Point, _Recorder, _json_num, _json_points, scaled_tol
from .errors import UsageError
from .sampling import SampleSet
from .spaces import SelfMap

BRANCH_BANACH = 1
BRANCH_KANNAN = 2
BRANCH_CHATTERJEA = 3

# A pair goes to the first branch whose requirement is within this relative
# distance of the worst per-pair minimum.
_ASSIGN_RTOL = 1e-9


def _needed(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


@dataclass(frozen=True)
class BranchConstants:
    """Minimal per-branch constants for one ordered pair."""

    x: Point
    y: Point
    a_req: float
    b_req: float
    c_req: float

    def normalized(self, t: int) -> tuple[float, float, float]:
        """Requirements scaled so that each branch cap becomes 1."""
        return (self.a_req, self.b_req * t, self.c_req * t)

    def best(self, t: int) -> tuple[float, int]:
        ratios = self.normalized(t)
        branch = min(range(3), key=lambda i: ratios[i])
        return ratios[branch], branch + 1

    def to_dict(self) -> dict:
        return {
            "x": _json_points(self.x),
            "y": _json_points(self.y),
            "a_req": _json_num(self.a_req),
            "b_req": _json_num(self.b_req),
            "c_req": _json_num(self.c_req),
        }


def branch_constants(space: AMetricSpace, f: SelfMap, x: Point, y: Point) -> BranchConstants:
    """Minimal constants making each branch inequality hold for (x, y)."""
    canon = space.carrier.canon
    cx, cy = canon(x), canon(y)
    return _branch_constants(space.rep_fn, x, y, cx, cy, canon(f(cx)), canon(f(cy)))


def _branch_constants(rep, x: Point, y: Point, cx: Point, cy: Point,
                      fx: Point, fy: Point) -> BranchConstants:
    """Branch constants from canonical points and images; x, y are kept as given."""
    num = rep(fx, fy)
    a_req = _needed(num, rep(cx, cy))
    b_req = _needed(num, rep(fx, cx) + rep(fy, cy))
    c_req = _needed(num, rep(fx, cy) + rep(fy, cx))
    return BranchConstants(x=x, y=y, a_req=a_req, b_req=b_req, c_req=c_req)


def compute_delta(a: float, b: float, c: float, t: int) -> float:
    """Contraction factor from admissible branch constants; always in [0, 1)."""
    if isinstance(t, bool) or not isinstance(t, int) or t < 2:
        raise UsageError(f"arity must be an integer >= 2, got {t!r}")
    cap = 1.0 / t
    if not (0.0 <= a < 1.0):
        raise UsageError(f"need 0 <= a < 1, got {a!r}")
    if not (0.0 <= b < cap):
        raise UsageError(f"need 0 <= b < 1/{t}, got {b!r}")
    if not (0.0 <= c < cap):
        raise UsageError(f"need 0 <= c < 1/{t}, got {c!r}")
    return max(a, b / (1.0 - b * (t - 1)), c / (1.0 - c * (t - 1)))


@dataclass
class ZamfirescuCertificate:
    """Evidence that a map satisfies the branch conditions on a pair set."""

    t: int
    a: float
    b: float
    c: float
    delta: float | None
    valid: bool
    exhaustive: bool
    n_pairs: int
    assignments: tuple
    witnesses: tuple

    @property
    def branch_counts(self) -> dict:
        return {
            "banach": sum(1 for b in self.assignments if b == BRANCH_BANACH),
            "kannan": sum(1 for b in self.assignments if b == BRANCH_KANNAN),
            "chatterjea": sum(1 for b in self.assignments if b == BRANCH_CHATTERJEA),
        }

    def delta_with_margin(self, margin: float = 1e-9) -> float:
        """Contraction factor with constants inflated to absorb rounding."""
        if not self.valid:
            raise UsageError("cannot derive a contraction factor from an invalid certificate")
        if margin < 0:
            raise UsageError(f"margin must be nonnegative, got {margin!r}")
        scale = 1.0 + margin
        return compute_delta(self.a * scale, self.b * scale, self.c * scale, self.t)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "a": _json_num(self.a),
            "b": _json_num(self.b),
            "c": _json_num(self.c),
            "delta": None if self.delta is None else _json_num(self.delta),
            "valid": self.valid,
            "exhaustive": self.exhaustive,
            "n_pairs": self.n_pairs,
            "branch_counts": self.branch_counts,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def classify(space: AMetricSpace, f: SelfMap, pairs: SampleSet, *,
             max_witnesses: int = 100) -> ZamfirescuCertificate:
    """Certify (or reject) a self-map over a sampled or exhaustive pair set.

    Valid exactly when every pair's best normalized requirement stays below
    1. Witnesses are the pairs for which no branch is feasible.  The
    assignment threshold is the worst per-pair minimum, so the reported
    constants realize the smallest possible maximum normalized constant.
    """
    if len(pairs) == 0:
        raise UsageError("classify needs a nonempty pair set")
    canon, rep = space.carrier.canon, space.rep_fn
    per_pair = []
    worst = 0.0
    for x, y in pairs:
        cx, cy = canon(x), canon(y)
        bc = _branch_constants(rep, x, y, cx, cy, canon(f(cx)), canon(f(cy)))
        ratio, _ = bc.best(space.t)
        per_pair.append((bc, ratio))
        if ratio > worst:
            worst = ratio
    valid = worst < 1.0
    threshold = worst * (1.0 + _ASSIGN_RTOL)

    a = b = c = 0.0
    assignments = []
    witnesses = []
    for bc, ratio in per_pair:
        ratios = bc.normalized(space.t)
        branch = None
        for i, r in enumerate(ratios):
            if r <= threshold and (not valid or r < 1.0):
                branch = i + 1
                break
        if branch is None:
            branch = bc.best(space.t)[1]
        assignments.append(branch)
        if branch == BRANCH_BANACH:
            a = max(a, bc.a_req)
        elif branch == BRANCH_KANNAN:
            b = max(b, bc.b_req)
        else:
            c = max(c, bc.c_req)
        if ratio >= 1.0 and len(witnesses) < max_witnesses:
            witnesses.append(bc)

    delta = compute_delta(a, b, c, space.t) if valid else None
    return ZamfirescuCertificate(
        t=space.t,
        a=a,
        b=b,
        c=c,
        delta=delta,
        valid=valid,
        exhaustive=pairs.exhaustive,
        n_pairs=len(pairs),
        assignments=tuple(assignments),
        witnesses=tuple(witnesses),
    )


def verify_contraction_inequalities(space: AMetricSpace, f: SelfMap, delta: float,
                                    pairs: SampleSet, tol: float = 1e-9,
                                    max_witnesses: int = 100) -> CheckReport:
    """Check the two damped-contraction consequences of a certificate.

    For every sampled pair (x, y):
        rep(fx, fy) <= delta * rep(x, y) + t * delta * rep(fx, x)
        rep(fx, fy) <= delta * rep(x, y) + t * delta * rep(fy, x)
    """
    if not (0.0 <= delta < 1.0):
        raise UsageError(f"need 0 <= delta < 1, got {delta!r}")
    if len(pairs) == 0:
        raise UsageError("verify_contraction_inequalities needs a nonempty pair set")
    rec = _Recorder("contraction", max_witnesses)
    t = space.t
    canon, rep = space.carrier.canon, space.rep_fn
    for x, y in pairs:
        cx, cy = canon(x), canon(y)
        fx, fy = canon(f(cx)), canon(f(cy))
        lhs = rep(fx, fy)
        base = delta * rep(cx, cy)
        rhs_1 = base + t * delta * rep(fx, cx)
        rhs_2 = base + t * delta * rep(fy, cx)
        rec.add("contraction-own-step", (x, y), lhs, rhs_1, scaled_tol(tol, lhs, rhs_1))
        rec.add("contraction-cross-step", (x, y), lhs, rhs_2, scaled_tol(tol, lhs, rhs_2))
    return rec.report(exhaustive=pairs.exhaustive)
