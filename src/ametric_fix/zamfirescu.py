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
and k/0 -> +inf for k != 0 (the branch is infeasible for that pair).

The certificate and the contraction check are numpy sweeps over blocks of
at most ``core.BLOCK`` pairs: each block's points and their images (one
call of the map's array form, ``SelfMap.many``) are validated once by
``carrier.array``, and every requirement comes from the space's
``rep_many``.  They give the results, down to the bit and the sign of a
zero, of the per-pair loops kept in ``tests/scalar_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    AMetricSpace,
    CheckReport,
    Point,
    Reported,
    _blocks,
    _Recorder,
    scaled_tols,
)
from .errors import UsageError, finite_real, integer
from .sampling import SampleSet
from .spaces import SelfMap

BRANCH_BANACH = 1
BRANCH_KANNAN = 2
BRANCH_CHATTERJEA = 3

# A pair goes to the first branch whose requirement is within this relative
# distance of the worst per-pair minimum.
_ASSIGN_RTOL = 1e-9


def _needed(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, with 0/0 -> 0 and k/0 -> inf for k != 0."""
    return np.where(den == 0.0, np.where(num == 0.0, 0.0, math.inf), num / den)


def _running_max(values: np.ndarray) -> float:
    """What ``m = 0.0; for v in values: m = max(m, v)`` leaves: NaN and
    values <= 0 are skipped, so ties keep 0.0 over -0.0."""
    return float(np.max(values, where=values > 0.0, initial=0.0))


@dataclass(frozen=True)
class BranchConstants(Reported):
    """Minimal per-branch constants for one ordered pair."""

    x: Point
    y: Point
    a_req: float
    b_req: float
    c_req: float

    def normalized(self, t: int) -> tuple[float, float, float]:
        """Requirements scaled so that each branch cap becomes 1."""
        return (self.a_req, self.b_req * t, self.c_req * t)


def _image_blocks(space: AMetricSpace, f: SelfMap, pairs: SampleSet, what: str):
    """Blocks of pairs, each as its start index and x, y, f(x), f(y) as validated point arrays.

    An image outside the carrier raises ``carrier.canon``'s error for the
    first bad one in the per-pair order f(x), f(y): ``carrier.array`` takes
    a block's images in that order.
    """
    carrier = space.carrier
    for start, pts in _blocks(carrier, pairs, 2, what):
        images = carrier.array(f.many(pts.reshape((-1,) + pts.shape[2:]))).reshape(pts.shape)
        yield start, pts[:, 0], pts[:, 1], images[:, 0], images[:, 1]


def _requirements(space: AMetricSpace, f: SelfMap, pairs: SampleSet, what: str) -> tuple:
    """The minimal constants (a_req, b_req, c_req) of every pair, as float arrays."""
    rep, reqs = space.rep_many, []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _, x, y, fx, fy in _image_blocks(space, f, pairs, what):
            num = rep(fx, fy)
            reqs.append((_needed(num, rep(x, y)),
                         _needed(num, rep(fx, x) + rep(fy, y)),
                         _needed(num, rep(fx, y) + rep(fy, x))))
    return tuple(np.concatenate(r) for r in zip(*reqs))


def branch_constants(space: AMetricSpace, f: SelfMap, x: Point, y: Point) -> BranchConstants:
    """Minimal constants making each branch inequality hold for (x, y)."""
    reqs = _requirements(space, f, SampleSet.from_entries(space, [(x, y)]), "branch_constants")
    return BranchConstants(x, y, *(float(r[0]) for r in reqs))


def compute_delta(a: float, b: float, c: float, t: int) -> float:
    """Contraction factor from admissible branch constants; always in [0, 1)."""
    t = integer(t, "t", 2)
    a, b, c = (finite_real(v, name) for v, name in ((a, "a"), (b, "b"), (c, "c")))
    cap = 1.0 / t
    if not (0.0 <= a < 1.0):
        raise UsageError(f"need 0 <= a < 1, got {a!r}")
    if not (0.0 <= b < cap):
        raise UsageError(f"need 0 <= b < 1/{t}, got {b!r}")
    if not (0.0 <= c < cap):
        raise UsageError(f"need 0 <= c < 1/{t}, got {c!r}")
    return max(a, b / (1.0 - b * (t - 1)), c / (1.0 - c * (t - 1)))


@dataclass
class ZamfirescuCertificate(Reported):
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
        scale = 1.0 + finite_real(margin, "margin", 0)
        return compute_delta(self.a * scale, self.b * scale, self.c * scale, self.t)

    def report_fields(self) -> dict:
        """The fields, with ``branch_counts`` for the per-pair ``assignments``."""
        return {"t": self.t, "a": self.a, "b": self.b, "c": self.c, "delta": self.delta,
                "valid": self.valid, "exhaustive": self.exhaustive, "n_pairs": self.n_pairs,
                "branch_counts": self.branch_counts, "witnesses": self.witnesses}


def classify(space: AMetricSpace, f: SelfMap, pairs: SampleSet) -> ZamfirescuCertificate:
    """Certify (or reject) a self-map over a sampled or exhaustive pair set.

    Valid exactly when every pair's best normalized requirement stays below
    1. Witnesses are the first ``core.MAX_WITNESSES`` pairs for which no
    branch is feasible.  The assignment threshold is the worst per-pair
    minimum, so the reported constants realize the smallest possible
    maximum normalized constant.
    """
    if len(pairs) == 0:
        raise UsageError("classify needs a nonempty pair set")
    t = space.t
    reqs = _requirements(space, f, pairs, "classify")
    with np.errstate(over="ignore"):
        ratios = (reqs[0], reqs[1] * t, reqs[2] * t)
    # Each pair's best branch is its first minimal ratio, as min(range(3),
    # key=...) picks it: a later ratio wins only when strictly lower, so a
    # NaN is never chosen after the first branch.
    ratio, best = ratios[0], np.zeros(len(ratios[0]), dtype=int)
    for i in (1, 2):
        lower = ratios[i] < ratio
        ratio, best = np.where(lower, ratios[i], ratio), np.where(lower, i, best)
    worst = _running_max(ratio)
    valid = worst < 1.0
    threshold = worst * (1.0 + _ASSIGN_RTOL)

    # The first branch within the threshold (and below its cap when valid),
    # else the best one.
    branch = best + 1
    for i in (2, 1, 0):
        fits = ratios[i] <= threshold
        if valid:
            fits &= ratios[i] < 1.0
        branch = np.where(fits, i + 1, branch)
    a, b, c = (_running_max(req[branch == i + 1]) for i, req in enumerate(reqs))

    witnesses = tuple(BranchConstants(*pairs.entry(i), *(float(r[i]) for r in reqs))
                      for i in np.flatnonzero(ratio >= 1.0)[:core.MAX_WITNESSES])
    delta = compute_delta(a, b, c, t) if valid else None
    return ZamfirescuCertificate(
        t=t,
        a=a,
        b=b,
        c=c,
        delta=delta,
        valid=valid,
        exhaustive=pairs.exhaustive,
        n_pairs=len(pairs),
        assignments=tuple(branch.tolist()),
        witnesses=witnesses,
    )


def verify_contraction_inequalities(space: AMetricSpace, f: SelfMap, delta: float,
                                    pairs: SampleSet, tol: float = 1e-9) -> CheckReport:
    """Check the two damped-contraction consequences of a certificate.

    For every sampled pair (x, y):
        rep(fx, fy) <= delta * rep(x, y) + t * delta * rep(fx, x)
        rep(fx, fy) <= delta * rep(x, y) + t * delta * rep(fy, x)
    The first ``core.MAX_WITNESSES`` violations are kept.
    """
    delta, tol = finite_real(delta, "delta"), finite_real(tol, "tol")
    if not (0.0 <= delta < 1.0):
        raise UsageError(f"need 0 <= delta < 1, got {delta!r}")
    if len(pairs) == 0:
        raise UsageError("verify_contraction_inequalities needs a nonempty pair set")
    rec = _Recorder("contraction")
    t, rep = space.t, space.rep_many
    with np.errstate(invalid="ignore", over="ignore"):
        for start, x, y, fx, fy in _image_blocks(space, f, pairs, "verify_contraction_inequalities"):
            lhs = rep(fx, fy)
            base = delta * rep(x, y)
            rhs_1 = base + t * delta * rep(fx, x)
            rhs_2 = base + t * delta * rep(fy, x)
            rec.add_many(lambda law, i: pairs.entry(start + i), (
                ("contraction-own-step", lhs, rhs_1, scaled_tols(tol, lhs, rhs_1), None),
                ("contraction-cross-step", lhs, rhs_2, scaled_tols(tol, lhs, rhs_2), None),
            ))
    return rec.report(exhaustive=pairs.exhaustive)
