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

from .core import (
    AMetricSpace,
    CheckReport,
    Point,
    _blocks,
    _json_num,
    _json_points,
    _Recorder,
    _require_entries,
    scaled_tols,
)
from .errors import CarrierDomainError, UsageError
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

    def to_dict(self) -> dict:
        return {
            "x": _json_points(self.x),
            "y": _json_points(self.y),
            "a_req": _json_num(self.a_req),
            "b_req": _json_num(self.b_req),
            "c_req": _json_num(self.c_req),
        }


def _image_blocks(space: AMetricSpace, f: SelfMap, pairs: SampleSet, what: str):
    """Blocks of pairs, each with x, y, f(x), f(y) as validated point arrays.

    A point or image outside the carrier raises the error of the first bad
    one in the per-pair order x, y, f(x), f(y), found by a scalar replay.
    """
    carrier = space.carrier
    entries = _require_entries(pairs, 2, what)
    try:
        for block, pts in _blocks(carrier, entries):
            images = carrier.array(f.many(pts.reshape((-1,) + pts.shape[2:])))
            images = images.reshape(pts.shape)
            yield block, pts[:, 0], pts[:, 1], images[:, 0], images[:, 1]
    except (CarrierDomainError, UsageError):
        canon = carrier.canon
        for x, y in entries:
            cx, cy = canon(x), canon(y)
            canon(f(cx))
            canon(f(cy))
        raise


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
    reqs = _requirements(space, f, SampleSet.from_entries("pairs", [(x, y)]), "branch_constants")
    return BranchConstants(x, y, *(float(r[0]) for r in reqs))


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

    witnesses = tuple(BranchConstants(*pairs.entries[i], *(float(r[i]) for r in reqs))
                      for i in np.flatnonzero(ratio >= 1.0)[:max(max_witnesses, 0)])
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
    t, rep = space.t, space.rep_many
    with np.errstate(invalid="ignore", over="ignore"):
        for block, x, y, fx, fy in _image_blocks(space, f, pairs, "verify_contraction_inequalities"):
            lhs = rep(fx, fy)
            base = delta * rep(x, y)
            rhs_1 = base + t * delta * rep(fx, x)
            rhs_2 = base + t * delta * rep(fy, x)
            rec.add_many(lambda law, i: block[i], (
                ("contraction-own-step", lhs, rhs_1, scaled_tols(tol, lhs, rhs_1), None),
                ("contraction-cross-step", lhs, rhs_2, scaled_tols(tol, lhs, rhs_2), None),
            ))
    return rec.report(exhaustive=pairs.exhaustive)
