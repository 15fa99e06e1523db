"""Picard iteration with certified geometric error envelopes.

For a certified map with contraction factor delta, the step sizes
d_n = rep(x_{n+1}, x_n) decay geometrically (d_n <= delta^n * d_0) and the
distance from iterate n to the fixed point is bounded by the tail envelope

    tail(n) = (t - 1) * delta^n * d_0 / (1 - delta).

The envelope comes from chaining the triangle-type inequality over the
step sequence and summing the full geometric series; the full series bounds
every partial sum, so it also dominates rep(x_n, x_m) for every m > n.

The module also provides multi-start uniqueness probing and an exhaustive
fixed-point oracle for finite carriers.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import (
    BLOCK,
    AMetricSpace,
    CheckReport,
    Point,
    _json_num,
    _json_points,
    _Recorder,
    scaled_tol,
    scaled_tols,
)
from .errors import CarrierDomainError, UsageError
from .spaces import SelfMap

CSV_COLUMNS = ("n", "step", "bound", "ratio", "tail_bound")

# Residual acceptance is looser than the step target: the final step bounds
# the distance between consecutive iterates, not the fixed-point residual.
_RESIDUAL_FACTOR = 10.0

# Divergence: this many consecutive steps, each larger than the one before
# by more than this factor.
_GROWTH_WINDOW = 10
_GROWTH_FACTOR = 1.0 + 1e-9


def tail_bound(delta: float, t: int, d0: float, n: int) -> float:
    """Upper bound on rep(x_n, fixed point): (t-1) * delta^n * d0 / (1 - delta)."""
    if not (0.0 <= delta < 1.0):
        raise UsageError(f"need 0 <= delta < 1, got {delta!r}")
    if isinstance(t, bool) or not isinstance(t, int) or t < 2:
        raise UsageError(f"arity must be an integer >= 2, got {t!r}")
    if not (isinstance(d0, (int, float)) and math.isfinite(d0) and d0 >= 0):
        raise UsageError(f"d0 must be a nonnegative real, got {d0!r}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise UsageError(f"iteration index must be a nonnegative integer, got {n!r}")
    return (t - 1) * delta ** n * d0 / (1.0 - delta)


@dataclass(frozen=True)
class StopRule:
    """Termination policy for Picard runs.

    ``eps`` is the a-posteriori step target; ``bound_eps``, when set, stops
    as soon as the a-priori tail envelope drops below it.  Divergence is
    declared after ``_GROWTH_WINDOW`` consecutive steps each growing by more
    than ``_GROWTH_FACTOR``.
    """

    eps: float = 1e-12
    max_iter: int = 10_000
    bound_eps: float | None = None

    def __post_init__(self):
        if not (isinstance(self.eps, (int, float)) and self.eps > 0):
            raise UsageError(f"eps must be positive, got {self.eps!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise UsageError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.bound_eps is not None and not self.bound_eps > 0:
            raise UsageError(f"bound_eps must be positive when set, got {self.bound_eps!r}")


@dataclass
class PicardTrace:
    """Full record of one Picard run.

    ``steps[n]`` is rep(x_{n+1}, x_n); ``delta < 0`` means envelope
    monitoring was disabled for the run.
    """

    iterates: tuple
    steps: tuple
    delta: float
    d0: float
    t: int
    status: str
    limit: Point | None

    @property
    def monitored(self) -> bool:
        return self.delta >= 0.0

    def bound(self, n: int) -> float:
        return self.delta ** n * self.d0

    def tail(self, n: int) -> float:
        return tail_bound(self.delta, self.t, self.d0, n)

    def csv_rows(self) -> list[tuple]:
        rows = []
        prev = None
        for n, step in enumerate(self.steps):
            ratio = None if prev in (None, 0.0) else step / prev
            if self.monitored:
                rows.append((n, step, self.bound(n), ratio, self.tail(n)))
            else:
                rows.append((n, step, None, ratio, None))
            prev = step
        return rows

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.csv_rows():
            cells = [str(row[0])]
            cells += ["" if v is None else format(v, ".17g") for v in row[1:]]
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    def summary_dict(self) -> dict:
        final_step = self.steps[-1] if self.steps else 0.0
        n = len(self.steps)
        return {
            "status": self.status,
            "iterations": n,
            "d0": _json_num(self.d0),
            "delta": _json_num(self.delta) if self.monitored else None,
            "final_step": _json_num(final_step),
            "final_bound": _json_num(self.bound(n - 1)) if self.monitored and n else None,
            "final_tail_bound": _json_num(self.tail(n)) if self.monitored else None,
            "limit": _json_points(self.limit),
        }


def picard_run(space: AMetricSpace, f: SelfMap, x0: Point, delta: float,
               rule: StopRule) -> PicardTrace:
    """Iterate x_{n+1} = f(x_n), recording steps and envelope data.

    ``delta`` in [0, 1) enables envelope monitoring; any negative value
    disables it (for maps without a certificate).  An iterate leaving the
    carrier raises :class:`CarrierDomainError` with the escaping index.
    """
    if delta >= 1.0:
        raise UsageError(f"need delta < 1 (or negative to disable monitoring), got {delta!r}")
    canon, rep = space.carrier.canon, space.rep_fn
    x = canon(x0)
    iterates, steps = [x], []
    d0, growth_run = 0.0, 0
    status, limit = "max_iter", None
    bounded = delta >= 0.0 and rule.bound_eps is not None
    while len(steps) < rule.max_iter:
        try:
            nxt = canon(f(x))
        except CarrierDomainError as err:
            n = len(iterates)
            raise CarrierDomainError(f"iterate {n} escaped the carrier: {err}",
                                     point=err.point, index=n) from None
        step = rep(nxt, x)
        if not steps:
            # x0 is already fixed: the trace keeps x0 alone and no steps.
            if step == 0.0:
                status, limit = "converged", x
                break
            d0 = step
        growth_run = growth_run + 1 if steps and step > steps[-1] * _GROWTH_FACTOR else 0
        iterates.append(nxt)
        steps.append(step)
        x = nxt
        if step <= rule.eps or (bounded and
                                tail_bound(delta, space.t, d0, len(steps)) <= rule.bound_eps):
            status, limit = "converged", x
            break
        if growth_run >= _GROWTH_WINDOW:
            status = "diverged"
            break

    return PicardTrace(iterates=tuple(iterates), steps=tuple(steps), delta=delta,
                       d0=d0, t=space.t, status=status, limit=limit)


def verify_decay(trace: PicardTrace, tol: float = 1e-9, max_witnesses: int = 100) -> CheckReport:
    """Geometric decay of the step sequence under the trace's delta.

    Asserts d_n <= delta * d_{n-1} and d_n <= delta^n * d_0 for every
    recorded step.
    """
    if not trace.monitored:
        raise UsageError("verify_decay needs a trace with envelope monitoring enabled")
    rec = _Recorder("decay", max_witnesses)
    for n, step in enumerate(trace.steps):
        if n > 0:
            rhs = trace.delta * trace.steps[n - 1]
            rec.add("step-ratio", (n,), step, rhs, scaled_tol(tol, step, rhs))
        rhs_pow = trace.bound(n)
        rec.add("step-envelope", (n,), step, rhs_pow, scaled_tol(tol, step, rhs_pow))
    return rec.report()


def verify_cauchy(trace: PicardTrace, space: AMetricSpace, tol: float = 1e-9,
                  max_witnesses: int = 100) -> CheckReport:
    """Pairwise iterate distances against the tail envelope.

    For all recorded n < m, asserts rep(x_n, x_m) <= tail(n).  Iterates are
    validated once, on entry, into one point array; the pairs are swept in
    (n, m) order, BLOCK pairs at a time.
    """
    if not trace.monitored:
        raise UsageError("verify_cauchy needs a trace with envelope monitoring enabled")
    n_pts = len(trace.iterates)
    if n_pts < 3:
        raise UsageError(f"verify_cauchy needs at least 3 iterates, got {n_pts}")
    pts = space.carrier.array(trace.iterates)
    rec = _Recorder("cauchy", max_witnesses)
    tails = np.array([trace.tail(n) for n in range(n_pts - 1)])
    # Row n holds the pairs (n, n+1), ..., (n, n_pts-1); first[n] is the
    # position of (n, n+1) in the sweep.
    first = np.concatenate(([0], np.cumsum(np.arange(n_pts - 1, 1, -1))))
    n_pairs = n_pts * (n_pts - 1) // 2
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, n_pairs, BLOCK):
            k = np.arange(start, min(start + BLOCK, n_pairs))
            n = np.searchsorted(first, k, side="right") - 1
            m = k - first[n] + n + 1
            val = space.rep_many(pts[n], pts[m])
            envelope = tails[n]
            rec.add_many(lambda law, i: (int(n[i]), int(m[i])), (
                ("tail-envelope", val, envelope, scaled_tols(tol, val, envelope), None),
            ))
    report = rec.report()
    report.info = {"envelope_rate": (report.checked - report.violations_total) / report.checked}
    return report


def uniqueness_probe(space: AMetricSpace, f: SelfMap, starts: Iterable[Point], delta: float,
                     rule: StopRule, tol: float = 1e-9, max_witnesses: int = 100) -> CheckReport:
    """Multi-start agreement: every run must converge to one common point.

    Limits must agree pairwise within a tolerance derived from the stop
    rule (finishing steps dominate eq_tol), and the consensus limit must be
    a fixed point up to the residual acceptance 10 * eps.  When the rule's
    ``bound_eps`` applies (``delta >= 0``), a run may stop anywhere within
    bound_eps of the fixed point p: two such limits a, b are within
    rep(a, b) <= (t-1) rep(a, p) + rep(b, p) <= t * bound_eps of each other,
    and the step after a limit, below its envelope delta^n * d0, is within
    bound_eps.  Both terms are added to the respective tolerances.
    """
    start_list = list(starts)
    if len(start_list) < 2:
        raise UsageError("uniqueness_probe needs at least 2 starting points")
    rec = _Recorder("uniqueness", max_witnesses)
    limits = []
    for x0 in start_list:
        trace = picard_run(space, f, x0, delta, rule)
        if trace.status != "converged":
            rec.add(f"non-convergence[{trace.status}]", (x0,), math.inf, 0.0, 0.0)
            continue
        limits.append((x0, trace.limit))

    coords = space.carrier.coords
    magnitudes = [abs(c) for _, p in limits for c in coords(p)]
    spread_cap = 1.0 - max(delta, 0.0)
    bound_eps = rule.bound_eps if delta >= 0.0 and rule.bound_eps is not None else 0.0
    agree_tol = max(
        scaled_tol(space.eq_tol, *magnitudes),
        _RESIDUAL_FACTOR * (space.t - 1) * rule.eps / spread_cap,
    ) + space.t * bound_eps
    # Limits are canonical: picard_run validates every iterate.
    rep = space.rep_fn
    for i, (sa, pa) in enumerate(limits):
        for sb, pb in limits[i + 1:]:
            gap = rep(pa, pb)
            rec.add("limit-agreement", (sa, sb), gap, 0.0, agree_tol)

    info: dict = {"n_starts": len(start_list), "n_converged": len(limits)}
    if limits:
        p = limits[0][1]
        residual = rep(space.carrier.canon(f(p)), p)
        rec.add("fixed-point-residual", (p,), residual, 0.0, _RESIDUAL_FACTOR * rule.eps + bound_eps)
        info["limit"] = _json_points(p)
        info["residual"] = residual
    return rec.report(info=info)


def brute_force_fixed_points(space: AMetricSpace, f: SelfMap) -> tuple:
    """All fixed points of a finite-carrier map, by full enumeration."""
    if not space.carrier.finite:
        raise UsageError("brute_force_fixed_points needs a finite carrier")
    size = space.carrier.size
    return tuple(i for i in range(size) if space.carrier.canon(f(i)) == i)
