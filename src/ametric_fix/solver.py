"""Picard iteration with certified geometric error envelopes.

For a certified map with contraction factor delta, the step sizes
d_n = rep(x_{n+1}, x_n) decay geometrically (d_n <= delta^n * d_0) and the
distance from iterate n to the fixed point is bounded by the tail envelope

    tail(n) = (t - 1) * delta^n * d_0 / (1 - delta).

The envelope comes from chaining the triangle-type inequality over the
step sequence and summing the full geometric series; the full series bounds
every partial sum, so it also dominates rep(x_n, x_m) for every m > n.

A trace computes its envelope table, the columns delta^n * d_0 and tail(n),
once; the CSV writer, the summary and both envelope checks read it.  The
Cauchy check is exhaustive over all pairs n < m, yet needs only O(n) work
on spaces with a ``farthest_later`` kernel.  tail(n) depends on the row n
only, and the gap rep(x_n, x_m) - tail(n) rounds to a nondecreasing
function of rep(x_n, x_m); for a nonnegative tolerance, the scaled
tolerance of a pair is at least that of tail(n) alone.  So a row whose
largest gap is within the tolerance of tail(n) alone has no violation, and
only the other rows have their pairs enumerated.

A Picard run costs its arithmetic.  Iterate n + 1 is ``canon(f.fn(x_n))``
and step n is rep(x_{n+1}, x_n): one call of the map's scalar form, one
``carrier.canon`` (which returns a canonical point inside the carrier as
it is), one ``rep_fn`` and two appends per step, with every other lookup
bound once per run.  After each recorded step the run stops as converged
when the step is at most ``eps`` or, with monitoring, tail(n) is at most
``bound_eps``; then as diverged after ``_GROWTH_WINDOW`` growing steps in a
row; then at ``max_iter`` steps.  A step that is not finite ends the run
unrecorded, and an iterate outside the carrier raises with its index.  The
first step is taken before the loop: it sets d0, or ends the run at once
when x0 is already fixed.

The module also provides multi-start uniqueness probing and an exhaustive
fixed-point oracle for finite carriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    BLOCK,
    AMetricSpace,
    CheckReport,
    Point,
    _Recorder,
    scaled_tol,
    scaled_tols,
)
from .errors import CarrierDomainError, UsageError, finite_real, integer
from .sampling import _python
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
    delta = finite_real(delta, "delta", 0)
    if delta >= 1.0:
        raise UsageError(f"delta must be < 1, got {delta!r}")
    return _tail(delta, integer(t, "t", 2), finite_real(d0, "d0", 0), integer(n, "n", 0))


def _tail(delta: float, t: int, d0: float, n: int) -> float:
    """:func:`tail_bound` on values it has checked."""
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
        object.__setattr__(self, "eps", finite_real(self.eps, "eps", 0, strict=True))
        object.__setattr__(self, "max_iter", integer(self.max_iter, "max_iter", 1))
        if self.bound_eps is not None:
            object.__setattr__(self, "bound_eps",
                               finite_real(self.bound_eps, "bound_eps", 0, strict=True))


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

    @cached_property
    def envelope(self) -> tuple[np.ndarray, np.ndarray]:
        """The columns bound(n) and tail(n) for n = 0..len(steps), built on first use.

        Entry n has the bits of ``bound(n)`` and ``tail(n)``: delta^n by
        Python ``**``, then the same operations in the same order.  The
        trace's delta, t and d0 are validated once, as :func:`tail_bound`
        validates them.
        """
        tail_bound(self.delta, self.t, self.d0, 0)
        powers = np.array([self.delta ** n for n in range(len(self.steps) + 1)], dtype=float)
        with np.errstate(over="ignore"):
            return powers * self.d0, (self.t - 1) * powers * self.d0 / (1.0 - self.delta)

    def to_csv(self) -> str:
        """One row per step, floats with 17 significant digits.

        The ratio cell is empty on row 0 and after a zero step, the envelope
        cells when monitoring is off.  Each row is one ``%`` format:
        ``'%.17g' % v`` is ``format(v, '.17g')``.
        """
        if self.monitored:
            bound, tail = (column.tolist() for column in self.envelope)
        lines = [",".join(CSV_COLUMNS) + "\n"]
        prev = None
        for n, step in enumerate(self.steps):
            has_ratio = prev not in (None, 0.0)
            if self.monitored and has_ratio:
                row = "%d,%.17g,%.17g,%.17g,%.17g\n" % (n, step, bound[n], step / prev, tail[n])
            elif self.monitored:
                row = "%d,%.17g,%.17g,,%.17g\n" % (n, step, bound[n], tail[n])
            elif has_ratio:
                row = "%d,%.17g,,%.17g,\n" % (n, step, step / prev)
            else:
                row = "%d,%.17g,,,\n" % (n, step)
            lines.append(row)
            prev = step
        return "".join(lines)

    def summary_dict(self) -> dict:
        """The report's trace summary, as raw values (``core.json_text`` writes
        them).  A run that stopped unconverged before its first step (an
        ``"overflow"``) has no d0, final step or tail bound."""
        n = len(self.steps)
        stepped = n > 0 or self.status == "converged"
        bound, tail = self.envelope if self.monitored else (None, None)
        return {
            "status": self.status,
            "iterations": n,
            "d0": self.d0 if stepped else None,
            "delta": self.delta if self.monitored else None,
            "final_step": (self.steps[-1] if n else 0.0) if stepped else None,
            "final_bound": float(bound[n - 1]) if self.monitored and n else None,
            "final_tail_bound": float(tail[n]) if self.monitored and stepped else None,
            "limit": self.limit,
        }


def _escaped(err: CarrierDomainError, n: int) -> CarrierDomainError:
    """The error for iterate ``n`` leaving the carrier, from the carrier's own."""
    return CarrierDomainError(f"iterate {n} escaped the carrier: {err}", point=err.point, index=n)


def picard_run(space: AMetricSpace, f: SelfMap, x0: Point, delta: float,
               rule: StopRule) -> PicardTrace:
    """Iterate x_{n+1} = f(x_n), recording steps and envelope data.

    ``delta`` must be finite: in [0, 1) it enables envelope monitoring; any
    negative value disables it (for maps without a certificate).  An iterate
    leaving the carrier raises :class:`CarrierDomainError` with the escaping
    index.  A step whose rep is not finite ends the run, unrecorded, as
    ``"overflow"``.  The module docstring gives the loop's contract.
    """
    delta = finite_real(delta, "delta")
    if delta >= 1.0:
        raise UsageError(f"need delta < 1 (or negative to disable monitoring), got {delta!r}")
    canon, rep, fn, t = space.carrier.canon, space.rep_fn, f.fn, space.t
    eps, max_iter, bound_eps = rule.eps, rule.max_iter, rule.bound_eps
    bounded = delta >= 0.0 and bound_eps is not None
    isfinite = math.isfinite
    x = canon(x0)
    iterates, steps = [x], []
    keep_iterate, keep_step = iterates.append, steps.append
    d0, status, limit = 0.0, "max_iter", None
    n = 1  # the index of the next iterate: once kept, the number of steps
    try:
        nxt = canon(fn(x))
    except CarrierDomainError as err:
        raise _escaped(err, n) from None
    step = rep(nxt, x)
    if not isfinite(step):
        status = "overflow"
    elif step == 0.0:
        # x0 is already fixed: the trace keeps x0 alone and no steps.
        status, limit = "converged", x
    else:
        d0, growth_run = step, 0
        while True:
            keep_iterate(nxt)
            keep_step(step)
            x = nxt
            if step <= eps or (bounded and _tail(delta, t, d0, n) <= bound_eps):
                status, limit = "converged", x
                break
            if growth_run >= _GROWTH_WINDOW:
                status = "diverged"
                break
            if n == max_iter:
                break
            n += 1
            grown = step * _GROWTH_FACTOR
            try:
                nxt = canon(fn(x))
            except CarrierDomainError as err:
                raise _escaped(err, n) from None
            step = rep(nxt, x)
            if not isfinite(step):
                status = "overflow"
                break
            growth_run = growth_run + 1 if step > grown else 0

    return PicardTrace(iterates=tuple(iterates), steps=tuple(steps), delta=delta,
                       d0=d0, t=t, status=status, limit=limit)


def verify_decay(trace: PicardTrace, tol: float = 1e-9) -> CheckReport:
    """Geometric decay of the step sequence under the trace's delta.

    Asserts d_n <= delta * d_{n-1} and d_n <= delta^n * d_0 for every
    recorded step, in one array pass over the steps and the envelope table.
    The report keeps the first ``core.MAX_WITNESSES`` violations.
    """
    tol = finite_real(tol, "tol")
    if not trace.monitored:
        raise UsageError("verify_decay needs a trace with envelope monitoring enabled")
    steps = np.array(trace.steps, dtype=float)
    bound = trace.envelope[0][:len(steps)]
    rec = _Recorder("decay")
    with np.errstate(invalid="ignore", over="ignore"):
        # Entry n of ratio is delta * d_{n-1}; entry 0 is masked out.
        ratio = trace.delta * np.concatenate((steps[:1], steps[:-1]))
        rec.add_many(lambda law, n: (n,), (
            ("step-ratio", steps, ratio, scaled_tols(tol, steps, ratio), np.arange(len(steps)) > 0),
            ("step-envelope", steps, bound, scaled_tols(tol, steps, bound), None),
        ))
    return rec.report(exhaustive=True)


def verify_cauchy(trace: PicardTrace, space: AMetricSpace, tol: float = 1e-9) -> CheckReport:
    """Pairwise iterate distances against the tail envelope.

    For all recorded n < m, asserts rep(x_n, x_m) <= tail(n).  Iterates are
    validated once, on entry, into one point array.

    Row n holds the pairs (n, m), m > n.  With the space's
    ``farthest_later`` kernel and a tolerance ``tol >= 0``, each row's
    largest value val = rep(x_n, x_m*) is computed by ``rep_many``, so it
    has the bits the full sweep would give it.  The row is cleared when
    val - tail(n) <= scaled_tol(tol, tail(n)).  That test is exact: every
    pair of the row has a gap fl(rep - tail(n)) <= fl(val - tail(n)), and a
    scaled tolerance scaled_tol(tol, rep, tail(n)) >= scaled_tol(tol,
    tail(n)).  A NaN or +inf gap never clears a row.  The other rows, and
    every row of a space without the kernel, are swept pair by pair in
    (n, m) order, BLOCK pairs at a time, so the violations, their count and
    their order are those of the full sweep.  ``checked`` counts all
    n(n-1)/2 pairs, and ``max_gap`` is the largest of the cleared rows' and
    the swept pairs' gaps, a zero written as 0.0.  The first
    ``core.MAX_WITNESSES`` violations are kept.
    """
    tol = finite_real(tol, "tol")
    if not trace.monitored:
        raise UsageError("verify_cauchy needs a trace with envelope monitoring enabled")
    n_pts = len(trace.iterates)
    if n_pts < 3:
        raise UsageError(f"verify_cauchy needs at least 3 iterates, got {n_pts}")
    pts = space.carrier.array(trace.iterates)
    rec = _Recorder("cauchy")
    tails = trace.envelope[1][:n_pts - 1]
    rows = np.arange(n_pts - 1)
    with np.errstate(invalid="ignore", over="ignore"):
        if space.farthest_later is not None and tol >= 0.0:
            gap = space.rep_many(pts[:-1], pts[space.farthest_later(pts)]) - tails
            cleared = gap <= scaled_tols(tol, tails)
            rec.add_cleared(int((n_pts - 1 - rows[cleared]).sum()),
                            float(np.max(gap, where=cleared, initial=-math.inf)))
            rows = rows[~cleared]
        # Swept row rows[j] holds the pairs (n, n+1), ..., (n, n_pts-1);
        # first[j] is the position of its first pair in the sweep.
        sizes = n_pts - 1 - rows
        first = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        n_pairs = int(sizes.sum())
        for start in range(0, n_pairs, BLOCK):
            k = np.arange(start, min(start + BLOCK, n_pairs))
            j = np.searchsorted(first, k, side="right") - 1
            n = rows[j]
            m = k - first[j] + n + 1
            val = space.rep_many(pts[n], pts[m])
            envelope = tails[n]
            rec.add_many(lambda law, i: (int(n[i]), int(m[i])), (
                ("tail-envelope", val, envelope, scaled_tols(tol, val, envelope), None),
            ))
    return rec.report(exhaustive=True, info={"envelope_rate": (rec.checked - rec.total) / rec.checked})


def uniqueness_probe(space: AMetricSpace, f: SelfMap, traces: Sequence[PicardTrace],
                     rule: StopRule) -> CheckReport:
    """Multi-start agreement: every run must converge to one common point.

    ``traces`` are finished runs under ``rule`` with one delta, one per start
    (a run's first iterate).  Limits must agree pairwise within a tolerance
    derived from the stop rule (finishing steps dominate eq_tol), and the
    consensus limit must be a fixed point up to the residual acceptance
    10 * eps.  When the rule's ``bound_eps`` applies (``delta >= 0``), a run
    may stop anywhere within bound_eps of the fixed point p: two such limits
    a, b are rep(a, b) <= (t-1) rep(a, p) + rep(b, p) <= t * bound_eps apart,
    and the step after a limit, below its envelope delta^n * d0, is within
    bound_eps.  Both terms are added to the respective tolerances.  The
    limits are read through ``carrier.array``, so a hand-built trace's bad
    limit raises ``canon``'s error.  The report keeps the first
    ``core.MAX_WITNESSES`` violations.
    """
    if len(traces) < 2 or len({trace.delta for trace in traces}) > 1:
        raise UsageError("uniqueness_probe needs at least 2 runs, all with one delta")
    delta = traces[0].delta
    rec = _Recorder("uniqueness")
    starts, ends = [], []
    for trace in traces:
        x0 = trace.iterates[0]
        if trace.status != "converged":
            rec.add(f"non-convergence[{trace.status}]", (x0,), math.inf, 0.0, 0.0)
            continue
        starts.append(x0)
        ends.append(trace.limit)

    # Validated as verify_cauchy validates iterates; the array sizes agree_tol.
    pts = space.carrier.array(ends)
    limits = list(zip(starts, _python(pts.tolist())))
    spread_cap = 1.0 - max(delta, 0.0)
    bound_eps = rule.bound_eps if delta >= 0.0 and rule.bound_eps is not None else 0.0
    agree_tol = max(
        scaled_tol(space.eq_tol, *pts.ravel().tolist()),
        _RESIDUAL_FACTOR * (space.t - 1) * rule.eps / spread_cap,
    ) + space.t * bound_eps
    rep = space.rep_fn
    for i, (sa, pa) in enumerate(limits):
        for sb, pb in limits[i + 1:]:
            gap = rep(pa, pb)
            rec.add("limit-agreement", (sa, sb), gap, 0.0, agree_tol)

    info: dict = {"n_starts": len(traces), "n_converged": len(limits)}
    if limits:
        p = limits[0][1]
        residual = rep(space.carrier.canon(f(p)), p)
        rec.add("fixed-point-residual", (p,), residual, 0.0, _RESIDUAL_FACTOR * rule.eps + bound_eps)
        info["limit"] = p
        info["residual"] = residual
    return rec.report(info=info)


def brute_force_fixed_points(space: AMetricSpace, f: SelfMap) -> tuple:
    """All fixed points of a finite-carrier map, by full enumeration."""
    if not space.carrier.finite:
        raise UsageError("brute_force_fixed_points needs a finite carrier")
    size = space.carrier.size
    return tuple(i for i in range(size) if space.carrier.canon(f(i)) == i)
