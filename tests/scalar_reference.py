"""Scalar reference for the array sweeps: one Python call per entry or pair.

These are the loops `check_axioms`, `check_symmetry`,
`check_triangle_inequality`, `verify_decay`, `verify_cauchy`, `classify`
and `verify_contraction_inequalities` ran before they became numpy
expressions over blocks, and `uniqueness_probe` before its limit agreement
went through `verify_cauchy`'s sweep of later pairs.  They use only the
scalar forms of a space, a map and a trace (`carrier.canon`, `distance`,
`rep_fn`, `f.fn`, `bound(trace, n)`, `tail(trace, n)`) and `_Recorder.add`,
so the differential tests can require the array path to give the same report,
down to the last bit.  Both sides write their reports through
`_Recorder.report`, which writes a zero max_gap as 0.0.

`branches` is the per-pair branch assignment inside `classify`, which the
certificate reports only as counts per branch.

`canon` is the carriers' `canon` before it returned canonical points as
they are, converting every value by `errors.real`'s rule, and `picard_run`
the Picard loop before its per-step lookups left the loop; the tests
require the same values, types, traces and errors of both.

`read_table` is the CLI's entry-by-entry check of `space.base_table`
before one reader served the CLI and the library, widened to the rows the
library takes (tuples, and a 2-d array through `tolist()`).

`box_sample`, `box_equal` and `box_spread` are `Box.sample`, `Box.equal`
and `Box.spread` before they ran along the long axis of a block:
`rng.uniform` and reductions over the tuple slots and the coordinates.
`l1_nd_many` is the l1 base kernel at d > 1 before it broadcast over
leading axes, and `lift_distance_many` the lift's `distance_many` before it
made one base call per tuple slot: one base call per pair (i, j), in the
scalar `distance`'s order.

`bound` and `tail` are the scalar envelope entries, once the trace methods
`bound(n)` and `tail(n)`, that the envelope table must equal bit for bit.
`trace_csv` is `PicardTrace.to_csv` before the CSV came in row blocks: one
loop over every row, each row one `%` format, joined once.

`report_json` is the report rule before `core.json_text` wrote reports in
one pass: `jsonable`, the walk that made a report JSON-safe (a report
object as its old `to_dict`, a numpy array as its `tolist()`), then json's
indent-2 encoder.

`sample_entries`, `sample_entry` and `product_entries` are the reads of
`SampleSet` and `ProductSet` before both were built from `block`: a drawn
set's `_python` of its point array, or of one row of it, and an enumerated
set's `itertools.product`.

`AFFINE_KERNELS` holds the coordinate kernels of the `linear-scale`,
`affine` and `shift` map kinds before the three shared one, `a * x + c`.
"""

import itertools
import json
import math

import numpy as np

from ametric_fix.core import CheckReport, Violation, _Recorder, scaled_tol
from ametric_fix.errors import CarrierDomainError, UsageError, finite_real, integer, real
from ametric_fix.sampling import _python
from ametric_fix.solver import (
    _GROWTH_FACTOR,
    _GROWTH_WINDOW,
    _RESIDUAL_FACTOR,
    CSV_COLUMNS,
    PicardTrace,
    _tail,
    tail_bound,
)
from ametric_fix.zamfirescu import (
    _ASSIGN_RTOL,
    BRANCH_BANACH,
    BRANCH_KANNAN,
    BranchConstants,
    ZamfirescuCertificate,
    compute_delta,
)


class Given(tuple):
    """Entries as given, not validated, for the loops below, which validate
    each point as they reach it (a ``SampleSet`` validates them when made)."""

    exhaustive = False

    @property
    def entries(self):
        return tuple(self)


def _recorder(name, max_witnesses):
    """A recorder keeping the first ``max_witnesses`` violations: the
    reference takes its cap as an argument, the array path reads
    ``core.MAX_WITNESSES``."""
    rec = _Recorder(name)
    rec.cap = max_witnesses
    return rec


def _require_entries(samples, width, what):
    if len(samples) == 0:
        raise UsageError(f"{what} needs a nonempty sample set")
    entries = samples.entries
    for entry in entries:
        if not isinstance(entry, tuple) or len(entry) != width:
            raise UsageError(f"{what} expects entries of {width} points, got {entry!r}")
    return entries


def _equal(carrier, a, b, tol):
    if carrier.finite:
        return a == b
    if carrier.d == 1:
        return abs(a - b) <= tol
    return max(abs(p - q) for p, q in zip(a, b)) <= tol


def _spread(carrier, pts):
    if carrier.finite:
        return 0.0 if all(p == pts[0] for p in pts) else math.inf
    if carrier.d == 1:
        return max(pts) - min(pts)
    return max(abs(a - b) for i, p in enumerate(pts) for q in pts[i + 1:] for a, b in zip(p, q))


def check_axioms(space, samples, tol=1e-9, max_witnesses=100):
    entries = _require_entries(samples, space.t + 1, "check_axioms")
    rec = _recorder("axioms", max_witnesses)
    t, carrier, rep, eq_tol = space.t, space.carrier, space.rep_fn, space.eq_tol
    for entry in entries:
        pts = tuple(map(carrier.canon, entry))
        xs, pivot, given = pts[:t], pts[t], entry[:t]
        d = float(space.distance(xs))
        te = scaled_tol(tol, d)
        rec.add("nonneg", given, 0.0, d, te)
        if all(_equal(carrier, xs[0], p, eq_tol) for p in xs[1:]):
            rec.add("identity", given, abs(d), 0.0, te)
        elif abs(d) <= te:
            rec.add("identity-reverse", given, _spread(carrier, xs), max(10.0 * te, eq_tol), 0.0)
        rhs = 0.0
        for x in xs:
            rhs += rep(x, pivot)
        rec.add("simplex", entry, d, rhs, scaled_tol(tol, d, rhs))
    return rec.report(exhaustive=samples.exhaustive)


def check_symmetry(space, pairs, tol=1e-9, max_witnesses=100):
    entries = _require_entries(pairs, 2, "check_symmetry")
    rec = _recorder("symmetry", max_witnesses)
    canon, rep = space.carrier.canon, space.rep_fn
    for entry in entries:
        x, y = canon(entry[0]), canon(entry[1])
        fwd = rep(x, y)
        bwd = rep(y, x)
        rec.add("symmetry", entry, abs(fwd - bwd), 0.0, scaled_tol(tol, fwd, bwd))
    return rec.report(exhaustive=pairs.exhaustive)


def check_triangle_inequality(space, triples, tol=1e-9, max_witnesses=100):
    entries = _require_entries(triples, 3, "check_triangle_inequality")
    rec = _recorder("triangle", max_witnesses)
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


def bound(trace, n):
    return trace.delta ** n * trace.d0


def tail(trace, n):
    return tail_bound(trace.delta, trace.t, trace.d0, n)


def trace_csv(trace):
    if trace.monitored:
        bound, tail = (column.tolist() for column in trace.envelope)
    lines = [",".join(CSV_COLUMNS) + "\n"]
    prev = None
    for n, step in enumerate(trace.steps):
        has_ratio = prev not in (None, 0.0)
        if trace.monitored and has_ratio:
            row = "%d,%.17g,%.17g,%.17g,%.17g\n" % (n, step, bound[n], step / prev, tail[n])
        elif trace.monitored:
            row = "%d,%.17g,%.17g,,%.17g\n" % (n, step, bound[n], tail[n])
        elif has_ratio:
            row = "%d,%.17g,,%.17g,\n" % (n, step, step / prev)
        else:
            row = "%d,%.17g,,,\n" % (n, step)
        lines.append(row)
        prev = step
    return "".join(lines)


def verify_decay(trace, tol=1e-9, max_witnesses=100):
    if not trace.monitored:
        raise UsageError("verify_decay needs a trace with envelope monitoring enabled")
    rec = _recorder("decay", max_witnesses)
    for n, step in enumerate(trace.steps):
        if n > 0:
            rhs = trace.delta * trace.steps[n - 1]
            rec.add("step-ratio", (n,), step, rhs, scaled_tol(tol, step, rhs))
        rhs_pow = bound(trace, n)
        rec.add("step-envelope", (n,), step, rhs_pow, scaled_tol(tol, step, rhs_pow))
    return rec.report(exhaustive=True)


def verify_cauchy(trace, space, tol=1e-9, max_witnesses=100):
    pts = list(map(space.carrier.canon, trace.iterates))
    rep = space.rep_fn
    rec = _recorder("cauchy", max_witnesses)
    n_pts = len(pts)
    for n in range(n_pts - 1):
        envelope = tail(trace, n)
        for m in range(n + 1, n_pts):
            val = rep(pts[n], pts[m])
            rec.add("tail-envelope", (n, m), val, envelope, scaled_tol(tol, val, envelope))
    report = rec.report(exhaustive=True)
    report.info = {"envelope_rate": (report.checked - report.violations_total) / report.checked}
    return report


def uniqueness_probe(space, f, traces, rule, max_witnesses=100):
    needed = min(2, getattr(space.carrier, "size", 2))
    if len(traces) < needed or len({tr.delta for tr in traces}) > 1:
        raise UsageError(f"uniqueness_probe needs {needed} or more runs, all with one delta")
    delta = traces[0].delta
    rec = _recorder("uniqueness", max_witnesses)
    starts, ends = [], []
    for trace in traces:
        x0 = trace.iterates[0]
        if trace.status != "converged":
            rec.add(f"non-convergence[{trace.status}]", (x0,), math.inf, 0.0, 0.0)
            continue
        starts.append(x0)
        ends.append(trace.limit)

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

    info = {"n_starts": len(traces), "n_converged": len(limits)}
    if limits:
        p = limits[0][1]
        residual = rep(space.carrier.canon(f(p)), p)
        rec.add("fixed-point-residual", (p,), residual, 0.0, _RESIDUAL_FACTOR * rule.eps + bound_eps)
        info["limit"] = p
        info["residual"] = residual
    return rec.report(info=info)


def _needed(num, den):
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _branch_constants(rep, x, y, cx, cy, fx, fy):
    num = rep(fx, fy)
    a_req = _needed(num, rep(cx, cy))
    b_req = _needed(num, rep(fx, cx) + rep(fy, cy))
    c_req = _needed(num, rep(fx, cy) + rep(fy, cx))
    return BranchConstants(x=x, y=y, a_req=a_req, b_req=b_req, c_req=c_req)


def _best(bc, t):
    ratios = bc.normalized(t)
    branch = min(range(3), key=lambda i: ratios[i])
    return ratios[branch], branch + 1


def _assign(space, f, pairs):
    """Each pair as (branch constants, best ratio, branch), and whether the
    certificate is valid."""
    canon, rep = space.carrier.canon, space.rep_fn
    per_pair = []
    worst = 0.0
    for x, y in pairs:
        cx, cy = canon(x), canon(y)
        bc = _branch_constants(rep, x, y, cx, cy, canon(f(cx)), canon(f(cy)))
        ratio, _ = _best(bc, space.t)
        per_pair.append((bc, ratio))
        if ratio > worst:
            worst = ratio
    valid = worst < 1.0
    threshold = worst * (1.0 + _ASSIGN_RTOL)

    assigned = []
    for bc, ratio in per_pair:
        ratios = bc.normalized(space.t)
        branch = None
        for i, r in enumerate(ratios):
            if r <= threshold and (not valid or r < 1.0):
                branch = i + 1
                break
        if branch is None:
            branch = _best(bc, space.t)[1]
        assigned.append((bc, ratio, branch))
    return assigned, valid


def branches(space, f, pairs):
    """Each pair's branch in classify's canonical assignment, in pair order."""
    return [branch for _, _, branch in _assign(space, f, pairs)[0]]


def classify(space, f, pairs, *, max_witnesses=100):
    if len(pairs) == 0:
        raise UsageError("classify needs a nonempty pair set")
    assigned, valid = _assign(space, f, pairs)
    a = b = c = 0.0
    counts = {"banach": 0, "kannan": 0, "chatterjea": 0}
    witnesses = []
    for bc, ratio, branch in assigned:
        if branch == BRANCH_BANACH:
            a = max(a, bc.a_req)
            counts["banach"] += 1
        elif branch == BRANCH_KANNAN:
            b = max(b, bc.b_req)
            counts["kannan"] += 1
        else:
            c = max(c, bc.c_req)
            counts["chatterjea"] += 1
        if ratio >= 1.0 and len(witnesses) < max_witnesses:
            witnesses.append(bc)

    delta = compute_delta(a, b, c, space.t) if valid else None
    return ZamfirescuCertificate(
        t=space.t, a=a, b=b, c=c, delta=delta, valid=valid, exhaustive=pairs.exhaustive,
        n_pairs=len(pairs), branch_counts=counts, witnesses=tuple(witnesses),
    )


def verify_contraction_inequalities(space, f, delta, pairs, tol=1e-9, max_witnesses=100):
    if not (0.0 <= delta < 1.0):
        raise UsageError(f"need 0 <= delta < 1, got {delta!r}")
    if len(pairs) == 0:
        raise UsageError("verify_contraction_inequalities needs a nonempty pair set")
    rec = _recorder("contraction", max_witnesses)
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


def canon(carrier, p):
    """``carrier.canon(p)``, every point converted and checked."""
    if carrier.finite:
        p = integer(p, "point", maximum=None)
        if not 0 <= p < carrier.size:
            raise CarrierDomainError(f"index {p} outside carrier of size {carrier.size}", point=p)
        return p
    if len(carrier.lo) == 1:
        if isinstance(p, (tuple, list)):
            if len(p) != 1:
                raise UsageError(f"expected a scalar point, got {p!r}")
            p = p[0]
        x = real(p, "point")
        if not (carrier._lo_slack[0] <= x <= carrier._hi_slack[0]):
            raise CarrierDomainError(f"point {p!r} outside carrier box", point=p)
        return x
    if not isinstance(p, (tuple, list)) or len(p) != len(carrier.lo):
        raise UsageError(f"expected a point of dimension {carrier.d}, got {p!r}")
    x = tuple(real(c, "point coordinate") for c in p)
    for c, a, b in zip(x, carrier._lo_slack, carrier._hi_slack):
        if not (a <= c <= b):
            raise CarrierDomainError(f"point {p!r} outside carrier box", point=p)
    return x


def picard_run(space, f, x0, delta, rule):
    delta = finite_real(delta, "delta")
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
        if not math.isfinite(step):
            status = "overflow"
            break
        if not steps:
            if step == 0.0:
                status, limit = "converged", x
                break
            d0 = step
        growth_run = growth_run + 1 if steps and step > steps[-1] * _GROWTH_FACTOR else 0
        iterates.append(nxt)
        steps.append(step)
        x = nxt
        if step <= rule.eps or (bounded and
                                _tail(delta, space.t, d0, len(steps)) <= rule.bound_eps):
            status, limit = "converged", x
            break
        if growth_run >= _GROWTH_WINDOW:
            status = "diverged"
            break

    return PicardTrace(iterates=tuple(iterates), steps=tuple(steps), delta=delta,
                       d0=d0, t=space.t, status=status, limit=limit)


def read_table(table, what="base table"):
    """The rows' shape, then row by row its length and each entry through
    ``finite_real``, as a float array."""
    rows = table.tolist() if isinstance(table, np.ndarray) else table
    if not (isinstance(rows, (list, tuple)) and rows
            and all(isinstance(r, (list, tuple)) for r in rows)):
        raise UsageError(f"{what}: expected a nonempty list of rows")
    n, checked = len(rows), []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise UsageError(f"{what}[{i}]: expected {n} entries, got {len(row)}")
        checked.append([finite_real(v, f"{what}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(checked, dtype=float)


def box_sample(box, rng, n):
    rows = rng.uniform(box.lo, box.hi, size=(n, box.d))
    return rows[:, 0] if box.d == 1 else rows


def box_equal(box, a, b, tol):
    close = np.abs(np.subtract(a, b)) <= tol
    return close if box.d == 1 else np.all(close, axis=-1)


def box_spread(box, pts):
    gaps = pts.max(axis=1) - pts.min(axis=1)
    return gaps if box.d == 1 else gaps.max(axis=-1)


def l1_nd_many(xs, ys):
    total = np.zeros(len(xs))
    for k in range(xs.shape[1]):
        total += np.abs(xs[:, k] - ys[:, k])
    return total


def lift_distance_many(base_many, t, pts):
    total = np.zeros(len(pts))
    for i in range(t):
        for j in range(i + 1, t):
            total += base_many(pts[:, i], pts[:, j])
    return total


def jsonable(obj):
    """``obj`` made JSON-safe, at any depth: a tuple becomes a list, a numpy
    array the nested list it equals, a non-finite float its repr, a report
    object the dict of its old ``to_dict``."""
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (tuple, list)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, ZamfirescuCertificate):
        return jsonable({"t": obj.t, "a": obj.a, "b": obj.b, "c": obj.c, "delta": obj.delta,
                         "valid": obj.valid, "exhaustive": obj.exhaustive, "n_pairs": obj.n_pairs,
                         "branch_counts": obj.branch_counts, "witnesses": obj.witnesses})
    if isinstance(obj, (Violation, CheckReport, BranchConstants)):
        return jsonable(vars(obj))
    return obj


def report_json(doc):
    return json.dumps(jsonable(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def sample_entries(points):
    return _python(points.tolist())


def sample_entry(points, i):
    return _python(points[i].tolist())


def product_entries(n, width):
    return tuple(itertools.product(range(n), repeat=width))


AFFINE_KERNELS = {
    "linear-scale": lambda lam: lambda x: lam * x,
    "affine": lambda alpha, beta: lambda x: alpha * x + beta,
    "shift": lambda offset: lambda x: x + offset,
}
