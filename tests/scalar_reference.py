"""Scalar reference for the array sweeps: one Python call per entry or pair.

These are the loops `check_axioms`, `check_symmetry`,
`check_triangle_inequality`, `verify_cauchy`, `classify` and
`verify_contraction_inequalities` ran before they became numpy
expressions over blocks.  They use only the scalar forms of a space and a
map (`carrier.canon`, `distance`, `rep_fn`, `f.fn`) and `_Recorder.add`,
so the differential tests can require the array path to give the same
report, down to the last bit and the sign of a zero.
"""

import math

from ametric_fix.core import _Recorder, _require_entries, scaled_tol
from ametric_fix.errors import UsageError
from ametric_fix.zamfirescu import (
    _ASSIGN_RTOL,
    BRANCH_BANACH,
    BRANCH_KANNAN,
    BranchConstants,
    ZamfirescuCertificate,
    compute_delta,
)


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
    rec = _Recorder("axioms", max_witnesses)
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
    rec = _Recorder("symmetry", max_witnesses)
    canon, rep = space.carrier.canon, space.rep_fn
    for entry in entries:
        x, y = canon(entry[0]), canon(entry[1])
        fwd = rep(x, y)
        bwd = rep(y, x)
        rec.add("symmetry", entry, abs(fwd - bwd), 0.0, scaled_tol(tol, fwd, bwd))
    return rec.report(exhaustive=pairs.exhaustive)


def check_triangle_inequality(space, triples, tol=1e-9, max_witnesses=100):
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


def verify_cauchy(trace, space, tol=1e-9, max_witnesses=100):
    pts = list(map(space.carrier.canon, trace.iterates))
    rep = space.rep_fn
    rec = _Recorder("cauchy", max_witnesses)
    n_pts = len(pts)
    for n in range(n_pts - 1):
        envelope = trace.tail(n)
        for m in range(n + 1, n_pts):
            val = rep(pts[n], pts[m])
            rec.add("tail-envelope", (n, m), val, envelope, scaled_tol(tol, val, envelope))
    report = rec.report()
    report.info = {"envelope_rate": (report.checked - report.violations_total) / report.checked}
    return report


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


def classify(space, f, pairs, *, max_witnesses=100):
    if len(pairs) == 0:
        raise UsageError("classify needs a nonempty pair set")
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
            branch = _best(bc, space.t)[1]
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
        t=space.t, a=a, b=b, c=c, delta=delta, valid=valid, exhaustive=pairs.exhaustive,
        n_pairs=len(pairs), assignments=tuple(assignments), witnesses=tuple(witnesses),
    )


def verify_contraction_inequalities(space, f, delta, pairs, tol=1e-9, max_witnesses=100):
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
