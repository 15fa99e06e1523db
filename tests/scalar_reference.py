"""Scalar reference for the array sweeps: one Python call per entry or pair.

These are the loops `check_axioms`, `check_symmetry`,
`check_triangle_inequality` and `verify_cauchy` ran before they became
numpy expressions over blocks.  They use only the scalar forms of a space
(`carrier.canon`, `distance`, `rep_fn`) and `_Recorder.add`, so the
differential tests can require the array path to give the same report,
down to the last bit and the sign of a zero.
"""

import math

from ametric_fix.core import _Recorder, _require_entries, scaled_tol


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
