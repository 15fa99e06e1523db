"""Array sweeps against the scalar reference in ``scalar_reference.py``.

The law checks, the decay and Cauchy checks, the Zamfirescu certificate
and the contraction check run as numpy expressions over blocks of entries
(the Cauchy check clears whole rows by their maxima first); the reference
runs the same checks one Python call per entry.
Every comparison is on the full report JSON, so counts, max_gap, the first
violations and their order, witnesses and info must all agree.  Both sides
write a zero max_gap as 0.0, through ``_Recorder.report``.  Blocks are also
shrunk to a few entries so that block boundaries, rows of the Cauchy sweep
split across blocks and violations in several blocks are exercised.
"""

import contextlib
import dataclasses
import functools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import scalar_reference as ref
from ametric_fix import (
    AMetricSpace,
    Box,
    FiniteCarrier,
    MapSpec,
    PicardTrace,
    SelfMap,
    StopRule,
    axiom_samples,
    branch_constants,
    check_axioms,
    check_symmetry,
    check_triangle_inequality,
    classify,
    make_absdiff_space,
    make_map,
    pair_samples,
    picard_run,
    table_space,
    triple_samples,
    uniqueness_probe,
    verify_cauchy,
    verify_contraction_inequalities,
    verify_decay,
)
from ametric_fix import core, solver, spaces, zamfirescu
from ametric_fix.errors import CarrierDomainError, UsageError
from ametric_fix.sampling import SampleSet
from ametric_fix.spaces import pair_lift

SEED = 77

LINE7 = [[float(abs(a - b)) for b in (0, 1, 3, 4, 7, 9, 12)] for a in (0, 1, 3, 4, 7, 9, 12)]
# Nonzero diagonal (identity), zero off the diagonal (identity-reverse), a
# negative entry (nonneg), asymmetry (symmetry) and a long edge (simplex,
# triangle): every law fails somewhere.
BROKEN = [[0.5, 0.0, 7.0, 1.0],
          [2.0, 0.0, -20.0, 1.0],
          [1.0, 4.0, 0.0, 1.0],
          [1.0, 1.0, 1.0, 0.0]]


@pytest.fixture(params=[None, 7], ids=["block-default", "block-7"])
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(core, "BLOCK", request.param)
        monkeypatch.setattr(solver, "BLOCK", request.param)
    return request.param


def as_json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


@contextlib.contextmanager
def witness_cap(k):
    """The array path keeping k witnesses per check; the reference takes its
    cap as an argument."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "MAX_WITNESSES", k)
        yield


def assert_law_checks_match(space, n=200, seed=SEED, tol=1e-9, max_witnesses=100):
    for fast, slow, samples in (
        (check_axioms, ref.check_axioms, axiom_samples(space, n, seed)),
        (check_symmetry, ref.check_symmetry, pair_samples(space, n, seed)),
        (check_triangle_inequality, ref.check_triangle_inequality, triple_samples(space, n, seed)),
    ):
        with witness_cap(max_witnesses):
            report = fast(space, samples, tol)
        assert as_json(report) == as_json(slow(space, samples, tol, max_witnesses))


@pytest.mark.parametrize("t", [2, 3, 8])
@pytest.mark.parametrize("d", [1, 2, 4, 7])
def test_absdiff_matches_reference(block, t, d):
    space = make_absdiff_space(t, d=d)
    assert_law_checks_match(space)
    # A tolerance of -2 (1 + |value|) makes every instance a violation, so
    # the kept witnesses, their values and their order across laws and
    # blocks are compared too.
    for k in (1, 3, 100):
        assert_law_checks_match(space, n=40, tol=-2.0, max_witnesses=k)


def test_line_table_matches_reference(block):
    space = table_space(4, LINE7)
    samples = axiom_samples(space, 1, SEED)
    assert samples.exhaustive and len(samples) == 7 ** 5
    assert as_json(check_axioms(space, samples)) == as_json(ref.check_axioms(space, samples))
    assert_law_checks_match(space)


@pytest.mark.parametrize("t", [3, 5])
@pytest.mark.parametrize("max_witnesses", [1, 3, 100])
def test_broken_table_matches_reference(block, t, max_witnesses):
    space = table_space(t, BROKEN)
    samples = axiom_samples(space, 300, SEED)
    every = ref.check_axioms(space, samples, max_witnesses=10 ** 6)
    assert {v.law for v in every.violations} == {"nonneg", "identity", "identity-reverse", "simplex"}
    with witness_cap(max_witnesses):
        report = check_axioms(space, samples)
    assert len(report.violations) == min(max_witnesses, report.violations_total)
    for v in report.violations:
        # Python floats, and the entry as given (its first t points for all
        # laws but simplex).
        assert {type(v.lhs), type(v.rhs), type(v.gap), type(v.tol)} == {float}
        assert type(v.witness) is tuple and all(type(p) is int for p in v.witness)
        assert len(v.witness) == (t + 1 if v.law == "simplex" else t)
        assert any(e[:len(v.witness)] == v.witness for e in samples)
    assert_law_checks_match(space, n=300, max_witnesses=max_witnesses)


def odd_base(x, y):
    """A base that returns NaN, inf and -0.0 on some pairs."""
    k = int(abs(3.0 * x + 5.0 * y)) % 6
    return (math.nan, math.inf, -0.0, abs(x - y), 0.0, -math.inf)[k]


@pytest.mark.parametrize("t", [2, 3, 5])
def test_callable_lift_with_nonfinite_values_matches_reference(block, t):
    space = pair_lift(t, odd_base, Box.of(-4.0, 4.0), zero_diagonal=False)
    for k in (1, 3, 100):
        assert_law_checks_match(space, n=120, max_witnesses=k)


@pytest.mark.parametrize("d", [1, 2])
def test_raw_distance_matches_reference(block, d):
    # A raw t-tuple distance goes through the loop adapter for both forms,
    # and is handed the plain Python points the scalar code would pass.
    seen = set()

    def distance(pts):
        seen.update(type(c) for p in pts for c in ((p,) if d == 1 else p))
        seen.update(type(p) for p in pts)
        x, y, z = ((p,) if d == 1 else p for p in pts)
        return odd_base(x[0], z[-1]) + 0.5 * abs(y[0] - x[0])

    space = AMetricSpace(t=3, distance=distance, carrier=Box.of(-4.0, 4.0, d))
    assert_law_checks_match(space, n=120)
    assert seen == ({float} if d == 1 else {float, tuple})


@pytest.mark.parametrize("d", [1, 2, 4, 7])
def test_zero_distance_matches_reference(block, d):
    # Every tuple that is not all-equal fails identity-reverse, whose lhs is
    # the tuple's largest coordinate gap.
    space = AMetricSpace(t=3, distance=lambda pts: 0.0, carrier=Box.of(-4.0, 4.0, d))
    assert_law_checks_match(space, n=60)


@pytest.mark.parametrize("negative_first", [True, False])
def test_signed_zero_max_gap_matches_reference(negative_first):
    # (0, 1, 2) has gap rep(0, 2) - [2 rep(0, 1) + rep(2, 1)] = -0.0 - 0.0 = -0.0
    # and (2, 1, 1) has gap 0.0 - 0.0 = +0.0; no gap is positive.  Whichever
    # zero comes first, the report's max_gap is 0.0.
    table = {(0, 2): -0.0, (0, 1): 0.0, (2, 1): 0.0, (1, 2): 0.0, (1, 1): 0.0}

    def distance(pts):
        assert all(type(p) is int for p in pts)
        return table.get((pts[0], pts[-1]), 1.0)

    space = AMetricSpace(t=3, distance=distance, carrier=FiniteCarrier(3))
    runs = [[(0, 1, 2)] * 100, [(2, 1, 1)] * 100]
    triples = SampleSet.from_entries(space, sum(runs if negative_first else runs[::-1], []))
    report = check_triangle_inequality(space, triples)
    assert repr(report.max_gap) == "0.0"
    assert as_json(report) == as_json(ref.check_triangle_inequality(space, triples))


def spiked_trace(n_pts=160, spikes=(40, 90, 150)):
    """A geometric trace with iterates pushed off the envelope at ``spikes``."""
    s = make_absdiff_space(3)
    xs = [50.0 * 0.8 ** n for n in range(n_pts)]
    for n in spikes:
        xs[n] = 30.0
    steps = tuple(2.0 * abs(b - a) for a, b in zip(xs, xs[1:]))
    trace = PicardTrace(iterates=tuple(xs), steps=steps, delta=0.8, d0=steps[0], t=3,
                        status="converged", limit=xs[-1])
    return s, trace


@pytest.mark.parametrize("max_witnesses", [1, 3, 100])
def test_cauchy_matches_reference_across_blocks(block, max_witnesses):
    s, trace = spiked_trace()
    with witness_cap(max_witnesses):
        report = verify_cauchy(trace, s)
    assert report.checked == 160 * 159 // 2 > core.BLOCK
    # Violations land in several blocks of either size.
    positions = {(n * (2 * 160 - n - 1)) // 2 + (m - n - 1) for n, m in
                 (v.witness for v in ref.verify_cauchy(trace, s).violations)}
    assert len({p // (block or core.BLOCK) for p in positions}) > 1
    assert as_json(report) == as_json(ref.verify_cauchy(trace, s, max_witnesses=max_witnesses))


@pytest.mark.parametrize("make_space", [
    lambda: make_absdiff_space(3, d=4),
    lambda: table_space(3, LINE7),
], ids=["absdiff-d4", "table"])
def test_cauchy_matches_reference_on_real_traces(block, make_space):
    s = make_space()
    if s.carrier.finite:
        f = make_map(MapSpec.of("finite-table", images=[0, 0, 1, 0, 1, 2, 0]), s)
        trace = picard_run(s, f, 6, 0.5, StopRule())
    else:
        f = make_map(MapSpec.of("linear-scale", lam=0.9), s)
        trace = picard_run(s, f, (7.0, -3.0, 1.5, 50.0), 0.9, StopRule(eps=1e-9))
    assert len(trace.iterates) >= 3
    assert as_json(verify_cauchy(trace, s)) == as_json(ref.verify_cauchy(trace, s))


def real_trace(kind):
    """A Picard trace on absdiff d = 1 or d = 4, or on the 7-point line table."""
    if kind == "table":
        s = table_space(3, LINE7)
        f = make_map(MapSpec.of("finite-table", images=[0, 0, 1, 0, 1, 2, 0]), s)
        return s, picard_run(s, f, 6, 0.5, StopRule())
    s = make_absdiff_space(3, d=4 if kind == "absdiff-d4" else 1)
    f = make_map(MapSpec.of("linear-scale", lam=0.9), s)
    x0 = (7.0, -3.0, 1.5, 50.0) if kind == "absdiff-d4" else -70.0
    return s, picard_run(s, f, x0, 0.9, StopRule(eps=1e-9))


def hand_trace(space, iterates, delta, d0=None):
    """A trace through the given iterates, with their steps; d0 defaults to the first."""
    steps = tuple(space.rep_fn(b, a) for a, b in zip(iterates, iterates[1:]))
    return PicardTrace(iterates=tuple(iterates), steps=steps, delta=delta,
                       d0=steps[0] if d0 is None else d0, t=space.t, status="max_iter",
                       limit=None)


def step_trace(steps, delta=0.5, d0=None):
    """A trace that records only steps (verify_decay reads no iterates)."""
    return PicardTrace(iterates=(0.0,) * (len(steps) + 1), steps=tuple(steps), delta=delta,
                       d0=steps[0] if d0 is None else d0, t=3, status="max_iter", limit=None)


def decay_case(kind):
    if kind in ("absdiff-d1", "absdiff-d4", "table"):
        return real_trace(kind)[1]
    if kind == "broken":
        # Both laws fail at n = 1, 3, 5 and 7.
        return step_trace((1.0, 0.9, 0.2, 0.5, 0.05, 0.3, 0.01, 0.6))
    if kind == "signed-zeros":
        # Every gap is a zero; the first, -0.0 - 0.0 at n = 0, is negative, and
        # max_gap is still 0.0.
        return step_trace((-0.0, 0.0, -0.0, 0.0), d0=0.0)
    s = make_absdiff_space(3)
    trace = picard_run(s, make_map(MapSpec.of("linear-scale", lam=0.9), s), 0.0, 0.9, StopRule())
    assert trace.steps == () and trace.monitored
    return trace


@pytest.mark.parametrize("kind", ["absdiff-d1", "absdiff-d4", "table", "broken", "signed-zeros",
                                  "no-steps"])
def test_decay_matches_reference(block, kind):
    trace = decay_case(kind)
    for tol in (1e-9, -2.0):  # -2 (1 + |value|): every instance is a violation
        for k in (1, 3, 100):
            with witness_cap(k):
                fast = verify_decay(trace, tol)
            assert as_json(fast) == as_json(ref.verify_decay(trace, tol, k))
    report = verify_decay(trace)
    if kind == "broken":
        assert [(v.law, v.witness) for v in report.violations] == [
            (law, (n,)) for n in (1, 3, 5, 7) for law in ("step-ratio", "step-envelope")]
    elif kind == "signed-zeros":
        assert report.passed and repr(report.max_gap) == "0.0"
    elif kind == "no-steps":
        assert report.checked == 0 and report.max_gap == 0.0
    else:
        assert report.passed and report.checked == 2 * len(trace.steps) - 1


@pytest.mark.parametrize("t", [3, 4, 8])
def test_envelope_table_has_the_scalar_bits(t):
    # (t - 1) * delta^n * d0 / (1 - delta), in that order: at t = 4 and 8
    # another association rounds differently on some rows.
    steps = tuple(0.1 * (2.0 / 7.0) ** n for n in range(300))
    trace = PicardTrace(iterates=(0.0,) * 301, steps=steps, delta=2.0 / 7.0, d0=0.1, t=t,
                        status="converged", limit=0.0)
    bound, tail = trace.envelope
    assert bound.tolist() == [trace.bound(n) for n in range(301)]
    assert tail.tolist() == [solver.tail_bound(2.0 / 7.0, t, 0.1, n) for n in range(301)]


def test_decay_and_summary_read_the_envelope_table():
    s, trace = real_trace("absdiff-d1")
    bound, tail = trace.envelope
    n = len(trace.steps)
    assert len(bound) == len(tail) == n + 1
    summary = trace.summary_dict()
    assert summary["final_bound"] == trace.bound(n - 1)
    assert summary["final_tail_bound"] == trace.tail(n)
    assert {type(summary["final_bound"]), type(summary["final_tail_bound"])} == {float}
    # One `%` format per row gives the text format() gives cell by cell.
    prev = None
    for row, line in enumerate(trace.to_csv().splitlines()[1:]):
        step = trace.steps[row]
        ratio = "" if prev in (None, 0.0) else format(step / prev, ".17g")
        assert line == ",".join((str(row), format(step, ".17g"), format(trace.bound(row), ".17g"),
                                 ratio, format(trace.tail(row), ".17g")))
        prev = step


def assert_cauchy_matches(space, trace, tols=(1e-9, -2.0), witnesses=(1, 3, 100)):
    for tol in tols:
        for k in witnesses:
            with witness_cap(k):
                fast = verify_cauchy(trace, space, tol)
            assert as_json(fast) == as_json(ref.verify_cauchy(trace, space, tol, k))
    return verify_cauchy(trace, space)


def counting_rep(space):
    """``space`` with its rep_many counting the pairs it is given."""
    pairs = []

    def rep_many(xs, ys):
        pairs.append(len(xs))
        return space.rep_many(xs, ys)

    return dataclasses.replace(space, rep_many=rep_many), pairs


def separated_violations_trace(kind):
    """A trace whose Cauchy violations lie in rows 5, 12, 20 (d = 1) or 3, 6 (table) only.

    The iterates decay faster than the envelope, except for spikes at those
    rows: a spike is farther than tail(n) from the iterates after it, but
    within the twice larger tail(n-1) of the iterate before it.
    """
    if kind == "table":
        s = table_space(3, LINE7)
        xs = [0] * 30
        xs[0], xs[3], xs[6] = 6, 4, 1
        return s, hand_trace(s, xs, 0.5)
    s = make_absdiff_space(3)
    xs = [64.0 * 0.25 ** k for k in range(40)]
    trace = hand_trace(s, xs, 0.5)
    for n in (5, 12, 20):
        xs[n] = 0.75 * trace.tail(n)
    return s, hand_trace(s, xs, 0.5, d0=trace.d0)


@pytest.mark.parametrize("kind", ["absdiff-d1", "table"])
def test_cauchy_violations_in_separate_rows_match_reference(block, kind):
    s, trace = separated_violations_trace(kind)
    assert (s.farthest_later is None) == (kind == "table")
    report = assert_cauchy_matches(s, trace)
    with witness_cap(10 ** 6):
        every = verify_cauchy(trace, s)
    assert {n for n, _ in (v.witness for v in every.violations)} == (
        {3, 6} if kind == "table" else {5, 12, 20})
    assert report.checked == len(trace.iterates) * (len(trace.iterates) - 1) // 2


@pytest.mark.parametrize("kind", ["absdiff-d1", "table"])
def test_cauchy_matches_reference_on_more_real_traces(block, kind):
    s, trace = real_trace(kind)
    assert assert_cauchy_matches(s, trace, witnesses=(3,)).passed


@pytest.mark.parametrize("far", [1.5, 2.0, math.nextafter(1.5, 9.0), math.nextafter(2.0, 9.0)])
def test_cauchy_row_maximum_on_its_tolerance_matches_reference(block, far):
    # tail(2) = 1.0 and tol = 0.5.  Row 2's largest value rep(0.5, far) is
    # 2.0 at far = 1.5: its gap 1.0 is exactly the tolerance of tail(2)
    # alone, so the row is cleared.  At far = 2.0 it is 3.0: its gap 2.0 is
    # exactly the pair's tolerance 0.5 * (1 + 3.0), no violation, but the
    # row is swept.  One ulp further, each moves past its bound.
    s = make_absdiff_space(3)
    trace = hand_trace(s, [0.0, 0.5, 0.5, far, 0.75, 0.625], 0.5)
    assert trace.tail(2) == 1.0
    val = s.rep_fn(0.5, far)
    if far in (1.5, 2.0):
        assert val - 1.0 == (core.scaled_tol(0.5, 1.0) if far == 1.5 else
                             core.scaled_tol(0.5, val, 1.0))
    assert_cauchy_matches(s, trace, tols=(0.5,))


@pytest.mark.parametrize("kind", ["absdiff-d1", "table"])
def test_cauchy_repeated_iterates_match_reference(block, kind):
    if kind == "table":
        s = table_space(3, LINE7)
        xs = [1, 2, 1, 2, 5, 5, 3, 3, 6, 0, 0, 6, 0, 0, 0]
        trace = hand_trace(s, xs, 0.7)
    else:
        s = make_absdiff_space(3)
        xs = [5.0, -5.0, 5.0, -5.0, 3.0, 3.0, -3.0, -3.0, 3.0, 0.0, 0.0, -0.0, 0.0, 1.0, -1.0]
        trace = hand_trace(s, xs, 0.7)
    report = assert_cauchy_matches(s, trace)
    assert not report.passed and report.violations_total < report.checked


@pytest.mark.parametrize("xs, sign", [([0, 1, 2, 1, 2], -1.0), ([0, 2, 1, 2, 1], 1.0),
                                      ([2, 2, 0, 1, 0], 1.0)])
def test_cauchy_signed_zero_max_gap_matches_reference(block, xs, sign):
    # A zero envelope and table values of 0.0 and -0.0: every gap is a zero,
    # each row has zeros of both signs or of one, and ``sign`` is the sign of
    # the first gap, rep(x_0, x_1) - tail(0).  Either way max_gap is 0.0.
    s = table_space(3, [[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    trace = hand_trace(s, xs, 0.5, d0=0.0)
    assert math.copysign(1.0, s.rep_fn(xs[0], xs[1]) - trace.tail(0)) == sign
    report = assert_cauchy_matches(s, trace)
    assert report.passed and repr(report.max_gap) == "0.0"


@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_cauchy_row_whose_largest_gap_is_zero_is_cleared(block, tol):
    # tail(1) = 2 * 0.5 * d0 / 0.5 = 4.0 and row 1's largest value
    # rep(1.0, -1.0) is 4.0: its largest gap is exactly 0.0, and the row is
    # cleared by its maximum, like every other row, even at tol = 0.
    s = make_absdiff_space(3)
    trace = hand_trace(s, [0.0, 1.0, -1.0, -0.5, -0.75, -0.625], 0.5)
    assert trace.tail(1) == s.rep_fn(1.0, -1.0) == 4.0
    spied, pairs = counting_rep(s)
    report = verify_cauchy(trace, spied, tol)
    assert sum(pairs) == len(trace.iterates) - 1
    assert report.passed and repr(report.max_gap) == "0.0"
    assert_cauchy_matches(s, trace, tols=(tol,))


def test_cauchy_negative_values_match_reference(block):
    # A negative base entry and a nonzero diagonal: with tol = -2 a row can
    # be clear at its maximum and still hold violations at smaller values,
    # so a negative tolerance sweeps every row.
    s = table_space(3, BROKEN)
    trace = hand_trace(s, [1, 2, 1, 2, 2, 1, 0, 3, 1, 2, 3, 3, 0, 1, 2, 2], 0.5)
    assert trace.d0 > 0.0
    assert_cauchy_matches(s, trace, tols=(1e-9, 0.5, -0.5, -2.0))


def test_farthest_later_gives_a_row_maximum():
    # Few distinct values, so the largest and smallest later points, and the
    # row maxima, are tied many times over.
    rng = np.random.default_rng(SEED)
    spaces_and_points = [
        (make_absdiff_space(3), lambda n: rng.integers(-3, 4, n) * 0.5),
        (make_absdiff_space(3), lambda n: rng.uniform(-100.0, 100.0, n)),
    ]
    for s, draw in spaces_and_points:
        for n in (2, 3, 17, 60):
            pts = s.carrier.array(draw(n))
            far = s.farthest_later(pts)
            assert far.shape == (n - 1,)
            for i, j in enumerate(far.tolist()):
                assert j > i
                row = s.rep_many(np.repeat(pts[i:i + 1], n - i - 1, axis=0), pts[i + 1:])
                assert s.rep_many(pts[i:i + 1], pts[j:j + 1])[0] == row.max()


@pytest.mark.parametrize("kind", ["absdiff-d4", "table", "callable", "absdiff-d1"])
def test_space_without_kernel_takes_the_full_sweep(kind):
    if kind == "callable":
        s = spaces.make_lifted_space(3, lambda x, y: abs(x - y), box=(-100.0, 100.0))
        f = make_map(MapSpec.of("linear-scale", lam=0.9), s)
        trace = picard_run(s, f, 60.0, 0.9, StopRule(eps=1e-9))
    else:
        s, trace = real_trace(kind)
    spied, pairs = counting_rep(s)
    report = verify_cauchy(trace, spied)
    assert as_json(report) == as_json(ref.verify_cauchy(trace, s))
    n = len(trace.iterates)
    if kind == "absdiff-d1":
        # Every row of a converging trace is cleared by its maximum alone.
        assert s.farthest_later is not None and sum(pairs) == n - 1
    else:
        assert s.farthest_later is None and sum(pairs) == n * (n - 1) // 2


def error_of(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value), getattr(info.value, "point", None)


@pytest.mark.parametrize("bad, first", [
    ((0.5, 7.0, 0.25, 9.0), 7.0),             # two points outside the box: the first is named
    ((0.5, 0.5, math.nan, 0.5), math.nan),
    ((0.5, (0.5,), (0.5, 0.1), 0.5), None),   # a 1-tuple is a valid 1-d point, a 2-tuple is not
    ((0.5, 1, "x", 0.5), None),
])
def test_escaping_entry_raises_as_before(bad, first):
    s = make_absdiff_space(3, box=(-1.0, 1.0))
    good = (0.0, 0.1, 0.2, 0.3)
    entries = [good] * 5 + [bad]
    fast = error_of(SampleSet.from_entries, s, entries)
    slow = error_of(ref.check_axioms, s, ref.Given(entries))
    assert fast[:2] == slow[:2]
    if first is not None:
        assert fast[2] == first or (math.isnan(first) and math.isnan(fast[2]))


@pytest.mark.parametrize("bad", [(0, 5, 1), (0, True, 1), (0, -1, 9), (0, 1.0, 1)])
def test_escaping_index_raises_as_before(bad):
    s = table_space(3, [row[:3] for row in LINE7[:3]])
    entries = [(0, 1, 2), bad]
    fast = error_of(SampleSet.from_entries, s, entries)
    assert fast == error_of(ref.check_triangle_inequality, s, ref.Given(entries))


def test_escaping_d4_point_raises_as_before():
    s = make_absdiff_space(2, d=4, box=(-1.0, 1.0))
    ok = (0.0, 0.0, 0.0, 0.0)
    for bad in ((0.0, 0.0, 2.0, 0.0), (0.0, 0.0, 0.0), [0.0, 0.0, 0.0, 0.0, 0.0], 0.5):
        entries = [(ok, ok), (ok, bad)]
        assert error_of(SampleSet.from_entries, s, entries) == error_of(
            ref.check_symmetry, s, ref.Given(entries))


def test_escaping_iterate_raises_as_before():
    s = make_absdiff_space(3, box=(-1.0, 1.0))
    trace = PicardTrace(iterates=(0.5, 0.25, 2.0, 3.0), steps=(0.5, 3.5, 2.0), delta=0.5,
                        d0=0.5, t=3, status="converged", limit=3.0)
    fast = error_of(verify_cauchy, trace, s)
    assert fast == error_of(ref.verify_cauchy, trace, s)
    assert fast[2] == 2.0


def test_long_trace_sweep_stays_in_bounded_memory():
    # lam = 0.99 from x0 = 1.0: 2,363 iterates and 2,790,703 pairs.  A sweep
    # holding every pair at once would need tens of MB per array.
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=0.99), s)
    trace = picard_run(s, f, 1.0, 0.99, StopRule())
    assert len(trace.iterates) == 2363
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = verify_cauchy(trace, s)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.checked == 2_790_703
    assert report.passed
    assert peak < 2 * 1024 * 1024
    assert elapsed < 30.0


def test_long_trace_pair_sweep_stays_in_bounded_memory():
    # The same trace with the row-maximum kernel taken away: every one of
    # the 2,790,703 pairs goes through the blocked pair sweep.
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=0.99), s)
    trace = picard_run(s, f, 1.0, 0.99, StopRule())
    swept = dataclasses.replace(s, farthest_later=None)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = verify_cauchy(trace, swept)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.checked == 2_790_703
    assert report.passed
    assert as_json(report) == as_json(verify_cauchy(trace, s))
    assert peak < 2 * 1024 * 1024
    assert elapsed < 30.0


def fast_branches(space, f, pairs):
    """classify's per-pair branches, from its requirement and assignment helpers."""
    return zamfirescu._branches(zamfirescu._requirements(space, f, pairs, "classify"), space.t)[1]


def assert_certificate_matches(space, f, pairs, max_witnesses=100):
    """classify and the contraction check agree with the reference: full JSON,
    the per-pair branches, the branch counts (as Python ints, one per pair) and
    the first error, if any."""
    with witness_cap(max_witnesses):
        fast = classify(space, f, pairs)
    slow = ref.classify(space, f, pairs, max_witnesses=max_witnesses)
    assert as_json(fast) == as_json(slow)
    assert fast_branches(space, f, pairs).tolist() == ref.branches(space, f, pairs)
    assert fast.branch_counts == slow.branch_counts
    assert {type(v) for v in fast.branch_counts.values()} == {int}
    assert sum(fast.branch_counts.values()) == fast.n_pairs == len(pairs)
    deltas = {0.0, 0.5} | ({fast.delta} if fast.valid else set())
    for delta in sorted(deltas):
        for tol in (1e-9, -2.0):  # -2 (1 + |value|): every instance is a violation
            args = (space, f, delta, pairs, tol)
            with witness_cap(max_witnesses):
                report = verify_contraction_inequalities(*args)
            assert as_json(report) == as_json(ref.verify_contraction_inequalities(*args, max_witnesses))
    return fast


ABSDIFF_MAPS = {
    1: [MapSpec.of("two-sevenths"), MapSpec.of("linear-scale", lam=0.9),
        MapSpec.of("affine", alpha=-0.6, beta=3.0), MapSpec.of("constant", value=0.3),
        MapSpec.of("piecewise", breakpoints=[0.0], pieces=[[0.25, 0.0], [0.2, -5.0]]),
        MapSpec.of("identity"), MapSpec.of("shift", offset=1.0)],
    4: [MapSpec.of("two-sevenths"), MapSpec.of("affine", alpha=0.6, beta=-3.0),
        MapSpec.of("constant", value=[0.5, -1.0, 2.0, 0.0]), MapSpec.of("identity"),
        MapSpec.of("shift", offset=1.0)],
}


@pytest.mark.parametrize("t", [2, 3, 8])
@pytest.mark.parametrize("d", [1, 4])
def test_certificate_matches_reference_on_absdiff(block, t, d):
    space = make_absdiff_space(t, d=d, box=(-100.0, 100.0))
    # Pairs from the middle of the box, so that shifted images stay inside.
    pairs = pair_samples(make_absdiff_space(t, d=d, box=(-50.0, 50.0)), 60, SEED)
    for spec in ABSDIFF_MAPS[d]:
        f = make_map(spec, space)
        cert = assert_certificate_matches(space, f, pairs)
        if not cert.valid:
            for k in (1, 3):
                assert_certificate_matches(space, f, pairs, max_witnesses=k)


def test_certificate_matches_reference_on_line_table(block):
    space = table_space(4, LINE7)
    pairs = pair_samples(space, 1, SEED)
    f = make_map(MapSpec.of("finite-table", images=[0, 0, 1, 0, 1, 2, 0]), space)
    assert assert_certificate_matches(space, f, pairs).branch_counts["kannan"] > 0
    for k in (1, 3, 100):
        assert_certificate_matches(space, make_map(MapSpec.of("identity"), space), pairs, k)


@pytest.mark.parametrize("t", [2, 3, 5])
def test_certificate_matches_reference_on_callable_lift(block, t):
    space = pair_lift(t, odd_base, Box.of(-4.0, 4.0), zero_diagonal=False)
    pairs = pair_samples(space, 120, SEED)
    for spec in (MapSpec.of("linear-scale", lam=0.5), MapSpec.of("identity")):
        f = make_map(spec, space)
        for k in (1, 3, 100):
            assert_certificate_matches(space, f, pairs, max_witnesses=k)


def odd_distance(pts):
    """A raw distance that returns NaN, +-inf, -0.0 and negative values."""
    x, y = pts[0], pts[-1]
    k = int(abs(3.0 * x + 5.0 * y)) % 7
    return (math.nan, math.inf, -0.0, abs(x - y), -math.inf, -1.0 - abs(x), 2.0)[k]


def test_certificate_matches_reference_on_raw_distance(block):
    space = AMetricSpace(t=3, distance=odd_distance, carrier=Box.of(-4.0, 4.0))
    pairs = pair_samples(space, 300, SEED)
    f = make_map(MapSpec.of("affine", alpha=0.5, beta=0.3), space)
    # NaN, +-inf, negative values and zeros of both signs all appear among
    # the requirements.
    reqs = [r for x, y in pairs for r in (ref._branch_constants(
        space.rep_fn, x, y, x, y, f(x), f(y)).normalized(3))]
    assert any(map(math.isnan, reqs)) and math.inf in reqs and -math.inf in reqs
    assert any(r < 0 for r in reqs)
    assert {math.copysign(1.0, r) for r in reqs if r == 0.0} == {1.0, -1.0}
    for k in (1, 3, 100):
        assert_certificate_matches(space, f, pairs, max_witnesses=k)


@pytest.mark.parametrize("d", [1, 2])
def test_certificate_matches_reference_for_map_without_many(block, d):
    # A map built without an array form goes through the loop adapter, which
    # hands it the plain Python points the scalar code would.
    seen = set()

    def half(p):
        seen.add(type(p))
        return 0.5 * p if d == 1 else tuple(0.5 * c for c in p)

    space = make_absdiff_space(3, d=d, box=(-10.0, 10.0))
    f = SelfMap(kind="half", fn=half)
    assert_certificate_matches(space, f, pair_samples(space, 50, SEED))
    assert seen == {float if d == 1 else tuple}

    table = table_space(3, LINE7)
    g = SelfMap(kind="fold", fn=lambda i: (seen.add(type(i)), min(i, 6 - i))[1])
    seen.clear()
    assert_certificate_matches(table, g, pair_samples(table, 1, SEED))
    assert seen == {int}


def unchecked_map(spec, space):
    """The map with its array form, without make_map's image check."""
    fn, many = spaces._build_fn(spec, space)
    return SelfMap(kind=spec.kind, fn=fn, many=many)


@pytest.mark.parametrize("check", ["classify", "contraction"])
@pytest.mark.parametrize("pairs, first", [
    # f(x) of the first escaping pair, and then a later f(y), leave the box.
    ([(0.1, 0.0), (0.9, 0.0), (0.0, 0.8)], 1.4),
    ([(0.1, 0.0), (0.0, 5.0), (0.9, 0.0)], 5.0),
    ([(0.1, 0.2), (0.2, 0.95), (0.7, 0.1)], 1.45),  # f(y) only
    ([(0.1, 0.2), (0.2, math.nan)], math.nan),
    ([(0.1, 0.2), (0.2, (0.3, 0.4))], None),        # a malformed point
])
def test_escaping_pair_or_image_raises_as_before(block, check, pairs, first):
    s = make_absdiff_space(3, box=(-1.0, 1.0))
    f = unchecked_map(MapSpec.of("shift", offset=0.5), s)
    # A bad point raises when the set is made, a bad image in the sweep.
    entries = [(0.0, 0.1)] * 9 + pairs
    if check == "classify":
        fast = error_of(lambda: classify(s, f, SampleSet.from_entries(s, entries)))
        slow = error_of(ref.classify, s, f, ref.Given(entries))
    else:
        fast = error_of(lambda: verify_contraction_inequalities(
            s, f, 0.5, SampleSet.from_entries(s, entries)))
        slow = error_of(ref.verify_contraction_inequalities, s, f, 0.5, ref.Given(entries))
    assert fast[:2] == slow[:2]
    assert "np." not in fast[1]
    if first is not None:
        assert type(fast[2]) is float
        assert fast[2] == first or (math.isnan(first) and math.isnan(fast[2]))


def test_escaping_d2_image_raises_as_before(block):
    s = make_absdiff_space(3, d=2, box=(-1.0, 1.0))
    f = unchecked_map(MapSpec.of("affine", alpha=2.0, beta=0.0), s)
    samples = SampleSet.from_entries(s, [((0.1, 0.2), (0.3, -0.4))] * 9
                                     + [((0.1, 0.2), (0.3, 0.6))])
    fast = error_of(classify, s, f, samples)
    assert fast == error_of(ref.classify, s, f, samples)
    assert fast[2] == (0.6, 1.2) and {type(c) for c in fast[2]} == {float}


@pytest.mark.parametrize("d, spec", [
    (1, MapSpec.of("shift", offset=0.05)),
    (1, MapSpec.of("affine", alpha=1.05, beta=0.0)),
    (1, MapSpec.of("piecewise", breakpoints=[0.9], pieces=[[0.5, 0.0], [1.0, 0.15]])),
    (2, MapSpec.of("shift", offset=0.05)),
], ids=["shift", "affine", "piecewise", "shift-d2"])
@pytest.mark.parametrize("seed", range(10))
def test_escaping_images_raise_as_the_scalar_reference(block, d, spec, seed):
    # About one image in twenty leaves the box.  Seven pairs that stay inside
    # come first, so with BLOCK = 7 the first bad image is in a later block.
    s = make_absdiff_space(3, d=d, box=(-1.0, 1.0))
    f = unchecked_map(spec, s)
    origin = 0.0 if d == 1 else (0.0,) * d
    entries = [(origin, origin)] * 7 + list(pair_samples(s, 200, seed))
    pairs = SampleSet.from_entries(s, entries)
    fast = error_of(classify, s, f, pairs)
    assert fast == error_of(ref.classify, s, f, pairs)
    assert fast[0] is CarrierDomainError
    fast = error_of(verify_contraction_inequalities, s, f, 0.5, pairs)
    assert fast == error_of(ref.verify_contraction_inequalities, s, f, 0.5, pairs)


def test_valid_certificate_keeps_pairs_off_a_branch_at_its_cap(block):
    # The worst best-branch ratio is 1 - 1e-10, so the assignment threshold
    # lies just above 1.  Pair (2, 3) needs a = 1.0 exactly, within that
    # threshold, but a valid certificate must not take a constant at its
    # cap: the pair goes to Kannan (normalized 0.5) instead.
    table = {(4, 5): 1.0 - 1e-10, (0, 1): 1.0, (6, 7): 1.0, (2, 3): 1.0, (6, 2): 2.0, (7, 3): 2.0}

    def distance(pts):
        return table.get(pts, table.get(pts[::-1], 0.0))

    space = AMetricSpace(t=2, distance=distance, carrier=FiniteCarrier(8))
    f = SelfMap(kind="spread", fn=lambda i: (4, 5, 6, 7, 4, 4, 4, 4)[i])
    pairs = SampleSet.from_entries(space, [(0, 1), (2, 3)])
    cert = assert_certificate_matches(space, f, pairs)
    assert cert.valid and fast_branches(space, f, pairs).tolist() == [1, 2]
    assert (cert.a, cert.b, cert.c) == (1.0 - 1e-10, 0.25, 0.0)


def given_twin(space, samples):
    """The same entries as a set made by from_entries, which validates them
    into the drawn set's point array, bit for bit."""
    twin = SampleSet.from_entries(space, samples.entries, samples.exhaustive)
    points = samples.block(0, len(samples))
    assert twin.points.dtype == points.dtype and twin.points.shape == points.shape
    assert twin.points.tobytes() == points.tobytes() and not twin.points.flags.writeable
    return twin


def assert_drawn_matches_given(space, spec, n=60, seed=SEED):
    """Every sweep gives the same report on a drawn set as on its from_entries twin."""
    f = make_map(spec, space)
    laws = ((check_axioms, axiom_samples), (check_symmetry, pair_samples),
            (check_triangle_inequality, triple_samples))
    for check, sampler in laws:
        drawn = sampler(space, n, seed)
        for tol, cap in ((1e-9, 100), (-2.0, 3)):  # -2: every instance fails
            with witness_cap(cap):
                assert as_json(check(space, drawn, tol)) == as_json(
                    check(space, given_twin(space, drawn), tol))
    pairs = pair_samples(space, n, seed)
    cert, twin = classify(space, f, pairs), classify(space, f, given_twin(space, pairs))
    assert as_json(cert) == as_json(twin)
    assert (fast_branches(space, f, pairs).tolist()
            == fast_branches(space, f, given_twin(space, pairs)).tolist())
    for delta in {0.5} | ({cert.delta} if cert.valid else set()):
        for tol in (1e-9, -2.0):
            args = (space, f, delta)
            assert as_json(verify_contraction_inequalities(*args, pairs, tol)) == as_json(
                verify_contraction_inequalities(*args, given_twin(space, pairs), tol))


@pytest.mark.parametrize("t", [2, 3, 8])
@pytest.mark.parametrize("d", [1, 4])
def test_drawn_sets_match_their_entries_on_absdiff(block, t, d):
    assert_drawn_matches_given(make_absdiff_space(t, d=d), MapSpec.of("two-sevenths"))


def test_drawn_sets_match_their_entries_on_tables(block):
    line6 = [[float(abs(a - b)) for b in (0, 1, 3, 4, 7, 9)] for a in (0, 1, 3, 4, 7, 9)]
    sampled = table_space(5, line6)
    assert not axiom_samples(sampled, 1, SEED).exhaustive
    assert_drawn_matches_given(sampled, MapSpec.of("finite-table", images=[0, 0, 1, 0, 1, 2]))
    exhaustive = table_space(4, LINE7)
    assert axiom_samples(exhaustive, 1, SEED).exhaustive
    assert_drawn_matches_given(exhaustive, MapSpec.of("finite-table", images=[0, 0, 1, 0, 1, 2, 0]))


@pytest.mark.parametrize("make_space, spec", [
    (lambda: make_absdiff_space(3, d=2), MapSpec.of("two-sevenths")),
    (lambda: table_space(4, LINE7), MapSpec.of("finite-table", images=[0, 0, 1, 0, 1, 2, 0])),
], ids=["absdiff-d2", "table"])
def test_passing_sweeps_build_no_python_entries(block, monkeypatch, make_space, spec):
    """A drawn set's Python entries are built only for a witness or an error."""
    space = make_space()
    f = make_map(spec, space)
    axioms, pairs, triples = (sampler(space, 40, SEED)
                              for sampler in (axiom_samples, pair_samples, triple_samples))

    def built(self, *args):
        raise AssertionError("a passing sweep built Python entries")

    monkeypatch.setattr(SampleSet, "entry", built)
    monkeypatch.setattr(SampleSet, "entries", property(built))
    cert = classify(space, f, pairs)
    reports = (check_axioms(space, axioms), check_symmetry(space, pairs),
               check_triangle_inequality(space, triples),
               verify_contraction_inequalities(space, f, cert.delta, pairs))
    assert cert.valid and all(r.passed for r in reports)


@pytest.mark.parametrize("check, sampler, width", [
    (lambda s, f, p: check_axioms(s, p), pair_samples, 4),
    (lambda s, f, p: check_symmetry(s, p), triple_samples, 2),
    (lambda s, f, p: check_triangle_inequality(s, p), axiom_samples, 3),
    (classify, triple_samples, 2),
    (lambda s, f, p: verify_contraction_inequalities(s, f, 0.5, p), axiom_samples, 2),
])
def test_drawn_set_of_the_wrong_width_is_rejected(check, sampler, width):
    space = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), space)
    drawn = sampler(space, 5, SEED)
    fast = error_of(check, space, f, drawn)
    assert fast == error_of(check, space, f, given_twin(space, drawn))
    assert fast[0] is UsageError
    assert fast[1].endswith(f"expects entries of {width} points, got {drawn.entries[0]!r}")


@pytest.mark.parametrize("wide, narrow, error", [
    (make_absdiff_space(3, box=(-100.0, 100.0)), make_absdiff_space(3, box=(-1.0, 1.0)),
     CarrierDomainError),
    (make_absdiff_space(3, d=2, box=(-100.0, 100.0)), make_absdiff_space(3, d=2, box=(-1.0, 1.0)),
     CarrierDomainError),
    (table_space(3, LINE7), table_space(3, [row[:3] for row in LINE7[:3]]), CarrierDomainError),
    # Points of another format: floats on a d=2 box or a table, indices on a d=2 box.
    (make_absdiff_space(3), make_absdiff_space(3, d=2), UsageError),
    (make_absdiff_space(3), table_space(3, LINE7), UsageError),
    (table_space(3, LINE7), make_absdiff_space(3, d=2), UsageError),
], ids=["d1", "d2", "table", "d1-on-d2", "d1-on-table", "table-on-d2"])
def test_drawn_set_outside_the_carrier_raises_as_its_twin(block, wide, narrow, error):
    f = make_map(MapSpec.of("identity"), narrow)
    for check, drawn in ((check_axioms, axiom_samples(wide, 20, SEED)),
                         (check_triangle_inequality, triple_samples(wide, 20, SEED)),
                         (lambda s, p: classify(s, f, p), pair_samples(wide, 20, SEED))):
        fast = error_of(check, narrow, drawn)
        assert fast == error_of(SampleSet.from_entries, narrow, drawn.entries)
        assert fast[0] is error


# Exhaustive sets on finite carriers: check_axioms sweeps the product grid by
# t-tuple and pivot, one distance per t-tuple and the simplex sums from an
# n x n table of rep values.  It must give the report of the entry-by-entry
# sweep, bit for bit.

GRID_POINTS = (0, 1, 3, 4, 7, 9, 12, 13, 16, 20, 21, 25)


def grid_table(kind, n):
    """An n-point table: ``line`` passes every law, ``zeros`` has zero entries
    off the diagonal (identity-reverse fires), ``broken`` is asymmetric, has a
    nonzero diagonal and a long edge (identity and simplex fire), and its
    entries are floats whose sums depend on the order they are added in."""
    line = [[float(abs(a - b)) for b in GRID_POINTS[:n]] for a in GRID_POINTS[:n]]
    if kind == "line":
        return line
    if kind == "zeros":
        for i in range(0, n - 1, 2):
            line[i][i + 1] = line[i + 1][i] = 0.0
        return line
    table = np.random.default_rng(n).uniform(0.1, 1.0, size=(n, n))
    table[0, -1] = 10.0
    return table.tolist()


@functools.lru_cache(maxsize=None)
def grid_reference(kind, n, t, max_witnesses):
    space = table_space(t, grid_table(kind, n))
    return as_json(ref.check_axioms(space, axiom_samples(space, 1, SEED), max_witnesses=max_witnesses))


def counting_distance(space):
    """``space`` with its distance_many counting the tuples it is given."""
    rows = []

    def distance_many(xs):
        rows.append(len(xs))
        return space.distance_many(xs)

    return dataclasses.replace(space, distance_many=distance_many), rows


@pytest.mark.parametrize("max_witnesses", [1, 3, 100])
@pytest.mark.parametrize("kind", ["line", "zeros", "broken"])
@pytest.mark.parametrize("t", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_exhaustive_grid_sweep_matches_reference(block, n, t, kind, max_witnesses):
    space, rows = counting_distance(table_space(t, grid_table(kind, n)))
    samples = axiom_samples(space, 1, SEED)
    assert samples.exhaustive and len(samples) == n ** (t + 1)
    with witness_cap(max_witnesses):
        report = check_axioms(space, samples)
    assert as_json(report) == grid_reference(kind, n, t, max_witnesses)
    # One distance per t-tuple, not one per entry.
    assert sum(rows) == n ** t


def test_exhaustive_grid_sweep_fires_every_law():
    with witness_cap(10 ** 6):
        laws = {kind: {v.law for v in check_axioms(space, axiom_samples(space, 1, SEED)).violations}
                for kind, space in ((kind, table_space(3, grid_table(kind, 7)))
                                    for kind in ("line", "zeros", "broken"))}
    assert not laws["line"]
    assert "identity-reverse" in laws["zeros"]
    assert {"identity", "simplex"} <= laws["broken"]


def test_exhaustive_grid_sweep_at_the_size_limit():
    space = table_space(4, grid_table("line", 12))
    samples = axiom_samples(space, 1, SEED)
    assert samples.exhaustive and len(samples) == 12 ** 5 == 248_832
    assert as_json(check_axioms(space, samples)) == as_json(ref.check_axioms(space, samples))


@pytest.mark.parametrize("max_witnesses", [1, 3, 7, 8, 100])
@pytest.mark.parametrize("kind, t", [("zeros", 2), ("zeros", 3), ("broken", 2), ("broken", 3)])
def test_grid_witness_cut_inside_a_tuple_run_matches_reference(block, kind, t, max_witnesses):
    # A per-tuple law fails on all 7 pivots of a tuple, in a run of entries
    # that simplex violations of the same or nearby tuples interleave with;
    # 1, 3, 7 and 8 witnesses cut the list inside or at the end of a run.
    space = table_space(t, grid_table(kind, 7))
    samples = axiom_samples(space, 1, SEED)
    with witness_cap(max_witnesses):
        report = check_axioms(space, samples)
    assert as_json(report) == grid_reference(kind, 7, t, max_witnesses)
    every = json.loads(grid_reference(kind, 7, t, 100))["violations"]
    simplex = [v["law"] == "simplex" for v in every]
    assert not simplex[0] and sum(a != b for a, b in zip(simplex, simplex[1:])) >= 2


def test_grid_violations_interleave_within_a_tuple_run():
    # broken at t=2: tuple (0, 0) fails identity on every pivot and simplex
    # on pivot 3, so a witness list of 3 to 7 ends inside the tuple's run.
    laws = [(v["law"], v["witness"]) for v in
            json.loads(grid_reference("broken", 7, 2, 8))["violations"]]
    assert laws == [("identity", [0, 0])] * 4 + [("simplex", [0, 0, 3])] + [("identity", [0, 0])] * 3


def scalar_add_loop(rec, checks, shape):
    """``checks`` recorded through ``_Recorder.add``, entry by entry over ``shape``."""
    for i in range(math.prod(shape)):
        for law, lhs, rhs, tol, where in checks:
            if where is None or np.broadcast_to(where, shape).flat[i]:
                lhs_i, rhs_i, tol_i = (float(np.broadcast_to(v, shape).flat[i]) for v in (lhs, rhs, tol))
                rec.add(law, (i,), lhs_i, rhs_i, tol_i)


@pytest.mark.parametrize("seed", range(60))
def test_add_many_per_tuple_and_per_entry_laws_match_the_scalar_loop(seed):
    # An (m, 1) law next to an (m, n) one, and a (1, n) law under an (m, n)
    # mask: gaps of both signs of zero, NaN, violations and masks, with room
    # for a few witnesses.
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 5, size=2)
    values = np.array([-2.0, -0.0, 0.0, 1.0, math.nan])
    p = [0.3, 0.25, 0.25, 0.1, 0.1]
    checks = (
        ("per-tuple", rng.choice(values, (m, 1), p=p), 0.0, rng.choice([0.0, 0.5], (m, 1)),
         rng.random((m, 1)) < 0.7),
        ("per-entry", rng.choice(values, (m, n), p=p), rng.choice([0.0, -0.0], (m, n)), 0.0, None),
        ("per-pivot", rng.choice(values, (1, n), p=p), 0.0, 0.0, rng.random((m, n)) < 0.5),
    )
    max_witnesses = int(rng.integers(0, 8))
    with witness_cap(max_witnesses):
        fast, slow = core._Recorder("mix"), core._Recorder("mix")
    fast.add_many(lambda law, i: (i,), checks)
    scalar_add_loop(slow, checks, (m, n))
    assert as_json(fast.report()) == as_json(slow.report())


def test_add_many_zero_gaps_across_broadcast_laws_report_positive_zero():
    # Entry 2 (row 0) gives the per-entry law a zero; row 1 gives the
    # per-tuple law a zero of the other sign from entry 3 on.  Whichever
    # zero comes first, max_gap is 0.0.
    for zero in (-0.0, 0.0):
        per_tuple = np.array([[-1.0], [-zero]])
        per_entry = np.array([[-1.0, -1.0, zero], [-zero, -1.0, -1.0]])
        checks = (("per-tuple", per_tuple, 0.0, 0.0, None), ("per-entry", per_entry, 0.0, 0.0, None))
        with witness_cap(10):
            fast, slow = core._Recorder("mix"), core._Recorder("mix")
        fast.add_many(lambda law, i: (i,), checks)
        scalar_add_loop(slow, checks, (2, 3))
        assert as_json(fast.report()) == as_json(slow.report())
        assert repr(fast.report().max_gap) == "0.0"


def test_exhaustive_grid_sweep_at_the_size_limit_stays_in_bounded_memory():
    # 20,736 t-tuples of 12 pivots each, in blocks of BLOCK whole tuples.
    space = table_space(4, grid_table("line", 12))
    samples = axiom_samples(space, 1, SEED)
    tracemalloc.start()
    try:
        report = check_axioms(space, samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == 2 * 12 ** 5 + 12 ** 2
    assert peak < 4 * 1024 * 1024


def test_exhaustive_draw_and_sweep_at_the_size_limit_stay_under_1_5_mib():
    # The set is described by its shape, so neither the draw nor the sweep
    # holds the 248,832 x 5 index grid (9.5 MiB).
    space = table_space(4, grid_table("line", 12))
    tracemalloc.start()
    try:
        report = check_axioms(space, axiom_samples(space, 1, SEED))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == 2 * 12 ** 5 + 12 ** 2
    assert peak < 1.5 * 1024 * 1024


def test_the_sweep_by_t_tuple_does_not_build_the_point_array():
    space = table_space(3, grid_table("broken", 7))
    samples = axiom_samples(space, 1, SEED)
    check_axioms(space, samples)
    assert "points" not in vars(samples)


def hard_table(kind, n):
    """n-point tables for the sweep's clearing rule: ``negative`` has negative
    distances, ``huge`` entries near +-1e308 whose sums overflow to +-inf (and
    whose gaps are then NaN), ``negzero`` -0.0 on the diagonal and on some
    edges, in ``tight`` the smallest simplex right-hand side of the tuples
    (0, n-1) passes only within its tolerance, ``constant`` (1 everywhere)
    fails the identity law on every all-equal tuple but no simplex entry, and
    ``huge-constant`` (1e308 everywhere) has simplex right-hand sides of +inf
    at t = 2, so gaps of -inf, and both sides +inf above, so NaN gaps."""
    line = grid_table("line", n)
    for i in range(n):
        for j in range(n):
            if kind == "negative" and (i + 2 * j) % 5 == 1:
                line[i][j] = -1.0 - i
            elif kind == "huge" and i != j:
                line[i][j] = (1.0 if (i * j) % 3 else -0.75) * 1e308
            elif kind == "negzero" and (i == j or abs(i - j) == 3):
                line[i][j] = -0.0
    if kind in ("constant", "huge-constant"):
        return [[1.0 if kind == "constant" else 1e308] * n for _ in range(n)]
    if kind == "tight" and n > 2:
        line[0][n - 1] = line[n - 1][0] = line[0][n - 1] * (1 + 2e-10)
    return line


@functools.lru_cache(maxsize=None)
def hard_reference(kind, n, t, tol):
    space = table_space(t, hard_table(kind, n))
    return json.loads(as_json(ref.check_axioms(space, axiom_samples(space, 1, SEED), tol)))


def capped(doc, k):
    """A reference report of 100 witnesses cut to its first k."""
    return json.dumps(dict(doc, violations=doc["violations"][:k]), sort_keys=True)


@pytest.fixture(params=[None, 5, 100], ids=lambda b: f"block-{b or 'default'}")
def small_block(request, monkeypatch):
    # At n = 7 and 12, 5 < n makes groups of one run and blocks of one tuple;
    # 100 < n^2 splits a group's runs (2 runs of 7 tuples, 8 tuples of a
    # run of 12) between blocks.
    if request.param is not None:
        monkeypatch.setattr(core, "BLOCK", request.param)
    return request.param


def assert_sweep_matches_reference(kind, n, t, tols):
    space, rows = counting_distance(table_space(t, hard_table(kind, n)))
    samples = axiom_samples(space, 1, SEED)
    for tol in tols:
        rows.clear()
        doc = hard_reference(kind, n, t, tol)
        for k in (3, 100):
            with witness_cap(k):
                assert as_json(check_axioms(space, samples, tol)) == capped(doc, k)
        assert sum(rows) == 2 * n ** t  # one distance per t-tuple and run


HARD = ["negative", "huge", "negzero", "tight", "constant", "huge-constant"]


@pytest.mark.parametrize("kind", HARD)
@pytest.mark.parametrize("n, t", [(n, t) for n in (1, 2, 7, 12) for t in (2, 3, 4) if n * t < 48])
def test_sweep_by_t_tuple_clears_as_the_reference_checks(small_block, n, t, kind):
    assert_sweep_matches_reference(kind, n, t, (1e-9, 0.0))


@pytest.mark.parametrize("kind", ["negative", "huge", "tight"])
def test_sweep_by_t_tuple_clears_as_the_reference_checks_at_the_size_limit(kind):
    # n = 12, t = 4: the scalar reference takes about a second per tolerance.
    assert_sweep_matches_reference(kind, 12, 4, (1e-9,))


def sweep_paths(monkeypatch):
    """Counts of the product sweep's cleared groups and of its swept blocks."""
    counts = {"cleared": 0, "swept": 0}
    add_cleared, simplex_law = core._Recorder.add_cleared, core._simplex_law

    def cleared(self, count, top):
        counts["cleared"] += 1
        add_cleared(self, count, top)

    def swept(*args):
        counts["swept"] += 1
        return simplex_law(*args)

    monkeypatch.setattr(core._Recorder, "add_cleared", cleared)
    monkeypatch.setattr(core, "_simplex_law", swept)
    return counts


@pytest.mark.parametrize("tol, cleared", [(1e-9, True), (0.0, False), (-1e-3, False)])
def test_a_tuple_within_its_tolerance_is_cleared(monkeypatch, tol, cleared):
    # On the tight line at t = 2, the tuple (0, 6) has the smallest gap
    # fl(d - min rhs) = 12 * 2e-10 > 0 at pivots between 0 and 6: within the
    # scaled tolerance at 1e-9, a violation at 0, and a negative tolerance
    # shrinks as the right-hand side grows, so nothing is cleared there.
    space = table_space(2, hard_table("tight", 7))
    samples = axiom_samples(space, 1, SEED)
    counts = sweep_paths(monkeypatch)
    report = check_axioms(space, samples, tol)
    assert as_json(report) == as_json(ref.check_axioms(space, samples, tol))
    assert report.passed is cleared
    assert (counts["cleared"], counts["swept"] > 0) == ((1, False) if cleared else (0, True))
    assert 0.0 < report.max_gap <= 1e-9 * (1 + 12 * (1 + 2e-10))


@pytest.mark.parametrize("kind, t, tol, cleared", [
    # Integer lengths on a line: the simplex gaps are at most 0.
    ("line", 3, 0.0, True),
    # Tuple (0, 2) at pivot 1: gap 3 - (1 + 1) = 1 = 0.25 * (1 + 3), its tolerance.
    ("edge", 2, 0.25, True),
    ("edge", 2, 0.2499, False),
    # 1e308 - (1e308 + 1e308) = -inf for every tuple; inf - inf = NaN at t = 3.
    ("huge-constant", 2, 1e-9, True),
    ("huge-constant", 3, 1e-9, False),
])
def test_clearing_at_its_boundaries(monkeypatch, kind, t, tol, cleared):
    table = {"line": grid_table("line", 7), "edge": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
             "huge-constant": hard_table("huge-constant", 7)}[kind]
    space = table_space(t, table)
    samples = axiom_samples(space, 1, SEED)
    counts = sweep_paths(monkeypatch)
    report = check_axioms(space, samples, tol)
    assert as_json(report) == as_json(ref.check_axioms(space, samples, tol))
    assert (counts["cleared"], counts["swept"] > 0) == ((1, False) if cleared else (0, True))


def test_per_tuple_violations_do_not_stop_the_clearing(monkeypatch):
    # constant: every all-equal tuple fails the identity law on all of its
    # pivots, while every simplex entry passes, so the group is cleared and
    # still keeps the reference's witnesses, in entry order.
    space = table_space(3, hard_table("constant", 7))
    samples = axiom_samples(space, 1, SEED)
    counts = sweep_paths(monkeypatch)
    for k in (1, 8, 100):
        with witness_cap(k):
            report = check_axioms(space, samples)
        assert as_json(report) == capped(hard_reference("constant", 7, 3, 1e-9), k)
    assert report.violations_total == 7 * 7 and {v.law for v in report.violations} == {"identity"}
    assert counts == {"cleared": 3, "swept": 0}


@pytest.mark.parametrize("order", ["reversed", "pivot-first", "one-swap", "middle-swap"])
def test_grid_entries_out_of_order_take_the_entry_sweep(block, order):
    # Sets flagged exhaustive but built by hand, here not in product order:
    # the set's type decides, so they are swept entry by entry, one distance
    # per entry, and the report still matches.
    space, rows = counting_distance(table_space(3, grid_table("broken", 7)))
    entries = list(axiom_samples(space, 1, SEED).entries)
    if order == "reversed":
        entries.reverse()
    elif order == "pivot-first":
        entries = [e[1:] + e[:1] for e in entries]
    elif order == "one-swap":
        entries[-1], entries[-2] = entries[-2], entries[-1]
    else:  # pivots 2 and 5 of the middle run swapped
        middle = 7 * (7 ** 3 // 2)
        entries[middle + 2], entries[middle + 5] = entries[middle + 5], entries[middle + 2]
    samples = SampleSet.from_entries(space, entries, exhaustive=True)
    for max_witnesses in (1, 3, 100):
        rows.clear()
        with witness_cap(max_witnesses):
            report = check_axioms(space, samples)
        assert as_json(report) == as_json(ref.check_axioms(space, samples, max_witnesses=max_witnesses))
        assert sum(rows) == len(entries)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_grid_runs_in_any_tuple_order_take_the_grid_sweep(block, order):
    # The grid's runs of one t-tuple and all 7 pivots, not in product order,
    # in a hand-built set: the reference's report, from the entry sweep (one
    # distance per entry), since only a ProductSet takes the sweep by t-tuple.
    space, rows = counting_distance(table_space(3, grid_table("broken", 7)))
    entries = axiom_samples(space, 1, SEED).entries
    runs = [entries[i:i + 7] for i in range(0, len(entries), 7)]
    if order == "reversed":
        runs.reverse()
    else:
        np.random.default_rng(SEED).shuffle(runs)
    samples = SampleSet.from_entries(space, [e for run in runs for e in run], exhaustive=True)
    for max_witnesses in (1, 3, 100):
        rows.clear()
        with witness_cap(max_witnesses):
            report = check_axioms(space, samples)
        assert as_json(report) == as_json(ref.check_axioms(space, samples, max_witnesses=max_witnesses))
        assert sum(rows) == len(entries)


def test_set_not_of_grid_size_takes_the_entry_sweep(block):
    # Entries whose digit sums count up 0, 1, 2, 3, on a 2-point carrier: a
    # set of 4 entries, not 2^3, is never read as a grid, whatever its points.
    space, rows = counting_distance(table_space(2, grid_table("broken", 2)))
    samples = SampleSet.from_entries(space, [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert as_json(check_axioms(space, samples)) == as_json(ref.check_axioms(space, samples))
    assert sum(rows) == 4


def test_set_not_of_grid_size_takes_the_entry_sweep_whatever_its_t_tuples(block):
    # Read as a grid of one point, these entries pass the grid test: their
    # t-tuples' digit sums count up 0, 1, 2, 3 and every pivot is 0.  A set
    # of 4 entries, not 2^4, is still swept entry by entry.
    space, rows = counting_distance(table_space(3, grid_table("broken", 2)))
    samples = SampleSet.from_entries(space, [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0)])
    assert as_json(check_axioms(space, samples)) == as_json(ref.check_axioms(space, samples))
    assert sum(rows) == 4



def capped_check(name):
    """One of the eight capped checks on input it fails on more than 3
    times: its witnesses, and the count the cap applies to."""
    s = make_absdiff_space(3)
    identity = make_map(MapSpec.of("identity"), s)
    pairs = pair_samples(s, 20, SEED)
    rule = StopRule()
    if name == "classify":
        infeasible = sum(min(branch_constants(s, identity, x, y).normalized(3)) >= 1.0
                         for x, y in pairs)
        return classify(s, identity, pairs).witnesses, infeasible
    trace = picard_run(s, make_map(MapSpec.of("linear-scale", lam=0.5), s), 7.0, 0.5, rule)
    broken = table_space(3, BROKEN)
    run = {  # a tolerance of -2 makes every instance fail
        "check_axioms": lambda: check_axioms(broken, axiom_samples(broken, 300, SEED)),
        "check_symmetry": lambda: check_symmetry(s, pairs, -2.0),
        "check_triangle_inequality": lambda: check_triangle_inequality(
            s, triple_samples(s, 20, SEED), -2.0),
        "verify_decay": lambda: verify_decay(trace, -2.0),
        "verify_cauchy": lambda: verify_cauchy(trace, s, -2.0),
        # The identity fixes every start, so the six pairs of limits disagree.
        "uniqueness_probe": lambda: uniqueness_probe(
            s, identity, [picard_run(s, identity, x, 0.5, rule) for x in (1.0, 2.0, 3.0, 4.0)], rule),
        "verify_contraction_inequalities": lambda: verify_contraction_inequalities(
            s, identity, 0.5, pairs, -2.0),
    }[name]
    report = run()
    return report.violations, report.violations_total


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("name", [
    "check_axioms", "check_symmetry", "check_triangle_inequality", "verify_decay",
    "verify_cauchy", "uniqueness_probe", "classify", "verify_contraction_inequalities"])
def test_one_cap_sets_the_witnesses_of_every_check(monkeypatch, name, k):
    monkeypatch.setattr(core, "MAX_WITNESSES", k)
    witnesses, total = capped_check(name)
    assert total > 3
    assert len(witnesses) == min(k, total)
