"""Array sweeps against the scalar reference in ``scalar_reference.py``.

The law checks, the Cauchy sweep, the Zamfirescu certificate and the
contraction check run as numpy expressions over blocks of entries; the
reference runs the same checks one Python call per entry.
Every comparison is on the full report JSON, so counts, max_gap (with the
sign of a zero), the first violations and their order, witnesses and info
must all agree.  Blocks are also shrunk to a few entries so that block
boundaries, rows of the Cauchy sweep split across blocks and violations
in several blocks are exercised.
"""

import json
import math
import time
import tracemalloc

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
    verify_cauchy,
    verify_contraction_inequalities,
)
from ametric_fix import core, solver, spaces
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


def assert_law_checks_match(space, n=200, seed=SEED, **kwargs):
    for fast, slow, samples in (
        (check_axioms, ref.check_axioms, axiom_samples(space, n, seed)),
        (check_symmetry, ref.check_symmetry, pair_samples(space, n, seed)),
        (check_triangle_inequality, ref.check_triangle_inequality, triple_samples(space, n, seed)),
    ):
        assert as_json(fast(space, samples, **kwargs)) == as_json(slow(space, samples, **kwargs))


@pytest.mark.parametrize("t", [2, 3, 8])
@pytest.mark.parametrize("d", [1, 4])
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
    report = check_axioms(space, samples, max_witnesses=max_witnesses)
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


@pytest.mark.parametrize("negative_first", [True, False])
def test_signed_zero_max_gap_matches_reference(negative_first):
    # (0, 1, 2) has gap rep(0, 2) - [2 rep(0, 1) + rep(2, 1)] = -0.0 - 0.0 = -0.0
    # and (2, 1, 1) has gap 0.0 - 0.0 = +0.0; no gap is positive.  The scalar
    # running maximum keeps whichever zero comes first.
    table = {(0, 2): -0.0, (0, 1): 0.0, (2, 1): 0.0, (1, 2): 0.0, (1, 1): 0.0}

    def distance(pts):
        assert all(type(p) is int for p in pts)
        return table.get((pts[0], pts[-1]), 1.0)

    space = AMetricSpace(t=3, distance=distance, carrier=FiniteCarrier(3))
    runs = [[(0, 1, 2)] * 100, [(2, 1, 1)] * 100]
    triples = SampleSet.from_entries("triples", sum(runs if negative_first else runs[::-1], []))
    report = check_triangle_inequality(space, triples)
    assert report.max_gap == 0.0
    assert math.copysign(1.0, report.max_gap) == (-1.0 if negative_first else 1.0)
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
    report = verify_cauchy(trace, s, max_witnesses=max_witnesses)
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
    samples = SampleSet.from_entries("axioms", [good] * 5 + [bad])
    fast, slow = error_of(check_axioms, s, samples), error_of(ref.check_axioms, s, samples)
    assert fast[:2] == slow[:2]
    if first is not None:
        assert fast[2] == first or (math.isnan(first) and math.isnan(fast[2]))


@pytest.mark.parametrize("bad", [(0, 5, 1), (0, True, 1), (0, -1, 9), (0, 1.0, 1)])
def test_escaping_index_raises_as_before(bad):
    s = table_space(3, [row[:3] for row in LINE7[:3]])
    samples = SampleSet.from_entries("triples", [(0, 1, 2), bad])
    fast = error_of(check_triangle_inequality, s, samples)
    assert fast == error_of(ref.check_triangle_inequality, s, samples)


def test_escaping_d4_point_raises_as_before():
    s = make_absdiff_space(2, d=4, box=(-1.0, 1.0))
    ok = (0.0, 0.0, 0.0, 0.0)
    for bad in ((0.0, 0.0, 2.0, 0.0), (0.0, 0.0, 0.0), [0.0, 0.0, 0.0, 0.0, 0.0], 0.5):
        samples = SampleSet.from_entries("pairs", [(ok, ok), (ok, bad)])
        assert error_of(check_symmetry, s, samples) == error_of(ref.check_symmetry, s, samples)


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


def assert_certificate_matches(space, f, pairs, max_witnesses=100):
    """classify and the contraction check agree with the reference: full JSON,
    assignments (as Python ints) and the first error, if any."""
    fast = classify(space, f, pairs, max_witnesses=max_witnesses)
    slow = ref.classify(space, f, pairs, max_witnesses=max_witnesses)
    assert as_json(fast) == as_json(slow)
    assert fast.assignments == slow.assignments
    assert {type(b) for b in fast.assignments} == {int}
    deltas = {0.0, 0.5} | ({fast.delta} if fast.valid else set())
    for delta in sorted(deltas):
        for tol in (1e-9, -2.0):  # -2 (1 + |value|): every instance is a violation
            args = (space, f, delta, pairs, tol, max_witnesses)
            assert as_json(verify_contraction_inequalities(*args)) == as_json(
                ref.verify_contraction_inequalities(*args))
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
    # f(x) of the first pair escapes; the second pair's y is outside itself.
    ([(0.1, 0.0), (0.9, 0.0), (0.0, 5.0)], 1.4),
    ([(0.1, 0.0), (0.0, 5.0), (0.9, 0.0)], 5.0),
    ([(0.1, 0.2), (0.2, 0.95), (0.7, 0.1)], 1.45),  # f(y) only
    ([(0.1, 0.2), (0.2, math.nan)], math.nan),
    ([(0.1, 0.2), (0.2, (0.3, 0.4))], None),        # a malformed point
])
def test_escaping_pair_or_image_raises_as_before(block, check, pairs, first):
    s = make_absdiff_space(3, box=(-1.0, 1.0))
    f = unchecked_map(MapSpec.of("shift", offset=0.5), s)
    samples = SampleSet.from_entries("pairs", [(0.0, 0.1)] * 9 + pairs)
    if check == "classify":
        fast = error_of(classify, s, f, samples)
        slow = error_of(ref.classify, s, f, samples)
    else:
        fast = error_of(verify_contraction_inequalities, s, f, 0.5, samples)
        slow = error_of(ref.verify_contraction_inequalities, s, f, 0.5, samples)
    assert fast[:2] == slow[:2]
    assert "np." not in fast[1]
    if first is not None:
        assert type(fast[2]) is float
        assert fast[2] == first or (math.isnan(first) and math.isnan(fast[2]))


def test_escaping_d2_image_raises_as_before(block):
    s = make_absdiff_space(3, d=2, box=(-1.0, 1.0))
    f = unchecked_map(MapSpec.of("affine", alpha=2.0, beta=0.0), s)
    samples = SampleSet.from_entries("pairs", [((0.1, 0.2), (0.3, -0.4))] * 9
                                     + [((0.1, 0.2), (0.3, 0.6))])
    fast = error_of(classify, s, f, samples)
    assert fast == error_of(ref.classify, s, f, samples)
    assert fast[2] == (0.6, 1.2) and {type(c) for c in fast[2]} == {float}


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
    cert = assert_certificate_matches(space, f, SampleSet.from_entries("pairs", [(0, 1), (2, 3)]))
    assert cert.valid and cert.assignments == (1, 2)
    assert (cert.a, cert.b, cert.c) == (1.0 - 1e-10, 0.25, 0.0)
