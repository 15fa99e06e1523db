"""Branch-contraction classification and the contraction factor.

Covers:
    - per-pair branch requirements, including the 0/0 and k/0 conventions
    - classification of the worked 2x/7 example, scale maps, and the
      identity/shift negative controls with concrete witnesses
    - exact zero Kannan/Chatterjea constants for plain Lipschitz maps
    - the contraction-factor formula: hand values, range, monotonicity
    - the two damped-contraction inequalities on in- and out-of-sample pairs
"""

import json
import math
from itertools import product

import pytest
from hypothesis import given, strategies as st

from ametric_fix import (
    MapSpec,
    CarrierDomainError,
    SampleSet,
    SelfMap,
    UsageError,
    branch_constants,
    classify,
    compute_delta,
    make_absdiff_space,
    make_map,
    pair_samples,
    rep_distance,
    table_space,
    verify_contraction_inequalities,
)
from ametric_fix.sampling import STREAM_HOLDOUT
from ametric_fix.spaces import default_catalog
from ametric_fix.zamfirescu import BRANCH_CHATTERJEA

SEED = 424242

GRID_POINTS = [-7.0, -3.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.5, 7.0, 14.0]


def grid_pairs(space):
    return SampleSet.from_entries(space, product(GRID_POINTS, GRID_POINTS), exhaustive=True)


def test_branch_constants_worked_example():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    bc = branch_constants(s, f, 0.0, 7.0)
    assert bc.a_req == pytest.approx(2 / 7, abs=1e-15)


def test_branch_constants_identity():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    bc = branch_constants(s, f, 0.0, 1.0)
    assert bc.a_req == 1.0
    assert bc.b_req == math.inf  # zero denominator, positive numerator
    assert bc.c_req == 0.5


def test_branch_constants_constant_map():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("constant", value=0.0), s)
    bc = branch_constants(s, f, 3.0, -4.0)
    assert (bc.a_req, bc.b_req, bc.c_req) == (0.0, 0.0, 0.0)
    # both numerator and denominator vanish on the diagonal
    diag = branch_constants(s, f, 0.0, 0.0)
    assert diag.a_req == 0.0


@pytest.mark.parametrize("t", [2, 3, 5])
def test_classify_worked_example(t):
    s = make_absdiff_space(t)
    f = make_map(MapSpec.of("two-sevenths"), s)
    cert = classify(s, f, grid_pairs(s))
    assert cert.valid
    assert abs(cert.a - 2 / 7) <= 1e-12
    assert cert.b == 0.0 and cert.c == 0.0
    assert cert.delta == cert.a
    assert cert.witnesses == ()


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.9])
def test_scale_covariance(lam):
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=lam), s)
    cert = classify(s, f, pair_samples(s, 500, SEED))
    assert cert.valid
    assert abs(cert.a - lam) <= 1e-12
    assert cert.b == 0.0 and cert.c == 0.0


def test_classify_shift_invalid_with_witnesses():
    s = make_absdiff_space(3, box=(-1e6, 1e6))
    f = make_map(MapSpec.of("shift", offset=1.0), s, seed=SEED)
    cert = classify(s, f, pair_samples(s, 500, SEED))
    assert not cert.valid
    assert cert.delta is None
    assert len(cert.witnesses) > 0
    # hand check one witness-style pair: for (0, 1) every branch is at or over cap
    bc = branch_constants(s, f, 0.0, 1.0)
    assert bc.a_req == 1.0
    assert bc.b_req == 0.5
    assert bc.c_req == 0.5
    assert min(bc.normalized(3)) >= 1.0


def test_classify_identity_invalid():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    cert = classify(s, f, grid_pairs(s))
    assert not cert.valid
    assert len(cert.witnesses) > 0


def test_classify_constant_map():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("constant", value=0.3), s)
    cert = classify(s, f, pair_samples(s, 200, SEED))
    assert cert.valid
    assert cert.a == 0.0 and cert.delta == 0.0


def test_branch_counts_count_every_branch():
    # On the line 2, 3, 7 at t=3, f = (0, 2, 2) puts the pairs (0, 1) and
    # (1, 0) on the Chatterjea branch: rep(f0, f1) = 10 against a Banach
    # base of 2, a Kannan sum of 8 and a Chatterjea sum of 12, normalized
    # requirements 5, 3.75 and 2.5, and only the last is within the worst
    # per-pair minimum.
    s = table_space(3, [[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
    f = make_map(MapSpec.of("finite-table", images=[0, 2, 2]), s)
    cert = classify(s, f, pair_samples(s, 1, SEED))
    assert cert.assignments.count(BRANCH_CHATTERJEA) == 2
    assert cert.branch_counts == {"banach": 7, "kannan": 0, "chatterjea": 2}


@pytest.mark.parametrize("q, kannan", [(1.0 + 1e-8, 2), (1.0 + 1e-9, 0)])
def test_assignment_threshold_is_worst_times_one_plus_1e_9(q, kannan):
    # t=2, base 0-1: 1, 1-2: q, 0-2: 1.5, f = (1, 2, 2).  The pairs (0, 1)
    # and (1, 0) are the worst, with Kannan ratio 2q / (1 + q) and Banach
    # ratio q, (1 + q) / 2 times more: 1 + 5e-9 or 1 + 5e-10.  Banach is
    # taken only within a relative 1e-9 of the worst.
    s = table_space(2, [[0.0, 1.0, 1.5], [1.0, 0.0, q], [1.5, q, 0.0]])
    f = make_map(MapSpec.of("finite-table", images=[1, 2, 2]), s)
    cert = classify(s, f, pair_samples(s, 1, SEED))
    assert cert.branch_counts == {"banach": 9 - kannan, "kannan": kannan, "chatterjea": 0}


def test_classify_empty_pairs():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    with pytest.raises(UsageError):
        classify(s, f, SampleSet.from_entries(s, []))
    # One pair is enough.
    assert classify(s, f, SampleSet.from_entries(s, [(1.0, 2.0)])).n_pairs == 1


def test_valid_certificate_pairs_satisfy_some_branch():
    # independent of the assignment: re-check the branch inequalities directly
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    pairs = pair_samples(s, 300, SEED)
    cert = classify(s, f, pairs)
    assert cert.valid
    for x, y in pairs:
        fx, fy = f(x), f(y)
        lhs = rep_distance(s, fx, fy)
        tol = 1e-9 * (1.0 + lhs)
        az1 = lhs <= cert.a * rep_distance(s, x, y) + tol
        az2 = lhs <= cert.b * (rep_distance(s, fx, x) + rep_distance(s, fy, y)) + tol
        az3 = lhs <= cert.c * (rep_distance(s, fx, y) + rep_distance(s, fy, x)) + tol
        assert az1 or az2 or az3


def test_t2_certificate_caps():
    s = make_absdiff_space(2)
    f = make_map(MapSpec.of("identity"), s)
    cert = classify(s, f, grid_pairs(s))
    assert not cert.valid  # a_req == 1 and c_req == 1/2 both sit exactly at their caps


def test_compute_delta_hand_values():
    assert abs(compute_delta(2 / 7, 0.0, 0.0, 3) - 2 / 7) <= 1e-15
    assert abs(compute_delta(0.0, 1 / 3, 0.0, 2) - 0.5) <= 1e-15
    assert abs(compute_delta(0.0, 0.0, 0.25, 3) - 0.5) <= 1e-15


def test_compute_delta_grid_stays_below_one():
    for t in (2, 3, 4, 5):
        for i, j, k in product(range(10), repeat=3):
            a = 0.99 * i / 10
            b = 0.99 * j / 10 / t
            c = 0.99 * k / 10 / t
            assert 0.0 <= compute_delta(a, b, c, t) < 1.0


@pytest.mark.parametrize("bad", [(-0.1, 0, 0, 3), (1.0, 0, 0, 3), (0, 1 / 3, 0, 3),
                                 (0, 0, 0.5, 2), (0.5, 0, 0, 1)])
def test_compute_delta_rejects_out_of_range(bad):
    with pytest.raises(UsageError):
        compute_delta(*bad)


@given(
    st.integers(2, 6),
    st.floats(0, 0.999),
    st.floats(0, 0.999),
    st.floats(0, 0.999),
    st.floats(0, 0.999),
)
def test_compute_delta_monotone(t, fa, fb, fa2, fb2):
    a1, a2 = sorted((fa, fa2))
    b1, b2 = sorted((fb / t, fb2 / t))
    assert compute_delta(a1, b1, 0.0, t) <= compute_delta(a2, b2, 0.0, t) < 1.0


def test_contraction_inequalities_hold_for_worked_example():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    cert = classify(s, f, grid_pairs(s))
    fresh = pair_samples(s, 1000, SEED, stream=STREAM_HOLDOUT)
    report = verify_contraction_inequalities(s, f, cert.delta, fresh)
    assert report.passed
    assert report.checked == 2 * len(fresh)


def test_contraction_inequalities_trivial_on_diagonal():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=0.5), s)
    pairs = SampleSet.from_entries(s, [(2.0, 2.0)])
    assert verify_contraction_inequalities(s, f, 0.5, pairs).passed


def test_contraction_inequalities_forged_delta_fails():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=0.5), s)
    report = verify_contraction_inequalities(s, f, 0.0, grid_pairs(s))
    assert not report.passed
    assert report.violations[0].lhs > 0


@pytest.mark.parametrize("delta", [1.0, -1e-300])
def test_contraction_check_needs_delta_in_zero_one(delta):
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    with pytest.raises(UsageError):
        verify_contraction_inequalities(s, f, delta, grid_pairs(s))


def test_contraction_check_default_tolerance_is_1e_9():
    # t=2, f = (0, 2, 2), delta 0.5: the pair (0, 1) has lhs base(0, 2) =
    # 0.5 + 3.75e-9 against the own-step bound 0.5, a gap of 2.5e-9 times
    # its scale 1 + 0.5 + 3.75e-9.
    s = table_space(2, [[0.0, 1.0, 0.5 + 3.75e-9], [1.0, 0.0, 1.0], [0.5 + 3.75e-9, 1.0, 0.0]])
    f = make_map(MapSpec.of("finite-table", images=[0, 2, 2]), s)
    pairs = SampleSet.from_entries(s, [(0, 1)])
    report = verify_contraction_inequalities(s, f, 0.5, pairs)
    assert [v.law for v in report.violations] == ["contraction-own-step"]
    assert verify_contraction_inequalities(s, f, 0.5, pairs, 1e-8).passed


def test_certificate_serializes_with_infinite_witnesses():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    cert = classify(s, f, grid_pairs(s))
    doc = cert.to_dict()
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    assert "inf" in text
    assert doc["valid"] is False and doc["delta"] is None
    assert doc["n_pairs"] == len(grid_pairs(s))


def test_delta_with_margin():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    cert = classify(s, f, grid_pairs(s))
    inflated = cert.delta_with_margin(1e-9)
    assert cert.delta < inflated < cert.delta * (1 + 1e-8)
    # The default margin is 1e-9, and a zero margin is allowed.
    assert cert.delta_with_margin() == inflated
    assert cert.delta_with_margin(0.0) == cert.delta
    with pytest.raises(UsageError):
        cert.delta_with_margin(-1e-300)
    bad = classify(s, make_map(MapSpec.of("identity"), s), grid_pairs(s))
    with pytest.raises(UsageError):
        bad.delta_with_margin()


@pytest.mark.parametrize("t", [2, 3, 8])
def test_zero_margin_gives_the_certificate_delta_bit_for_bit(t):
    # delta_with_margin scales each constant by 1.0 + 0.0 == 1.0, and x * 1.0 == x,
    # so the CLI's default safety_margin of 0.0 needs no branch of its own.
    s = make_absdiff_space(t, box=(-1e6, 1e6))
    for _, spec, contractive in default_catalog():
        cert = classify(s, make_map(spec, s, seed=SEED), pair_samples(s, 200, SEED))
        assert cert.valid is contractive
        if cert.valid:
            assert cert.delta_with_margin(0.0).hex() == cert.delta.hex()


def test_escaping_images_are_rejected():
    # Built directly, so make_map's range check never sees the escape.
    s = make_absdiff_space(3, box=(-1.0, 1.0))
    f = SelfMap(kind="escape", fn=lambda x: x + 1.5)
    pairs = SampleSet.from_entries(s, [(-1.0, -0.9), (0.0, 0.5)])
    with pytest.raises(CarrierDomainError):
        classify(s, f, pairs)
    with pytest.raises(CarrierDomainError):
        verify_contraction_inequalities(s, f, 0.5, pairs)
