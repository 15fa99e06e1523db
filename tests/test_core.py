"""Core space behavior: evaluation, the two-point reduction, and law checks.

Covers:
    - hand-computed distance values on the pairwise absolute-difference space
    - the two-point reduction and its (t-1)-scaling
    - law checks passing on healthy spaces and catching broken ones
    - degenerate-sample injection and exhaustive sweeps on finite carriers
    - error behavior for arity mismatches, escaped points, empty samples
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ametric_fix import (
    AMetricSpace,
    Box,
    CarrierDomainError,
    CheckReport,
    UsageError,
    Violation,
    axiom_samples,
    check_axioms,
    check_symmetry,
    check_triangle_inequality,
    evaluate,
    make_absdiff_space,
    pair_samples,
    points_equal,
    rep_distance,
    table_space,
    triple_samples,
)
from ametric_fix.core import FiniteCarrier
from ametric_fix.sampling import SampleSet

SEED = 1234


def test_eval_hand_values():
    s3 = make_absdiff_space(3)
    assert evaluate(s3, (0.0, 1.0, 2.0)) == 4.0
    s2 = make_absdiff_space(2)
    assert evaluate(s2, (3.0, 7.0)) == 4.0


def test_eval_all_equal_is_zero():
    s = make_absdiff_space(4)
    assert evaluate(s, (1.5,) * 4) == 0.0


def test_eval_arity_mismatch():
    s = make_absdiff_space(3)
    with pytest.raises(UsageError):
        evaluate(s, (0.0, 1.0))


def test_eval_outside_carrier():
    s = make_absdiff_space(3, box=(-1.0, 1.0))
    with pytest.raises(CarrierDomainError):
        evaluate(s, (0.0, 0.5, 2.0))


def test_rep_distance_hand_values():
    s3 = make_absdiff_space(3)
    assert rep_distance(s3, 0.0, 5.0) == 10.0
    assert rep_distance(s3, 2.0, 2.0) == 0.0
    s5 = make_absdiff_space(5)
    assert rep_distance(s5, 1.0, 2.0) == 4.0


@pytest.mark.parametrize("t", [2, 3, 4, 5, 8])
def test_rep_distance_scaling(t):
    s = make_absdiff_space(t)
    for x, y in [(0.0, 1.0), (-3.25, 8.5), (99.0, -99.0)]:
        assert rep_distance(s, x, y) == pytest.approx((t - 1) * abs(x - y), rel=1e-15)


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_t2_reduces_to_absolute_difference(x, y):
    s = make_absdiff_space(2)
    assert evaluate(s, (x, y)) == abs(x - y)


def test_check_axioms_absdiff_passes():
    s = make_absdiff_space(3)
    report = check_axioms(s, axiom_samples(s, 1000, SEED))
    assert report.passed
    assert report.violations == ()
    assert report.checked > 2000


def test_check_axioms_negative_distance_fails():
    s = AMetricSpace(t=3, distance=lambda pts: -1.0, carrier=Box.of(-1.0, 1.0))
    report = check_axioms(s, axiom_samples(s, 50, SEED))
    assert not report.passed
    assert any(v.law == "nonneg" for v in report.violations)


def test_check_axioms_zero_everywhere_fails_reverse_identity():
    # distance 0 between distinct points must be flagged
    s = table_space(3, [[0.0, 0.0], [0.0, 0.0]])
    report = check_axioms(s, axiom_samples(s, 10, SEED))
    assert not report.passed
    assert any(v.law == "identity-reverse" for v in report.violations)


@pytest.mark.parametrize("x, passed", [(0.5, True), (0.75, False)])
def test_reverse_identity_admits_a_spread_of_exactly_its_bound(x, passed):
    # At distance 0 and tol 0.05 the bound is max(10 * 0.05, eq_tol) = 0.5.
    s = AMetricSpace(t=3, distance=lambda pts: 0.0, carrier=Box.of(-1.0, 1.0), eq_tol=0.1)
    report = check_axioms(s, SampleSet.from_entries(s, [(0.0, x, 0.0, 0.0)]), tol=0.05)
    assert report.passed is passed
    assert report.max_gap == x - 0.5


def test_reverse_identity_applies_at_a_distance_of_exactly_its_tolerance():
    # Distance 1 and tol 0.5: the tolerance 0.5 * (1 + 1) is exactly 1, so the
    # distance counts as ~0 and the non-degenerate tuple is checked for it.
    s = AMetricSpace(t=3, distance=lambda pts: 1.0, carrier=Box.of(-1.0, 1.0))
    report = check_axioms(s, SampleSet.from_entries(s, [(0.0, 0.5, 0.0, 0.0)]), tol=0.5)
    assert report.passed and report.checked == 3  # nonneg, identity-reverse, simplex


@pytest.mark.parametrize("check, sampler", [(check_axioms, axiom_samples),
                                            (check_symmetry, pair_samples),
                                            (check_triangle_inequality, triple_samples)])
def test_law_checks_keep_100_witnesses_by_default(check, sampler):
    s = make_absdiff_space(3)
    report = check(s, sampler(s, 200, SEED), tol=-2.0)  # -2 (1 + |value|): every instance fails
    assert report.violations_total > 100 and len(report.violations) == 100


def test_check_axioms_empty_samples():
    s = make_absdiff_space(3)
    with pytest.raises(UsageError):
        check_axioms(s, SampleSet.from_entries(s, []))


def test_degenerate_tuples_are_injected():
    s = make_absdiff_space(3)
    samples = axiom_samples(s, 20, SEED)
    assert any(len(set(entry)) == 1 for entry in samples)          # all equal incl. pivot
    assert any(len(set(entry[:3])) == 1 and entry[3] != entry[0] for entry in samples)


def test_all_equal_tuple_contributes_zero_gap():
    s = make_absdiff_space(3)
    samples = SampleSet.from_entries(s, [(2.0, 2.0, 2.0, 2.0)])
    report = check_axioms(s, samples)
    assert report.passed
    assert report.max_gap <= 0.0


def test_finite_exhaustive_sweep():
    table = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]
    s = table_space(3, table)
    samples = axiom_samples(s, 10, SEED)
    assert samples.exhaustive
    assert len(samples) == 3 ** 4
    assert check_axioms(s, samples).passed


@pytest.mark.parametrize("check, entry", [
    (check_axioms, (0.0, 0.5, 0.5, 2.0)),
    (check_symmetry, (0.5, -3.0)),
    (check_triangle_inequality, (0.0, 1.5, 0.5)),
])
def test_checks_reject_entries_outside_carrier(check, entry):
    s = make_absdiff_space(3, box=(-1.0, 1.0))
    with pytest.raises(CarrierDomainError):
        check(s, SampleSet.from_entries(s, [(0.0,) * len(entry), entry]))


def test_witnesses_are_canonical_points():
    # from_entries validates the entry into canonical points: an int and a
    # 1-tuple on a 1-d box become floats, and the witness shows them so.
    s = AMetricSpace(t=2, distance=lambda pts: -1.0, carrier=Box.of(-1.0, 1.0))
    report = check_axioms(s, SampleSet.from_entries(s, [(0, (1,), 1)]))
    witness = report.violations[0].witness
    assert witness == (0.0, 1.0) and {type(p) for p in witness} == {float}


def test_report_writes_nested_non_finite_floats_as_strings():
    inf, nan = math.inf, math.nan
    violation = Violation("simplex", ((inf, 1.0), -inf, 2), inf, 0.0, inf, 1e-9)
    report = CheckReport("axioms", 1, (violation,), 1, inf, False,
                         info={"limit": (inf, 1.0), "runs": [(-inf, nan)], "n": 3})
    doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert doc["info"] == {"limit": ["inf", 1.0], "runs": [["-inf", "nan"]], "n": 3}
    assert doc["max_gap"] == "inf"
    assert doc["violations"] == [{"law": "simplex", "witness": [["inf", 1.0], "-inf", 2],
                                  "lhs": "inf", "rhs": 0.0, "gap": "inf", "tol": 1e-9}]


def test_check_symmetry_absdiff_exact():
    s = make_absdiff_space(4)
    report = check_symmetry(s, pair_samples(s, 500, SEED))
    assert report.passed
    assert report.max_gap == 0.0  # the pair-sum formula is permutation symmetric


def test_check_symmetry_finite_lifted_all_pairs():
    table = [[0.0, 2.0, 3.0], [2.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    s = table_space(3, table)
    pairs = pair_samples(s, 10, SEED)
    assert pairs.exhaustive and len(pairs) == 9
    assert check_symmetry(s, pairs).passed


def test_check_symmetry_broken_table_fails():
    s = table_space(3, [[0.0, 1.0], [2.0, 0.0]])
    report = check_symmetry(s, pair_samples(s, 10, SEED))
    assert not report.passed
    assert report.violations[0].gap > 0


def test_triangle_hand_case():
    s = make_absdiff_space(3)
    assert rep_distance(s, 0.0, 2.0) == 4.0
    assert 2 * rep_distance(s, 0.0, 1.0) + rep_distance(s, 2.0, 1.0) == 6.0
    report = check_triangle_inequality(s, SampleSet.from_entries(s, [(0.0, 1.0, 2.0)]))
    assert report.passed


def test_triangle_degenerate_triple():
    s = make_absdiff_space(3)
    report = check_triangle_inequality(s, SampleSet.from_entries(s, [(1.0, 1.0, 1.0)]))
    assert report.passed
    assert report.max_gap <= 0.0


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_triangle_sweep(t):
    s = make_absdiff_space(t)
    report = check_triangle_inequality(s, triple_samples(s, 1000, SEED))
    assert report.passed
    assert report.checked == 2 * len(triple_samples(s, 1000, SEED))


def test_symmetry_and_triangle_default_tolerance_is_1e_9():
    # rep(1, 0) = 1 + 3e-9 against rep(0, 1) = 1: a gap past 1e-9 * (2 + 3e-9)
    # and within 1e-8 times it.
    lopsided = table_space(2, [[0.0, 1.0], [1.0 + 3e-9, 0.0]])
    pairs = SampleSet.from_entries(lopsided, [(0, 1)])
    assert [v.law for v in check_symmetry(lopsided, pairs).violations] == ["symmetry"]
    assert check_symmetry(lopsided, pairs, 1e-8).passed
    # rep(0, 2) = 2 + 1e-8 against rep(0, 1) + rep(2, 1) = 2: a gap past
    # 1e-9 * (3 + 1e-8) and within 1e-8 times it.
    long_edge = table_space(2, [[0.0, 1.0, 2.0 + 1e-8], [1.0, 0.0, 1.0], [2.0 + 1e-8, 1.0, 0.0]])
    triples = SampleSet.from_entries(long_edge, [(0, 1, 2)])
    report = check_triangle_inequality(long_edge, triples)
    assert [v.law for v in report.violations] == ["triangle-a", "triangle-b"]
    assert check_triangle_inequality(long_edge, triples, 1e-8).passed


@pytest.mark.parametrize("x, inside", [(1.0 + 1e-12, True), (1.0 + 1e-10, False),
                                       (-1.0 - 1e-12, True), (-1.0 - 1e-10, False),
                                       (1.0 + 3e-12, False), (-1.0 - 3e-12, False)])
def test_box_admits_one_rounding_step_past_its_bounds(x, inside):
    # The box [-1, 1] has scale 1, so membership admits 1e-12 * (1 + 1) past a
    # bound, and not 3e-12.
    box = Box.of(-1.0, 1.0)
    validators = (box.canon, lambda p: box.array([p])[0], lambda p: box.array(np.array([p]))[0])
    for validate in validators:
        if inside:
            assert validate(x) == x
        else:
            with pytest.raises(CarrierDomainError):
                validate(x)


@pytest.mark.parametrize("d", [1, 2])
def test_box_admits_points_on_its_slack_bounds(d):
    box = Box.of(-1.0, 1.0, d)
    for bound in (box._lo_slack[0], box._hi_slack[0]):
        p = bound if d == 1 else (bound, 0.0)
        assert box.canon(p) == p
        assert box.array(np.array([p])).tolist() == [p if d == 1 else list(p)]


def test_points_equal_uses_eq_tol():
    s = make_absdiff_space(3, eq_tol=1e-9)
    assert points_equal(s, 1.0, 1.0 + 1e-10)
    assert not points_equal(s, 1.0, 1.0 + 1e-8)


def test_zero_eq_tol_is_exact_equality():
    s = make_absdiff_space(3, eq_tol=0.0)
    assert points_equal(s, 1.0, 1.0)
    assert not points_equal(s, 1.0, 1.0 + 2.0 ** -52)


def test_default_eq_tol_is_1e_12():
    raw = AMetricSpace(t=2, distance=lambda pts: abs(pts[0] - pts[1]), carrier=Box.of(-1.0, 1.0))
    assert points_equal(raw, 0.0, 1e-12)
    assert not points_equal(raw, 0.0, 5e-12)


@pytest.mark.parametrize("points", [[0, 3], np.array([0, 3]), [-1, 0], np.array([-1, 0])],
                         ids=["list-past-end", "array-past-end", "list-negative", "array-negative"])
def test_finite_carrier_rejects_indices_just_outside(points):
    with pytest.raises(CarrierDomainError):
        FiniteCarrier(3).array(points)


@pytest.fixture
def no_canon(monkeypatch):
    """Box.canon and FiniteCarrier.canon raise: only the array fast paths validate."""
    def refuse(self, p):
        raise AssertionError(f"canon called on {p!r}")

    monkeypatch.setattr(Box, "canon", refuse)
    monkeypatch.setattr(FiniteCarrier, "canon", refuse)


@pytest.mark.parametrize("d", [1, 2])
def test_box_array_takes_plain_points_in_bounds_as_they_are(no_canon, d):
    box = Box.of(-1.0, 1.0, d)
    # Both slack bounds, and points inside; at d = 2 each point is a tuple.
    values = [box._lo_slack[0], -0.5, 0.0, 0.25, box._hi_slack[0]]
    points = values if d == 1 else [(v, -v) for v in values]
    expected = np.array(points, dtype=float)
    for given in (points, tuple(points)):
        arr = box.array(given)
        assert arr.dtype == float and arr.shape == expected.shape
        assert arr.tolist() == expected.tolist()
    assert box.array(expected) is expected


def test_finite_carrier_array_takes_plain_indices_in_bounds_as_they_are(no_canon):
    carrier = FiniteCarrier(5)
    for given in ([0, 2, 4], [4, 0], [0], [4]):
        arr = carrier.array(given)
        assert arr.dtype == np.intp and arr.tolist() == given
        indices = np.array(given, dtype=np.intp)
        assert carrier.array(indices) is indices


@pytest.mark.parametrize("d", [1, 2])
def test_points_equal_admits_a_gap_of_exactly_eq_tol(d):
    s = make_absdiff_space(3, d=d, eq_tol=0.5)
    lift = (lambda v: v) if d == 1 else (lambda v: (0.0, v))
    assert points_equal(s, lift(1.0), lift(1.5))
    assert not points_equal(s, lift(1.0), lift(1.75))


def test_tuple_spread():
    """A tuple's spread is carrier.spread of its one-row point array."""
    def spread(space, points):
        carrier = space.carrier
        return float(carrier.spread(carrier.array(points)[np.newaxis])[0])

    s = make_absdiff_space(3)
    assert spread(s, (1.0, 4.0, 2.0)) == 3.0
    f = table_space(2, [[0.0, 1.0], [1.0, 0.0]])
    assert spread(f, (0, 0)) == 0.0
    assert spread(f, (0, 1)) == math.inf


def test_2d_space_uses_l1_pairs():
    s = make_absdiff_space(3, d=2, box=(-10.0, 10.0))
    val = evaluate(s, ((0.0, 0.0), (1.0, 2.0), (3.0, -1.0)))
    assert val == pytest.approx((1 + 2) + (3 + 1) + (2 + 3), rel=1e-15)
    assert rep_distance(s, (0.0, 0.0), (1.0, 1.0)) == pytest.approx(4.0)


def test_invalid_arity_rejected():
    with pytest.raises(UsageError):
        make_absdiff_space(1)


def test_invalid_box_rejected():
    with pytest.raises(UsageError):
        make_absdiff_space(3, box=(1.0, 1.0))


def test_box_whose_width_overflows_is_rejected():
    # Each bound is finite, but hi - lo is not: numpy could not sample the box.
    with pytest.raises(UsageError, match=r"box width of \[-1e\+308, 1e\+308\] overflows"):
        make_absdiff_space(3, box=(-1e308, 1e308))
    with pytest.raises(UsageError, match="overflows"):
        Box.of((0.0, -1e308), (1.0, 1e308))
    assert Box.of(-1e308, 7e307).d == 1
