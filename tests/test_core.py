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


@pytest.mark.parametrize("x, inside", [(1.0 + 1e-12, True), (1.0 + 1e-10, False),
                                       (-1.0 - 1e-12, True), (-1.0 - 1e-10, False)])
def test_box_admits_one_rounding_step_past_its_bounds(x, inside):
    # The box [-1, 1] has scale 1, so membership admits 1e-12 * (1 + 1) past a bound.
    box = Box.of(-1.0, 1.0)
    validators = (box.canon, lambda p: box.array([p])[0], lambda p: box.array(np.array([p]))[0])
    for validate in validators:
        if inside:
            assert validate(x) == x
        else:
            with pytest.raises(CarrierDomainError):
                validate(x)


def test_points_equal_uses_eq_tol():
    s = make_absdiff_space(3, eq_tol=1e-9)
    assert points_equal(s, 1.0, 1.0 + 1e-10)
    assert not points_equal(s, 1.0, 1.0 + 1e-8)


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
