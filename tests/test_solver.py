"""Picard iteration, error envelopes, and the finite-carrier oracle.

Covers:
    - the worked 2x/7 run: iterates, limit, exact step ratios
    - immediate convergence when the start is already fixed
    - max_iter, divergence, and carrier-escape terminations
    - the tail envelope: hand values, monotone decay, stop-rule bound
    - decay/cauchy verification including forged-delta negative controls
    - multi-start uniqueness probing and brute-force fixed points
"""

import math
import re

import numpy as np
import pytest

from ametric_fix import (
    AMetricSpace,
    CarrierDomainError,
    FiniteCarrier,
    MapSpec,
    PicardTrace,
    SelfMap,
    StopRule,
    UsageError,
    brute_force_fixed_points,
    make_absdiff_space,
    make_lifted_space,
    make_map,
    picard_run,
    rep_distance,
    table_space,
    tail_bound,
    uniqueness_probe,
    verify_cauchy,
    verify_decay,
)
from ametric_fix import core

SEED = 91

DISCRETE_3 = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]


def scheduled(steps):
    """A space on the indices 0..len(steps) and the map i -> i + 1, whose
    Picard run from 0 takes exactly the given steps: rep(i + 1, i) = steps[i]."""
    space = AMetricSpace(t=3, distance=lambda pts: 0.0, carrier=FiniteCarrier(len(steps) + 1),
                         rep_fn=lambda x, y: steps[min(x, y)])
    return space, SelfMap(kind="next", fn=lambda i: i + 1)


def paper_trace(t=3, eps=1e-12):
    s = make_absdiff_space(t)
    f = make_map(MapSpec.of("two-sevenths"), s)
    return s, picard_run(s, f, 7.0, 2 / 7, StopRule(eps=eps))


def test_picard_worked_example():
    s, trace = paper_trace()
    assert trace.status == "converged"
    assert trace.iterates[0] == 7.0
    assert trace.iterates[1] == 2.0
    assert trace.iterates[2] == pytest.approx(4 / 7, rel=1e-15)
    assert abs(trace.limit) <= 1e-11
    assert trace.d0 == 10.0


def test_picard_records_function_iterates():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=0.5), s)
    trace = picard_run(s, f, 64.0, 0.5, StopRule(eps=1e-6))
    for a, b in zip(trace.iterates, trace.iterates[1:]):
        assert b == f(a)
    for n, step in enumerate(trace.steps):
        assert step == rep_distance(s, trace.iterates[n + 1], trace.iterates[n])


def test_picard_start_already_fixed():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    trace = picard_run(s, f, 0.0, 2 / 7, StopRule())
    assert trace.status == "converged"
    assert trace.steps == ()
    assert trace.iterates == (0.0,)
    assert trace.limit == 0.0
    summary = trace.summary_dict()
    assert (summary["d0"], summary["final_step"]) == (0.0, 0.0)


def test_picard_shift_hits_max_iter():
    s = make_absdiff_space(3, box=(-1e6, 1e6))
    f = make_map(MapSpec.of("shift", offset=1.0), s, seed=SEED)
    trace = picard_run(s, f, 0.0, -1.0, StopRule(eps=1e-12, max_iter=50))
    assert trace.status == "max_iter"
    assert trace.limit is None
    assert len(trace.steps) == 50
    assert not trace.monitored


def test_stop_rule_bounds():
    # eps and bound_eps must be positive and max_iter at least 1.
    for bad in ({"eps": 0.0}, {"bound_eps": 0.0}, {"max_iter": 0}):
        with pytest.raises(UsageError):
            StopRule(**bad)
    s, f = scheduled([2.0, 1.0])
    trace = picard_run(s, f, 0, 0.5, StopRule(max_iter=1))
    assert (trace.status, trace.steps) == ("max_iter", (2.0,))
    summary = trace.summary_dict()
    assert (summary["d0"], summary["final_step"]) == (2.0, 2.0)


def test_picard_default_rule_stops_after_10000_steps():
    s = make_absdiff_space(3, box=(-1e6, 1e6))
    f = make_map(MapSpec.of("shift", offset=1.0), s, seed=SEED)
    trace = picard_run(s, f, 0.0, -1.0, StopRule())
    assert (trace.status, len(trace.steps)) == ("max_iter", 10_000)


def test_picard_step_equal_to_eps_converges():
    s, f = scheduled([1.0, 0.5, 0.25, 0.125])
    trace = picard_run(s, f, 0, 0.5, StopRule(eps=0.25, max_iter=4))
    assert (trace.status, trace.steps, trace.limit) == ("converged", (1.0, 0.5, 0.25), 3)


@pytest.mark.parametrize("delta, n_steps", [(0.5, 3), (0.0, 1)])
def test_picard_tail_bound_equal_to_bound_eps_converges(delta, n_steps):
    # Steps of 1.0, so d0 = 1 and tail(n) = 2 * delta^n / (1 - delta): at
    # delta = 0.5 it is 0.5 at n = 3, at delta = 0 it is 0 from n = 1 on.
    s, f = scheduled([1.0] * 8)
    trace = picard_run(s, f, 0, delta, StopRule(bound_eps=0.5, max_iter=8))
    assert (trace.status, len(trace.steps)) == ("converged", n_steps)


@pytest.mark.parametrize("growth, status", [
    (1.0 + 5e-9, "diverged"), (1.0 + 1e-9, "max_iter"), (1.0 + 5e-10, "max_iter")])
def test_picard_divergence_needs_growth_past_one_plus_1e_9(growth, status):
    # Each step is the one before times ``growth``: only a factor larger
    # than 1 + 1e-9 counts as growth.
    steps = [1.0]
    for _ in range(19):
        steps.append(steps[-1] * growth)
    s, f = scheduled(steps)
    trace = picard_run(s, f, 0, -1.0, StopRule(max_iter=20))
    assert trace.status == status
    assert len(trace.steps) == (11 if status == "diverged" else 20)


@pytest.mark.parametrize("growing, status, n_steps", [(10, "diverged", 12), (9, "max_iter", 20)])
def test_picard_step_that_does_not_grow_restarts_the_growth_window(growing, status, n_steps):
    # Step 1 shrinks, so the window counts again from 0: the 10th growing
    # step after it completes the window, and 9 growing steps do not.
    steps = [1.0, 0.5] + [0.5 * 2.0 ** k for k in range(1, growing + 1)]
    s, f = scheduled(steps + [steps[-1]] * (20 - len(steps)))
    trace = picard_run(s, f, 0, -1.0, StopRule(max_iter=20))
    assert (trace.status, len(trace.steps)) == (status, n_steps)


def test_picard_divergence_detected():
    s = make_absdiff_space(3, box=(-1e9, 1e9))
    doubler = SelfMap(kind="doubler", fn=lambda x: 2.0 * x)
    trace = picard_run(s, doubler, 1.0, -1.0, StopRule(eps=1e-12))
    assert trace.status == "diverged"
    assert trace.limit is None
    # Every step doubles the one before; growth is counted from the second
    # step, so the 11th step completes the 10-step growth window.
    assert len(trace.steps) == 11


def test_picard_escape_raises_with_index():
    s = make_absdiff_space(3, box=(0.0, 10.0))
    walker = SelfMap(kind="walker", fn=lambda x: x + 3.0)
    with pytest.raises(CarrierDomainError) as err:
        picard_run(s, walker, 5.0, -1.0, StopRule())
    assert err.value.index == 2  # 5 -> 8 -> 11 leaves at the second iterate


def test_picard_step_that_overflows_ends_the_run_unrecorded():
    s = make_absdiff_space(3, box=(0.0, 1.5e308))
    # 4 -> 2 -> 1 -> 0.5, then a jump whose rep is 2 * (1.5e308 - 0.5) = inf.
    jumper = SelfMap(kind="jumper", fn=lambda x: 1.5e308 if x < 1.0 else x / 2.0)
    trace = picard_run(s, jumper, 4.0, 0.5, StopRule())
    assert (trace.status, trace.limit) == ("overflow", None)
    assert trace.iterates == (4.0, 2.0, 1.0, 0.5)
    assert trace.steps == (4.0, 2.0, 1.0) and trace.d0 == 4.0
    assert trace.summary_dict()["final_tail_bound"] == 2 * 0.5 ** 3 * 4.0 / 0.5
    first = picard_run(s, jumper, 0.0, 0.5, StopRule())
    assert (first.status, first.iterates, first.steps, first.d0) == ("overflow", (0.0,), (), 0.0)


def test_summary_of_a_run_that_overflows_at_its_first_step_has_no_step():
    # No step was recorded, so there is no d0, final step or tail bound to
    # report; a run that stopped after its first step has all three.
    s = make_absdiff_space(3, box=(0.0, 1.5e308))
    jumper = SelfMap(kind="jumper", fn=lambda x: 1.5e308 if x < 1.0 else x / 2.0)
    summary = picard_run(s, jumper, 0.0, 0.5, StopRule()).summary_dict()
    assert (summary["status"], summary["iterations"]) == ("overflow", 0)
    assert summary["d0"] is summary["final_step"] is summary["final_tail_bound"] is None
    summary = picard_run(s, jumper, 2.0, 0.5, StopRule(max_iter=1)).summary_dict()
    # 2 -> 1: d0 = rep(1, 2) = 2 and tail(1) = 2 * 0.5 * 2 / 0.5.
    assert (summary["d0"], summary["final_step"], summary["final_tail_bound"]) == (2.0, 2.0, 4.0)


def test_picard_rejects_bad_delta():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    with pytest.raises(UsageError):
        picard_run(s, f, 1.0, 1.0, StopRule())


def test_tail_bound_hand_values():
    assert tail_bound(0.0, 3, 5.0, 1) == 0.0
    assert tail_bound(0.5, 2, 1.0, 3) == pytest.approx(0.25, abs=1e-15)
    assert tail_bound(2 / 7, 3, 10.0, 1) == pytest.approx(8.0, abs=1e-12)


def test_tail_bound_dominates_distance_to_limit():
    s, trace = paper_trace()
    # the true limit is 0; every recorded iterate sits inside its envelope
    for n, x in enumerate(trace.iterates):
        gap = rep_distance(s, x, 0.0)
        env = tail_bound(2 / 7, 3, trace.d0, n)
        assert gap <= env + 1e-9 * (1.0 + env)


def test_tail_bound_monotone_to_zero():
    values = [tail_bound(0.8, 4, 3.0, n) for n in range(250)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-22


def test_tail_bound_validation():
    with pytest.raises(UsageError):
        tail_bound(1.0, 3, 1.0, 0)
    with pytest.raises(UsageError):
        tail_bound(-0.1, 3, 1.0, 0)
    with pytest.raises(UsageError):
        tail_bound(0.5, 3, -1.0, 0)
    with pytest.raises(UsageError):
        tail_bound(0.5, 3, 1.0, -1)


def test_bound_eps_stops_within_predicted_iterations():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    delta, bound_eps = 2 / 7, 1e-6
    trace = picard_run(s, f, 7.0, delta, StopRule(eps=1e-300, bound_eps=bound_eps))
    assert trace.status == "converged"
    predicted = math.ceil(math.log(bound_eps * (1 - delta) / ((3 - 1) * trace.d0)) / math.log(delta))
    assert len(trace.steps) <= predicted


def test_verify_decay_worked_example():
    _, trace = paper_trace()
    report = verify_decay(trace)
    assert report.passed
    ratios = [b / a for a, b in zip(trace.steps, trace.steps[1:])]
    assert all(abs(r - 2 / 7) <= 1e-12 for r in ratios)


def test_verify_decay_is_exhaustive():
    _, trace = paper_trace()
    report = verify_decay(trace)
    assert report.checked == 2 * len(trace.steps) - 1
    assert report.exhaustive and report.to_dict()["exhaustive"] is True


def test_verify_decay_constant_map():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("constant", value=0.3), s)
    trace = picard_run(s, f, 9.0, 0.0, StopRule())
    assert trace.steps[1:] == (0.0,) * (len(trace.steps) - 1)
    assert verify_decay(trace).passed


def test_verify_decay_forged_delta_fails():
    s = make_absdiff_space(3, box=(-1e6, 1e6))
    f = make_map(MapSpec.of("shift", offset=1.0), s, seed=SEED)
    forged = picard_run(s, f, 0.0, 0.5, StopRule(max_iter=30))
    report = verify_decay(forged)
    assert not report.passed
    assert report.violations[0].witness  # witness carries the failing step index


@pytest.mark.parametrize("excess, passed", [(1e-9, True), (3e-9, False)])
def test_verify_decay_default_tolerance_is_1e_9(excess, passed):
    # d1 = 0.5 + excess against delta * d0 = delta^1 * d0 = 0.5; the scaled
    # tolerance at the default 1e-9 is about 1.5e-9, at 1e-8 about 1.5e-8.
    trace = PicardTrace(iterates=(0.0,) * 3, steps=(1.0, 0.5 + excess), delta=0.5, d0=1.0, t=3,
                        status="max_iter", limit=None)
    assert verify_decay(trace).passed is passed
    assert verify_decay(trace, 1e-8).passed


def test_verify_decay_needs_monitoring():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    trace = picard_run(s, f, 7.0, -1.0, StopRule())
    with pytest.raises(UsageError):
        verify_decay(trace)


def test_verify_cauchy_worked_example():
    s, trace = paper_trace()
    report = verify_cauchy(trace, s)
    assert report.passed
    n = len(trace.iterates)
    assert report.checked == n * (n - 1) // 2
    info = report.info
    assert info["envelope_rate"] == 1.0


def test_verify_cauchy_is_exhaustive_on_both_paths():
    s1, row_maxima = paper_trace()
    s2 = make_absdiff_space(3, d=2)
    swept = picard_run(s2, make_map(MapSpec.of("two-sevenths"), s2), (7.0, -3.0), 2 / 7, StopRule())
    # d = 1 clears rows by their maxima; d = 2 has no kernel and sweeps every pair.
    assert s1.farthest_later is not None and s2.farthest_later is None
    for space, trace in ((s1, row_maxima), (s2, swept)):
        report = verify_cauchy(trace, space)
        n = len(trace.iterates)
        assert report.passed and report.checked == n * (n - 1) // 2
        assert report.exhaustive and report.to_dict()["exhaustive"] is True


def test_verify_cauchy_short_trace_rejected():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("constant", value=0.0), s)
    trace = picard_run(s, f, 0.0, 0.0, StopRule())
    assert len(trace.iterates) == 1
    with pytest.raises(UsageError):
        verify_cauchy(trace, s)


def test_verify_cauchy_rejects_iterate_outside_carrier():
    s = make_absdiff_space(3, box=(-1.0, 1.0))
    trace = PicardTrace(iterates=(0.5, 0.25, 2.0), steps=(0.5, 3.5), delta=0.5, d0=0.5,
                        t=3, status="converged", limit=2.0)
    with pytest.raises(CarrierDomainError):
        verify_cauchy(trace, s)


def probe(space, f, starts, delta, rule):
    """The uniqueness report on one Picard run from each start."""
    traces = [picard_run(space, f, x0, delta, rule) for x0 in starts]
    return uniqueness_probe(space, f, traces, rule)


def converged(start, limit, delta=0.5):
    """A hand-built converged run from ``start`` that stopped at ``limit``."""
    return PicardTrace(iterates=(start, limit), steps=(1.0,), delta=delta, d0=1.0, t=3,
                       status="converged", limit=limit)


def test_uniqueness_probe_worked_example():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    report = probe(s, f, [-5.0, 0.1, 7.0], 2 / 7, StopRule(eps=1e-12))
    assert report.passed
    assert abs(report.info["limit"]) < 1e-11
    assert report.info["n_converged"] == 3


def test_uniqueness_probe_constant_map():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("constant", value=0.3), s)
    report = probe(s, f, [-50.0, 0.0, 12.0], 0.0, StopRule())
    assert report.passed
    assert report.info["limit"] == 0.3


def test_uniqueness_probe_identity_disagrees():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    report = probe(s, f, [0.0, 1.0], -1.0, StopRule())
    assert not report.passed
    assert any(v.law == "limit-agreement" for v in report.violations)


def test_uniqueness_probe_bound_eps_admits_limits_within_the_envelope():
    # Runs stopped by bound_eps end anywhere within bound_eps of the fixed
    # point 0, so their limits differ by far more than the eps-based tolerance.
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("two-sevenths"), s)
    report = probe(s, f, [-5.0, 0.1, 7.0, 60.0], 2 / 7, StopRule(bound_eps=1e-6))
    assert report.passed
    assert report.info["n_converged"] == 4
    assert 1e-9 < abs(report.info["limit"]) <= 1e-6 / 2


def test_uniqueness_probe_bound_eps_still_rejects_two_fixed_points():
    # 0.5x - 25 below 0 and 0.5x + 25 above: fixed points -50 and 50.
    s = make_absdiff_space(3)
    spec = MapSpec.of("piecewise", breakpoints=[0.0], pieces=[[0.5, -25.0], [0.5, 25.0]])
    f = make_map(spec, s)
    report = probe(s, f, [-10.0, 10.0], 0.5, StopRule(bound_eps=1e-6))
    assert report.info["n_converged"] == 2
    assert [v.law for v in report.violations] == ["limit-agreement"]
    assert report.violations[0].lhs > 199.99


def test_uniqueness_probe_needs_two_starts():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    with pytest.raises(UsageError):
        probe(s, f, [0.0], -1.0, StopRule())
    two = table_space(3, [[0, 1], [1, 0]])
    with pytest.raises(UsageError, match="^uniqueness_probe needs 2 or more runs"):
        probe(two, make_map(MapSpec.of("identity"), two), [1], -1.0, StopRule())


def test_uniqueness_probe_on_one_point_takes_its_one_start():
    s = table_space(3, [[0]])
    f = make_map(MapSpec.of("identity"), s)
    report = probe(s, f, [0], -1.0, StopRule())
    assert report.passed and report.checked == 1
    assert report.info == {"n_starts": 1, "n_converged": 1, "limit": 0, "residual": 0.0}
    with pytest.raises(UsageError, match="^uniqueness_probe needs 1 or more runs"):
        uniqueness_probe(s, f, [], StopRule())


def test_uniqueness_probe_names_each_run_by_its_first_iterate():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    stalled = PicardTrace(iterates=(4.0, 3.0), steps=(2.0,), delta=0.5, d0=2.0, t=3,
                          status="max_iter", limit=None)
    report = uniqueness_probe(s, f, [converged(1.0, 0.0), stalled, converged(2.0, 0.0)], StopRule())
    assert report.info["n_starts"] == 3 and report.info["n_converged"] == 2
    assert [(v.law, v.witness) for v in report.violations] == [("non-convergence[max_iter]", (4.0,))]
    with pytest.raises(UsageError):
        uniqueness_probe(s, f, [converged(1.0, 0.0), converged(2.0, 0.0, delta=0.25)], StopRule())


def test_uniqueness_probe_takes_no_fifth_argument_and_no_witness_cap(monkeypatch):
    # A fifth positional argument, as the tolerance the probe once took, is
    # refused, and so is a witness cap: core.MAX_WITNESSES sets it.
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    runs = [converged(1.0, 0.0), converged(2.0, 5.0)]  # two fixed points of the identity
    with pytest.raises(TypeError):
        uniqueness_probe(s, f, runs, StopRule(), 1e-9)
    with pytest.raises(TypeError):
        uniqueness_probe(s, f, runs, StopRule(), max_witnesses=0)
    monkeypatch.setattr(core, "MAX_WITNESSES", 0)
    report = uniqueness_probe(s, f, runs, StopRule())
    assert report.violations_total > 0 and report.violations == ()


@pytest.mark.parametrize("residual, passed", [(5e-12, True), (5e-11, False)])
def test_uniqueness_residual_acceptance_is_ten_eps(residual, passed):
    # rep(f(p), p) = 2 * |offset| at t = 3; the acceptance is 10 * eps = 1e-11.
    s = make_absdiff_space(3)
    f = SelfMap(kind="nudge", fn=lambda x: x + residual / 2)
    report = uniqueness_probe(s, f, [converged(1.0, 0.0), converged(2.0, 0.0)], StopRule(eps=1e-12))
    assert report.info["residual"] == residual
    assert report.passed is passed
    assert [v.law for v in report.violations] == ([] if passed else ["fixed-point-residual"])


@pytest.mark.parametrize("bound_eps", [None, 1e-6])
@pytest.mark.parametrize("past, passed", [(-1e-12, True), (1e-12, False)])
def test_uniqueness_limits_just_past_the_agreement_tolerance_fail(bound_eps, past, passed):
    # At t = 3, delta = 0.5 and eps = 1e-12 the scaled term is
    # 10 * (t-1) * eps / (1 - delta) = 4e-11 (eq_tol's term is about 1e-12);
    # with bound_eps it gains t * bound_eps = 3e-6.  The limits 0 and b are
    # rep = 2b apart, 1e-12 inside or past that tolerance.
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    tol = 4e-11 + 3 * (bound_eps or 0.0)
    runs = [converged(1.0, 0.0), converged(2.0, (tol + past) / 2)]
    report = uniqueness_probe(s, f, runs, StopRule(eps=1e-12, bound_eps=bound_eps))
    assert report.passed is passed
    assert [v.law for v in report.violations] == ([] if passed else ["limit-agreement"])


@pytest.mark.parametrize("certified", [None, 0.5, 0.97])
@pytest.mark.parametrize("past, passed", [(-1e-12, True), (1e-12, False)])
def test_unmonitored_runs_agree_within_the_certified_spread(certified, past, passed):
    # Runs made with delta -1 are sized by the certified delta, and without one
    # as if delta were 0: 10 * (t-1) * eps / (1 - certified) at t = 3 and
    # eps = 1e-12.  bound_eps never applies to them.
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    tol = 2e-11 / (1.0 - (certified or 0.0))
    runs = [converged(1.0, 0.0, delta=-1.0), converged(2.0, (tol + past) / 2, delta=-1.0)]
    report = uniqueness_probe(s, f, runs, StopRule(eps=1e-12, bound_eps=1e-6), certified=certified)
    assert report.passed is passed
    assert [v.law for v in report.violations] == ([] if passed else ["limit-agreement"])


def test_a_certified_delta_leaves_monitored_runs_and_the_residual_as_they_were():
    s = make_absdiff_space(3)
    identity = make_map(MapSpec.of("identity"), s)
    runs = [converged(1.0, 0.0), converged(2.0, 2.1e-11)]  # just past 4e-11 at delta 0.5
    report = uniqueness_probe(s, identity, runs, StopRule(eps=1e-12))
    assert not report.passed
    assert uniqueness_probe(s, identity, runs, StopRule(eps=1e-12), certified=0.9) == report
    # The consensus limit must still be a fixed point, and every run must converge.
    nudge = SelfMap(kind="nudge", fn=lambda x: x + 5e-11 / 2)
    stalled = PicardTrace(iterates=(3.0,), steps=(), delta=-1.0, d0=0.0, t=3, status="max_iter",
                          limit=None)
    runs = [converged(1.0, 0.0, delta=-1.0), converged(2.0, 0.0, delta=-1.0), stalled]
    report = uniqueness_probe(s, nudge, runs, StopRule(eps=1e-12), certified=0.9)
    assert [v.law for v in report.violations] == ["non-convergence[max_iter]", "fixed-point-residual"]
    for bad, message in ((1.0, "certified must be < 1, got 1.0"), (-0.5, "certified must be >= 0"),
                         (True, "certified must be a real number, got True")):
        with pytest.raises(UsageError, match=re.escape(message)):
            uniqueness_probe(s, nudge, runs, StopRule(), certified=bad)


def test_uniqueness_probe_bound_eps_applies_at_delta_zero():
    # At delta = 0 the agreement tolerance still gains t * bound_eps = 3e-6:
    # limits 0 and 1e-6 are rep = 2e-6 apart, far past the eps-based terms.
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    runs = [converged(1.0, 0.0, delta=0.0), converged(2.0, 1e-6, delta=0.0)]
    assert uniqueness_probe(s, f, runs, StopRule(eps=1e-12, bound_eps=1e-6)).passed


@pytest.mark.parametrize("limit, error", [(True, UsageError), ("a", UsageError),
                                          (1e9, CarrierDomainError)])
def test_uniqueness_probe_checks_the_limits_it_reads(limit, error):
    # The limits are read as verify_cauchy reads iterates.  They were once
    # taken as they came: True read as 1, 'a' raised a raw TypeError from
    # abs(), and 1e9 on the default box was judged as if it were a point.
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("constant", value=0.0), s)
    with pytest.raises(error):
        uniqueness_probe(s, f, [converged(1.0, 0.0), converged(2.0, limit)], StopRule())


def test_uniqueness_probe_reads_numpy_limits_as_points():
    s = make_lifted_space(3, DISCRETE_3)
    f = make_map(MapSpec.of("finite-table", images=[1, 1, 1]), s)
    runs = [converged(0, np.int64(1)), converged(2, 1)]
    report = uniqueness_probe(s, f, runs, StopRule())
    assert report.passed and type(report.info["limit"]) is int and report.info["limit"] == 1


def test_brute_force_fixed_points():
    s = make_lifted_space(3, DISCRETE_3)
    const = make_map(MapSpec.of("finite-table", images=[1, 1, 1]), s)
    assert brute_force_fixed_points(s, const) == (1,)
    ident = make_map(MapSpec.of("identity"), s)
    assert brute_force_fixed_points(s, ident) == (0, 1, 2)


def test_brute_force_needs_finite_carrier():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("identity"), s)
    with pytest.raises(UsageError):
        brute_force_fixed_points(s, f)


def test_finite_certified_map_matches_oracle():
    s = make_lifted_space(3, DISCRETE_3)
    f = make_map(MapSpec.of("finite-table", images=[1, 1, 1]), s)
    fps = brute_force_fixed_points(s, f)
    assert len(fps) == 1
    for start in range(3):
        trace = picard_run(s, f, start, 0.0, StopRule(eps=1e-15))
        assert trace.status == "converged"
        assert trace.limit == fps[0]


def test_csv_format():
    _, trace = paper_trace()
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "n,step,bound,ratio,tail_bound"
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == ""  # no ratio before the second step
    second = lines[2].split(",")
    assert float(second[3]) == pytest.approx(2 / 7, abs=1e-15)
    assert len(lines) == 1 + len(trace.steps)


def test_csv_ratio_cell_is_empty_on_row_zero_and_after_a_zero_step():
    trace = PicardTrace(iterates=(0.0,) * 5, steps=(1.0, 0.5, 0.0, 0.25), delta=0.5, d0=1.0,
                        t=3, status="max_iter", limit=None)
    assert [row.split(",")[3] for row in trace.to_csv().splitlines()[1:]] == ["", "0.5", "0", ""]


def test_unmonitored_csv_leaves_envelope_columns_empty():
    s = make_absdiff_space(3)
    f = make_map(MapSpec.of("linear-scale", lam=0.5), s)
    trace = picard_run(s, f, 8.0, -1.0, StopRule(eps=1e-6))
    row = trace.to_csv().strip().split("\n")[1].split(",")
    assert row[2] == "" and row[4] == ""
