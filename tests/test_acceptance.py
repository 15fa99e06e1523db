"""Acceptance suite: one test per release criterion, each printing a PASS line.

    1. Worked 2x/7 example: certificate constants and Picard run at t in {2,3,5}
    2. Law checks: seeded sweeps at t in {2,3,4,5,8} plus an exhaustive
       10-point lifted space at t = 3
    3. Contraction-factor formula: hand values and a full grid below 1
    4. Damped-contraction inequalities out of sample for every certified
       catalog map
    5. Finite-space sweep: valid certificates imply a unique fixed point
       reached from every start; 0 or >= 2 fixed points imply rejection
    6. Decay and pairwise tail envelopes on every certified trace, with the
       looser historical bound reported but not asserted
    7. Negative controls: identity, shift, and an asymmetric table
    8. Byte-identical reports for identical config and seed

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import json
import math
from itertools import product

import pytest

from ametric_fix import (
    MapSpec,
    SampleSet,
    StopRule,
    brute_force_fixed_points,
    check_axioms,
    check_symmetry,
    check_triangle_inequality,
    classify,
    compute_delta,
    make_absdiff_space,
    make_lifted_space,
    make_map,
    pair_samples,
    axiom_samples,
    picard_run,
    table_space,
    triple_samples,
    verify_cauchy,
    verify_contraction_inequalities,
    verify_decay,
)
from ametric_fix.cli import main
from ametric_fix.sampling import STREAM_HOLDOUT, philox
from ametric_fix.spaces import default_catalog

SEED = 987654321

GRID_POINTS = [-7.0, -3.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.5, 7.0, 14.0]

CATALOG_BOX = (-1e6, 1e6)

LINE_10 = [0.0, 0.5, 1.1, 2.0, 3.3, 4.1, 5.9, 7.2, 8.8, 10.0]


def grid_pairs(space):
    return SampleSet.from_entries(space, product(GRID_POINTS, GRID_POINTS), exhaustive=True)


def _report(cid: str, detail: str):
    print(f"ACCEPTANCE {cid}: PASS — {detail}")


# -- 1. worked example reproduction -----------------------------------------

@pytest.mark.parametrize("t", [2, 3, 5])
def test_c1_worked_example(t):
    space = make_absdiff_space(t)
    f = make_map(MapSpec.of("two-sevenths"), space)

    cert = classify(space, f, grid_pairs(space))
    assert cert.valid
    assert abs(cert.a - 2 / 7) <= 1e-12
    assert cert.b == 0.0 and cert.c == 0.0
    assert cert.delta == cert.a

    trace = picard_run(space, f, 7.0, cert.delta, StopRule(eps=1e-12))
    assert trace.status == "converged"
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        assert abs(cur / prev - 2 / 7) <= 1e-12
    assert abs(trace.limit) <= 1e-11
    _report("1", f"t={t}: a={cert.a!r}, {len(trace.steps)} iterations, limit {trace.limit:.2e}")


# -- 2. law checks ------------------------------------------------------------

@pytest.mark.parametrize("t", [2, 3, 4, 5, 8])
def test_c2_law_sweeps_absdiff(t):
    space = make_absdiff_space(t)
    ax = check_axioms(space, axiom_samples(space, 1000, SEED))
    sym = check_symmetry(space, pair_samples(space, 1000, SEED))
    tri = check_triangle_inequality(space, triple_samples(space, 1000, SEED))
    for report in (ax, sym, tri):
        assert report.passed
        assert report.violations_total == 0
        assert report.checked >= 1000
    _report("2", f"absdiff t={t}: {ax.checked}+{sym.checked}+{tri.checked} instances, 0 violations")


def test_c2_exhaustive_finite_lifted():
    table = [[abs(a - b) for b in LINE_10] for a in LINE_10]
    space = make_lifted_space(3, table, seed=SEED)
    ax_samples = axiom_samples(space, 1, SEED)
    assert ax_samples.exhaustive and len(ax_samples) == 10 ** 4
    ax = check_axioms(space, ax_samples)
    sym = check_symmetry(space, pair_samples(space, 1, SEED))
    tri = check_triangle_inequality(space, triple_samples(space, 1, SEED))
    assert ax.passed and sym.passed and tri.passed
    assert sym.exhaustive and tri.exhaustive
    _report("2", f"10-point lifted space t=3 exhaustive: {ax.checked} axiom instances, 0 violations")


# -- 3. contraction-factor formula --------------------------------------------

def test_c3_delta_formula():
    assert abs(compute_delta(2 / 7, 0.0, 0.0, 3) - 2 / 7) <= 1e-15
    assert abs(compute_delta(2 / 7, 0.0, 0.0, 2) - 2 / 7) <= 1e-15
    assert abs(compute_delta(0.0, 1 / 3, 0.0, 2) - 0.5) <= 1e-15
    assert abs(compute_delta(0.0, 0.0, 0.25, 3) - 0.5) <= 1e-15
    worst = 0.0
    for t in (2, 3, 4, 5):
        for i, j, k in product(range(10), repeat=3):
            delta = compute_delta(0.99 * i / 10, 0.99 * j / 10 / t, 0.99 * k / 10 / t, t)
            assert 0.0 <= delta < 1.0
            worst = max(worst, delta)
    _report("3", f"hand values within 1e-15; 10x10x10x4 grid max delta {worst:.6f} < 1")


# -- 4 & 6. certified catalog maps: inequalities and envelopes ----------------

def _certified_catalog_runs():
    space = make_absdiff_space(3, box=CATALOG_BOX)
    runs = []
    for name, spec, expect_contractive in default_catalog():
        f = make_map(spec, space, seed=SEED)
        cert = classify(space, f, pair_samples(space, 1000, SEED))
        assert cert.valid == expect_contractive, name
        if cert.valid:
            runs.append((name, f, cert))
    return space, runs


def test_c4_contraction_inequalities_out_of_sample():
    space, runs = _certified_catalog_runs()
    assert len(runs) == 6
    fresh = pair_samples(space, 1000, SEED, stream=STREAM_HOLDOUT)
    for name, f, cert in runs:
        report = verify_contraction_inequalities(space, f, cert.delta, fresh)
        assert report.passed, name
        assert report.checked == 2 * len(fresh)
    _report("4", f"{len(runs)} certified catalog maps hold both inequalities on {len(fresh)} fresh pairs")


def test_c6_decay_and_tail_envelopes():
    space, runs = _certified_catalog_runs()
    rates = {}
    for name, f, cert in runs:
        trace = picard_run(space, f, 7.0, cert.delta, StopRule(eps=1e-12))
        assert trace.status == "converged", name
        decay = verify_decay(trace)
        assert decay.passed, name
        if len(trace.iterates) >= 3:
            cauchy = verify_cauchy(trace, space)
            assert cauchy.passed, name
            rates[name] = cauchy.info["envelope_rate"]
    assert rates
    _report("6", f"all certified traces inside both envelopes; envelope rates {rates}")


# -- 5. finite-space sweep ------------------------------------------------------

def _finite_trial(trial: int):
    rng = philox(5000 + trial, 101)
    n = int(rng.integers(4, 13))
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    table = [
        [float(abs(pts[i, 0] - pts[j, 0]) + abs(pts[i, 1] - pts[j, 1])) for j in range(n)]
        for i in range(n)
    ]
    space = make_lifted_space(3, table, seed=SEED + trial)
    specs = {
        "random": [int(v) for v in rng.integers(0, n, size=n)],
        "constant": [int(rng.integers(0, n))] * n,
        "swap": [1, 0] + list(range(2, n)),
        "cycle": [(i + 1) % n for i in range(n)],
    }
    return space, n, specs


def test_c5_finite_space_sweep():
    n_valid = n_zero_fp = n_multi_fp = 0
    for trial in range(20):
        space, n, specs = _finite_trial(trial)
        for kind, images in specs.items():
            f = make_map(MapSpec.of("finite-table", images=images), space)
            cert = classify(space, f, pair_samples(space, 1, SEED))
            assert cert.exhaustive
            fps = brute_force_fixed_points(space, f)
            if cert.valid:
                n_valid += 1
                assert len(fps) == 1, (trial, kind)
                for start in range(n):
                    trace = picard_run(space, f, start, cert.delta, StopRule(eps=1e-15))
                    assert trace.status == "converged", (trial, kind, start)
                    assert trace.limit == fps[0], (trial, kind, start)
            if len(fps) != 1:
                assert not cert.valid, (trial, kind, fps)
            n_zero_fp += len(fps) == 0
            n_multi_fp += len(fps) >= 2
    assert n_valid >= 20       # every constant map certifies
    assert n_zero_fp >= 20     # every cycle map is fixed-point free
    assert n_multi_fp >= 20    # every swap map fixes n-2 >= 2 points
    _report("5", f"80 maps on 20 spaces: {n_valid} certified (unique fixed point each), "
                 f"{n_zero_fp} with 0 and {n_multi_fp} with >=2 fixed points all rejected")


# -- 7. negative controls -------------------------------------------------------

def test_c7_negative_controls():
    space = make_absdiff_space(3, box=CATALOG_BOX)
    for kind in ("identity", "shift"):
        f = make_map(MapSpec.of(kind), space, seed=SEED)
        cert = classify(space, f, pair_samples(space, 1000, SEED))
        assert not cert.valid, kind
        assert len(cert.witnesses) > 0, kind
        w = cert.witnesses[0]
        assert min(w.normalized(space.t)) >= 1.0

    crooked = table_space(3, [[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    sym = check_symmetry(crooked, pair_samples(crooked, 1, SEED))
    assert not sym.passed
    assert sym.violations[0].gap > 0
    _report("7", "identity and shift rejected with witness pairs; asymmetric table fails symmetry")


# -- 8. determinism ---------------------------------------------------------------

def test_c8_byte_identical_reports(tmp_path, capsys):
    cfg = {
        "space": {"kind": "absdiff", "t": 3, "d": 1, "box": [-100.0, 100.0]},
        "map": {"kind": "two-sevenths"},
        "sampling": {"seed": SEED, "n_tuples": 400, "n_pairs": 400, "n_triples": 400, "n_starts": 4},
        "tolerances": {"eps": 1e-12},
        "solver": {"x0": 7.0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for sub in ("a", "b"):
        assert main(["verify", "--config", str(cfg_path), "--out-dir", str(tmp_path / sub)]) == 0
        capsys.readouterr()
    report_a = (tmp_path / "a" / "report.json").read_bytes()
    report_b = (tmp_path / "b" / "report.json").read_bytes()
    csv_a = (tmp_path / "a" / "trace.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert report_a == report_b
    assert csv_a == csv_b
    assert json.loads(report_a)["verdict"] == "pass"
    _report("8", f"verify reports byte-identical across runs ({len(report_a)} bytes JSON, "
                 f"{len(csv_a)} bytes CSV)")
