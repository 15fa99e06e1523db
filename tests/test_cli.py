"""Command-line behavior: configs, reports, exit codes, determinism.

Exit-code contract: 0 all checks pass, 1 mathematical violation or
non-convergence, 2 usage/config error — and nothing else.
"""

import json
import logging
import math
import time
from pathlib import Path

import pytest

from ametric_fix import cli, spaces
from ametric_fix.cli import main, materialize_config
from ametric_fix.errors import UsageError

PAPER_CFG = {
    "space": {"kind": "absdiff", "t": 3, "d": 1, "box": [-100.0, 100.0]},
    "map": {"kind": "two-sevenths"},
    "sampling": {"seed": 20250809, "n_tuples": 300, "n_pairs": 300, "n_triples": 300, "n_starts": 4},
    "tolerances": {"eps": 1e-12},
    "solver": {"x0": 7.0},
}

DISCRETE_TABLE = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def load_report(tmp_path, name="report.json"):
    return json.loads((tmp_path / name).read_text())


def test_axioms_absdiff_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PAPER_CFG)
    code, out, _ = run(["axioms", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out.strip() == str(tmp_path / "report.json")
    report = load_report(tmp_path)
    assert report["verdict"] == "pass"
    assert all(report["checks"][k]["passed"] for k in ("axioms", "symmetry", "triangle"))


def test_axioms_broken_table_exits_one_with_witness(tmp_path, capsys):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc["space"] = {"kind": "lifted", "t": 3,
                    "base_table": [[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]]}
    doc["map"] = {"kind": "identity"}
    doc["solver"]["x0"] = 0
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["axioms", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert report["verdict"] == "fail"
    symmetry = report["checks"]["symmetry"]
    assert not symmetry["passed"]
    assert symmetry["violations"][0]["witness"]


def test_missing_seed_is_usage_error(tmp_path, capsys):
    doc = {k: v for k, v in PAPER_CFG.items() if k != "sampling"}
    doc["sampling"] = {"n_pairs": 10}
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["axioms", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "sampling.seed" in err


def test_malformed_json_is_anchored_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"space": {,}')
    code, _, err = run(["axioms", "--config", str(path), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "cfg.json:1:" in err


def test_unknown_key_is_usage_error(tmp_path, capsys):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc["solver"]["warp"] = 9
    cfg = write_cfg(tmp_path, doc)
    code, _, err = run(["classify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "solver.warp" in err


def test_classify_worked_example(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PAPER_CFG)
    code, _, _ = run(["classify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    report = load_report(tmp_path)
    cert = report["certificate"]
    assert cert["valid"] and abs(cert["a"] - 2 / 7) < 1e-9
    assert cert["b"] == 0.0 and cert["c"] == 0.0
    assert cert["delta"] == cert["a"]
    assert report["contraction"]["passed"]


def test_classify_shift_rejected_with_witnesses(tmp_path, capsys):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc["space"]["box"] = [-1e6, 1e6]
    doc["map"] = {"kind": "shift", "offset": 1.0}
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["classify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert report["certificate"]["valid"] is False
    assert len(report["certificate"]["witnesses"]) > 0


def test_classify_constant_map_passes(tmp_path, capsys):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc["map"] = {"kind": "constant", "value": 0.3}
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["classify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert load_report(tmp_path)["certificate"]["a"] == 0.0


def test_solve_worked_example(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PAPER_CFG)
    code, out, _ = run(["solve", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out.splitlines() == [str(tmp_path / "trace.csv"), str(tmp_path / "report.json")]
    report = load_report(tmp_path)
    assert report["verdict"] == "pass"
    assert abs(report["trace"]["limit"]) <= 1e-11
    assert report["trace"]["iterations"] < 35
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "n,step,bound,ratio,tail_bound"
    assert len(rows) == 1 + report["trace"]["iterations"]


def test_solve_from_fixed_start(tmp_path, capsys):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc["solver"]["x0"] = 0.0
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["solve", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert load_report(tmp_path)["trace"]["iterations"] == 0


def test_solve_max_iter_exit_one(tmp_path, capsys):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc["solver"]["max_iter"] = 3
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["solve", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert report["trace"]["status"] == "max_iter"
    assert report["trace"]["iterations"] == 3


def test_solve_with_explicit_delta_skips_classification(tmp_path, capsys):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc["solver"]["delta"] = 0.5
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["solve", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    report = load_report(tmp_path)
    assert report["certificate"] is None
    assert report["delta_used"] == 0.5


def test_solve_uncertified_map_exit_one(tmp_path, capsys):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc["map"] = {"kind": "identity"}
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["solve", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert report["verdict"] == "fail"
    assert report["certificate"]["valid"] is False


def test_verify_worked_example(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PAPER_CFG)
    code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    report = load_report(tmp_path)
    assert report["verdict"] == "pass"
    assert report["failures"] == []
    assert report["decay"]["passed"] and report["cauchy"]["passed"]
    assert report["uniqueness"]["passed"]


def test_verify_identity_fails_at_classification(tmp_path, capsys):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc["map"] = {"kind": "identity"}
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert report["failures"] == ["classification"]
    assert report["skipped"]["solve"] == "no valid certificate"
    assert report["trace"] is None


def test_verify_finite_space_records_oracle(tmp_path, capsys):
    doc = {
        "space": {"kind": "lifted", "t": 3, "base_table": DISCRETE_TABLE},
        "map": {"kind": "finite-table", "images": [1, 1, 1]},
        "sampling": {"seed": 7},
        "solver": {"x0": 0},
    }
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    report = load_report(tmp_path)
    assert report["verdict"] == "pass"
    assert report["oracle"] == {"fixed_points": [1], "agrees_with_picard": True}
    assert report["certificate"]["exhaustive"] is True


def test_verify_lifted_without_x0_starts_at_index_zero(tmp_path, capsys):
    doc = {
        "space": {"kind": "lifted", "t": 3, "base_table": DISCRETE_TABLE},
        "map": {"kind": "finite-table", "images": [1, 1, 1]},
        "sampling": {"seed": 7},
    }
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    report = load_report(tmp_path)
    assert report["config"]["solver"]["x0"] == 0
    assert report["verdict"] == "pass"


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_bad_x0_exits_two_before_any_sweep(tmp_path, capsys, caplog, monkeypatch, command):
    monkeypatch.setenv("AMETRIC_FIX_LOG", "info")
    caplog.set_level(logging.INFO, logger="ametric_fix")
    doc = json.loads(json.dumps(PAPER_CFG))
    cfg = write_cfg(tmp_path, doc, "good.json")
    assert run([command, "--config", cfg, "--out-dir", str(tmp_path)], capsys)[0] == 0
    if command == "verify":
        assert "running law checks" in caplog.text
    caplog.clear()

    doc["solver"]["x0"] = 500
    cfg = write_cfg(tmp_path, doc, "bad.json")
    code, _, err = run([command, "--config", cfg, "--out-dir", str(tmp_path / "bad")], capsys)
    assert code == 2
    assert "solver.x0: point 500.0 outside carrier box" in err
    assert "running law checks" not in caplog.text + err
    assert not (tmp_path / "bad").exists()

    # A map that would fail its certificate does not get that far either.
    doc["map"] = {"kind": "shift", "offset": 1.0}
    cfg = write_cfg(tmp_path, doc, "bad-uncertified.json")
    code, _, err = run([command, "--config", cfg, "--out-dir", str(tmp_path / "bad")], capsys)
    assert code == 2
    assert "solver.x0" in err
    assert not (tmp_path / "bad").exists()


def test_verify_long_trace_checks_every_cauchy_pair(tmp_path, capsys):
    # lam = 0.999 from x0 = 90 takes 25,904 steps to reach eps = 1e-12: about
    # 335M iterate pairs, all of which the Cauchy check must count as checked.
    doc = {
        "space": {"kind": "absdiff", "t": 3, "d": 1},
        "map": {"kind": "linear-scale", "lam": 0.999},
        "sampling": {"seed": 0, "n_tuples": 50, "n_pairs": 50, "n_triples": 50},
        "tolerances": {"eps": 1e-12},
        "solver": {"x0": 90, "max_iter": 40_000},
    }
    cfg = write_cfg(tmp_path, doc)
    start = time.perf_counter()
    code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    report = load_report(tmp_path)
    n = report["trace"]["iterations"] + 1
    assert n > 25_000
    assert report["cauchy"]["checked"] == n * (n - 1) // 2
    assert report["cauchy"]["passed"]
    assert elapsed < 30.0


def test_verify_broken_table_fails_law_stage(tmp_path, capsys):
    doc = {
        "space": {"kind": "lifted", "t": 3,
                  "base_table": [[0.0, -1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]},
        "map": {"kind": "identity"},
        "sampling": {"seed": 7},
        "solver": {"x0": 0},
    }
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert "axioms" in report["failures"]
    assert report["skipped"]["classification"] == "space law checks failed"


def test_verify_malformed_map_parameter_exits_two_before_any_sweep(tmp_path, capsys, caplog,
                                                                   monkeypatch):
    monkeypatch.setenv("AMETRIC_FIX_LOG", "info")
    caplog.set_level(logging.INFO, logger="ametric_fix")
    cfg = write_cfg(tmp_path, {"space": {"kind": "absdiff", "t": 3},
                               "map": {"kind": "linear-scale", "lam": "abc"},
                               "sampling": {"seed": 0}})
    code, out, err = run(["verify", "--config", cfg, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert (out, err) == ("", "error: lam must be a real number, got 'abc'\n")
    assert caplog.text == ""
    assert not (tmp_path / "out").exists()


def test_axioms_malformed_map_parameter_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": {"kind": "absdiff", "t": 3},
                               "map": {"kind": "linear-scale", "lam": "abc"},
                               "sampling": {"seed": 0}})
    code, out, err = run(["axioms", "--config", cfg, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert (out, err) == ("", "error: lam must be a real number, got 'abc'\n")
    assert not (tmp_path / "out").exists()


def test_axioms_writes_a_max_gap_of_signed_zeros_as_plus_zero(tmp_path, capsys):
    # Every triangle gap is -0.0 or +0.0; the diagonal of 1.0 fails the laws.
    cfg = write_cfg(tmp_path, {"space": {"kind": "lifted", "t": 3,
                                         "base_table": [[1.0, 1.0], [0.0, -0.0]]},
                               "map": {"kind": "identity"}, "sampling": {"seed": 0}})
    code, _, _ = run(["axioms", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    triangle = load_report(tmp_path)["checks"]["triangle"]
    assert triangle["passed"] and triangle["max_gap"] == 0.0
    assert math.copysign(1.0, triangle["max_gap"]) == 1.0


@pytest.mark.parametrize("space, map_, code", [
    ({"kind": "absdiff", "t": 3}, {"kind": "shift", "offset": 500.0}, 0),
    ({"kind": "lifted", "t": 3, "base_table": [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]},
     {"kind": "finite-table", "images": [1, 1, 5]}, 1),
], ids=["lawful-absdiff", "law-breaking-table"])
def test_axioms_verdict_ignores_an_escaping_image(space, map_, code, tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": space, "map": map_,
                               "sampling": {"seed": 0, "n_tuples": 50, "n_pairs": 50,
                                            "n_triples": 50}})
    assert run(["axioms", "--config", cfg, "--out-dir", str(tmp_path)], capsys)[0] == code
    report = load_report(tmp_path)
    assert report["verdict"] == ("pass" if code == 0 else "fail")
    assert "error" not in report


def test_verify_law_breaking_table_with_escaping_map_reports_the_laws(tmp_path, capsys):
    # The map sends index 2 to 5, outside the 3-point carrier: that is
    # reported only once the law checks pass, and these fail.
    table = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    cfg = write_cfg(tmp_path, {"space": {"kind": "lifted", "t": 3, "base_table": table},
                               "map": {"kind": "finite-table", "images": [1, 1, 5]},
                               "sampling": {"seed": 0, "n_tuples": 50, "n_pairs": 50,
                                            "n_triples": 50}})
    code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert report["failures"] == ["axioms", "triangle"]
    assert report["skipped"] == {"classification": "space law checks failed"}
    assert "error" not in report and report["certificate"] is None


# Each directory holds a config.json and the report.json (and trace.csv, where
# the command writes one) of `<command> --seed 0` on it, the command being the
# directory name's first word.  Regenerate one with
#   ametric-fix <command> --config <dir>/config.json --out-dir <dir> --seed 0
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("case", sorted(p.name for p in GOLDEN.iterdir()))
def test_outputs_match_golden_files(case, tmp_path, capsys):
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir() if p.name != "config.json"}
    command = case.split("-", 1)[0]
    code, _, _ = run([command, "--config", str(GOLDEN / case / "config.json"),
                      "--out-dir", str(tmp_path), "--seed", "0"], capsys)
    assert code == (0 if json.loads(expected["report.json"])["verdict"] == "pass" else 1)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == expected


@pytest.mark.parametrize("case, checked, violations_total, first", [
    ("axioms-line12", 497_808, 0, None),
    ("axioms-zeros12", 498_816, 3_902, {"law": "identity-reverse", "witness": [0, 0, 0, 1],
                                        "lhs": "inf", "rhs": 1e-08, "gap": "inf", "tol": 0.0}),
], ids=["line12", "zeros12"])
def test_golden_reports_at_the_exhaustive_limit_check_every_entry(case, checked, violations_total,
                                                                  first):
    # A 12-point table at t=4, swept exhaustively.  A golden file regenerated
    # from a sweep that skips or miscounts entries would still match itself.
    axioms = json.loads((GOLDEN / case / "report.json").read_text())["checks"]["axioms"]
    assert (axioms["exhaustive"], axioms["checked"], axioms["violations_total"]) == (
        True, checked, violations_total)
    assert (axioms["violations"] or [None])[0] == first


def test_verify_outputs_are_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PAPER_CFG)
    for d in ("a", "b"):
        code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path / d)], capsys)
        assert code == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


def test_seed_override_changes_sampling(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PAPER_CFG)
    run(["axioms", "--config", cfg, "--out-dir", str(tmp_path / "a"), "--seed", "1"], capsys)
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["config"]["sampling"]["seed"] == 1


def test_stdout_carries_only_paths(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PAPER_CFG)
    _, out, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    lines = out.splitlines()
    assert lines == [str(tmp_path / "trace.csv"), str(tmp_path / "report.json")]


@pytest.mark.parametrize("argv", [
    ["axioms", "--config", "/nonexistent/cfg.json"],
    ["frobnicate", "--config", "x.json"],
    [],
])
def test_usage_errors_exit_two(argv, tmp_path, capsys):
    assert main(argv) == 2
    capsys.readouterr()


def test_main_reuses_its_parser_across_calls(tmp_path, capsys):
    # A run, a usage error and a run again: the parser keeps no state of a call.
    cfg = write_cfg(tmp_path, PAPER_CFG)
    argv = ["axioms", "--config", cfg, "--out-dir", str(tmp_path)]
    assert run(argv, capsys)[0] == 0
    code, out, err = run(["axioms", "--out-dir", str(tmp_path)], capsys)
    assert code == 2 and out == "" and "--config" in err
    assert run(argv, capsys)[:2] == (0, str(tmp_path / "report.json") + "\n")
    assert cli._parser() is cli._parser()


def test_exit_codes_stay_in_contract(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PAPER_CFG)
    for argv in (
        ["axioms", "--config", cfg, "--out-dir", str(tmp_path)],
        ["classify", "--config", cfg, "--out-dir", str(tmp_path)],
        ["solve", "--config", cfg, "--out-dir", str(tmp_path)],
        ["verify", "--config", cfg, "--out-dir", str(tmp_path)],
        ["verify", "--config", "missing.json"],
    ):
        assert main(argv) in (0, 1, 2)
        capsys.readouterr()


# make_map checks the images of 200 sampled points.  This map leaves the box
# only from (99, 100], so at seed 6 that check passes and classification is
# the first stage to meet an escaping image.
ESCAPE_CFG = {
    "space": {"kind": "absdiff", "t": 3, "d": 1, "box": [-100.0, 100.0]},
    "map": {"kind": "piecewise", "breakpoints": [99.0], "pieces": [[0.5, 0.0], [0.5, 60.0]]},
    "sampling": {"seed": 6},
}


@pytest.mark.parametrize("command", ["classify", "solve", "verify"])
def test_image_escaping_after_map_check_fails_the_report(command, tmp_path, capsys):
    cfg = write_cfg(tmp_path, ESCAPE_CFG)
    code, _, _ = run([command, "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert report["verdict"] == "fail"
    assert "has an image outside the carrier: point 109.905" in report["error"]
    if command == "verify":
        assert report["failures"] == ["map-construction"]
    else:
        assert report["witness"] == 109.90541002765501


def test_verify_start_escaping_in_uniqueness_probe_fails_the_report(tmp_path, capsys):
    doc = json.loads(json.dumps(ESCAPE_CFG))
    # Few classified pairs and many starts: here only a start in (99, 100] escapes.
    doc["sampling"].update({"n_tuples": 10, "n_pairs": 1, "n_triples": 10, "n_starts": 200})
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert report["failures"] == ["uniqueness"]
    assert report["error"].startswith("iterate 1 escaped the carrier: point 109.")
    assert report["point"] == 109.62590147245466


@pytest.mark.parametrize("space", [PAPER_CFG["space"], {"kind": "lifted", "t": 3, "base_table": [
    [0, 1, 3], [1, 0, 2], [3, 2, 0]]}], ids=["box", "table"])
def test_verify_makes_each_start_run_as_the_probe_reads_it(space, tmp_path, monkeypatch, capsys):
    # The probe is handed the runs unmade, and can count them by len before
    # reading them; each is made as it is read, after the main run.
    made, seen = [], {}
    picard = cli.picard_run
    probe = cli.uniqueness_probe
    monkeypatch.setattr(cli, "picard_run", lambda *args: made.append(args[2]) or picard(*args))

    def counting_probe(space, f, runs, rule):
        seen.update(count=len(runs), made=len(made))
        return probe(space, f, runs, rule)

    monkeypatch.setattr(cli, "uniqueness_probe", counting_probe)
    doc = _paper_with(space=space, solver={"x0": 2 if space["kind"] == "lifted" else 7.0})
    if space["kind"] == "lifted":
        doc["map"] = {"kind": "finite-table", "images": [0, 0, 1]}
    code, _, _ = run(["verify", "--config", write_cfg(tmp_path, doc), "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    n_starts = load_report(tmp_path)["uniqueness"]["info"]["n_starts"]
    assert seen == {"count": n_starts, "made": 1} and len(made) == n_starts
    assert n_starts == (3 if space["kind"] == "lifted" else 5)


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("slope, point", [(0.5, 109.75), (1e308, "inf")])
def test_escaping_iterate_names_its_point(command, slope, point, tmp_path, capsys):
    doc = json.loads(json.dumps(ESCAPE_CFG))
    # One classified pair misses (99, 100], where the start 99.5 lies; its
    # image is 0.5 * 99.5 + 60 = 109.75, or an overflow to inf.
    doc["map"]["pieces"] = [[0.5, 0.0], [slope, 60.0]]
    doc["sampling"].update({"n_tuples": 10, "n_pairs": 1, "n_triples": 10})
    doc["solver"] = {"x0": 99.5}
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run([command, "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert report["error"] == f"iterate 1 escaped the carrier: point {point} outside carrier box"
    assert report["point"] == point
    assert report["failures"] == ["solve"]
    assert "witness" not in report  # the iterate's index is in the message


@pytest.mark.parametrize("command", ["axioms", "classify", "solve", "verify"])
def test_box_whose_width_overflows_exits_two(command, tmp_path, capsys):
    # Both bounds are finite, but hi - lo is not: the box cannot be sampled.
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "absdiff", "t": 3, "d": 1, "box": [-1e308, 1e308]},
        "map": {"kind": "affine", "alpha": -0.5, "beta": 0.0},
        "sampling": {"seed": 0},
    })
    code, out, err = run([command, "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err == "error: box width of [-1e+308, 1e+308] overflows a float\n"
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_first_step_that_overflows_fails_the_report(command, tmp_path, capsys):
    # f(0) = 1.5e308 lies in the box, but rep(f(0), 0) = 2 * 1.5e308 = inf.
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "absdiff", "t": 3, "d": 1, "box": [0.0, 1.5e308]},
        "map": {"kind": "affine", "alpha": -0.5, "beta": 1.5e308},
        "sampling": {"seed": 0},
        "solver": {"x0": 0.0},
    })
    code, out, err = run([command, "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err == ""
    assert out.split() == [str(tmp_path / "trace.csv"), str(tmp_path / "report.json")]
    assert (tmp_path / "trace.csv").read_text() == "n,step,bound,ratio,tail_bound\n"
    report = load_report(tmp_path)
    assert report["verdict"] == "fail"
    assert report["certificate"]["valid"]
    trace = report["trace"]
    assert (trace["status"], trace["iterations"], trace["d0"], trace["limit"]) == (
        "overflow", 0, None, None)
    if command == "verify":
        assert report["failures"] == ["solve", "uniqueness"]
        assert report["skipped"]["cauchy"] == "fewer than 3 iterates"
        assert report["uniqueness"]["violations"][0]["law"] == "non-convergence[overflow]"


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_tuple_witness_is_written_as_a_json_list(command, tmp_path, capsys):
    # Shifting by 5 leaves the d=2 box [-10, 10]; make_map names the first
    # escaping probe, a 2-d point.
    doc = {"space": {"kind": "absdiff", "t": 3, "d": 2, "box": [-10.0, 10.0]},
           "map": {"kind": "shift", "offset": 5.0},
           "sampling": {"seed": 0},
           "solver": {"x0": [0.0, 0.0]}}
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run([command, "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    report = load_report(tmp_path)
    assert report["witness"] == [1.6899239030274238, 7.819166607429228]
    assert "sends (1.6899239030274238, 7.819166607429228) outside" in report["error"]
    if command == "verify":
        assert report["failures"] == ["map-construction"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("bound_eps", [1e-6, 1e-9])
def test_verify_with_bound_eps_passes_on_the_worked_example(bound_eps, seed, tmp_path, capsys):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc["tolerances"]["bound_eps"] = bound_eps
    cfg = write_cfg(tmp_path, doc)
    code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path), "--seed", str(seed)],
                     capsys)
    report = load_report(tmp_path)
    assert report["failures"] == []
    assert code == 0
    assert report["uniqueness"]["passed"]


def test_defaults_are_materialized():
    doc = {"space": {"kind": "absdiff", "t": 3}, "map": {"kind": "two-sevenths"},
           "sampling": {"seed": 0}}
    expected = {
        "space": {"kind": "absdiff", "t": 3, "d": 1, "box": [-100.0, 100.0]},
        "map": {"kind": "two-sevenths"},
        "sampling": {"seed": 0, "n_tuples": 1000, "n_pairs": 1000, "n_triples": 1000,
                     "n_starts": 5},
        "tolerances": {"check_tol": 1e-9, "eps": 1e-12, "bound_eps": None, "eq_tol": 1e-12,
                       "safety_margin": 0.0},
        "solver": {"x0": 1.0, "max_iter": 10_000, "delta": None},
        "outputs": {"csv_path": "trace.csv", "json_path": "report.json"},
    }
    assert materialize_config(doc, "cfg.json") == expected
    nulls = dict(doc, tolerances=None, solver=None, outputs=None)
    assert materialize_config(nulls, "cfg.json") == expected


def test_shift_offset_default_is_materialized():
    doc = dict(PAPER_CFG, map={"kind": "shift"})
    assert materialize_config(doc, "cfg.json")["map"] == {"kind": "shift", "offset": 1.0}


def _paper_with(**sections):
    doc = json.loads(json.dumps(PAPER_CFG))
    doc.update(sections)
    return doc


def _piecewise(breakpoints, pieces):
    return _paper_with(map={"kind": "piecewise", "breakpoints": breakpoints, "pieces": pieces})


@pytest.mark.parametrize("doc, message", [
    (_paper_with(tolerances=5), "cfg.json: tolerances: expected an object, got 5"),
    (_paper_with(solver=5), "cfg.json: solver: expected an object, got 5"),
    (_paper_with(sampling=5), "cfg.json: sampling: expected an object, got 5"),
    (_paper_with(outputs=7), "cfg.json: outputs: expected an object, got 7"),
    (_paper_with(space=[[1]]), "cfg.json: space: expected an object, got [[1]]"),
    (_paper_with(tolerances={"eps": None}), "cfg.json: tolerances.eps must be a real number, got None"),
    (_piecewise([0.0], [[1], [0.5, 0]]), "a piece must be [slope, intercept], got [1]"),
    (_piecewise([0.0], [5, [0.5, 0]]), "a piece must be [slope, intercept], got 5"),
    (_piecewise(5, [[0.5, 0]]), "breakpoints must be a list, got 5"),
    (_piecewise([0.0], None), "pieces must be a list, got None"),
    (_paper_with(space={"kind": "absdiff", "t": 3, "box": [-10 ** 400, 100]}),
     "space.box[0] must be finite"),
    (_paper_with(map={"kind": "affine", "alpha": 10 ** 400, "beta": 0}), "alpha must be finite"),
    (_paper_with(map={"kind": "linear-scale", "lam": 0.5, "lamda": 0.99}),
     "map kind 'linear-scale' has no parameter 'lamda'"),
    (b'{"space": "\xff"}', "config is not UTF-8"),
    (_paper_with(map={"kind": "linear-scale", "lam": "0.5"}), "lam must be a real number, got '0.5'"),
    (_paper_with(map={"kind": "linear-scale", "lam": True}), "lam must be a real number, got True"),
    (_paper_with(map={"kind": "affine", "alpha": "0.5", "beta": 0}),
     "alpha must be a real number, got '0.5'"),
    (_paper_with(map={"kind": "affine", "alpha": 0.5, "beta": False}),
     "beta must be a real number, got False"),
    (_paper_with(map={"kind": "shift", "offset": True}), "offset must be a real number, got True"),
    (_paper_with(map={"kind": "constant", "value": "0.3"}), "value must be a real number, got '0.3'"),
    (_paper_with(map={"kind": "constant", "value": [True]}), "value must be a real number, got True"),
    (_piecewise(["0"], [[0.5, 0], [0.25, 0]]), "breakpoint must be a real number, got '0'"),
    (_piecewise([0.0], [[True, 0], [0.25, 0]]), "slope must be a real number, got True"),
    (_piecewise([0.0], [[0.5, "1"], [0.25, 0]]), "intercept must be a real number, got '1'"),
    # A key of the other space kind was once accepted and dropped.
    (_paper_with(space={"kind": "absdiff", "t": 3, "base_table": [[0, 1], [1, 0]]}),
     "cfg.json: space.base_table: not a key of space kind 'absdiff'"),
    (_paper_with(space={"kind": "lifted", "t": 3, "base_table": DISCRETE_TABLE, "d": 5,
                        "box": [0, 1]}), "cfg.json: space.d: not a key of space kind 'lifted'"),
], ids=["tolerances-5", "solver-5", "sampling-5", "outputs-7", "space-list", "eps-null",
        "piece-short", "piece-int", "breakpoints-int", "pieces-null", "box-overflow",
        "param-overflow", "unknown-map-parameter", "not-utf8", "lam-string", "lam-bool",
        "alpha-string", "beta-bool", "offset-bool", "value-string", "value-list-bool",
        "breakpoint-string", "slope-bool", "intercept-string", "absdiff-base-table", "lifted-d-box"])
def test_malformed_config_exits_two(doc, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    out_dir = tmp_path / "out"
    code, out, err = run(["verify", "--config", str(path), "--out-dir", str(out_dir)], capsys)
    assert code == 2
    assert message in err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("count", [{"n_pairs": 10 ** 15}, {"n_starts": 10 ** 17}],
                         ids=["n-pairs-1e15", "n-starts-1e17"])
def test_sample_count_beyond_memory_exits_two_with_one_line(count, tmp_path, capsys):
    # Legal counts whose sample arrays exceed a 47-bit address space, so
    # numpy refuses them at once.  They once escaped as a traceback and exit
    # 1, which is kept for a mathematical violation.  The starts are drawn
    # before the Picard run, so no count writes trace.csv or prints a path.
    cfg = write_cfg(tmp_path, _paper_with(sampling={**PAPER_CFG["sampling"], **count}))
    out_dir = tmp_path / "out"
    code, out, err = run(["verify", "--config", cfg, "--out-dir", str(out_dir)], capsys)
    assert code == 2
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err and "report.json" not in out
    assert not (out_dir / "report.json").exists()
    assert out == "" and not (out_dir / "trace.csv").exists()


_BIG = 10 ** 400


@pytest.mark.parametrize("table, message", [
    (5, "space.base_table: expected a nonempty list of rows"),
    ([], "space.base_table: expected a nonempty list of rows"),
    ([[0, 1], 5], "space.base_table: expected a nonempty list of rows"),
    ([[0, 1], [1]], "space.base_table[1]: expected 2 entries, got 1"),
    ([[0, True], [True, 0]], "space.base_table[0][1] must be a real number, got True"),
    ([[0, "1"], ["1", 0]], "space.base_table[0][1] must be a real number, got '1'"),
    ([[0, None], [None, 0]], "space.base_table[0][1] must be a real number, got None"),
    ([[0, math.nan], [math.nan, 0]], "space.base_table[0][1] must be finite, got nan"),
    ([[0, 1], [1, math.inf]], "space.base_table[1][1] must be finite, got inf"),
    ([[0, _BIG], [_BIG, 0]], f"space.base_table[0][1] must be finite, got {_BIG!r}"),
    ([[0, [1]], [[1], 0]], "space.base_table[0][1] must be a real number, got [1]"),
], ids=["not-a-list", "empty", "row-not-a-list", "ragged", "bool", "string", "null", "nan",
        "1e400", "400-digits", "nested"])
@pytest.mark.parametrize("command", ["verify", "classify"])
def test_malformed_base_table_exits_two_with_one_line(command, table, message, tmp_path, capsys):
    # NaN and inf are written as JSON's NaN and Infinity, 1e400 parses as inf.
    text = json.dumps({"space": {"kind": "lifted", "t": 3, "base_table": table},
                       "map": {"kind": "identity"}, "sampling": {"seed": 0}})
    path = tmp_path / "cfg.json"
    path.write_text(text.replace("Infinity", "1e400"))
    code, out, err = run([command, "--config", str(path), "--out-dir", str(tmp_path)], capsys)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("doc, message", [
    (_paper_with(sampling={"seed": 0, "n_pairs": True}),
     "cfg.json: sampling.n_pairs must be an integer, got True"),
    (_paper_with(map={"kind": "affine", "alpha": 1e400, "beta": 0}), "alpha must be finite, got inf"),
    (_paper_with(sampling={"seed": 0, "n_starts": 2.5}),
     "cfg.json: sampling.n_starts must be an integer, got 2.5"),
    (_paper_with(tolerances={"check_tol": 0}), "cfg.json: tolerances.check_tol must be > 0, got 0"),
    (_paper_with(tolerances={"safety_margin": -1e-3}),
     "cfg.json: tolerances.safety_margin must be >= 0, got -0.001"),
    (_paper_with(solver={"delta": 1}),
     "cfg.json: solver.delta must be < 1 (negative disables monitoring), got 1"),
    (_paper_with(outputs={"json_path": ""}),
     "cfg.json: outputs.json_path must be a nonempty string, got ''"),
    (_paper_with(sampling={"seed": 2 ** 64}),
     "cfg.json: sampling.seed must be <= 18446744073709551615, got 18446744073709551616"),
], ids=["n-pairs-bool", "alpha-1e400", "n-starts-float", "check-tol-zero", "margin-negative",
        "delta-one", "json-path-empty", "seed-65-bits"])
def test_config_values_are_checked_with_one_wording(doc, message, tmp_path, capsys):
    # `<what> must be <rule>, got <value>`, with the config path and key as <what>.
    path = write_cfg(tmp_path, doc)
    code, out, err = run(["verify", "--config", path, "--out-dir", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(message + "\n")


@pytest.mark.parametrize("outputs", [
    {"csv_path": "out.json", "json_path": "out.json"},
    {"csv_path": "a/../r.json", "json_path": "r.json"},
    {"csv_path": "./sub/r.json", "json_path": "sub//r.json"},
    {"csv_path": "ABS", "json_path": "r.json"},
], ids=["same", "dotdot", "dot-and-double-slash", "absolute-and-relative"])
@pytest.mark.parametrize("command", ["axioms", "verify"])
def test_outputs_naming_one_file_exit_two_before_any_sweep(outputs, command, tmp_path, capsys,
                                                            caplog, monkeypatch):
    # Both used to be written, the report over the trace.
    monkeypatch.setenv("AMETRIC_FIX_LOG", "info")
    caplog.set_level(logging.INFO, logger="ametric_fix")
    out_dir = tmp_path / "out"
    outputs = {k: str(out_dir / "r.json") if v == "ABS" else v for k, v in outputs.items()}
    path = write_cfg(tmp_path, _paper_with(outputs=outputs))
    code, out, err = run([command, "--config", path, "--out-dir", str(out_dir)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: outputs.csv_path and outputs.json_path name one file, ")
    assert "running law checks" not in caplog.text + err
    assert not out_dir.exists()


@pytest.mark.parametrize("key, command", [("json_path", "axioms"), ("csv_path", "solve"),
                                          ("json_path", "verify"), ("csv_path", "axioms")])
@pytest.mark.parametrize("spelling", ["plain", "dotted", "absolute"])
def test_an_output_naming_the_config_exits_two_and_keeps_the_config(key, command, spelling,
                                                                   tmp_path, capsys, monkeypatch):
    # The run used to overwrite its own config with the report or the CSV.
    monkeypatch.chdir(tmp_path)
    name = {"plain": "e.json", "dotted": "./sub/../e.json",
            "absolute": str(tmp_path / "e.json")}[spelling]
    path = write_cfg(tmp_path, _paper_with(outputs={key: name}), name="e.json")
    before = Path(path).read_bytes()
    code, out, err = run([command, "--config", "e.json", "--out-dir", "."], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: outputs.{key} names the config file 'e.json'\n"
    assert Path(path).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.json"]


def test_an_output_next_to_the_config_is_written(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_cfg(tmp_path, _paper_with(outputs={"json_path": "e2.json"}), name="e.json")
    code, out, _ = run(["axioms", "--config", "e.json", "--out-dir", "."], capsys)
    assert (code, out) == (0, "e2.json\n")


def test_verify_two_sevenths_on_a_box_up_to_1e308(tmp_path, capsys):
    # 2x overflows for |x| >= 2**1023, though 2x/7 lies inside the box.
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "absdiff", "t": 3, "box": [-100, 1e308]},
        "map": {"kind": "two-sevenths"},
        "sampling": {"n_tuples": 20, "n_pairs": 20, "n_triples": 20},
    })
    code, _, err = run(["verify", "--config", cfg, "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    assert load_report(tmp_path)["certificate"]["valid"]


def test_verify_draws_the_pair_set_once(tmp_path, capsys, monkeypatch):
    draws = []

    def counted(*args, **kwargs):
        draws.append(kwargs.get("stream"))
        return pair_samples(*args, **kwargs)

    pair_samples = cli.pair_samples
    monkeypatch.setattr(cli, "pair_samples", counted)
    code, _, _ = run(["verify", "--config", write_cfg(tmp_path, PAPER_CFG),
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert draws.count(None) == 1


D2_CFG = {"space": {"kind": "absdiff", "t": 3, "d": 2, "box": [-10.0, 10.0]},
          "map": {"kind": "linear-scale", "lam": 0.5},
          "sampling": {"seed": 0, "n_tuples": 50, "n_pairs": 50, "n_triples": 50}}


def test_verify_on_a_d2_box_starts_at_ones_by_default(tmp_path, capsys):
    code, _, err = run(["verify", "--config", write_cfg(tmp_path, D2_CFG),
                        "--out-dir", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    assert load_report(tmp_path)["config"]["solver"]["x0"] == [1.0, 1.0]


@pytest.mark.parametrize("doc", [
    dict(D2_CFG, solver={"x0": [1.0, 2.0, 3.0]}),
    {"space": {"kind": "lifted", "t": 3, "base_table": DISCRETE_TABLE},
     "map": {"kind": "constant", "value": 0}, "sampling": {"seed": 0}, "solver": {"x0": [1]}},
], ids=["d2-x0-of-length-3", "lifted-list-x0"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_x0_of_the_wrong_shape_exits_two_naming_its_key(doc, command, tmp_path, capsys):
    code, _, err = run([command, "--config", write_cfg(tmp_path, doc),
                        "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: solver.x0: ")


@pytest.mark.parametrize("command, outputs, out_dir, key", [
    ("axioms", {"json_path": "."}, ".", "json_path"),
    ("axioms", {"json_path": "sub"}, ".", "json_path"),
    ("solve", {"csv_path": "sub"}, ".", "csv_path"),
    ("axioms", {"json_path": "afile/report.json"}, ".", "json_path"),
    ("axioms", {}, "afile", "json_path"),
], ids=["json-dot", "json-dir", "csv-dir", "json-under-file", "out-dir-file"])
def test_unwritable_output_exits_two_naming_its_key(command, outputs, out_dir, key, tmp_path,
                                                     capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "afile").write_text("")
    cfg = write_cfg(tmp_path, _paper_with(outputs=outputs))
    code, _, err = run([command, "--config", cfg, "--out-dir", str(tmp_path / out_dir)], capsys)
    assert code == 2
    assert err.startswith(f"error: outputs.{key}: cannot write ")
    assert "Traceback" not in err


# Each subcommand is verify's pipeline stopped after its own stage, and writes
# verify's report cut to the keys of the stages it ran.  A failure and a skip
# notice belong to the stage that records them.
STOPS = ("axioms", "classify", "solve", "verify")
STAGE_KEYS = {"axioms": {"checks"},
              "classify": {"skipped", "failures", "certificate", "contraction", "error", "witness",
                           "point"},
              "solve": {"delta_used", "trace"}}
FAILURE_STAGE = {"axioms": "axioms", "symmetry": "axioms", "triangle": "axioms",
                 "map-construction": "classify", "classification": "classify",
                 "contraction": "classify", "solve": "solve"}
SKIP_STAGE = {"classification": "axioms", "solve": "classify"}


def _stage_up_to(stage, stop):
    return STOPS.index(stage) <= STOPS.index(stop)


def _verify_cut_at(report, stop):
    """verify's report as `stop` writes it, and whether a stage up to `stop` failed."""
    keys = set().union(*(STAGE_KEYS[s] for s in STOPS[:STOPS.index(stop) + 1]))
    cut = {k: v for k, v in report.items() if k in keys}
    failed = [f for f in report["failures"] if _stage_up_to(FAILURE_STAGE.get(f, "verify"), stop)]
    if "failures" in cut:
        cut["failures"] = failed
        cut["skipped"] = {k: v for k, v in report["skipped"].items()
                          if _stage_up_to(SKIP_STAGE.get(k, "verify"), stop)}
    cut.update(command=stop, config=report["config"], verdict="fail" if failed else "pass")
    return cut, bool(failed)


def _golden_config(case):
    return json.loads((GOLDEN / case / "config.json").read_text())


PIPELINE_CFGS = {
    "paper": PAPER_CFG,
    "d2-box": D2_CFG,
    "finite-exhaustive": _golden_config("verify-finite-exhaustive"),
    "law-breaking-table": _golden_config("verify-law-breaking"),
    "escaping-image": ESCAPE_CFG,
    "max-iter": _paper_with(solver={"x0": 7.0, "max_iter": 3}),
    "explicit-delta": _paper_with(solver={"x0": 7.0, "delta": 0.5}),
}


def _run_all(doc, tmp_path, capsys):
    """Each command's exit code, report and trace CSV (or None) on `doc`."""
    cfg = write_cfg(tmp_path, doc)
    results = {}
    for command in STOPS:
        out = tmp_path / command
        code, _, err = run([command, "--config", cfg, "--out-dir", str(out)], capsys)
        assert err == ""
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        results[command] = code, json.loads(files["report.json"]), files.get("trace.csv")
    return results


@pytest.mark.parametrize("name", PIPELINE_CFGS)
def test_each_subcommand_is_verify_stopped_after_its_stage(name, tmp_path, capsys):
    results = _run_all(PIPELINE_CFGS[name], tmp_path, capsys)
    _, full, full_csv = results["verify"]
    for stop in STOPS[:-1]:
        code, report, csv = results[stop]
        expected, failed = _verify_cut_at(full, stop)
        if stop == "solve" and full["config"]["solver"]["delta"] is not None:
            # solve iterates with solver.delta without a certificate; verify,
            # whose certificate is valid here, iterates with the same delta.
            expected.update(certificate=None, contraction=None,
                            skipped={"classification": "solver.delta is given"})
        assert code == (1 if failed else 0), stop
        assert report == expected, stop
        if stop == "solve":
            assert csv == full_csv


@pytest.mark.parametrize("images, code", [([0, 1, 2], 0), ([1, 2, 0], 1)],
                         ids=["identity-converges", "cycle-does-not"])
def test_solve_with_explicit_delta_iterates_a_map_that_does_not_certify(images, code, tmp_path,
                                                                        capsys):
    # verify fails such a map at its certificate; solve skips the certificate,
    # so its verdict is the Picard run's.
    doc = {"space": {"kind": "lifted", "t": 3, "base_table": DISCRETE_TABLE},
           "map": {"kind": "finite-table", "images": images},
           "sampling": {"seed": 0}, "solver": {"x0": 0, "delta": 0.5, "max_iter": 20}}
    results = _run_all(doc, tmp_path, capsys)
    _, full, _ = results["verify"]
    assert (results["verify"][0], full["failures"]) == (1, ["classification"])
    solve_code, report, _ = results["solve"]
    assert solve_code == code
    assert report["checks"] == full["checks"]
    assert (report["certificate"], report["contraction"]) == (None, None)
    assert report["skipped"] == {"classification": "solver.delta is given"}
    assert report["delta_used"] == 0.5
    assert report["failures"] == ([] if code == 0 else ["solve"])



@pytest.mark.parametrize("section, key", [
    ("sampling", "n_tuples"), ("sampling", "n_pairs"), ("sampling", "n_triples"),
    ("sampling", "n_starts"), ("solver", "max_iter"),
])
def test_a_count_of_one_is_accepted_and_zero_is_not(section, key):
    doc = _paper_with()
    doc[section][key] = 1
    assert materialize_config(doc, "cfg.json")[section][key] == 1
    doc[section][key] = 0
    with pytest.raises(UsageError, match=f"^cfg.json: {section}.{key} must be >= 1, got 0$"):
        materialize_config(doc, "cfg.json")


def test_space_bounds_at_their_limits():
    doc = _paper_with(space={"kind": "absdiff", "t": 2, "box": [-1.0, 1.0]})
    assert materialize_config(doc, "cfg.json")["space"]["t"] == 2
    doc["space"]["t"] = 1
    with pytest.raises(UsageError, match=r"^cfg.json: space.t must be >= 2, got 1$"):
        materialize_config(doc, "cfg.json")
    doc["space"] = {"kind": "absdiff", "t": 3, "box": [5, 5]}
    with pytest.raises(UsageError, match=r"^cfg.json: space.box: need lo < hi, got \[5.0, 5.0\]$"):
        materialize_config(doc, "cfg.json")


@pytest.mark.parametrize("max_iter, cauchy_pairs", [(1, None), (2, 3)])
def test_cauchy_check_needs_three_iterates(max_iter, cauchy_pairs, tmp_path, capsys):
    cfg = write_cfg(tmp_path, _paper_with(solver={"x0": 7.0, "max_iter": max_iter}))
    assert run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)[0] == 1
    report = load_report(tmp_path)
    assert report["trace"]["iterations"] == max_iter
    if cauchy_pairs is None:
        assert (report["cauchy"], report["skipped"]) == (None, {"cauchy": "fewer than 3 iterates"})
    else:
        assert (report["cauchy"]["checked"], report["skipped"]) == (cauchy_pairs, {})


def test_a_run_reads_its_base_table_once(tmp_path, capsys, monkeypatch):
    # materialize_config reads and checks the table; build_space lifts its rows as they are.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return read_table(*args, **kwargs)

    read_table = spaces.read_table
    monkeypatch.setattr(spaces, "read_table", counted)
    monkeypatch.setattr(cli, "read_table", counted)
    cfg = write_cfg(tmp_path, _golden_config("verify-finite-exhaustive"))
    code, _, _ = run(["verify", "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert code == 0 and len(calls) == 1
    assert (tmp_path / "report.json").read_text() == (
        GOLDEN / "verify-finite-exhaustive" / "report.json").read_text()


@pytest.mark.parametrize("map_doc", [{"kind": "identity"}, {"kind": "constant", "value": 0},
                                     {"kind": "finite-table", "images": [0]}],
                         ids=["identity", "constant", "finite-table"])
@pytest.mark.parametrize("command", STOPS)
def test_a_one_point_table_passes_every_stage(command, map_doc, tmp_path, capsys):
    # A finite carrier's starts are its points, so one point gives one Picard run:
    # the uniqueness probe has no pair of limits to compare, only the residual.
    cfg = write_cfg(tmp_path, {"space": {"kind": "lifted", "t": 3, "base_table": [[0]]},
                               "map": map_doc, "sampling": {"seed": 0}})
    code, _, err = run([command, "--config", cfg, "--out-dir", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    report = load_report(tmp_path)
    assert report["verdict"] == "pass" and report["config"]["space"]["base_table"] == [[0.0]]
    if command == "verify":
        unique = report["uniqueness"]
        assert unique["passed"] and unique["checked"] == 1
        assert unique["info"]["n_starts"] == 1 and unique["info"]["limit"] == 0
        assert report["oracle"]["fixed_points"] == [0]


def test_an_output_longer_than_a_write_slice_is_written_whole(tmp_path, capsys):
    # _write hands each piece to the file a slice at a time; the bytes are the text's.
    text = "".join(f"{i:08d},{-i / 7!r}\n" for i in range(100_000))
    assert len(text) > 2 * (1 << 20)
    cli._write({"csv_path": tmp_path / "out" / "t.csv"}, "csv_path", [text])
    assert (tmp_path / "out" / "t.csv").read_bytes() == text.encode()
    assert capsys.readouterr().out == f"{tmp_path / 'out' / 't.csv'}\n"
