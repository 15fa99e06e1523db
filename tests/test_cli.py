"""Command-line behavior: configs, reports, exit codes, determinism.

Exit-code contract: 0 all checks pass, 1 mathematical violation or
non-convergence, 2 usage/config error — and nothing else.
"""

import json

import pytest

from ametric_fix import cli
from ametric_fix.cli import main, materialize_config

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
    if command == "solve":
        assert report["witness"] == 1
    else:
        assert report["failures"] == ["solve"]


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
    (_paper_with(tolerances={"eps": None}), "cfg.json: tolerances.eps: expected a number, got None"),
    (_piecewise([0.0], [[1], [0.5, 0]]), "a piece must be [slope, intercept], got [1]"),
    (_piecewise([0.0], [5, [0.5, 0]]), "a piece must be [slope, intercept], got 5"),
    (_piecewise(5, [[0.5, 0]]), "breakpoints must be a list, got 5"),
    (_piecewise([0.0], None), "pieces must be a list, got None"),
    (_paper_with(space={"kind": "absdiff", "t": 3, "box": [-10 ** 400, 100]}),
     "space.box[0]: must be finite"),
    (_paper_with(map={"kind": "affine", "alpha": 10 ** 400, "beta": 0}), "alpha must be finite"),
    (_paper_with(map={"kind": "linear-scale", "lam": 0.5, "lamda": 0.99}),
     "map kind 'linear-scale' has no parameter 'lamda'"),
    (b'{"space": "\xff"}', "config is not UTF-8"),
], ids=["tolerances-5", "solver-5", "sampling-5", "outputs-7", "space-list", "eps-null",
        "piece-short", "piece-int", "breakpoints-int", "pieces-null", "box-overflow",
        "param-overflow", "unknown-map-parameter", "not-utf8"])
def test_malformed_config_exits_two(doc, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    code, out, err = run(["verify", "--config", str(path), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert message in err
    assert out == ""
    assert not (tmp_path / "report.json").exists()


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
