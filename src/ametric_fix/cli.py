"""Command-line front end: JSON experiment configs in, reports out.

Four subcommands mirror the pipeline stages:

    ametric-fix axioms   --config cfg.json   # space law checks
    ametric-fix classify --config cfg.json   # branch-contraction certificate
    ametric-fix solve    --config cfg.json   # Picard run with envelopes
    ametric-fix verify   --config cfg.json   # everything, one verdict

Exit codes: 0 all checks passed, 1 a mathematical violation or
non-convergence, 2 a usage or configuration error.  Outputs are byte-stable
for a fixed config and seed: every default is materialized into the report,
JSON keys are sorted, and CSV floats carry 17 significant digits.  Stdout
prints only the paths of the written reports; set AMETRIC_FIX_LOG to
``info`` or ``debug`` for progress on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from .core import _json_points, check_axioms, check_symmetry, check_triangle_inequality, points_equal
from .errors import CarrierDomainError, ConstructionError, UsageError
from .sampling import (
    STREAM_HOLDOUT,
    axiom_samples,
    pair_samples,
    start_samples,
    triple_samples,
)
from .solver import StopRule, brute_force_fixed_points, picard_run, verify_cauchy, verify_decay, uniqueness_probe
from .spaces import MapSpec, make_absdiff_space, make_lifted_space, make_map, table_space
from .zamfirescu import classify, verify_contraction_inequalities

LOG = logging.getLogger("ametric_fix")

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

_DEFAULTS = {
    "sampling": {"n_tuples": 1000, "n_pairs": 1000, "n_triples": 1000, "n_starts": 5},
    "tolerances": {"check_tol": 1e-9, "eps": 1e-12, "bound_eps": None, "eq_tol": 1e-12,
                   "safety_margin": 0.0},
    "solver": {"x0": 1.0, "max_iter": 10_000, "delta": None},
    "outputs": {"csv_path": "trace.csv", "json_path": "report.json"},
}

_SECTION_KEYS = {
    "space": {"kind", "t", "d", "box", "base_table"},
    "sampling": {"seed", "n_tuples", "n_pairs", "n_triples", "n_starts"},
    "tolerances": {"check_tol", "eps", "bound_eps", "eq_tol", "safety_margin"},
    "solver": {"x0", "max_iter", "delta"},
    "outputs": {"csv_path", "json_path"},
}


def _fail(anchor: str, key: str, message: str):
    raise UsageError(f"{anchor}: {key}: {message}")


def _require_int(value, anchor, key, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(anchor, key, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(anchor, key, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(anchor, key, f"must be <= {maximum}, got {value}")
    return value


def _require_real(value, anchor, key, *, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(anchor, key, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        _fail(anchor, key, f"must be finite, got {value!r}")
    if positive and not v > 0:
        _fail(anchor, key, f"must be > 0, got {value!r}")
    if nonnegative and v < 0:
        _fail(anchor, key, f"must be >= 0, got {value!r}")
    return v


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UsageError(f"{path}: cannot read config: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: top level must be a JSON object")
    return doc


def materialize_config(raw: dict, anchor: str, seed_override: int | None = None) -> dict:
    """Validate the config and fill every default, so reports are self-describing."""
    known = {"space", "map", "sampling", "tolerances", "solver", "outputs"}
    for section in raw:
        if section not in known:
            _fail(anchor, section, "unknown section")
    for section, keys in _SECTION_KEYS.items():
        for key in raw.get(section, {}) or {}:
            if key not in keys:
                _fail(anchor, f"{section}.{key}", "unknown key")

    cfg: dict = {}

    space_raw = raw.get("space")
    if not isinstance(space_raw, dict):
        _fail(anchor, "space", "required section")
    kind = space_raw.get("kind")
    if kind not in ("absdiff", "lifted"):
        _fail(anchor, "space.kind", f"expected 'absdiff' or 'lifted', got {kind!r}")
    t = _require_int(space_raw.get("t"), anchor, "space.t", minimum=2)
    if kind == "absdiff":
        d = _require_int(space_raw.get("d", 1), anchor, "space.d", minimum=1)
        box = space_raw.get("box", [-100.0, 100.0])
        if not (isinstance(box, list) and len(box) == 2):
            _fail(anchor, "space.box", f"expected [lo, hi], got {box!r}")
        lo = _require_real(box[0], anchor, "space.box[0]")
        hi = _require_real(box[1], anchor, "space.box[1]")
        if not lo < hi:
            _fail(anchor, "space.box", f"need lo < hi, got [{lo}, {hi}]")
        cfg["space"] = {"kind": "absdiff", "t": t, "d": d, "box": [lo, hi]}
    else:
        table = space_raw.get("base_table")
        if not (isinstance(table, list) and table and all(isinstance(r, list) for r in table)):
            _fail(anchor, "space.base_table", "expected a nonempty list of rows")
        n = len(table)
        for i, row in enumerate(table):
            if len(row) != n:
                _fail(anchor, f"space.base_table[{i}]", f"expected {n} entries, got {len(row)}")
            for j, v in enumerate(row):
                _require_real(v, anchor, f"space.base_table[{i}][{j}]")
        cfg["space"] = {"kind": "lifted", "t": t,
                        "base_table": [[float(v) for v in row] for row in table]}

    map_raw = raw.get("map")
    if not isinstance(map_raw, dict):
        _fail(anchor, "map", "required section")
    cfg["map"] = MapSpec.from_dict(map_raw).to_dict()

    sampling_raw = raw.get("sampling")
    if not isinstance(sampling_raw, dict):
        _fail(anchor, "sampling", "required section")
    seed = seed_override if seed_override is not None else sampling_raw.get("seed")
    if seed is None:
        _fail(anchor, "sampling.seed", "required (runs must be reproducible)")
    seed = _require_int(seed, anchor, "sampling.seed", minimum=0, maximum=(1 << 64) - 1)
    cfg["sampling"] = {"seed": seed}
    for key, default in _DEFAULTS["sampling"].items():
        cfg["sampling"][key] = _require_int(sampling_raw.get(key, default), anchor,
                                            f"sampling.{key}", minimum=1)

    tol_raw = raw.get("tolerances", {}) or {}
    d = _DEFAULTS["tolerances"]
    cfg["tolerances"] = {
        "check_tol": _require_real(tol_raw.get("check_tol", d["check_tol"]), anchor,
                                   "tolerances.check_tol", positive=True),
        "eps": _require_real(tol_raw.get("eps", d["eps"]), anchor,
                             "tolerances.eps", positive=True),
        "bound_eps": None if tol_raw.get("bound_eps", d["bound_eps"]) is None
        else _require_real(tol_raw["bound_eps"], anchor, "tolerances.bound_eps", positive=True),
        "eq_tol": _require_real(tol_raw.get("eq_tol", d["eq_tol"]), anchor,
                                "tolerances.eq_tol", nonnegative=True),
        "safety_margin": _require_real(tol_raw.get("safety_margin", d["safety_margin"]), anchor,
                                       "tolerances.safety_margin", nonnegative=True),
    }

    solver_raw = raw.get("solver", {}) or {}
    d = _DEFAULTS["solver"]
    # Lifted points are integer indices, so their default start is index 0.
    x0 = solver_raw.get("x0", 0 if cfg["space"]["kind"] == "lifted" else d["x0"])
    if isinstance(x0, list):
        x0 = [_require_real(v, anchor, "solver.x0") for v in x0]
    elif cfg["space"]["kind"] == "lifted":
        x0 = _require_int(x0, anchor, "solver.x0", minimum=0)
    else:
        x0 = _require_real(x0, anchor, "solver.x0")
    delta = solver_raw.get("delta", d["delta"])
    if delta is not None:
        delta = _require_real(delta, anchor, "solver.delta")
        if delta >= 1.0:
            _fail(anchor, "solver.delta", f"must be < 1 (negative disables monitoring), got {delta}")
    cfg["solver"] = {
        "x0": x0,
        "max_iter": _require_int(solver_raw.get("max_iter", d["max_iter"]), anchor,
                                 "solver.max_iter", minimum=1),
        "delta": delta,
    }

    out_raw = raw.get("outputs", {}) or {}
    d = _DEFAULTS["outputs"]
    for key in ("csv_path", "json_path"):
        value = out_raw.get(key, d[key])
        if not isinstance(value, str) or not value:
            _fail(anchor, f"outputs.{key}", f"expected a nonempty string, got {value!r}")
    cfg["outputs"] = {"csv_path": out_raw.get("csv_path", d["csv_path"]),
                      "json_path": out_raw.get("json_path", d["json_path"])}
    return cfg


def build_space(cfg: dict, gated: bool):
    sp = cfg["space"]
    eq_tol = cfg["tolerances"]["eq_tol"]
    if sp["kind"] == "absdiff":
        return make_absdiff_space(sp["t"], sp["d"], (sp["box"][0], sp["box"][1]), eq_tol)
    if gated:
        return make_lifted_space(sp["t"], sp["base_table"], eq_tol=eq_tol,
                                 seed=cfg["sampling"]["seed"])
    return table_space(sp["t"], sp["base_table"], eq_tol=eq_tol)


def build_map(cfg: dict, space):
    return make_map(MapSpec.from_dict(cfg["map"]), space, seed=cfg["sampling"]["seed"])


def _resolve_x0(cfg: dict, space):
    x0 = cfg["solver"]["x0"]
    if isinstance(x0, list):
        x0 = tuple(x0)
    try:
        return space.carrier.canon(x0)
    except CarrierDomainError as err:
        raise UsageError(f"solver.x0: {err}") from None


def _write_json(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _out_path(out_dir: str, name: str) -> Path:
    p = Path(name)
    return p if p.is_absolute() else Path(out_dir) / p


def _emit(path: Path):
    print(str(path))


def _json_witness(witness):
    """A failure's witness as JSON: a violation's dict, a point or index tuple as a list."""
    return witness.to_dict() if hasattr(witness, "to_dict") else _json_points(witness)


def _error_report(cfg: dict, command: str, message: str, witness=None) -> dict:
    doc = {"command": command, "config": cfg, "verdict": "fail", "error": message}
    if witness is not None:
        doc["witness"] = _json_witness(witness)
    return doc


def _run_law_checks(cfg: dict, space) -> dict:
    seed = cfg["sampling"]["seed"]
    tol = cfg["tolerances"]["check_tol"]
    LOG.info("running law checks (seed=%d)", seed)
    axioms = check_axioms(space, axiom_samples(space, cfg["sampling"]["n_tuples"], seed), tol)
    symmetry = check_symmetry(space, pair_samples(space, cfg["sampling"]["n_pairs"], seed), tol)
    triangle = check_triangle_inequality(
        space, triple_samples(space, cfg["sampling"]["n_triples"], seed), tol)
    return {"axioms": axioms, "symmetry": symmetry, "triangle": triangle}


def _run_classification(cfg: dict, space, f):
    # make_map checks images only on a sample, so one can still leave the
    # carrier here: the same defect, raised as the same ConstructionError.
    seed = cfg["sampling"]["seed"]
    tol = cfg["tolerances"]["check_tol"]
    pairs = pair_samples(space, cfg["sampling"]["n_pairs"], seed)
    try:
        cert = classify(space, f, pairs)
        contraction = None
        if cert.valid:
            holdout = pair_samples(space, cfg["sampling"]["n_pairs"], seed, stream=STREAM_HOLDOUT)
            contraction = verify_contraction_inequalities(space, f, cert.delta, holdout, tol)
    except CarrierDomainError as err:
        raise ConstructionError(f"map {cfg['map']['kind']!r} has an image outside the carrier: "
                                f"{err}", witness=err.point) from None
    return cert, contraction


def _delta_for_solving(cfg: dict, cert) -> float:
    margin = cfg["tolerances"]["safety_margin"]
    return cert.delta if margin == 0.0 else cert.delta_with_margin(margin)


def cmd_axioms(cfg: dict, out_dir: str) -> int:
    space = build_space(cfg, gated=False)
    checks = _run_law_checks(cfg, space)
    verdict = "pass" if all(c.passed for c in checks.values()) else "fail"
    report = {
        "command": "axioms",
        "config": cfg,
        "checks": {name: c.to_dict() for name, c in checks.items()},
        "verdict": verdict,
    }
    path = _out_path(out_dir, cfg["outputs"]["json_path"])
    _write_json(path, report)
    _emit(path)
    return EXIT_PASS if verdict == "pass" else EXIT_VIOLATION


def cmd_classify(cfg: dict, out_dir: str) -> int:
    path = _out_path(out_dir, cfg["outputs"]["json_path"])
    try:
        space = build_space(cfg, gated=True)
        f = build_map(cfg, space)
        cert, contraction = _run_classification(cfg, space, f)
    except ConstructionError as err:
        _write_json(path, _error_report(cfg, "classify", str(err), err.witness))
        _emit(path)
        return EXIT_VIOLATION
    verdict = "pass" if cert.valid and (contraction is None or contraction.passed) else "fail"
    report = {
        "command": "classify",
        "config": cfg,
        "certificate": cert.to_dict(),
        "contraction": contraction.to_dict() if contraction is not None else None,
        "verdict": verdict,
    }
    _write_json(path, report)
    _emit(path)
    return EXIT_PASS if verdict == "pass" else EXIT_VIOLATION


def cmd_solve(cfg: dict, out_dir: str) -> int:
    json_path = _out_path(out_dir, cfg["outputs"]["json_path"])
    csv_path = _out_path(out_dir, cfg["outputs"]["csv_path"])
    cert = None
    try:
        space = build_space(cfg, gated=True)
        f = build_map(cfg, space)
        if cfg["solver"]["delta"] is None:
            cert, _ = _run_classification(cfg, space, f)
    except ConstructionError as err:
        _write_json(json_path, _error_report(cfg, "solve", str(err), err.witness))
        _emit(json_path)
        return EXIT_VIOLATION

    if cert is not None and not cert.valid:
        report = _error_report(cfg, "solve", "map is not certified contractive")
        report["certificate"] = cert.to_dict()
        _write_json(json_path, report)
        _emit(json_path)
        return EXIT_VIOLATION
    delta = cfg["solver"]["delta"] if cert is None else _delta_for_solving(cfg, cert)

    rule = StopRule(eps=cfg["tolerances"]["eps"], max_iter=cfg["solver"]["max_iter"],
                    bound_eps=cfg["tolerances"]["bound_eps"])
    x0 = _resolve_x0(cfg, space)
    try:
        trace = picard_run(space, f, x0, delta, rule)
    except CarrierDomainError as err:
        report = _error_report(cfg, "solve", str(err), err.index)
        report["point"] = _json_points(err.point)
        _write_json(json_path, report)
        _emit(json_path)
        return EXIT_VIOLATION

    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(trace.to_csv())
    report = {
        "command": "solve",
        "config": cfg,
        "certificate": cert.to_dict() if cert is not None else None,
        "delta_used": delta,
        "trace": trace.summary_dict(),
        "verdict": "pass" if trace.status == "converged" else "fail",
    }
    _write_json(json_path, report)
    _emit(csv_path)
    _emit(json_path)
    return EXIT_PASS if trace.status == "converged" else EXIT_VIOLATION


def cmd_verify(cfg: dict, out_dir: str) -> int:
    """Full pipeline: laws, certificate, solve, envelopes, uniqueness, oracle."""
    json_path = _out_path(out_dir, cfg["outputs"]["json_path"])
    csv_path = _out_path(out_dir, cfg["outputs"]["csv_path"])
    space = build_space(cfg, gated=False)
    checks = _run_law_checks(cfg, space)
    report: dict = {
        "command": "verify",
        "config": cfg,
        "checks": {name: c.to_dict() for name, c in checks.items()},
        "certificate": None,
        "contraction": None,
        "trace": None,
        "decay": None,
        "cauchy": None,
        "uniqueness": None,
        "oracle": None,
        "skipped": {},
        "verdict": "fail",
    }
    failures = [name for name, c in checks.items() if not c.passed]

    def finish() -> int:
        report["verdict"] = "pass" if not failures else "fail"
        report["failures"] = sorted(failures)
        _write_json(json_path, report)
        _emit(json_path)
        return EXIT_PASS if not failures else EXIT_VIOLATION

    if failures:
        report["skipped"]["classification"] = "space law checks failed"
        return finish()

    try:
        f = build_map(cfg, space)
        cert, contraction = _run_classification(cfg, space, f)
    except ConstructionError as err:
        report["error"] = str(err)
        if err.witness is not None:
            report["witness"] = _json_witness(err.witness)
        failures.append("map-construction")
        return finish()

    report["certificate"] = cert.to_dict()
    if not cert.valid:
        failures.append("classification")
        report["skipped"]["solve"] = "no valid certificate"
        return finish()
    report["contraction"] = contraction.to_dict()
    if not contraction.passed:
        failures.append("contraction")

    delta = cfg["solver"]["delta"]
    delta = _delta_for_solving(cfg, cert) if delta is None else delta
    rule = StopRule(eps=cfg["tolerances"]["eps"], max_iter=cfg["solver"]["max_iter"],
                    bound_eps=cfg["tolerances"]["bound_eps"])
    x0 = _resolve_x0(cfg, space)
    try:
        trace = picard_run(space, f, x0, delta, rule)
    except CarrierDomainError as err:
        report["error"] = str(err)
        report["point"] = _json_points(err.point)
        failures.append("solve")
        return finish()
    report["delta_used"] = delta
    report["trace"] = trace.summary_dict()
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(trace.to_csv())
    _emit(csv_path)
    if trace.status != "converged":
        failures.append("solve")

    tol = cfg["tolerances"]["check_tol"]
    if trace.monitored:
        decay = verify_decay(trace, tol)
        report["decay"] = decay.to_dict()
        if not decay.passed:
            failures.append("decay")
        if len(trace.iterates) >= 3:
            cauchy = verify_cauchy(trace, space, tol)
            report["cauchy"] = cauchy.to_dict()
            if not cauchy.passed:
                failures.append("cauchy")
        else:
            report["skipped"]["cauchy"] = "fewer than 3 iterates"
    else:
        report["skipped"]["decay"] = "envelope monitoring disabled"
        report["skipped"]["cauchy"] = "envelope monitoring disabled"

    starts = list(start_samples(space, cfg["sampling"]["n_starts"], cfg["sampling"]["seed"]))
    if not space.carrier.finite:
        starts = [x0] + starts
    try:
        uniq = uniqueness_probe(space, f, starts, delta, rule, tol)
    except CarrierDomainError as err:
        report["error"] = str(err)
        report["point"] = _json_points(err.point)
        failures.append("uniqueness")
        return finish()
    report["uniqueness"] = uniq.to_dict()
    if not uniq.passed:
        failures.append("uniqueness")

    if space.carrier.finite:
        fps = brute_force_fixed_points(space, f)
        agrees = (len(fps) == 1 and trace.status == "converged"
                  and points_equal(space, fps[0], trace.limit))
        report["oracle"] = {"fixed_points": list(fps), "agrees_with_picard": agrees}
        if not agrees:
            failures.append("oracle")

    return finish()


_COMMANDS = {
    "axioms": cmd_axioms,
    "classify": cmd_classify,
    "solve": cmd_solve,
    "verify": cmd_verify,
}


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("AMETRIC_FIX_LOG", "quiet"), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="ametric-fix",
        description="Certify branch-contractive self-maps on arity-t metric "
                    "spaces and solve for their fixed points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out-dir", default=".", help="directory for reports (default: .)")
        p.add_argument("--seed", type=int, default=None, help="override sampling.seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_PASS if not err.code else EXIT_USAGE
    try:
        cfg = materialize_config(load_config(args.config), args.config, args.seed)
        return _COMMANDS[args.command](cfg, args.out_dir)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
