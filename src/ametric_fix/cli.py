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
from functools import partial
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
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        _fail(anchor, key, f"must be finite, got {value!r}")
    if positive and not v > 0:
        _fail(anchor, key, f"must be > 0, got {value!r}")
    if nonnegative and v < 0:
        _fail(anchor, key, f"must be >= 0, got {value!r}")
    return v


def _require_delta(value, anchor, key):
    delta = _require_real(value, anchor, key)
    if delta >= 1.0:
        _fail(anchor, key, f"must be < 1 (negative disables monitoring), got {delta}")
    return delta


def _require_path(value, anchor, key):
    if not isinstance(value, str) or not value:
        _fail(anchor, key, f"expected a nonempty string, got {value!r}")
    return value


_COUNT = partial(_require_int, minimum=1)
_POSITIVE = partial(_require_real, positive=True)
_NONNEGATIVE = partial(_require_real, nonnegative=True)

# Every config key, section -> key -> (default, check), in the order the
# keys are checked.  A default of None keeps an absent or null value as
# None.  Keys mapped to None depend on other keys and are checked by hand in
# materialize_config.
_KEYS = {
    "space": dict.fromkeys(("kind", "t", "d", "box", "base_table")),
    "sampling": {"seed": None, "n_tuples": (1000, _COUNT), "n_pairs": (1000, _COUNT),
                 "n_triples": (1000, _COUNT), "n_starts": (5, _COUNT)},
    "tolerances": {"check_tol": (1e-9, _POSITIVE), "eps": (1e-12, _POSITIVE),
                   "bound_eps": (None, _POSITIVE), "eq_tol": (1e-12, _NONNEGATIVE),
                   "safety_margin": (0.0, _NONNEGATIVE)},
    "solver": {"x0": None, "max_iter": (10_000, _COUNT), "delta": (None, _require_delta)},
    "outputs": {"csv_path": ("trace.csv", _require_path), "json_path": ("report.json", _require_path)},
}


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"{path}: cannot read config: {err}") from None
    except UnicodeDecodeError as err:
        raise UsageError(f"{path}: config is not UTF-8: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: top level must be a JSON object")
    return doc


def _with_defaults(section: str, given: dict, anchor: str) -> dict:
    """The table's keys of one section: given values checked, absent ones defaulted."""
    values = {}
    for key, spec in _KEYS[section].items():
        if spec is None:
            continue
        default, check = spec
        value = given.get(key, default)
        if value is not None or default is not None:
            value = check(value, anchor, f"{section}.{key}")
        values[key] = value
    return values


def materialize_config(raw: dict, anchor: str, seed_override: int | None = None) -> dict:
    """Validate the config and fill every default, so reports are self-describing."""
    for section in raw:
        if section != "map" and section not in _KEYS:
            _fail(anchor, section, "unknown section")
    for section, keys in _KEYS.items():
        given = raw.get(section)
        if given is not None and not isinstance(given, dict):
            _fail(anchor, section, f"expected an object, got {given!r}")
        for key in given or {}:
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
    cfg["sampling"] = {"seed": seed, **_with_defaults("sampling", sampling_raw, anchor)}

    cfg["tolerances"] = _with_defaults("tolerances", raw.get("tolerances") or {}, anchor)

    solver_raw = raw.get("solver") or {}
    # Lifted points are integer indices, so their default start is index 0.
    x0 = solver_raw.get("x0", 0 if cfg["space"]["kind"] == "lifted" else 1.0)
    if isinstance(x0, list):
        x0 = [_require_real(v, anchor, "solver.x0") for v in x0]
    elif cfg["space"]["kind"] == "lifted":
        x0 = _require_int(x0, anchor, "solver.x0", minimum=0)
    else:
        x0 = _require_real(x0, anchor, "solver.x0")
    cfg["solver"] = {"x0": x0, **_with_defaults("solver", solver_raw, anchor)}

    cfg["outputs"] = _with_defaults("outputs", raw.get("outputs") or {}, anchor)
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


def _stop_rule(cfg: dict) -> StopRule:
    return StopRule(eps=cfg["tolerances"]["eps"], max_iter=cfg["solver"]["max_iter"],
                    bound_eps=cfg["tolerances"]["bound_eps"])


def _delta_for_solving(cfg: dict, cert) -> float:
    """solver.delta if given, else the certificate's delta, widened by the safety margin."""
    if cfg["solver"]["delta"] is not None:
        return cfg["solver"]["delta"]
    margin = cfg["tolerances"]["safety_margin"]
    return cert.delta if margin == 0.0 else cert.delta_with_margin(margin)


def _out_path(cfg: dict, out_dir: str, key: str) -> Path:
    """The file named by outputs.<key>, under out_dir unless absolute; its directory is made."""
    p = Path(cfg["outputs"][key])
    p = p if p.is_absolute() else Path(out_dir) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_csv(cfg: dict, out_dir: str, trace) -> None:
    path = _out_path(cfg, out_dir, "csv_path")
    path.write_text(trace.to_csv())
    print(str(path))


def _finish(cfg: dict, out_dir: str, command: str, passed: bool, **fields) -> int:
    """Write the command's JSON report, print its path, and return 0 if it passed, else 1."""
    report = {"command": command, "config": cfg, **fields, "verdict": "pass" if passed else "fail"}
    path = _out_path(cfg, out_dir, "json_path")
    path.write_text(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    print(str(path))
    return EXIT_PASS if passed else EXIT_VIOLATION


def _error_fields(err) -> dict:
    """A failure's report fields: its message, and its witness or escaping point as JSON."""
    if isinstance(err, CarrierDomainError):
        return {"error": str(err), "point": _json_points(err.point)}
    if err.witness is None:
        return {"error": str(err)}
    witness = err.witness.to_dict() if hasattr(err.witness, "to_dict") else _json_points(err.witness)
    return {"error": str(err), "witness": witness}


def _pairs(cfg: dict, space):
    """The config's pair set, which the symmetry check and the certificate share."""
    return pair_samples(space, cfg["sampling"]["n_pairs"], cfg["sampling"]["seed"])


def _run_law_checks(cfg: dict, space, pairs) -> dict:
    seed = cfg["sampling"]["seed"]
    tol = cfg["tolerances"]["check_tol"]
    LOG.info("running law checks (seed=%d)", seed)
    axioms = check_axioms(space, axiom_samples(space, cfg["sampling"]["n_tuples"], seed), tol)
    symmetry = check_symmetry(space, pairs, tol)
    triangle = check_triangle_inequality(
        space, triple_samples(space, cfg["sampling"]["n_triples"], seed), tol)
    return {"axioms": axioms, "symmetry": symmetry, "triangle": triangle}


def _run_classification(cfg: dict, space, f, pairs):
    # make_map checks images only on a sample, so one can still leave the
    # carrier here: the same defect, raised as the same ConstructionError.
    seed = cfg["sampling"]["seed"]
    tol = cfg["tolerances"]["check_tol"]
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


def cmd_axioms(cfg: dict, out_dir: str) -> int:
    space = build_space(cfg, gated=False)
    checks = _run_law_checks(cfg, space, _pairs(cfg, space))
    return _finish(cfg, out_dir, "axioms", all(c.passed for c in checks.values()),
                   checks={name: c.to_dict() for name, c in checks.items()})


def cmd_classify(cfg: dict, out_dir: str) -> int:
    try:
        space = build_space(cfg, gated=True)
        cert, contraction = _run_classification(cfg, space, build_map(cfg, space),
                                                _pairs(cfg, space))
    except ConstructionError as err:
        return _finish(cfg, out_dir, "classify", False, **_error_fields(err))
    return _finish(cfg, out_dir, "classify",
                   cert.valid and (contraction is None or contraction.passed),
                   certificate=cert.to_dict(),
                   contraction=contraction.to_dict() if contraction is not None else None)


def cmd_solve(cfg: dict, out_dir: str) -> int:
    cert = None
    try:
        space = build_space(cfg, gated=True)
        f = build_map(cfg, space)
        if cfg["solver"]["delta"] is None:
            cert, _ = _run_classification(cfg, space, f, _pairs(cfg, space))
    except ConstructionError as err:
        return _finish(cfg, out_dir, "solve", False, **_error_fields(err))
    if cert is not None and not cert.valid:
        return _finish(cfg, out_dir, "solve", False, error="map is not certified contractive",
                       certificate=cert.to_dict())

    delta = _delta_for_solving(cfg, cert)
    try:
        trace = picard_run(space, f, _resolve_x0(cfg, space), delta, _stop_rule(cfg))
    except CarrierDomainError as err:
        return _finish(cfg, out_dir, "solve", False, witness=err.index, **_error_fields(err))
    _write_csv(cfg, out_dir, trace)
    return _finish(cfg, out_dir, "solve", trace.status == "converged",
                   certificate=cert.to_dict() if cert is not None else None,
                   delta_used=delta, trace=trace.summary_dict())


def cmd_verify(cfg: dict, out_dir: str) -> int:
    """Full pipeline: laws, certificate, solve, envelopes, uniqueness, oracle."""
    space = build_space(cfg, gated=False)
    report: dict = {"checks": {}, "skipped": {}, **dict.fromkeys((
        "certificate", "contraction", "trace", "decay", "cauchy", "uniqueness", "oracle"))}
    failures = []

    def record(name, check, into=report):
        into[name] = check.to_dict()
        if not check.passed:
            failures.append(name)

    def finish(failure=None, err=None) -> int:
        if failure is not None:
            failures.append(failure)
        if err is not None:
            report.update(_error_fields(err))
        return _finish(cfg, out_dir, "verify", not failures, failures=sorted(failures), **report)

    pairs = _pairs(cfg, space)
    for name, check in _run_law_checks(cfg, space, pairs).items():
        record(name, check, report["checks"])
    if failures:
        report["skipped"]["classification"] = "space law checks failed"
        return finish()

    try:
        f = build_map(cfg, space)
        cert, contraction = _run_classification(cfg, space, f, pairs)
    except ConstructionError as err:
        return finish("map-construction", err)
    report["certificate"] = cert.to_dict()
    if not cert.valid:
        report["skipped"]["solve"] = "no valid certificate"
        return finish("classification")
    record("contraction", contraction)

    delta, rule, x0 = _delta_for_solving(cfg, cert), _stop_rule(cfg), _resolve_x0(cfg, space)
    try:
        trace = picard_run(space, f, x0, delta, rule)
    except CarrierDomainError as err:
        return finish("solve", err)
    report["delta_used"] = delta
    report["trace"] = trace.summary_dict()
    _write_csv(cfg, out_dir, trace)
    if trace.status != "converged":
        failures.append("solve")

    tol = cfg["tolerances"]["check_tol"]
    if not trace.monitored:
        report["skipped"]["decay"] = report["skipped"]["cauchy"] = "envelope monitoring disabled"
    else:
        record("decay", verify_decay(trace, tol))
        if len(trace.iterates) >= 3:
            record("cauchy", verify_cauchy(trace, space, tol))
        else:
            report["skipped"]["cauchy"] = "fewer than 3 iterates"

    starts = list(start_samples(space, cfg["sampling"]["n_starts"], cfg["sampling"]["seed"]))
    if not space.carrier.finite:
        starts = [x0] + starts
    try:
        record("uniqueness", uniqueness_probe(space, f, starts, delta, rule, tol))
    except CarrierDomainError as err:
        return finish("uniqueness", err)

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
