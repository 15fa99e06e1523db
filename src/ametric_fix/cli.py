"""Command-line front end: JSON experiment configs in, reports out.

Four subcommands, each the pipeline stopped after its own stage:

    ametric-fix axioms   --config cfg.json   # space law checks
    ametric-fix classify --config cfg.json   # ... + branch-contraction certificate
    ametric-fix solve    --config cfg.json   # ... + Picard run (its CSV carries the envelopes)
    ametric-fix verify   --config cfg.json   # ... + envelope, uniqueness and oracle checks

Each writes verify's report cut to the keys of the stages it ran.

Exit codes: 0 all checks passed, 1 a mathematical violation or
non-convergence, 2 a usage or configuration error, or a config that asks
for more memory than there is.  Outputs are byte-stable
for a fixed config and seed: every default is materialized into the report,
JSON keys are sorted, and CSV floats carry 17 significant digits.  Stdout
prints only the paths of the written reports; set AMETRIC_FIX_LOG to
``info`` or ``debug`` for progress on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from functools import cache
from itertools import accumulate
from pathlib import Path

from .core import check_axioms, check_symmetry, check_triangle_inequality, json_text, points_equal
from .errors import CarrierDomainError, ConstructionError, UsageError, finite_real, integer
from .sampling import (
    STREAM_HOLDOUT,
    axiom_samples,
    pair_samples,
    start_samples,
    triple_samples,
)
from .solver import StopRule, brute_force_fixed_points, picard_run, verify_cauchy, verify_decay, uniqueness_probe
from .spaces import MapSpec, _lift_table, escape_error, make_absdiff_space, make_map, read_table
from .zamfirescu import classify, verify_contraction_inequalities

LOG = logging.getLogger("ametric_fix")

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

# The subcommands in pipeline order, each with the stages it runs: each one is
# the pipeline stopped after its own stage.
COMMANDS = {
    "axioms": "space law checks",
    "classify": "law checks, then the branch-contraction certificate",
    "solve": "law checks, certificate, then the Picard run",
    "verify": "the whole pipeline, envelopes, uniqueness and oracle included: one verdict",
}

# Subcommand -> the report keys it writes: those its own stage adds and those
# of every stage before it, so each report is verify's cut at its stop.
_REPORT_KEYS = dict(zip(COMMANDS, map(frozenset, accumulate((
    ("checks",),
    ("skipped", "failures", "certificate", "contraction", "error", "witness", "point"),
    ("delta_used", "trace"),
    ("decay", "cauchy", "uniqueness", "oracle"),
)))))


def _fail(anchor: str, key: str, message: str):
    """Raise ``message`` about ``key`` of the config file ``anchor`` as a
    UsageError, after the path and, unless the message starts with it, the key."""
    raise UsageError(f"{anchor}: {message if message.startswith(key) else f'{key}: {message}'}")


@contextmanager
def _about(anchor: str, key: str, errors=UsageError):
    """Re-raise an error of ``errors`` in the block by :func:`_fail`."""
    try:
        yield
    except errors as err:
        _fail(anchor, key, str(err))


def _require_delta(value, what):
    delta = finite_real(value, what)
    if delta >= 1.0:
        raise UsageError(f"{what} must be < 1 (negative disables monitoring), got {value!r}")
    return delta


def _require_path(value, what):
    if not isinstance(value, str) or not value:
        raise UsageError(f"{what} must be a nonempty string, got {value!r}")
    return value


# Every config key, section -> key -> (default, check, *bounds), in the order
# the keys are checked by check(value, what, *bounds): a count is an integer
# >= 1, and finite_real's bounds are a minimum and whether it is strict.  A
# default of None keeps an absent or null value as None.  Keys mapped to None
# depend on other keys and are checked by hand in materialize_config.
_KEYS = {
    "space": dict.fromkeys(("kind", "t", "d", "box", "base_table")),
    "sampling": {"seed": None, "n_tuples": (1000, integer, 1), "n_pairs": (1000, integer, 1),
                 "n_triples": (1000, integer, 1), "n_starts": (5, integer, 1)},
    "tolerances": {"check_tol": (1e-9, finite_real, 0, True), "eps": (1e-12, finite_real, 0, True),
                   "bound_eps": (None, finite_real, 0, True), "eq_tol": (1e-12, finite_real, 0),
                   "safety_margin": (0.0, finite_real, 0)},
    "solver": {"x0": None, "max_iter": (10_000, integer, 1), "delta": (None, _require_delta)},
    "outputs": {"csv_path": ("trace.csv", _require_path), "json_path": ("report.json", _require_path)},
}
# The space keys each kind takes besides "kind".
_SPACE_KEYS = {"absdiff": ("t", "d", "box"), "lifted": ("t", "base_table")}


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
        default, check, *bounds = spec
        value = given.get(key, default)
        if value is not None or default is not None:
            value = check(value, f"{anchor}: {section}.{key}", *bounds)
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
    for key in space_raw:
        if key != "kind" and key not in _SPACE_KEYS[kind]:
            _fail(anchor, f"space.{key}", f"not a key of space kind {kind!r}")
    t = integer(space_raw.get("t"), f"{anchor}: space.t", 2)
    if kind == "absdiff":
        d = integer(space_raw.get("d", 1), f"{anchor}: space.d", 1)
        box = space_raw.get("box", [-100.0, 100.0])
        if not (isinstance(box, list) and len(box) == 2):
            _fail(anchor, "space.box", f"expected [lo, hi], got {box!r}")
        lo = finite_real(box[0], f"{anchor}: space.box[0]")
        hi = finite_real(box[1], f"{anchor}: space.box[1]")
        if not lo < hi:
            _fail(anchor, "space.box", f"need lo < hi, got [{lo}, {hi}]")
        cfg["space"] = {"kind": "absdiff", "t": t, "d": d, "box": [lo, hi]}
    else:
        table = read_table(space_raw.get("base_table"), f"{anchor}: space.base_table")
        cfg["space"] = {"kind": "lifted", "t": t, "base_table": table}

    map_raw = raw.get("map")
    if not isinstance(map_raw, dict):
        _fail(anchor, "map", "required section")
    with _about(anchor, "map"):
        cfg["map"] = MapSpec.from_dict(map_raw).to_dict()

    sampling_raw = raw.get("sampling")
    if not isinstance(sampling_raw, dict):
        _fail(anchor, "sampling", "required section")
    seed = seed_override if seed_override is not None else sampling_raw.get("seed")
    if seed is None:
        _fail(anchor, "sampling.seed", "required (runs must be reproducible)")
    seed = integer(seed, f"{anchor}: sampling.seed", 0, (1 << 64) - 1)
    cfg["sampling"] = {"seed": seed, **_with_defaults("sampling", sampling_raw, anchor)}

    cfg["tolerances"] = _with_defaults("tolerances", raw.get("tolerances") or {}, anchor)

    solver_raw = raw.get("solver") or {}
    # Lifted points are integer indices, so their default start is index 0;
    # a box's is 1.0 in every coordinate.
    x0 = solver_raw.get("x0", 0 if kind == "lifted" else 1.0 if d == 1 else [1.0] * d)
    if isinstance(x0, list):
        x0 = [finite_real(v, f"{anchor}: solver.x0") for v in x0]
    elif kind == "lifted":
        x0 = integer(x0, f"{anchor}: solver.x0", 0)
    else:
        x0 = finite_real(x0, f"{anchor}: solver.x0")
    cfg["solver"] = {"x0": x0, **_with_defaults("solver", solver_raw, anchor)}

    cfg["outputs"] = _with_defaults("outputs", raw.get("outputs") or {}, anchor)
    return cfg


def build_space(cfg: dict, gated: bool = False):
    """The space of a config :func:`materialize_config` made, without a law
    gate: every subcommand runs the law checks as its first stage.  A base
    table was read there, so its array is lifted as it is.  ``gated`` is
    ignored; it is kept because the benchmark's set-up probe passes it."""
    sp = cfg["space"]
    eq_tol = cfg["tolerances"]["eq_tol"]
    if sp["kind"] == "absdiff":
        return make_absdiff_space(sp["t"], sp["d"], (sp["box"][0], sp["box"][1]), eq_tol)
    return _lift_table(sp["t"], sp["base_table"], eq_tol)


def build_map(cfg: dict, space):
    return make_map(MapSpec.from_dict(cfg["map"]), space, seed=cfg["sampling"]["seed"])


def _resolve_x0(cfg: dict, space, anchor: str):
    x0 = cfg["solver"]["x0"]
    with _about(anchor, "solver.x0", (CarrierDomainError, UsageError)):
        return space.carrier.canon(tuple(x0) if isinstance(x0, list) else x0)


def _stop_rule(cfg: dict) -> StopRule:
    return StopRule(eps=cfg["tolerances"]["eps"], max_iter=cfg["solver"]["max_iter"],
                    bound_eps=cfg["tolerances"]["bound_eps"])


def _write(paths: dict, key: str, pieces) -> None:
    """Write the strings ``pieces`` to the file outputs.<key> names, ``paths[key]``,
    and print its path; a path that cannot be written is a configuration error."""
    path = paths[key]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:  # in slices: a large piece is not copied whole to bytes
            out.writelines(p[i:i + (1 << 20)] for p in pieces for i in range(0, len(p), 1 << 20))
    except OSError as err:
        raise UsageError(f"outputs.{key}: cannot write {str(path)!r}: {err.strerror}") from None
    print(str(path))


class _Runs:
    """Picard runs made one at a time as they are read, and counted unread:
    the benchmark's tracer counts the uniqueness probe's runs by ``len``."""

    def __init__(self, n: int, runs):
        self.n, self.runs = n, runs

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return self.runs


def _error_fields(err) -> dict:
    """A failure's report fields: its message, and its witness or escaping point."""
    if isinstance(err, CarrierDomainError):
        return {"error": str(err), "point": err.point}
    if err.witness is None:
        return {"error": str(err)}
    return {"error": str(err), "witness": err.witness}


def run(cfg: dict, out_dir: str, command: str, config_path: str) -> int:
    """Run the pipeline up to and including ``command``'s stage, write its
    report, and return 0 if every stage it ran passed, else 1.  No output
    may name ``config_path``, the config file ``cfg`` was read from.

    The stages, in order: the law checks (``axioms``), the certificate and its
    contraction check (``classify``), the Picard run (``solve``), and the
    envelope, uniqueness and oracle checks (``verify``).  A failed law check,
    map or certificate ends the run; a failed contraction check or a Picard
    run that does not converge does not.  ``solve`` with ``solver.delta``
    skips the certificate and iterates with that delta.
    """
    # Under out_dir unless absolute: joining an absolute path drops out_dir.
    paths = {key: Path(out_dir, name) for key, name in cfg["outputs"].items()}
    if os.path.abspath(paths["csv_path"]) == os.path.abspath(paths["json_path"]):
        _fail(config_path, "outputs", f"outputs.csv_path and outputs.json_path name one file, "
                                      f"{str(paths['json_path'])!r}")
    for key, path in paths.items():
        if os.path.abspath(path) == os.path.abspath(config_path):
            _fail(config_path, "outputs", f"outputs.{key} names the config file {config_path!r}")
    with _about(config_path, "space.box"):  # a box too wide for a float
        space = build_space(cfg)
    if command in ("solve", "verify"):  # a bad start exits 2 here, before any sweep
        x0 = _resolve_x0(cfg, space, config_path)
    try:  # a malformed map parameter exits 2 here, before any sweep
        with _about(config_path, "map"):
            f, map_error = build_map(cfg, space), None
    except ConstructionError as err:  # an escaping image: reported if the laws hold
        f, map_error = None, err
    report: dict = {"checks": {}, "skipped": {}, **dict.fromkeys((
        "certificate", "contraction", "trace", "decay", "cauchy", "uniqueness", "oracle"))}
    failures = []

    def record(name, check, into=report):
        into[name] = check
        if not check.passed:
            failures.append(name)

    def finish(failure=None, err=None) -> int:
        """Write the report, cut to the command's keys, by :func:`json_text`,
        print its path, and return the exit code."""
        if failure is not None:
            failures.append(failure)
        if err is not None:
            report.update(_error_fields(err))
        report["failures"] = sorted(failures)
        keys = _REPORT_KEYS[command]
        text = json_text({"command": command, "config": cfg,
                          **{k: v for k, v in report.items() if k in keys},
                          "verdict": "fail" if failures else "pass"})
        with _about(config_path, "outputs"):
            _write(paths, "json_path", [text])
        return EXIT_VIOLATION if failures else EXIT_PASS

    seed, tol = cfg["sampling"]["seed"], cfg["tolerances"]["check_tol"]
    pairs = pair_samples(space, cfg["sampling"]["n_pairs"], seed)  # shared with the certificate
    LOG.info("running law checks (seed=%d)", seed)
    checks = report["checks"]
    record("axioms", check_axioms(space, axiom_samples(space, cfg["sampling"]["n_tuples"], seed), tol),
           checks)
    record("symmetry", check_symmetry(space, pairs, tol), checks)
    record("triangle", check_triangle_inequality(
        space, triple_samples(space, cfg["sampling"]["n_triples"], seed), tol), checks)
    if failures:
        report["skipped"]["classification"] = "space law checks failed"
        return finish()
    if command == "axioms":
        return finish()

    if map_error is not None:
        return finish("map-construction", map_error)
    delta = cfg["solver"]["delta"]
    if command == "solve" and delta is not None:
        report["skipped"]["classification"] = "solver.delta is given"
    else:
        holdout = None
        try:
            cert = classify(space, f, pairs)
            if cert.valid:
                holdout = pair_samples(space, cfg["sampling"]["n_pairs"], seed, stream=STREAM_HOLDOUT)
                contraction = verify_contraction_inequalities(space, f, cert.delta, holdout, tol)
        except CarrierDomainError as err:
            # make_map checks images only on a sample, so one can still leave
            # the carrier here: the same defect, reported as make_map reports it,
            # by the first swept point whose image leaves.
            swept = (p for s in (pairs, holdout) if s is not None for pair in s for p in pair)
            return finish("map-construction", escape_error(f, space.carrier, swept) or err)
        report["certificate"] = cert
        if not cert.valid:
            report["skipped"]["solve"] = "no valid certificate"
            return finish("classification")
        record("contraction", contraction)
        if command == "classify":
            return finish()
        if delta is None:
            delta = cert.delta_with_margin(cfg["tolerances"]["safety_margin"])

    if command == "verify":  # before any output: a count no memory holds writes nothing
        starts = list(start_samples(space, cfg["sampling"]["n_starts"], seed))
    rule = _stop_rule(cfg)
    try:
        trace = picard_run(space, f, x0, delta, rule)
    except CarrierDomainError as err:
        return finish("solve", err)
    report["delta_used"] = delta
    report["trace"] = trace.summary_dict()
    with _about(config_path, "outputs"):
        _write(paths, "csv_path", trace.csv_blocks())
    if trace.status != "converged":
        failures.append("solve")
    if command == "solve":
        return finish()

    if not trace.monitored:
        report["skipped"]["decay"] = report["skipped"]["cauchy"] = "envelope monitoring disabled"
    else:
        record("decay", verify_decay(trace, tol))
        if len(trace.iterates) >= 3:
            record("cauchy", verify_cauchy(trace, space, tol))
        else:
            report["skipped"]["cauchy"] = "fewer than 3 iterates"

    # The main trace is the run from x0's start: one prepended on a continuous
    # carrier, and on a finite one, whose starts are its indices in order, start x0.
    if not space.carrier.finite:
        starts = [x0] + starts
    x0_slot = x0 if space.carrier.finite else 0
    # Runs without monitoring agree within a spread sized by the certificate,
    # which verify has always made by now.
    certified = cert.delta_with_margin(cfg["tolerances"]["safety_margin"]) if delta < 0 else None
    try:
        runs = _Runs(len(starts), (trace if i == x0_slot else picard_run(space, f, start, delta, rule)
                                   for i, start in enumerate(starts)))
        record("uniqueness", uniqueness_probe(space, f, runs, rule, certified=certified))
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


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("AMETRIC_FIX_LOG", "quiet"), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of :func:`main` (not at import) and kept."""
    parser = argparse.ArgumentParser(
        prog="ametric-fix",
        description="Certify branch-contractive self-maps on arity-t metric "
                    "spaces and solve for their fixed points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stages in COMMANDS.items():
        p = sub.add_parser(name, help=stages)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out-dir", default=".", help="directory for reports (default: .)")
        p.add_argument("--seed", type=int, default=None, help="override sampling.seed")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return EXIT_PASS if not err.code else EXIT_USAGE
    try:
        cfg = materialize_config(load_config(args.config), args.config, args.seed)
        return run(cfg, args.out_dir, args.command, args.config)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as err:  # a legal config whose sample counts no memory holds
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
