"""The three `verify` configs the benchmark runs, and the checks on their outputs.

Each workload is one fixed config; the benchmark seed reaches the program
only as `verify --seed`.  The checks below hold at every seed: they pin
facts that follow from the maps themselves (their contraction factor and
their fixed point 0), never sampled counts or witness floats, which later
changes to the check stages may legitimately move.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Known value tolerance for certificate.delta on the linear maps.
DELTA_TOL = 1e-12

_LINE_POINTS = [0, 1, 3, 4, 7, 9, 12]

# Sizes are chosen so one verify run takes about 0.3 s on the 2-vCPU host
# the benchmark was tuned on, and a run of the benchmark holds about a
# hundred of them.  At five to ten times these sizes a run held only five or
# six samples, and the host's speed drift (see calibration.py) moved their
# median by 20-30% between runs; with many short samples interleaved with
# calibration passes the spread fell to a few percent.  Each workload keeps
# the stage mix that is the reason it exists.


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # certificate.delta must equal this within DELTA_TOL; None skips the check.
    delta: float | None = None
    # The certificate must assign some pairs to the Kannan or Chatterjea branch.
    needs_nonbanach: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sampled-t8d4",
        # High arity on a sampled 4-d box: every check goes through Box.canon
        # and O(t^2) pair sums.  The law checks in `core` and `zamfirescu`
        # (classify plus contraction) take nearly all of a run; the solver
        # is small (28 Picard steps, 406 Cauchy pairs).
        why="high-arity sampled path: core law checks and zamfirescu classify dominate, "
            "Box.canon-heavy",
        config={
            "space": {"kind": "absdiff", "t": 8, "d": 4, "box": [-100, 100]},
            "map": {"kind": "two-sevenths"},
            "sampling": {"seed": 0, "n_tuples": 300, "n_pairs": 300, "n_triples": 300},
            "solver": {"x0": [7, -3, 1.5, 50]},
        },
        delta=2.0 / 7.0,
    ),
    Workload(
        name="slow-contraction",
        # lam = 0.97 needs 359 Picard steps to reach eps = 1e-4, so
        # solver.verify_cauchy checks 64,620 iterate pairs, each through
        # core.rep_distance: the O(n^2) stage, over 90% of a run.  The law
        # checks and classify are a few percent.  A cheaper rep or canon
        # shows here too.
        why="slow contraction: the O(n^2) verify_cauchy sweep over 360 iterates dominates",
        config={
            "space": {"kind": "absdiff", "t": 3, "d": 1},
            "map": {"kind": "linear-scale", "lam": 0.97},
            "sampling": {"seed": 0, "n_tuples": 50, "n_pairs": 50, "n_triples": 50},
            "tolerances": {"eps": 1e-4},
            "solver": {"x0": 90},
        },
        delta=0.97,
    ),
    Workload(
        name="finite-exhaustive",
        # A lifted 7-point line table at t=4, the exhaustive arity limit:
        # integer indices, table lookups and FiniteCarrier.canon, with
        # 7^5 = 16,807 axiom entries taking nearly all of a run.  The only
        # workload whose certificate needs the Kannan branch and where the
        # brute-force oracle runs; a Box-only optimisation should not move
        # it.  x0 must be an integer: the default 1.0 is rejected for lifted
        # spaces.
        why="finite lifted table swept exhaustively: core.check_axioms on table lookups, "
            "Kannan branch and oracle",
        config={
            "space": {"kind": "lifted", "t": 4,
                      "base_table": [[abs(a - b) for b in _LINE_POINTS] for a in _LINE_POINTS]},
            "map": {"kind": "finite-table", "images": [0, 0, 1, 0, 1, 2, 0]},
            "sampling": {"seed": 0},
            "solver": {"x0": 5},
        },
        needs_nonbanach=True,
    ),
)}


def rep_to_fixed_point(space: dict, limit) -> float:
    """rep(limit, 0) computed from the config, independently of the package.

    0 is the fixed point of all three maps: the origin of an absdiff box,
    and index 0 of the lifted table.  Both spaces are sum-over-pairs lifts,
    so rep(x, y) = (t - 1) * base(x, y).
    """
    if space["kind"] == "absdiff":
        coords = limit if isinstance(limit, list) else [limit]
        return (space["t"] - 1) * sum(abs(c) for c in coords)
    return (space["t"] - 1) * space["base_table"][limit][0]


def checks_in_report(report: dict) -> int:
    """Inequality instances one verify run checked, as its report counts them."""
    stages = list(report["checks"].values())
    stages += [report[k] for k in ("contraction", "decay", "cauchy", "uniqueness")]
    return sum(s["checked"] for s in stages if s) + report["certificate"]["n_pairs"]


def output_problems(workload: Workload, exit_code: int, out_dir: Path) -> list[str]:
    """Everything wrong with one verify run's exit code and report; empty when correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as err:
        return [f"unreadable report.json: {err}"]
    problems = []
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')!r}, failures {report.get('failures')}")
        return problems
    cert = report["certificate"]
    if not cert["valid"]:
        problems.append("certificate not valid")
    if workload.delta is not None and not abs(cert["delta"] - workload.delta) <= DELTA_TOL:
        problems.append(f"certificate.delta {cert['delta']!r} != {workload.delta!r}")
    counts = cert["branch_counts"]
    if workload.needs_nonbanach and counts["kannan"] + counts["chatterjea"] == 0:
        problems.append(f"no Kannan or Chatterjea pairs: {counts}")
    trace = report["trace"]
    gap = rep_to_fixed_point(report["config"]["space"], trace["limit"])
    if not gap <= trace["final_tail_bound"]:
        problems.append(f"rep(limit, 0) = {gap!r} exceeds final_tail_bound "
                        f"{trace['final_tail_bound']!r}")
    if report["config"]["space"]["kind"] == "lifted":
        oracle = report["oracle"] or {}
        if oracle.get("fixed_points") != [0] or oracle.get("agrees_with_picard") is not True:
            problems.append(f"oracle {oracle!r}, expected fixed_points [0] agreeing with Picard")
    return problems
