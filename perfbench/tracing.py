"""Spans and call counters installed around ametric_fix from outside the package.

The traced run replaces the names `cli` imports (and `solver.picard_run`, so
the nested runs inside `uniqueness_probe` are seen) with wrappers that
record a span per call: name, start, end and the enclosing span.  A span's
self time is its duration minus the durations of the spans it encloses.
Calls to `evaluate`, `rep_distance` and `canon` are too frequent to time
without distorting the run, so they are only counted, in a separate run.
Nothing inside the package changes; every replaced name is restored on exit.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


def _entries(args, result):
    return {"entries": len(result)}


def _check(args, result):
    return {"entries": len(args[1]), "violations": result.violations_total}


def _classify(args, result):
    counts = result.branch_counts
    return {"pairs": result.n_pairs, "nonbanach": counts["kannan"] + counts["chatterjea"]}


# (module, attribute, span name, work extractor).  The attribute is replaced
# in that module's namespace, which is where its callers look it up.
SPANS = (
    ("cli", "materialize_config", "cli.materialize_config", None),
    ("cli", "build_space", "spaces.build_space", None),
    ("cli", "build_map", "spaces.build_map", None),
    ("cli", "axiom_samples", "sampling.axiom_samples", _entries),
    ("cli", "pair_samples", "sampling.pair_samples", _entries),
    ("cli", "triple_samples", "sampling.triple_samples", _entries),
    ("cli", "start_samples", "sampling.start_samples", _entries),
    ("cli", "check_axioms", "core.check_axioms", _check),
    ("cli", "check_symmetry", "core.check_symmetry", _check),
    ("cli", "check_triangle_inequality", "core.check_triangle_inequality", _check),
    ("cli", "points_equal", "core.points_equal", None),
    ("cli", "classify", "zamfirescu.classify", _classify),
    ("cli", "verify_contraction_inequalities", "zamfirescu.contraction", None),
    ("cli", "picard_run", "solver.picard_run", lambda a, r: {"steps": len(r.steps)}),
    ("solver", "picard_run", "solver.picard_run", lambda a, r: {"steps": len(r.steps)}),
    ("cli", "verify_decay", "solver.verify_decay", None),
    ("cli", "verify_cauchy", "solver.verify_cauchy", lambda a, r: {"pairs": r.checked}),
    ("cli", "uniqueness_probe", "solver.uniqueness_probe", lambda a, r: {"runs": len(a[2])}),
    ("cli", "brute_force_fixed_points", "solver.brute_force", None),
)

# (module, attribute, counter name) for the untimed counting run.  Every
# module that imported rep_distance by name is listed, and canon is
# replaced on the carrier classes so bound calls are seen too.
COUNTED = (
    ("core", "evaluate", "core.evaluate.calls"),
    ("core", "rep_distance", "core.rep_distance.calls"),
    ("solver", "rep_distance", "core.rep_distance.calls"),
    ("zamfirescu", "rep_distance", "core.rep_distance.calls"),
    ("core.Box", "canon", "core.canon.calls"),
    ("core.FiniteCarrier", "canon", "core.canon.calls"),
)

ROOT_SPAN = "cli.main"


class Span:
    __slots__ = ("name", "parent", "start", "end", "work")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.work = None


class Tracer:
    """Collects spans in memory; one tracer per traced verify run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, name, fn, work=None):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, open_spans[-1] if open_spans else None)
            spans.append(span)
            open_spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        return traced

    def totals(self) -> dict:
        """Per span name: summed self time `s`, call count and summed work fields."""
        self_s = {id(s): s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                self_s[id(s.parent)] -= s.end - s.start
        out: dict = {}
        for s in self.spans:
            t = out.setdefault(s.name, {"s": 0.0, "calls": 0})
            t["s"] += self_s[id(s)]
            t["calls"] += 1
            for key, value in (s.work or {}).items():
                t[key] = t.get(key, 0) + value
        return out


def _targets(package, table):
    """(owner, attr, original, *rest) for each table row whose target exists.

    A name the package no longer has is skipped, so its metric reads 0
    instead of the benchmark failing on a refactored package.
    """
    for module, attr, *rest in table:
        owner = package
        for part in module.split("."):
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is not None:
            yield (owner, attr, original, *rest)


@contextmanager
def _replaced(replacements):
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def traced(package, tracer: Tracer):
    """Context in which every SPANS target records into `tracer`."""
    return _replaced([(owner, attr, tracer.wrap(name, original, work))
                      for owner, attr, original, name, work in _targets(package, SPANS)])


def counted(package, counts: dict):
    """Context in which every COUNTED target adds its calls to `counts`."""

    def counter(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for _, _, name in COUNTED:
        counts.setdefault(name, 0)
    return _replaced([(owner, attr, counter(name, original))
                      for owner, attr, original, name in _targets(package, COUNTED)])


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics of one traced run, from Tracer.totals()."""

    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    def rate(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def module_s(prefix):
        return sum(t["s"] for name, t in totals.items() if name.startswith(prefix))

    wall = sum(t["s"] for t in totals.values())
    sampling = [n for n in totals if n.startswith("sampling.")]
    checks = ("core.check_axioms", "core.check_symmetry", "core.check_triangle_inequality")
    m = {
        "cli.materialize_config.s": get("cli.materialize_config"),
        "cli.self_s": get(ROOT_SPAN),
        "sampling.s": module_s("sampling."),
        "sampling.entries": sum(get(n, "entries") for n in sampling),
        "spaces.build_s": module_s("spaces."),
        "core.s": module_s("core."),
        "core.check_axioms.s": get("core.check_axioms"),
        "core.check_axioms.entries": get("core.check_axioms", "entries"),
        "core.check_axioms.us_per_entry": rate(get("core.check_axioms"),
                                               get("core.check_axioms", "entries"), 1e6),
        "core.check_symmetry.s": get("core.check_symmetry"),
        "core.check_triangle_inequality.s": get("core.check_triangle_inequality"),
        "core.violations": sum(get(n, "violations") for n in checks),
        "zamfirescu.s": module_s("zamfirescu."),
        "zamfirescu.classify.s": get("zamfirescu.classify"),
        "zamfirescu.classify.us_per_pair": rate(get("zamfirescu.classify"),
                                                get("zamfirescu.classify", "pairs"), 1e6),
        "zamfirescu.contraction.s": get("zamfirescu.contraction"),
        "zamfirescu.nonbanach_pairs": get("zamfirescu.classify", "nonbanach"),
        "solver.s": module_s("solver."),
        "solver.picard_run.s": get("solver.picard_run"),
        "solver.picard_run.steps": get("solver.picard_run", "steps"),
        "solver.picard_run.steps_per_s": rate(get("solver.picard_run", "steps"),
                                              get("solver.picard_run")),
        "solver.verify_decay.s": get("solver.verify_decay"),
        "solver.verify_cauchy.s": get("solver.verify_cauchy"),
        "solver.verify_cauchy.pairs": get("solver.verify_cauchy", "pairs"),
        "solver.verify_cauchy.pairs_per_s": rate(get("solver.verify_cauchy", "pairs"),
                                                 get("solver.verify_cauchy")),
        "solver.uniqueness_probe.s": get("solver.uniqueness_probe"),
        "solver.uniqueness_probe.runs": get("solver.uniqueness_probe", "runs"),
    }
    m["core.share"] = rate(m["core.s"], wall)
    m["core.check_axioms.share"] = rate(m["core.check_axioms.s"], wall)
    m["zamfirescu.share"] = rate(m["zamfirescu.s"], wall)
    m["solver.verify_cauchy.share"] = rate(m["solver.verify_cauchy.s"], wall)
    return m


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if ".us_per_" in metric:
        return "us"
    if metric.endswith(".share"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def median_metrics(runs: list[dict]) -> dict:
    """Metric-wise (low) median over several runs' metric dicts."""
    return {k: statistics.median_low(r[k] for r in runs) for k in runs[0]}
