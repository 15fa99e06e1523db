"""Child process of run.py: one workload's verify runs, back to back, in one process.

    python3 perfbench/worker.py ROOT TMP_DIR WORKLOAD SEED SECONDS TRACE

Imports ametric_fix from ROOT/src and calls its CLI entry point in process,
as `ametric-fix verify --config TMP_DIR/config.json --seed SEED`, on the
workload's config that run.py wrote there.  Every
run's exit code and report are checked, and every repeat must reproduce
the first one's report.json and trace.csv byte for byte.  Prints one JSON
line with the timings, or with the per-layer metrics when TRACE is 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibration
import tracing
from workloads import WORKLOADS, checks_in_report, output_problems

OUTPUTS = ("report.json", "trace.csv")
MAX_PROBLEMS = 5
CALIBRATION_PASSES = 5


class Runner:
    """Runs and checks verify calls; counts attempted and failed runs."""

    def __init__(self, cli, workload, config: Path, seed: int, tmp: Path):
        self.cli = cli
        self.workload = workload
        self.config = config
        self.seed = seed
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.checks = 0
        self.report_bytes = 0

    def verify(self, main=None) -> float:
        """One verify run through `main` (default cli.main); returns its wall time."""
        out = self.tmp / f"run{self.attempted}"
        argv = ["verify", "--config", str(self.config), "--out-dir", str(out),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = (main or self.cli.main)(argv)
            elapsed = perf_counter() - start
        self._record(code, out)
        return elapsed

    def _record(self, code, out: Path):
        self.attempted += 1
        try:
            problems = output_problems(self.workload, code, out)
            if not problems:
                outputs = tuple((out / name).read_bytes() for name in OUTPUTS)
                if self.reference is None:
                    self.checks = checks_in_report(json.loads(outputs[0]))
                    self.reference = outputs
                    self.report_bytes = sum(len(b) for b in outputs)
                elif outputs != self.reference:
                    problems.append("report.json or trace.csv differs from the first repeat")
        except (OSError, KeyError, TypeError, IndexError) as err:
            problems = [f"outputs missing or malformed: {err!r}"]
        if problems:
            self.failed += 1
            message = f"run {self.attempted}: " + "; ".join(problems)
            print(message, file=sys.stderr)
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(message)
        shutil.rmtree(out, ignore_errors=True)


def timed_runs(runner: Runner, seconds: float) -> dict:
    """Untraced runs until the next one would end past `seconds` (at least two).

    Calibration passes around each run give it the speed factor of the
    machine at that time (see calibration.py).
    """
    sampler = calibration.Sampler(CALIBRATION_PASSES)
    start = perf_counter()
    while (len(sampler.times) < 2
           or perf_counter() - start + statistics.median(sampler.times) <= seconds):
        sampler.add(runner.verify())
    return {"verify_s": sampler.times, "verify_ref_s": sampler.at_reference_speed(),
            "speed_factor": statistics.median(sampler.factors)}


def traced_runs(runner: Runner, package, seconds: float) -> dict:
    """One counting run, then untraced and traced runs in turn (at least one pair)."""
    start = perf_counter()
    counts: dict = {}
    with tracing.counted(package, counts):
        runner.verify()
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    while not traced or perf_counter() - start + untraced[-1] + traced[-1] <= seconds:
        untraced.append(runner.verify())
        tracer = tracing.Tracer()
        with tracing.traced(package, tracer):
            traced.append(runner.verify(tracer.wrap(tracing.ROOT_SPAN, runner.cli.main)))
        layers.append(tracing.layer_metrics(tracer.totals()))
    metrics = tracing.median_metrics(layers)
    metrics.update(counts)
    metrics["cli.report_bytes"] = runner.report_bytes
    metrics["trace.verify_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"layers": metrics, "untraced_s": untraced, "traced_s": traced}


def main(argv: list[str]) -> int:
    root, tmp, name = Path(argv[0]), Path(argv[1]), argv[2]
    seed, seconds, trace = int(argv[3]), float(argv[4]), argv[5] == "1"
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ametric_fix
    import numpy
    from ametric_fix import cli

    if not Path(ametric_fix.__file__).resolve().is_relative_to(src):
        print(f"error: ametric_fix imported from {ametric_fix.__file__}, not {src}",
              file=sys.stderr)
        return 2
    runner = Runner(cli, WORKLOADS[name], tmp / "config.json", seed, tmp)
    result = traced_runs(runner, ametric_fix, seconds) if trace else timed_runs(runner, seconds)
    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "checks": runner.checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
