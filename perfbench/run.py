"""Benchmark of `ametric-fix verify` on three fixed configs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The package is imported from the `src/` directory next to this one; nothing
needs installing or building.  The load is one closed-loop client: a child
process (worker.py) calls the CLI entry point in process, one verify run
after another on one workload, with no other threads.  The seed reaches the
program only as `verify --seed`.  See workloads.py for why each workload
exists and for the checks made on every run's outputs.

With `--trace 0` the end-to-end metrics are
  verify_s      median wall time of one verify run in the warm child
  checks_per_s  inequality instances checked per run (from report.json),
                divided by verify_s
  setup_s       median over fresh processes of the time from spawn until
                the config is loaded and the space and map are built
  peak_rss_mb   ru_maxrss of the child that ran the workload
where both times are taken to a reference machine speed, sample by sample
(see calibration.py; the raw wall times are printed beside them), and
fail_rate (failed runs over attempted runs) is carried by the `attempted`
and `failed` fields.  With `--trace 1` the metrics are the per-layer ones
of a traced run, in raw wall time (see tracing.py).

Lines before the last describe the environment and each metric in words.
The last line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME: {"value": ..., "unit": ...}}}
With `--workload all` (the default) every workload runs in turn and the
metric names carry the workload as a prefix.  Exits 2 without a result when
the package source is missing, 1 when a child process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibration
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 15
# Calibration passes around each set-up sample (see calibration.py); fewer
# than around a verify run, because a set-up sample is shorter.
CALIBRATION_PASSES = 3
# One workload's measurement, probes included, must end within this.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AMETRIC_FIX_LOG", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(config: Path, seed: int, timeout: float) -> float:
    """Spawn-to-ready time of one fresh setup_probe.py process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config), str(seed)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env())
    try:
        ready = select.select([proc.stdout], [], [], timeout)[0]
        line = proc.stdout.readline() if ready else b""
        elapsed = perf_counter() - start
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or code != 0:
        raise BenchError(f"setup probe failed (exit {code})")
    return elapsed


def run_worker(tmp: Path, name: str, seed: int, seconds: float, trace: int,
               timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(tmp), name, str(seed),
           str(seconds), str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload's metrics as {"attempted", "failed", "metrics", "notes", "numpy"}."""
    start = perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        config = tmp / "config.json"
        config.write_text(json.dumps(WORKLOADS[name].config))
        if not trace:
            setups = calibration.Sampler(CALIBRATION_PASSES)
            for _ in range(SETUP_PROBES):
                setups.add(setup_seconds(config, seed, DEADLINE_S - (perf_counter() - start)))
        res = run_worker(tmp, name, seed, seconds, trace, DEADLINE_S - (perf_counter() - start))
    if trace:
        metrics = {k: (v, tracing.unit(k)) for k, v in res["layers"].items()}
        notes = {"trace.overhead_s": f"traced median of {len(res['traced_s'])} runs minus "
                                     f"untraced median of {len(res['untraced_s'])}"}
    else:
        times, verify_s = res["verify_s"], res["verify_ref_s"]
        metrics = {
            "verify_s": (verify_s, "s"),
            "checks_per_s": (res["checks"] / verify_s, "1/s"),
            "setup_s": (setups.at_reference_speed(), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        notes = {
            "verify_s": f"{len(times)} runs; raw wall time min {min(times):.4f}, median "
                        f"{statistics.median(times):.4f}, max {max(times):.4f}; median speed "
                        f"factor {res['speed_factor']:.4f}",
            "checks_per_s": f"{res['checks']} checks per run",
            "setup_s": f"{len(setups.times)} fresh processes; raw median "
                       f"{statistics.median(setups.times):.4f}",
        }
    notes["fail_rate"] = f"{res['failed']} of {res['attempted']} runs failed"
    for problem in res["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    return {"attempted": res["attempted"], "failed": res["failed"], "metrics": metrics,
            "notes": notes, "numpy": res["numpy"]}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "loadavg_at_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ametric_fix" / "cli.py").is_file():
        print(f"error: package source not found at {SRC / 'ametric_fix'}", file=sys.stderr)
        return 2
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, args.trace)
            env["numpy"] = res["numpy"]
            attempted += res["attempted"]
            failed += res["failed"]
            res["metrics"]["fail_rate"] = (res["failed"] / res["attempted"], "ratio")
            for metric, (value, unit) in res["metrics"].items():
                note = res["notes"].get(metric, "")
                print(f"{name:<18} {metric:<34} {value:>14.6g} {unit:<6} {note}")
                if metric != "fail_rate":
                    key = metric if len(names) == 1 else f"{name}.{metric}"
                    metrics[key] = {"value": value, "unit": unit}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
