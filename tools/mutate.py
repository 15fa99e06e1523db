"""Mutation testing for one module of the package, with the standard library only.

    python3 tools/mutate.py src/ametric_fix/core.py [--tests PATH ...]

Each mutant changes one spot of the module's syntax tree:

- a comparison operator: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``
  are swapped for each other;
- a numeric constant: an int ``c`` becomes ``c + 1``, a float ``c`` becomes
  ``10 * c`` (``0.0`` becomes ``1.0``).

For each mutant the module is written back with ``ast.unparse`` into a copy
of ``src/`` and ``tests/`` in a new temporary directory, never into the
checkout, and the test files run there with ``pytest -x``.  The directory
is removed at the end.  A mutant is killed when the tests fail or overrun
``TIMEOUT`` seconds, and survives when they pass.  The tests are
the module's own test file, ``tests/test_<module>.py``, unless ``--tests``
names others (a directory runs every test file under it).  The unmutated
copy must pass first.  The last lines list the survivors: each one is either
equivalent to the original or a gap in the tests.  SIGTERM ends the run as
an exit does: the running pytest is killed and the directory removed.

A full run costs one test run per mutant, so the script is not part of CI.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds per test run

SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}


def mutants(tree: ast.Module):
    """Every mutation site of ``tree`` as ``(line, description, apply)``; ``apply()``
    changes the tree in place and returns a function that undoes the change."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAP:
                    sites.append((node.lineno, f"{SYMBOL[type(op)]} -> {SYMBOL[SWAP[type(op)]]}",
                                  _swap_op(node, k)))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            new = node.value + 1 if type(node.value) is int else (node.value * 10 or 1.0)
            sites.append((node.lineno, f"{node.value!r} -> {new!r}", _set_const(node, new)))
    return sorted(sites, key=lambda site: site[0])


def _swap_op(node: ast.Compare, k: int):
    def apply():
        old = node.ops[k]
        node.ops[k] = SWAP[type(old)]()
        return lambda: node.ops.__setitem__(k, old)
    return apply


def _set_const(node: ast.Constant, value):
    def apply():
        old = node.value
        node.value = value
        return lambda: setattr(node, "value", old)
    return apply


def run_tests(workdir: Path, tests: list[str]) -> tuple[bool, str]:
    """Run ``tests`` in ``workdir``; (passed, last line of the pytest output)."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT:g} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode == 0, lines[-1] if lines else f"exit {done.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module to mutate, under src/")
    parser.add_argument("--tests", nargs="+", help="test files or directories (relative to the "
                        "repository root); default tests/test_<module>.py")
    args = parser.parse_args(argv)

    module = Path(args.module).resolve()
    rel = module.relative_to(ROOT)
    tests = args.tests or [f"tests/test_{module.stem}.py"]
    tree = ast.parse(module.read_text(encoding="utf-8"))
    sites = mutants(tree)

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        workdir = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, workdir / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        target = workdir / rel
        passed, summary = run_tests(workdir, tests)
        if not passed:
            print(f"the unmutated tests do not pass: {summary}", file=sys.stderr)
            return 2
        print(f"{len(sites)} mutants of {rel}, tests: {' '.join(tests)}", flush=True)

        survivors = []
        for number, (line, what, apply) in enumerate(sites, 1):
            undo = apply()
            target.write_text(ast.unparse(tree) + "\n", encoding="utf-8")
            undo()
            start = time.perf_counter()
            passed, summary = run_tests(workdir, tests)
            verdict = "SURVIVED" if passed else "killed"
            print(f"[{number}/{len(sites)}] {verdict:8s} {rel}:{line}: {what}  "
                  f"({summary}; {time.perf_counter() - start:.1f} s)", flush=True)
            if passed:
                survivors.append(f"{rel}:{line}: {what}")
    print(f"{len(sites) - len(survivors)} of {len(sites)} mutants killed; "
          f"{len(survivors)} survived:")
    for survivor in survivors:
        print(f"  {survivor}")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
