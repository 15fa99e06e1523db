"""Memory held on a finite carrier, where the pair set has n² entries.

Every pair of an n-point carrier is checked, so a second full-size copy of
anything on that path grows with n².  These tests pin that each object is
held once: a pair sweep reads its set block by block and keeps no index
array of it, the certificate keeps branch counts and no per-pair data, and
a lifted config table is one read-only float array, which the config and
the space share, read from an array by one copy.  The table is a line at
positions 1.01^i, as in the CLI's 1,000-point smoke run.

A Picard trace is held once too: `verify` makes each start's run as the
uniqueness probe reads it, a trace's CSV is written in blocks of at
most `core.BLOCK` rows, and its envelope table is its two columns.
"""

import json
import tracemalloc

import numpy as np
import pytest

from ametric_fix import (
    MapSpec,
    check_symmetry,
    classify,
    make_map,
    pair_samples,
    table_space,
    verify_contraction_inequalities,
)
from ametric_fix import StopRule, cli, make_absdiff_space, picard_run
from ametric_fix.solver import PicardTrace
from ametric_fix.cli import build_space, materialize_config
from ametric_fix.spaces import read_table
from ametric_fix.sampling import ProductSet

N = 600
MIB = 1024 * 1024


def line_rows(n):
    pts = [1.01 ** i for i in range(n)]
    return [[abs(a - b) for b in pts] for a in pts]


@pytest.fixture(scope="module")
def line():
    """The N-point line at t = 3, its step towards index 0, and its pair set."""
    space = table_space(3, line_rows(N))
    f = make_map(MapSpec.of("finite-table", images=[max(i - 1, 0) for i in range(N)]), space)
    return space, f, pair_samples(space, 1, 0)


def traced(fn):
    """``fn()``'s result, the tracemalloc peak while it ran, and the memory it
    left allocated, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, after - before


def test_pair_sweeps_hold_one_block_of_the_pair_set(line):
    # The set's full (N², 2) index array alone would be 5.5 MiB.
    space, f, pairs = line
    assert type(pairs) is ProductSet and len(pairs) == N * N
    report, peak, _ = traced(lambda: check_symmetry(space, pairs))
    assert report.passed and report.checked == N * N
    assert peak < 2 * MIB
    report, peak, _ = traced(lambda: verify_contraction_inequalities(space, f, 0.5, pairs))
    assert report.checked == 2 * N * N
    assert peak < 2 * MIB
    assert vars(pairs) == {"n": N, "width": 2}  # no array left on the set


def test_certificate_holds_no_per_pair_data(line):
    space, f, pairs = line
    cert, _, left = traced(lambda: classify(space, f, pairs))
    assert sum(cert.branch_counts.values()) == cert.n_pairs == N * N
    assert vars(cert).keys() == cert.to_dict().keys()
    assert len(cert.witnesses) <= 100
    assert left < 256 * 1024  # one Python int per pair would be 2.7 MiB
    assert vars(pairs) == {"n": N, "width": 2}


def test_build_space_leaves_only_the_table_array():
    raw = {"space": {"kind": "lifted", "t": 3, "base_table": line_rows(N)},
           "map": {"kind": "identity"}, "sampling": {"seed": 0}}

    def lift():
        cfg = materialize_config(raw, "line")
        return cfg, build_space(cfg)

    (cfg, space), _, left = traced(lift)
    # One float array, 2.7 MiB: no Python rows (4 times that) and no second array.
    array = N * N * 8
    assert array <= left < array + 64 * 1024
    table = cfg["space"]["base_table"]
    assert type(table) is np.ndarray and table.shape == (N, N) and table.dtype == float
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 1] = 0.0
    assert space.rep_fn(N - 1, 0) == 2 * table[N - 1, 0] == 2 * raw["space"]["base_table"][N - 1][0]


@pytest.mark.parametrize("dtype", [float, np.int64])
def test_read_table_copies_an_array_once(dtype):
    # An array is read with one copy.  Through its Python rows, as it once
    # was, the read peaked at 5.1 (float) and 2.5 (int) times its bytes.
    table = np.array(line_rows(N)).astype(dtype)
    arr, peak, left = traced(lambda: read_table(table))
    assert peak < 2 * table.nbytes
    assert arr.dtype == float and np.array_equal(arr, table)
    assert not arr.flags.writeable and not np.shares_memory(arr, table)


def test_verify_holds_one_start_run_at_a_time(tmp_path):
    # 200 starts of a slow contraction, each run about 2,800 steps of about
    # 170 KiB: all of them alive at once made a 34 MiB peak; the main trace,
    # one start's run and one CSV block peak at 2 MiB.
    raw = {"space": {"kind": "absdiff", "t": 3, "d": 1}, "map": {"kind": "linear-scale", "lam": 0.99},
           "sampling": {"seed": 0, "n_tuples": 50, "n_pairs": 50, "n_triples": 50, "n_starts": 200},
           "tolerances": {"eps": 1e-12}, "solver": {"x0": 90}}
    cfg = materialize_config(raw, "starts")
    code, peak, _ = traced(lambda: cli.run(cfg, str(tmp_path), "verify", str(tmp_path / "cfg.json")))
    assert code == 0
    info = json.loads((tmp_path / "report.json").read_text())["uniqueness"]["info"]
    assert info["n_starts"] == info["n_converged"] == 201
    assert peak < 8 * MIB


def test_trace_csv_is_written_one_block_at_a_time(tmp_path):
    # The steep-piece map cycles, so its run goes to max_iter: 100,000 rows,
    # 3.4 MiB of text.  Its rows and their text held whole peaked at 18 MiB;
    # a block of BLOCK rows, at 1 MiB.  The envelope is built first, as the
    # report's trace summary builds it before the CLI writes the CSV.
    space = make_absdiff_space(3, 1, (-100.0, 100.0))
    steep = MapSpec.of("piecewise", breakpoints=[-0.005, 0.005], pieces=[[0.5, 0], [5, 0], [0.5, 0]])
    trace = picard_run(space, make_map(steep, space), 7.0, 0.5, StopRule(max_iter=100_000))
    assert trace.status == "max_iter" and len(trace.steps) == 100_000
    trace.summary_dict()
    path = tmp_path / "trace.csv"
    _, peak, _ = traced(lambda: cli._write({"csv_path": path}, "csv_path", trace.csv_blocks()))
    assert path.read_text() == trace.to_csv()
    assert peak < 4 * MIB


def test_envelope_holds_its_two_columns_and_no_temporary():
    # The columns delta^n * d0 and tail(n), one float each per step plus one.
    # The tail column built through two full-size temporaries peaked at three.
    n = 100_000
    trace = PicardTrace(iterates=(0.0,) * (n + 1), steps=(1.0,) * n, delta=0.5, d0=1.0, t=3,
                        status="max_iter", limit=None)
    columns, peak, _ = traced(lambda: trace.envelope)
    assert [len(c) for c in columns] == [n + 1, n + 1]
    assert peak < 2.25 * 8 * (n + 1)
