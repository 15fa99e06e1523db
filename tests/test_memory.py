"""Memory held on a finite carrier, where the pair set has n² entries.

Every pair of an n-point carrier is checked, so a second full-size copy of
anything on that path grows with n².  These tests pin that each object is
held once: a pair sweep reads its set block by block and keeps no index
array of it, the certificate keeps branch counts and no per-pair data, and
a lifted config table is the config's rows plus one flat array.  The table
is a line at positions 1.01^i, as in the CLI's 1,000-point smoke run.
"""

import tracemalloc

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
from ametric_fix.cli import build_space, materialize_config
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
    cfg = materialize_config({"space": {"kind": "lifted", "t": 3, "base_table": line_rows(N)},
                              "map": {"kind": "identity"}, "sampling": {"seed": 0}}, "line")
    space, _, left = traced(lambda: build_space(cfg))
    # The flat float array, 2.7 MiB, and no second copy of the rows.
    array = N * N * 8
    assert array <= left < array + 64 * 1024
    rows = cfg["space"]["base_table"]
    assert space.rep_fn(N - 1, 0) == 2 * rows[N - 1][0]
