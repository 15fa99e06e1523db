"""Pinned sample draws: the exact points a fixed seed produces.

The determinism tests elsewhere compare two runs of the same code, so a
rewrite of point generation could change every draw without failing them.
These values pin the first random entry and the last injected degenerate
entry (drawn after the random ones, from the same stream) of the axiom and
pair sample sets on a 1-d box, a 4-d box and a sampled finite carrier.
Each drawn set's point array must hold its entries, bit for bit, in the
carrier's array format.
"""

from itertools import chain, product

import numpy as np
import pytest

from ametric_fix import (
    CarrierDomainError,
    UsageError,
    axiom_samples,
    make_absdiff_space,
    pair_samples,
    start_samples,
    table_space,
    triple_samples,
)
from ametric_fix import sampling
from ametric_fix.sampling import ProductSet, SampleSet

SEED = 2024
LINE = [0, 1, 3, 4, 7, 9]


GOLDEN = {
    "absdiff-d1": (
        lambda: make_absdiff_space(3),
        (34, False),
        (-89.93278186910311, -35.68894733140992, 38.415531649745674, 65.0182804638815),
        (-9.670692540592455, 31.763377851657737, 31.763377851657737, -64.88141889340616),
        (18, False),
        (98.53121916564572, -81.4086058808113),
        (73.58851634446455, 73.58851634446455),
    ),
    "absdiff-d4": (
        lambda: make_absdiff_space(3, d=4),
        (34, False),
        ((-89.93278186910311, -35.68894733140992, 38.415531649745674, 65.0182804638815),
         (53.91318289952619, -43.84152743307801, 75.2660379623442, 9.762505513537079),
         (85.67110262372637, 24.473047903973892, 93.26953375871886, 59.86164968091961),
         (-99.26439316364906, -15.61051718462177, -14.077760997584349, 48.925069681330456)),
        ((-17.25834986412454, -15.508373237261864, -8.143065566182798, 69.87432488744386),
         (70.02161469899684, -73.83946622582229, -15.591531207925868, 16.158798119693003),
         (70.02161469899684, -73.83946622582229, -15.591531207925868, 16.158798119693003),
         (42.38279403953956, 36.420320674656864, -49.769526919028536, 5.898644971592532)),
        (18, False),
        ((98.53121916564572, -81.4086058808113, -19.92741662192448, 47.25242837490353),
         (0.9478047020493392, 0.23177287566365123, 84.7724115293025, 82.84369743359855)),
        ((-41.09530350001771, -33.40501611753912, -47.55475844809318, 4.500489725471638),
         (-41.09530350001771, -33.40501611753912, -47.55475844809318, 4.500489725471638)),
    ),
    "table-t5": (
        # t + 1 = 6 points per axiom entry is past the exhaustive arity, so
        # the finite carrier is sampled; pairs are always enumerated.
        lambda: table_space(5, [[abs(a - b) for b in LINE] for a in LINE]),
        (34, False),
        (1, 0, 5, 1, 2, 4),
        (3, 5, 5, 5, 5, 5),
        (36, True),
        (0, 0),
        (5, 5),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_axiom_samples_are_pinned(name):
    make_space, shape, first, last, *_ = GOLDEN[name]
    samples = axiom_samples(make_space(), 10, SEED)
    assert (len(samples), samples.exhaustive) == shape
    assert samples.entries[0] == first
    assert samples.entries[-1] == last


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pair_samples_are_pinned(name):
    make_space, *_, shape, first, last = GOLDEN[name]
    samples = pair_samples(make_space(), 10, SEED)
    assert (len(samples), samples.exhaustive) == shape
    assert samples.entries[0] == first
    assert samples.entries[-1] == last


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pinned_points_have_carrier_types(name):
    """Draws are plain Python numbers, so reports serialise them unchanged."""
    space = GOLDEN[name][0]()
    entry = axiom_samples(space, 10, SEED).entries[0]
    kind = int if space.carrier.finite else float
    assert all(type(c) is kind for p in entry for c in (p if isinstance(p, tuple) else (p,)))


CARRIERS = {
    "box-d1": lambda: make_absdiff_space(3),
    "box-d4": lambda: make_absdiff_space(3, d=4),
    "table-sampled": lambda: table_space(5, [[abs(a - b) for b in LINE] for a in LINE]),
    "table-exhaustive": lambda: table_space(3, [[abs(a - b) for b in LINE] for a in LINE]),
}


@pytest.mark.parametrize("sampler", [axiom_samples, pair_samples, triple_samples])
@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_points_are_the_carrier_array_of_the_entries(name, sampler):
    """A set's point array holds its entries, bit for bit, in the carrier's array format."""
    space = CARRIERS[name]()
    samples = sampler(space, 10, SEED)
    expected = space.carrier.array(chain.from_iterable(samples.entries))
    assert samples.points.shape[:2] == (len(samples), len(samples.entries[0]))
    assert samples.points.dtype == expected.dtype
    assert samples.points.tobytes() == expected.tobytes()
    assert not samples.points.flags.writeable
    # Equal values of equal types: repr tells a numpy scalar from a Python one.
    assert all(samples.entry(i) == entry and repr(samples.entry(i)) == repr(entry)
               for i, entry in enumerate(samples.entries))


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_start_points_are_carrier_points(name):
    space = CARRIERS[name]()
    starts = start_samples(space, 10, SEED)
    kind = int if space.carrier.finite else float
    assert all(type(c) is kind for p in starts for c in (p if isinstance(p, tuple) else (p,)))
    assert len(starts) == (len(LINE) if space.carrier.finite else 10)
    assert all(starts.entry(i) == p and repr(starts.entry(i)) == repr(p)
               for i, p in enumerate(starts.entries))
    assert space.carrier.array(starts.entries).tobytes() == starts.points.tobytes()
    assert not starts.points.flags.writeable


def test_given_entries_are_validated_when_the_set_is_made():
    space = make_absdiff_space(3, box=(-1.0, 1.0))
    made = SampleSet.from_entries(space, [(0, 0.5), ((0.25,), -1.0)], exhaustive=True)
    assert made.points.dtype == float and made.points.tolist() == [[0.0, 0.5], [0.25, -1.0]]
    assert made.exhaustive and not made.points.flags.writeable
    assert made.entries == ((0.0, 0.5), (0.25, -1.0))
    # canon's error, for the first bad point in entry order.
    with pytest.raises(CarrierDomainError) as err:
        SampleSet.from_entries(space, [(0.0, 0.5), (0.5, 3.0), (2.0, 0.0)])
    assert (str(err.value), err.value.point) == ("point 3.0 outside carrier box", 3.0)
    for entries in ([(0.0, 0.5), (0.5,)], [(0.0, 0.5), [0.5, 0.0]], [0.5]):
        with pytest.raises(UsageError, match="entries must be tuples of equally many points"):
            SampleSet.from_entries(space, entries)


def test_an_empty_set_has_no_width():
    assert SampleSet.from_entries(make_absdiff_space(3), []).points.shape == (0, 0)


def test_stream_ids_are_distinct():
    streams = [v for k, v in vars(sampling).items() if k.startswith("STREAM_")]
    assert len(streams) == len(set(streams)) == 7


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_seeds_and_streams_take_64_bits(seed):
    space = make_absdiff_space(3)
    assert len(pair_samples(space, 2, seed, stream=seed)) == 2 + 8
    for bad in (-1, 2 ** 64):
        with pytest.raises(UsageError, match=f"seed must be .*, got {bad}$"):
            pair_samples(space, 2, bad)
        with pytest.raises(UsageError, match=f"stream must be .*, got {bad}$"):
            pair_samples(space, 2, seed, stream=bad)


@pytest.mark.parametrize("draw, degenerate", [
    (axiom_samples, 8 * 3), (pair_samples, 8), (triple_samples, 8 * 4), (start_samples, 0)])
def test_a_sample_count_is_at_least_one(draw, degenerate):
    space = make_absdiff_space(3)
    assert len(draw(space, 1, SEED)) == 1 + degenerate
    with pytest.raises(UsageError, match=f"^{draw.__name__} n must be >= 1, got 0$"):
        draw(space, 0, SEED)


def test_degenerate_entries_follow_their_patterns():
    # After the n random entries, each of the 8 groups of base points x, y(, z)
    # gives one entry per pattern, in pattern order.
    space, n = make_absdiff_space(3), 5
    axioms = axiom_samples(space, n, SEED).entries[n:]
    assert len(axioms) == 8 * 3
    for g in range(8):
        group = axioms[3 * g:3 * g + 3]
        x, y, z = group[0][0], group[1][-1], group[2][-1]
        assert len({x, y, z}) == 3
        assert group == ((x, x, x, x), (x, x, x, y), (x, y, y, z))
    triples = triple_samples(space, n, SEED).entries[n:]
    assert len(triples) == 8 * 4
    for g in range(8):
        group = triples[4 * g:4 * g + 4]
        x, y = group[0][0], group[1][-1]
        assert x != y
        assert group == ((x, x, x), (x, x, y), (x, y, y), (x, y, x))


@pytest.mark.parametrize("size, exhaustive", [(12, True), (13, False)])
def test_triples_are_enumerated_up_to_12_points(size, exhaustive):
    space = table_space(3, [[abs(a - b) for b in range(size)] for a in range(size)])
    triples = triple_samples(space, 5, SEED)
    assert triples.exhaustive is exhaustive
    assert len(triples) == (size ** 3 if exhaustive else 5 + 8 * 4)


def product_grid(n, width):
    """Every width-tuple of 0..n-1 in product order, as the intp array the
    exhaustive draw held before it was described by its shape."""
    return np.array(list(product(range(n), repeat=width)), dtype=np.intp).reshape(-1, width)


@pytest.mark.parametrize("width", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 12])
def test_product_set_reads_the_grid(n, width):
    grid = product_grid(n, width)
    made = ProductSet(n, width)
    assert len(made) == n ** width == len(grid) and made.exhaustive
    assert "points" not in vars(made)  # built on the first read only
    points = made.points
    assert (points.dtype, points.shape) == (grid.dtype, grid.shape)
    assert points.tobytes() == grid.tobytes() and not points.flags.writeable
    assert made.points is points
    entries = tuple(map(tuple, grid.tolist()))
    assert made.entries == entries and repr(made.entries) == repr(entries)
    assert list(made) == list(entries)
    rng = np.random.default_rng(n * width)
    for i in [0, len(grid) - 1, -1, -len(grid)] + rng.integers(0, len(grid), 20).tolist():
        assert made.entry(i) == entries[i] and repr(made.entry(i)) == repr(entries[i])
    assert made.entry(np.int64(len(grid) - 1)) == entries[-1]
    for i in (len(grid), -len(grid) - 1):
        with pytest.raises(IndexError):
            made.entry(i)


@pytest.mark.parametrize("sampler, width", [
    (lambda s: axiom_samples(s, 10, SEED), 4),
    (lambda s: pair_samples(s, 10, SEED), 2),
    (lambda s: triple_samples(s, 10, SEED), 3),
])
def test_enumerated_sets_are_product_sets(sampler, width):
    space = table_space(3, [[abs(a - b) for b in LINE] for a in LINE])
    made = sampler(space)
    assert type(made) is ProductSet and (made.n, made.width) == (len(LINE), width)
