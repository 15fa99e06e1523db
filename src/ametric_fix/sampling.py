"""Seeded, reproducible sample sets for the empirical checks.

Every sample set is derived from an explicit 64-bit seed through a
counter-based generator (Philox keyed by ``(seed, stream)``), so the same
seed reproduces the same points bit for bit regardless of how many other
draws happened elsewhere.  Degenerate entries (all-equal and two-equal
tuples) are always injected next to the random draws: zero-distance cases
are measure-zero under random sampling and would otherwise go untested.
Small finite carriers are enumerated exhaustively instead of sampled.

The sweeps read every set by ``block(lo, hi)``, the point array of its
entries lo, ..., min(hi, len) - 1 (see ``core._blocks``).  A drawn or given
set holds the carrier's point array of its entries, drawn or validated once
when the set is made, and a block is a slice of it.  An enumerated set is a
:class:`ProductSet`, described by its shape alone: its entry i is the digits
of i in base n, made for one block at a time.  Both kinds are a
:class:`BlockSet`: iteration, ``entries`` and ``entry`` build Python points
from ``block``, only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import UsageError, integer

# Stream ids keep the per-purpose Philox substreams disjoint.
STREAM_AXIOMS = 1
STREAM_PAIRS = 2
STREAM_TRIPLES = 3
STREAM_STARTS = 4
STREAM_HOLDOUT = 5
STREAM_GATE = 6
STREAM_MAP_CHECK = 7

# Finite carriers at most this large (and arity at most EXHAUSTIVE_ARITY for
# full tuple sweeps) are enumerated instead of sampled.
EXHAUSTIVE_POINTS = 12
EXHAUSTIVE_ARITY = 4

_N_DEGENERATE = 8
_MASK64 = (1 << 64) - 1


def philox(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    key = np.array([integer(seed, "seed", 0, _MASK64), integer(stream, "stream", 0, _MASK64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class BlockSet:
    """A sample set: ``__len__``, ``block(lo, hi)`` and ``exhaustive``.  Its other
    reads are built from ``block``, as Python points (floats, tuples of floats or
    ints) made on each call."""

    def __iter__(self) -> Iterator:
        return iter(self.entries)

    @property
    def entries(self) -> tuple:
        return _python(self.block(0, len(self)).tolist())

    def entry(self, i: int):
        """Entry ``i`` (negative from the end), without building the others."""
        i = range(len(self))[i]
        return _python(self.block(i, i + 1).tolist())[0]


@dataclass(frozen=True, eq=False)
class SampleSet(BlockSet):
    """A reproducible batch of sample entries: point tuples, or bare points for ``starts``.

    A set holds its entries once, as ``points``: one read-only array in
    ``carrier.array``'s format, of shape (n, width, ...), or (n, ...) for
    ``starts``.
    """

    points: np.ndarray = field(repr=False)
    exhaustive: bool = False

    def __len__(self) -> int:
        return len(self.points)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """The point array of entries lo, ..., min(hi, len) - 1."""
        return self.points[lo:hi]

    @staticmethod
    def from_entries(space, entries, exhaustive: bool = False) -> "SampleSet":
        """The set of ``entries``, tuples of equally many points, validated once, here, by
        ``space.carrier.array``: a bad point raises ``canon``'s error for the first one."""
        entries = tuple(entries)
        width = len(entries[0]) if entries and isinstance(entries[0], tuple) else 0
        for entry in entries:
            if not isinstance(entry, tuple) or len(entry) != width:
                raise UsageError(f"entries must be tuples of equally many points, got {entry!r}")
        flat = space.carrier.array([p for entry in entries for p in entry])
        points = flat.reshape((len(entries), width) + flat.shape[1:])
        points.flags.writeable = False
        return SampleSet(points, exhaustive)


@dataclass(frozen=True, eq=False)
class ProductSet(BlockSet):
    """Every ``width``-tuple of the indices 0..n-1 of a finite carrier, in
    ``itertools.product`` order: entry i is the ``width`` digits of i in base n.

    Its blocks are computed from its shape, and it holds no array.  Only the
    samplers and ``core._sweep_product`` make one, for a carrier of ``n``
    points, so its indices are valid by construction.
    """

    n: int
    width: int
    exhaustive = True

    def __len__(self) -> int:
        return self.n ** self.width

    def block(self, lo: int, hi: int) -> np.ndarray:
        """The (k, width) index array of entries lo, ..., min(hi, len) - 1, entry q
        being the ``width`` digits of q in base n, made by ``divmod``; column-major."""
        q = np.arange(lo, min(hi, len(self)))
        digits = np.empty((self.width, len(q)), dtype=np.intp)
        for i in range(self.width - 1, 0, -1):
            np.divmod(q, self.n, out=(q, digits[i]))
        digits[0] = q
        return digits.T


def _python(value):
    """Entries or points from ``ndarray.tolist`` of a point array, its lists made tuples."""
    if not isinstance(value, list):
        return value
    return tuple(map(_python, value)) if value and isinstance(value[0], list) else tuple(value)


def _exhaustive_ok(carrier, width: int) -> bool:
    return carrier.finite and carrier.size <= EXHAUSTIVE_POINTS and width <= EXHAUSTIVE_ARITY + 1


def _draw(carrier, kind: str, n: int, seed: int, stream: int, patterns: list,
          exhaustive: bool) -> SampleSet | ProductSet:
    """A set of ``len(patterns[0])``-point entries: every index tuple, as a
    :class:`ProductSet`, or ``n`` random entries and then, for each of
    ``_N_DEGENERATE`` groups of base points, one entry per index pattern."""
    width = len(patterns[0])
    n = integer(n, f"{kind[:-1]}_samples n", 1)
    if exhaustive:
        return ProductSet(carrier.size, width)
    rng = philox(seed, stream)
    drawn = carrier.sample(rng, n * width)
    base = carrier.sample(rng, (np.max(patterns) + 1) * _N_DEGENERATE)
    shape = base.shape[1:]
    groups = base.reshape((_N_DEGENERATE, -1) + shape)
    points = np.concatenate((drawn.reshape((n, width) + shape),
                             groups[:, patterns].reshape((-1, width) + shape)))
    points.flags.writeable = False
    return SampleSet(points)


def axiom_samples(space, n: int, seed: int, stream: int = STREAM_AXIOMS) -> SampleSet | ProductSet:
    """Tuples of ``t`` points plus a pivot, for the three defining laws."""
    t = space.t
    # From base points x, y, z: all-equal, all-equal but the pivot, two-equal.
    patterns = [[0] * (t + 1), [0] * t + [1], [0] + [1] * (t - 1) + [2]]
    return _draw(space.carrier, "axioms", n, seed, stream, patterns,
                 _exhaustive_ok(space.carrier, t + 1))


def pair_samples(space, n: int, seed: int, stream: int = STREAM_PAIRS) -> SampleSet | ProductSet:
    """Ordered point pairs; exhaustive on finite carriers."""
    return _draw(space.carrier, "pairs", n, seed, stream, [[0, 0]], space.carrier.finite)


def triple_samples(space, n: int, seed: int) -> SampleSet | ProductSet:
    patterns = [[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0]]
    return _draw(space.carrier, "triples", n, seed, STREAM_TRIPLES, patterns,
                 _exhaustive_ok(space.carrier, 3))


def start_samples(space, n: int, seed: int) -> SampleSet:
    """Starting points for multi-start runs; every point on finite carriers."""
    carrier = space.carrier
    n = integer(n, "start_samples n", 1)
    if carrier.finite:
        points = carrier.array(np.arange(carrier.size))
    else:
        points = carrier.sample(philox(seed, STREAM_STARTS), n)
    points.flags.writeable = False
    return SampleSet(points, carrier.finite)
