"""Seeded, reproducible sample sets for the empirical checks.

Every sample set is derived from an explicit 64-bit seed through a
counter-based generator (Philox keyed by ``(seed, stream)``), so the same
seed reproduces the same points bit for bit regardless of how many other
draws happened elsewhere.  Degenerate entries (all-equal and two-equal
tuples) are always injected next to the random draws: zero-distance cases
are measure-zero under random sampling and would otherwise go untested.
Small finite carriers are enumerated exhaustively instead of sampled.

Points are drawn as the carrier's point array, which a drawn set keeps next
to its Python entries for the sweeps to read (see ``core._blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

import numpy as np

from .errors import UsageError

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
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise UsageError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise UsageError(f"seed must fit in 64 bits, got {seed}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SampleSet:
    """A reproducible batch of sample entries.

    ``entries`` holds point tuples for the tuple/pair/triple kinds and bare
    points for the ``starts`` kind.  ``points`` holds the entries of a drawn
    tuple, pair or triple set as one read-only array of shape (n, width, ...)
    in ``carrier.array``'s format; it is None for ``starts`` and for
    :meth:`from_entries` sets.
    """

    kind: str
    entries: tuple = field(repr=False)
    seed: int | None = None
    exhaustive: bool = False
    points: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator:
        return iter(self.entries)

    @staticmethod
    def from_entries(kind: str, entries, exhaustive: bool = False) -> "SampleSet":
        return SampleSet(kind=kind, entries=tuple(entries), seed=None, exhaustive=exhaustive)


def _exhaustive_ok(carrier, width: int) -> bool:
    return carrier.finite and carrier.size <= EXHAUSTIVE_POINTS and width <= EXHAUSTIVE_ARITY + 1


def _draw(carrier, kind: str, n: int, seed: int, stream: int, patterns: list,
          exhaustive: bool) -> SampleSet:
    """A set of ``len(patterns[0])``-point entries: every index tuple in
    ``itertools.product`` order, or ``n`` random entries and then, for each of
    ``_N_DEGENERATE`` groups of base points, one entry per index pattern."""
    width = len(patterns[0])
    if exhaustive:
        points = carrier.array(np.indices((carrier.size,) * width).ravel()).reshape(width, -1).T
        entries = tuple(product(range(carrier.size), repeat=width))
    else:
        if n < 1:
            raise UsageError(f"{kind[:-1]}_samples needs n >= 1")
        rng = philox(seed, stream)
        drawn = carrier.sample(rng, n * width)
        base = carrier.sample(rng, (np.max(patterns) + 1) * _N_DEGENERATE)
        shape = base.shape[1:]
        groups = base.reshape((_N_DEGENERATE, -1) + shape)
        points = np.concatenate((drawn.reshape((n, width) + shape),
                                 groups[:, patterns].reshape((-1, width) + shape)))
        flat = iter(carrier.points(points.reshape((-1,) + shape)))
        entries = tuple(zip(*[flat] * width))
    points.flags.writeable = False
    return SampleSet(kind, entries, seed, exhaustive, points)


def axiom_samples(space, n: int, seed: int, stream: int = STREAM_AXIOMS) -> SampleSet:
    """Tuples of ``t`` points plus a pivot, for the three defining laws."""
    t = space.t
    # From base points x, y, z: all-equal, all-equal but the pivot, two-equal.
    patterns = [[0] * (t + 1), [0] * t + [1], [0] + [1] * (t - 1) + [2]]
    return _draw(space.carrier, "axioms", n, seed, stream, patterns,
                 _exhaustive_ok(space.carrier, t + 1))


def pair_samples(space, n: int, seed: int, stream: int = STREAM_PAIRS) -> SampleSet:
    """Ordered point pairs; exhaustive on finite carriers."""
    return _draw(space.carrier, "pairs", n, seed, stream, [[0, 0]], space.carrier.finite)


def triple_samples(space, n: int, seed: int) -> SampleSet:
    patterns = [[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0]]
    return _draw(space.carrier, "triples", n, seed, STREAM_TRIPLES, patterns,
                 _exhaustive_ok(space.carrier, 3))


def start_samples(space, n: int, seed: int) -> SampleSet:
    """Starting points for multi-start runs; every point on finite carriers."""
    carrier = space.carrier
    if carrier.finite:
        return SampleSet(kind="starts", entries=tuple(range(carrier.size)), seed=seed, exhaustive=True)
    if n < 1:
        raise UsageError("start_samples needs n >= 1")
    rng = philox(seed, STREAM_STARTS)
    return SampleSet(kind="starts", entries=tuple(carrier.points(carrier.sample(rng, n))), seed=seed)
