"""Seeded, reproducible sample sets for the empirical checks.

Every sample set is derived from an explicit 64-bit seed through a
counter-based generator (Philox keyed by ``(seed, stream)``), so the same
seed reproduces the same points bit for bit regardless of how many other
draws happened elsewhere.  Degenerate entries (all-equal and two-equal
tuples) are always injected next to the random draws: zero-distance cases
are measure-zero under random sampling and would otherwise go untested.
Small finite carriers are enumerated exhaustively instead of sampled.
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
    points for the ``starts`` kind.
    """

    kind: str
    entries: tuple = field(repr=False)
    seed: int | None = None
    exhaustive: bool = False

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator:
        return iter(self.entries)

    @staticmethod
    def from_entries(kind: str, entries, exhaustive: bool = False) -> "SampleSet":
        return SampleSet(kind=kind, entries=tuple(entries), seed=None, exhaustive=exhaustive)


def _exhaustive_ok(carrier, width: int) -> bool:
    return carrier.finite and carrier.size <= EXHAUSTIVE_POINTS and width <= EXHAUSTIVE_ARITY + 1


def axiom_samples(space, n: int, seed: int, stream: int = STREAM_AXIOMS) -> SampleSet:
    """Tuples of ``t`` points plus a pivot, for the three defining laws."""
    t = space.t
    carrier = space.carrier
    if _exhaustive_ok(carrier, t + 1):
        entries = tuple(product(range(carrier.size), repeat=t + 1))
        return SampleSet(kind="axioms", entries=entries, seed=seed, exhaustive=True)
    if n < 1:
        raise UsageError("axiom_samples needs n >= 1")
    rng = philox(seed, stream)
    flat = carrier.sample(rng, n * (t + 1))
    entries = [tuple(flat[i * (t + 1):(i + 1) * (t + 1)]) for i in range(n)]
    base = carrier.sample(rng, 3 * _N_DEGENERATE)
    for k in range(_N_DEGENERATE):
        x, y, z = base[3 * k], base[3 * k + 1], base[3 * k + 2]
        entries.append((x,) * (t + 1))            # all-equal, pivot equal
        entries.append((x,) * t + (y,))           # all-equal, distinct pivot
        entries.append((x,) + (y,) * (t - 1) + (z,))  # two-equal
    return SampleSet(kind="axioms", entries=tuple(entries), seed=seed)


def pair_samples(space, n: int, seed: int, stream: int = STREAM_PAIRS) -> SampleSet:
    """Ordered point pairs; exhaustive on finite carriers."""
    carrier = space.carrier
    if carrier.finite:
        entries = tuple(product(range(carrier.size), repeat=2))
        return SampleSet(kind="pairs", entries=entries, seed=seed, exhaustive=True)
    if n < 1:
        raise UsageError("pair_samples needs n >= 1")
    rng = philox(seed, stream)
    flat = carrier.sample(rng, 2 * n)
    entries = [(flat[2 * i], flat[2 * i + 1]) for i in range(n)]
    base = carrier.sample(rng, _N_DEGENERATE)
    entries.extend((x, x) for x in base)
    return SampleSet(kind="pairs", entries=tuple(entries), seed=seed)


def triple_samples(space, n: int, seed: int) -> SampleSet:
    carrier = space.carrier
    if _exhaustive_ok(carrier, 3):
        entries = tuple(product(range(carrier.size), repeat=3))
        return SampleSet(kind="triples", entries=entries, seed=seed, exhaustive=True)
    if n < 1:
        raise UsageError("triple_samples needs n >= 1")
    rng = philox(seed, STREAM_TRIPLES)
    flat = carrier.sample(rng, 3 * n)
    entries = [(flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]) for i in range(n)]
    base = carrier.sample(rng, 2 * _N_DEGENERATE)
    for k in range(_N_DEGENERATE):
        x, y = base[2 * k], base[2 * k + 1]
        entries.append((x, x, x))
        entries.append((x, x, y))
        entries.append((x, y, y))
        entries.append((x, y, x))
    return SampleSet(kind="triples", entries=tuple(entries), seed=seed)


def start_samples(space, n: int, seed: int) -> SampleSet:
    """Starting points for multi-start runs; every point on finite carriers."""
    carrier = space.carrier
    if carrier.finite:
        return SampleSet(kind="starts", entries=tuple(range(carrier.size)), seed=seed, exhaustive=True)
    if n < 1:
        raise UsageError("start_samples needs n >= 1")
    rng = philox(seed, STREAM_STARTS)
    return SampleSet(kind="starts", entries=tuple(carrier.sample(rng, n)), seed=seed)
