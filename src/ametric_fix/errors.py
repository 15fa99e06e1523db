"""Exception types shared across the package, and the checks of values that
enter it from outside.

Every public function and constructor checks its counts and reals with
:func:`integer` and :func:`finite_real`, and a carrier converts its points
with :func:`real`; each raises :class:`UsageError` with one wording:
``<what> must be <rule>, got <value!r>``.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np


class AMetricError(Exception):
    """Base class for every error raised by this package."""


class UsageError(AMetricError):
    """Invalid arguments, malformed configuration, or API misuse."""


class CarrierDomainError(AMetricError):
    """A point (or a Picard iterate) fell outside the space's carrier."""

    def __init__(self, message: str, point=None, index: int | None = None):
        super().__init__(message)
        self.point = point
        self.index = index


class ConstructionError(AMetricError):
    """A gated construction failed; carries the offending witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def integer(value, what: str, minimum: int | None = None,
            maximum: int | None = sys.maxsize) -> int:
    """``value`` as a Python int: what ``operator.index`` takes (numpy integers
    too) but a bool, within [minimum, maximum].  The default maximum, the
    largest array index, keeps counts and arities usable in float arithmetic."""
    try:
        if isinstance(value, (bool, np.bool_)):  # operator.index takes a bool as 0 or 1
            raise TypeError
        v = operator.index(value)
    except TypeError:
        raise UsageError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and v < minimum:
        raise UsageError(f"{what} must be >= {minimum}, got {value!r}")
    if maximum is not None and v > maximum:
        raise UsageError(f"{what} must be <= {maximum}, got {value!r}")
    return v


def real(value, what: str) -> float:
    """``value`` as a float, but not a bool or a string.  NaN and ±inf pass,
    and an integer beyond the float range is ±inf: what to do with a value
    that is not finite is the caller's rule."""
    try:
        if isinstance(value, (bool, np.bool_, str, bytes, bytearray)):  # float() would take each
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be a real number, got {value!r}") from None
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def finite_real(value, what: str, minimum: float | None = None, strict: bool = False) -> float:
    """``value`` as a finite float by :func:`real`'s rule, at least ``minimum``
    (above it when ``strict``).  An integer beyond the float range is not
    finite."""
    v = real(value, what)
    if not math.isfinite(v):
        raise UsageError(f"{what} must be finite, got {value!r}")
    if minimum is not None and (v <= minimum if strict else v < minimum):
        raise UsageError(f"{what} must be {'>' if strict else '>='} {minimum}, got {value!r}")
    return v
