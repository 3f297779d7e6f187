"""Exception types shared across the fedalign package.

Every error raised by the library derives from :class:`FedAlignError`, so
callers can catch one base class at the CLI boundary and map it to an exit
code.
"""

from __future__ import annotations

import math
import numbers


class FedAlignError(Exception):
    """Base class for all fedalign errors."""


class DimensionMismatch(FedAlignError):
    """Operands have incompatible lengths or shapes."""


class NonFiniteResult(FedAlignError):
    """An operation produced NaN or infinity."""


class EmptyBatch(FedAlignError):
    """A batch with zero rows was passed where data is required."""


class EmptyDataset(FedAlignError):
    """A dataset with zero rows was passed where data is required."""


class EmptyUpdateSet(FedAlignError):
    """An aggregation was requested over zero client updates."""


class InvalidLambda(FedAlignError):
    """Alignment strength outside the supported (0, 0.5] range."""


class InvalidSpec(FedAlignError):
    """A generation or model spec fails validation."""


class UnknownDomain(FedAlignError):
    """A domain id was requested that is not present in the suite."""


class InsufficientDomains(FedAlignError):
    """A domain suite needs at least two domains."""


class ParseError(FedAlignError):
    """A CSV cell could not be parsed.

    Carries the 1-based line number and the offending column name so the
    CLI can point at the exact cell.
    """

    def __init__(self, line: int, column: str, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column!r}: {message}")


class InconsistentDimension(FedAlignError):
    """Rows of a CSV file disagree on the feature dimension."""


class OverflowAtScale(FedAlignError):
    """A value does not fit the fixed-point codec's integer range."""


class TraceViolation(FedAlignError):
    """An encrypted-space computation used an operator outside the allowed set."""


class ConfigError(FedAlignError):
    """A run or sweep configuration document is invalid.

    ``field`` is a dotted path into the JSON document (e.g. ``fed.lambda``).
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"config field {field!r}: {message}")


def is_int(value) -> bool:
    """True for an integer config value that fits in int64, as every count,
    size and seed must; a JSON boolean is not a number, and JSON integers
    have no size limit."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and -(2**63) <= value < 2**63


def is_real(value) -> bool:
    """True for a real config value; a JSON boolean is not a number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """True for a real config value that is a finite float; an integer too
    large for a float (JSON has no size limit) is not."""
    if not is_real(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
