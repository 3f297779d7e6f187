"""Exception types shared across the fedalign package, and the rules for
JSON config values.

Every error raised by the library derives from :class:`FedAlignError`, so
callers can catch one base class at the CLI boundary and map it to an exit
code.

Config documents become dataclasses through :func:`from_json`, which reads
the fields and type hints of the class itself, so no parser lists a field a
second time; :func:`to_json` writes one back.  A bad value raises
:class:`ConfigError` naming its dotted path.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import types
import typing


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
    """A CSV cell, or a config file's JSON or UTF-8, could not be parsed.

    Carries the 1-based line number and the offending column (a CSV column
    name, or a position in the line) so the CLI can point at the exact spot.
    """

    def __init__(self, line: int, column: str, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column!r}: {message}")


def utf8_error(path: str) -> ParseError:
    """The :class:`ParseError` for the first bytes of the file at ``path``
    that are not UTF-8, naming their line and byte column (both 1-based),
    for a read of the file that raised ``UnicodeDecodeError``.  The file is
    checked a line at a time: no UTF-8 sequence holds a newline byte."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = f"invalid UTF-8 byte 0x{line[exc.start]:02x} ({exc.reason})"
                return ParseError(lineno, str(exc.start + 1), bad)
    return ParseError(0, "", "not valid UTF-8")


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


def as_tuple(value) -> tuple | None:
    """The items of a value that must be a sequence, as a tuple; None for a
    string or bytes (whose characters are not its items) or a value that
    is not iterable."""
    if isinstance(value, (str, bytes)):
        return None
    try:
        return tuple(value)
    except TypeError:
        return None


_CHECKS = {
    int: (is_int, "an integer"),
    float: (is_finite_real, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    dict: (lambda v: isinstance(v, dict), "a JSON object"),
}


@functools.cache
def _fields(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, type hint, required) per field of a dataclass; resolving
    the hints costs far more than the parse that uses them."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    )


def _value(hint, value, path: str):
    """Check one JSON value against a field's type hint; returns it as the
    field takes it (a list becomes a tuple, an object a nested dataclass)."""
    origin = typing.get_origin(hint)
    if origin is types.UnionType or origin is typing.Union:  # X | None
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return _value(hint, value, path)
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, path)
    if origin is tuple:  # tuple[T, ...]
        ok, what = _CHECKS[typing.get_args(hint)[0]]
        if not isinstance(value, list) or not all(ok(v) for v in value):
            raise ConfigError(path, f"must be a list, each item {what}")
        return tuple(value)
    ok, what = _CHECKS[origin or hint]
    if not ok(value):
        raise ConfigError(path, f"must be {what}")
    return value


def from_json(cls, doc, path: str, rename: dict = {}, **fixed):
    """Build dataclass ``cls`` from the JSON object ``doc``.

    Each key is a field name, or its JSON name under ``rename``; an unknown
    key, a missing field without a default, or a value that does not fit
    the field's type hint raises :class:`ConfigError` naming
    ``<path>.<key>`` (just ``<key>`` when ``path`` is empty).  ``fixed``
    supplies fields the document may not set.  The class's own
    ``__post_init__`` makes the range checks; an :class:`InvalidSpec` it
    raises is reported against ``path``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(path or "config", "must be a JSON object")
    prefix = f"{path}." if path else ""
    names = {rename.get(f[0], f[0]): f for f in _fields(cls) if f[0] not in fixed}
    for key in doc:
        if key not in names:
            raise ConfigError(prefix + key, "unknown field")
    kwargs = dict(fixed)
    for key, (name, hint, required) in names.items():
        if key in doc:
            kwargs[name] = _value(hint, doc[key], prefix + key)
        elif required:
            raise ConfigError(prefix + key, "required")
    try:
        return cls(**kwargs)
    except InvalidSpec as exc:
        raise ConfigError(path or "config", str(exc)) from exc


def to_json(obj, rename: dict = {}) -> dict:
    """The JSON object :func:`from_json` reads back into ``obj``: fields in
    declaration order, nested dataclasses as objects, tuples as lists."""
    out = {}
    for name, _, _ in _fields(type(obj)):
        value = getattr(obj, name)
        if dataclasses.is_dataclass(value):
            value = to_json(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[rename.get(name, name)] = value
    return out
