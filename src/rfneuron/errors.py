"""Shared exception types and the field checks every parameter type applies."""

import dataclasses
import math
import numbers
from enum import Enum

import numpy as np

__all__ = [
    "ConfigError", "ProtocolError", "UndefinedMetricError",
    "require_finite", "require_member", "require_positive", "require_nonnegative",
    "require_count", "require_increasing",
]


class ConfigError(ValueError):
    """Invalid configuration value or inconsistent configuration section."""


class ProtocolError(RuntimeError):
    """Handshake FSM driven out of the (threshold -> clamp -> release)* order."""


class UndefinedMetricError(RuntimeError):
    """A trace does not support the requested metric (no peaks, no decay, ...)."""


def require_finite(obj) -> None:
    """Reject a boolean, NaN or infinity in any field (or tuple entry) of dataclass ``obj``.

    Range checks written as comparisons let NaN through, since every
    comparison with NaN is false; this check runs before them.  A bool
    (numpy's too) would pass them as 0 or 1, and no parameter is boolean.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        # a plain float or int, the common case, needs none of the checks below
        if type(value) is float:
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            continue
        if type(value) is int:
            continue
        entries = value if isinstance(value, tuple) else (value,)
        if any(isinstance(x, (bool, np.bool_)) for x in entries):
            raise ConfigError(f"{f.name} must be a number, not a boolean, got {value!r}")
        # every real, numpy's float32 too; an integer is finite, and math.isfinite
        # overflows on a huge one
        if any(isinstance(x, numbers.Real) and not isinstance(x, numbers.Integral)
               and not math.isfinite(x) for x in entries):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def require_member(obj, name: str, enum: type[Enum]) -> None:
    """Reject field ``name`` of ``obj`` unless it is a member of ``enum``."""
    value = getattr(obj, name)
    if not isinstance(value, enum):
        raise ConfigError(f"{name} must be one of {[m.value for m in enum]}, got {value!r}")


def require_positive(obj, *names: str) -> None:
    """Reject each named field of ``obj`` unless it is above zero."""
    for name in names:
        value = getattr(obj, name)
        if not value > 0.0:
            raise ConfigError(f"{name} must be positive, got {value!r}")


def require_nonnegative(obj, *names: str) -> None:
    """Reject each named field of ``obj`` unless it (or every tuple entry) is at least zero."""
    for name in names:
        value = getattr(obj, name)
        if not all(x >= 0.0 for x in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name} must be non-negative, got {value!r}")


def require_count(obj, minimum: int, *names: str) -> None:
    """Reject each named field of ``obj`` unless it is an integer of at least ``minimum``.

    A ``bool`` is a ``numbers.Integral`` too, but never a count: it is what
    YAML makes of ``true``/``false``.
    """
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= minimum):
            raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_increasing(values, message: str) -> None:
    """Raise ``ConfigError(message)`` unless ``values`` strictly increase.

    Computed levels are checked as computed: ``np.linspace`` and
    ``np.geomspace`` over bounds a few ulps apart repeat or reorder them.
    """
    if any(b >= c for b, c in zip(values, values[1:])):
        raise ConfigError(message)
