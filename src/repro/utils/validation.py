"""Small argument validators shared across the package.

Each helper raises the package's own exception types with messages that name
the offending parameter, so configuration mistakes fail fast and readably.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ConfigurationError, ReproError, ScanStatisticsError


def require_probability(value: float, name: str, *, open_interval: bool = False) -> float:
    """Validate that ``value`` is a probability.

    With ``open_interval`` the endpoints 0 and 1 are excluded, which is what
    the scan-statistics formulas need (they divide by both ``p`` and ``q``).
    """
    value = float(value)
    if open_interval:
        if not 0.0 < value < 1.0:
            raise ScanStatisticsError(f"{name} must be in (0, 1); got {value}")
    elif not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1]; got {value}")
    return value


def require_positive_int(value: int, name: str) -> int:
    if int(value) != value or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer; got {value!r}")
    return int(value)


def require_non_negative(value: float, name: str) -> float:
    value = float(value)
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative; got {value}")
    return value


def require_positive(value: float, name: str) -> float:
    value = float(value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive; got {value}")
    return value


def require_in(value: object, options: tuple[object, ...], name: str) -> object:
    if value not in options:
        raise ConfigurationError(f"{name} must be one of {options}; got {value!r}")
    return value


def require_keys(
    payload: object,
    keys: frozenset[str],
    what: str,
    error: type[ReproError] = ConfigurationError,
) -> Mapping[str, Any]:
    """Require ``payload`` to be a mapping with exactly ``keys``.

    Loaders call this before reading a persisted payload, so a dropped or
    unknown key raises ``error`` instead of a raw ``KeyError`` or a
    silently taken default.  Returns the payload, typed as a mapping.
    """
    if not isinstance(payload, Mapping):
        raise error(f"{what} must be a mapping; got {type(payload).__name__}")
    missing = sorted(keys - payload.keys())
    extra = sorted(str(key) for key in payload if key not in keys)
    if missing or extra:
        raise error(f"{what} has missing keys {missing} and unknown keys {extra}")
    return payload
