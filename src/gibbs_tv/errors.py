"""Exception hierarchy, grouped by the CLI exit code each class maps to."""

import math


class GibbsTVError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GibbsTVError):
    """Malformed or inconsistent input (exit code 2)."""


class DimensionMismatchError(InputError):
    """Configuration / parameter length does not match the model's graph."""


class InvalidPairError(InputError):
    """Two models that must share a graph and kind do not."""


class InstanceFormatError(InputError):
    """An instance document violates the schema."""


class InfeasiblePinningError(InputError):
    """A pinning admits no positive-weight extension."""


class GateError(GibbsTVError):
    """A precondition gate of an estimator failed (exit code 3)."""


class MustPreprocessError(GateError):
    """Operation requires a soft model; run preprocessing first."""


class OracleError(GibbsTVError):
    """An exact/sampling/counting oracle could not serve the request (exit code 4)."""


class TooLargeError(OracleError):
    """Instance exceeds an enumeration cap."""


class NoLowerBoundError(OracleError):
    """No parameter-distance-to-TV lower bound case applies."""


def check_number(name: str, value, low: float, strict: bool = False) -> None:
    """Raise InputError unless ``value`` is a finite number at least ``low``
    (above it when ``strict``); NaN and infinities are refused."""
    try:
        ok = math.isfinite(value) and (value > low if strict else value >= low)
    except TypeError:
        ok = False
    if not ok:
        bound = f"above {low:g}" if strict else f"at least {low:g}"
        raise InputError(f"{name} must be a finite number {bound}, got {value!r}")
