"""Exception taxonomy shared across the package.

Range and structural errors are raised eagerly with enough context to name
the admissible interval or the offending entries; configuration errors are
kept separate so the CLI can map them to its own exit code. check_finite
and check_positive are the one rule for a number parameter: each refuses
an illegal value with a FluxRangeError naming the parameter and the value.
"""

from __future__ import annotations

import math

import numpy as np


class ClawError(Exception):
    """Base class for domain errors raised by this package."""


class FluxRangeError(ClawError, ValueError):
    """Argument outside the admissible interval of a flux operation."""


def check_finite(name: str, value) -> None:
    """Raise FluxRangeError unless value is finite; an array names its first bad entry."""
    if isinstance(value, np.ndarray) and value.ndim:
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            raise FluxRangeError(f"{name}[{bad[0]}] = {value[bad[0]]} is not finite")
    elif not math.isfinite(value):
        raise FluxRangeError(f"{name} = {value} is not finite")


def check_positive(name: str, value: float) -> None:
    """Raise FluxRangeError unless value is a finite number > 0."""
    if not 0.0 < value < math.inf:
        raise FluxRangeError(f"needs a finite {name} > 0, got {name} = {value}")


class DegenerateChordError(ClawError, ValueError):
    """Chord slope requested for a zero-width state pair."""


class FanOrderingError(ClawError, ValueError):
    """Wave supports in a fan overlap or regress."""


class UnsupportedFamilyError(ClawError, ValueError):
    """Non-entropic family requested outside the supported comparison class."""


class TangencyError(ClawError, ValueError):
    """A front runs tangent to the trapezoid boundary."""


class QuadratureError(ClawError, ArithmeticError):
    """Quadrature did not settle within its panel cap."""


class InvariantViolation(ClawError, AssertionError):
    """A runtime solution invariant failed beyond tolerance."""


class ConfigError(ClawError, ValueError):
    """Scenario or CLI configuration is malformed."""


class CFLError(ConfigError):
    """Requested finite-volume step violates the CFL bound."""
