"""Exception taxonomy shared across the package.

Range and structural errors are raised eagerly with enough context to name
the admissible interval or the offending entries; configuration errors are
kept separate so the CLI can map them to its own exit code.
"""

from __future__ import annotations


class ClawError(Exception):
    """Base class for domain errors raised by this package."""


class FluxRangeError(ClawError, ValueError):
    """Argument outside the admissible interval of a flux operation."""


class DegenerateChordError(ClawError, ValueError):
    """Chord slope requested for a zero-width state pair."""


class FanOrderingError(ClawError, ValueError):
    """Wave supports in a fan overlap or regress."""


class UnsupportedFamilyError(ClawError, ValueError):
    """Non-entropic family requested outside the supported comparison class."""


class TangencyError(ClawError, ValueError):
    """A front runs tangent to the trapezoid boundary."""


class EventCascadeError(ClawError, RuntimeError):
    """Too many simultaneous collisions at a single point."""


class QuadratureError(ClawError, ArithmeticError):
    """Quadrature did not settle within its panel cap."""


class InvariantViolation(ClawError, AssertionError):
    """A runtime solution invariant failed beyond tolerance."""


class ConfigError(ClawError, ValueError):
    """Scenario or CLI configuration is malformed."""


class CFLError(ConfigError):
    """Requested finite-volume step violates the CFL bound."""
