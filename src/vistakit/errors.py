"""Exception types shared across the toolkit.

Parsing problems in trace files are reported as findings, not exceptions
(see integrity.py); the exceptions here cover programming-level misuse
and data that cannot be represented at all.
"""


class VistaError(Exception):
    """Base class for all toolkit-specific errors."""


class MalformedArray(VistaError):
    """A position-array string violates the grammar."""


class EmptyArray(VistaError):
    """A position-array string contains no positions."""


class CountMismatch(VistaError):
    """A position-array count prefix disagrees with the parsed positions."""


class DegeneratePolygon(VistaError):
    """A polygon has too few distinct vertices or self-intersects."""


class UnknownEntity(VistaError):
    """A requested actor/obstacle id is not present in the trace."""


class ExtentExceeded(VistaError):
    """A point lies too far from a local frame origin to project safely."""


class CoincidentPoints(VistaError):
    """A bearing was requested between two identical positions."""


class InsufficientOverlap(VistaError):
    """Two traces do not overlap in time enough to be compared."""


class MalformedRules(VistaError, ValueError):
    """A rule override file or entry cannot be read as rules."""


class InfeasibleSpec(VistaError):
    """A synthesis request cannot be realized on the scenario geometry."""
