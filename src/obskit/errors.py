"""Exception types shared across the library."""

from __future__ import annotations


class ObskitError(Exception):
    """Base class for all library-specific errors."""


class ZeroRange(ObskitError):
    """Target coincides with the observer: range below the configured floor.

    Bearing and range rate are undefined at zero range.
    """

    def __init__(self, message: str, target_index: int | None = None,
                 time: float | None = None):
        super().__init__(message)
        self.target_index = target_index
        self.time = time


class NonPositiveRange(ObskitError):
    """Range-history construction produced a non-positive range.

    The requested ambiguity parameters are infeasible on this window.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class NonPositiveAlpha(ObskitError):
    """Bearing-preserving scale factor must stay strictly positive."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class DegenerateSystem(ObskitError):
    """Least-squares system has fewer rows than unknowns; no estimate possible."""


class ParseError(ObskitError):
    """An input file cannot be read or parsed.

    Raised for a scenario file that is unreadable, not UTF-8 or not valid
    JSON, and for a trajectory CSV that is unreadable or has a bad header,
    a non-numeric or non-finite field, fewer than 3 rows, or times that are
    not strictly increasing.
    """


class ValidationError(ObskitError):
    """Scenario content violates an invariant.

    ``field`` holds the dotted path of the offending entry, e.g. ``time.end``
    or ``targets[1].coeffs``.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
