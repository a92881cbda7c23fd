"""Exception types shared across the library, and the tests of settings
whose failure they report."""

import numbers
from dataclasses import fields


class DceeError(Exception):
    """Base class for all library errors."""


class InvalidInputError(DceeError):
    """Non-finite or malformed input to a numerical routine."""


class CurvatureViolationError(DceeError):
    """Parameter vector does not satisfy the concavity requirement of the
    optimal-condition map (theta[0] must stay at or below -curvature_floor)."""


class InfeasibleCandidateError(DceeError):
    """Candidate input drives a predicted ensemble member outside the
    admissible parameter region; the objective is undefined there."""


class ConfigurationError(DceeError):
    """Invalid scenario, ensemble, or solver configuration."""


class RateUndefinedError(DceeError):
    """Local contraction rate requires a positive curvature J'J."""


class SolverFailureError(DceeError):
    """Inner loop could not produce a usable step; carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def integer_at_least(value, low: int) -> bool:
    """Whether value is an integer (numpy's too, but no bool) of at least low."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def reject_bools(settings) -> None:
    """Raise ConfigurationError if a field of the settings dataclass holds a
    bool: no setting is a flag, and True passes every numeric test as 1."""
    for f in fields(settings):
        if isinstance(getattr(settings, f.name), bool):
            raise ConfigurationError(f"{type(settings).__name__}.{f.name} must be a number, not a bool")
