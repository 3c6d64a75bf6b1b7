"""Exception hierarchy for the toolkit."""


class CrsToolkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(CrsToolkitError, ValueError):
    """Inputs violate a contract: bad domain, mismatched vectors, Q not << P."""


class QuadratureError(CrsToolkitError):
    """An integral could not be certified to the requested tolerance."""


class StepBudgetError(CrsToolkitError):
    """The sampling recursion exceeded its step budget, grs.DEFAULT_STEP_CAP.

    Usually signals an infinite Renyi-infinity divergence (the survival mass
    decays too slowly) or a width/pair mismatch.
    """


class SweepValidationError(CrsToolkitError):
    """An experiment row failed its own internal identity checks."""
