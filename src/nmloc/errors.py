"""Exception types shared across the package."""


class DegenerateSequenceError(ValueError):
    """The distal window scan found no offset with a measurable pair of sites."""


class DistalViolationError(ValueError):
    """Two diagonal values coincide (or sit below the divisor floor)."""


class TameRangeError(ValueError):
    """A tame product bound was requested below its valid norm index."""


class FixedPointStalledError(RuntimeError):
    """The diagonal-correction fixed point failed to reach tolerance."""

    def __init__(self, message, defect):
        super().__init__(message)
        self.defect = defect


class NeumannSmallnessError(ValueError):
    """The Neumann series for I + W did not reach its term tolerance."""


class SymmetryDefectError(ValueError):
    """A check defined only for real symmetric data was asked of other data."""


class TheoryConditionError(ValueError):
    """Strict checking found a failing sufficient condition or claimed bound."""


class ConfigError(ValueError):
    """Invalid or unparsable run configuration."""
