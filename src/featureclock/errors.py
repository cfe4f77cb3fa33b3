"""Exception and warning types shared across the package."""


class FeatureClockError(Exception):
    """Base class for all errors raised by this package."""


class InputDataError(FeatureClockError):
    """Malformed input files or invalid run options (CLI exit code 2)."""


class ComputationError(FeatureClockError):
    """A numerical routine could not produce a valid result (CLI exit code 3)."""


class GroupTooSmallError(ComputationError):
    """A point group cannot be fitted: too few members, or every feature constant."""


class ClockWarning(UserWarning):
    """Non-fatal conditions: dropped features, skipped groups, adjusted options."""


class RankDeficientError(ComputationError):
    """A design matrix has linearly dependent columns; ``columns`` lists them."""

    def __init__(self, message: str, columns):
        super().__init__(message)
        self.columns = tuple(columns)
