"""Exception hierarchy shared across the toolkit.

Generic argument validation raises plain ``ValueError``; everything that a
caller may want to catch specifically gets its own class below.
"""


class KspodError(Exception):
    """Base class for all toolkit-specific errors."""


class FormatError(KspodError):
    """A container file does not conform to its binary layout."""


class BadMagicError(FormatError):
    """File does not start with the expected magic tag."""


class TruncatedPayloadError(FormatError):
    """File ends before the payload promised by its header."""


class NonFiniteDataError(FormatError):
    """Payload contains NaN or infinite values."""


class DimensionOverflowError(FormatError):
    """Header dimensions are zero or absurdly large."""


class IllConditionedError(KspodError):
    """Correlation matrix could not be factorized (near-singular)."""


class FitError(KspodError):
    """Hyperparameter search failed; carries the best parameters found."""

    def __init__(self, message, best_theta=None):
        super().__init__(message)
        self.best_theta = best_theta


class IncompatibleCasesError(KspodError):
    """Training cases do not share a common grid or time vector."""


class UndefinedBaselineError(KspodError):
    """Relative error requested against a zero baseline value."""


class UnsupportedGridError(KspodError):
    """Operation requires a structured (axial x radial) grid."""


class NoFilmError(KspodError):
    """No thresholded film band present at a requested station."""


class ConfigError(KspodError):
    """Command-line configuration is missing or unusable."""
