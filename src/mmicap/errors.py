"""Exception types shared across the library."""


class MmicapError(Exception):
    """Base class for all library errors."""


class NotSymmetric(MmicapError):
    """Matrix is not symmetric within tolerance."""


class NotPositiveDefinite(MmicapError):
    """Covariance is singular or indefinite."""


class NonPositiveEigenvalue(MmicapError):
    """A spectrum contains an entry that is zero or negative."""


class IndexOutOfRange(MmicapError):
    """A 1-based component index falls outside the spectrum."""


class NegativeBudget(MmicapError):
    """The squared-Frobenius weight budget must be non-negative."""


class DimensionMismatch(MmicapError):
    """Array shapes do not conform to the declared architecture."""


class TargetUnreachable(MmicapError):
    """Requested capacity exceeds what the budget bracket allows."""


class InfeasibleFactorization(MmicapError):
    """A layer width is smaller than the rank the product must carry."""


class NumericalUnderflow(MmicapError):
    """Every mixture component underflowed in a density evaluation."""


class NumericalOverflow(MmicapError):
    """A prefix sum or breakpoint a query reads passes the double range."""


class DeltaOutOfRange(MmicapError):
    """Total-variation argument outside [0, 1/e)."""


class ConfigError(MmicapError):
    """Malformed run configuration, flag value, or input file."""
