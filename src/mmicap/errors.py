"""Exception types, and the one input policy: every public entry point checks
its numbers through ``positive``, ``real``, ``finite`` and ``budgets`` (the
README lists the rule for each input), and weights against a covariance
through ``fits``; bools and strings are not numbers to any of them.
``ConfigError`` is also a ``ValueError``."""

import numbers
import operator

import numpy as np


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


class InfeasibleFactorization(MmicapError):
    """A layer width is smaller than the rank the product must carry."""


class NumericalUnderflow(MmicapError):
    """Every mixture component underflowed in a density evaluation."""


class NumericalOverflow(MmicapError):
    """A breakpoint or budget of the closed form, or an oracle value, passes the double range."""


class DeltaOutOfRange(MmicapError):
    """Total-variation argument outside [0, 1/e)."""


class ConfigError(MmicapError, ValueError):
    """Malformed input value, run configuration, flag value, or input file."""


def positive(value, name: str, *, integer: bool = False, least: int = 1,
             error: type[MmicapError] = ConfigError):
    """``value`` as a float in (0, inf), or with ``integer`` as an int of at
    least ``least``; anything else, bools included, raises ``error``."""
    try:
        if integer:  # index, not int(): a float is not a count
            number = operator.index(value)
        else:  # the type test skips the slower ABC check in the common case
            real = type(value) is float or isinstance(value, numbers.Real)
            number = float(value) if real else np.nan
        ok = number >= least if integer else 0.0 < number < np.inf
    except (TypeError, OverflowError):  # not an integer; an int beyond the doubles
        ok = False
    if not ok or isinstance(value, bool):
        wanted = f"an integer of at least {least}" if integer else "a positive finite number"
        raise error(f"{name} must be {wanted}, got {value!r}")
    return number


def real(value, name: str) -> np.ndarray:
    """``value``, a number or an array or sequence of them, as a float64 array;
    raises ``ConfigError`` unless each is a real number.  A numeric array is
    taken by its dtype, with no per-element test."""
    arr = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    ok = arr.dtype.kind in "iuf" or arr.dtype.kind == "O" and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in arr.flat)
    try:
        arr = arr.astype(np.float64, copy=False) if ok else arr
    except OverflowError:  # a Python int past the doubles
        ok = False
    if not ok:
        got = f", got {value!r}" if arr.ndim == 0 else ""  # an array may be large
        raise ConfigError(f"{name} must be real{got}")
    return arr


def finite(value, name: str):
    """``value``, a number or an array or sequence of them, as a float or a
    float64 array; raises ``ConfigError`` unless each is a finite real number."""
    arr = real(value, name)
    if not np.all(np.isfinite(arr)):
        got = f", got {value!r}" if arr.ndim == 0 else ""
        raise ConfigError(f"{name} must be real and finite{got}")
    return float(arr) if arr.ndim == 0 else arr


def budgets(value):
    """``value``, one budget or an array of them, as a float or a float64
    array; raises ``NegativeBudget`` unless each is a number in [0, inf).
    A Python float in range passes on one comparison; all else goes through numpy."""
    if type(value) is float and 0.0 <= value < np.inf:
        return value
    try:
        arr = np.asarray(value)
        ok = arr.dtype.kind in "iuf" and np.all((0.0 <= arr) & (arr < np.inf))
    except ValueError:  # a ragged sequence
        ok = False
    if not ok:
        raise NegativeBudget(f"budget must be non-negative and finite, got {value!r}")
    return float(arr) if arr.ndim == 0 else arr.astype(np.float64, copy=False)


def fits(weights, cov) -> None:
    """Raises ``DimensionMismatch`` unless ``weights`` act on ``cov``'s inputs."""
    if weights.input_dim != cov.dim:
        raise DimensionMismatch(
            f"weights act on {weights.input_dim} inputs, covariance is {cov.dim}-dim")
