"""Eigenvalue spectra and covariance models of Gaussian inputs.

Everything downstream consumes an input covariance only through its
eigenvalues (sorted descending) and, for the optimal-weight construction,
its orthonormal eigenvectors.  This module owns those types, the parametric
spectrum models used by the curve presets, and the file loaders.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    IndexOutOfRange,
    NonPositiveEigenvalue,
    NotPositiveDefinite,
    NotSymmetric,
    NumericalOverflow,
)

# Reject covariances whose smallest eigenvalue falls below this fraction of
# the largest: near-singular inputs make reciprocal-eigenvalue sums blow up
# meaninglessly.
RELATIVE_PD_FLOOR = 1e-12

# Relative asymmetry tolerated before a matrix is rejected outright.
SYMMETRY_RTOL = 1e-10

#: Spectrum models of ``model_spectrum``.
SPECTRUM_KINDS = ("exp_decay", "harmonic", "explicit")


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Strictly positive covariance eigenvalues, sorted descending.

    Component indices are 1-based in every user-facing API (index 1 is the
    largest eigenvalue).  Everything held on a spectrum is read-only:

    - at construction, the prefix sums that every closed-form branch reads:
      of 1/lambda (held also as their logs, which stay finite past the double
      range) and of log lambda;
    - on first use, the capacities at the breakpoints, which only budget
      inversion reads;
    - the water-filling state (floors and breakpoints) of the last
      ``(noise_var, n_tilde)`` asked for, replaced when another is asked for
      (``waterfill.breakpoints``).

    Equality and hashing are by identity, as for every array-holding type of
    the package.
    """

    values: np.ndarray
    _inverse_prefix: np.ndarray = field(init=False, repr=False, compare=False)
    _log_inverse_prefix: np.ndarray = field(init=False, repr=False, compare=False)
    _log_prefix: np.ndarray = field(init=False, repr=False, compare=False)
    _waterfill: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise DimensionMismatch("spectrum must be a non-empty 1-D array")
        with np.errstate(divide="ignore", over="ignore"):
            inverse = 1.0 / vals
        bad = ~(np.isfinite(vals) & (vals > 0.0) & np.isfinite(inverse))
        if bad.any():
            i = int(np.argmax(bad))
            raise NonPositiveEigenvalue(
                f"eigenvalue {i + 1} of {vals.size} is {vals[i]:.6g}; eigenvalues must be "
                "finite and strictly positive, with finite reciprocals")
        if np.any(np.diff(vals) > 0.0):
            raise ValueError("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "values", _frozen_array(vals))
        # A running sum adds up to n * eps of rounding; accumulating in extended
        # precision (where the platform has it) keeps each prefix correctly rounded.
        # A 1/lambda prefix past the double range is stored as inf, which
        # ``inverse_trace`` refuses to return; its log stays finite, continued
        # past the last finite sum as a running log-sum-exp.
        logs = np.log(vals)
        with np.errstate(over="ignore"):
            inverse_prefix = _frozen_array(np.cumsum(inverse, dtype=np.longdouble))
        log_inverse_prefix = np.log(inverse_prefix)
        if not math.isfinite(inverse_prefix[-1]):
            first = int(np.argmin(np.isfinite(inverse_prefix)))
            log_inverse_prefix[first - 1:] = np.logaddexp.accumulate(
                np.append(log_inverse_prefix[first - 1], -logs[first:]))
        log_inverse_prefix.flags.writeable = False
        object.__setattr__(self, "_inverse_prefix", inverse_prefix)
        object.__setattr__(self, "_log_inverse_prefix", log_inverse_prefix)
        object.__setattr__(self, "_log_prefix",
                           _frozen_array(np.cumsum(logs, dtype=np.longdouble)))

    def __len__(self) -> int:
        return int(self.values.size)

    def _prefix(self, sums: np.ndarray, count):
        counts = np.asarray(count)
        if not np.all((1 <= counts) & (counts <= len(self))):
            raise IndexOutOfRange(f"component count {count} outside [1, {len(self)}]")
        out = sums[counts - 1]
        return float(out) if out.ndim == 0 else out

    def inverse_trace(self, count):
        """Sum of 1 / lambda over the leading ``count`` entries (elementwise).

        Raises NumericalOverflow when a requested sum passes the double range.
        """
        out = self._prefix(self._inverse_prefix, count)
        if not math.isfinite(self._inverse_prefix[-1]) and not np.all(np.isfinite(out)):
            first = int(np.argmin(np.isfinite(self._inverse_prefix))) + 1
            raise NumericalOverflow(
                f"the sum of 1/eigenvalue passes the double range at eigenvalue {first} "
                f"of {len(self)}; capacities that read it cannot be evaluated")
        return out

    def log_inverse_trace(self, count):
        """log of ``inverse_trace(count)``, finite even where that sum is not."""
        return self._prefix(self._log_inverse_prefix, count)

    def log_det(self, count):
        """Sum of log lambda over the leading ``count`` entries (elementwise)."""
        return self._prefix(self._log_prefix, count)

    @cached_property
    def breakpoint_capacities(self) -> np.ndarray:
        """Dense capacity at the k-th breakpoint, k = 1..n, in nats.

        With the water level at s / lambda_k the capacity is
        c_k = (1/2) sum_{i<=k} log(lambda_i / lambda_k), whatever the noise
        variance s.  Built as c_1 = 0, c_{k+1} = c_k + (k/2)(log lambda_k -
        log lambda_{k+1}), whose increments are non-negative, so the sequence
        is non-decreasing bit-for-bit.
        """
        logs = np.log(self.values)
        steps = np.arange(1, len(self)) * (logs[:-1] - logs[1:])
        out = np.zeros(len(self))
        out[1:] = 0.5 * np.cumsum(steps, dtype=np.longdouble)
        out.flags.writeable = False
        return out


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric positive-definite covariance of the Gaussian input.

    Symmetry is enforced at construction; positive definiteness is enforced
    wherever the matrix is factorized (eigendecomposition, Cholesky).  The
    eigendecomposition is computed on first use and held (``decompose_covariance``).
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise DimensionMismatch(f"covariance must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("covariance contains non-finite entries")
        scale = float(np.max(np.abs(a)))
        if scale > 0.0 and float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * scale:
            raise NotSymmetric("covariance is not symmetric within tolerance")
        object.__setattr__(self, "entries", _frozen_array(a))

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    @cached_property
    def _decomposition(self) -> SpectralDecomposition:
        eigvals, eigvecs = np.linalg.eigh(self.entries)
        eigvals = eigvals[::-1]
        eigvecs = eigvecs[:, ::-1]
        if eigvals[0] <= 0.0 or eigvals[-1] <= RELATIVE_PD_FLOOR * eigvals[0]:
            raise NotPositiveDefinite(
                f"smallest eigenvalue {eigvals[-1]:.6e} is not safely positive"
            )
        return SpectralDecomposition(Spectrum(eigvals), _frozen_array(eigvecs))


@dataclass(frozen=True)
class BlockCovariance:
    """Block-diagonal covariance built from identical blocks.

    Models translation-invariant input statistics: the full covariance is
    ``repetitions`` copies of ``block`` along the diagonal.
    """

    block: CovarianceMatrix
    repetitions: int

    def __post_init__(self) -> None:
        if int(self.repetitions) != self.repetitions or self.repetitions < 1:
            raise DimensionMismatch("repetitions must be a positive integer")
        object.__setattr__(self, "repetitions", int(self.repetitions))

    @property
    def input_dim(self) -> int:
        return self.block.dim * self.repetitions

    def expand(self) -> CovarianceMatrix:
        """Materialize the full block-diagonal covariance."""
        full = np.kron(np.eye(self.repetitions), self.block.entries)
        return CovarianceMatrix(full)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) with the matching orthonormal eigenvectors.

    ``eigenvectors[:, i]`` belongs to ``spectrum.values[i]``.  Eigenvalues
    with pairwise gaps below ~1e-12 relative form a degenerate cluster; any
    orthonormal basis of the cluster is acceptable, since every downstream
    quantity depends on the eigenvalues alone.
    """

    spectrum: Spectrum
    eigenvectors: np.ndarray


def decompose_covariance(cov: CovarianceMatrix) -> SpectralDecomposition:
    """Symmetric eigendecomposition with eigenvalues sorted descending.

    Computed once per covariance and held on it; every later call returns
    the same read-only result.  Raises ``NotPositiveDefinite`` (on every
    call) when the smallest eigenvalue is not safely positive (below
    ``RELATIVE_PD_FLOOR`` times the largest).
    """
    return cov._decomposition


def eigvals_from_covariance(cov: CovarianceMatrix) -> Spectrum:
    """All eigenvalues of ``cov``, descending."""
    return decompose_covariance(cov).spectrum


def model_spectrum(kind: str, n: int | None = None, *, rate: float | None = None,
                   values=None) -> Spectrum:
    """Parametric spectrum models.

    kind:
        ``exp_decay`` -- exp(-rate * (i - 1)) for i = 1..n, rate > 0
        ``harmonic``  -- 1/i for i = 1..n
        ``explicit``  -- validate and sort the given list descending
    """
    if kind not in SPECTRUM_KINDS:
        raise ConfigError(f"unknown spectrum kind {kind!r}")
    if n is not None or kind != "explicit":
        _check_positive(n, "spectrum length n", numbers.Integral, "integer")
    if kind == "exp_decay":
        _check_positive(rate, "exp_decay spectrum rate", numbers.Real, "finite number")
        return Spectrum(np.exp(-rate * np.arange(n, dtype=np.float64)))
    if kind == "harmonic":
        return Spectrum(1.0 / np.arange(1, n + 1, dtype=np.float64))
    if values is None:
        raise ConfigError("explicit spectrum requires values")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"explicit spectrum values must be numbers: {exc}") from exc
    if n is not None and n != arr.size:
        raise ConfigError(f"explicit spectrum has {arr.size} values, n={n}")
    return Spectrum(np.sort(arr)[::-1])


def _check_positive(value, name: str, kind, wanted: str) -> None:
    """``value`` is a ``kind`` number, not a bool, in (0, inf) as a double."""
    try:
        ok = not isinstance(value, bool) and isinstance(value, kind) \
            and 0.0 < float(value) < math.inf
    except OverflowError:  # an integer beyond the doubles
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a positive {wanted}, got {value!r}")


def load_covariance_csv(path) -> CovarianceMatrix:
    """Read a covariance matrix from CSV: a square numeric grid, one row per line."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not tok.strip() for tok in row):
                continue
            try:
                rows.append([float(tok) for tok in row])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty covariance file")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise ConfigError(f"{path}: covariance grid is not square")
    return CovarianceMatrix(np.asarray(rows))


def load_spectrum_json(path) -> Spectrum:
    """Read a spectrum document: {"kind": ..., "rate": ..., "n": ..., "values": ...}."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"{path}: spectrum document must be an object with a 'kind' field")
    return model_spectrum(
        doc["kind"], doc.get("n"), rate=doc.get("rate"), values=doc.get("values")
    )
