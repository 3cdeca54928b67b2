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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    IndexOutOfRange,
    NonPositiveEigenvalue,
    NotPositiveDefinite,
    NotSymmetric,
)

# Reject covariances whose smallest eigenvalue falls below this fraction of
# the largest: near-singular inputs make reciprocal-eigenvalue sums blow up
# meaninglessly.
RELATIVE_PD_FLOOR = 1e-12

# Relative asymmetry tolerated before a matrix is rejected outright.
SYMMETRY_RTOL = 1e-10


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Spectrum:
    """Strictly positive covariance eigenvalues, sorted descending.

    Component indices are 1-based in every user-facing API (index 1 is the
    largest eigenvalue).  The prefix sums of reciprocal and log eigenvalues
    that every closed-form branch reads are computed once, at construction.
    """

    values: np.ndarray
    _inverse_prefix: np.ndarray = field(init=False, repr=False, compare=False)
    _log_prefix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise DimensionMismatch("spectrum must be a non-empty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise NonPositiveEigenvalue("spectrum contains non-finite entries")
        if np.any(vals <= 0.0):
            raise NonPositiveEigenvalue("eigenvalues must be strictly positive")
        if not math.isfinite(1.0 / float(vals.min())):
            raise NonPositiveEigenvalue("eigenvalues must have finite reciprocals")
        if np.any(np.diff(vals) > 0.0):
            raise ValueError("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "values", _frozen_array(vals))
        # A running sum adds up to n * eps of rounding; accumulating in extended
        # precision (where the platform has it) keeps each prefix correctly rounded.
        for name, terms in (("_inverse_prefix", 1.0 / vals), ("_log_prefix", np.log(vals))):
            object.__setattr__(self, name, _frozen_array(np.cumsum(terms, dtype=np.longdouble)))

    def __len__(self) -> int:
        return int(self.values.size)

    def _prefix(self, sums: np.ndarray, count):
        counts = np.asarray(count)
        if not np.all((1 <= counts) & (counts <= len(self))):
            raise IndexOutOfRange(f"component count {count} outside [1, {len(self)}]")
        out = sums[counts - 1]
        return float(out) if out.ndim == 0 else out

    def inverse_trace(self, count):
        """Sum of 1 / lambda over the leading ``count`` entries (elementwise)."""
        return self._prefix(self._inverse_prefix, count)

    def log_det(self, count):
        """Sum of log lambda over the leading ``count`` entries (elementwise)."""
        return self._prefix(self._log_prefix, count)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-definite covariance of the Gaussian input.

    Symmetry is enforced at construction; positive definiteness is enforced
    wherever the matrix is factorized (eigendecomposition, Cholesky).
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


@dataclass(frozen=True)
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

    Raises ``NotPositiveDefinite`` when the smallest eigenvalue is not
    safely positive (below ``RELATIVE_PD_FLOOR`` times the largest).
    """
    eigvals, eigvecs = np.linalg.eigh(cov.entries)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    if eigvals[0] <= 0.0 or eigvals[-1] <= RELATIVE_PD_FLOOR * eigvals[0]:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {eigvals[-1]:.6e} is not safely positive"
        )
    return SpectralDecomposition(Spectrum(eigvals), _frozen_array(eigvecs))


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
    if kind == "exp_decay":
        if rate is None or rate <= 0:
            raise ConfigError("exp_decay spectrum requires rate > 0")
        _check_length(n)
        return Spectrum(np.exp(-rate * np.arange(n, dtype=np.float64)))
    if kind == "harmonic":
        _check_length(n)
        return Spectrum(1.0 / np.arange(1, n + 1, dtype=np.float64))
    if kind == "explicit":
        if values is None:
            raise ConfigError("explicit spectrum requires values")
        arr = np.asarray(values, dtype=np.float64)
        if n is not None and n != arr.size:
            raise ConfigError(f"explicit spectrum has {arr.size} values, n={n}")
        return Spectrum(np.sort(arr)[::-1])
    raise ConfigError(f"unknown spectrum kind {kind!r}")


def _check_length(n) -> None:
    if n is None or int(n) != n or n < 1:
        raise ConfigError("spectrum length n must be a positive integer")


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
