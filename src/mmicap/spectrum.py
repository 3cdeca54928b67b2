"""Eigenvalue spectra and covariance models of Gaussian inputs.

Everything downstream consumes an input covariance only through its
eigenvalues (sorted descending) and, for the optimal-weight construction,
its orthonormal eigenvectors.  This module owns those types, the parametric
spectrum models used by the curve presets, and the file loaders.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    NonPositiveEigenvalue,
    NotPositiveDefinite,
    NotSymmetric,
    finite,
    positive,
    real,
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
    largest eigenvalue).  The spectrum holds one read-only entry, the
    water-filling state of the last ``(noise_var, n_tilde)`` asked for: the
    tuple ``(noise_var, n_tilde, rho, c)`` of the breakpoints and the
    breakpoint capacities (``waterfill._waterfill_state``).

    Equality and hashing are by identity, as for every array-holding type of
    the package.
    """

    values: np.ndarray
    _waterfill: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = real(self.values, "eigenvalues")
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
            raise ConfigError("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "values", _frozen_array(vals))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric positive-definite covariance of the Gaussian input.

    Symmetry is enforced at construction; positive definiteness is enforced
    wherever the matrix is factorized (eigendecomposition, Cholesky).  The
    eigendecomposition is computed on first use and held (``decompose_covariance``).
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(finite(self.entries, "covariance entries"))
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise DimensionMismatch(f"covariance must be square, got shape {a.shape}")
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
        positive(self.repetitions, "repetitions", integer=True, error=DimensionMismatch)

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
        n = positive(n, "spectrum length n", integer=True)
    if kind == "exp_decay":
        rate = positive(rate, "exp_decay spectrum rate")
        return Spectrum(np.exp(-rate * np.arange(n, dtype=np.float64)))
    if kind == "harmonic":
        return Spectrum(1.0 / np.arange(1, n + 1, dtype=np.float64))
    if values is None:
        raise ConfigError("explicit spectrum requires values")
    arr = finite(values, "explicit spectrum values")
    if n is not None and n != arr.size:
        raise ConfigError(f"explicit spectrum has {arr.size} values, n={n}")
    return Spectrum(np.sort(arr)[::-1])


def load_covariance_csv(path) -> CovarianceMatrix:
    """Read a covariance matrix from CSV: a square numeric grid, one row per line."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or all(not tok.strip() for tok in row):
                    continue
                try:
                    rows.append([float(tok) for tok in row])
                except ValueError as exc:
                    raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty covariance file")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise ConfigError(f"{path}: covariance grid is not square")
    return CovarianceMatrix(np.asarray(rows))

