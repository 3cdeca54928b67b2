"""Independent verification of the closed forms.

Three routes that never touch the piecewise capacity expression:
the exact Gaussian mutual information of an arbitrary weight matrix
(log-determinant form), the explicit capacity-achieving weight construction,
and projected gradient ascent over the squared-Frobenius ball.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InfeasibleFactorization, MmicapError
from .spectrum import (
    BlockCovariance,
    CovarianceMatrix,
    SpectralDecomposition,
    _frozen_array,
)
from .waterfill import solve_waterfill

#: Singular values below this fraction of the largest count as zero rank.
RANK_RTOL = 1e-12

#: Armijo sufficient-increase coefficient for the backtracking line search.
ARMIJO_C = 1e-4


@dataclass(frozen=True)
class WeightMatrix:
    """A hidden_dim x input_dim weight matrix with its cached squared norm."""

    entries: np.ndarray
    frobenius_sq: float | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.size == 0:
            raise DimensionMismatch(f"weights must be a 2-D matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("weights contain non-finite entries")
        fro = float(np.sum(a * a))
        if self.frobenius_sq is not None:
            gap = abs(self.frobenius_sq - fro)
            if gap > 1e-12 * max(fro, 1e-300):
                raise ValueError(
                    f"declared squared norm {self.frobenius_sq} is off by {gap}"
                )
            fro = float(self.frobenius_sq)
        object.__setattr__(self, "entries", _frozen_array(a))
        object.__setattr__(self, "frobenius_sq", fro)

    @property
    def hidden_dim(self) -> int:
        return int(self.entries.shape[0])

    @property
    def input_dim(self) -> int:
        return int(self.entries.shape[1])


@dataclass(frozen=True)
class OptimizerConfig:
    """Projected-gradient settings; per-restart seeds derive from (seed, index)."""

    max_iters: int = 5000
    step_size: float = 0.1
    tolerance: float = 1e-8
    seed: int = 0
    restarts: int = 5

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.step_size <= 0 or self.tolerance <= 0:
            raise ValueError("max_iters, step_size and tolerance must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True)
class OptimizeResult:
    """Best weights found, their exact mutual information, and a convergence flag.

    ``converged`` is False when the winning restart still had a projected
    gradient above tolerance after max_iters; the best-found point is
    returned either way.
    """

    weights: WeightMatrix
    nats: float
    converged: bool
    iterations: int
    grad_norm: float


def _mi_value(w: np.ndarray, cov: np.ndarray, noise_var: float):
    """Lower Cholesky factor of Id + W C W^T / s along with the MI in nats."""
    m = np.eye(w.shape[0]) + (w @ cov @ w.T) / noise_var
    m = 0.5 * (m + m.T)
    try:
        factor = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        # Id + PSD is positive definite; a failed pivot is a numerics bug.
        raise MmicapError(f"positive-definite factorization failed: {exc}") from exc
    nats = float(np.sum(np.log(np.diag(factor))))
    return factor, nats


def exact_linear_mi(weights: WeightMatrix, cov: CovarianceMatrix,
                    noise_var: float) -> float:
    """Exact mutual information of the linear Gaussian channel, in nats.

    (1/2) log det(Id + W Cov W^T / noise_var); independent of any bias.
    """
    if noise_var <= 0.0:
        raise ValueError("noise_var must be positive")
    if weights.input_dim != cov.dim:
        raise DimensionMismatch(
            f"weights act on {weights.input_dim} inputs, covariance is {cov.dim}-dim"
        )
    _, nats = _mi_value(weights.entries, cov.entries, noise_var)
    return nats


def _gradient(w: np.ndarray, factor, cov: np.ndarray, noise_var: float) -> np.ndarray:
    """(Id + W C W^T / s)^{-1} W C / s, given the Cholesky factor from _mi_value."""
    return np.linalg.solve(factor.T, np.linalg.solve(factor, w @ cov)) / noise_var


def mi_gradient(weights: WeightMatrix, cov: CovarianceMatrix,
                noise_var: float) -> np.ndarray:
    """Gradient of exact_linear_mi with respect to the weight entries."""
    factor, _ = _mi_value(weights.entries, cov.entries, noise_var)
    return _gradient(weights.entries, factor, cov.entries, noise_var)


def build_optimal_weights(budget: float, decomposition: SpectralDecomposition,
                          noise_var: float, hidden_dim: int) -> WeightMatrix:
    """Capacity-achieving weights for the dense family.

    Rows are water-filled multiples of the leading input eigenvectors:
    the Gram matrix W^T W shares the covariance eigenvectors and carries the
    allocation as its eigenvalues, so Tr(W^T W) equals the budget exactly.
    """
    spectrum = decomposition.spectrum
    input_dim = len(spectrum)
    n_tilde = min(input_dim, hidden_dim)
    solution = solve_waterfill(budget, spectrum, noise_var, n_tilde)
    w = np.zeros((hidden_dim, input_dim))
    w[:n_tilde, :] = (
        np.sqrt(solution.allocations)[:, None]
        * decomposition.eigenvectors[:, :n_tilde].T
    )
    return WeightMatrix(w)


def _ascend(w: np.ndarray, budget: float, cov: np.ndarray, noise_var: float,
            config: OptimizerConfig):
    """One projected-gradient run on the exact MI against ``cov`` from ``w`` on
    the budget sphere; returns (w, nats, converged, iters, grad_norm).

    There <grad, W> = Tr(M^-1 W C W^T) / s > 0: each step leaves the sphere
    outward and is rescaled back, and convergence is measured on the
    tangential residual.  The accepted step carries over (doubled) into the
    next iteration, so the search rarely backtracks more than once.
    """
    factor, value = _mi_value(w, cov, noise_var)
    grad_norm = np.inf
    step = config.step_size
    for iterations in range(config.max_iters):
        grad = _gradient(w, factor, cov, noise_var)
        radial = float(np.sum(grad * w)) / float(np.sum(w * w))
        grad_norm = float(np.linalg.norm(grad - radial * w))
        if grad_norm <= config.tolerance:
            return w, value, True, iterations, grad_norm
        step = min(2.0 * step, 1e6 * config.step_size)
        while step > 1e-18:
            candidate = w + step * grad
            candidate *= np.sqrt(budget / np.sum(candidate * candidate))
            cand_factor, cand_value = _mi_value(candidate, cov, noise_var)
            if cand_value >= value + ARMIJO_C * step * grad_norm ** 2:
                w, value, factor = candidate, cand_value, cand_factor
                break
            step *= 0.5
        else:
            # Line search exhausted at machine precision, short of tolerance.
            return w, value, False, iterations, grad_norm
    return w, value, False, config.max_iters, grad_norm


def _multistart(hidden_dim: int, budget: float, cov: np.ndarray, noise_var: float,
                config: OptimizerConfig) -> OptimizeResult:
    """Best of ``config.restarts`` ascents from random points on the budget
    sphere; the zero matrix when the budget is zero."""
    if budget < 0.0:
        raise ValueError("budget must be non-negative")
    shape = (hidden_dim, cov.shape[0])
    runs = []
    for restart in range(config.restarts if budget > 0.0 else 0):
        w0 = np.random.default_rng([config.seed, restart]).standard_normal(shape)
        runs.append(_ascend(w0 * np.sqrt(budget / np.sum(w0 * w0)), budget, cov,
                            noise_var, config))
    w, nats, converged, iterations, grad_norm = max(
        runs, key=lambda run: run[1], default=(np.zeros(shape), 0.0, True, 0, 0.0))
    return OptimizeResult(WeightMatrix(w), nats, converged, iterations, grad_norm)


def maximize_mi(budget: float, cov: CovarianceMatrix, noise_var: float,
                hidden_dim: int, config: OptimizerConfig) -> OptimizeResult:
    """Projected gradient ascent of the exact MI over Tr(W^T W) <= budget.

    Runs ``config.restarts`` independent ascents from random points on the
    budget sphere (restart r seeds from (config.seed, r), so results are
    reproducible and schedule-independent) and keeps the best.
    """
    return _multistart(hidden_dim, budget, cov.entries, noise_var, config)


def tile_filter(filter_matrix: np.ndarray, repetitions: int) -> np.ndarray:
    """Block-diagonal weights applying one filter to each input block."""
    return np.kron(np.eye(repetitions), np.asarray(filter_matrix, dtype=np.float64))


def maximize_mi_conv(budget: float, block: BlockCovariance, num_filters: int,
                     noise_var: float, config: OptimizerConfig) -> OptimizeResult:
    """Projected gradient ascent over the tied convolution filter.

    The input covariance is block-diagonal, so the full-channel MI of a tiled
    filter is repetitions times its MI on one block: the ascent runs on one
    block (``iterations`` and ``grad_norm`` are block-level), and only the
    winning filter is tiled and scored on the full channel.  The budget
    constrains the filter itself.  Returned weights are the
    num_filters x block_size filter; ``nats`` is the full-channel MI.
    """
    if num_filters < 1:
        raise DimensionMismatch("num_filters must be a positive integer")
    best = _multistart(num_filters, budget, block.block.entries, noise_var, config)
    tiled = WeightMatrix(tile_filter(best.weights.entries, block.repetitions))
    return replace(best, nats=exact_linear_mi(tiled, block.expand(), noise_var))


def factor_check_multilayer(weights: WeightMatrix, widths, cov: CovarianceMatrix,
                            noise_var: float) -> float:
    """MI of an explicit layer factorization of ``weights``.

    Factors the matrix through the given layer widths (rank-carrying first
    layer, identity-like embeddings above), multiplies the factors back out
    and scores the product, which reconstructs the original matrix whenever
    every width can carry its rank.
    """
    widths = [int(w) for w in widths]
    if not widths or any(w < 1 for w in widths):
        raise DimensionMismatch("widths must be positive integers")
    w = weights.entries
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * RANK_RTOL)) if s.size else 0
    if min(widths) < rank:
        raise InfeasibleFactorization(
            f"narrowest width {min(widths)} cannot carry rank {rank}"
        )
    if widths[-1] != weights.hidden_dim:
        raise DimensionMismatch(
            f"last width {widths[-1]} must equal the output dim {weights.hidden_dim}"
        )
    if len(widths) == 1:
        product = w
    else:
        first = np.zeros((widths[0], weights.input_dim))
        first[:rank, :] = s[:rank, None] * vt[:rank, :]
        product = first
        for prev, cur in zip(widths[:-1], widths[1:-1]):
            product = np.eye(cur, prev) @ product
        last = np.zeros((weights.hidden_dim, widths[-2]))
        last[:, :rank] = u[:, :rank]
        product = last @ product
    return exact_linear_mi(WeightMatrix(product), cov, noise_var)
