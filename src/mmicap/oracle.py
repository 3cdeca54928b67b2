"""Independent verification of the closed forms.

Three routes that never touch the piecewise capacity expression:
the exact Gaussian mutual information of an arbitrary weight matrix
(log-determinant form), the explicit capacity-achieving weight construction,
and a trust-region Newton ascent on the squared-Frobenius budget sphere.
"""

from __future__ import annotations

import itertools
import math
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

#: A trust-region step is accepted when the increase is at least this share
#: of the model's prediction; below 1/4 the radius shrinks, above 3/4 it grows.
ACCEPT_RATIO = 0.1


@dataclass(frozen=True, eq=False)
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
    """Trust-region ascent settings; per-restart seeds derive from (seed, index).

    ``step_size`` times sqrt(budget) is the initial trust radius.
    """

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

    ``converged`` is False when the winning restart still had a Riemannian
    gradient (the gradient's component tangent to the budget sphere) above
    tolerance after max_iters, or its trust region collapsed first; the
    best-found point is returned either way.
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


def _hessian(w: np.ndarray, grad: np.ndarray, factor, cov: np.ndarray,
             noise_var: float) -> np.ndarray:
    """Euclidean Hessian of the exact MI in the row-major vec of ``w``.

    With A = C / s, K = (Id + W A W^T)^-1, G = K W A (``grad``) and
    Abar = A - (W A)^T G, the gradient moves as dG = K dW Abar - G dW^T G, so
    H[(i, j), (k, l)] = K_ik Abar_lj - G_il G_kj.
    """
    inv_factor = np.linalg.inv(factor)
    k = inv_factor.T @ inv_factor
    abar = cov / noise_var - (w @ cov / noise_var).T @ grad
    hess = k[:, None, :, None] * abar[None, :, None, :] \
        - grad[:, None, None, :] * grad.T[None, :, :, None]
    return hess.reshape(w.size, w.size)


def _horizontal_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the tangent directions at ``w`` that are
    orthogonal to the sphere's normal vec(W) and to every hidden rotation
    vec(J W), J skew: the MI is invariant under W -> U W, U orthogonal, so
    those directions are flat.  The set is dependent when W has fewer
    non-zero singular values than rows, so its rank is read from an SVD."""
    pairs = list(itertools.combinations(range(w.shape[0]), 2))
    spanning = np.zeros((len(pairs) + 1,) + w.shape)
    spanning[0] = w
    for n, (a, b) in enumerate(pairs, start=1):
        spanning[n, a] = w[b]
        spanning[n, b] = -w[a]
    _, sv, vt = np.linalg.svd(spanning.reshape(len(pairs) + 1, w.size))
    return vt[np.count_nonzero(sv > RANK_RTOL * sv[0]):].T


def _trust_region_step(grad: np.ndarray, hess: np.ndarray, radius: float) -> np.ndarray:
    """Maximiser of grad . x + x^T hess x / 2 over |x| <= radius.

    One eigendecomposition, then Newton's method on the secular equation
    1/|x(nu)| = 1/radius with x(nu) = (nu Id - hess)^-1 grad (More & Sorensen,
    SIAM J. Sci. Stat. Comput. 1983).  The root lies between the smallest
    shift the division resolves and that shift plus |grad| / radius; 1/|x| is
    concave there, so once an iterate lands left of the root the rest climb
    to it.  In the hard case, where x is shorter than the radius already at
    the smallest shift, the top curvature direction fills the rest.
    """
    curv, vecs = np.linalg.eigh(-hess)
    coef = vecs.T @ grad
    if curv[0] > 0.0:
        step = coef / curv
        if step @ step <= radius**2:
            return vecs @ step
    floor = max(0.0, -curv[0]) + np.finfo(float).eps * float(np.abs(curv).max())
    step = coef / (curv + floor)
    length_sq = float(step @ step)
    if length_sq <= radius**2:
        rest = length_sq - step[0] ** 2
        step[0] = math.copysign(math.sqrt(radius**2 - rest), coef[0])
        return vecs @ step
    shift = floor + math.sqrt(coef @ coef) / radius
    for _ in range(100):
        denom = curv + shift
        step = coef / denom
        length = math.sqrt(step @ step)
        if abs(length - radius) <= 1e-12 * radius:
            break
        newton = shift + (length / radius - 1.0) * length**2 / ((step / denom) @ step)
        shift = newton if newton > floor else 0.5 * (floor + shift)
    return vecs @ step


def _ascend(w: np.ndarray, budget: float, cov: np.ndarray, noise_var: float,
            config: OptimizerConfig):
    """One trust-region Newton run on the exact MI against ``cov`` from ``w``
    on the budget sphere; returns (w, nats, converged, iters, grad_norm).

    Each step solves the quadratic model of the MI restricted to the
    horizontal space (``_horizontal_basis``) exactly inside the trust radius
    and is retracted by rescaling onto the sphere (Absil, Baker & Gallivan,
    FoCM 2007).  On the sphere the Riemannian Hessian is the projected
    Euclidean one minus <grad, W> / budget.  Convergence is measured on the
    tangential residual of the gradient.  The ratio test adds a rounding
    allowance to both increases, so steps that gain at rounding level are
    taken and the radius does not collapse next to the optimum.
    """
    factor, value = _mi_value(w, cov, noise_var)
    max_radius = math.sqrt(budget)
    radius = config.step_size * max_radius
    grad_norm = np.inf
    moved = True
    for iterations in range(config.max_iters):
        if moved:
            grad = _gradient(w, factor, cov, noise_var)
            radial = float(np.sum(grad * w)) / budget
            grad_norm = math.sqrt(np.sum((grad - radial * w) ** 2))
            basis = _horizontal_basis(w)
            if grad_norm <= config.tolerance or basis.shape[1] == 0:
                return w, value, True, iterations, grad_norm
            hess = basis.T @ _hessian(w, grad, factor, cov, noise_var) @ basis
            hess.flat[::hess.shape[0] + 1] -= radial
            slope = basis.T @ grad.ravel()
        step = _trust_region_step(slope, hess, radius)
        predicted = float(slope @ step + 0.5 * (step @ hess @ step))
        candidate = w + (basis @ step).reshape(w.shape)
        candidate *= math.sqrt(budget / np.sum(candidate * candidate))
        cand_factor, cand_value = _mi_value(candidate, cov, noise_var)
        allowance = 1e3 * np.finfo(float).eps * max(1.0, abs(value))
        ratio = (cand_value - value + allowance) / (predicted + allowance)
        if ratio < 0.25:
            radius *= 0.25
        elif ratio > 0.75 and step @ step >= (0.99 * radius) ** 2:
            radius = min(2.0 * radius, max_radius)
        moved = ratio > ACCEPT_RATIO
        if moved:
            w, value, factor = candidate, cand_value, cand_factor
        elif radius < np.finfo(float).eps * max_radius:
            # The model cannot predict an increase at machine precision.
            return w, value, False, iterations + 1, grad_norm
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
    """Trust-region Newton ascent of the exact MI over Tr(W^T W) <= budget.

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
    """Trust-region Newton ascent over the tied convolution filter.

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
