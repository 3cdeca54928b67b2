"""Seeded Monte-Carlo estimators for channel entropy and mutual information.

The marginal of the channel output is an exact, uniformly weighted mixture of
Gaussians centred at the channel means of input draws, so its density can be
evaluated in closed form at any point (log-sum-exp over mixture components);
no bandwidth selection is involved.  Outer evaluation points and inner
mixture centres come from independent substreams of one seed, which keeps
the plug-in bias one-sided and the estimates reproducible bit-for-bit.

Worker parallelism for the density evaluation is capped by the MMI_THREADS
environment variable (0 or unset picks up to 4, no more than the CPUs the
process may run on); chunk boundaries are fixed, so results do not depend on
the thread count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DeltaOutOfRange, NotPositiveDefinite, NumericalUnderflow
from .spectrum import CovarianceMatrix

if TYPE_CHECKING:
    from .oracle import WeightMatrix

#: Upper limit on elements per exponent chunk: 1 MB of float64, so a chunk's
#: product, exp and row sums all run in a core's L2 cache, and memory stays
#: flat at one chunk per worker.
_CHUNK_ELEMENTS = 1 << 17

#: Worker pools by thread count, shared by every call in the process.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _forget_pools() -> None:
    # A forked child inherits the pools but not their threads: work sent to
    # them would never run.
    global _POOLS_LOCK
    _POOLS.clear()
    _POOLS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)

_INV_E = 1.0 / math.e


def _tanh_log_deriv(a: np.ndarray) -> np.ndarray:
    # log(1 - tanh(a)^2) = 2 (log 2 - |a| - log1p(exp(-2|a|))), stable for large |a|
    mag = np.abs(a)
    return 2.0 * (math.log(2.0) - mag - np.log1p(np.exp(-2.0 * mag)))


@dataclass(frozen=True)
class ChannelModel:
    """A noisy single-layer channel: mean map plus isotropic Gaussian noise.

    linear     z = W x + b + eta
    relu       z = relu(W x + b) + eta
    bijective  z = tanh(a), a = W x + b + eta   (noise on the pre-activation)
    """

    weights: WeightMatrix
    bias: np.ndarray
    noise_var: float
    activation: str = "linear"

    def __post_init__(self) -> None:
        bias = np.asarray(self.bias, dtype=np.float64)
        if bias.ndim != 1 or bias.size != self.weights.hidden_dim:
            raise ConfigError(
                f"bias must have length {self.weights.hidden_dim}, got shape {bias.shape}"
            )
        if self.noise_var <= 0.0:
            raise ValueError("noise_var must be positive")
        if self.activation not in ("linear", "relu", "bijective"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "bias", bias)

    @property
    def hidden_dim(self) -> int:
        return self.weights.hidden_dim

    def preactivation(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights.entries.T + self.bias

    def mean(self, x: np.ndarray) -> np.ndarray:
        """Conditional mean of the noisy variable given inputs ``x``."""
        pre = self.preactivation(x)
        if self.activation == "relu":
            return np.maximum(pre, 0.0)
        return pre


def linear_channel(weights: WeightMatrix, bias, noise_var: float) -> ChannelModel:
    return ChannelModel(weights, bias, noise_var, "linear")


def relu_channel(weights: WeightMatrix, bias, noise_var: float) -> ChannelModel:
    return ChannelModel(weights, bias, noise_var, "relu")


def bijective_channel(weights: WeightMatrix, bias, noise_var: float) -> ChannelModel:
    return ChannelModel(weights, bias, noise_var, "bijective")


@dataclass(frozen=True)
class MCConfig:
    """Sample counts and seed for one Monte-Carlo estimate."""

    n_outer: int
    n_inner: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_outer < 100 or self.n_inner < 100:
            raise ConfigError("n_outer and n_inner must be at least 100")


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate in nats with its standard error and provenance."""

    value: float
    std_error: float
    config: MCConfig


def sample_gaussian_inputs(cov: CovarianceMatrix, n: int, seed) -> np.ndarray:
    """n centred Gaussian draws with covariance ``cov`` (rows are samples)."""
    try:
        chol = np.linalg.cholesky(cov.entries)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance has no Cholesky factor: {exc}") from exc
    rng = np.random.default_rng(seed)
    return rng.standard_normal((int(n), cov.dim)) @ chol.T


def _thread_count() -> int:
    raw = os.environ.get("MMI_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"MMI_THREADS must be an integer, got {raw!r}") from exc
    if n < 0:
        raise ConfigError(f"MMI_THREADS must be non-negative, got {n}")
    if n == 0:
        # the CPUs this process may run on, which can be fewer than the host's
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count())
        return min(4, usable or 1)
    return n


def _pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide worker pool for ``threads`` workers, made on first use."""
    with _POOLS_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = _POOLS[threads] = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"mmicap-mc-{threads}")
        return pool


def _mixture_log_density(points: np.ndarray, centres: np.ndarray,
                         noise_var: float) -> np.ndarray:
    """Log density of the uniform Gaussian mixture at each point.

    For a chunk of points, the exponents -|p - c|^2 / (2 s) against every
    centre come from one matrix product of the rows [p/s, -|p|^2/(2 s), 1]
    with the columns [c; 1; -|c|^2/(2 s)]; exp and the row sums follow on the
    same cache-sized chunk.  Points and centres are first moved by the mean
    centre, which leaves every distance as it is and keeps the rounding of
    the expanded square at the scale of the data's spread, not of its
    distance from the origin.  Each exponent is non-positive up to that
    rounding (a few ulps of |p|^2/(2 s)), so the sum of exponentials cannot
    overflow and needs no max-stabilization; a zero sum means every
    component underflowed, which raises NumericalUnderflow.
    Chunk boundaries are fixed and each chunk writes its own slice of a
    preallocated array, so the result is identical regardless of how many
    worker threads run.
    """
    n_points, dim = points.shape
    n_centres = centres.shape[0]
    origin = centres.mean(axis=0)
    points = points - origin
    centres = centres - origin
    lhs = np.empty((n_points, dim + 2))
    lhs[:, :dim] = points / noise_var
    lhs[:, dim] = -0.5 * np.einsum("ij,ij->i", points, points) / noise_var
    lhs[:, dim + 1] = 1.0
    rhs = np.empty((dim + 2, n_centres))
    rhs[:dim] = centres.T
    rhs[dim] = 1.0
    rhs[dim + 1] = -0.5 * np.einsum("ij,ij->i", centres, centres) / noise_var
    sums = np.empty(n_points)
    rows = max(1, _CHUNK_ELEMENTS // n_centres)
    starts = range(0, n_points, rows)

    def fill(start: int) -> None:
        stop = min(start + rows, n_points)
        expo = lhs[start:stop] @ rhs
        np.exp(expo, out=expo)
        sums[start:stop] = expo.sum(axis=1)

    threads = _thread_count()
    if threads > 1 and len(starts) > 1:
        list(_pool(threads).map(fill, starts))
    else:
        for start in starts:
            fill(start)
    with np.errstate(divide="ignore"):
        log_sums = np.log(sums)
    if not np.all(np.isfinite(log_sums)):
        raise NumericalUnderflow("mixture density underflowed at some evaluation points")
    return log_sums - math.log(n_centres) - 0.5 * dim * math.log(2.0 * math.pi * noise_var)


def _draw(model: ChannelModel, cov: CovarianceMatrix, mc: MCConfig):
    """Inner inputs, outer inputs and outer noise from substreams 0, 1 and 2
    of ``mc.seed`` (3 is reserved for the conditional Jacobian term of
    bijective channels)."""
    ss = np.random.SeedSequence(mc.seed).spawn(3)
    x_inner = sample_gaussian_inputs(cov, mc.n_inner, ss[0])
    x_outer = sample_gaussian_inputs(cov, mc.n_outer, ss[1])
    noise = np.random.default_rng(ss[2]).standard_normal(
        (mc.n_outer, model.hidden_dim)) * math.sqrt(model.noise_var)
    return x_inner, x_outer, noise


def _entropy_contributions(model: ChannelModel, cov: CovarianceMatrix,
                           mc: MCConfig) -> np.ndarray:
    """Per-outer-sample plug-in entropy contributions, in nats."""
    x_inner, x_outer, noise = _draw(model, cov, mc)
    points = model.mean(x_outer) + noise
    contributions = -_mixture_log_density(points, model.mean(x_inner), model.noise_var)
    if model.activation == "bijective":
        # Change of variables: H(tanh(A)) = H(A) + E[log |det Dtanh(A)|],
        # estimated on the same marginal pre-activation samples.
        contributions = contributions + _tanh_log_deriv(points).sum(axis=1)
    return contributions


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))


def estimate_entropy(model: ChannelModel, cov: CovarianceMatrix,
                     mc: MCConfig) -> MCEstimate:
    """Plug-in estimate of the output entropy H(Z), in nats.

    The standard error is the spread of the per-outer-sample contributions;
    inner-sample noise shows up as a small one-sided bias instead.
    """
    value, se = _mean_se(_entropy_contributions(model, cov, mc))
    return MCEstimate(value, se, mc)


def conditional_entropy(model: ChannelModel) -> float:
    """Exact H(Z|X) for linear and relu channels: pure noise entropy."""
    return 0.5 * model.hidden_dim * math.log(2.0 * math.pi * math.e * model.noise_var)


def estimate_mi(model: ChannelModel, cov: CovarianceMatrix,
                mc: MCConfig) -> MCEstimate:
    """Mutual information I(X;Z) as estimated entropy minus H(Z|X).

    For linear and relu channels the conditional entropy is exactly the
    noise entropy.  For bijective channels H(Z|X) carries the same Jacobian
    expectation as H(Z); it is estimated from an independent substream so
    comparisons against the linear channel stay statistically meaningful.
    """
    contributions = _entropy_contributions(model, cov, mc)
    value, se = _mean_se(contributions)
    cond = conditional_entropy(model)
    if model.activation == "bijective":
        rng = np.random.default_rng(np.random.SeedSequence(mc.seed).spawn(4)[3])
        x = sample_gaussian_inputs(cov, mc.n_outer, rng)
        noise = rng.standard_normal((mc.n_outer, model.hidden_dim)) \
            * math.sqrt(model.noise_var)
        log_dets = _tanh_log_deriv(model.preactivation(x) + noise).sum(axis=1)
        corr, corr_se = _mean_se(log_dets)
        cond += corr
        se = math.hypot(se, corr_se)
    return MCEstimate(value - cond, se, mc)


def delta_bound(model: ChannelModel, cov: CovarianceMatrix) -> float:
    """Upper bound on the total variation between relu and linear marginals.

    The two channels share conditionals whenever the pre-activation stays
    non-negative, so the union bound sum_i P(pre_i < 0) =
    sum_i Phi(-b_i / sd_i) bounds the marginal total variation.  A zero
    pre-activation variance contributes 1 when b_i < 0 and 0 otherwise.
    """
    if model.activation != "relu":
        raise ConfigError("delta_bound applies to relu channels")
    w = model.weights.entries
    variances = np.einsum("ij,jk,ik->i", w, cov.entries, w)
    bound = 0.0
    for b_i, v_i in zip(model.bias, variances):
        if v_i > 0.0:
            bound += 0.5 * math.erfc(b_i / math.sqrt(2.0 * v_i))
        elif b_i < 0.0:
            bound += 1.0
    return min(1.0, bound)


def g_bound(delta: float, noise_var: float, hidden_dim: int) -> float:
    """Explicit bound on the MI gap between relu and linear channels.

    4 d |log 2d| + 2 d |log M| + 2 h2(d) with M = max(1, (2 pi s)^(-N/2)),
    valid for total variation d in [0, 1/e); h2 is the binary entropy.
    """
    if not 0.0 <= delta < _INV_E:
        raise DeltaOutOfRange(f"delta must lie in [0, 1/e), got {delta}")
    if delta == 0.0:
        return 0.0
    m_const = max(1.0, (2.0 * math.pi * noise_var) ** (-0.5 * hidden_dim))
    h2 = -delta * math.log(delta) - (1.0 - delta) * math.log1p(-delta)
    return (4.0 * delta * abs(math.log(2.0 * delta))
            + 2.0 * delta * abs(math.log(m_const))
            + 2.0 * h2)


def verify_entropy_ordering(model: ChannelModel, cov: CovarianceMatrix,
                            mc: MCConfig) -> dict:
    """Checks that the relu channel's output entropy never exceeds its
    linear twin's, using common random numbers for variance reduction."""
    if model.activation != "relu":
        raise ConfigError("verify_entropy_ordering takes a relu channel")
    h_relu = _entropy_contributions(model, cov, mc)
    h_linear = _entropy_contributions(replace(model, activation="linear"), cov, mc)
    lin_value, lin_se = _mean_se(h_linear)
    relu_value, relu_se = _mean_se(h_relu)
    diff_value, diff_se = _mean_se(h_relu - h_linear)
    return {
        "theorem": "relu-entropy-ordering",
        "rows": [{
            "h_linear": lin_value,
            "se_linear": lin_se,
            "h_relu": relu_value,
            "se_relu": relu_se,
            "difference": diff_value,
            "se_difference": diff_se,
        }],
        "pass": bool(diff_value <= 3.0 * diff_se),
    }
