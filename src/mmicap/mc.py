"""Seeded Monte-Carlo estimators for channel entropy and mutual information.

The marginal of the channel output is an exact, uniformly weighted mixture of
Gaussians centred at the channel means of input draws, so its density can be
evaluated in closed form at any point (log-sum-exp over mixture components);
no bandwidth selection is involved.  Outer evaluation points and inner
mixture centres come from independent substreams of one seed, which keeps
the plug-in bias one-sided and the estimates reproducible bit-for-bit.

The density evaluation splits its points into chunks of fixed boundaries.
The calling thread and the threads it starts for one call, at most MMI_THREADS
in all (0 or unset: up to 4, no more than the usable CPUs; over MAX_THREADS,
64, raises ConfigError), claim chunks from one shared counter until none is
left; every thread is joined before the call returns.  Each chunk writes its own
slice of the result, so results do not depend on the thread count.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import (ConfigError, NotPositiveDefinite, NumericalOverflow, NumericalUnderflow,
                     finite, fits, positive)
from .spectrum import CovarianceMatrix

if TYPE_CHECKING:
    from .oracle import WeightMatrix

#: Upper limit on elements per exponent chunk: 1 MB of float64, so a chunk's
#: product, exp and row sums all run in a core's L2 cache, and memory stays
#: flat at one chunk per worker.
_CHUNK_ELEMENTS = 1 << 17

MAX_THREADS = 64  #: MMI_THREADS ceiling: a call starts at most MMI_THREADS - 1 threads


def _tanh_log_deriv(a: np.ndarray) -> np.ndarray:
    # log(1 - tanh(a)^2) = 2 (log 2 - |a| - log1p(exp(-2|a|))), stable for large |a|
    mag = np.abs(a)
    return 2.0 * (math.log(2.0) - mag - np.log1p(np.exp(-2.0 * mag)))


@dataclass(frozen=True, eq=False)
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
        bias = np.asarray(finite(self.bias, "bias"))
        if bias.ndim != 1 or bias.size != self.weights.hidden_dim:
            raise ConfigError(
                f"bias must have length {self.weights.hidden_dim}, got shape {bias.shape}")
        object.__setattr__(self, "noise_var", positive(self.noise_var, "noise_var"))
        if self.activation not in ("linear", "relu", "bijective"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "bias", bias)

    @property
    def hidden_dim(self) -> int:
        return self.weights.hidden_dim

    def preactivation(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # the density kernel checks it
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
        for name, least in (("n_outer", 100), ("n_inner", 100), ("seed", 0)):
            object.__setattr__(self, name, positive(getattr(self, name), name,
                                                    integer=True, least=least))


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate in nats with its standard error."""

    value: float
    std_error: float


def sample_gaussian_inputs(cov: CovarianceMatrix, n: int, seed) -> np.ndarray:
    """n centred Gaussian draws with covariance ``cov`` (rows are samples)."""
    try:
        chol = np.linalg.cholesky(cov.entries)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance has no Cholesky factor: {exc}") from exc
    rng = np.random.default_rng(seed)
    return rng.standard_normal((positive(n, "n", integer=True), cov.dim)) @ chol.T


def _thread_count() -> int:
    raw = os.environ.get("MMI_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"MMI_THREADS must be an integer, got {raw!r}") from exc
    if positive(n, "MMI_THREADS", integer=True, least=0) > MAX_THREADS:
        raise ConfigError(f"MMI_THREADS must be at most {MAX_THREADS}, got {n}")
    if n == 0:
        # the CPUs this process may run on, which can be fewer than the host's
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count())
        return min(4, usable or 1)
    return n


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
    component underflowed, which raises NumericalUnderflow.  No partial sum
    of an exponent's terms passes (sqrt(max |p|^2/(2 s)) + sqrt(max |c|^2/(2 s)))^2
    up to rounding; unless that stays within the largest double and the rows
    are finite, NumericalOverflow is raised before any thread starts.
    Chunk boundaries are fixed.  The call starts min(MMI_THREADS, chunks) - 1
    threads and works in its own thread too; each worker claims chunks from
    one shared counter, computes them in its own reused buffer and writes
    each chunk's own slice of the result.  Every thread is joined before the
    call returns or raises the first error a worker caught.
    """
    n_points, dim = points.shape
    n_centres = centres.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
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
    reach = math.sqrt(-lhs[:, dim].min()) + math.sqrt(-rhs[dim + 1].min())
    if not (reach * reach <= np.finfo(np.float64).max and np.isfinite(lhs).all()):
        raise NumericalOverflow(
            "channel means or their squared norms pass the double range in the mixture density")
    sums = np.empty(n_points)
    rows = max(1, _CHUNK_ELEMENTS // n_centres)
    chunks = -(-n_points // rows)
    next_chunk = itertools.count().__next__  # atomic under the GIL
    errors: list[BaseException] = []

    def work() -> None:
        try:
            buf = np.empty((min(rows, n_points), n_centres))
            while (chunk := next_chunk()) < chunks:
                start = chunk * rows
                stop = min(start + rows, n_points)
                expo = np.matmul(lhs[start:stop], rhs, out=buf[:stop - start])
                np.exp(expo, out=expo)
                sums[start:stop] = expo.sum(axis=1)
        except BaseException as exc:  # raised by the caller once every worker stops
            errors.append(exc)

    started = []
    try:
        for _ in range(min(_thread_count(), chunks) - 1):
            thread = threading.Thread(target=work, name="mmicap-mc")
            thread.start()
            started.append(thread)
        work()
    finally:  # no thread is still writing into sums once the call returns or raises
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    with np.errstate(divide="ignore"):
        log_sums = np.log(sums)
    if not np.all(np.isfinite(log_sums)):
        raise NumericalUnderflow("mixture density underflowed at some evaluation points")
    return log_sums - math.log(n_centres) - 0.5 * dim * math.log(2.0 * math.pi * noise_var)


def _draw(model: ChannelModel, cov: CovarianceMatrix, mc: MCConfig):
    """Inner inputs, outer inputs and outer noise from substreams 0, 1 and 2
    of ``mc.seed`` (3 is reserved for the conditional Jacobian term of
    bijective channels)."""
    fits(model.weights, cov)
    ss = np.random.SeedSequence(mc.seed).spawn(3)
    x_inner = sample_gaussian_inputs(cov, mc.n_inner, ss[0])
    x_outer = sample_gaussian_inputs(cov, mc.n_outer, ss[1])
    noise = np.random.default_rng(ss[2]).standard_normal(
        (mc.n_outer, model.hidden_dim)) * math.sqrt(model.noise_var)
    return x_inner, x_outer, noise


def _entropy_contributions(model: ChannelModel, x_inner: np.ndarray,
                           x_outer: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Per-outer-sample plug-in entropy contributions, in nats, from the
    draws of ``_draw``."""
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
    value, se = _mean_se(_entropy_contributions(model, *_draw(model, cov, mc)))
    return MCEstimate(value, se)


def estimate_mi(model: ChannelModel, cov: CovarianceMatrix,
                mc: MCConfig) -> MCEstimate:
    """Mutual information I(X;Z) as estimated entropy minus H(Z|X).

    For linear and relu channels the conditional entropy is exactly the
    noise entropy.  For bijective channels H(Z|X) carries the same Jacobian
    expectation as H(Z); it is estimated from an independent substream so
    comparisons against the linear channel stay statistically meaningful.
    """
    entropy = estimate_entropy(model, cov, mc)
    se = entropy.std_error
    cond = 0.5 * model.hidden_dim * math.log(2.0 * math.pi * math.e * model.noise_var)
    if model.activation == "bijective":
        rng = np.random.default_rng(np.random.SeedSequence(mc.seed).spawn(4)[3])
        x = sample_gaussian_inputs(cov, mc.n_outer, rng)
        noise = rng.standard_normal((mc.n_outer, model.hidden_dim)) \
            * math.sqrt(model.noise_var)
        log_dets = _tanh_log_deriv(model.preactivation(x) + noise).sum(axis=1)
        corr, corr_se = _mean_se(log_dets)
        cond += corr
        se = math.hypot(se, corr_se)
    return MCEstimate(entropy.value - cond, se)


def verify_entropy_ordering(model: ChannelModel, cov: CovarianceMatrix,
                            mc: MCConfig) -> dict:
    """Checks that the relu channel's output entropy never exceeds its
    linear twin's, using common random numbers for variance reduction: one
    draw of the seed feeds both channels."""
    if model.activation != "relu":
        raise ConfigError("verify_entropy_ordering takes a relu channel")
    draws = _draw(model, cov, mc)
    h_relu = _entropy_contributions(model, *draws)
    h_linear = _entropy_contributions(replace(model, activation="linear"), *draws)
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
