"""Closed-form maximum mutual information of Gaussian-input architectures.

For a linear map with isotropic Gaussian output noise, the capacity under a
squared-Frobenius weight budget F is, with m components active,

    MMI = (m/2) log((F + s * T_m) / (s * m)) + (1/2) sum_{i<=m} log lambda_i

where s is the noise variance and T_m the sum of the leading m reciprocal
eigenvalues.  The active-set size m follows from the breakpoint sequence.
Convolutional and multilayer families reduce to this same expression.
All values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeBudget, TargetUnreachable
from .spectrum import BlockCovariance, Spectrum, decompose_covariance
from .waterfill import Breakpoints, breakpoints, regime

ACTIVATIONS = ("linear", "relu", "bijective")

#: Default upper bracket for budget inversion.
DEFAULT_BUDGET_MAX = 1e6


@dataclass(frozen=True)
class FullyConnected:
    """Dense single-layer family: input_dim -> hidden_dim."""

    input_dim: int
    hidden_dim: int

    def __post_init__(self) -> None:
        _check_dims(input_dim=self.input_dim, hidden_dim=self.hidden_dim)

    @property
    def bottleneck(self) -> int:
        return min(self.input_dim, self.hidden_dim)


@dataclass(frozen=True)
class Convolutional:
    """Non-overlapping-stride convolution: block_size inputs per patch,
    num_filters output channels, block_size divides input_dim."""

    input_dim: int
    block_size: int
    num_filters: int

    def __post_init__(self) -> None:
        _check_dims(input_dim=self.input_dim, block_size=self.block_size,
                    num_filters=self.num_filters)
        if self.input_dim % self.block_size != 0:
            raise DimensionMismatch(
                f"block_size {self.block_size} must divide input_dim {self.input_dim}"
            )

    @property
    def repetitions(self) -> int:
        return self.input_dim // self.block_size

    @property
    def bottleneck(self) -> int:
        return min(self.block_size, self.num_filters)


@dataclass(frozen=True)
class MultiLayer:
    """Stacked dense layers; widths are the hidden-layer sizes in order."""

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.widths)
        if not widths:
            raise DimensionMismatch("widths must be non-empty")
        _check_dims(**{f"width_{i + 1}": w for i, w in enumerate(widths)})
        object.__setattr__(self, "widths", widths)

    def bottleneck(self, input_dim: int) -> int:
        return min(input_dim, *self.widths)


@dataclass(frozen=True)
class ArchitectureSpec:
    """An architecture family plus its activation tag.

    The closed form is identical for linear, relu and bijective activations;
    the tag survives into results so verification reports can route the
    stochastic checks.
    """

    family: FullyConnected | Convolutional | MultiLayer
    activation: str = "linear"

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise DimensionMismatch(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )


@dataclass(frozen=True)
class ChannelParams:
    """Noise variance of the output channel and the weight budget(s)."""

    noise_var: float
    budget: float | np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.noise_var < math.inf:
            raise ValueError(f"noise_var must be positive and finite, got {self.noise_var}")
        budget = np.asarray(self.budget)
        if not np.all((0.0 <= budget) & (budget < math.inf)):
            raise NegativeBudget(f"budget must be non-negative and finite, got {self.budget}")


@dataclass(frozen=True)
class MmiResult:
    """Capacity value with the regime bookkeeping behind it.

    regime counts the components excluded from the active set;
    active_components = bottleneck - regime is the branch order of the
    piecewise formula that produced ``nats``.  For an array of budgets,
    ``nats``, ``regime`` and ``active_components`` are arrays over them.
    """

    nats: float
    regime: int
    breakpoints: Breakpoints
    active_components: int
    activation: str = "linear"


def _check_dims(**dims: int) -> None:
    for name, value in dims.items():
        if int(value) != value or value < 1:
            raise DimensionMismatch(f"{name} must be a positive integer, got {value}")


def mmi_formula(spectrum: Spectrum, noise_var: float, budget, active_count):
    """One branch of the piecewise capacity expression in nats, elementwise
    over arrays of budgets and active counts.  Taken as (m/2) logaddexp(0,
    log(F / (s T_m))) + (1/2)(m log(T_m / m) + log det_m), in which s enters
    through one log ratio, so the value is finite wherever the capacity is."""
    m = np.asarray(active_count)
    log_trace = np.log(spectrum.inverse_trace(m))
    with np.errstate(divide="ignore"):
        log_ratio = np.log(budget) - math.log(noise_var) - log_trace
    nats = 0.5 * m * np.logaddexp(0.0, log_ratio) \
        + 0.5 * (m * (log_trace - np.log(m)) + spectrum.log_det(m))
    return float(nats) if np.ndim(nats) == 0 else nats


def _reduce(arch: ArchitectureSpec, source) -> tuple[Spectrum, int, int]:
    """Spectrum, bottleneck and repetition count the closed form reads: ``source``
    is a Spectrum, or for conv a BlockCovariance whose block is decomposed here."""
    family = arch.family
    if not isinstance(family, (FullyConnected, Convolutional, MultiLayer)):
        raise DimensionMismatch(f"unknown architecture family {family!r}")
    kind = BlockCovariance if isinstance(family, Convolutional) else Spectrum
    if not isinstance(source, kind):
        raise DimensionMismatch(f"{type(family).__name__} architectures take a "
                                f"{kind.__name__} source, got {type(source).__name__}")
    if isinstance(family, Convolutional):
        if source.input_dim != family.input_dim or source.block.dim != family.block_size:
            raise DimensionMismatch(
                f"block covariance ({source.block.dim} x {source.repetitions}) does "
                f"not match conv dims ({family.block_size} x {family.repetitions})")
        return decompose_covariance(source.block).spectrum, family.bottleneck, \
            source.repetitions
    if isinstance(family, MultiLayer):
        return source, family.bottleneck(len(source)), 1
    if len(source) != family.input_dim:
        raise DimensionMismatch(
            f"spectrum has {len(source)} eigenvalues, input_dim is {family.input_dim}")
    return source, family.bottleneck, 1


def evaluate(arch: ArchitectureSpec, source, noise_var: float, budget) -> MmiResult:
    """Capacity of any architecture family at one budget or a 1-D array of them.

    A convolutional capacity is repetitions times the dense capacity of one
    block: the budget is shared by the single filter, not divided across
    blocks.  The breakpoints are computed once for all budgets.
    """
    ChannelParams(noise_var, budget)
    spectrum, n_tilde, repetitions = _reduce(arch, source)
    bp = breakpoints(spectrum, noise_var, n_tilde)
    budgets = np.asarray(budget, dtype=np.float64)
    excluded = regime(budgets, bp)
    active = n_tilde - excluded
    nats = np.where(budgets == 0.0, 0.0,
                    repetitions * mmi_formula(spectrum, noise_var, budgets, active))
    nats = float(nats) if budgets.ndim == 0 else nats
    return MmiResult(nats, excluded, bp, active, arch.activation)


def mmi_fc(params: ChannelParams, spectrum: Spectrum, input_dim: int,
           hidden_dim: int, activation: str = "linear") -> MmiResult:
    """Capacity of the dense single-layer family."""
    arch = ArchitectureSpec(FullyConnected(input_dim, hidden_dim), activation)
    return evaluate(arch, spectrum, params.noise_var, params.budget)


def mmi_conv(params: ChannelParams, block: BlockCovariance,
             num_filters: int, activation: str = "linear") -> MmiResult:
    """Capacity of the tied-filter convolutional family."""
    arch = ArchitectureSpec(
        Convolutional(block.input_dim, block.block.dim, num_filters), activation)
    return evaluate(arch, block, params.noise_var, params.budget)


def mmi_multilayer(params: ChannelParams, spectrum: Spectrum,
                   widths, activation: str = "linear") -> MmiResult:
    """Capacity of a stack of dense layers with noise on the last one.

    The budget constrains the end-to-end product matrix, whose rank is
    capped by the narrowest layer, so the stack collapses to the dense
    formula at hidden_dim = min(widths).
    """
    family = widths if isinstance(widths, MultiLayer) else MultiLayer(tuple(widths))
    return evaluate(ArchitectureSpec(family, activation), spectrum,
                    params.noise_var, params.budget)


def mmi_approx_large_n(spectrum: Spectrum, n_tilde: int) -> float:
    """Budget-free approximation for wide bottlenecks.

    Half the sum of log(lambda_i * r) over the leading n_tilde components,
    with r the mean reciprocal eigenvalue of those components.  This is the
    full-active-set branch with the budget term dropped; the error against
    that branch is (n_tilde/2) * log(1 + F / (noise_var * T)).
    """
    mean_reciprocal = spectrum.inverse_trace(n_tilde) / n_tilde
    return float(0.5 * np.sum(np.log(spectrum.values[:n_tilde] * mean_reciprocal)))


def mmi_curve(arch: ArchitectureSpec, source, noise_var: float,
              budget_grid) -> list[tuple[float, MmiResult]]:
    """Pointwise capacity along an ascending budget grid."""
    grid = np.asarray(budget_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise DimensionMismatch("budget grid must be a non-empty 1-D sequence")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("budget grid must be ascending")
    out = evaluate(arch, source, noise_var, grid)
    return [(float(f), MmiResult(float(v), int(k), out.breakpoints, int(m), out.activation))
            for f, v, k, m in zip(grid, out.nats, out.regime, out.active_components)]


def invert_mmi(arch: ArchitectureSpec, source, noise_var: float,
               target_nats: float, budget_max: float = DEFAULT_BUDGET_MAX) -> float:
    """Budget at which the capacity reaches ``target_nats``, in closed form.

    Every family is r times a dense capacity, inverted here at target / r.
    With m components active the water level starts at s / lambda_m at the
    breakpoint rho_m, so in that regime C(F) = C(rho_m) + (m / 2) log1p((F -
    rho_m) / (m s / lambda_m)), which inverts without cancellation; m is the
    number of breakpoints whose capacity does not exceed the target.
    """
    if not target_nats > 0.0:
        raise ValueError(f"target_nats must be positive, got {target_nats}")
    spectrum, n_tilde, repetitions = _reduce(arch, source)
    dense = ArchitectureSpec(FullyConnected(len(spectrum), n_tilde))
    target = target_nats / repetitions
    ceiling = evaluate(dense, spectrum, noise_var, budget_max)
    if ceiling.nats < target:
        raise TargetUnreachable(
            f"target {target_nats} nats exceeds the capacity at budget {budget_max}")
    rho = ceiling.breakpoints.values
    at_rho = evaluate(dense, spectrum, noise_var, rho).nats
    m = int(np.count_nonzero(at_rho <= target))
    level = noise_var / spectrum.values[m - 1]
    return float(rho[m - 1] + m * level * math.expm1(2.0 * (target - at_rho[m - 1]) / m))
