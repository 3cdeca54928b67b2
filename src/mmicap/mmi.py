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
from .spectrum import BlockCovariance, Spectrum, eigvals_from_covariance
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
    """Noise variance of the output channel and the weight budget."""

    noise_var: float
    budget: float

    def __post_init__(self) -> None:
        if not 0.0 < self.noise_var < math.inf:
            raise ValueError(f"noise_var must be positive and finite, got {self.noise_var}")
        if not 0.0 <= self.budget < math.inf:
            raise NegativeBudget(f"budget must be non-negative and finite, got {self.budget}")


@dataclass(frozen=True)
class MmiResult:
    """Capacity value with the regime bookkeeping behind it.

    regime counts the components excluded from the active set;
    active_components = bottleneck - regime is the branch order of the
    piecewise formula that produced ``nats``.
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


def mmi_formula(spectrum: Spectrum, noise_var: float, budget: float,
                active_count: int) -> float:
    """One branch of the piecewise capacity expression, in nats."""
    m = active_count
    spectrum._check_prefix(m)
    t = spectrum.inverse_trace(m)
    return 0.5 * m * math.log((budget + noise_var * t) / (noise_var * m)) \
        + 0.5 * spectrum.log_det(m)


def mmi_fc(params: ChannelParams, spectrum: Spectrum, input_dim: int,
           hidden_dim: int, activation: str = "linear") -> MmiResult:
    """Capacity of the dense single-layer family."""
    _check_dims(input_dim=input_dim, hidden_dim=hidden_dim)
    if len(spectrum) != input_dim:
        raise DimensionMismatch(
            f"spectrum has {len(spectrum)} eigenvalues, input_dim is {input_dim}"
        )
    n_tilde = min(input_dim, hidden_dim)
    bp = breakpoints(spectrum, params.noise_var, n_tilde)
    excluded = regime(params.budget, bp)
    active = n_tilde - excluded
    if params.budget == 0.0:
        nats = 0.0
    else:
        nats = mmi_formula(spectrum, params.noise_var, params.budget, active)
    return MmiResult(nats, excluded, bp, active, activation)


def mmi_conv(params: ChannelParams, block: BlockCovariance,
             num_filters: int, activation: str = "linear") -> MmiResult:
    """Capacity of the tied-filter convolutional family.

    Equals repetitions times the dense capacity of one block; the budget is
    shared by the single filter, not divided across blocks.
    """
    _check_dims(num_filters=num_filters)
    block_spectrum = eigvals_from_covariance(block.block)
    inner = mmi_fc(params, block_spectrum, block.block.dim, num_filters, activation)
    return MmiResult(block.repetitions * inner.nats, inner.regime,
                     inner.breakpoints, inner.active_components, activation)


def mmi_multilayer(params: ChannelParams, spectrum: Spectrum,
                   widths, activation: str = "linear") -> MmiResult:
    """Capacity of a stack of dense layers with noise on the last one.

    The budget constrains the end-to-end product matrix, whose rank is
    capped by the narrowest layer, so the stack collapses to the dense
    formula at hidden_dim = min(widths).
    """
    family = widths if isinstance(widths, MultiLayer) else MultiLayer(tuple(widths))
    return mmi_fc(params, spectrum, len(spectrum), min(family.widths), activation)


def mmi_approx_large_n(spectrum: Spectrum, n_tilde: int) -> float:
    """Budget-free approximation for wide bottlenecks.

    Half the sum of log(lambda_i * r) over the leading n_tilde components,
    with r the mean reciprocal eigenvalue of those components.  This is the
    full-active-set branch with the budget term dropped; the error against
    that branch is (n_tilde/2) * log(1 + F / (noise_var * T)).
    """
    spectrum._check_prefix(n_tilde)
    mean_reciprocal = spectrum.inverse_trace(n_tilde) / n_tilde
    return float(0.5 * np.sum(np.log(spectrum.values[:n_tilde] * mean_reciprocal)))


def evaluate(arch: ArchitectureSpec, source, noise_var: float,
             budget: float) -> MmiResult:
    """Dispatch one capacity evaluation for any architecture family.

    ``source`` is a Spectrum for dense and multilayer families and a
    BlockCovariance for the convolutional family.
    """
    params = ChannelParams(noise_var, budget)
    family = arch.family
    if isinstance(family, FullyConnected):
        _expect(source, Spectrum, "fully connected")
        return mmi_fc(params, source, family.input_dim, family.hidden_dim,
                      arch.activation)
    if isinstance(family, Convolutional):
        _expect(source, BlockCovariance, "convolutional")
        if source.input_dim != family.input_dim or source.block.dim != family.block_size:
            raise DimensionMismatch(
                f"block covariance ({source.block.dim} x {source.repetitions}) does "
                f"not match conv dims ({family.block_size} x {family.repetitions})"
            )
        return mmi_conv(params, source, family.num_filters, arch.activation)
    if isinstance(family, MultiLayer):
        _expect(source, Spectrum, "multilayer")
        return mmi_multilayer(params, source, family, arch.activation)
    raise DimensionMismatch(f"unknown architecture family {family!r}")


def _expect(source, kind, label: str) -> None:
    if not isinstance(source, kind):
        raise DimensionMismatch(
            f"{label} architectures take a {kind.__name__} source, "
            f"got {type(source).__name__}"
        )


def mmi_curve(arch: ArchitectureSpec, source, noise_var: float,
              budget_grid) -> list[tuple[float, MmiResult]]:
    """Pointwise capacity along an ascending budget grid."""
    grid = np.asarray(budget_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise DimensionMismatch("budget grid must be a non-empty 1-D sequence")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("budget grid must be ascending")
    return [(float(f), evaluate(arch, source, noise_var, float(f))) for f in grid]


def invert_mmi(arch: ArchitectureSpec, source, noise_var: float,
               target_nats: float, budget_max: float = DEFAULT_BUDGET_MAX) -> float:
    """Budget at which the capacity reaches ``target_nats``.

    Bisects the strictly increasing capacity curve on [0, budget_max] until
    the value matches within 1e-9 nats.
    """
    if not target_nats > 0.0:
        raise ValueError(f"target_nats must be positive, got {target_nats}")
    if evaluate(arch, source, noise_var, budget_max).nats < target_nats:
        raise TargetUnreachable(
            f"target {target_nats} nats exceeds the capacity at budget {budget_max}"
        )
    lo, hi = 0.0, float(budget_max)
    mid = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = evaluate(arch, source, noise_var, mid).nats
        if abs(value - target_nats) <= 1e-9:
            return mid
        if value < target_nats:
            lo = mid
        else:
            hi = mid
    return mid
