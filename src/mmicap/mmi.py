"""Closed-form maximum mutual information of Gaussian-input architectures.

For a linear map with isotropic Gaussian output noise of variance s, the
capacity under a squared-Frobenius weight budget F is a water-filling over
the input eigenvalues lambda_1 >= lambda_2 >= ...  With m components active,
F lies between the breakpoints rho_m and rho_{m+1}, and

    MMI = c_m + (m/2) log1p((F - rho_m) lambda_m / (m s))

where c_m = (1/2) sum_{i<=m} log(lambda_i / lambda_m) is the capacity at
rho_m.  Evaluation and inversion both use this one expression, read from the
breakpoints and breakpoint capacities held on the spectrum.  Convolutional
and multilayer families reduce to it.  All values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DimensionMismatch, IndexOutOfRange, TargetUnreachable,
                     budgets, positive)
from .spectrum import BlockCovariance, Spectrum, decompose_covariance
from .waterfill import Breakpoints, _waterfill_state, breakpoints, regime

#: Default upper bracket for budget inversion.
DEFAULT_BUDGET_MAX = 1e6


@dataclass(frozen=True)
class FullyConnected:
    """Dense single-layer family: input_dim -> hidden_dim."""

    input_dim: int
    hidden_dim: int

    def __post_init__(self) -> None:
        for name in ("input_dim", "hidden_dim"):
            positive(getattr(self, name), name, integer=True, error=DimensionMismatch)

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
        for name in ("input_dim", "block_size", "num_filters"):
            positive(getattr(self, name), name, integer=True, error=DimensionMismatch)
        if self.input_dim % self.block_size != 0:
            raise DimensionMismatch(
                f"block_size {self.block_size} must divide input_dim {self.input_dim}")

    @property
    def repetitions(self) -> int:
        return self.input_dim // self.block_size

    @property
    def bottleneck(self) -> int:
        return min(self.block_size, self.num_filters)


@dataclass(frozen=True)
class MultiLayer:
    """Stacked dense layers; widths are the hidden-layer sizes in order.

    The budget constrains the end-to-end product matrix, whose rank is
    capped by the narrowest layer, so the stack collapses to the dense
    formula at hidden_dim = min(widths).
    """

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        widths = tuple(positive(w, f"width_{i + 1}", integer=True, error=DimensionMismatch)
                       for i, w in enumerate(self.widths))
        if not widths:
            raise DimensionMismatch("widths must be non-empty")
        object.__setattr__(self, "widths", widths)

    def bottleneck(self, input_dim: int) -> int:
        return min(input_dim, *self.widths)


@dataclass(frozen=True)
class ArchitectureSpec:
    """An architecture family.  Relu and bijective activations have the
    capacity of the linear network, so the closed form reads nothing else."""

    family: FullyConnected | Convolutional | MultiLayer


@dataclass(frozen=True, eq=False)
class MmiResult:
    """Capacity value with the regime bookkeeping behind it.

    regime counts the components excluded from the active set;
    active_components = bottleneck - regime is the branch order of the
    piecewise formula that produced ``nats``.  For an array of budgets,
    ``nats``, ``regime`` and ``active_components`` are arrays over them.
    Immutable and compared by identity; every point of a curve shares one ``breakpoints``.
    """

    nats: float
    regime: int
    breakpoints: Breakpoints
    active_components: int


def _scaled(x, num, den: float):
    """x * num / den elementwise, formed from the mantissas with the exponents
    added apart, so nothing over- or underflows before the result does."""
    (xm, xe), (nm, ne), (dm, de) = np.frexp(x), np.frexp(num), math.frexp(den)
    return np.ldexp(xm * nm / dm, xe + ne - de)


def mmi_formula(spectrum: Spectrum, noise_var: float, n_tilde: int, budget,
                active_count):
    """One branch of the piecewise capacity in nats, elementwise over budgets
    and active counts m in [1, n_tilde]: c_m + (m/2) log1p(rise lambda_m / s),
    rise = (F - rho_m) / m from the breakpoints held for ``(noise_var,
    n_tilde)``.  The floor s / lambda_m is never formed (``_scaled``); past the
    double range log1p is log(rise) + log(lambda_m) - log(s)."""
    _, bp = _waterfill_state(spectrum, noise_var, n_tilde)
    m = np.asarray(active_count)
    if m.dtype.kind not in "iu" or m.size and (m.min() < 1 or m.max() > len(bp)):
        raise IndexOutOfRange(f"active count {active_count} not an integer in [1, {len(bp)}]")
    eigenvalue = spectrum.values[m - 1]
    rise = (budget - bp.values[m - 1]) / m
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = _scaled(rise, eigenvalue, noise_var)
        grown = np.where(np.isfinite(ratio), np.log1p(ratio),
                         np.log(rise) + np.log(eigenvalue) - math.log(noise_var))
    nats = spectrum.breakpoint_capacities[m - 1] + 0.5 * m * grown
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
    spectrum, n_tilde, repetitions = _reduce(arch, source)
    bp = breakpoints(spectrum, noise_var, n_tilde)
    budget = budgets(budget)
    excluded = regime(budget, bp)
    active = n_tilde - excluded
    nats = repetitions * mmi_formula(spectrum, noise_var, n_tilde, budget, active)
    return MmiResult(nats, excluded, bp, active)


def mmi_curve(arch: ArchitectureSpec, source, noise_var: float,
              budget_grid) -> list[tuple[float, MmiResult]]:
    """Pointwise capacity along an ascending budget grid."""
    grid = budgets(budget_grid)
    if np.ndim(grid) != 1 or grid.size == 0:
        raise DimensionMismatch("budget grid must be a non-empty 1-D sequence")
    if np.any(np.diff(grid) < 0.0):
        raise ConfigError("budget grid must be ascending")
    out = evaluate(arch, source, noise_var, grid)
    bp = out.breakpoints
    return [(f, MmiResult(v, k, bp, m)) for f, v, k, m in zip(
        grid.tolist(), out.nats.tolist(), out.regime.tolist(),
        out.active_components.tolist())]


def invert_mmi(arch: ArchitectureSpec, source, noise_var: float,
               target_nats: float, budget_max: float = DEFAULT_BUDGET_MAX) -> float:
    """Budget at which the capacity reaches ``target_nats``, in closed form.

    Two scalar ``evaluate`` calls and a binary search.  Every family is r
    times a dense capacity, inverted here at target / r.  This inverts the
    expression ``mmi_formula`` evaluates, C(F) = C(rho_m) + (m / 2) log1p((F -
    rho_m) lambda_m / (m s)), without cancellation.  The capacity at
    ``budget_max`` raises TargetUnreachable and gives the breakpoints; m is
    the number of breakpoint capacities that do not exceed the target, found
    by binary search; C(rho_m) is the second evaluation.
    """
    target_nats = positive(target_nats, "target_nats")
    spectrum, n_tilde, repetitions = _reduce(arch, source)
    dense = ArchitectureSpec(FullyConnected(len(spectrum), n_tilde))
    target = target_nats / repetitions
    ceiling = evaluate(dense, spectrum, noise_var, budget_max)
    if ceiling.nats < target:
        raise TargetUnreachable(
            f"target {target_nats} nats exceeds the capacity at budget {budget_max}")
    capacities = spectrum.breakpoint_capacities[:ceiling.active_components]
    m = int(np.searchsorted(capacities, target, side="right"))
    rho = float(ceiling.breakpoints.values[m - 1])
    at_rho = evaluate(dense, spectrum, noise_var, rho).nats
    grown = 2.0 * (target - at_rho) / m
    eigenvalue = float(spectrum.values[m - 1])
    try:
        rise = float(_scaled(math.expm1(grown), noise_var, eigenvalue))
    except OverflowError:  # expm1(grown) and exp(grown) agree to far below an ulp
        rise = math.exp(grown + math.log(noise_var) - math.log(eigenvalue))
    return float(rho + m * rise)
