"""Closed-form maximum mutual information of Gaussian-input architectures.

For a linear map with isotropic Gaussian output noise of variance s, the
capacity under a squared-Frobenius weight budget F is a water-filling over
the input eigenvalues lambda_1 >= lambda_2 >= ...  With m components active,
F lies between the breakpoints rho_m and rho_{m+1}, and

    MMI = c_m + (m/2) log1p((F - rho_m) lambda_m / (m s))

where c_m = (1/2) sum_{i<=m} log(lambda_i / lambda_m) is the capacity at
rho_m.  Evaluation and inversion both use this one expression, read from the
one water-filling entry (rho, c) held on the spectrum.  Convolutional
and multilayer families reduce to it.  All values are in nats.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DimensionMismatch, IndexOutOfRange, NumericalOverflow,
                     budgets, positive)
from .spectrum import BlockCovariance, Spectrum, decompose_covariance
from .waterfill import _waterfill_state, breakpoints, regime


@dataclass(frozen=True)
class FullyConnected:
    """Dense single-layer family: input_dim -> hidden_dim."""

    input_dim: int
    hidden_dim: int

    def __post_init__(self) -> None:
        for name in ("input_dim", "hidden_dim"):
            object.__setattr__(self, name, positive(getattr(self, name), name, integer=True,
                                                    error=DimensionMismatch))

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
            object.__setattr__(self, name, positive(getattr(self, name), name, integer=True,
                                                    error=DimensionMismatch))
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
        try:
            widths = tuple(self.widths)
        except TypeError:
            widths = None
        if widths is None or isinstance(self.widths, (str, bytes, bytearray, Mapping)):
            raise DimensionMismatch(f"widths must be an iterable of integers, got {self.widths!r}")
        widths = tuple(positive(w, f"width_{i + 1}", integer=True, error=DimensionMismatch)
                       for i, w in enumerate(widths))
        if not widths:
            raise DimensionMismatch("widths must be non-empty")
        object.__setattr__(self, "widths", widths)

    def bottleneck(self, input_dim: int) -> int:
        return min(input_dim, *self.widths)


def ArchitectureSpec(family):
    """``family``, unchanged.  The closed form takes the family itself; this name
    stays only because the benchmark and existing callers still wrap families in it."""
    return family


@dataclass(frozen=True, eq=False)
class MmiResult:
    """Capacity value with the regime bookkeeping behind it.

    regime counts the components excluded from the active set;
    active_components = bottleneck - regime is the branch order of the
    piecewise formula that produced ``nats``.  For an array of budgets,
    ``nats``, ``regime`` and ``active_components`` are arrays over them.
    ``breakpoints`` is the read-only array ``waterfill.breakpoints`` holds on
    the spectrum, the same object for every result read from that state.
    Immutable and compared by identity.
    """

    nats: float
    regime: int
    breakpoints: np.ndarray
    active_components: int


class CurvePoint(NamedTuple):
    """One ``mmi_curve`` point; the curve's breakpoints are on ``evaluate``'s result."""

    nats: float
    regime: int
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
    rise = (F - rho_m) / m, both anchors read from the entry held for
    ``(noise_var, n_tilde)``.  The floor s / lambda_m is never formed
    (``_scaled``); past the double range log1p is log(rise) + log(lambda_m) -
    log(s), formed only there.  A float budget with an int count is formed in
    Python floats, bit for bit as an array point; anything else, in arrays.
    Raises NegativeBudget unless every budget lies in [0, inf)."""
    budget = budgets(budget)
    rho, capacities = _waterfill_state(spectrum, noise_var, n_tilde)
    m = active_count
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if type(budget) is float and type(m) is int and 1 <= m <= rho.size:
            eigenvalue, rise = spectrum.values.item(m - 1), (budget - rho.item(m - 1)) / m
            ratio = _scaled(rise, eigenvalue, noise_var)
            grown = float(np.log1p(ratio) if math.isfinite(ratio) else
                          np.log(rise) + np.log(eigenvalue) - math.log(noise_var))
            return capacities.item(m - 1) + 0.5 * m * grown
        m = np.asarray(m)
        if m.dtype.kind not in "iu" or m.size and (m.min() < 1 or m.max() > rho.size):
            raise IndexOutOfRange(f"active count {active_count} not an integer in [1, {rho.size}]")
        eigenvalue = spectrum.values[m - 1]
        rise = (budget - rho[m - 1]) / m
        ratio = _scaled(rise, eigenvalue, noise_var)
        grown, past = np.log1p(ratio), ~np.isfinite(ratio)
        if past.any():
            grown, lam = np.array(grown), np.broadcast_to(eigenvalue, past.shape)
            grown[past] = np.log(rise[past]) + np.log(lam[past]) - math.log(noise_var)
    return capacities[m - 1] + 0.5 * m * grown


def _reduce(family, source) -> tuple[Spectrum, int, int]:
    """Spectrum, bottleneck and repetition count the closed form reads.  ``source``
    is a Spectrum: of the inputs for fc, of one block for conv (or a BlockCovariance,
    whose block is decomposed here), of any length for mlp."""
    if not isinstance(family, (FullyConnected, Convolutional, MultiLayer)):
        raise DimensionMismatch(f"unknown architecture family {family!r}")
    conv = isinstance(family, Convolutional)
    if conv and isinstance(source, BlockCovariance):
        if source.input_dim != family.input_dim or source.block.dim != family.block_size:
            raise DimensionMismatch(
                f"block covariance ({source.block.dim} x {source.repetitions}) does "
                f"not match conv dims ({family.block_size} x {family.repetitions})")
        source = decompose_covariance(source.block).spectrum
    if not isinstance(source, Spectrum):
        raise DimensionMismatch(f"{type(family).__name__} architectures take a Spectrum "
                                f"source, got {type(source).__name__}")
    if isinstance(family, MultiLayer):
        return source, family.bottleneck(len(source)), 1
    name, length = ("block_size", family.block_size) if conv else ("input_dim", family.input_dim)
    if len(source) != length:
        raise DimensionMismatch(f"spectrum has {len(source)} eigenvalues, {name} is {length}")
    return source, family.bottleneck, family.repetitions if conv else 1


def evaluate(arch, source, noise_var: float, budget) -> MmiResult:
    """Capacity of ``arch``, a FullyConnected, Convolutional or MultiLayer family, at
    one budget or a 1-D array of them.  Relu and bijective activations have the
    linear capacity, so the family is all the closed form reads of a network.

    A convolutional capacity is repetitions times the dense capacity of one
    block: the budget is shared by the single filter, not divided across
    blocks.  The breakpoints are computed once for all budgets.
    """
    spectrum, n_tilde, repetitions = _reduce(arch, source)
    rho = breakpoints(spectrum, noise_var, n_tilde)
    excluded = regime(budget, rho)
    active = n_tilde - excluded
    nats = repetitions * mmi_formula(spectrum, noise_var, n_tilde, budget, active)
    return MmiResult(nats, excluded, rho, active)


def mmi_curve(arch, source, noise_var: float, budget_grid) -> list[tuple[float, CurvePoint]]:
    """``(budget, CurvePoint)`` pairs along an ascending grid, from one ``evaluate``."""
    out = evaluate(arch, source, noise_var, budget_grid)
    grid = np.asarray(budget_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise DimensionMismatch("budget grid must be a non-empty 1-D sequence")
    if np.any(np.diff(grid) < 0.0):
        raise ConfigError("budget grid must be ascending")
    return list(zip(grid.tolist(), map(tuple.__new__, repeat(CurvePoint), zip(
        out.nats.tolist(), out.regime.tolist(), out.active_components.tolist()))))


def invert_mmi(arch, source, noise_var: float, target_nats: float) -> float:
    """Budget at which the capacity reaches ``target_nats``, in closed form.

    Every family is r times a dense capacity, inverted here at target / r.
    The capacity rises without bound, so every positive target has a budget.
    m is the number of breakpoint capacities that do not exceed the target,
    found by binary search; one scalar ``evaluate`` gives C(rho_m), and the
    expression ``mmi_formula`` evaluates, C(F) = C(rho_m) + (m / 2)
    log1p((F - rho_m) lambda_m / (m s)), is inverted without cancellation.
    A budget past the double range raises NumericalOverflow.
    """
    target_nats = positive(target_nats, "target_nats")
    spectrum, n_tilde, repetitions = _reduce(arch, source)
    target = target_nats / repetitions
    rho, capacities = _waterfill_state(spectrum, noise_var, n_tilde)
    m = int(np.searchsorted(capacities[:n_tilde], target, side="right"))
    rho = float(rho[m - 1])
    if rho == math.inf:
        raise NumericalOverflow(f"the budget for {target_nats} nats passes the double range")
    dense = FullyConnected(len(spectrum), n_tilde)
    grown = 2.0 * (target - evaluate(dense, spectrum, noise_var, rho).nats) / m
    eigenvalue = float(spectrum.values[m - 1])
    with np.errstate(over="ignore"):  # an overflow is caught below as an infinite budget
        try:
            rise = float(_scaled(math.expm1(grown), noise_var, eigenvalue))
        except OverflowError:  # expm1(grown) and exp(grown) agree to far below an ulp
            rise = float(np.exp(grown + math.log(noise_var) - math.log(eigenvalue)))
    budget = rho + m * rise
    if not math.isfinite(budget):
        raise NumericalOverflow(f"the budget for {target_nats} nats passes the double range")
    return budget
