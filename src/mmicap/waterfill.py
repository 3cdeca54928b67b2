"""Water-filling allocation of a squared-Frobenius weight budget.

The capacity problem reduces to  sup sum_i log(a_i + f_i)  over allocations
a_i >= 0 with sum a_i <= F, where f_i = noise_var / eigenvalue_i are
per-component floors.  A common water level fills every component whose
floor lies below it; the budgets at which successive components enter the
active set are the breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NegativeBudget, NonPositiveEigenvalue
from .spectrum import Spectrum, _frozen_array


@dataclass(frozen=True)
class Breakpoints:
    """Budgets at which component k = 1..n enters the active set.

    The sequence starts at exactly zero and is non-decreasing.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class WaterfillSolution:
    """Solved allocation at one budget.

    active_count is the number of strictly positive allocations.  It equals
    the regime's active-set size except exactly at a breakpoint (including
    budget 0), where the entering component still holds a zero allocation.
    """

    water_level: float
    allocations: np.ndarray
    active_count: int
    budget_used: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "allocations", _frozen_array(self.allocations))


def _floors_and_breakpoints(spectrum: Spectrum, noise_var: float, n_tilde: int):
    if not 1 <= n_tilde <= len(spectrum):
        raise IndexOutOfRange(f"component count {n_tilde} outside [1, {len(spectrum)}]")
    if noise_var <= 0.0:
        raise ValueError("noise_var must be positive")
    # The smallest eigenvalue of the prefix gives the largest floor.
    if not math.isfinite(noise_var / float(spectrum.values[n_tilde - 1])):
        raise NonPositiveEigenvalue(
            f"noise_var / eigenvalue overflows for noise_var {noise_var} and "
            f"eigenvalue {spectrum.values[n_tilde - 1]}")
    floors = noise_var / spectrum.values[:n_tilde]
    steps = np.arange(1, n_tilde, dtype=np.float64) * np.diff(floors)
    return floors, np.concatenate(([0.0], np.cumsum(steps)))


def breakpoints(spectrum: Spectrum, noise_var: float, n_tilde: int) -> Breakpoints:
    """Full breakpoint sequence for the leading ``n_tilde`` components.

    Computed through the cumulative form
        rho_1 = 0,   rho_{k+1} = rho_k + k * (f_{k+1} - f_k)
    whose increments are non-negative even in floating point, so the
    returned sequence is non-decreasing bit-for-bit and starts at exactly 0.
    The closed form is noise_var * (k / lambda_k - sum_{i<=k} 1 / lambda_i).
    """
    return Breakpoints(_floors_and_breakpoints(spectrum, noise_var, n_tilde)[1])


def breakpoint_value(spectrum: Spectrum, noise_var: float, k: int) -> float:
    """The budget at which component ``k`` (1-based) enters the active set."""
    return float(breakpoints(spectrum, noise_var, k).values[-1])


def regime(budget, bp: Breakpoints):
    """Number of trailing components excluded from the active set.

    Returns the smallest K >= 0 with budget >= breakpoint[n - K]; ties use
    exact floating comparison and resolve toward the larger active set (the
    adjacent capacity branches agree at every breakpoint, so the choice
    never changes the value).  An array of budgets gives an array of K.
    """
    if np.any(np.asarray(budget) < 0.0):
        raise NegativeBudget(f"budget must be non-negative, got {budget}")
    excluded = len(bp) - np.searchsorted(bp.values, budget, side="right")
    return int(excluded) if np.ndim(excluded) == 0 else excluded


def solve_waterfill(budget: float, spectrum: Spectrum, noise_var: float,
                    n_tilde: int) -> WaterfillSolution:
    """Optimal allocation of ``budget`` across the leading components.

    With m components active the water level (budget + sum_{i<=m} f_i) / m
    equals f_m + (budget - rho_m) / m, rho_m being the m-th breakpoint, and
    each allocation level - f_i is evaluated as (f_m - f_i) + (budget - rho_m)
    / m: both terms are non-negative, so nothing cancels when the budget is
    tiny against the floor scale, and the budget stays exactly saturated to
    ~1e-13 relative in O(n) time and memory.
    """
    floors, rho = _floors_and_breakpoints(spectrum, noise_var, n_tilde)
    active = n_tilde - regime(budget, Breakpoints(rho))
    rise = (budget - rho[active - 1]) / active
    alloc = np.zeros(n_tilde)
    alloc[:active] = (floors[active - 1] - floors[:active]) + rise
    return WaterfillSolution(
        water_level=float(floors[active - 1] + rise),
        allocations=alloc,
        active_count=int(np.count_nonzero(alloc > 0.0)),
        budget_used=float(np.sum(alloc)),
    )
