"""Water-filling allocation of a squared-Frobenius weight budget.

The capacity problem reduces to  sup sum_i log(a_i + f_i)  over allocations
a_i >= 0 with sum a_i <= F, where f_i = noise_var / eigenvalue_i are
per-component floors.  A common water level fills every component whose
floor lies below it; the budgets at which successive components enter the
active set are the breakpoints.  They are held on the spectrum together with
the capacities at them (``_waterfill_state``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NonPositiveEigenvalue, budgets, positive
from .spectrum import Spectrum


def _capacities(values: np.ndarray) -> np.ndarray:
    """Dense capacity c_k = (1/2) sum_{i<=k} log(lambda_i / lambda_k) at the k-th
    breakpoint, k = 1..n, in nats, whatever the noise variance.  Built as c_1 = 0,
    c_{k+1} = c_k + (k/2) log1p(g_k) over the gaps g_k = (lambda_k - lambda_{k+1})
    / lambda_{k+1}, exact inside a cluster (log lambda_k - log lambda_{k+1} where
    g_k passes the double range); the increments are non-negative, so the
    sequence is non-decreasing bit-for-bit.  The prefix sums are Sum2's (Ogita,
    Rump & Oishi 2005): the float64 sums plus the sums of their TwoSum rounding
    errors, within about an ulp of the exact sums of the increments."""
    with np.errstate(over="ignore"):
        gaps = (values[:-1] - values[1:]) / values[1:]
    logs = np.log(values)
    steps = np.arange(1, values.size) * np.where(
        np.isfinite(gaps), np.log1p(gaps), logs[:-1] - logs[1:])
    sums = np.cumsum(steps)
    before = np.concatenate(([0.0], sums))[:-1]
    virtual = sums - before
    errors = (before - (sums - virtual)) + (steps - virtual)
    out = np.zeros(values.size)
    out[1:] = 0.5 * (sums + np.cumsum(errors))
    return out


def _breakpoints(spectrum: Spectrum, noise_var: float, n_tilde: int) -> np.ndarray:
    """Breakpoints of the leading ``n_tilde`` components (``_waterfill_state`` holds them)."""
    if not 1 <= n_tilde <= len(spectrum):
        raise IndexOutOfRange(f"component count {n_tilde} outside [1, {len(spectrum)}]")
    # The smallest eigenvalue gives the largest floor.  A subnormal floor cannot
    # place a breakpoint; rho_1 = 0 reads no floor, and f_2 is the smallest read.
    if not math.isfinite(noise_var / float(spectrum.values[n_tilde - 1])):
        raise NonPositiveEigenvalue(
            f"noise_var / eigenvalue overflows for noise_var {noise_var} and "
            f"eigenvalue {spectrum.values[n_tilde - 1]}")
    if n_tilde > 1 and noise_var / float(spectrum.values[1]) < np.finfo(np.float64).tiny:
        raise NonPositiveEigenvalue(
            f"noise_var / eigenvalue underflows for noise_var {noise_var} and "
            f"eigenvalue {spectrum.values[1]}")
    values = spectrum.values[:n_tilde]
    with np.errstate(over="ignore"):  # held as inf, see ``breakpoints``
        steps = np.arange(1, n_tilde, dtype=np.float64) * (
            (noise_var / values[1:]) * ((values[:-1] - values[1:]) / values[:-1]))
        return np.concatenate(([0.0], np.cumsum(steps)))


def _waterfill_state(spectrum: Spectrum, noise_var: float, n_tilde: int):
    """Read-only breakpoints rho for ``(noise_var, n_tilde)`` and breakpoint
    capacities c, the two anchors of every closed-form branch, from the one
    entry ``(noise_var, n_tilde, rho, c)`` the spectrum holds for the last key
    asked for.  A miss computes rho and replaces the entry; c, the same for
    every key, is computed at full length on the first entry and carried into
    every later one.  A call that raises stores nothing.  The entry is swapped
    in by one attribute store, so threads asking for different keys each read
    a consistent entry."""
    noise_var = positive(noise_var, "noise_var")
    n_tilde = positive(n_tilde, "component count", integer=True, error=IndexOutOfRange)
    held = spectrum._waterfill
    if held is not None and held[0] == noise_var and held[1] == n_tilde:
        return held[2], held[3]
    rho = _breakpoints(spectrum, noise_var, n_tilde)
    capacities = held[3] if held is not None else _capacities(spectrum.values)
    rho.flags.writeable = capacities.flags.writeable = False
    object.__setattr__(spectrum, "_waterfill", (noise_var, n_tilde, rho, capacities))
    return rho, capacities


def breakpoints(spectrum: Spectrum, noise_var: float, n_tilde: int) -> np.ndarray:
    """Budgets rho_k at which component k = 1..n_tilde enters the active set.

    Computed through the cumulative form
        rho_1 = 0,   rho_{k+1} = rho_k + k * (f_{k+1} - f_k)
    with f_{k+1} - f_k taken as f_{k+1} (lambda_k - lambda_{k+1}) / lambda_k, so
    a cluster of eigenvalues loses nothing to cancellation.  The increments are
    non-negative, so the sequence is non-decreasing bit-for-bit from exactly 0.
    The closed form is noise_var * (k / lambda_k - sum_{i<=k} 1 / lambda_i).
    A breakpoint past the double range is held as inf: the regime lookup
    compares against it correctly, and the CLI refuses to print it.  The
    read-only array is held on ``spectrum`` until another ``(noise_var,
    n_tilde)`` is asked for, and repeated calls return that same array.
    """
    return _waterfill_state(spectrum, noise_var, n_tilde)[0]


def regime(budget, rho: np.ndarray):
    """Number of trailing components excluded from the active set.

    Returns the smallest K >= 0 with budget >= rho_{n-K} (1-based) over the
    breakpoint array ``rho`` that ``breakpoints`` returns; ties use exact floating
    comparison and resolve toward the larger active set (the adjacent
    capacity branches agree at every breakpoint, so the choice never changes
    the value).  An array of budgets gives an array of K.  Raises
    NegativeBudget unless every budget lies in [0, inf).
    """
    excluded = rho.size - np.searchsorted(rho, budgets(budget), side="right")
    return int(excluded) if np.ndim(excluded) == 0 else excluded


def solve_waterfill(budget: float, spectrum: Spectrum, noise_var: float,
                    n_tilde: int) -> np.ndarray:
    """Read-only optimal allocation of ``budget`` across the leading components.

    With m components active the water level (budget + sum_{i<=m} f_i) / m
    equals f_m + (budget - rho_m) / m, rho_m being the m-th breakpoint, and
    each allocation level - f_i is evaluated as (f_m - f_i) + (budget - rho_m)
    / m: both terms are non-negative, so nothing cancels when the budget is
    tiny against the floor scale, and the budget stays exactly saturated to
    ~1e-13 relative in O(n) time and memory.  Exactly at a breakpoint
    (including budget 0) the entering component holds a zero allocation.  The
    breakpoints are read from the state ``breakpoints`` holds on ``spectrum``,
    so solving at many budgets with one noise variance computes them once.
    """
    budget, noise_var = budgets(budget), positive(noise_var, "noise_var")
    if np.ndim(budget):
        raise DimensionMismatch("solve_waterfill takes one budget, not an array")
    rho, _ = _waterfill_state(spectrum, noise_var, n_tilde)
    active = n_tilde - regime(budget, rho)
    rise = (budget - rho[active - 1]) / active
    floors = noise_var / spectrum.values[:active]
    alloc = np.zeros(n_tilde)
    alloc[:active] = (floors[-1] - floors) + rise
    alloc.flags.writeable = False
    return alloc
