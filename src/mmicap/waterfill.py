"""Water-filling allocation of a squared-Frobenius weight budget.

The capacity problem reduces to  sup sum_i log(a_i + f_i)  over allocations
a_i >= 0 with sum a_i <= F, where f_i = noise_var / eigenvalue_i are
per-component floors.  A common water level fills every component whose
floor lies below it; the budgets at which successive components enter the
active set are the breakpoints.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IndexOutOfRange, NonPositiveEigenvalue, budgets, positive
from .spectrum import Spectrum


def _floors_and_breakpoints(spectrum: Spectrum, noise_var: float, n_tilde: int):
    """Floors s / lambda_i and breakpoints of the leading ``n_tilde`` components,
    computed afresh; callers read them through ``_waterfill_state``."""
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
    floors = noise_var / values
    with np.errstate(over="ignore"):  # held as inf, see ``breakpoints``
        steps = np.arange(1, n_tilde, dtype=np.float64) * (
            floors[1:] * ((values[:-1] - values[1:]) / values[:-1]))
        return floors, np.concatenate(([0.0], np.cumsum(steps)))


def _waterfill_state(spectrum: Spectrum, noise_var: float, n_tilde: int):
    """Read-only floors and breakpoints for ``(noise_var, n_tilde)``.

    The spectrum holds one entry, ``(noise_var, n_tilde, floors, rho)``, for
    the last key asked for; a miss computes the two arrays and replaces the
    entry, and a call that raises stores nothing.  The entry is one tuple
    swapped in by a single attribute store, so threads asking for different
    keys each read a consistent entry.
    """
    noise_var = positive(noise_var, "noise_var")
    n_tilde = positive(n_tilde, "component count", integer=True, error=IndexOutOfRange)
    held = spectrum._waterfill
    if held is not None and held[0] == noise_var and held[1] == n_tilde:
        return held[2], held[3]
    floors, rho = _floors_and_breakpoints(spectrum, noise_var, n_tilde)
    floors.flags.writeable = rho.flags.writeable = False
    object.__setattr__(spectrum, "_waterfill", (noise_var, n_tilde, floors, rho))
    return floors, rho


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
    return _waterfill_state(spectrum, noise_var, n_tilde)[1]


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
    floors and breakpoints are read from the state ``breakpoints`` holds on
    ``spectrum``, so solving at many budgets with one noise variance computes
    them once.
    """
    floors, rho = _waterfill_state(spectrum, noise_var, n_tilde)
    active = n_tilde - regime(budget, rho)
    rise = (budget - rho[active - 1]) / active
    alloc = np.zeros(n_tilde)
    alloc[:active] = (floors[active - 1] - floors[:active]) + rise
    alloc.flags.writeable = False
    return alloc
