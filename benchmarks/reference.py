"""Independent reference values for the benchmark's correctness checks.

Nothing here imports mmicap.  Every quantity is computed by a different
route from the library's:

* capacity by bisection on the water level nu, solving
  sum_i max(0, nu - s / lambda_i) = F and scoring
  (1/2) sum over the active set of log(nu * lambda_i / s);
* conv capacity as repetitions times the dense value on
  ``np.linalg.eigvalsh`` of the block;
* mlp capacity as the dense value at the narrowest width;
* exact linear-Gaussian MI as (1/2) slogdet(I + W C W^T / s).
"""

from __future__ import annotations

import numpy as np

#: Bisection stops once the bracket no longer shrinks in float64; this caps
#: the iterations should it ever oscillate.
_MAX_BISECTIONS = 400

#: Points x components handled per bisection chunk (keeps memory flat).
_CHUNK = 1 << 20


def top_eigenvalues(eigenvalues, n_tilde: int) -> np.ndarray:
    """The ``n_tilde`` largest eigenvalues, descending."""
    lam = np.sort(np.asarray(eigenvalues, dtype=np.float64))[::-1]
    return lam[:n_tilde]


def _water_levels(floors: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Water level nu per budget, by bisection on sum max(0, nu - f) = F."""
    lo = np.full(budgets.shape, floors.min())
    hi = lo + budgets
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        used = np.maximum(mid[:, None] - floors[None, :], 0.0).sum(axis=1)
        below = used < budgets
        new_lo = np.where(below, mid, lo)
        new_hi = np.where(below, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def dense_capacity(eigenvalues, noise_var: float, budgets, n_tilde: int) -> np.ndarray:
    """Capacity in nats of a dense layer with ``n_tilde`` usable components.

    ``budgets`` may be a scalar or a 1-D array; the result has its shape.
    """
    lam = top_eigenvalues(eigenvalues, n_tilde)
    floors = noise_var / lam
    flat = np.atleast_1d(np.asarray(budgets, dtype=np.float64))
    out = np.zeros(flat.shape)
    rows = max(1, _CHUNK // lam.size)
    for start in range(0, flat.size, rows):
        chunk = flat[start:start + rows]
        positive = chunk > 0.0
        if not np.any(positive):
            continue
        nu = _water_levels(floors, chunk[positive])
        terms = np.log(nu[:, None] / floors[None, :])
        values = 0.5 * np.where(terms > 0.0, terms, 0.0).sum(axis=1)
        block = np.zeros(chunk.shape)
        block[positive] = values
        out[start:start + rows] = block
    return out.reshape(np.shape(budgets))


def conv_capacity(block_cov, repetitions: int, num_filters: int,
                  noise_var: float, budgets) -> np.ndarray:
    """Tied-filter conv capacity: repetitions x dense capacity of one block."""
    lam = np.linalg.eigvalsh(np.asarray(block_cov, dtype=np.float64))
    n_tilde = min(lam.size, num_filters)
    return repetitions * dense_capacity(lam, noise_var, budgets, n_tilde)


def mlp_capacity(eigenvalues, widths, noise_var: float, budgets) -> np.ndarray:
    """Multilayer capacity: the dense value at the narrowest width."""
    n_tilde = min(len(eigenvalues), *widths)
    return dense_capacity(eigenvalues, noise_var, budgets, n_tilde)


def breakpoints(eigenvalues, noise_var: float, n_tilde: int) -> np.ndarray:
    """Budget at which component k enters: sum_{i<k} (f_k - f_i)."""
    floors = noise_var / top_eigenvalues(eigenvalues, n_tilde)
    return np.array([float(np.sum(floors[k] - floors[:k])) for k in range(floors.size)])


def linear_mi(weights, cov, noise_var: float) -> float:
    """Exact MI of z = W x + noise: (1/2) log det(I + W C W^T / s)."""
    w = np.asarray(weights, dtype=np.float64)
    gram = np.eye(w.shape[0]) + w @ np.asarray(cov, dtype=np.float64) @ w.T / noise_var
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0:
        raise ArithmeticError("I + W C W^T / s is not positive definite")
    return 0.5 * float(logdet)
