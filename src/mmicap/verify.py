"""End-to-end verification suite behind the ``verify`` subcommand.

Six independent checks at desk scale: achievability of the closed form,
the optimizer gap, agreement of adjacent capacity branches at breakpoints,
relu large-bias convergence, the entropy-ordering inequality, and bijective
invariance.  Everything derives from one seed, so reports are byte-stable.
The relu large-bias suite is public as ``verify_relu_theorem``, with the
total-variation and information-gap bounds it checks against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DeltaOutOfRange, DimensionMismatch, finite, fits, positive
from .mc import (
    ChannelModel,
    MCConfig,
    bijective_channel,
    estimate_mi,
    linear_channel,
    relu_channel,
    verify_entropy_ordering,
)
from .mmi import ArchitectureSpec, FullyConnected, evaluate, mmi_formula
from .oracle import (
    OptimizerConfig,
    WeightMatrix,
    build_optimal_weights,
    exact_linear_mi,
    maximize_mi,
)
from .spectrum import CovarianceMatrix, decompose_covariance, model_spectrum
from .waterfill import breakpoints

_INV_E = 1.0 / math.e


def delta_bound(model: ChannelModel, cov: CovarianceMatrix) -> float:
    """Upper bound on the total variation between relu and linear marginals.

    The two channels share conditionals whenever the pre-activation stays
    non-negative, so the union bound sum_i P(pre_i < 0) =
    sum_i Phi(-b_i / sd_i) bounds the marginal total variation.  A zero
    pre-activation variance contributes 1 when b_i < 0 and 0 otherwise.
    """
    if model.activation != "relu":
        raise ConfigError("delta_bound applies to relu channels")
    fits(model.weights, cov)
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
    valid for total variation d in [0, 1/e); h2 is the binary entropy.  log M
    is formed directly, so M itself may pass the double range.
    """
    if not 0.0 <= delta < _INV_E:
        raise DeltaOutOfRange(f"delta must lie in [0, 1/e), got {delta}")
    noise_var = positive(noise_var, "noise_var")
    hidden_dim = positive(hidden_dim, "hidden_dim", integer=True, error=DimensionMismatch)
    if delta == 0.0:
        return 0.0
    log_m = max(0.0, -0.5 * hidden_dim * math.log(2.0 * math.pi * noise_var))
    h2 = -delta * math.log(delta) - (1.0 - delta) * math.log1p(-delta)
    return 4.0 * delta * abs(math.log(2.0 * delta)) + 2.0 * delta * log_m + 2.0 * h2


def verify_relu_theorem(budget: float, cov: CovarianceMatrix, noise_var: float,
                        hidden_dim: int, bias_scales, mc: MCConfig) -> dict:
    """Large-bias convergence of relu MI to the linear closed form.

    For each bias scale c the capacity-achieving weights get bias c * 1; the
    report passes when the gap sequence is non-increasing up to combined
    noise and the final gap sits within the analytic bound plus noise.
    """
    scales = [positive(c, "bias_scales") for c in bias_scales]
    if not scales or sorted(scales) != scales:
        raise ConfigError("bias_scales must be non-empty and ascending")
    decomposition = decompose_covariance(cov)
    weights = build_optimal_weights(budget, decomposition, noise_var, hidden_dim)
    closed = evaluate(ArchitectureSpec(FullyConnected(cov.dim, hidden_dim)),
                      decomposition.spectrum, noise_var, budget).nats
    rows = []
    for scale, row_seed in zip(scales, np.random.SeedSequence(mc.seed).spawn(len(scales))):
        model = relu_channel(weights, np.full(hidden_dim, scale), noise_var)
        tv_bound = delta_bound(model, cov)
        info_bound = g_bound(tv_bound, noise_var, hidden_dim) if tv_bound < _INV_E else None
        row_mc = MCConfig(mc.n_outer, mc.n_inner, int(row_seed.generate_state(1)[0]))
        estimate = estimate_mi(model, cov, row_mc)
        rows.append({
            "scale": scale,
            "delta_bound": tv_bound,
            "g_bound": info_bound,
            "mi_estimate": estimate.value,
            "std_error": estimate.std_error,
            "closed_form": closed,
            "gap": closed - estimate.value,
        })
    monotone = all(
        rows[i + 1]["gap"] <= rows[i]["gap"]
        + 3.0 * math.hypot(rows[i]["std_error"], rows[i + 1]["std_error"])
        for i in range(len(rows) - 1)
    )
    final = rows[-1]
    final_ok = (final["g_bound"] is not None
                and final["gap"] <= final["g_bound"] + 3.0 * final["std_error"])
    return {
        "theorem": "relu-large-bias-convergence",
        "rows": rows,
        "pass": bool(monotone and final_ok),
    }


def _random_covariance(rng: np.random.Generator, dim: int,
                       log_range=(-1.5, 1.5)) -> CovarianceMatrix:
    eigvals = np.sort(np.exp(rng.uniform(*log_range, size=dim)))[::-1]
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return CovarianceMatrix(basis @ np.diag(eigvals) @ basis.T)


def _check_achievability(seed: int, mmi_offset: float, instances: int = 40) -> dict:
    """Constructed optimal weights must reproduce the closed form to 1e-9."""
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    noise_vars = (0.1, 1.0, 10.0)
    for i in range(instances):
        input_dim = int(rng.integers(1, 5))
        hidden_dim = int(rng.integers(1, 5))
        noise_var = noise_vars[i % 3]
        cov = _random_covariance(rng, input_dim)
        decomposition = decompose_covariance(cov)
        spectrum = decomposition.spectrum
        n_tilde = min(input_dim, hidden_dim)
        bp = breakpoints(spectrum, noise_var, n_tilde)
        budgets = list(bp) + list(0.5 * (bp[:-1] + bp[1:])) + [bp[-1] * 1.5 + 1.0]
        for budget in budgets:
            closed = evaluate(ArchitectureSpec(FullyConnected(input_dim, hidden_dim)),
                              spectrum, noise_var, budget).nats + mmi_offset
            achieved = exact_linear_mi(
                build_optimal_weights(budget, decomposition, noise_var, hidden_dim),
                cov, noise_var)
            worst = np.maximum(worst, abs(achieved - closed))  # a NaN gap stays NaN
    return {"name": "achievability", "instances": instances,
            "max_abs_gap": float(worst), "tolerance": 1e-9, "pass": bool(worst <= 1e-9)}


def _check_optimizer(seed: int, instances: int = 3) -> dict:
    """The trust-region ascent must land within 1e-4 nats of the closed form."""
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    sound = converged = True
    for i in range(instances):
        cov = _random_covariance(rng, 3)
        spectrum = decompose_covariance(cov).spectrum
        budget = float(rng.uniform(0.5, 4.0))
        closed = evaluate(ArchitectureSpec(FullyConnected(3, 2)), spectrum, 1.0, budget).nats
        result = maximize_mi(budget, cov, 1.0, 2,
                             OptimizerConfig(seed=seed * 31 + i, restarts=3))
        worst = np.maximum(worst, closed - result.nats)  # a NaN gap stays NaN
        sound = sound and result.nats <= closed + 1e-9
        converged = converged and result.converged
    return {"name": "optimizer-gap", "instances": instances,
            "max_gap": float(worst), "tolerance": 1e-4, "sound": sound, "converged": converged,
            "pass": bool(worst <= 1e-4 and sound)}


def _check_breakpoint_agreement(seed: int, instances: int = 100) -> dict:
    """Adjacent capacity branches must agree at every breakpoint: at F = rho_k
    branch k reads c_k alone and branch k - 1 steps from c_{k-1} over rho_k -
    rho_{k-1}, so the two independent recurrences are set against each other."""
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    for _ in range(instances):
        dim = int(rng.integers(2, 9))
        spectrum = model_spectrum(
            "explicit", values=np.exp(rng.uniform(-3, 3, size=dim)))
        noise_var = float(rng.choice([0.1, 1.0, 10.0]))
        bp = breakpoints(spectrum, noise_var, dim)
        for k in range(2, dim + 1):
            budget = float(bp[k - 1])
            low = mmi_formula(spectrum, noise_var, dim, budget, k - 1)
            high = mmi_formula(spectrum, noise_var, dim, budget, k)
            worst = np.maximum(worst, abs(high - low))  # a NaN gap stays NaN
    return {"name": "breakpoint-agreement", "instances": instances,
            "max_abs_gap": float(worst), "tolerance": 1e-10, "pass": bool(worst <= 1e-10)}


def _check_relu_large_bias(seed: int) -> dict:
    """Relu MI approaches the linear closed form as the bias grows."""
    cov = CovarianceMatrix(np.diag(model_spectrum("exp_decay", 3, rate=0.5).values))
    report = verify_relu_theorem(
        budget=2.0, cov=cov, noise_var=1.0, hidden_dim=2,
        bias_scales=[2.0, 4.0, 8.0],
        mc=MCConfig(n_outer=2000, n_inner=2000, seed=seed * 7 + 1))
    return {"name": "relu-large-bias", "report": report, "pass": report["pass"]}


def _check_entropy_ordering(seed: int, instances: int = 8) -> dict:
    """Relu output entropy never exceeds the linear channel's."""
    rng = np.random.default_rng([seed, 4])
    reports = []
    for i in range(instances):
        cov = _random_covariance(rng, 3)
        weights = WeightMatrix(rng.standard_normal((2, 3)))
        bias = rng.uniform(-2.0, 2.0, size=2)
        model = relu_channel(weights, bias, 1.0)
        report = verify_entropy_ordering(
            model, cov, MCConfig(2000, 2000, seed * 13 + i))
        reports.append({
            "difference": report["rows"][0]["difference"],
            "se_difference": report["rows"][0]["se_difference"],
            "pass": report["pass"],
        })
    return {"name": "entropy-ordering", "instances": instances,
            "rows": reports, "pass": all(r["pass"] for r in reports)}


def _check_bijective_invariance(seed: int, instances: int = 3) -> dict:
    """Tanh post-composition leaves the MI estimate unchanged within noise."""
    rng = np.random.default_rng([seed, 5])
    rows = []
    for i in range(instances):
        cov = _random_covariance(rng, 3)
        weights = WeightMatrix(rng.standard_normal((2, 3)))
        bias = rng.uniform(-1.0, 1.0, size=2)
        linear = estimate_mi(
            linear_channel(weights, bias, 1.0), cov, MCConfig(2000, 2000, seed * 17 + i))
        bijective = estimate_mi(
            bijective_channel(weights, bias, 1.0), cov,
            MCConfig(2000, 2000, seed * 17 + 1000 + i))
        gap = abs(linear.value - bijective.value)
        spread = 3.0 * float(np.hypot(linear.std_error, bijective.std_error))
        rows.append({"mi_linear": linear.value, "mi_bijective": bijective.value,
                     "gap": gap, "allowed": spread, "pass": bool(gap <= spread)})
    return {"name": "bijective-invariance", "instances": instances,
            "rows": rows, "pass": all(r["pass"] for r in rows)}


def run_verification(seed: int = 0, mmi_offset: float = 0.0) -> dict:
    """Run every check and aggregate into one report document."""
    seed = positive(seed, "seed", integer=True, least=0)
    mmi_offset = finite(mmi_offset, "mmi_offset")
    checks = [
        _check_achievability(seed, mmi_offset),
        _check_optimizer(seed),
        _check_breakpoint_agreement(seed),
        _check_relu_large_bias(seed),
        _check_entropy_ordering(seed),
        _check_bijective_invariance(seed),
    ]
    return {"seed": seed, "checks": checks,
            "pass": all(check["pass"] for check in checks)}
