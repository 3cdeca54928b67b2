"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
with their measured worst cases and runtimes.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from mmicap import (
    ArchitectureSpec,
    BlockCovariance,
    Convolutional,
    CovarianceMatrix,
    DeltaOutOfRange,
    FullyConnected,
    MCConfig,
    MultiLayer,
    OptimizerConfig,
    WeightMatrix,
    breakpoints,
    build_optimal_weights,
    decompose_covariance,
    eigvals_from_covariance,
    evaluate,
    exact_linear_mi,
    factor_check_multilayer,
    g_bound,
    maximize_mi,
    maximize_mi_conv,
    mmi_formula,
    model_spectrum,
    verify_entropy_ordering,
    verify_relu_theorem,
)


def report(number, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {name} ({detail}; {elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded runtime: {elapsed:.1f}s"


def rotated_covariance(rng, eigenvalues):
    dim = eigenvalues.size
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return CovarianceMatrix(basis @ np.diag(eigenvalues) @ basis.T)


def log_uniform(rng, size, lo=1e-3, hi=1e3):
    return np.sort(np.exp(rng.uniform(np.log(lo), np.log(hi), size=size)))[::-1]


def budgets_spanning_breakpoints(values):
    """Each breakpoint exactly, the midpoints between them, and one beyond."""
    budgets = list(values) + [float(values[-1]) * 1.5 + 1.0]
    budgets += [0.5 * (a + b) for a, b in zip(values[:-1], values[1:])]
    return budgets


def test_criterion_1_achievability():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    noise_vars = (0.1, 1.0, 10.0)
    worst = 0.0
    for i in range(200):
        input_dim = int(rng.integers(1, 17))
        hidden_dim = int(rng.integers(1, 17))
        noise_var = noise_vars[i % 3]
        cov = rotated_covariance(rng, log_uniform(rng, input_dim))
        dec = decompose_covariance(cov)
        n_tilde = min(input_dim, hidden_dim)
        bp = breakpoints(dec.spectrum, noise_var, n_tilde)
        for budget in budgets_spanning_breakpoints(bp.values):
            closed = evaluate(ArchitectureSpec(FullyConnected(input_dim, hidden_dim)),
                              dec.spectrum, noise_var, budget).nats
            weights = build_optimal_weights(budget, dec, noise_var, hidden_dim)
            worst = max(worst, abs(exact_linear_mi(weights, cov, noise_var) - closed))
    elapsed = time.perf_counter() - start
    report(1, "achievability of the closed form", worst <= 1e-9,
           f"200 instances, max |gap| = {worst:.2e} <= 1e-9", elapsed, 10.0)


def test_criterion_2_optimizer():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    noise_vars = (0.1, 1.0, 10.0)
    worst_gap = -np.inf
    worst_excess = -np.inf
    for i in range(20):
        input_dim = int(rng.integers(2, 9))
        hidden_dim = int(rng.integers(1, 9))
        noise_var = noise_vars[i % 3]
        cov = rotated_covariance(rng, log_uniform(rng, input_dim, lo=1e-1, hi=1e1))
        spectrum = decompose_covariance(cov).spectrum
        n_tilde = min(input_dim, hidden_dim)
        top = float(breakpoints(spectrum, noise_var, n_tilde).values[-1])
        budget = float(rng.uniform(0.1, top * 1.2 + 2.0))
        closed = evaluate(ArchitectureSpec(FullyConnected(input_dim, hidden_dim)),
                          spectrum, noise_var, budget).nats
        result = maximize_mi(budget, cov, noise_var, hidden_dim,
                             OptimizerConfig(seed=1000 + i, restarts=5))
        worst_gap = max(worst_gap, closed - result.nats)
        worst_excess = max(worst_excess, result.nats - closed)
        # soundness: 25 random feasible weight draws per instance (500 total)
        for _ in range(25):
            w = rng.standard_normal((hidden_dim, input_dim))
            w *= math.sqrt(budget / np.sum(w * w))
            excess = exact_linear_mi(WeightMatrix(w), cov, noise_var) - closed
            worst_excess = max(worst_excess, excess)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-4 and worst_excess <= 1e-9
    report(2, "optimizer reaches the closed form, never exceeds it", ok,
           f"max gap = {worst_gap:.2e} <= 1e-4, max excess = {worst_excess:.2e} <= 1e-9",
           elapsed, 60.0)


def test_criterion_3_breakpoints_ordered():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(1000):
        size = int(rng.integers(1, 65))
        spectrum = model_spectrum("explicit", values=log_uniform(rng, size))
        noise_var = float(rng.choice([0.1, 1.0, 10.0]))
        bp = breakpoints(spectrum, noise_var, size).values
        ok = ok and bp[0] == 0.0 and bool(np.all(np.diff(bp) >= 0.0))
    elapsed = time.perf_counter() - start
    report(3, "breakpoint sequences non-decreasing with exact zero start", ok,
           "1000 random spectra", elapsed, 5.0)


def test_criterion_4_piecewise_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 33))
        spectrum = model_spectrum("explicit", values=log_uniform(rng, size))
        noise_var = float(rng.choice([0.1, 1.0, 10.0]))
        bp = breakpoints(spectrum, noise_var, size).values
        for k in range(2, size + 1):
            budget = float(bp[k - 1])
            worst = max(worst, abs(mmi_formula(spectrum, noise_var, size, budget, k)
                                   - mmi_formula(spectrum, noise_var, size, budget, k - 1)))
    curves_ok = True
    grid = np.linspace(0.0, 500.0, 400)
    for kind, rate in (("exp_decay", 0.1), ("harmonic", None)):
        spectrum = model_spectrum(kind, 100, rate=rate)
        nats = [evaluate(ArchitectureSpec(FullyConnected(100, 50)), spectrum, 1.0, float(f)).nats
                for f in grid]
        curves_ok = curves_ok and nats[0] == 0.0 and bool(np.all(np.diff(nats) >= 0.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and curves_ok
    report(4, "adjacent branches agree at breakpoints; preset curves monotone", ok,
           f"max branch gap = {worst:.2e} <= 1e-10, presets start at 0", elapsed, 5.0)


def test_criterion_5_convolutional():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_gap = -np.inf
    identity_exact = True
    for input_dim, block_size, num_filters, budget in ((4, 2, 2, 2.5), (6, 3, 2, 3.0)):
        reps = input_dim // block_size
        b = rng.standard_normal((block_size, block_size))
        block = BlockCovariance(
            CovarianceMatrix(b @ b.T + 0.3 * np.eye(block_size)), reps)
        closed = evaluate(
            ArchitectureSpec(Convolutional(block.input_dim, block.block.dim, num_filters)),
            block, 1.0, budget)
        dense = evaluate(ArchitectureSpec(FullyConnected(block_size, num_filters)),
                         eigvals_from_covariance(block.block), 1.0, budget)
        identity_exact = identity_exact and closed.nats == reps * dense.nats
        result = maximize_mi_conv(budget, block, num_filters, 1.0,
                                  OptimizerConfig(seed=2000 + input_dim, restarts=5))
        worst_gap = max(worst_gap, abs(closed.nats - result.nats))
        identity_exact = identity_exact and result.nats <= closed.nats + 1e-9
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-4 and identity_exact
    report(5, "tied-filter optimizer matches repetitions x dense capacity", ok,
           f"max |gap| = {worst_gap:.2e} <= 1e-4, additivity exact", elapsed, 60.0)


def test_criterion_6_multilayer():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    collapse_exact = True
    worst = 0.0
    for _ in range(20):
        input_dim = int(rng.integers(2, 7))
        cov = rotated_covariance(rng, log_uniform(rng, input_dim, lo=0.1, hi=10.0))
        dec = decompose_covariance(cov)
        depth = int(rng.integers(1, 5))
        widths = [int(w) for w in rng.integers(1, 9, size=depth)]
        budget = float(rng.uniform(0.0, 6.0))
        stacked = evaluate(ArchitectureSpec(MultiLayer(tuple(widths))), dec.spectrum, 1.0, budget)
        dense = evaluate(ArchitectureSpec(FullyConnected(input_dim, min(widths))),
                         dec.spectrum, 1.0, budget)
        collapse_exact = collapse_exact and stacked.nats == dense.nats
        # explicit factorization of the capacity-achieving weights
        hidden_dim = int(rng.integers(1, 5))
        weights = build_optimal_weights(max(budget, 0.2), dec, 1.0, hidden_dim)
        rank = np.linalg.matrix_rank(weights.entries)
        factor_widths = [int(w) for w in rng.integers(rank, rank + 3,
                                                      size=int(rng.integers(1, 4)))]
        factor_widths.append(hidden_dim)
        if min(factor_widths) < rank:
            factor_widths = [max(w, rank) for w in factor_widths[:-1]] + [hidden_dim]
        direct = exact_linear_mi(weights, cov, 1.0)
        factored = factor_check_multilayer(weights, factor_widths, cov, 1.0)
        worst = max(worst, abs(factored - direct))
    elapsed = time.perf_counter() - start
    ok = collapse_exact and worst <= 1e-12
    report(6, "multilayer collapse exact; factorization preserves MI", ok,
           f"collapse bit-exact, max factor gap = {worst:.2e} <= 1e-12", elapsed, 10.0)


def test_criterion_7_relu_large_bias():
    start = time.perf_counter()
    spectrum = model_spectrum("exp_decay", 4, rate=0.5)
    cov = CovarianceMatrix(np.diag(spectrum.values))
    mc = MCConfig(n_outer=20_000, n_inner=20_000, seed=107)
    rep = verify_relu_theorem(budget=3.0, cov=cov, noise_var=1.0, hidden_dim=3,
                              bias_scales=[2.0, 4.0, 8.0], mc=mc)
    final = rep["rows"][-1]
    headline = abs(final["gap"]) <= max(0.02, 3.0 * final["std_error"])
    monotone = all(
        rep["rows"][i + 1]["gap"] <= rep["rows"][i]["gap"]
        + 3.0 * math.hypot(rep["rows"][i]["std_error"], rep["rows"][i + 1]["std_error"])
        for i in range(len(rep["rows"]) - 1))
    elapsed = time.perf_counter() - start
    ok = headline and monotone and rep["pass"]
    gaps = ", ".join(f"{row['gap']:+.4f}" for row in rep["rows"])
    report(7, "relu MI converges to the closed form with growing bias", ok,
           f"gaps across scales [2,4,8] = [{gaps}], final within "
           f"max(0.02, 3se = {3 * final['std_error']:.4f})", elapsed, 300.0)


def test_criterion_8_entropy_ordering():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    failures = 0
    for i in range(50):
        input_dim = int(rng.integers(2, 5))
        hidden_dim = int(rng.integers(1, 4))
        b = rng.standard_normal((input_dim, input_dim))
        cov = CovarianceMatrix(b @ b.T + 0.2 * np.eye(input_dim))
        weights = WeightMatrix(rng.standard_normal((hidden_dim, input_dim)))
        bias = rng.uniform(-2.0, 2.0, size=hidden_dim)
        from mmicap import relu_channel
        model = relu_channel(weights, bias, 1.0)
        rep = verify_entropy_ordering(model, cov,
                                      MCConfig(20_000, 20_000, seed=5000 + i))
        failures += 0 if rep["pass"] else 1
    elapsed = time.perf_counter() - start
    report(8, "relu output entropy never exceeds the linear channel's", failures == 0,
           f"50 instances at n = 2e4, {failures} ordering violations", elapsed, 300.0)


def test_criterion_9_g_bound():
    start = time.perf_counter()
    hand_value = 0.4 * abs(math.log(0.2)) + 2.0 * (
        -0.1 * math.log(0.1) - 0.9 * math.log(0.9))
    value = g_bound(0.1, 1.0 / (2.0 * math.pi), 1)
    hand_ok = abs(value - hand_value) <= 1e-9 and abs(value - 1.29394) <= 5e-6
    rejects = False
    try:
        g_bound(1.0 / math.e, 1.0, 1)
    except DeltaOutOfRange:
        rejects = True
    try:
        g_bound(0.4, 1.0, 1)
    except DeltaOutOfRange:
        rejects = rejects and True
    else:
        rejects = False
    vanishing = all(
        g_bound(d, 1.0, 2) < g_bound(10.0 * d, 1.0, 2)
        for d in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)) and g_bound(1e-12, 1.0, 2) < 1e-9
    elapsed = time.perf_counter() - start
    ok = hand_ok and rejects and vanishing
    report(9, "information-gap bound machinery", ok,
           f"g(0.1, M=1) = {value:.9f} vs hand {hand_value:.9f}, rejects d >= 1/e, "
           "vanishes toward 0", elapsed, 1.0)


def test_criterion_10_bijective_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    from mmicap import bijective_channel, estimate_mi, linear_channel
    failures = 0
    for i in range(10):
        input_dim = int(rng.integers(2, 5))
        hidden_dim = int(rng.integers(1, 4))
        b = rng.standard_normal((input_dim, input_dim))
        cov = CovarianceMatrix(b @ b.T + 0.3 * np.eye(input_dim))
        weights = WeightMatrix(rng.standard_normal((hidden_dim, input_dim)) * 0.8)
        bias = rng.uniform(-1.0, 1.0, size=hidden_dim)
        lin = estimate_mi(linear_channel(weights, bias, 1.0), cov,
                          MCConfig(4000, 4000, seed=6000 + i))
        bij = estimate_mi(bijective_channel(weights, bias, 1.0), cov,
                          MCConfig(4000, 4000, seed=7000 + i))
        spread = 3.0 * math.hypot(lin.std_error, bij.std_error)
        if abs(lin.value - bij.value) > spread:
            failures += 1
    elapsed = time.perf_counter() - start
    report(10, "tanh post-composition leaves MI unchanged", failures == 0,
           f"10 instances, {failures} outside 3 combined std errors", elapsed, 180.0)


def test_criterion_11_verify_determinism():
    start = time.perf_counter()
    outputs = []
    for threads in ("1", "1", "2", "5"):
        env = dict(os.environ, MMI_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "mmicap.cli", "verify", "--seed", "3"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    identical = all(out == outputs[0] for out in outputs)
    valid = json.loads(outputs[0])["pass"] is True
    elapsed = time.perf_counter() - start
    report(11, "verification reports byte-identical across runs and thread counts",
           identical and valid, "4 runs (MMI_THREADS in {1,1,2,5})", elapsed, 300.0)
