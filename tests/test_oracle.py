"""Oracles: exact MI, optimal-weight construction, constrained ascent."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import mmicap
from mmicap import (
    ArchitectureSpec,
    BlockCovariance,
    ChannelModel,
    ConfigError,
    Convolutional,
    CovarianceMatrix,
    DimensionMismatch,
    FullyConnected,
    InfeasibleFactorization,
    MCConfig,
    MmicapError,
    NegativeBudget,
    NotPositiveDefinite,
    NumericalOverflow,
    OptimizerConfig,
    Spectrum,
    WeightMatrix,
    breakpoints,
    build_optimal_weights,
    decompose_covariance,
    delta_bound,
    estimate_entropy,
    estimate_mi,
    evaluate,
    exact_linear_mi,
    factor_check_multilayer,
    linear_channel,
    maximize_mi,
    maximize_mi_conv,
    relu_channel,
    sample_gaussian_inputs,
    solve_waterfill,
    tile_filter,
    verify_entropy_ordering,
    verify_relu_theorem,
)
from mmicap import oracle


def random_cov(rng, dim, jitter=0.1):
    b = rng.standard_normal((dim, dim))
    return CovarianceMatrix(b @ b.T + jitter * np.eye(dim))


def random_weights_on_sphere(rng, hidden_dim, input_dim, budget):
    w = rng.standard_normal((hidden_dim, input_dim))
    return WeightMatrix(w * math.sqrt(budget / np.sum(w * w)))


class TestExactLinearMi:
    def test_zero_weights(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        assert exact_linear_mi(WeightMatrix(np.zeros((3, 2))), cov, 1.0) == 0.0

    def test_scalar_case(self):
        mi = exact_linear_mi(WeightMatrix([[1.0]]), CovarianceMatrix([[3.0]]), 1.0)
        assert mi == pytest.approx(math.log(2.0), abs=1e-14)

    def test_matches_slogdet(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n0, n1 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            cov = random_cov(rng, n0)
            w = WeightMatrix(rng.standard_normal((n1, n0)))
            expected = 0.5 * np.linalg.slogdet(
                np.eye(n1) + w.entries @ cov.entries @ w.entries.T)[1]
            assert exact_linear_mi(w, cov, 1.0) == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            exact_linear_mi(WeightMatrix(np.ones((2, 3))),
                            CovarianceMatrix(np.eye(2)), 1.0)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(2)
        step = 1e-5
        for _ in range(6):
            n0, n1 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            cov = random_cov(rng, n0)
            noise_var = float(rng.choice([0.3, 1.0, 3.0]))
            w = rng.standard_normal((n1, n0))
            factor, _ = oracle._mi_value(w, cov.entries, noise_var)
            analytic = oracle._gradient(w, factor, cov.entries, noise_var)
            numeric = np.zeros_like(w)
            for i in range(n1):
                for j in range(n0):
                    bump = np.zeros_like(w)
                    bump[i, j] = step
                    hi = exact_linear_mi(WeightMatrix(w + bump), cov, noise_var)
                    lo = exact_linear_mi(WeightMatrix(w - bump), cov, noise_var)
                    numeric[i, j] = (hi - lo) / (2.0 * step)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale


class TestBuildOptimalWeights:
    def test_zero_budget(self):
        dec = decompose_covariance(CovarianceMatrix(np.diag([2.0, 1.0])))
        w = build_optimal_weights(0.0, dec, 1.0, 2)
        np.testing.assert_array_equal(w.entries, np.zeros((2, 2)))

    def test_diagonal_case(self):
        dec = decompose_covariance(CovarianceMatrix(np.diag([2.0, 1.0])))
        w = build_optimal_weights(2.5, dec, 1.0, 2)
        # rows carry sqrt(1.5), sqrt(1.0) on the eigenvector axes, up to signs
        np.testing.assert_allclose(np.abs(w.entries),
                                   np.diag([math.sqrt(1.5), 1.0]), atol=1e-12)
        assert np.sum(w.entries**2) == pytest.approx(2.5, rel=1e-13)

    def test_single_output_takes_top_component(self):
        dec = decompose_covariance(CovarianceMatrix(np.diag([2.0, 1.0])))
        w = build_optimal_weights(1.0, dec, 1.0, 1)
        np.testing.assert_allclose(np.abs(w.entries), [[1.0, 0.0]], atol=1e-12)

    def test_wide_hidden_layer_pads_zero_rows(self):
        dec = decompose_covariance(CovarianceMatrix(np.diag([2.0, 1.0])))
        w = build_optimal_weights(2.5, dec, 1.0, 5)
        assert w.entries.shape == (5, 2)
        np.testing.assert_array_equal(w.entries[2:], np.zeros((3, 2)))

    def test_achievability_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n0, n1 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            cov = random_cov(rng, n0)
            dec = decompose_covariance(cov)
            noise_var = float(rng.choice([0.1, 1.0, 10.0]))
            budget = float(rng.uniform(0.0, 10.0))
            w = build_optimal_weights(budget, dec, noise_var, n1)
            closed = evaluate(ArchitectureSpec(FullyConnected(n0, n1)),
                              dec.spectrum, noise_var, budget)
            achieved = exact_linear_mi(w, cov, noise_var)
            assert abs(achieved - closed.nats) <= 1e-9
            assert abs(np.sum(w.entries**2) - budget) <= 1e-12 * max(budget, 1e-12)


class TestMaximizeMi:
    def test_scalar(self):
        cov = CovarianceMatrix([[1.0]])
        result = maximize_mi(3.0, cov, 1.0, 1, OptimizerConfig(seed=1))
        assert result.nats == pytest.approx(0.5 * math.log(4.0), abs=1e-6)

    def test_diagonal_instance(self):
        cov = CovarianceMatrix(np.diag([4.0, 2.0, 1.0]))
        closed = evaluate(ArchitectureSpec(FullyConnected(3, 2)),
                          decompose_covariance(cov).spectrum, 1.0, 5.0)
        result = maximize_mi(5.0, cov, 1.0, 2, OptimizerConfig(seed=2))
        assert abs(closed.nats - result.nats) <= 1e-4
        assert result.nats <= closed.nats + 1e-9

    def test_zero_budget(self):
        cov = CovarianceMatrix(np.eye(2))
        result = maximize_mi(0.0, cov, 1.0, 2, OptimizerConfig(seed=3))
        assert result.nats == 0.0 and result.converged

    def test_nested_budgets_monotone(self):
        rng = np.random.default_rng(4)
        cov = random_cov(rng, 3)
        config = OptimizerConfig(seed=5, restarts=3)
        budgets = [0.5, 1.0, 2.0, 4.0]
        values = [maximize_mi(f, cov, 1.0, 2, config).nats for f in budgets]
        for small, large in zip(values, values[1:]):
            assert small <= large + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        cov = random_cov(rng, 3)
        config = OptimizerConfig(seed=11, restarts=3)
        a = maximize_mi(2.0, cov, 1.0, 2, config)
        b = maximize_mi(2.0, cov, 1.0, 2, config)
        assert a.nats == b.nats
        np.testing.assert_array_equal(a.weights.entries, b.weights.entries)

    def test_soundness_random_feasible_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n0, n1 = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            cov = random_cov(rng, n0)
            noise_var = float(rng.choice([0.1, 1.0, 10.0]))
            budget = float(rng.uniform(0.1, 8.0))
            closed = evaluate(ArchitectureSpec(FullyConnected(n0, n1)),
                              decompose_covariance(cov).spectrum, noise_var, budget)
            for _ in range(5):
                w = random_weights_on_sphere(rng, n1, n0, budget)
                assert exact_linear_mi(w, cov, noise_var) <= closed.nats + 1e-9

    def test_weights_saturate_the_budget(self):
        rng = np.random.default_rng(8)
        for restarts in (1, 3):
            for _ in range(10):
                n0, n1 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
                budget = float(rng.uniform(0.01, 20.0))
                result = maximize_mi(budget, random_cov(rng, n0), 1.0, n1,
                                     OptimizerConfig(max_iters=200, restarts=restarts,
                                                     seed=int(rng.integers(100))))
                assert abs(np.sum(result.weights.entries**2) - budget) <= 1e-12 * budget


class TestMaximizeMiConv:
    def test_single_block_matches_dense_run(self):
        rng = np.random.default_rng(8)
        block = BlockCovariance(random_cov(rng, 2), 1)
        config = OptimizerConfig(seed=9, restarts=2)
        conv = maximize_mi_conv(1.5, block, 2, 1.0, config)
        dense = maximize_mi(1.5, block.block, 1.0, 2, config)
        assert conv.nats == dense.nats  # identical seeds, identical problem

    def test_hand_value(self):
        block = BlockCovariance(CovarianceMatrix(np.diag([2.0, 1.0])), 2)
        result = maximize_mi_conv(2.5, block, 2, 1.0, OptimizerConfig(seed=10, restarts=3))
        assert result.nats == pytest.approx(2.0 * 1.0397207708399179, abs=1e-4)

    def test_zero_budget(self):
        block = BlockCovariance(CovarianceMatrix(np.eye(2)), 3)
        result = maximize_mi_conv(0.0, block, 2, 1.0, OptimizerConfig(seed=11))
        assert result.nats == 0.0

    def test_tiled_weights_score_the_full_channel(self):
        rng = np.random.default_rng(12)
        block = BlockCovariance(random_cov(rng, 2), 3)
        result = maximize_mi_conv(2.0, block, 2, 1.0, OptimizerConfig(seed=13, restarts=2))
        tiled = WeightMatrix(tile_filter(result.weights.entries, 3))
        assert exact_linear_mi(tiled, block.expand(), 1.0) == pytest.approx(
            result.nats, abs=1e-12)
        closed = evaluate(ArchitectureSpec(Convolutional(block.input_dim, block.block.dim, 2)),
                          block, 1.0, 2.0)
        assert result.nats <= closed.nats + 1e-9


    @pytest.mark.parametrize("reps", [1, 4, 64])
    def test_ascent_runs_on_one_block(self, reps):
        rng = np.random.default_rng(19)
        block_cov = random_cov(rng, 3)
        block = BlockCovariance(block_cov, reps)
        config = OptimizerConfig(seed=20, restarts=2, max_iters=500)
        conv = maximize_mi_conv(2.0, block, 2, 1.0, config)
        dense = maximize_mi(2.0, block_cov, 1.0, 2, config)
        np.testing.assert_array_equal(conv.weights.entries, dense.weights.entries)
        tiled = WeightMatrix(tile_filter(conv.weights.entries, reps))
        assert conv.nats == pytest.approx(exact_linear_mi(tiled, block.expand(), 1.0),
                                          abs=1e-12)

    def test_expands_the_block_once(self, monkeypatch):
        calls = []
        expand = BlockCovariance.expand

        def counting(self):
            calls.append(1)
            return expand(self)

        monkeypatch.setattr(BlockCovariance, "expand", counting)
        block = BlockCovariance(CovarianceMatrix(np.diag([2.0, 1.0])), 8)
        maximize_mi_conv(2.5, block, 2, 1.0, OptimizerConfig(seed=21, restarts=3))
        assert len(calls) == 1


class TestHessian:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 4), (5, 2), (1, 1)])
    def test_matches_central_differences_of_the_gradient(self, shape):
        rng = np.random.default_rng(30)
        hidden, inputs = shape
        cov = random_cov(rng, inputs).entries
        noise_var = 0.7
        w = rng.standard_normal(shape)

        def grad_at(x):
            factor, _ = oracle._mi_value(x, cov, noise_var)
            return oracle._gradient(x, factor, cov, noise_var)

        factor, _ = oracle._mi_value(w, cov, noise_var)
        hess = oracle._hessian(w, grad_at(w), factor, cov, noise_var)
        step = 1e-5
        numeric = np.empty_like(hess)
        for col in range(w.size):
            bump = np.zeros(w.size)
            bump[col] = step
            bump = bump.reshape(shape)
            numeric[:, col] = ((grad_at(w + bump) - grad_at(w - bump)) / (2 * step)).ravel()
        assert np.max(np.abs(hess - numeric)) <= 3e-9
        np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-14)

    def test_horizontal_basis_excludes_scaling_and_rotations(self):
        rng = np.random.default_rng(31)
        for hidden, inputs in [(2, 3), (3, 4), (4, 2), (3, 3)]:
            w = rng.standard_normal((hidden, inputs))
            basis = oracle._horizontal_basis(w)
            np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
            # hd - 1 less the rank of J -> J W on skew J, which is dim so(h) less
            # dim so(h - rank W): rotations inside the complement of W's range fix W
            rank = min(hidden, inputs)
            expected = hidden * inputs - 1 - hidden * (hidden - 1) // 2 \
                + (hidden - rank) * (hidden - rank - 1) // 2
            assert basis.shape[1] == expected
            for col in basis.T:
                xi = col.reshape(w.shape)
                assert abs(np.sum(xi * w)) <= 1e-12
                np.testing.assert_allclose(xi @ w.T, w @ xi.T, atol=1e-12)

    def test_empty_horizontal_space_converges_at_once(self, monkeypatch):
        # one input: the MI is a function of |W|^2 alone, constant on the sphere
        w = random_weights_on_sphere(np.random.default_rng(32), 5, 1, 2.0).entries
        assert oracle._horizontal_basis(w).shape[1] == 0
        monkeypatch.setattr(oracle, "TOLERANCE", 1e-300)
        _, nats, converged, iterations = oracle._ascend(
            w, 2.0, np.array([[1.5]]), 1.0, OptimizerConfig())
        assert converged and iterations == 0
        assert nats == pytest.approx(0.5 * math.log1p(3.0), abs=1e-15)


class TestTrustRegionStep:
    @staticmethod
    def model(grad, hess, x):
        return grad @ x + 0.5 * x @ hess @ x

    def test_interior_newton_step(self):
        hess = -np.array([[2.0, 0.5], [0.5, 1.0]])
        grad = np.array([0.1, -0.2])
        x = oracle._trust_region_step(grad, hess, 10.0)
        np.testing.assert_allclose(x, np.linalg.solve(-hess, grad), rtol=1e-14)

    def test_hard_case_fills_the_radius_along_the_top_curvature(self):
        # no gradient along e1, where the model curves upward: x(nu) never
        # reaches the radius, so e1 supplies the rest of it
        hess, grad = np.diag([1.0, -1.0]), np.array([0.0, 1.0])
        x = oracle._trust_region_step(grad, hess, 2.0)
        assert np.linalg.norm(x) == pytest.approx(2.0, rel=1e-14)
        assert self.model(grad, hess, x) == pytest.approx(2.25, rel=1e-14)

    def test_boundary_steps_beat_every_point_of_the_ball(self):
        rng = np.random.default_rng(33)
        points = rng.standard_normal((200000, 3))
        points *= rng.uniform(0, 1, size=(points.shape[0], 1)) ** (1 / 3) \
            / np.linalg.norm(points, axis=1, keepdims=True)
        for _ in range(10):
            b = rng.standard_normal((3, 3))
            hess, grad = b + b.T, rng.standard_normal(3)
            radius = float(rng.uniform(0.1, 2.0))
            x = oracle._trust_region_step(grad, hess, radius)
            # More-Sorensen optimality: (nu Id - hess) x = grad with nu Id - hess
            # positive semi-definite, on the boundary whenever nu > 0
            nu = x @ (grad + hess @ x) / (x @ x)
            np.testing.assert_allclose(nu * x - hess @ x, grad, atol=1e-10)
            assert nu >= max(0.0, np.linalg.eigvalsh(hess)[-1]) - 1e-10
            assert np.linalg.norm(x) == pytest.approx(radius, rel=1e-11)
            sampled = points * radius
            best = np.max(sampled @ grad + 0.5 * np.einsum("ij,jk,ik->i", sampled, hess, sampled))
            assert self.model(grad, hess, x) >= best - 1e-12


def _record_runs(monkeypatch):
    runs = []
    ascend = oracle._ascend

    def recording(*args, **kwargs):
        result = ascend(*args, **kwargs)
        runs.append(result[3])
        return result

    monkeypatch.setattr(oracle, "_ascend", recording)
    return runs


def _rotated(rng, eigvals):
    basis, _ = np.linalg.qr(rng.standard_normal((eigvals.size, eigvals.size)))
    return CovarianceMatrix((basis * eigvals) @ basis.T)


class TestTrustRegionGates:
    def test_conv_instances_converge_within_50_iterations(self, monkeypatch):
        runs = _record_runs(monkeypatch)
        rng = np.random.default_rng(40)
        worst = 0.0
        for i in range(100):
            block = BlockCovariance(random_cov(rng, 3), 4)
            budget = float(rng.uniform(0.5, 3.0))
            result = maximize_mi_conv(budget, block, 2, 1.0,
                                      OptimizerConfig(restarts=4, seed=i))
            assert result.converged
            worst = max(worst, evaluate(
                ArchitectureSpec(Convolutional(block.input_dim, block.block.dim, 2)),
                block, 1.0, budget).nats - result.nats)
        assert len(runs) == 400 and max(runs) <= 50
        assert worst <= 1e-12

    def test_near_degenerate_pairs_beside_a_breakpoint(self, monkeypatch):
        runs = _record_runs(monkeypatch)
        rng = np.random.default_rng(41)
        worst = 0.0
        for i, (input_dim, hidden_dim) in enumerate([(3, 2), (4, 3)] * 10):
            eigvals = np.exp(rng.uniform(-1.0, 1.0, size=input_dim))
            k = int(rng.integers(input_dim - 1))
            eigvals[k + 1] = eigvals[k] * (1.0 - 10.0 ** rng.uniform(-4, -2))
            spectrum = Spectrum(np.sort(eigvals)[::-1])
            cov = _rotated(rng, spectrum.values)
            rho = breakpoints(spectrum, 1.0, hidden_dim)
            budget = float(rho[int(rng.integers(1, rho.size))]
                           * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5, -3)))
            result = maximize_mi(budget, cov, 1.0, hidden_dim,
                                 OptimizerConfig(restarts=4, seed=i))
            assert result.converged
            closed = evaluate(ArchitectureSpec(FullyConnected(input_dim, hidden_dim)),
                              spectrum, 1.0, budget)
            worst = max(worst, abs(closed.nats - result.nats))
        assert max(runs) <= 50
        assert worst <= 1e-11

    def test_budget_just_below_the_second_breakpoint(self, monkeypatch):
        # Two hidden units and a vanishing second component: with the rotation of
        # the hidden units left in the step space, its flat curvature took the whole
        # trust region and the ascent ran to max_iters.
        runs = _record_runs(monkeypatch)
        rng = np.random.default_rng(42)
        for i in range(10):
            cov = random_cov(rng, 3)
            spectrum = decompose_covariance(cov).spectrum
            budget = float(breakpoints(spectrum, 1.0, 2)[1]
                           * (1.0 - 10.0 ** rng.uniform(-6, -2)))
            result = maximize_mi(budget, cov, 1.0, 2, OptimizerConfig(restarts=2, seed=i))
            assert result.converged
            closed = evaluate(ArchitectureSpec(FullyConnected(3, 2)), spectrum, 1.0, budget).nats
            assert abs(closed - result.nats) <= 1e-11
        assert max(runs) <= 50


class TestFactorCheckMultilayer:
    def test_identity_factorization(self):
        rng = np.random.default_rng(14)
        cov = random_cov(rng, 3)
        w = WeightMatrix(rng.standard_normal((2, 3)))
        direct = exact_linear_mi(w, cov, 1.0)
        assert factor_check_multilayer(w, [2], cov, 1.0) == direct

    def test_three_layer_rank_two(self):
        rng = np.random.default_rng(15)
        cov = random_cov(rng, 3)
        w = WeightMatrix(rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3)))
        assert np.linalg.matrix_rank(w.entries) == 2
        direct = exact_linear_mi(w, cov, 1.0)
        assert abs(factor_check_multilayer(w, [3, 2, 3], cov, 1.0) - direct) <= 1e-12

    def test_preserves_mi_random_instances(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n0 = int(rng.integers(2, 6))
            n1 = int(rng.integers(1, 6))
            cov = random_cov(rng, n0)
            dec = decompose_covariance(cov)
            w = build_optimal_weights(float(rng.uniform(0.5, 4.0)), dec, 1.0, n1)
            rank = np.linalg.matrix_rank(w.entries)
            depth = int(rng.integers(2, 5))
            widths = list(rng.integers(rank, rank + 4, size=depth - 1)) + [n1]
            direct = exact_linear_mi(w, cov, 1.0)
            assert abs(factor_check_multilayer(w, widths, cov, 1.0) - direct) <= 1e-12

    def test_rank_obstruction(self):
        rng = np.random.default_rng(17)
        cov = random_cov(rng, 3)
        w = WeightMatrix(rng.standard_normal((2, 3)))  # full rank 2 a.s.
        with pytest.raises(InfeasibleFactorization):
            factor_check_multilayer(w, [1], cov, 1.0)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(18)
        cov = random_cov(rng, 3)
        w = WeightMatrix(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            factor_check_multilayer(w, [3, 3], cov, 1.0)


class TestWeightMatrix:
    def test_entries_immutable(self):
        w = WeightMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            w.entries[0, 0] = 9.0


DIAG = CovarianceMatrix(np.diag([3.0, 1.5, 0.5]))
BLOCK = BlockCovariance(CovarianceMatrix(np.diag([2.0, 1.0])), 2)
ONE_RUN = OptimizerConfig(restarts=1)
EYE = WeightMatrix(np.eye(2))
# a channel on 3 inputs against a 2-dim covariance
WIDE_RELU = relu_channel(WeightMatrix(np.ones((2, 3))), np.zeros(2), 1.0)
EYE_COV, FEW_DRAWS = CovarianceMatrix(np.eye(2)), MCConfig(100, 100, seed=0)


@pytest.mark.parametrize("call, error", [
    (lambda: maximize_mi(1.0, DIAG, -1.0, 2, ONE_RUN), ConfigError),
    (lambda: maximize_mi(1.0, DIAG, math.nan, 2, ONE_RUN), ConfigError),
    (lambda: maximize_mi(math.nan, DIAG, 1.0, 2, ONE_RUN), NegativeBudget),
    (lambda: maximize_mi(math.inf, DIAG, 1.0, 2, ONE_RUN), NegativeBudget),
    (lambda: maximize_mi(-1.0, DIAG, 1.0, 2, ONE_RUN), NegativeBudget),
    (lambda: maximize_mi(np.array([1.0, 2.0]), DIAG, 1.0, 2, ONE_RUN), DimensionMismatch),
    (lambda: maximize_mi(1.0, DIAG, 1.0, 2.0, ONE_RUN), DimensionMismatch),
    (lambda: maximize_mi_conv(1.0, BLOCK, 2, math.nan, ONE_RUN), ConfigError),
    (lambda: maximize_mi_conv(1.0, BLOCK, 0, 1.0, ONE_RUN), DimensionMismatch),
    (lambda: maximize_mi_conv(1.0, BLOCK, 1.5, 1.0, ONE_RUN), DimensionMismatch),
    (lambda: exact_linear_mi(EYE, CovarianceMatrix(np.eye(2)), math.nan), ConfigError),
    (lambda: exact_linear_mi(EYE, CovarianceMatrix(np.eye(2)), math.inf), ConfigError),
    (lambda: exact_linear_mi(EYE, CovarianceMatrix(np.eye(2)), -1.0), ConfigError),
    (lambda: build_optimal_weights(1.0, decompose_covariance(DIAG), 1.0, 2.5),
     DimensionMismatch),
    (lambda: build_optimal_weights(1.0, decompose_covariance(DIAG), math.nan, 2), ConfigError),
    (lambda: factor_check_multilayer(EYE, [2.5], CovarianceMatrix(np.eye(2)), 1.0),
     DimensionMismatch),
    (lambda: factor_check_multilayer(EYE, [], CovarianceMatrix(np.eye(2)), 1.0),
     DimensionMismatch),
    (lambda: OptimizerConfig(max_iters=2.5), ConfigError),
    (lambda: OptimizerConfig(restarts=0), ConfigError),
    (lambda: OptimizerConfig(seed=-1), ConfigError),
    (lambda: WeightMatrix([[math.nan, 4.0]]), ConfigError),
    (lambda: WeightMatrix([["3", "4"]]), ConfigError),
    (lambda: WeightMatrix([[True, 4.0]]), ConfigError),
    (lambda: exact_linear_mi(EYE, CovarianceMatrix(np.eye(2)), True), ConfigError),
    (lambda: exact_linear_mi(EYE, CovarianceMatrix(np.eye(3)), 1.0), DimensionMismatch),
    (lambda: estimate_entropy(WIDE_RELU, EYE_COV, FEW_DRAWS), DimensionMismatch),
    (lambda: estimate_mi(linear_channel(WIDE_RELU.weights, np.zeros(2), 1.0), EYE_COV,
                         FEW_DRAWS), DimensionMismatch),
    (lambda: verify_entropy_ordering(WIDE_RELU, EYE_COV, FEW_DRAWS), DimensionMismatch),
    (lambda: delta_bound(WIDE_RELU, EYE_COV), DimensionMismatch),
    (lambda: tile_filter([[math.nan, 1.0]], 2), ConfigError),
    (lambda: tile_filter([["1", "2"]], 2), ConfigError),
    (lambda: tile_filter(np.eye(2), 0), DimensionMismatch),
    (lambda: tile_filter(np.eye(2), -1), DimensionMismatch),
    (lambda: tile_filter(np.eye(2), 2.0), DimensionMismatch),
    (lambda: tile_filter(1.0, 2), DimensionMismatch),
    (lambda: tile_filter([1.0, 2.0], 2), DimensionMismatch),
    (lambda: ChannelModel(EYE, np.zeros(3), 1.0), ConfigError),
    (lambda: ChannelModel(EYE, np.zeros(2), 1.0, "sigmoid"), ConfigError),
    (lambda: sample_gaussian_inputs(CovarianceMatrix([[1.0, 2.0], [2.0, 1.0]]), 4, 0),
     NotPositiveDefinite),
    (lambda: verify_entropy_ordering(linear_channel(EYE, np.zeros(2), 1.0), EYE_COV,
                                     FEW_DRAWS), ConfigError),
    (lambda: WeightMatrix([1.0, 2.0]), DimensionMismatch),
    (lambda: verify_relu_theorem(1.0, EYE_COV, 1.0, 2, [4.0, 2.0], FEW_DRAWS), ConfigError),
    (lambda: exact_linear_mi(WeightMatrix([[1e200]]), CovarianceMatrix([[1.0]]), 1.0),
     NumericalOverflow),
    (lambda: exact_linear_mi(WeightMatrix([[1e200, 0.0]]), EYE_COV, 1e-300), NumericalOverflow),
    (lambda: maximize_mi(1e308, CovarianceMatrix([[1.0]]), 1.0, 1, ONE_RUN), NumericalOverflow),
    (lambda: maximize_mi(1e300, CovarianceMatrix([[1.0]]), 1e-10, 1, ONE_RUN),
     NumericalOverflow),
    (lambda: solve_waterfill(np.array([1.0, 2.0]), Spectrum([2.0, 1.0]), 1.0, 2),
     DimensionMismatch),
    (lambda: build_optimal_weights(np.array([1.0, 2.0]), decompose_covariance(DIAG), 1.0, 2),
     DimensionMismatch),
], ids=["negative-noise", "nan-noise", "nan-budget", "inf-budget", "negative-budget",
        "array-budget", "float-hidden-dim", "conv-nan-noise", "zero-filters", "float-filters",
        "exact-nan-noise", "exact-inf-noise", "exact-negative-noise", "weights-float-hidden",
        "weights-nan-noise", "float-width", "no-widths",
        "float-max-iters", "zero-restarts", "negative-seed", "nan-weights",
        "string-weights", "bool-weights", "exact-bool-noise", "exact-dim-mismatch",
        "entropy-dim-mismatch", "mi-dim-mismatch", "ordering-dim-mismatch",
        "delta-bound-dim-mismatch", "tile-nan-filter", "tile-string-filter", "tile-zero-reps",
        "tile-negative-reps", "tile-float-reps", "tile-scalar-filter", "tile-vector-filter",
        "bias-length", "unknown-activation",
        "sampling-indefinite-cov", "ordering-linear-channel", "one-dim-weights",
        "descending-bias-scales", "exact-overflow", "exact-overflow-in-division",
        "ascent-start-overflow", "ascent-overflow", "waterfill-array-budget",
        "weights-array-budget"])
def test_rejects_malformed_input(call, error):
    with pytest.raises(MmicapError) as caught:
        call()
    assert type(caught.value) is error


def test_ascent_out_of_iterations_reports_not_converged():
    result = maximize_mi(2.0, DIAG, 0.5, 2, OptimizerConfig(max_iters=1, restarts=1))
    assert result.converged is False and result.iterations == 1


def test_finite_oracle_results_near_the_double_range_are_unchanged():
    # the overflow checks read only results that are non-finite today
    weights = WeightMatrix([[1e150]])
    assert exact_linear_mi(weights, CovarianceMatrix([[1.0]]), 1.0) == math.log(1e150)


def test_numpy_scalars_give_the_python_number_results():
    dec = decompose_covariance(DIAG)
    weights = build_optimal_weights(np.float64(2.0), dec, np.float64(0.5), np.int64(2))
    np.testing.assert_array_equal(
        weights.entries, build_optimal_weights(2.0, dec, 0.5, 2).entries)
    assert exact_linear_mi(weights, DIAG, np.float64(0.5)) == exact_linear_mi(weights, DIAG, 0.5)
    config = OptimizerConfig(max_iters=np.int64(50), seed=np.int64(3), restarts=np.int32(2))
    numpy = maximize_mi(np.float64(2.0), DIAG, np.float64(0.5), np.int64(2), config)
    python = maximize_mi(2.0, DIAG, 0.5, 2, OptimizerConfig(max_iters=50, seed=3, restarts=2))
    np.testing.assert_array_equal(numpy.weights.entries, python.weights.entries)
    assert (numpy.nats, numpy.iterations) == (python.nats, python.iterations)


def test_input_policy_lives_in_errors():
    # every number check goes through errors.positive, errors.real,
    # errors.finite and errors.budgets: no module raises an untyped ValueError
    # or TypeError, and only errors.py tests for the numeric ABCs
    for path in sorted(Path(mmicap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert ast.unparse(raised) not in ("ValueError", "TypeError"), \
                    (path.name, node.lineno)
            if path.name == "errors.py":
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in (
                    ("numbers", "Real"), ("numbers", "Integral")), (path.name, node.lineno)
            if isinstance(node, ast.ImportFrom):
                assert node.module != "numbers", (path.name, node.lineno)


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    for path in sorted(Path(mmicap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, names)


#: Exports that no module, README line or benchmark reads, each kept for its reason.
UNREAD_EXPORTS = {
    "factor_check_multilayer": "the K-layer oracle that a planned verify check calls",
}


def _identifiers(path: Path) -> set:
    tree = ast.parse(path.read_text())
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} \
        | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} \
        | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
           for alias in node.names}


def test_every_export_has_a_reader():
    # a public name that only its own tests call is dead code: each export is
    # read (not just defined) by the package's modules, the README or the benchmark
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "mmicap"
    exports = {alias.name for node in ast.parse((package / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for path in sorted(package.glob("*.py")) + sorted((root / "benchmarks").glob("*.py")):
        if path != package / "__init__.py":
            read |= _identifiers(path)
    assert sorted(exports - read) == sorted(UNREAD_EXPORTS)


def test_ascent_path_reads_nothing_from_the_closed_form():
    # the optimizer is an independent oracle: none of its functions may use a
    # name imported from the water-filling or capacity modules
    tree = ast.parse(Path(oracle.__file__).read_text())
    closed_form = {alias.asname or alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module in ("waterfill", "mmi")
                   for alias in node.names}
    assert closed_form  # the module does import from them, for build_optimal_weights
    ascent = {"_ascend", "_hessian", "_horizontal_basis", "_trust_region_step",
              "_mi_value", "_gradient", "_multistart"}
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in ascent]
    assert {f.name for f in functions} == ascent
    for function in functions:
        used = {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
        assert not used & closed_form, (function.name, used & closed_form)
