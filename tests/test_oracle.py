"""Oracles: exact MI, optimal-weight construction, constrained ascent."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import mmicap
from mmicap import (
    BlockCovariance,
    ChannelParams,
    CovarianceMatrix,
    DimensionMismatch,
    InfeasibleFactorization,
    OptimizerConfig,
    WeightMatrix,
    build_optimal_weights,
    decompose_covariance,
    eigvals_from_covariance,
    exact_linear_mi,
    factor_check_multilayer,
    maximize_mi,
    maximize_mi_conv,
    mi_gradient,
    mmi_conv,
    mmi_fc,
    tile_filter,
)


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
            analytic = mi_gradient(WeightMatrix(w), cov, noise_var)
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
        assert w.frobenius_sq == pytest.approx(2.5, rel=1e-13)

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
            closed = mmi_fc(ChannelParams(noise_var, budget), dec.spectrum, n0, n1)
            achieved = exact_linear_mi(w, cov, noise_var)
            assert abs(achieved - closed.nats) <= 1e-9
            assert abs(w.frobenius_sq - budget) <= 1e-12 * max(budget, 1e-12)


class TestMaximizeMi:
    def test_scalar(self):
        cov = CovarianceMatrix([[1.0]])
        result = maximize_mi(3.0, cov, 1.0, 1, OptimizerConfig(seed=1))
        assert result.nats == pytest.approx(0.5 * math.log(4.0), abs=1e-6)

    def test_diagonal_instance(self):
        cov = CovarianceMatrix(np.diag([4.0, 2.0, 1.0]))
        closed = mmi_fc(ChannelParams(1.0, 5.0), eigvals_from_covariance(cov), 3, 2)
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
            closed = mmi_fc(ChannelParams(noise_var, budget),
                            eigvals_from_covariance(cov), n0, n1)
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
                assert abs(result.weights.frobenius_sq - budget) <= 1e-12 * budget


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
        closed = mmi_conv(ChannelParams(1.0, 2.0), block, 2)
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
    def test_cached_norm(self):
        w = WeightMatrix([[3.0, 4.0]])
        assert w.frobenius_sq == 25.0

    def test_declared_norm_validated(self):
        with pytest.raises(ValueError):
            WeightMatrix([[3.0, 4.0]], frobenius_sq=26.0)

    def test_entries_immutable(self):
        w = WeightMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            w.entries[0, 0] = 9.0


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
