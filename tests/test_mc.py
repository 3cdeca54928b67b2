"""Monte-Carlo estimators: calibration, activation checks, determinism."""

import ast
import inspect
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

import mmicap.mc
from mmicap import (
    ArchitectureSpec,
    ConfigError,
    CovarianceMatrix,
    DeltaOutOfRange,
    DimensionMismatch,
    FullyConnected,
    MCConfig,
    NumericalOverflow,
    NumericalUnderflow,
    WeightMatrix,
    bijective_channel,
    build_optimal_weights,
    decompose_covariance,
    delta_bound,
    estimate_entropy,
    estimate_mi,
    evaluate,
    exact_linear_mi,
    g_bound,
    linear_channel,
    relu_channel,
    sample_gaussian_inputs,
    verify_entropy_ordering,
    verify_relu_theorem,
)


def normal_cdf(x):
    """Independent standard normal CDF via the error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def random_cov(rng, dim, jitter=0.2):
    b = rng.standard_normal((dim, dim))
    return CovarianceMatrix(b @ b.T + jitter * np.eye(dim))


class TestSampling:
    def test_identity_moments(self):
        cov = CovarianceMatrix(np.eye(2))
        x = sample_gaussian_inputs(cov, 100_000, seed=0)
        sample_cov = x.T @ x / x.shape[0]
        assert np.max(np.abs(sample_cov - np.eye(2))) < 0.05

    def test_single_draw(self):
        x = sample_gaussian_inputs(CovarianceMatrix(np.eye(3)), 1, seed=1)
        assert x.shape == (1, 3) and np.all(np.isfinite(x))

    def test_diagonal_variances(self):
        cov = CovarianceMatrix(np.diag([4.0, 1.0]))
        x = sample_gaussian_inputs(cov, 100_000, seed=2)
        variances = x.var(axis=0)
        assert abs(variances[0] - 4.0) < 0.2
        assert abs(variances[1] - 1.0) < 0.05

    def test_deterministic(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        np.testing.assert_array_equal(
            sample_gaussian_inputs(cov, 50, seed=9),
            sample_gaussian_inputs(cov, 50, seed=9))


class TestEstimateEntropy:
    def test_pure_noise_entropy(self):
        # W = 0: the output is exactly N(b, s Id), entropy (d/2) log(2 pi e s)
        cov = CovarianceMatrix(np.eye(2))
        channel = linear_channel(WeightMatrix(np.zeros((2, 2))), np.zeros(2), 1.0)
        est = estimate_entropy(channel, cov, MCConfig(4000, 4000, seed=5))
        expected = math.log(2.0 * math.pi * math.e)
        assert abs(est.value - expected) <= 3.0 * est.std_error

    def test_bias_shift_invariance(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        w = WeightMatrix([[1.0, 0.0], [0.0, 1.0]])
        a = estimate_entropy(linear_channel(w, np.zeros(2), 1.0), cov,
                             MCConfig(2000, 2000, seed=6))
        b = estimate_entropy(linear_channel(w, np.array([5.0, -3.0]), 1.0), cov,
                             MCConfig(2000, 2000, seed=6))
        assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_underflow_flagged(self):
        cov = CovarianceMatrix(np.eye(2))
        channel = linear_channel(WeightMatrix(np.eye(2)), np.zeros(2), 1e-30)
        with pytest.raises(NumericalUnderflow):
            estimate_entropy(channel, cov, MCConfig(100, 100, seed=7))

    def test_config_minimums(self):
        with pytest.raises(ConfigError):
            MCConfig(50, 4000, seed=0)
        with pytest.raises(ConfigError):
            MCConfig(4000, 99, seed=0)


class TestInputChecks:
    @pytest.mark.parametrize("noise_var", [math.nan, math.inf, -math.inf, -1.0, 0.0, True, "1"])
    def test_noise_var_must_be_positive_and_finite(self, noise_var):
        with pytest.raises(ConfigError, match="noise_var"):
            linear_channel(WeightMatrix(np.eye(2)), np.zeros(2), noise_var)

    @pytest.mark.parametrize("bias", [
        ["0", "nan"], ["0", "1"], [0.0, math.nan], [0.0, math.inf], [True, 0.0],
        np.array([True, False]),
    ], ids=["string-nan", "string", "nan", "inf", "bool", "bool-array"])
    def test_bias_must_be_real_and_finite(self, bias):
        with pytest.raises(ConfigError, match="bias"):
            linear_channel(WeightMatrix(np.eye(2)), bias, 1.0)

    @pytest.mark.parametrize("noise_var", [np.float64(0.5), 2, np.int64(3)])
    def test_noise_var_accepts_real_numbers(self, noise_var):
        assert relu_channel(WeightMatrix(np.eye(2)), np.zeros(2), noise_var).noise_var == noise_var

    @pytest.mark.parametrize("n_outer, n_inner, seed, name", [
        (100.5, 200, 0, "n_outer"),
        (200, 150.0, 0, "n_inner"),
        (True, 200, 0, "n_outer"),
        ("200", 200, 0, "n_outer"),
        (200, 200, -1, "seed"),
        (200, 200, 1.5, "seed"),
        (200, 200, False, "seed"),
        (200, 200, None, "seed"),
    ])
    def test_config_must_hold_integers(self, n_outer, n_inner, seed, name):
        with pytest.raises(ConfigError, match=name):
            MCConfig(n_outer, n_inner, seed)

    def test_config_accepts_numpy_integers(self):
        mc = MCConfig(np.int64(100), np.int32(300), np.uint64(2**63))
        assert (mc.n_outer, mc.n_inner, mc.seed) == (100, 300, 2**63)
        assert all(type(v) is int for v in (mc.n_outer, mc.n_inner, mc.seed))


class TestEstimateMi:
    def test_zero_weights(self):
        cov = CovarianceMatrix(np.eye(2))
        channel = linear_channel(WeightMatrix(np.zeros((2, 2))), np.zeros(2), 1.0)
        est = estimate_mi(channel, cov, MCConfig(2000, 2000, seed=8))
        assert abs(est.value) <= 3.0 * est.std_error

    def test_scalar_closed_form(self):
        channel = linear_channel(WeightMatrix([[1.0]]), np.zeros(1), 1.0)
        est = estimate_mi(channel, CovarianceMatrix([[3.0]]), MCConfig(8000, 8000, seed=9))
        assert abs(est.value - math.log(2.0)) <= 3.0 * est.std_error

    def test_calibration_against_exact_mi(self):
        # moderate-MI channels: the regime every stochastic check runs in;
        # at high MI in high dimension the mixture components separate and
        # the plug-in needs far more inner samples than any suite uses
        rng = np.random.default_rng(10)
        for i in range(20):
            n0, n1 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            cov = random_cov(rng, n0)
            raw = rng.standard_normal((n1, n0)) * 0.7
            bias = rng.uniform(-1, 1, size=n1)
            noise_var = float(rng.choice([0.5, 1.0, 2.0]))
            while exact_linear_mi(WeightMatrix(raw), cov, noise_var) > 4.0:
                raw = raw * 0.7
            w = WeightMatrix(raw)
            channel = linear_channel(w, bias, noise_var)
            exact = exact_linear_mi(w, cov, noise_var)
            est = estimate_mi(channel, cov, MCConfig(2500, 6000, seed=100 + i))
            assert abs(est.value - exact) <= 3.0 * max(est.std_error, 1e-4)

    def test_relu_large_bias_near_closed_form(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        dec = decompose_covariance(cov)
        w = build_optimal_weights(2.5, dec, 1.0, 2)
        channel = relu_channel(w, np.array([8.0, 8.0]), 1.0)
        est = estimate_mi(channel, cov, MCConfig(20_000, 20_000, seed=11))
        assert abs(est.value - 1.0397207708399179) <= 0.02

    def test_estimator_consistency_in_inner_samples(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        w = WeightMatrix([[0.8, 0.1], [0.0, 0.6]])
        channel = linear_channel(w, np.zeros(2), 1.0)
        small = estimate_entropy(channel, cov, MCConfig(2000, 2000, seed=12))
        large = estimate_entropy(channel, cov, MCConfig(2000, 4000, seed=12))
        assert abs(large.value - small.value) <= 3.0 * small.std_error


class TestDeltaBound:
    def test_large_bias_vanishes(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        w = WeightMatrix(np.eye(2))
        assert delta_bound(relu_channel(w, np.array([1e9, 1e9]), 1.0), cov) == 0.0

    def test_zero_bias_scalar(self):
        # unit pre-activation variance, zero bias: Phi(0) = 1/2 exactly
        cov = CovarianceMatrix([[1.0]])
        w = WeightMatrix([[1.0]])
        assert delta_bound(relu_channel(w, np.zeros(1), 1.0), cov) == 0.5

    def test_optimal_weights_value(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        dec = decompose_covariance(cov)
        w = build_optimal_weights(2.5, dec, 1.0, 2)
        bound = delta_bound(relu_channel(w, np.array([8.0, 8.0]), 1.0), cov)
        # pre-activation variances are 1.5*2 and 1.0*1
        expected = normal_cdf(-8.0 / math.sqrt(3.0)) + normal_cdf(-8.0)
        assert bound == pytest.approx(expected, rel=1e-12)
        assert bound < 1e-5

    def test_zero_rows(self):
        cov = CovarianceMatrix(np.eye(2))
        w = WeightMatrix(np.zeros((2, 2)))
        assert delta_bound(relu_channel(w, np.array([1.0, 0.0]), 1.0), cov) == 0.0
        assert delta_bound(relu_channel(w, np.array([-0.1, 1.0]), 1.0), cov) == 1.0

    def test_clamped_to_one(self):
        cov = CovarianceMatrix(np.eye(3))
        w = WeightMatrix(np.eye(3))
        bound = delta_bound(relu_channel(w, np.full(3, -9.0), 1.0), cov)
        assert bound == 1.0

    def test_requires_relu(self):
        cov = CovarianceMatrix(np.eye(2))
        with pytest.raises(ConfigError):
            delta_bound(linear_channel(WeightMatrix(np.eye(2)), np.zeros(2), 1.0), cov)


class TestGBound:
    def test_zero(self):
        assert g_bound(0.0, 1.0, 3) == 0.0

    def test_hand_value(self):
        # M = 1 at noise_var = 1/(2 pi), one output coordinate
        expected = 0.4 * abs(math.log(0.2)) + 2.0 * (
            -0.1 * math.log(0.1) - 0.9 * math.log(0.9))
        assert abs(g_bound(0.1, 1.0 / (2.0 * math.pi), 1) - expected) <= 1e-9

    def test_small_noise_constant(self):
        delta, noise_var, dim = 0.05, 0.01, 2
        m_const = (2.0 * math.pi * noise_var) ** (-1.0)
        expected = (4 * delta * abs(math.log(2 * delta))
                    + 2 * delta * math.log(m_const)
                    + 2 * (-delta * math.log(delta) - 0.95 * math.log(0.95)))
        assert g_bound(delta, noise_var, dim) == pytest.approx(expected, rel=1e-12)

    def test_wide_layer_past_the_double_range_of_m(self):
        # M = (2 pi 1e-3)^(-200) passes the double range; log M does not
        delta = 0.1
        log_m = 200.0 * (3.0 * math.log(10.0) - math.log(2.0 * math.pi))
        expected = (4 * delta * abs(math.log(2 * delta)) + 2 * delta * log_m
                    + 2 * (-delta * math.log(delta) - 0.9 * math.log(0.9)))
        assert g_bound(delta, 1e-3, 400) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("noise_var", [1.0 / (2.0 * math.pi), 0.5, 1.0, 1e300])
    def test_m_is_one_once_noise_reaches_1_over_2_pi(self, noise_var):
        delta = 0.05
        h2 = -delta * math.log(delta) - (1.0 - delta) * math.log1p(-delta)
        assert g_bound(delta, noise_var, 400) == \
            4.0 * delta * abs(math.log(2.0 * delta)) + 2.0 * h2

    @pytest.mark.parametrize("delta, error", [
        (False, ConfigError), (True, ConfigError), ("0.1", ConfigError), (None, ConfigError),
        ([0.1], ConfigError), (math.nan, DeltaOutOfRange),
    ], ids=["false", "true", "string", "none", "list", "nan"])
    def test_delta_must_be_one_real_number(self, delta, error):
        with pytest.raises(error):
            g_bound(delta, 1.0, 2)

    def test_numpy_delta_gives_the_python_number_result(self):
        assert g_bound(np.float64(0.1), 1.0, 2) == g_bound(0.1, 1.0, 2)
        assert type(g_bound(np.float64(0.1), 1.0, 2)) is float

    def test_rejects_out_of_range(self):
        with pytest.raises(DeltaOutOfRange):
            g_bound(0.4, 1.0, 1)
        with pytest.raises(DeltaOutOfRange):
            g_bound(1.0 / math.e, 1.0, 1)
        with pytest.raises(DeltaOutOfRange):
            g_bound(-0.01, 1.0, 1)

    @pytest.mark.parametrize("noise_var, hidden_dim, error", [
        (math.nan, 2, ConfigError),
        (math.inf, 2, ConfigError),
        (0.0, 2, ConfigError),
        (True, 2, ConfigError),
        (1.0, 2.0, DimensionMismatch),
        (1.0, 0, DimensionMismatch),
        (1.0, True, DimensionMismatch),
    ], ids=["nan-noise", "inf-noise", "zero-noise", "bool-noise", "float-dim", "zero-dim",
            "bool-dim"])
    def test_rejects_malformed_input(self, noise_var, hidden_dim, error):
        with pytest.raises(error):
            g_bound(0.1, noise_var, hidden_dim)

    def test_monotone_and_vanishing(self):
        # with M = 1 the bound peaks at delta ~ 0.2885 and dips before 0.3,
        # so monotonicity is asserted on [0, 0.28] where it provably holds
        grid = np.linspace(1e-12, 0.28, 200)
        values = [g_bound(float(d), 1.0, 2) for d in grid]
        assert np.all(np.diff(values) > 0)
        assert values[0] < 1e-9


class TestBijective:
    def test_tanh_invariance(self):
        rng = np.random.default_rng(13)
        for i in range(3):
            cov = random_cov(rng, 3)
            w = WeightMatrix(rng.standard_normal((2, 3)) * 0.8)
            bias = rng.uniform(-0.5, 0.5, size=2)
            lin = estimate_mi(linear_channel(w, bias, 1.0), cov,
                              MCConfig(3000, 3000, seed=200 + i))
            bij = estimate_mi(bijective_channel(w, bias, 1.0), cov,
                              MCConfig(3000, 3000, seed=300 + i))
            spread = 3.0 * math.hypot(lin.std_error, bij.std_error)
            assert abs(lin.value - bij.value) <= spread

    def test_tanh_entropy_carries_jacobian(self):
        # tanh contracts, so the post-activation entropy must drop
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        w = WeightMatrix([[1.0, 0.0], [0.0, 1.0]])
        mc = MCConfig(3000, 3000, seed=14)
        pre = estimate_entropy(linear_channel(w, np.zeros(2), 1.0), cov, mc)
        post = estimate_entropy(bijective_channel(w, np.zeros(2), 1.0), cov, mc)
        assert post.value < pre.value


class TestEntropyOrdering:
    def test_zero_channel_coincides(self):
        cov = CovarianceMatrix(np.eye(2))
        model = relu_channel(WeightMatrix(np.zeros((2, 2))), np.zeros(2), 1.0)
        report = verify_entropy_ordering(model, cov, MCConfig(1000, 1000, seed=15))
        assert report["pass"]
        assert report["rows"][0]["difference"] == 0.0

    def test_random_instances(self):
        rng = np.random.default_rng(16)
        for i in range(8):
            cov = random_cov(rng, 3)
            model = relu_channel(WeightMatrix(rng.standard_normal((2, 3))),
                                 rng.uniform(-2, 2, size=2), 1.0)
            report = verify_entropy_ordering(model, cov, MCConfig(2000, 2000, seed=400 + i))
            assert report["pass"]

    def test_saturating_bias_drops_to_noise_entropy(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        model = relu_channel(WeightMatrix(np.eye(2)), np.array([-5.0, -5.0]), 1.0)
        report = verify_entropy_ordering(model, cov, MCConfig(4000, 4000, seed=17))
        row = report["rows"][0]
        noise_entropy = math.log(2.0 * math.pi * math.e)
        assert abs(row["h_relu"] - noise_entropy) < 0.05
        assert row["h_relu"] < row["h_linear"] - 0.3
        assert report["pass"]

    def test_report_values_pinned(self):
        # both channels read the same draws of the seed, so every figure of
        # the report is reproducible bit for bit
        rng = np.random.default_rng(71)
        cov = random_cov(rng, 3)
        model = relu_channel(WeightMatrix(rng.standard_normal((2, 3))),
                             rng.uniform(-1, 1, size=2), 0.5)
        report = verify_entropy_ordering(model, cov, MCConfig(500, 500, seed=72))
        assert report["rows"] == [{
            "h_linear": 2.60141903743729,
            "se_linear": 0.041978384552446076,
            "h_relu": 2.2795007564838925,
            "se_relu": 0.0454530444781569,
            "difference": -0.3219182809533975,
            "se_difference": 0.029642086282320533,
        }]
        assert report["pass"]


    def test_both_channels_share_one_draw(self, monkeypatch):
        calls = []
        sample = mmicap.mc.sample_gaussian_inputs
        monkeypatch.setattr(mmicap.mc, "sample_gaussian_inputs",
                            lambda *args: calls.append(args) or sample(*args))
        model = relu_channel(WeightMatrix(np.eye(2)), np.zeros(2), 1.0)
        verify_entropy_ordering(model, CovarianceMatrix(np.eye(2)), MCConfig(200, 200, seed=3))
        assert len(calls) == 2


class TestReluTheoremReport:
    def test_report_schema_and_pass(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        report = verify_relu_theorem(2.5, cov, 1.0, 2, [2.0, 4.0, 8.0],
                                     MCConfig(2000, 2000, seed=18))
        assert report["theorem"] == "relu-large-bias-convergence"
        assert isinstance(report["pass"], bool)
        assert len(report["rows"]) == 3
        for row in report["rows"]:
            assert set(row) == {"scale", "delta_bound", "g_bound", "mi_estimate",
                                "std_error", "closed_form", "gap"}
        assert report["pass"]

    def test_zero_budget_all_gaps_zero(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        report = verify_relu_theorem(0.0, cov, 1.0, 2, [2.0, 4.0],
                                     MCConfig(1000, 1000, seed=19))
        for row in report["rows"]:
            assert row["closed_form"] == 0.0
            assert abs(row["gap"]) <= 3.0 * max(row["std_error"], 1e-9)

    def test_monotone_gap_on_wider_setup(self):
        rng = np.random.default_rng(20)
        cov = random_cov(rng, 4)
        report = verify_relu_theorem(3.0, cov, 1.0, 3, [1.0, 2.0, 4.0, 8.0],
                                     MCConfig(2000, 2000, seed=21))
        assert report["pass"]


class TestDeterminism:
    def test_bit_identical_across_thread_counts(self):
        cov = CovarianceMatrix(np.diag([2.0, 1.0]))
        w = WeightMatrix([[0.9, 0.1], [0.2, 0.5]])
        channel = relu_channel(w, np.array([0.3, -0.2]), 1.0)
        mc = MCConfig(1500, 1500, seed=22)
        results = []
        original = os.environ.get("MMI_THREADS")
        try:
            for threads in ("1", "2", "7"):
                os.environ["MMI_THREADS"] = threads
                est = estimate_mi(channel, cov, mc)
                results.append((est.value, est.std_error))
        finally:
            if original is None:
                os.environ.pop("MMI_THREADS", None)
            else:
                os.environ["MMI_THREADS"] = original
        assert results[0] == results[1] == results[2]

    def test_invalid_thread_env(self):
        cov = CovarianceMatrix(np.eye(2))
        channel = linear_channel(WeightMatrix(np.eye(2)), np.zeros(2), 1.0)
        original = os.environ.get("MMI_THREADS")
        os.environ["MMI_THREADS"] = "many"
        try:
            with pytest.raises(ConfigError):
                estimate_entropy(channel, cov, MCConfig(200, 200, seed=23))
        finally:
            if original is None:
                os.environ.pop("MMI_THREADS", None)
            else:
                os.environ["MMI_THREADS"] = original


def brute_force_log_density(points, centres, noise_var):
    """Reference mixture log density from explicit squared distances."""
    dim = points.shape[1]
    sq = ((points[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    return (logsumexp(-sq / (2.0 * noise_var), axis=1) - math.log(centres.shape[0])
            - 0.5 * dim * math.log(2.0 * math.pi * noise_var))


def kernel_inputs(seed, n_points, n_centres, dim, noise_var, shift=0.0):
    """Mixture centres, and points drawn from the mixture as the estimators
    draw them: an independent centre plus noise."""
    rng = np.random.default_rng(seed)
    centres = 1.5 * rng.standard_normal((n_centres, dim)) + shift
    points = (1.5 * rng.standard_normal((n_points, dim)) + shift
              + math.sqrt(noise_var) * rng.standard_normal((n_points, dim)))
    return points, centres


def kernel_threads():
    return [t for t in threading.enumerate() if t.name.startswith("mmicap-mc")]


def spy_on_started_threads(monkeypatch):
    """The names of the threads started from now on, in start order."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


class TestKernelReference:
    @pytest.mark.parametrize("noise_var", [0.05, 1.0, 5.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_brute_force_with_remainder_chunk(self, dim, noise_var):
        n_centres = 700
        rows = mmicap.mc._CHUNK_ELEMENTS // n_centres
        n_points = 2 * rows + 5
        assert n_points % rows != 0
        points, centres = kernel_inputs(dim, n_points, n_centres, dim, noise_var)
        got = mmicap.mc._mixture_log_density(points, centres, noise_var)
        want = brute_force_log_density(points, centres, noise_var)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_one_row_chunks_when_centres_exceed_a_chunk(self):
        n_centres = mmicap.mc._CHUNK_ELEMENTS + 3
        points, centres = kernel_inputs(30, 7, n_centres, 2, 1.0)
        got = mmicap.mc._mixture_log_density(points, centres, 1.0)
        want = brute_force_log_density(points, centres, 1.0)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("noise_var", [0.05, 1.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_far_from_origin(self, dim, noise_var):
        # |p|^2 / 2s > 709 for most points: exp(-|p|^2 / 2s) underflows to
        # zero, so a form that factors it out of the sum cannot give these
        # values, and the expanded square must not round away the distances.
        points, centres = kernel_inputs(40 + dim, 300, 400, dim, noise_var, shift=40.0)
        half_sq = np.einsum("ij,ij->i", points, points) / (2.0 * noise_var)
        assert np.median(half_sq) > 709.0
        got = mmicap.mc._mixture_log_density(points, centres, noise_var)
        want = brute_force_log_density(points, centres, noise_var)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12


class TestKernelWorkers:
    def test_memory_stays_at_cache_sized_chunks(self, monkeypatch):
        monkeypatch.setenv("MMI_THREADS", "2")
        points, centres = kernel_inputs(50, 2000, 20_000, 3, 1.0)
        tracemalloc.start()
        try:
            mmicap.mc._mixture_log_density(points, centres, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_no_thread_outlives_the_call(self, monkeypatch, threads):
        started = spy_on_started_threads(monkeypatch)
        monkeypatch.setenv("MMI_THREADS", threads)
        points, centres = kernel_inputs(51, 2000, 20_000, 2, 1.0)
        for _ in range(2):
            mmicap.mc._mixture_log_density(points, centres, 1.0)
            assert kernel_threads() == []
        assert started == ["mmicap-mc"] * (2 * (int(threads) - 1))

    def test_thread_count_read_on_every_call(self, monkeypatch):
        started = spy_on_started_threads(monkeypatch)
        rows = mmicap.mc._CHUNK_ELEMENTS // 2000
        points, centres = kernel_inputs(52, 3 * rows, 2000, 2, 1.0)
        counts = []
        for threads in ("2", "3", "1", "2"):
            monkeypatch.setenv("MMI_THREADS", threads)
            started.clear()
            mmicap.mc._mixture_log_density(points, centres, 1.0)
            counts.append(len(started))
        assert counts == [1, 2, 0, 1]

    def test_bit_identical_with_remainder_chunk(self, monkeypatch):
        n_centres = 900
        rows = mmicap.mc._CHUNK_ELEMENTS // n_centres
        points, centres = kernel_inputs(53, 7 * rows + 3, n_centres, 3, 0.7)
        results = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MMI_THREADS", threads)
            results.append(mmicap.mc._mixture_log_density(points, centres, 0.7))
        assert results[0].tobytes() == results[1].tobytes() == results[2].tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_fresh_pools(self, monkeypatch):
        monkeypatch.setenv("MMI_THREADS", "2")
        points, centres = kernel_inputs(54, 500, 2000, 2, 1.0)
        mmicap.mc._mixture_log_density(points, centres, 1.0)
        child = multiprocessing.get_context("fork").Process(
            target=mmicap.mc._mixture_log_density, args=(points, centres, 1.0))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestKernelScheduling:
    def test_starts_one_thread_fewer_than_workers(self, monkeypatch):
        # the calling thread is the last worker; one chunk starts no thread
        started = spy_on_started_threads(monkeypatch)
        rows = mmicap.mc._CHUNK_ELEMENTS // 2000
        for n_points, threads, count in ((40 * rows + 1, "2", 1), (40 * rows + 1, "3", 2),
                                         (rows + 1, "3", 1), (rows, "3", 0)):
            points, centres = kernel_inputs(56, n_points, 2000, 2, 1.0)
            monkeypatch.setenv("MMI_THREADS", threads)
            started.clear()
            mmicap.mc._mixture_log_density(points, centres, 1.0)
            assert len(started) == count

    @pytest.mark.parametrize("n_points, n_centres", [
        (mmicap.mc._CHUNK_ELEMENTS // 900 + 1, 900),   # two chunks
        (1, 900),                                       # one chunk
        (7, mmicap.mc._CHUNK_ELEMENTS + 3),             # seven one-row chunks
        (2, mmicap.mc._CHUNK_ELEMENTS + 3),             # two one-row chunks
    ])
    def test_bit_identical_with_few_or_one_row_chunks(self, monkeypatch, n_points, n_centres):
        points, centres = kernel_inputs(57, n_points, n_centres, 2, 0.8)
        results = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MMI_THREADS", threads)
            results.append(mmicap.mc._mixture_log_density(points, centres, 0.8).tobytes())
        assert results[0] == results[1] == results[2]

    def test_every_chunk_claimed_once_under_fast_switching(self, monkeypatch):
        # more workers than cores and a 1 us switch interval: a chunk claimed
        # twice shows in the product count, one never claimed in the bytes
        rows = mmicap.mc._CHUNK_ELEMENTS // 1000
        points, centres = kernel_inputs(60, 200 * rows + 7, 1000, 2, 1.0)
        monkeypatch.setenv("MMI_THREADS", "1")
        want = mmicap.mc._mixture_log_density(points, centres, 1.0).tobytes()
        products = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul",
                            lambda *args, **kwargs: products.append(1) or matmul(*args, **kwargs))
        monkeypatch.setenv("MMI_THREADS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = mmicap.mc._mixture_log_density(points, centres, 1.0).tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert len(products) == 201
        assert got == want

    def test_memory_is_one_buffer_per_worker(self, monkeypatch):
        monkeypatch.setenv("MMI_THREADS", "2")
        points, centres = kernel_inputs(58, 20_000, 20_000, 2, 1.0)
        tracemalloc.start()
        try:
            mmicap.mc._mixture_log_density(points, centres, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak

    def test_failing_chunk_waits_for_every_worker(self, monkeypatch):
        monkeypatch.setenv("MMI_THREADS", "3")
        matmul = np.matmul
        lock = threading.Lock()
        state = {"calls": 0, "running": 0}

        def flaky(*args, **kwargs):
            with lock:
                state["calls"] += 1
                first = state["calls"] == 1
                state["running"] += 1
            try:
                if first:
                    raise RuntimeError("chunk failed")
                time.sleep(0.005)
                return matmul(*args, **kwargs)
            finally:
                with lock:
                    state["running"] -= 1

        rows = mmicap.mc._CHUNK_ELEMENTS // 2000
        points, centres = kernel_inputs(59, 12 * rows, 2000, 2, 1.0)
        monkeypatch.setattr(np, "matmul", flaky)
        with pytest.raises(RuntimeError, match="chunk failed"):
            mmicap.mc._mixture_log_density(points, centres, 1.0)
        assert state["running"] == 0 and kernel_threads() == []
        calls = state["calls"]
        time.sleep(0.05)
        assert state["calls"] == calls == 12


class TestKernelOverflow:
    # 2000 x 2000 samples make 31 chunks: at MMI_THREADS 2 a warning or an
    # error from a started thread would show
    MANY = MCConfig(2000, 2000, seed=0)
    HUGE = WeightMatrix([[1e200]])
    ONE = CovarianceMatrix([[1.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda c: estimate_mi(linear_channel(c.HUGE, [0.0], 1.0), c.ONE, c.MANY),
        lambda c: verify_entropy_ordering(relu_channel(c.HUGE, [0.0], 1.0), c.ONE, c.MANY),
        lambda c: estimate_mi(bijective_channel(c.HUGE, [0.0], 1.0), c.ONE, c.MANY),
        lambda c: estimate_mi(linear_channel(WeightMatrix([[1e308]]), [0.0], 1.0), c.ONE,
                              c.MANY),
        lambda c: estimate_entropy(linear_channel(WeightMatrix([[1.0]]), [0.0], 1e-320),
                                   c.ONE, c.MANY),
    ], ids=["linear-squared-norms", "relu-ordering", "tanh", "means", "tiny-noise"])
    def test_raises_overflow_without_warning(self, monkeypatch, call):
        assert self.MANY.n_outer > mmicap.mc._CHUNK_ELEMENTS // self.MANY.n_inner  # 2+ chunks
        monkeypatch.setenv("MMI_THREADS", "2")
        with pytest.raises(NumericalOverflow):
            call(self)

    @pytest.mark.filterwarnings("error")
    def test_checked_before_any_thread_starts(self, monkeypatch):
        started = spy_on_started_threads(monkeypatch)
        monkeypatch.setenv("MMI_THREADS", "3")
        points, centres = kernel_inputs(61, 2000, 2000, 2, 1.0)
        with pytest.raises(NumericalOverflow):
            mmicap.mc._mixture_log_density(1e160 * points, 1e160 * centres, 1.0)
        assert started == []

    def test_largest_finite_exponents_are_computed(self):
        # centres at +-2^511: every exponent is 0 or -2^1023 exactly
        centres = np.array([[2.0 ** 511], [-2.0 ** 511]])
        got = mmicap.mc._mixture_log_density(centres, centres, 1.0)
        want = -math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
        assert got.tolist() == [want, want]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("points, centres", [
        ([[1.5 * 2.0 ** 511], [-1.5 * 2.0 ** 511]],                        # cross terms
         [[1.5 * 2.0 ** 511], [-1.5 * 2.0 ** 511]]),
        ([[0.0]], [[2.0 ** 520], [-2.0 ** 520]]),                           # centre norms
    ], ids=["cross-terms", "centre-norms"])
    def test_exponents_past_the_double_range(self, points, centres):
        with pytest.raises(NumericalOverflow):
            mmicap.mc._mixture_log_density(np.array(points), np.array(centres), 1.0)


class TestThreadCount:
    def test_auto_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("MMI_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert mmicap.mc._thread_count() == 2
        monkeypatch.setenv("MMI_THREADS", "0")
        assert mmicap.mc._thread_count() == 2
        monkeypatch.setenv("MMI_THREADS", "7")
        assert mmicap.mc._thread_count() == 7

    def test_auto_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("MMI_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert mmicap.mc._thread_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert mmicap.mc._thread_count() == 1

    @pytest.mark.parametrize("raw", ["1", "5", "64"])
    def test_up_to_the_ceiling_is_taken_as_given(self, monkeypatch, raw):
        monkeypatch.setenv("MMI_THREADS", raw)
        assert mmicap.mc.MAX_THREADS == 64
        assert mmicap.mc._thread_count() == int(raw)

    @pytest.mark.parametrize("raw", ["65", "100000", str(10 ** 30)])
    def test_above_the_ceiling_raises(self, monkeypatch, raw):
        # read only: a kernel at these values could start one thread per chunk
        monkeypatch.setenv("MMI_THREADS", raw)
        with pytest.raises(ConfigError, match=r"^MMI_THREADS must be at most 64"):
            mmicap.mc._thread_count()


class TestReluMatchesClosedFormSpectrum:
    def test_closed_form_is_activation_blind(self):
        # the closed form the relu suite compares against is the linear one
        cov = CovarianceMatrix(np.diag([3.0, 1.5, 0.5]))
        dec = decompose_covariance(cov)
        closed = evaluate(ArchitectureSpec(FullyConnected(3, 2)), dec.spectrum, 1.0, 2.0)
        w = build_optimal_weights(2.0, dec, 1.0, 2)
        assert exact_linear_mi(w, cov, 1.0) == pytest.approx(closed.nats, abs=1e-9)


def test_mc_runtime_imports_are_estimator_layers_only():
    tree = ast.parse(inspect.getsource(mmicap.mc))
    type_only = {id(inner) for node in ast.walk(tree)
                 if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
                 for stmt in node.body for inner in ast.walk(stmt)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and id(node) not in type_only:
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    project = {name.lstrip(".").removeprefix("mmicap.") for name in names
               if name.startswith((".", "mmicap"))}
    assert project <= {"errors", "spectrum"}, project


def test_mc_holds_no_process_wide_state():
    # kernel workers live for one call: no pool, lock, fork hook or module-level
    # container outlives it
    tree = ast.parse(inspect.getsource(mmicap.mc))
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Global), node.lineno
        names = {alias.name for alias in getattr(node, "names", [])
                 if isinstance(alias, ast.alias)}
        names.add(getattr(node, "id", None) or getattr(node, "attr", None))
        assert not names & {"ThreadPoolExecutor", "register_at_fork"}, node.lineno
    outside_functions = list(tree.body)
    while outside_functions:
        node = outside_functions.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        outside_functions.extend(ast.iter_child_nodes(node))
        containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        called = ast.unparse(node.func).rsplit(".", 1)[-1] if isinstance(node, ast.Call) else ""
        assert not isinstance(node, containers) and called not in (
            "dict", "list", "set", "defaultdict", "Lock", "RLock"), ast.unparse(node)
