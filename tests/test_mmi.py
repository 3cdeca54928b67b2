"""Closed-form capacity: hand values, regime consistency, and identities."""

import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

import mmicap
from mmicap import (
    ArchitectureSpec,
    BlockCovariance,
    ConfigError,
    Convolutional,
    CovarianceMatrix,
    DimensionMismatch,
    FullyConnected,
    IndexOutOfRange,
    MultiLayer,
    NegativeBudget,
    Spectrum,
    TargetUnreachable,
    breakpoints,
    evaluate,
    invert_mmi,
    mmi_curve,
    mmi_formula,
    model_spectrum,
)

TWO_ONE = model_spectrum("explicit", values=[2.0, 1.0])
FULL_BUDGET_NATS = math.log(2.0) + 0.5 * math.log(2.0)       # 1.0397207708399179
SMALL_BUDGET_NATS = 0.5 * math.log(1.5)                      # 0.2027325540540822


def random_spectrum(rng, size, lo=1e-3, hi=1e3):
    return model_spectrum("explicit", values=np.exp(
        rng.uniform(np.log(lo), np.log(hi), size=size)))


def test_grid_results_compare_by_identity():
    arch = ArchitectureSpec(FullyConnected(2, 2))
    first = evaluate(arch, TWO_ONE, 1.0, [0.5, 1.0])
    second = evaluate(arch, TWO_ONE, 1.0, [0.5, 1.0])
    assert (first == first) is True
    assert (first == second) is False and (first != second) is True


class TestMmiFc:
    def test_zero_budget_scalar(self):
        result = evaluate(ArchitectureSpec(FullyConnected(1, 1)),
                          model_spectrum("explicit", values=[1.0]), 1.0, 0.0)
        assert result.nats == 0.0

    def test_full_budget_hand_value(self):
        result = evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, 2.5)
        assert result.nats == pytest.approx(FULL_BUDGET_NATS, abs=1e-12)
        assert result.regime == 0
        assert result.active_components == 2

    def test_small_budget_hand_value(self):
        result = evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, 0.25)
        assert result.nats == pytest.approx(SMALL_BUDGET_NATS, abs=1e-12)
        assert result.regime == 1
        assert result.active_components == 1

    def test_at_breakpoint(self):
        result = evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, 0.5)
        assert result.nats == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert result.regime == 0

    def test_zero_iff_zero_budget(self):
        for budget in (1e-6, 0.1, 1.0, 17.0):
            assert evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, budget).nats > 0.0
        assert evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, 0.0).nats == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(ArchitectureSpec(FullyConnected(3, 2)), TWO_ONE, 1.0, 1.0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(NegativeBudget):
            evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, budget)

    @pytest.mark.parametrize("noise_var", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, noise_var):
        with pytest.raises(ValueError):
            evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, noise_var, 1.0)

    def test_bottleneck_symmetry(self):
        rng = np.random.default_rng(5)
        spec = random_spectrum(rng, 4)
        for budget in (0.3, 2.0, 40.0):
            wide = evaluate(ArchitectureSpec(FullyConnected(4, 9)), spec, 1.0, budget)
            wider = evaluate(ArchitectureSpec(FullyConnected(4, 7)), spec, 1.0, budget)
            assert wide.nats == wider.nats

    def test_principal_component_truncation(self):
        rng = np.random.default_rng(6)
        spec = random_spectrum(rng, 6, lo=0.5, hi=4.0)
        perturbed = model_spectrum("explicit", values=np.concatenate(
            [spec.values[:3], spec.values[3:] * 0.37]))
        for budget in (0.2, 1.0, 8.0):
            a = evaluate(ArchitectureSpec(FullyConnected(6, 3)), spec, 1.0, budget)
            b = evaluate(ArchitectureSpec(FullyConnected(6, 3)), perturbed, 1.0, budget)
            assert a.nats == b.nats  # bit-identical: only the top 3 matter

    def test_strictly_increasing_in_budget(self):
        rng = np.random.default_rng(8)
        spec = random_spectrum(rng, 5, lo=0.1, hi=10.0)
        grid = np.linspace(0.0, 30.0, 400)
        values = [evaluate(ArchitectureSpec(FullyConnected(5, 5)),
                           spec, 1.0, float(f)).nats for f in grid]
        assert np.all(np.diff(values) > 0.0)


class TestBreakpointAgreement:
    def test_adjacent_branches_agree_at_breakpoints(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(100):
            size = int(rng.integers(2, 33))
            spec = random_spectrum(rng, size)
            noise_var = float(rng.choice([0.1, 1.0, 10.0]))
            bp = breakpoints(spec, noise_var, size).values
            for k in range(2, size + 1):
                budget = float(bp[k - 1])
                gap = abs(mmi_formula(spec, noise_var, size, budget, k)
                          - mmi_formula(spec, noise_var, size, budget, k - 1))
                worst = max(worst, gap)
        assert worst <= 1e-10

    def test_a_1e_9_error_in_the_breakpoint_capacities_fails_the_check(self, monkeypatch):
        from mmicap import verify
        exact = Spectrum.breakpoint_capacities.func
        monkeypatch.setattr(Spectrum, "breakpoint_capacities", property(
            lambda self: np.append(0.0, exact(self)[1:] * (1.0 + 1e-9))))
        report = verify._check_breakpoint_agreement(0)
        assert report["pass"] is False and report["max_abs_gap"] > 1e-9


class TestScaleIdentities:
    """Substituting lambda -> c * lambda in the closed form.

    Scaling the spectrum by c with the noise fixed equals either dividing
    the noise by c or multiplying the budget by c (regime selection
    included); it does NOT equal scaling the budget alone.
    """

    @pytest.mark.parametrize("c", [2.0, 4.0, 3.0])
    def test_spectrum_scale_equals_noise_rescale(self, c):
        rng = np.random.default_rng(21)
        base = random_spectrum(rng, 4, lo=0.2, hi=5.0)
        scaled = model_spectrum("explicit", values=c * base.values)
        for budget in (0.17, 0.9, 3.3, 25.0):
            lhs = evaluate(ArchitectureSpec(FullyConnected(4, 4)), scaled, 1.0, budget).nats
            rhs = evaluate(ArchitectureSpec(FullyConnected(4, 4)), base, 1.0 / c, budget).nats
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("c", [2.0, 4.0, 3.0])
    def test_spectrum_scale_equals_budget_rescale(self, c):
        rng = np.random.default_rng(22)
        base = random_spectrum(rng, 4, lo=0.2, hi=5.0)
        scaled = model_spectrum("explicit", values=c * base.values)
        for budget in (0.17, 0.9, 3.3, 25.0):
            lhs = evaluate(ArchitectureSpec(FullyConnected(4, 4)), scaled, 1.0, budget).nats
            rhs = evaluate(ArchitectureSpec(FullyConnected(4, 4)), base, 1.0, c * budget).nats
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_scaling_spectrum_and_budget_together_changes_value(self):
        c = 2.0
        scaled = model_spectrum("explicit", values=c * TWO_ONE.values)
        lhs = evaluate(ArchitectureSpec(FullyConnected(2, 2)), scaled, 1.0, c * 2.5).nats
        rhs = evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, 2.5).nats
        assert abs(lhs - rhs) > 0.1


class TestMmiConv:
    def test_hand_value(self):
        block = BlockCovariance(CovarianceMatrix(np.diag([2.0, 1.0])), 2)
        result = evaluate(ArchitectureSpec(Convolutional(block.input_dim, block.block.dim, 2)),
                          block, 1.0, 2.5)
        assert result.nats == pytest.approx(2.0 * FULL_BUDGET_NATS, abs=1e-12)

    def test_single_block_degenerates_to_fc(self):
        block = BlockCovariance(CovarianceMatrix(np.diag([2.0, 1.0])), 1)
        conv = evaluate(ArchitectureSpec(Convolutional(block.input_dim, block.block.dim, 2)),
                        block, 1.0, 2.5)
        fc = evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, 2.5)
        assert conv.nats == pytest.approx(fc.nats, abs=1e-14)

    def test_zero_budget(self):
        block = BlockCovariance(CovarianceMatrix(np.diag([2.0, 1.0])), 2)
        assert evaluate(ArchitectureSpec(Convolutional(block.input_dim, block.block.dim, 2)),
                        block, 1.0, 0.0).nats == 0.0

    def test_additivity_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            reps = int(rng.integers(1, 6))
            b = rng.standard_normal((dim, dim))
            block = BlockCovariance(CovarianceMatrix(b @ b.T + 0.2 * np.eye(dim)), reps)
            filters = int(rng.integers(1, 5))
            budget = float(rng.uniform(0.0, 5.0))
            conv = evaluate(
                ArchitectureSpec(Convolutional(block.input_dim, block.block.dim, filters)),
                block, 1.0, budget)
            from mmicap import eigvals_from_covariance
            fc = evaluate(ArchitectureSpec(FullyConnected(dim, filters)),
                          eigvals_from_covariance(block.block), 1.0, budget)
            assert conv.nats == reps * fc.nats  # exact, same expression scaled


class TestMmiMultilayer:
    def test_bottleneck_rule(self):
        rng = np.random.default_rng(14)
        spec = random_spectrum(rng, 100, lo=0.1, hi=10.0)
        stacked = evaluate(ArchitectureSpec(MultiLayer((50, 3, 50))), spec, 1.0, 4.0)
        dense = evaluate(ArchitectureSpec(FullyConnected(100, 3)), spec, 1.0, 4.0)
        assert stacked.nats == dense.nats

    def test_single_layer_reduces_to_fc(self):
        result = evaluate(ArchitectureSpec(MultiLayer((2,))), TWO_ONE, 1.0, 2.5)
        assert result.nats == pytest.approx(FULL_BUDGET_NATS, abs=1e-12)

    def test_width_one_bottleneck(self):
        result = evaluate(ArchitectureSpec(MultiLayer((1, 100))), TWO_ONE, 1.0, 0.25)
        assert result.nats == pytest.approx(SMALL_BUDGET_NATS, abs=1e-12)

    def test_collapse_exact(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            size = int(rng.integers(2, 9))
            spec = random_spectrum(rng, size, lo=0.2, hi=5.0)
            widths = list(rng.integers(1, 12, size=int(rng.integers(1, 5))))
            budget = float(rng.uniform(0.0, 6.0))
            stacked = evaluate(ArchitectureSpec(MultiLayer(tuple(widths))), spec, 1.0, budget)
            dense = evaluate(ArchitectureSpec(FullyConnected(size, min(widths))), spec, 1.0, budget)
            assert stacked.nats == dense.nats


class TestCurveAndInversion:
    def test_curve_single_zero(self):
        arch = ArchitectureSpec(FullyConnected(2, 2))
        points = mmi_curve(arch, TWO_ONE, 1.0, [0.0])
        assert points[0][0] == 0.0 and points[0][1].nats == 0.0

    def test_curve_hand_values(self):
        arch = ArchitectureSpec(FullyConnected(2, 2))
        points = mmi_curve(arch, TWO_ONE, 1.0, [0.25, 0.5, 2.5])
        expected = [SMALL_BUDGET_NATS, 0.5 * math.log(2.0), FULL_BUDGET_NATS]
        for (_, result), target in zip(points, expected):
            assert result.nats == pytest.approx(target, abs=1e-12)

    def test_curve_non_decreasing(self):
        arch = ArchitectureSpec(FullyConnected(100, 50))
        spec = model_spectrum("exp_decay", 100, rate=0.1)
        points = mmi_curve(arch, spec, 1.0, np.linspace(0.0, 500.0, 200))
        nats = [r.nats for _, r in points]
        assert nats[0] == 0.0
        assert np.all(np.diff(nats) >= 0.0)

    def test_curve_rejects_descending_grid(self):
        arch = ArchitectureSpec(FullyConnected(2, 2))
        with pytest.raises(ValueError):
            mmi_curve(arch, TWO_ONE, 1.0, [1.0, 0.5])

    def test_invert_round_trip(self):
        arch = ArchitectureSpec(FullyConnected(2, 2))
        target = evaluate(arch, TWO_ONE, 1.0, 1.0).nats
        recovered = invert_mmi(arch, TWO_ONE, 1.0, target, budget_max=100.0)
        assert recovered == pytest.approx(1.0, abs=1e-6)

    def test_invert_hand_value(self):
        arch = ArchitectureSpec(FullyConnected(2, 2))
        recovered = invert_mmi(arch, TWO_ONE, 1.0, FULL_BUDGET_NATS, budget_max=100.0)
        assert recovered == pytest.approx(2.5, abs=1e-6)

    def test_invert_unreachable(self):
        arch = ArchitectureSpec(FullyConnected(2, 2))
        ceiling = evaluate(arch, TWO_ONE, 1.0, 10.0).nats
        assert ceiling == pytest.approx(math.log(11.5 / 2.0) + 0.5 * math.log(2.0),
                                        abs=1e-12)
        with pytest.raises(TargetUnreachable):
            invert_mmi(arch, TWO_ONE, 1.0, 100.0, budget_max=10.0)


class TestArchitectureSpec:
    def test_conv_divisibility(self):
        with pytest.raises(DimensionMismatch):
            Convolutional(5, 2, 3)

    def test_bottlenecks(self):
        assert FullyConnected(100, 50).bottleneck == 50
        assert Convolutional(6, 3, 2).bottleneck == 2
        assert MultiLayer((50, 3, 50)).bottleneck(100) == 3


def rotated_block(rng, values, repetitions):
    q, _ = np.linalg.qr(rng.standard_normal((values.size, values.size)))
    return BlockCovariance(CovarianceMatrix((q * values) @ q.T), repetitions)


def counting(monkeypatch, name):
    """Replace mmicap.mmi.<name> by a wrapper that counts its calls."""
    original, calls = getattr(mmicap.mmi, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mmicap.mmi, name, wrapper)
    return calls


def families(rng):
    spec = random_spectrum(rng, 12)
    block_values = np.sort(np.exp(rng.uniform(-2.0, 2.0, 6)))[::-1]
    return [
        (ArchitectureSpec(FullyConnected(12, 7)), spec, 7),
        (ArchitectureSpec(Convolutional(24, 6, 4)), rotated_block(rng, block_values, 4), 4),
        (ArchitectureSpec(MultiLayer((9, 5, 11))), spec, 5),
    ]


class TestArrayEvaluate:
    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(31)
        for arch, source, n_tilde in families(rng):
            rho = evaluate(arch, source, 1.0, 0.0).breakpoints.values
            budgets = np.sort(np.concatenate(
                ([0.0], rho, rng.uniform(0.0, 2.0 * rho[-1] + 1.0, 20))))
            together = evaluate(arch, source, 1.0, budgets)
            assert together.nats.shape == together.regime.shape == budgets.shape
            for i, budget in enumerate(budgets):
                alone = evaluate(arch, source, 1.0, float(budget))
                assert together.nats[i] == pytest.approx(alone.nats, rel=1e-12, abs=0.0)
                assert together.regime[i] == alone.regime
                assert together.active_components[i] == alone.active_components
                assert alone.regime + alone.active_components == n_tilde
            assert together.nats[0] == 0.0

    def test_results_are_immutable(self):
        result = evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, 2.5)
        [(_, point)] = mmi_curve(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, [2.5])
        for value in (result, point):
            with pytest.raises(AttributeError):
                value.nats = 0.0

    def test_scalar_budget_gives_python_numbers(self):
        result = evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, 2.5)
        assert type(result.nats) is float
        assert type(result.regime) is int and type(result.active_components) is int
        [(budget, point)] = mmi_curve(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE,
                                      1.0, [2.5])
        assert type(budget) is float and type(point.nats) is float
        assert type(point.regime) is int and type(point.active_components) is int

    def test_conv_curve_decomposes_the_block_once(self, monkeypatch):
        rng = np.random.default_rng(32)
        block = rotated_block(rng, np.sort(np.exp(rng.uniform(-2.0, 2.0, 64)))[::-1], 16)
        calls = counting(monkeypatch, "decompose_covariance")
        arch = ArchitectureSpec(Convolutional(1024, 64, 32))
        points = mmi_curve(arch, block, 1.0, np.linspace(0.0, 50.0, 400))
        assert len(points) == 400 and len(calls) == 1

    def test_huge_budget_with_tiny_noise_stays_finite(self):
        # (F + s T) / (s m) = 5e607 overflows a double, yet with m = 2 the
        # capacity is just log(5e607) plus the log-det term (1/2) log 2
        result = evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1e-300, 1e308)
        expected = 607.0 * math.log(10.0) + math.log(5.0) + 0.5 * math.log(2.0)
        assert result.nats == pytest.approx(1399.6251629501, rel=1e-12)
        assert result.nats == pytest.approx(expected, rel=1e-12)

    def test_huge_noise_variance_stays_accurate(self):
        # s T_m = 3e300 dwarfs F = 1e290: the capacity is (3/2) log1p(F / (3 s))
        ones = model_spectrum("explicit", values=[1.0, 1.0, 1.0])
        arch = ArchitectureSpec(FullyConnected(3, 3))
        result = evaluate(arch, ones, 1e300, 1e290)
        assert result.nats == pytest.approx(1.5 * math.log1p(1e-10 / 3.0), rel=1e-9, abs=0.0)
        # s T_m = 3e308 overflows a double; the capacity is about 5e-309
        tiny = evaluate(arch, ones, 1e308, 1.0).nats
        assert math.isfinite(tiny) and tiny == pytest.approx(5e-309, rel=1e-9, abs=0.0)


class TestClosedFormInversion:
    def assert_round_trips(self, monkeypatch, arch, source, targets, budget_max):
        for target in targets:
            calls = counting(monkeypatch, "evaluate")
            budget = invert_mmi(arch, source, 1.0, target, budget_max=budget_max)
            assert len(calls) <= 2
            monkeypatch.undo()
            assert abs(evaluate(arch, source, 1.0, budget).nats - target) <= 1e-9

    def every_regime(self, arch, source, budget_max):
        """A target inside each regime and one on each positive breakpoint."""
        rho = evaluate(arch, source, 1.0, 0.0).breakpoints.values
        inside = np.append(0.5 * (rho[:-1] + rho[1:]), 0.5 * (rho[-1] + budget_max))
        budgets = np.concatenate((inside, rho[1:]))
        return evaluate(arch, source, 1.0, budgets[budgets > 0.0]).nats

    def test_random_spectrum_every_regime(self, monkeypatch):
        rng = np.random.default_rng(33)
        arch, spec = ArchitectureSpec(FullyConnected(12, 12)), random_spectrum(rng, 12)
        budget_max = 10.0 * breakpoints(spec, 1.0, 12).values[-1]
        targets = self.every_regime(arch, spec, budget_max)
        assert targets.size == 2 * 12 - 1
        self.assert_round_trips(monkeypatch, arch, spec, targets, budget_max)

    def test_conv_every_regime(self, monkeypatch):
        rng = np.random.default_rng(34)
        block = rotated_block(rng, np.sort(np.exp(rng.uniform(-2.0, 2.0, 8)))[::-1], 5)
        arch = ArchitectureSpec(Convolutional(40, 8, 6))
        targets = self.every_regime(arch, block, 100.0)
        self.assert_round_trips(monkeypatch, arch, block, targets, 100.0)

    def test_conv_inversion_decomposes_the_block_once(self, monkeypatch):
        rng = np.random.default_rng(35)
        block = rotated_block(rng, np.sort(np.exp(rng.uniform(-2.0, 2.0, 8)))[::-1], 5)
        arch = ArchitectureSpec(Convolutional(40, 8, 6))
        target = 0.5 * evaluate(arch, block, 1.0, 10.0).nats
        calls = counting(monkeypatch, "decompose_covariance")
        budget = invert_mmi(arch, block, 1.0, target, budget_max=100.0)
        assert len(calls) == 1
        monkeypatch.undo()
        assert abs(evaluate(arch, block, 1.0, budget).nats - target) <= 1e-9

    def test_wide_harmonic_spectrum(self, monkeypatch):
        n = 100_000
        spec, arch = model_spectrum("harmonic", n), ArchitectureSpec(FullyConnected(n, n))
        rho = breakpoints(spec, 1.0, n).values
        budgets = np.concatenate((rho[[1, 10, 999, n - 1]], [0.3, 123.4, 2.0 * rho[-1]]))
        targets = evaluate(arch, spec, 1.0, budgets).nats
        self.assert_round_trips(monkeypatch, arch, spec, targets, 4.0 * rho[-1])

    def test_breakpoint_capacities_match_evaluate(self):
        rng = np.random.default_rng(36)
        spec, arch = random_spectrum(rng, 30), ArchitectureSpec(FullyConnected(30, 30))
        c = spec.breakpoint_capacities
        for noise_var in (1e-3, 1.0, 1e3):
            at_rho = evaluate(arch, spec, noise_var, breakpoints(spec, noise_var, 30).values)
            assert c[0] == at_rho.nats[0] == 0.0
            np.testing.assert_allclose(c, at_rho.nats, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("noise_var", [1e-3, 1.0, 1e3])
    def test_breakpoint_capacity_targets_round_trip(self, noise_var):
        rng = np.random.default_rng(37)
        spec, arch = random_spectrum(rng, 15), ArchitectureSpec(FullyConnected(15, 15))
        rho = breakpoints(spec, noise_var, 15).values
        for k in range(1, 15):
            budget = invert_mmi(arch, spec, noise_var, float(spec.breakpoint_capacities[k]),
                                budget_max=2.0 * rho[-1])
            assert budget == pytest.approx(rho[k], rel=1e-12, abs=0.0)

    def test_two_scalar_evaluates_on_a_wide_fc_and_on_conv(self, monkeypatch):
        rng = np.random.default_rng(38)
        wide = random_spectrum(rng, 20_000)
        block = rotated_block(rng, np.sort(np.exp(rng.uniform(-2.0, 2.0, 64)))[::-1], 16)
        cases = [(ArchitectureSpec(FullyConnected(20_000, 20_000)), wide, 1e6),
                 (ArchitectureSpec(Convolutional(1024, 64, 32)), block, 1e3)]
        for arch, source, budget_max in cases:
            targets = evaluate(arch, source, 1.0, budget_max * np.array([1e-4, 0.1, 0.9])).nats
            for target in targets:
                calls = counting(monkeypatch, "evaluate")
                budget = invert_mmi(arch, source, 1.0, float(target), budget_max=budget_max)
                assert len(calls) == 2 and all(np.ndim(args[3]) == 0 for args in calls)
                monkeypatch.undo()
                reached = evaluate(arch, source, 1.0, budget).nats
                assert abs(reached - target) <= 1e-9
            calls = counting(monkeypatch, "evaluate")
            with pytest.raises(TargetUnreachable):
                invert_mmi(arch, source, 1.0, float(targets[-1]), budget_max=0.5 * budget_max)
            assert len(calls) == 1
            monkeypatch.undo()

    def test_target_on_a_breakpoint_returns_it(self):
        arch = ArchitectureSpec(FullyConnected(2, 2))
        assert invert_mmi(arch, TWO_ONE, 1.0, 0.5 * math.log(2.0)) == pytest.approx(
            0.5, rel=1e-14)


CONV_4_2_2 = ArchitectureSpec(Convolutional(4, 2, 2))


@pytest.mark.parametrize("call, error", [
    (lambda: MultiLayer(()), DimensionMismatch),
    (lambda: mmi_curve(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, []),
     DimensionMismatch),
    (lambda: mmi_curve(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, [[0.5, 1.0]]),
     DimensionMismatch),
    (lambda: invert_mmi(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, 0.0),
     ValueError),
    (lambda: invert_mmi(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, -1.0),
     ValueError),
    (lambda: evaluate(ArchitectureSpec("fc:2,2"), TWO_ONE, 1.0, 1.0), DimensionMismatch),
    (lambda: evaluate(CONV_4_2_2, TWO_ONE, 1.0, 1.0), DimensionMismatch),
    (lambda: evaluate(CONV_4_2_2, BlockCovariance(CovarianceMatrix(np.eye(3)), 2), 1.0, 1.0),
     DimensionMismatch),
    (lambda: FullyConnected(math.nan, 2), DimensionMismatch),
    (lambda: FullyConnected(math.inf, 2), DimensionMismatch),
    (lambda: FullyConnected(True, 2), DimensionMismatch),
    (lambda: FullyConnected(2.0, 2), DimensionMismatch),
    (lambda: FullyConnected(2, "2"), DimensionMismatch),
    (lambda: Convolutional(4, 2, 2.0), DimensionMismatch),
    (lambda: MultiLayer((2, 2.5)), DimensionMismatch),
    (lambda: evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, True, 1.0), ConfigError),
    (lambda: evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, -1.0),
     NegativeBudget),
    (lambda: evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, math.nan, 1.0),
     ConfigError),
    (lambda: evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, "1", 1.0), ConfigError),
    # the held state is keyed by noise variance, and True == 1.0
    (lambda: [evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, s, 1.0)
              for s in (1.0, True)], ConfigError),
    (lambda: evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, "1"),
     NegativeBudget),
    (lambda: evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, True),
     NegativeBudget),
    (lambda: evaluate(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, [[1.0], [1.0, 2.0]]),
     NegativeBudget),
    (lambda: mmi_curve(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, ["0", "1"]),
     NegativeBudget),
    (lambda: mmi_curve(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, [1.0, 0.5]),
     ConfigError),
    (lambda: invert_mmi(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, math.nan),
     ConfigError),
    (lambda: invert_mmi(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, 1.0, "0.1"),
     ConfigError),
    (lambda: invert_mmi(ArchitectureSpec(FullyConnected(2, 2)), TWO_ONE, math.inf, 0.1),
     ConfigError),
    (lambda: mmi_formula(TWO_ONE, 1.0, 2, 1.0, 0), IndexOutOfRange),
    (lambda: mmi_formula(TWO_ONE, 1.0, 2, 1.0, 3), IndexOutOfRange),
    (lambda: mmi_formula(TWO_ONE, 1.0, 2, [1.0, 1.0], [1, 3]), IndexOutOfRange),
    (lambda: mmi_formula(TWO_ONE, 1.0, 2, 1.0, 1.0), IndexOutOfRange),
], ids=["empty-widths", "empty-grid", "2d-grid", "zero-target", "negative-target",
        "unknown-family", "spectrum-for-conv", "wrong-block-size", "nan-dim", "inf-dim",
        "bool-dim", "float-dim", "string-dim", "float-filters", "float-width",
        "bool-noise-params", "negative-budget-params", "nan-noise", "string-noise",
        "bool-noise-held", "string-budget", "bool-budget", "ragged-budgets",
        "string-grid", "descending-grid", "nan-target", "string-target", "inf-noise-invert",
        "formula-zero-active", "formula-past-bottleneck", "formula-array-past-bottleneck",
        "formula-float-active"])
def test_rejects_malformed_input(call, error):
    with pytest.raises(error):
        call()


def test_numpy_scalars_give_the_python_number_results():
    spec = model_spectrum("exp_decay", 6, rate=0.4)
    grid = np.linspace(0.0, 9.0, 31)
    python = evaluate(ArchitectureSpec(FullyConnected(6, 4)), spec, 0.7, grid)
    numpy = evaluate(ArchitectureSpec(FullyConnected(np.int64(6), np.int64(4))), spec,
                     np.float64(0.7), grid)
    for field in ("nats", "regime", "active_components"):
        np.testing.assert_array_equal(getattr(numpy, field), getattr(python, field))
    np.testing.assert_array_equal(numpy.breakpoints.values, python.breakpoints.values)
    arch = ArchitectureSpec(MultiLayer((np.int64(5), np.int32(3))))
    assert invert_mmi(arch, spec, np.float64(0.7), np.float64(1.5)) \
        == invert_mmi(ArchitectureSpec(MultiLayer((5, 3))), spec, 0.7, 1.5)
    block = BlockCovariance(CovarianceMatrix(np.diag(spec.values[:3])), np.int64(2))
    conv = ArchitectureSpec(Convolutional(np.int64(6), np.int64(3), np.int64(2)))
    assert evaluate(conv, block, np.float64(0.7), 2.5).nats == evaluate(
        ArchitectureSpec(Convolutional(6, 3, 2)),
        BlockCovariance(CovarianceMatrix(np.diag(spec.values[:3])), 2), 0.7, 2.5).nats


def reference_capacity(values, noise_var, budget):
    """Dense capacity to 60 digits by a direct level search that reads no
    breakpoint or breakpoint capacity: the level L = (F + s T_m) / m for the
    largest m with L > s / lambda_m, T_m the sum of 1 / lambda_i, then C =
    (1/2) sum_{i<=m} ln(L lambda_i / s).  Doubles convert to Decimal exactly."""
    with localcontext() as ctx:
        ctx.prec = 60
        s, f = Decimal(noise_var), Decimal(budget)
        trace, level, product = Decimal(0), None, Decimal(1)
        for m, value in enumerate(map(Decimal, values), start=1):
            trace += 1 / value
            candidate = (f + s * trace) / m
            if candidate <= s / value:
                break
            level, active = candidate, m
        if level is None:
            return Decimal(0)
        for value in map(Decimal, values[:active]):
            product *= level * value / s
        return product.ln() / 2


def wide_instance(rng):
    n = int(rng.integers(1, 40))
    values = np.exp(rng.uniform(-30.0, 30.0, n))
    return (values, int(rng.integers(1, n + 1)), float(np.exp(rng.uniform(-20.0, 20.0))),
            float(np.exp(rng.uniform(-25.0, 25.0))))


def clustered_instance(rng):
    # b (1 + e^u), u in [-40, 0]: below u = -36.7 the entry rounds to b exactly,
    # and one in four entries repeats its neighbour
    n = int(rng.integers(2, 40))
    base, noise_var = np.exp(rng.uniform(-10.0, 10.0, 2))
    values = np.sort(base * (1.0 + np.exp(rng.uniform(-40.0, 0.0, n))))[::-1]
    repeats = np.flatnonzero(rng.random(n - 1) < 0.25) + 1
    values[repeats] = values[repeats - 1]
    budget = noise_var / base * np.exp(rng.uniform(-45.0, 5.0))
    return values, int(rng.integers(1, n + 1)), float(noise_var), float(budget)


def relative_errors(draw, seed, count=500):
    """Closed form against the reference on ``count`` instances from ``draw``:
    (capacity, relative error, absolute error) rows, relative taken where C > 0."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        values, n_tilde, noise_var, budget = draw(rng)
        spectrum = model_spectrum("explicit", values=values)
        closed = evaluate(ArchitectureSpec(FullyConnected(len(spectrum), n_tilde)),
                          spectrum, noise_var, budget).nats
        exact = reference_capacity(spectrum.values[:n_tilde].tolist(), noise_var, budget)
        gap = abs(Decimal(closed) - exact)
        rows.append((float(exact), float(gap / exact) if exact else float(gap), float(gap)))
    return np.array(rows)


class TestSixtyDigitReference:
    """Relative accuracy of ``evaluate`` against ``reference_capacity``."""

    @pytest.mark.parametrize("draw, seed", [(wide_instance, 91), (clustered_instance, 92)],
                             ids=["wide", "clustered"])
    def test_relative_and_absolute_error(self, draw, seed):
        capacity, relative, absolute = relative_errors(draw, seed).T
        assert np.all(relative[capacity >= 1e-300] <= 1e-14), relative.max()
        assert np.all(absolute <= 1e-15 * np.maximum(1.0, capacity))

    def test_one_active_component_near_a_tie(self):
        # three eigenvalues within 1e-6: F = 1e-12 keeps one component active
        values = [1.0 + 1e-6, 1.0 + 5e-7, 1.0]
        nats = evaluate(ArchitectureSpec(FullyConnected(3, 3)), Spectrum(values), 1.0,
                        1e-12).nats
        exact = reference_capacity(values, 1.0, 1e-12)
        assert float(exact) == pytest.approx(5.0000049999975e-13, rel=1e-12)
        assert nats == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("draw", [wide_instance, clustered_instance],
                             ids=["wide", "clustered"])
    def test_inversion_round_trip(self, draw):
        rng = np.random.default_rng(93)
        worst = 0.0
        for _ in range(200):
            values, n_tilde, noise_var, budget = draw(rng)
            spectrum = model_spectrum("explicit", values=values)
            arch = ArchitectureSpec(FullyConnected(len(spectrum), n_tilde))
            target = evaluate(arch, spectrum, noise_var, budget).nats
            found = invert_mmi(arch, spectrum, noise_var, target, budget_max=2.0 * budget)
            reached = evaluate(arch, spectrum, noise_var, found).nats
            worst = max(worst, abs(reached - target) / target)
        assert worst <= 1e-13

    def test_a_leading_floor_below_the_double_range(self):
        # s / lambda_1 = 1e-330 is below the smallest double; the branches scale
        # rise by lambda_m / s instead of dividing by the floor
        values, noise_var = [1e30, 1.0], 1e-300
        spectrum, arch = Spectrum(values), ArchitectureSpec(FullyConnected(2, 2))
        assert evaluate(arch, spectrum, noise_var, 1.0).nats == pytest.approx(
            724.6211571125644, rel=1e-14, abs=0.0)
        for budget in (0.0, 1e-320, 1e-300, 1.0, 1e10, 1e308):
            nats = evaluate(arch, spectrum, noise_var, budget).nats
            exact = float(reference_capacity(values, noise_var, budget))
            assert nats == pytest.approx(exact, rel=1e-14, abs=0.0)
        # targets below c_2 = 34.5 nats fall in the branch of that floor
        for target in (30.0, 380.0, 700.0):
            found = invert_mmi(arch, spectrum, noise_var, target)
            assert evaluate(arch, spectrum, noise_var, found).nats == pytest.approx(
                target, rel=1e-13, abs=0.0)

    def test_inversion_past_the_range_of_expm1(self):
        # 2 * 695 nats is past log(max double): the step is exp(grown) scaled in log space
        arch, spectrum = ArchitectureSpec(FullyConnected(1, 1)), Spectrum([1.0])
        found = invert_mmi(arch, spectrum, 1e-300, 695.0, budget_max=1e308)
        assert evaluate(arch, spectrum, 1e-300, found).nats == pytest.approx(
            695.0, rel=1e-13, abs=0.0)

    def test_thousand_instances_within_three_seconds(self):
        start = time.perf_counter()
        relative_errors(wide_instance, 94)
        relative_errors(clustered_instance, 95)
        assert time.perf_counter() - start <= 3.0
