"""Water-filling: breakpoints, regime lookup, and the allocation solver."""

import ast
import math
import numbers
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmicap import (
    ArchitectureSpec,
    BlockCovariance,
    ConfigError,
    Convolutional,
    CovarianceMatrix,
    FullyConnected,
    IndexOutOfRange,
    MmicapError,
    NegativeBudget,
    NonPositiveEigenvalue,
    Spectrum,
    build_optimal_weights,
    decompose_covariance,
    evaluate,
    invert_mmi,
    breakpoints,
    mmi_curve,
    model_spectrum,
    regime,
    solve_waterfill,
)
import mmicap
from mmicap import waterfill
from mmicap.errors import budgets


def grid_search_objective(budget, floors, steps=200):
    """Brute-force maximum of sum(log(a_i + floor_i)) over the budget simplex.

    Enumerates allocations on a grid with step budget/steps; the last
    coordinate absorbs the remainder so the budget is always saturated.
    """
    floors = np.asarray(floors, dtype=float)
    n = floors.size
    h = budget / steps
    if n == 1:
        return float(np.log(budget + floors[0]))
    axes = [np.arange(steps + 1)] * (n - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    counts = np.stack([m.ravel() for m in mesh], axis=1)
    counts = counts[counts.sum(axis=1) <= steps]
    alloc = counts * h
    last = budget - alloc.sum(axis=1)
    table = np.concatenate([alloc, last[:, None]], axis=1)
    return float(np.max(np.sum(np.log(table + floors[None, :]), axis=1)))


def water_level(alloc, floors):
    """The common level alloc_i + f_i of the positive allocations, checked
    equal across them to 1e-14 relative; the leading floor when none is
    positive, since the leading component is active from budget 0."""
    levels = (alloc + floors[:alloc.size])[alloc > 0.0]
    if levels.size == 0:
        return float(floors[0])
    np.testing.assert_allclose(levels, levels[0], rtol=1e-14, atol=0.0)
    return float(levels[0])


def random_spectrum(rng, size):
    return model_spectrum("explicit", values=np.exp(rng.uniform(
        np.log(1e-3), np.log(1e3), size=size)))


class TestBreakpointCapacitySums:
    """The breakpoint capacities against the exact running sum of their increments,
    on sets where plain float64 sums drift by 1e-14 on any platform."""

    @staticmethod
    def worst_relative_error(halved_sums, steps):
        exact, worst = Fraction(0), 0.0
        for total, step in zip(halved_sums.tolist(), steps.tolist()):
            exact += Fraction(step)
            worst = max(worst, float(abs(2 * Fraction(total) - exact) / exact))
        return worst

    @pytest.mark.parametrize("values", [
        model_spectrum("exp_decay", 7098, rate=0.1).values,
        np.sort(np.exp(np.random.default_rng(7).uniform(np.log(1e-3), np.log(1e3), 20000)))[::-1],
        model_spectrum("harmonic", 20000).values,
    ], ids=["exp-0.1-7098", "log-uniform-2e4", "harmonic-2e4"])
    def test_within_an_ulp_of_the_exact_sum(self, values):
        gaps = (values[:-1] - values[1:]) / values[1:]
        assert np.isfinite(gaps).all()  # every increment is the log1p branch
        steps = np.arange(1, values.size) * np.log1p(gaps)
        assert self.worst_relative_error(waterfill._capacities(values)[1:], steps) <= 4.5e-16
        assert self.worst_relative_error(0.5 * np.cumsum(steps), steps) > 4.5e-16


class TestBreakpointValue:
    """The budget at which component k enters: the last of the first k breakpoints."""

    def test_first_is_zero(self):
        spec = model_spectrum("explicit", values=[1.0])
        assert breakpoints(spec, 1.0, 1)[-1] == 0.0

    def test_two_components(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        assert breakpoints(spec, 1.0, 2)[-1] == pytest.approx(0.5, abs=1e-15)

    def test_isotropic_all_zero(self):
        spec = model_spectrum("explicit", values=[3.0] * 5)
        for k in range(1, 6):
            assert breakpoints(spec, 1.0, k)[-1] == 0.0

    def test_index_out_of_range(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        with pytest.raises(IndexOutOfRange):
            breakpoints(spec, 1.0, 3)
        with pytest.raises(IndexOutOfRange):
            breakpoints(spec, 1.0, 0)


class TestBreakpoints:
    def test_two_components(self):
        bp = breakpoints(model_spectrum("explicit", values=[2.0, 1.0]), 1.0, 2)
        np.testing.assert_allclose(bp, [0.0, 0.5], rtol=0, atol=1e-15)

    def test_isotropic(self):
        bp = breakpoints(model_spectrum("explicit", values=[1.0] * 3), 1.0, 3)
        np.testing.assert_array_equal(bp, [0.0, 0.0, 0.0])

    def test_a_held_read_only_array_that_evaluate_hands_out(self):
        spec = model_spectrum("explicit", values=[4.0, 2.0, 1.0])
        bp = breakpoints(spec, 1.0, 3)
        assert type(bp) is np.ndarray and not bp.flags.writeable
        with pytest.raises(ValueError):
            bp[0] = 1.0
        arch = ArchitectureSpec(FullyConnected(3, 3))
        assert evaluate(arch, spec, 1.0, 0.5).breakpoints is breakpoints(spec, 1.0, 3)

    def test_three_components(self):
        bp = breakpoints(model_spectrum("explicit", values=[4.0, 2.0, 1.0]), 1.0, 3)
        np.testing.assert_allclose(bp, [0.0, 0.25, 1.25], rtol=0, atol=1e-15)

    def test_noise_scaling(self):
        spec = model_spectrum("explicit", values=[4.0, 2.0, 1.0])
        np.testing.assert_allclose(
            breakpoints(spec, 2.0, 3),
            2.0 * breakpoints(spec, 1.0, 3), rtol=1e-15, atol=0)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2))
    @settings(max_examples=200, deadline=None)
    def test_ordered_and_anchored(self, size, noise_idx):
        rng = np.random.default_rng(size * 1000 + noise_idx)
        spec = random_spectrum(rng, size)
        noise_var = (0.1, 1.0, 10.0)[noise_idx]
        bp = breakpoints(spec, noise_var, size)
        assert bp[0] == 0.0
        assert np.all(np.diff(bp) >= 0.0)

    @pytest.mark.parametrize("noise_var", [0.0, -1.0])
    def test_rejects_non_positive_noise(self, noise_var):
        with pytest.raises(ValueError):
            breakpoints(model_spectrum("explicit", values=[2.0, 1.0]), noise_var, 2)


class TestRegime:
    def test_above_all(self):
        bp = breakpoints(model_spectrum("explicit", values=[2.0, 1.0]), 1.0, 2)
        assert regime(10.0, bp) == 0

    def test_between(self):
        bp = breakpoints(model_spectrum("explicit", values=[2.0, 1.0]), 1.0, 2)
        assert regime(0.25, bp) == 1

    def test_tie_prefers_more_active(self):
        bp = breakpoints(model_spectrum("explicit", values=[2.0, 1.0]), 1.0, 2)
        assert regime(0.5, bp) == 0

    def test_zero_budget(self):
        bp = breakpoints(model_spectrum("explicit", values=[2.0, 1.0]), 1.0, 2)
        assert regime(0.0, bp) == 1

    def test_negative_budget(self):
        bp = breakpoints(model_spectrum("explicit", values=[2.0, 1.0]), 1.0, 2)
        with pytest.raises(NegativeBudget):
            regime(-0.1, bp)

    @pytest.mark.parametrize("budget", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_budget_is_typed(self, budget):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        bp = breakpoints(spec, 1.0, 2)
        with pytest.raises(MmicapError):
            regime(budget, bp)
        with pytest.raises(MmicapError):
            regime(np.array([0.5, budget]), bp)
        with pytest.raises(MmicapError):
            solve_waterfill(budget, spec, 1.0, 2)
        with pytest.raises(MmicapError):
            build_optimal_weights(budget, decompose_covariance(
                CovarianceMatrix(np.diag([2.0, 1.0]))), 1.0, 2)


def float_bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestScalarBudgetCheck:
    """A Python float in [0, inf) passes ``budgets`` on one comparison; every
    input must come out as the numpy path a 0-d array takes gives it."""

    @staticmethod
    def checked(value):
        try:
            return budgets(value)
        except NegativeBudget:
            return NegativeBudget

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 5e-324, 1e308, float("nan"), float("inf"), -1.0, True,
        np.float64(2.0), 3, "1", np.float32(2.5), np.True_, Fraction(1, 2), 10**20])
    def test_matches_the_array_path(self, value):
        fast, slow = self.checked(value), self.checked(np.array(value))
        if slow is NegativeBudget:
            assert fast is NegativeBudget
        else:
            assert type(fast) is type(slow) is float
            assert float_bits(fast) == float_bits(slow)

    def test_numpy_and_python_floats_give_identical_results(self):
        spec = model_spectrum("exp_decay", 6, rate=0.4)
        python, numpy = (solve_waterfill(f, spec, 0.7, 4) for f in (2.5, np.float64(2.5)))
        # so the water level, budget used and active count read from them agree too
        assert python.tobytes() == numpy.tobytes()
        arch = ArchitectureSpec(FullyConnected(6, 4))
        python, numpy = (evaluate(arch, spec, 0.7, f) for f in (2.5, np.float64(2.5)))
        assert type(numpy.nats) is float and float_bits(python.nats) == float_bits(numpy.nats)
        assert (python.regime, python.active_components) == (numpy.regime,
                                                            numpy.active_components)

    @pytest.mark.parametrize("value", [10**20, [1, 2**70], Fraction(1, 2), [Fraction(1, 2)]])
    def test_exact_reals_read_as_their_doubles(self, value):
        # a budget is any real in [0, inf), not only a float: an int past int64
        # or a Fraction gives what its nearest double gives, bit for bit
        scalar = np.ndim(value) == 0
        double = np.float64(value) if scalar else np.array(value, dtype=np.float64)
        exact, rounded = budgets(value), budgets(double)
        assert type(exact) is type(rounded) and float_bits(exact) == float_bits(rounded)
        spec, arch = model_spectrum("exp_decay", 6, rate=0.4), FullyConnected(6, 4)
        exact, rounded = (evaluate(arch, spec, 0.7, f) for f in (value, double))
        for field in ("nats", "regime", "active_components"):
            assert (np.asarray(getattr(exact, field)).tobytes()
                    == np.asarray(getattr(rounded, field)).tobytes())
        if scalar:
            exact, rounded = (solve_waterfill(f, spec, 0.7, 4) for f in (value, double))
            assert exact.tobytes() == rounded.tobytes()
        else:
            exact, rounded = (np.array([(f, *point) for f, point in mmi_curve(arch, spec, 0.7, v)])
                              for v in (value, double))
            assert exact.tobytes() == rounded.tobytes()

    ELEMENTS = st.one_of(
        st.floats(), st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, -1.0]),
        st.integers(-2**1100, 2**1100), st.sampled_from([2**1023, 2**1024, 2**1100, 10**20]),
        st.fractions(), st.booleans(), st.sampled_from([np.True_, np.False_]),
        st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats().map(np.float64),
        st.floats(width=32).map(np.float32), st.text(max_size=2))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ELEMENTS, max_size=5))
    def test_accepts_exactly_the_nonnegative_reals(self, xs):
        def double(v):  # v as a float in [0, inf), or None
            if not isinstance(v, numbers.Real) or isinstance(v, (bool, np.bool_)):
                return None
            try:
                f = float(v)
            except OverflowError:
                return None
            return f if 0.0 <= f < math.inf else None

        doubles = [double(v) for v in xs]
        if None in doubles:
            with pytest.raises(NegativeBudget):
                budgets(xs)
        else:
            out = budgets(xs)
            assert out.dtype == np.float64 and out.tobytes() == np.array(doubles).tobytes()


class TestFloorOverflow:
    def test_overflowing_floor_rejected_without_warning(self):
        spectrum = model_spectrum("explicit", values=[1.0, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveEigenvalue):
                breakpoints(spectrum, 1e10, 2)
            with pytest.raises(NonPositiveEigenvalue):
                solve_waterfill(1.0, spectrum, 1e10, 2)


    @pytest.mark.parametrize("values, noise_var", [([1e30, 1e29], 1e-300), ([2.0, 1.0], 5e-324)])
    def test_subnormal_breakpoint_floor_rejected(self, values, noise_var):
        # rho_2 = f_2 (lambda_1 - lambda_2) / lambda_1 would carry too few digits
        spectrum = model_spectrum("explicit", values=values)
        with pytest.raises(NonPositiveEigenvalue, match="underflows"):
            breakpoints(spectrum, noise_var, 2)
        with pytest.raises(NonPositiveEigenvalue, match="underflows"):
            evaluate(ArchitectureSpec(FullyConnected(2, 2)), spectrum, noise_var, 1.0)
        assert breakpoints(spectrum, noise_var, 1).tolist() == [0.0]

    def test_subnormal_leading_floor_accepted(self):
        # f_1 = 1e-330 places no breakpoint (rho_1 = 0 whatever f_1)
        spectrum = model_spectrum("explicit", values=[1e30, 1.0])
        assert breakpoints(spectrum, 1e-300, 2).tolist() == [0.0, 1e-300]
        alloc = solve_waterfill(1.0, spectrum, 1e-300, 2)
        assert water_level(alloc, 1e-300 / spectrum.values) == 0.5
        assert alloc.tolist() == [0.5, 0.5]
        assert np.count_nonzero(alloc > 0) == 2 and np.sum(alloc) == 1.0


class TestSolveWaterfill:
    def test_a_read_only_array(self):
        alloc = solve_waterfill(2.5, model_spectrum("explicit", values=[2.0, 1.0]), 1.0, 2)
        assert type(alloc) is np.ndarray and not alloc.flags.writeable
        with pytest.raises(ValueError):
            alloc[0] = 1.0

    def test_full_budget(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        alloc = solve_waterfill(2.5, spec, 1.0, 2)
        assert water_level(alloc, 1.0 / spec.values) == pytest.approx(2.0, abs=1e-15)
        np.testing.assert_allclose(alloc, [1.5, 1.0], rtol=0, atol=1e-15)
        assert np.count_nonzero(alloc > 0) == 2
        assert np.sum(alloc) == pytest.approx(2.5, abs=1e-15)

    def test_zero_budget(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        alloc = solve_waterfill(0.0, spec, 1.0, 2)
        assert water_level(alloc, 1.0 / spec.values) == 0.5
        np.testing.assert_array_equal(alloc, [0.0, 0.0])
        assert np.count_nonzero(alloc > 0) == 0
        assert np.sum(alloc) == 0.0

    def test_partial_regime(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        alloc = solve_waterfill(0.25, spec, 1.0, 2)
        level = water_level(alloc, 1.0 / spec.values)
        assert level == pytest.approx(0.75, abs=1e-15)
        np.testing.assert_allclose(alloc, [0.25, 0.0], rtol=0, atol=1e-15)
        assert np.count_nonzero(alloc > 0) == 1
        # the excluded component sits strictly below its floor
        assert level - 1.0 / 1.0 < 0

    @pytest.mark.parametrize("values", [[2.0, 1.0, 0.5, 0.25], [3.0, 3.0, 3.0, 1.0, 0.2]])
    @pytest.mark.parametrize("budget", [0.0, 1e-9, 0.3, 2.0, 17.0, 1e6])
    def test_water_level_is_mean_of_budget_and_active_floors(self, values, budget):
        spec = model_spectrum("explicit", values=values)
        floors = 0.7 / spec.values
        alloc = solve_waterfill(budget, spec, 0.7, len(values))
        active = max(int(np.count_nonzero(alloc > 0)),
                     int(np.count_nonzero(floors == floors[0])))
        expected = (budget + float(np.sum(floors[:active]))) / active
        assert water_level(alloc, floors) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_kkt_and_budget(self, size, budget):
        rng = np.random.default_rng(size * 7919 + 17)
        spec = random_spectrum(rng, size)
        noise_var = float(rng.choice([0.1, 1.0, 10.0]))
        alloc = solve_waterfill(budget, spec, noise_var, size)
        floors = noise_var / spec.values[:size]
        active = alloc > 0
        # optimality: active components fill to the water level, inactive sit below it
        level = water_level(alloc, floors)
        np.testing.assert_allclose(
            alloc[active], (level - floors)[active],
            rtol=1e-9, atol=1e-12 * max(1.0, level))
        assert np.all(level - floors[~active] <= 1e-12)
        # budget saturation (exact zero at zero budget)
        if budget > 0:
            assert abs(np.sum(alloc) - budget) <= 1e-12 * budget
        else:
            assert np.sum(alloc) == 0.0
        # larger eigenvalues never get less
        assert np.all(np.diff(alloc) <= 1e-15)
        # the positive allocations form a prefix
        count = int(np.count_nonzero(active))
        assert np.all(active[:count])
        assert not np.any(active[count:])

    @pytest.mark.parametrize("values,budget", [
        ([3.0, 1.0], 1.7),
        ([5.0, 2.0, 0.5], 2.3),
        ([4.0, 3.0, 2.0, 1.0], 3.1),
        ([2.0, 1.9, 0.4, 0.3], 0.9),
    ])
    def test_matches_grid_search(self, values, budget):
        spec = model_spectrum("explicit", values=values)
        n = len(values)
        alloc = solve_waterfill(budget, spec, 1.0, n)
        floors = 1.0 / spec.values
        achieved = float(np.sum(np.log(alloc + floors)))
        brute = grid_search_objective(budget, floors)
        assert achieved >= brute - 1e-12
        assert achieved - brute <= 1e-3

    def test_monotone_continuity(self):
        spec = model_spectrum("explicit", values=[5.0, 2.5, 1.0, 0.4])
        bp = breakpoints(spec, 1.0, 4)
        top = float(bp[-1]) * 1.2 + 1.0
        grid = np.linspace(0.0, top, 2500)
        step = grid[1] - grid[0]
        floors = 1.0 / spec.values
        allocs = np.asarray([solve_waterfill(float(budget), spec, 1.0, 4) for budget in grid])
        levels = np.asarray([water_level(alloc, floors) for alloc in allocs])
        assert np.all(np.diff(levels) >= -1e-12)
        assert np.all(np.diff(levels) <= 10.0 * step)
        assert np.all(np.diff(allocs, axis=0) >= -1e-12)
        assert np.all(np.diff(allocs, axis=0) <= 10.0 * step)

    def test_repeated_eigenvalues_split_evenly(self):
        spec = model_spectrum("explicit", values=[2.0, 2.0, 2.0])
        alloc = solve_waterfill(1.5, spec, 1.0, 3)
        np.testing.assert_allclose(alloc, [0.5, 0.5, 0.5], rtol=1e-14)

    def test_tiny_budget_large_floor_saturates_exactly(self):
        # budget far below the floor scale: allocation must still sum to budget
        spec = model_spectrum("explicit", values=[1e-4, 9e-5])
        alloc = solve_waterfill(1e-6, spec, 10.0, 2)
        assert abs(np.sum(alloc) - 1e-6) <= 1e-18


class TestSolveWaterfillLarge:
    def test_thousands_active_in_linear_memory(self):
        # Harmonic spectrum: floor_i = i, so about 4000 of 20000 components
        # are active at this budget; a pairwise n x active form needs ~640 MB.
        n, budget = 20000, 8e6
        spec = model_spectrum("harmonic", n)
        floors = 1.0 / spec.values
        tracemalloc.start()
        try:
            alloc = solve_waterfill(budget, spec, 1.0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        m = int(np.count_nonzero(alloc > 0))
        assert 1000 < m < n
        level = water_level(alloc, floors)
        np.testing.assert_allclose(alloc[:m], level - floors[:m],
                                   rtol=0, atol=1e-12 * level)
        assert np.all(alloc[m:] == 0.0)
        assert level <= floors[m]
        assert abs(np.sum(alloc) - budget) <= 1e-12 * budget


def test_breakpoints_past_the_double_range_are_held_not_read():
    spectrum = model_spectrum("exp_decay", 7098, rate=0.1)
    bp = breakpoints(spectrum, 1.0, 7098)
    assert np.all(np.isfinite(bp[:7010])) and np.all(np.isinf(bp[7010:]))
    assert breakpoints(spectrum, 1.0, 7098) is bp
    assert breakpoints(spectrum, 1.0, 7010)[-1] == bp[7009]
    np.testing.assert_array_equal(breakpoints(spectrum, 1.0, 7010), bp[:7010])
    # the regime lookup and the allocation read only breakpoints at or below the budget
    assert regime(np.finfo(float).max, bp) == 7098 - 7010
    assert np.count_nonzero(solve_waterfill(1.0, spectrum, 1.0, 7098) > 0) == 4
    arch = ArchitectureSpec(FullyConnected(7098, 7098))
    budget = invert_mmi(arch, spectrum, 1.0, 5.0)
    assert evaluate(arch, spectrum, 1.0, budget).nats == pytest.approx(5.0, abs=1e-12)


def count_computes(monkeypatch, name="_breakpoints"):
    """Count the fresh computations of one part of the water-filling state."""
    calls = []
    compute = getattr(waterfill, name)

    def spy(*args):
        calls.append(args[1:])
        return compute(*args)

    monkeypatch.setattr(waterfill, name, spy)
    return calls


def twin(spectrum):
    """A new spectrum with the same values and nothing held."""
    return Spectrum(spectrum.values)


class TestHeldState:
    def test_alternating_keys_match_a_fresh_compute_bit_for_bit(self):
        rng = np.random.default_rng(11)
        spec = random_spectrum(rng, 40)
        arch = ArchitectureSpec(FullyConnected(40, 40))
        budgets = np.array([0.0, 1e-4, 0.3, 7.0, 2e3])
        for _ in range(2):
            for noise_var in (1e-3, 1.0, 1e3):
                for n_tilde in (40, 17):
                    fresh = twin(spec)
                    np.testing.assert_array_equal(
                        breakpoints(spec, noise_var, n_tilde),
                        breakpoints(fresh, noise_var, n_tilde))
                    for budget in budgets:
                        held = solve_waterfill(budget, spec, noise_var, n_tilde)
                        ref = solve_waterfill(budget, twin(spec), noise_var, n_tilde)
                        # so the water level, budget used and active count agree too
                        np.testing.assert_array_equal(held, ref)
                # the dense evaluation and inversion read n_tilde = 40
                np.testing.assert_array_equal(
                    evaluate(arch, spec, noise_var, budgets).nats,
                    evaluate(arch, twin(spec), noise_var, budgets).nats)
                assert invert_mmi(arch, spec, noise_var, 3.0) \
                    == invert_mmi(arch, twin(spec), noise_var, 3.0)

    def test_one_slot_is_held_and_replaced_on_a_miss(self, monkeypatch):
        calls = count_computes(monkeypatch)
        spec = model_spectrum("harmonic", 30)
        assert spec._waterfill is None
        first = breakpoints(spec, 1.0, 30)
        assert breakpoints(spec, 1.0, 30) is first
        assert len(calls) == 1
        capacities = spec._waterfill[3]
        other = breakpoints(spec, 2.0, 30)
        noise_var, n_tilde, bp, c = spec._waterfill
        assert (noise_var, n_tilde) == (2.0, 30) and bp is other and c is capacities
        breakpoints(spec, 2.0, 12)
        assert spec._waterfill[:2] == (2.0, 12)
        # the first key was dropped, so asking for it again computes it again
        again = breakpoints(spec, 1.0, 30)
        assert again is not first
        np.testing.assert_array_equal(again, first)
        assert len(calls) == 4

    @pytest.mark.parametrize("call,error", [
        (lambda s: breakpoints(s, 1.0, 0), IndexOutOfRange),
        (lambda s: breakpoints(s, 1.0, 4), IndexOutOfRange),
        (lambda s: solve_waterfill(1.0, s, 1e306, 3), NonPositiveEigenvalue),
        (lambda s: breakpoints(s, 0.0, 3), ValueError),
        (lambda s: breakpoints(s, -1.0, 3), ValueError),
        (lambda s: breakpoints(s, np.nan, 3), ConfigError),
        (lambda s: solve_waterfill(np.nan, s, 1.0, 3), NegativeBudget),
    ], ids=["no-components", "past-the-last", "floor-overflow", "zero-noise",
            "negative-noise", "nan-noise", "nan-budget"])
    def test_a_failing_call_leaves_the_slot_as_it_was(self, call, error):
        spec = model_spectrum("explicit", values=[4.0, 2.0, 1e-3])
        held = breakpoints(spec, 1.0, 3)
        entry = spec._waterfill
        with pytest.raises(error):
            call(spec)
        assert spec._waterfill is entry
        assert breakpoints(spec, 1.0, 3) is held

    def test_capacities_are_computed_once_across_noise_variances(self, monkeypatch):
        rho_calls = count_computes(monkeypatch)
        c_calls = count_computes(monkeypatch, "_capacities")
        spec = model_spectrum("exp_decay", 50, rate=0.1)
        arch = ArchitectureSpec(FullyConnected(50, 20))
        held = []
        for noise_var in (0.5, 2.0) * 3:
            evaluate(arch, spec, noise_var, [0.1, 5.0])
            invert_mmi(arch, spec, noise_var, 3.0)
            held.append(spec._waterfill[3])
        # built once at full length, though the bottleneck reads 20 of them
        assert len(c_calls) == 1 and held[0].size == 50
        assert rho_calls == [(0.5, 20), (2.0, 20)] * 3
        assert all(c is held[0] for c in held)

    def test_a_failing_first_call_holds_nothing(self):
        spec = model_spectrum("explicit", values=[4.0, 2.0, 1e-3])
        with pytest.raises(IndexOutOfRange):
            breakpoints(spec, 1.0, 4)
        assert spec._waterfill is None

    def test_held_arrays_are_read_only(self):
        spec = model_spectrum("harmonic", 8)
        solve_waterfill(1.0, spec, 0.5, 8)
        _, _, bp, c = spec._waterfill
        for held in (bp, c):
            assert not held.flags.writeable
            with pytest.raises(ValueError):
                held[0] = 1.0

    def test_two_threads_alternating_keys_read_consistent_entries(self):
        spec = model_spectrum("harmonic", 200)
        keys = [(0.5, 200), (3.0, 150)]
        expected = {key: (breakpoints(twin(spec), *key),
                          solve_waterfill(40.0, twin(spec), *key))
                    for key in keys}
        failures = []

        def work(key):
            try:
                for _ in range(300):
                    bp = breakpoints(spec, *key)
                    alloc = solve_waterfill(40.0, spec, *key)
                    if not (np.array_equal(bp, expected[key][0])
                            and np.array_equal(alloc, expected[key][1])):
                        failures.append(key)
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(key,)) for key in keys * 2]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestStateIsComputedOnce:
    def test_curve_then_inversion_on_one_spectrum(self, monkeypatch):
        spec = model_spectrum("harmonic", 2000)
        arch = ArchitectureSpec(FullyConnected(2000, 2000))
        calls = count_computes(monkeypatch)
        mmi_curve(arch, spec, 0.1, np.linspace(0.0, 500.0, 400))
        invert_mmi(arch, spec, 0.1, 50.0)
        assert calls == [(0.1, 2000)]

    def test_conv_curve_then_inversion(self, monkeypatch):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((16, 16))
        source = BlockCovariance(CovarianceMatrix(b @ b.T + 0.1 * np.eye(16)), 4)
        arch = ArchitectureSpec(Convolutional(64, 16, 8))
        calls = count_computes(monkeypatch)
        mmi_curve(arch, source, 0.5, np.linspace(0.0, 50.0, 400))
        invert_mmi(arch, source, 0.5, 20.0)
        assert calls == [(0.5, 8)]

    def test_weights_at_many_budgets(self, monkeypatch):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((32, 32))
        dec = decompose_covariance(CovarianceMatrix(b @ b.T + 0.1 * np.eye(32)))
        calls = count_computes(monkeypatch)
        for budget in np.geomspace(1e-2, 1e2, 24):
            build_optimal_weights(float(budget), dec, 0.3, 12)
        assert calls == [(0.3, 12)]


def test_the_held_entry_has_one_owner():
    # rho and the breakpoint capacities live in one entry that only waterfill.py
    # reads or writes; spectrum.py declares its field, and nothing else names it
    root = Path(mmicap.__file__).resolve().parent
    owners = {"spectrum.py", "waterfill.py"}
    for path in sorted(root.glob("*.py")) + sorted((root.parents[1] / "benchmarks").glob("*.py")):
        named = {node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if "_waterfill" in (getattr(node, "id", None), getattr(node, "attr", None),
                                     getattr(node, "value", None))}
        assert path.name in owners or not named, (path.name, sorted(named))
    assert not hasattr(Spectrum, "breakpoint_capacities")
