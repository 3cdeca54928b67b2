"""Water-filling: breakpoints, regime lookup, and the allocation solver."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmicap import (
    ArchitectureSpec,
    FullyConnected,
    IndexOutOfRange,
    NegativeBudget,
    NonPositiveEigenvalue,
    NumericalOverflow,
    evaluate,
    invert_mmi,
    breakpoint_value,
    breakpoints,
    model_spectrum,
    regime,
    solve_waterfill,
)


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


def random_spectrum(rng, size):
    return model_spectrum("explicit", values=np.exp(rng.uniform(
        np.log(1e-3), np.log(1e3), size=size)))


class TestBreakpointValue:
    def test_first_is_zero(self):
        assert breakpoint_value(model_spectrum("explicit", values=[1.0]), 1.0, 1) == 0.0

    def test_two_components(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        assert breakpoint_value(spec, 1.0, 2) == pytest.approx(0.5, abs=1e-15)

    def test_isotropic_all_zero(self):
        spec = model_spectrum("explicit", values=[3.0] * 5)
        for k in range(1, 6):
            assert breakpoint_value(spec, 1.0, k) == 0.0

    def test_index_out_of_range(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        with pytest.raises(IndexOutOfRange):
            breakpoint_value(spec, 1.0, 3)
        with pytest.raises(IndexOutOfRange):
            breakpoint_value(spec, 1.0, 0)


class TestBreakpoints:
    def test_two_components(self):
        bp = breakpoints(model_spectrum("explicit", values=[2.0, 1.0]), 1.0, 2)
        np.testing.assert_allclose(bp.values, [0.0, 0.5], rtol=0, atol=1e-15)

    def test_isotropic(self):
        bp = breakpoints(model_spectrum("explicit", values=[1.0] * 3), 1.0, 3)
        np.testing.assert_array_equal(bp.values, [0.0, 0.0, 0.0])

    def test_three_components(self):
        bp = breakpoints(model_spectrum("explicit", values=[4.0, 2.0, 1.0]), 1.0, 3)
        np.testing.assert_allclose(bp.values, [0.0, 0.25, 1.25], rtol=0, atol=1e-15)

    def test_noise_scaling(self):
        spec = model_spectrum("explicit", values=[4.0, 2.0, 1.0])
        np.testing.assert_allclose(
            breakpoints(spec, 2.0, 3).values,
            2.0 * breakpoints(spec, 1.0, 3).values, rtol=1e-15, atol=0)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2))
    @settings(max_examples=200, deadline=None)
    def test_ordered_and_anchored(self, size, noise_idx):
        rng = np.random.default_rng(size * 1000 + noise_idx)
        spec = random_spectrum(rng, size)
        noise_var = (0.1, 1.0, 10.0)[noise_idx]
        bp = breakpoints(spec, noise_var, size)
        assert bp.values[0] == 0.0
        assert np.all(np.diff(bp.values) >= 0.0)


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


class TestFloorOverflow:
    def test_overflowing_floor_rejected_without_warning(self):
        spectrum = model_spectrum("explicit", values=[1.0, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveEigenvalue):
                breakpoints(spectrum, 1e10, 2)
            with pytest.raises(NonPositiveEigenvalue):
                solve_waterfill(1.0, spectrum, 1e10, 2)


class TestSolveWaterfill:
    def test_full_budget(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        sol = solve_waterfill(2.5, spec, 1.0, 2)
        assert sol.water_level == pytest.approx(2.0, abs=1e-15)
        np.testing.assert_allclose(sol.allocations, [1.5, 1.0], rtol=0, atol=1e-15)
        assert sol.active_count == 2
        assert sol.budget_used == pytest.approx(2.5, abs=1e-15)

    def test_zero_budget(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        sol = solve_waterfill(0.0, spec, 1.0, 2)
        assert sol.water_level == 0.5
        np.testing.assert_array_equal(sol.allocations, [0.0, 0.0])
        assert sol.active_count == 0
        assert sol.budget_used == 0.0

    def test_partial_regime(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        sol = solve_waterfill(0.25, spec, 1.0, 2)
        assert sol.water_level == pytest.approx(0.75, abs=1e-15)
        np.testing.assert_allclose(sol.allocations, [0.25, 0.0], rtol=0, atol=1e-15)
        assert sol.active_count == 1
        # the excluded component sits strictly below its floor
        assert sol.water_level - 1.0 / 1.0 < 0

    @pytest.mark.parametrize("values", [[2.0, 1.0, 0.5, 0.25], [3.0, 3.0, 3.0, 1.0, 0.2]])
    @pytest.mark.parametrize("budget", [0.0, 1e-9, 0.3, 2.0, 17.0, 1e6])
    def test_water_level_is_mean_of_budget_and_active_floors(self, values, budget):
        spec = model_spectrum("explicit", values=values)
        floors = 0.7 / spec.values
        sol = solve_waterfill(budget, spec, 0.7, len(values))
        active = max(sol.active_count, int(np.count_nonzero(floors == floors[0])))
        expected = (budget + float(np.sum(floors[:active]))) / active
        assert sol.water_level == pytest.approx(expected, rel=1e-14, abs=0.0)

    @given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_kkt_and_budget(self, size, budget):
        rng = np.random.default_rng(size * 7919 + 17)
        spec = random_spectrum(rng, size)
        noise_var = float(rng.choice([0.1, 1.0, 10.0]))
        sol = solve_waterfill(budget, spec, noise_var, size)
        floors = noise_var / spec.values[:size]
        active = sol.allocations > 0
        # optimality: active components fill to the water level, inactive sit below it
        np.testing.assert_allclose(
            sol.allocations[active], (sol.water_level - floors)[active],
            rtol=1e-9, atol=1e-12 * max(1.0, sol.water_level))
        assert np.all(sol.water_level - floors[~active] <= 1e-12)
        # budget saturation (exact zero at zero budget)
        if budget > 0:
            assert abs(sol.budget_used - budget) <= 1e-12 * budget
        else:
            assert sol.budget_used == 0.0
        # larger eigenvalues never get less
        assert np.all(np.diff(sol.allocations) <= 1e-15)
        # the positive allocations form a prefix of exactly active_count entries
        assert int(np.count_nonzero(active)) == sol.active_count
        assert np.all(active[:sol.active_count])
        assert not np.any(active[sol.active_count:])

    @pytest.mark.parametrize("values,budget", [
        ([3.0, 1.0], 1.7),
        ([5.0, 2.0, 0.5], 2.3),
        ([4.0, 3.0, 2.0, 1.0], 3.1),
        ([2.0, 1.9, 0.4, 0.3], 0.9),
    ])
    def test_matches_grid_search(self, values, budget):
        spec = model_spectrum("explicit", values=values)
        n = len(values)
        sol = solve_waterfill(budget, spec, 1.0, n)
        floors = 1.0 / spec.values
        achieved = float(np.sum(np.log(sol.allocations + floors)))
        brute = grid_search_objective(budget, floors)
        assert achieved >= brute - 1e-12
        assert achieved - brute <= 1e-3

    def test_monotone_continuity(self):
        spec = model_spectrum("explicit", values=[5.0, 2.5, 1.0, 0.4])
        bp = breakpoints(spec, 1.0, 4)
        top = float(bp.values[-1]) * 1.2 + 1.0
        grid = np.linspace(0.0, top, 2500)
        step = grid[1] - grid[0]
        levels = []
        allocs = []
        for budget in grid:
            sol = solve_waterfill(float(budget), spec, 1.0, 4)
            levels.append(sol.water_level)
            allocs.append(sol.allocations)
        levels = np.asarray(levels)
        allocs = np.asarray(allocs)
        assert np.all(np.diff(levels) >= -1e-12)
        assert np.all(np.diff(levels) <= 10.0 * step)
        assert np.all(np.diff(allocs, axis=0) >= -1e-12)
        assert np.all(np.diff(allocs, axis=0) <= 10.0 * step)

    def test_repeated_eigenvalues_split_evenly(self):
        spec = model_spectrum("explicit", values=[2.0, 2.0, 2.0])
        sol = solve_waterfill(1.5, spec, 1.0, 3)
        np.testing.assert_allclose(sol.allocations, [0.5, 0.5, 0.5], rtol=1e-14)

    def test_tiny_budget_large_floor_saturates_exactly(self):
        # budget far below the floor scale: allocation must still sum to budget
        spec = model_spectrum("explicit", values=[1e-4, 9e-5])
        sol = solve_waterfill(1e-6, spec, 10.0, 2)
        assert abs(sol.budget_used - 1e-6) <= 1e-18


class TestSolveWaterfillLarge:
    def test_thousands_active_in_linear_memory(self):
        # Harmonic spectrum: floor_i = i, so about 4000 of 20000 components
        # are active at this budget; a pairwise n x active form needs ~640 MB.
        n, budget = 20000, 8e6
        spec = model_spectrum("harmonic", n)
        floors = 1.0 / spec.values
        tracemalloc.start()
        try:
            sol = solve_waterfill(budget, spec, 1.0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        m = sol.active_count
        assert 1000 < m < n
        np.testing.assert_allclose(sol.allocations[:m], sol.water_level - floors[:m],
                                   rtol=0, atol=1e-12 * sol.water_level)
        assert np.all(sol.allocations[m:] == 0.0)
        assert sol.water_level <= floors[m]
        assert abs(sol.budget_used - budget) <= 1e-12 * budget


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_breakpoints_past_the_double_range_are_held_not_read():
    spectrum = model_spectrum("exp_decay", 7098, rate=0.1)
    bp = breakpoints(spectrum, 1.0, 7098)
    assert np.all(np.isfinite(bp.values[:7010])) and np.all(np.isinf(bp.values[7010:]))
    with pytest.raises(NumericalOverflow, match="breakpoint 7011 of 7098"):
        bp.finite()
    with pytest.raises(NumericalOverflow, match="breakpoint 7011 of 7098"):
        breakpoint_value(spectrum, 1.0, 7098)
    assert breakpoint_value(spectrum, 1.0, 7010) == bp.values[7009]
    np.testing.assert_array_equal(breakpoints(spectrum, 1.0, 7010).finite(), bp.values[:7010])
    # the regime lookup and the allocation read only breakpoints at or below the budget
    assert regime(np.finfo(float).max, bp) == 7098 - 7010
    assert solve_waterfill(1.0, spectrum, 1.0, 7098).active_count == 4
    arch = ArchitectureSpec(FullyConnected(7098, 7098))
    budget = invert_mmi(arch, spectrum, 1.0, 5.0)
    assert evaluate(arch, spectrum, 1.0, budget).nats == pytest.approx(5.0, abs=1e-12)
