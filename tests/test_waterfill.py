"""Water-filling: breakpoints, regime lookup, and the allocation solver."""

import sys
import threading
import tracemalloc
import warnings

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
    NumericalOverflow,
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
from mmicap import waterfill


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
    """The budget at which component k enters: the last of the first k breakpoints."""

    def test_first_is_zero(self):
        spec = model_spectrum("explicit", values=[1.0])
        assert breakpoints(spec, 1.0, 1).finite()[-1] == 0.0

    def test_two_components(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        assert breakpoints(spec, 1.0, 2).finite()[-1] == pytest.approx(0.5, abs=1e-15)

    def test_isotropic_all_zero(self):
        spec = model_spectrum("explicit", values=[3.0] * 5)
        for k in range(1, 6):
            assert breakpoints(spec, 1.0, k).finite()[-1] == 0.0

    def test_index_out_of_range(self):
        spec = model_spectrum("explicit", values=[2.0, 1.0])
        with pytest.raises(IndexOutOfRange):
            breakpoints(spec, 1.0, 3).finite()[-1]
        with pytest.raises(IndexOutOfRange):
            breakpoints(spec, 1.0, 0).finite()[-1]


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
        assert breakpoints(spectrum, noise_var, 1).values.tolist() == [0.0]

    def test_subnormal_leading_floor_accepted(self):
        # f_1 = 1e-330 places no breakpoint (rho_1 = 0 whatever f_1)
        spectrum = model_spectrum("explicit", values=[1e30, 1.0])
        assert breakpoints(spectrum, 1e-300, 2).values.tolist() == [0.0, 1e-300]
        sol = solve_waterfill(1.0, spectrum, 1e-300, 2)
        assert sol.water_level == 0.5 and sol.allocations.tolist() == [0.5, 0.5]
        assert sol.active_count == 2 and sol.budget_used == 1.0


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


def test_breakpoints_past_the_double_range_are_held_not_read():
    spectrum = model_spectrum("exp_decay", 7098, rate=0.1)
    bp = breakpoints(spectrum, 1.0, 7098)
    assert np.all(np.isfinite(bp.values[:7010])) and np.all(np.isinf(bp.values[7010:]))
    with pytest.raises(NumericalOverflow, match="breakpoint 7011 of 7098"):
        bp.finite()
    with pytest.raises(NumericalOverflow, match="breakpoint 7011 of 7098"):
        breakpoints(spectrum, 1.0, 7098).finite()[-1]
    assert breakpoints(spectrum, 1.0, 7010).finite()[-1] == bp.values[7009]
    np.testing.assert_array_equal(breakpoints(spectrum, 1.0, 7010).finite(), bp.values[:7010])
    # the regime lookup and the allocation read only breakpoints at or below the budget
    assert regime(np.finfo(float).max, bp) == 7098 - 7010
    assert solve_waterfill(1.0, spectrum, 1.0, 7098).active_count == 4
    arch = ArchitectureSpec(FullyConnected(7098, 7098))
    budget = invert_mmi(arch, spectrum, 1.0, 5.0)
    assert evaluate(arch, spectrum, 1.0, budget).nats == pytest.approx(5.0, abs=1e-12)


def count_computes(monkeypatch):
    """Count the fresh computations of the water-filling state."""
    calls = []
    compute = waterfill._floors_and_breakpoints

    def spy(*args):
        calls.append(args[1:])
        return compute(*args)

    monkeypatch.setattr(waterfill, "_floors_and_breakpoints", spy)
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
                        breakpoints(spec, noise_var, n_tilde).values,
                        breakpoints(fresh, noise_var, n_tilde).values)
                    for budget in budgets:
                        held = solve_waterfill(budget, spec, noise_var, n_tilde)
                        ref = solve_waterfill(budget, twin(spec), noise_var, n_tilde)
                        assert held.water_level == ref.water_level
                        assert held.active_count == ref.active_count
                        assert held.budget_used == ref.budget_used
                        np.testing.assert_array_equal(held.allocations, ref.allocations)
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
        other = breakpoints(spec, 2.0, 30)
        noise_var, n_tilde, floors, bp = spec._waterfill
        assert (noise_var, n_tilde, bp) == (2.0, 30, other)
        np.testing.assert_array_equal(floors, 2.0 / spec.values)
        breakpoints(spec, 2.0, 12)
        assert spec._waterfill[:2] == (2.0, 12)
        # the first key was dropped, so asking for it again computes it again
        again = breakpoints(spec, 1.0, 30)
        assert again is not first
        np.testing.assert_array_equal(again.values, first.values)
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

    def test_a_failing_first_call_holds_nothing(self):
        spec = model_spectrum("explicit", values=[4.0, 2.0, 1e-3])
        with pytest.raises(IndexOutOfRange):
            breakpoints(spec, 1.0, 4)
        assert spec._waterfill is None

    def test_held_arrays_are_read_only(self):
        spec = model_spectrum("harmonic", 8)
        solve_waterfill(1.0, spec, 0.5, 8)
        _, _, floors, bp = spec._waterfill
        for held in (floors, bp.values):
            assert not held.flags.writeable
            with pytest.raises(ValueError):
                held[0] = 1.0

    def test_two_threads_alternating_keys_read_consistent_entries(self):
        spec = model_spectrum("harmonic", 200)
        keys = [(0.5, 200), (3.0, 150)]
        expected = {key: (breakpoints(twin(spec), *key).values,
                          solve_waterfill(40.0, twin(spec), *key).allocations)
                    for key in keys}
        failures = []

        def work(key):
            try:
                for _ in range(300):
                    bp = breakpoints(spec, *key).values
                    alloc = solve_waterfill(40.0, spec, *key).allocations
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
