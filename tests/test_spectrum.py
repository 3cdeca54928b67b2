"""Spectrum and covariance handling: eigendecomposition, models, loaders."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmicap import (
    BlockCovariance,
    Breakpoints,
    ConfigError,
    CovarianceMatrix,
    DimensionMismatch,
    IndexOutOfRange,
    NonPositiveEigenvalue,
    NotPositiveDefinite,
    NotSymmetric,
    NumericalOverflow,
    Spectrum,
    WaterfillSolution,
    WeightMatrix,
    decompose_covariance,
    eigvals_from_covariance,
    linear_channel,
    load_covariance_csv,
    load_spectrum_json,
    model_spectrum,
    solve_waterfill,
)

# Any overflow in a prefix sum fails loudly instead of warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def lu_determinant(matrix):
    """Independent determinant via plain Gaussian elimination with pivoting."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    det = 1.0
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            return 0.0
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            det = -det
        det *= a[col, col]
        for row in range(col + 1, n):
            a[row, col:] -= (a[row, col] / a[col, col]) * a[col, col:]
    return det


def random_spd(rng, dim, jitter=0.1):
    b = rng.standard_normal((dim, dim))
    return CovarianceMatrix(b @ b.T + jitter * np.eye(dim))


class TestEigvalsFromCovariance:
    def test_identity(self):
        spec = eigvals_from_covariance(CovarianceMatrix(np.eye(3)))
        np.testing.assert_array_equal(spec.values, [1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        spec = eigvals_from_covariance(CovarianceMatrix(np.diag([1.0, 2.0])))
        np.testing.assert_allclose(spec.values, [2.0, 1.0], rtol=0, atol=1e-14)

    def test_eigenvalue_product_matches_lu_determinant(self):
        rng = np.random.default_rng(42)
        cov = random_spd(rng, 5)
        spec = eigvals_from_covariance(cov)
        det = lu_determinant(cov.entries)
        assert abs(np.prod(spec.values) - det) <= 1e-8 * abs(det)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        cov = random_spd(rng, 6)
        dec = decompose_covariance(cov)
        rebuilt = dec.eigenvectors @ np.diag(dec.spectrum.values) @ dec.eigenvectors.T
        scale = np.max(np.abs(cov.entries))
        assert np.max(np.abs(rebuilt - cov.entries)) <= 1e-8 * scale

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        cov = random_spd(rng, 5)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        rotated = CovarianceMatrix(q.T @ cov.entries @ q)
        np.testing.assert_allclose(
            eigvals_from_covariance(rotated).values,
            eigvals_from_covariance(cov).values,
            rtol=1e-8, atol=1e-10,
        )

    def test_trace_consistency(self):
        rng = np.random.default_rng(11)
        for dim in (1, 3, 8):
            cov = random_spd(rng, dim)
            trace = float(np.trace(cov.entries))
            total = float(np.sum(eigvals_from_covariance(cov).values))
            assert abs(total - trace) <= 1e-8 * abs(trace)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            CovarianceMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            eigvals_from_covariance(CovarianceMatrix(np.diag([1.0, 0.0])))

    def test_near_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            eigvals_from_covariance(CovarianceMatrix(np.diag([1.0, 1e-14])))


class TestDecompositionIsHeld:
    def counting_eigh(self, monkeypatch):
        original, calls = np.linalg.eigh, []

        def wrapper(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigh", wrapper)
        return calls

    def test_one_eigh_per_covariance(self, monkeypatch):
        cov = random_spd(np.random.default_rng(41), 5)
        calls = self.counting_eigh(monkeypatch)
        first, second = decompose_covariance(cov), decompose_covariance(cov)
        assert len(calls) == 1 and second is first
        assert eigvals_from_covariance(cov) is first.spectrum and len(calls) == 1
        assert not first.eigenvectors.flags.writeable
        assert not first.spectrum.values.flags.writeable

    def test_distinct_covariances_do_not_share_it(self, monkeypatch):
        entries = random_spd(np.random.default_rng(42), 4).entries
        calls = self.counting_eigh(monkeypatch)
        one, other = CovarianceMatrix(entries), CovarianceMatrix(2.0 * entries)
        np.testing.assert_array_equal(decompose_covariance(other).spectrum.values,
                                      2.0 * decompose_covariance(one).spectrum.values)
        assert len(calls) == 2
        assert decompose_covariance(CovarianceMatrix(entries)) is not \
            decompose_covariance(one)
        assert len(calls) == 3

    def test_a_failure_is_raised_on_every_call(self, monkeypatch):
        cov = CovarianceMatrix(np.diag([1.0, 0.0]))
        calls = self.counting_eigh(monkeypatch)
        for attempt in (1, 2):
            with pytest.raises(NotPositiveDefinite):
                decompose_covariance(cov)
            assert len(calls) == attempt


class TestModelSpectrum:
    def test_exp_decay_single(self):
        np.testing.assert_array_equal(
            model_spectrum("exp_decay", 1, rate=0.1).values, [1.0])

    def test_harmonic(self):
        np.testing.assert_allclose(
            model_spectrum("harmonic", 3).values, [1.0, 0.5, 1.0 / 3.0],
            rtol=0, atol=0)

    def test_exp_decay_tail(self):
        spec = model_spectrum("exp_decay", 100, rate=0.1)
        assert spec.values[99] == math.exp(-9.9)
        assert abs(spec.values[99] - 5.017468e-5) < 1e-10

    def test_explicit_sorts(self):
        np.testing.assert_array_equal(
            model_spectrum("explicit", values=[1.0, 3.0, 2.0]).values,
            [3.0, 2.0, 1.0])

    def test_explicit_rejects_nonpositive(self):
        with pytest.raises(NonPositiveEigenvalue):
            model_spectrum("explicit", values=[1.0, 0.0])
        with pytest.raises(NonPositiveEigenvalue):
            model_spectrum("explicit", values=[1.0, -2.0])

    def test_bad_parameters(self):
        with pytest.raises(ConfigError):
            model_spectrum("exp_decay", 5, rate=-1.0)
        with pytest.raises(ConfigError):
            model_spectrum("harmonic", 0)
        with pytest.raises(ConfigError):
            model_spectrum("unknown", 3)


class TestSpectrumInvariants:
    def test_requires_descending(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]))

    def test_rejects_entries_with_infinite_reciprocal(self):
        with pytest.raises(NonPositiveEigenvalue):
            Spectrum(np.array([1.0, 1e-310]))

    @pytest.mark.parametrize("values", [[1.0, 0.0], [1.0, math.nan], [math.inf, 1.0]])
    def test_rejects_nonpositive_and_non_finite_entries(self, values):
        with pytest.raises(NonPositiveEigenvalue):
            Spectrum(np.array(values))

    def test_values_immutable(self):
        spec = model_spectrum("harmonic", 4)
        with pytest.raises(ValueError):
            spec.values[0] = 5.0

    def test_prefix_sums(self):
        spec = model_spectrum("explicit", values=[4.0, 2.0, 1.0])
        assert spec.inverse_trace(2) == 0.25 + 0.5
        assert spec.log_det(3) == pytest.approx(math.log(8.0), abs=1e-15)

    def test_prefix_sums_take_arrays_of_counts(self):
        n = 20_000
        spec = model_spectrum("harmonic", n)
        counts = np.array([1, 2, 7, 129, 4096, n - 1, n])
        for lookup, terms in ((spec.inverse_trace, 1.0 / spec.values),
                              (spec.log_det, np.log(spec.values))):
            together = lookup(counts)
            # a running sum in the accumulator's precision, rounded once
            bound = n * float(np.finfo(np.longdouble).eps) + np.finfo(np.float64).eps
            for k, value in zip(counts, together):
                assert value == lookup(int(k))
                exact = math.fsum(terms[:k])
                assert abs(value - exact) <= bound * math.fsum(np.abs(terms[:k]))
        with pytest.raises(IndexOutOfRange):
            spec.log_det(np.array([1, n + 1]))

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=32))
    @settings(max_examples=150, deadline=None)
    def test_model_spectra_finite_positive_descending(self, exponents):
        spec = model_spectrum("explicit", values=np.power(10.0, exponents))
        assert np.all(np.isfinite(spec.values))
        assert np.all(spec.values > 0)
        assert np.all(np.diff(spec.values) <= 0)

    @given(st.integers(min_value=1, max_value=64),
           st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_parametric_spectra_descending(self, n, rate):
        for spec in (model_spectrum("exp_decay", n, rate=rate),
                     model_spectrum("harmonic", n)):
            assert np.all(spec.values > 0)
            assert np.all(np.diff(spec.values) <= 0)


class TestBlockCovariance:
    def test_expand(self):
        block = BlockCovariance(CovarianceMatrix(np.diag([2.0, 1.0])), 3)
        full = block.expand()
        assert full.dim == 6
        np.testing.assert_array_equal(
            full.entries, np.kron(np.eye(3), np.diag([2.0, 1.0])))

    def test_rejects_bad_repetitions(self):
        with pytest.raises(Exception):
            BlockCovariance(CovarianceMatrix(np.eye(2)), 0)


class TestLoaders:
    def test_covariance_csv_roundtrip(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("2.0,0.5\n0.5,1.0\n")
        cov = load_covariance_csv(path)
        np.testing.assert_array_equal(cov.entries, [[2.0, 0.5], [0.5, 1.0]])

    def test_covariance_csv_not_square(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.0\n")
        with pytest.raises(ConfigError):
            load_covariance_csv(path)

    def test_covariance_csv_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,zebra\n0.0,1.0\n")
        with pytest.raises(ConfigError):
            load_covariance_csv(path)

    def test_spectrum_json_model(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "exp_decay", "rate": 0.1, "n": 4}))
        spec = load_spectrum_json(path)
        np.testing.assert_allclose(spec.values, np.exp(-0.1 * np.arange(4)))

    def test_spectrum_json_explicit(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "explicit", "values": [1.0, 2.0]}))
        np.testing.assert_array_equal(load_spectrum_json(path).values, [2.0, 1.0])

    def test_spectrum_json_malformed(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("not json at all{")
        with pytest.raises(ConfigError):
            load_spectrum_json(path)
        path.write_text(json.dumps({"rate": 0.1}))
        with pytest.raises(ConfigError):
            load_spectrum_json(path)


def write_file(directory, name, text):
    path = directory / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, error", [
    (lambda tmp: Spectrum(np.array([])), DimensionMismatch),
    (lambda tmp: Spectrum(np.ones((2, 2))), DimensionMismatch),
    (lambda tmp: CovarianceMatrix(np.ones((2, 3))), DimensionMismatch),
    (lambda tmp: CovarianceMatrix([[1.0, math.nan], [math.nan, 1.0]]), ValueError),
    (lambda tmp: model_spectrum("explicit"), ConfigError),
    (lambda tmp: model_spectrum("explicit", 3, values=[2.0, 1.0]), ConfigError),
    (lambda tmp: load_covariance_csv(write_file(tmp, "cov.csv", "\n , \n")), ConfigError),
], ids=["empty-spectrum", "2d-spectrum", "non-square-covariance", "non-finite-covariance",
        "explicit-without-values", "explicit-length-mismatch", "empty-covariance-csv"])
def test_rejects_malformed_input(tmp_path, call, error):
    with pytest.raises(error):
        call(tmp_path)


@pytest.mark.parametrize("doc", [
    {"kind": "exp_decay", "rate": "0.1", "n": 3},
    {"kind": "explicit", "values": "abc"},
    {"kind": "harmonic", "n": True},
    {"kind": "harmonic", "n": 2.0},
], ids=["string-rate", "string-values", "bool-length", "float-length"])
def test_spectrum_json_rejects_what_the_cli_rejects(tmp_path, doc):
    with pytest.raises(ConfigError):
        load_spectrum_json(write_file(tmp_path, "spec.json", json.dumps(doc)))


def test_model_spectrum_takes_numpy_scalars():
    spec = model_spectrum("exp_decay", np.int64(3), rate=np.float32(0.5))
    np.testing.assert_array_equal(spec.values, np.exp(-np.float32(0.5) * np.arange(3.0)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inverse_prefix_past_the_double_range_raises_when_read():
    spectrum = model_spectrum("exp_decay", 7098, rate=0.1)
    assert math.isfinite(spectrum.inverse_trace(7075))
    for count in (7076, 7098, np.array([1, 7098])):
        with pytest.raises(NumericalOverflow, match="eigenvalue 7076 of 7098"):
            spectrum.inverse_trace(count)
    assert math.isfinite(spectrum.log_det(7098))


class TestBreakpointCapacities:
    def test_match_the_sum_by_hand(self):
        # c_k = (1/2) sum_{i<=k} log(lambda_i / lambda_k)
        rng = np.random.default_rng(43)
        spectrum = model_spectrum("explicit", values=np.exp(rng.uniform(-5.0, 5.0, 40)))
        logs = np.log(spectrum.values)
        by_hand = [0.5 * math.fsum(logs[:k + 1] - logs[k]) for k in range(40)]
        np.testing.assert_allclose(spectrum.breakpoint_capacities, by_hand,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("values", [
        [3.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0],
        [1.0 + 1e-15, 1.0 + 5e-16, 1.0, 1.0, 1.0 - 1e-16],
        [5.0],
        "harmonic",
    ], ids=["repeated", "ulp-apart", "single", "harmonic"])
    def test_never_decrease(self, values):
        spectrum = (model_spectrum("harmonic", 20_000) if values == "harmonic"
                    else model_spectrum("explicit", values=values))
        c = spectrum.breakpoint_capacities
        assert c.shape == (len(spectrum),) and c[0] == 0.0
        assert np.all(np.diff(c) >= 0.0) and np.all(np.isfinite(c))
        assert not c.flags.writeable
        repeated = np.flatnonzero(np.diff(spectrum.values) == 0.0)
        assert np.all(c[repeated + 1] == c[repeated])

    def test_computed_once(self):
        spectrum = model_spectrum("harmonic", 10)
        assert spectrum.breakpoint_capacities is spectrum.breakpoint_capacities


def test_log_inverse_trace_stays_finite_past_the_double_range():
    # exp(-0.1 i), i < n: the sum of 1/lambda is (e^{0.1 n} - 1) / (e^{0.1} - 1)
    spectrum = model_spectrum("exp_decay", 7098, rate=0.1)
    counts = np.array([2, 100, 7075, 7076, 7098])
    expected = [0.1 * n + math.log1p(-math.exp(-0.1 * n)) - math.log(math.expm1(0.1))
                for n in counts]
    np.testing.assert_allclose(spectrum.log_inverse_trace(counts), expected,
                               rtol=1e-14, atol=0.0)
    assert spectrum.log_inverse_trace(7075) == math.log(spectrum.inverse_trace(7075))


@pytest.mark.parametrize("build", [
    lambda: Spectrum([2.0, 1.0]),
    lambda: CovarianceMatrix([[2.0, 0.5], [0.5, 1.0]]),
    lambda: Breakpoints([0.0, 0.5]),
    lambda: solve_waterfill(2.5, Spectrum([2.0, 1.0]), 1.0, 2),
    lambda: decompose_covariance(CovarianceMatrix([[2.0, 0.5], [0.5, 1.0]])),
    lambda: WeightMatrix([[1.0, 2.0], [3.0, 4.0]]),
    lambda: linear_channel(WeightMatrix([[1.0, 2.0], [3.0, 4.0]]), [0.0, 1.0], 1.0),
], ids=["Spectrum", "CovarianceMatrix", "Breakpoints", "WaterfillSolution",
        "SpectralDecomposition", "WeightMatrix", "ChannelModel"])
def test_array_holding_values_compare_and_hash_by_identity(build):
    a, twin = build(), build()
    assert a == a
    assert (a == twin) is False and a != twin
    assert hash(a) == hash(a)
    assert len({a, twin, a}) == 2
