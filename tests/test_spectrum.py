"""Spectrum and covariance handling: eigendecomposition, models, loaders."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmicap import (
    BlockCovariance,
    ConfigError,
    CovarianceMatrix,
    IndexOutOfRange,
    NonPositiveEigenvalue,
    NotPositiveDefinite,
    NotSymmetric,
    Spectrum,
    decompose_covariance,
    eigvals_from_covariance,
    load_covariance_csv,
    load_spectrum_json,
    model_spectrum,
)


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
