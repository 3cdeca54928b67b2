"""Spectrum and covariance handling: eigendecomposition, models, loaders."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmicap import (
    ArchitectureSpec,
    BlockCovariance,
    ConfigError,
    CovarianceMatrix,
    DimensionMismatch,
    FullyConnected,
    IndexOutOfRange,
    NegativeBudget,
    NonPositiveEigenvalue,
    NotPositiveDefinite,
    NotSymmetric,
    Spectrum,
    WeightMatrix,
    breakpoints,
    decompose_covariance,
    evaluate,
    linear_channel,
    load_covariance_csv,
    model_spectrum,
    sample_gaussian_inputs,
    solve_waterfill,
)
from mmicap.cli import main
from mmicap.waterfill import _waterfill_state


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
        spec = decompose_covariance(CovarianceMatrix(np.eye(3))).spectrum
        np.testing.assert_array_equal(spec.values, [1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        spec = decompose_covariance(CovarianceMatrix(np.diag([1.0, 2.0]))).spectrum
        np.testing.assert_allclose(spec.values, [2.0, 1.0], rtol=0, atol=1e-14)

    def test_eigenvalue_product_matches_lu_determinant(self):
        rng = np.random.default_rng(42)
        cov = random_spd(rng, 5)
        spec = decompose_covariance(cov).spectrum
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
            decompose_covariance(rotated).spectrum.values,
            decompose_covariance(cov).spectrum.values,
            rtol=1e-8, atol=1e-10,
        )

    def test_trace_consistency(self):
        rng = np.random.default_rng(11)
        for dim in (1, 3, 8):
            cov = random_spd(rng, dim)
            trace = float(np.trace(cov.entries))
            total = float(np.sum(decompose_covariance(cov).spectrum.values))
            assert abs(total - trace) <= 1e-8 * abs(trace)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            CovarianceMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            decompose_covariance(CovarianceMatrix(np.diag([1.0, 0.0]))).spectrum

    def test_near_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            decompose_covariance(CovarianceMatrix(np.diag([1.0, 1e-14]))).spectrum

    def test_error_names_the_relative_floor(self):
        # the spectrum list:1e300,1 is a valid Spectrum but not a covariance
        with pytest.raises(NotPositiveDefinite, match=re.escape(
                "smallest eigenvalue 1.000000e+00 is at or below RELATIVE_PD_FLOOR (1e-12) "
                "times the largest, 1.000000e+300")):
            decompose_covariance(CovarianceMatrix(np.diag([1e300, 1.0])))


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
        assert decompose_covariance(cov).spectrum is first.spectrum and len(calls) == 1
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

    def test_covariance_csv_not_utf8(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe1,2")
        with pytest.raises(ConfigError) as info:
            load_covariance_csv(path)
        assert str(path) in str(info.value)

    # Spectrum documents are read by ``mmicap ... --spectrum file:X.json``.
    def test_spectrum_json_model(self, tmp_path, capsys):
        doc = {"kind": "exp_decay", "rate": 0.1, "n": 4}
        code, out, _ = run_json_spectrum(tmp_path, capsys, json.dumps(doc), "fc:4,4")
        expected = evaluate(ArchitectureSpec(FullyConnected(4, 4)),
                            Spectrum(np.exp(-0.1 * np.arange(4))), 1.0, 2.5).nats
        assert code == 0
        assert json.loads(out)["rows"][0]["mmi"] == pytest.approx(expected, rel=1e-8)

    def test_spectrum_json_explicit(self, tmp_path, capsys):
        doc = {"kind": "explicit", "values": [1.0, 2.0]}
        code, out, _ = run_json_spectrum(tmp_path, capsys, json.dumps(doc), "fc:2,2")
        expected = evaluate(ArchitectureSpec(FullyConnected(2, 2)), Spectrum([2.0, 1.0]),
                            1.0, 2.5).nats
        assert code == 0
        assert json.loads(out)["rows"][0]["mmi"] == pytest.approx(expected, rel=1e-8)

    def test_spectrum_json_malformed(self, tmp_path, capsys):
        for text in ("not json at all{", json.dumps({"rate": 0.1})):
            code, out, err = run_json_spectrum(tmp_path, capsys, text, "fc:2,2")
            assert code == 2 and out == "" and err.startswith("error:")


def write_file(directory, name, text):
    path = directory / name
    path.write_text(text)
    return path


def run_json_spectrum(directory, capsys, text, arch):
    """``mmicap mmi --F 2.5`` on ``text`` as a ``file:X.json`` spectrum: the exit
    code, stdout and stderr."""
    path = write_file(directory, "spec.json", text)
    code = main(["mmi", "--arch", arch, "--spectrum", f"file:{path}", "--F", "2.5"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("call, error", [
    (lambda tmp: Spectrum(np.array([])), DimensionMismatch),
    (lambda tmp: Spectrum(np.ones((2, 2))), DimensionMismatch),
    (lambda tmp: CovarianceMatrix(np.ones((2, 3))), DimensionMismatch),
    (lambda tmp: CovarianceMatrix([[1.0, math.nan], [math.nan, 1.0]]), ValueError),
    (lambda tmp: model_spectrum("explicit"), ConfigError),
    (lambda tmp: model_spectrum("explicit", 3, values=[2.0, 1.0]), ConfigError),
    (lambda tmp: load_covariance_csv(write_file(tmp, "cov.csv", "\n , \n")), ConfigError),
    (lambda tmp: CovarianceMatrix([[1.0, math.inf], [math.inf, 1.0]]), ConfigError),
    (lambda tmp: Spectrum(np.array([1.0, 2.0])), ConfigError),
    (lambda tmp: model_spectrum("harmonic", 2.0), ConfigError),
    (lambda tmp: model_spectrum("harmonic", np.True_), ConfigError),
    (lambda tmp: model_spectrum("exp_decay", 3, rate=math.nan), ConfigError),
    (lambda tmp: BlockCovariance(CovarianceMatrix(np.eye(2)), 2.0), DimensionMismatch),
    (lambda tmp: BlockCovariance(CovarianceMatrix(np.eye(2)), True), DimensionMismatch),
    (lambda tmp: breakpoints(model_spectrum("harmonic", 2), math.nan, 2), ConfigError),
    (lambda tmp: breakpoints(model_spectrum("harmonic", 2), math.inf, 2), ConfigError),
    (lambda tmp: breakpoints(model_spectrum("harmonic", 2), "1", 2), ConfigError),
    (lambda tmp: breakpoints(model_spectrum("harmonic", 2), 1.0, 1.5), IndexOutOfRange),
    (lambda tmp: solve_waterfill(math.inf, model_spectrum("harmonic", 2), 1.0, 2),
     NegativeBudget),
    (lambda tmp: sample_gaussian_inputs(CovarianceMatrix(np.eye(2)), 2.5, 0), ConfigError),
    (lambda tmp: model_spectrum("explicit", values=["2", "1"]), ConfigError),
    (lambda tmp: model_spectrum("explicit", values=[True, 2.0]), ConfigError),
    (lambda tmp: model_spectrum("explicit", values=np.array([True, False])), ConfigError),
    (lambda tmp: model_spectrum("explicit", values=[2.0, math.nan]), ConfigError),
    (lambda tmp: model_spectrum("explicit", values=[10**400, 1]), ConfigError),
    (lambda tmp: CovarianceMatrix([["1", "0"], ["0", "1"]]), ConfigError),
    (lambda tmp: Spectrum(["2", "1"]), ConfigError),
    (lambda tmp: Spectrum([True, 0.5]), ConfigError),
    (lambda tmp: Spectrum(np.array([True, False])), ConfigError),
    (lambda tmp: Spectrum([2.0, math.nan]), NonPositiveEigenvalue),
    (lambda tmp: Spectrum([2.0, -1.0]), NonPositiveEigenvalue),
], ids=["empty-spectrum", "2d-spectrum", "non-square-covariance", "non-finite-covariance",
        "explicit-without-values", "explicit-length-mismatch", "empty-covariance-csv",
        "infinite-covariance", "ascending-spectrum", "float-length", "numpy-bool-length",
        "nan-rate", "float-repetitions", "bool-repetitions", "nan-noise", "inf-noise",
        "string-noise", "float-component-count", "inf-budget", "float-sample-count",
        "string-values", "bool-values", "bool-array-values", "nan-values", "huge-int-values",
        "string-covariance", "spectrum-string-values", "spectrum-bool-values",
        "spectrum-bool-array", "spectrum-nan-value", "spectrum-negative-value"])
def test_rejects_malformed_input(tmp_path, call, error):
    with pytest.raises(error):
        call(tmp_path)


@pytest.mark.parametrize("values, n", [(2.0, None), (2.0, 1), (np.float64(2.0), None),
                                       ([[2.0, 1.0]], None), ([[2.0, 1.0]], 2)],
                         ids=["number", "number-with-n", "numpy-number", "matrix",
                              "matrix-with-n"])
def test_explicit_values_must_be_one_dimensional(values, n):
    # the type Spectrum(2.0) raises, not a numpy error from sorting
    with pytest.raises(DimensionMismatch, match="1-D"):
        model_spectrum("explicit", n, values=values)


def test_exp_decay_rate_past_the_double_range_warns_nothing():
    # -rate * i overflows to -inf from i = 1 on, and exp gives the zero eigenvalue
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveEigenvalue, match="eigenvalue 2 of 3 is 0"):
            model_spectrum("exp_decay", 3, rate=1e308)


@pytest.mark.parametrize("doc", [
    {"kind": "exp_decay", "rate": "0.1", "n": 3},
    {"kind": "explicit", "values": "abc"},
    {"kind": "harmonic", "n": True},
    {"kind": "harmonic", "n": 2.0},
    {"kind": "explicit", "values": ["2", "1"]},
    {"kind": "explicit", "values": [True, 2.0]},
], ids=["string-rate", "string-values", "bool-length", "float-length", "string-list-values",
        "bool-list-values"])
def test_spectrum_json_rejects_what_the_cli_rejects(tmp_path, capsys, doc):
    code, out, err = run_json_spectrum(tmp_path, capsys, json.dumps(doc), "fc:2,2")
    assert code == 2 and out == "" and err.startswith("error: spectrum.")


def test_model_spectrum_takes_numpy_scalars():
    spec = model_spectrum("exp_decay", np.int64(3), rate=np.float32(0.5))
    np.testing.assert_array_equal(spec.values, np.exp(-np.float32(0.5) * np.arange(3.0)))


def capacities(spectrum, noise_var=1.0, n_tilde=None):
    """The breakpoint capacities held on ``spectrum`` with the water-filling entry."""
    return _waterfill_state(spectrum, noise_var, n_tilde or len(spectrum))[1]


class TestBreakpointCapacities:
    def test_match_the_sum_by_hand(self):
        # c_k = (1/2) sum_{i<=k} log(lambda_i / lambda_k)
        rng = np.random.default_rng(43)
        spectrum = model_spectrum("explicit", values=np.exp(rng.uniform(-5.0, 5.0, 40)))
        logs = np.log(spectrum.values)
        by_hand = [0.5 * math.fsum(logs[:k + 1] - logs[k]) for k in range(40)]
        np.testing.assert_allclose(capacities(spectrum), by_hand,
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
        c = capacities(spectrum)
        assert c.shape == (len(spectrum),) and c[0] == 0.0
        assert np.all(np.diff(c) >= 0.0) and np.all(np.isfinite(c))
        assert not c.flags.writeable
        repeated = np.flatnonzero(np.diff(spectrum.values) == 0.0)
        assert np.all(c[repeated + 1] == c[repeated])

    def test_computed_once(self):
        spectrum = model_spectrum("harmonic", 10)
        assert capacities(spectrum) is capacities(spectrum, 2.0, 4)


def test_capacity_stays_finite_past_the_double_range():
    # exp(-0.1 i), i < 7098: the sum of 1 / lambda over the leading k entries
    # passes the double range at k = 7076, and these budgets reach regimes past it
    spectrum = model_spectrum("exp_decay", 7098, rate=0.1)
    arch = ArchitectureSpec(FullyConnected(7098, 7098))
    bp = breakpoints(spectrum, 1e-10, 7098)
    budgets = [1.0, bp[7075], bp[7076], 1e303]
    result = evaluate(arch, spectrum, 1e-10, budgets)
    assert np.all(np.isfinite(result.nats)) and np.all(np.diff(result.nats) > 0.0)
    assert result.active_components.tolist()[1:] == [7076, 7077, 7098]
    assert result.nats[-1] == pytest.approx(1266963.684088916, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("build", [
    lambda: Spectrum([2.0, 1.0]),
    lambda: CovarianceMatrix([[2.0, 0.5], [0.5, 1.0]]),
    lambda: decompose_covariance(CovarianceMatrix([[2.0, 0.5], [0.5, 1.0]])),
    lambda: WeightMatrix([[1.0, 2.0], [3.0, 4.0]]),
    lambda: linear_channel(WeightMatrix([[1.0, 2.0], [3.0, 4.0]]), [0.0, 1.0], 1.0),
], ids=["Spectrum", "CovarianceMatrix", "SpectralDecomposition", "WeightMatrix",
        "ChannelModel"])
def test_array_holding_values_compare_and_hash_by_identity(build):
    a, twin = build(), build()
    assert a == a
    assert (a == twin) is False and a != twin
    assert hash(a) == hash(a)
    assert len({a, twin, a}) == 2
