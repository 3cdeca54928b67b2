"""Command-line interface: parsing, output formats, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmicap
from mmicap import (ArchitectureSpec, BlockCovariance, Convolutional, CovarianceMatrix,
                    evaluate)
from mmicap.cli import _quantize, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    return json.loads(out)


class TestParsing:
    def test_arch_forms(self, capsys):
        def row(arch, spectrum):
            code, out, _ = run_cli(["mmi", "--arch", arch, "--spectrum", spectrum,
                                    "--F", "2.5"], capsys)
            assert code == 0
            return parse_json(out)["rows"][0]
        assert row("fc:100,50", "harmonic")["bottleneck"] == 50
        # conv:6,3,2 is two repetitions of a 3-input block read by 2 filters
        conv, block = row("conv:6,3,2", "list:3,2,1"), row("fc:3,2", "list:3,2,1")
        assert conv["bottleneck"] == 2
        assert conv["mmi"] == pytest.approx(2.0 * block["mmi"], rel=1e-8)
        assert row("mlp:5,3,7", "list:5,4,3,2,1")["bottleneck"] == 3

    def test_arch_errors(self, capsys):
        for arch in ("fc:100", "rnn:4,4"):
            code, _, err = run_cli(["mmi", "--arch", arch, "--spectrum", "harmonic",
                                    "--F", "1"], capsys)
            assert code == 2 and err.startswith("error: --arch")

    def test_grid(self, capsys):
        code, out, _ = run_cli(["curve", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                                "--F-grid", "0:10:5"], capsys)
        assert code == 0
        np.testing.assert_allclose([row["F"] for row in parse_json(out)["rows"]],
                                   [0.0, 2.5, 5.0, 7.5, 10.0])

    def test_spectrum_list(self, capsys):
        # list: values are sorted descending, so either order gives the same run
        runs = [run_cli(["breakpoints", "--arch", "fc:3,3", "--spectrum", spectrum], capsys)
                for spectrum in ("list:1,3,2", "list:3,2,1")]
        assert runs[0] == runs[1] and runs[0][0] == 0
        assert [row["breakpoint"] for row in parse_json(runs[0][1])["rows"]] == \
            pytest.approx([0.0, 1.0 / 6.0, 7.0 / 6.0], abs=1e-8)

    def test_model_spectrum_needs_dim_for_mlp(self, capsys):
        code, _, err = run_cli(["mmi", "--arch", "mlp:4,2", "--spectrum", "exp:0.1",
                                "--F", "1"], capsys)
        assert code == 2 and "length 'n'" in err


class TestCmdMmi:
    def test_hand_value_json(self, capsys):
        code, out, _ = run_cli(["mmi", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                                "--sigma2", "1", "--F", "2.5"], capsys)
        assert code == 0
        row = parse_json(out)["rows"][0]
        assert row["mmi"] == pytest.approx(1.03972077, abs=1e-8)
        assert row["regime_K"] == 0
        assert row["active_components"] == 2
        assert row["bottleneck"] == 2

    def test_bits_conversion(self, capsys):
        code, out, _ = run_cli(["mmi", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                                "--F", "2.5", "--units", "bits"], capsys)
        assert code == 0
        assert parse_json(out)["rows"][0]["mmi"] == 1.5

    def test_zero_budget(self, capsys):
        code, out, _ = run_cli(["mmi", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                                "--F", "0"], capsys)
        assert code == 0
        assert parse_json(out)["rows"][0]["mmi"] == 0.0

    def test_conv_arch(self, capsys):
        code, out, _ = run_cli(["mmi", "--arch", "conv:4,2,2", "--spectrum", "list:2,1",
                                "--F", "2.5"], capsys)
        assert code == 0
        assert parse_json(out)["rows"][0]["mmi"] == pytest.approx(2.07944154, abs=1e-8)

    def test_floor_below_the_double_range(self, capsys):
        # s / lambda_1 = 1e-330 underflows; the capacity and breakpoints do not
        args = ["--arch", "fc:2,2", "--spectrum", "list:1e30,1", "--sigma2", "1e-300"]
        code, out, _ = run_cli(["mmi", *args, "--F", "1"], capsys)
        assert code == 0
        assert parse_json(out)["rows"][0]["mmi"] == 724.621157
        code, out, _ = run_cli(["breakpoints", *args], capsys)
        assert code == 0
        assert [row["breakpoint"] for row in parse_json(out)["rows"]] == [0.0, 1e-300]

    def test_missing_budget_exits_2(self, capsys):
        code, _, err = run_cli(["mmi", "--arch", "fc:2,2", "--spectrum", "list:2,1"], capsys)
        assert code == 2
        assert "--F" in err


class TestCmdCurve:
    def test_explicit_grid_from_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"F_grid": [0.25, 0.5, 2.5]}))
        code, out, _ = run_cli(["curve", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                                "--config", str(config)], capsys)
        assert code == 0
        rows = parse_json(out)["rows"]
        values = [row["mmi"] for row in rows]
        expected = [0.202732554, 0.5 * math.log(2.0), 1.03972077]
        np.testing.assert_allclose(values, expected, atol=1e-8)

    def test_figure_presets_monotone_from_zero(self, capsys):
        for side in ("left", "right"):
            code, out, _ = run_cli(["curve", "--figure1", side], capsys)
            assert code == 0
            rows = parse_json(out)["rows"]
            assert len(rows) == 400
            nats = [row["mmi"] for row in rows]
            assert rows[0]["F"] == 0.0 and nats[0] == 0.0
            assert all(b >= a for a, b in zip(nats, nats[1:]))
            regimes = [row["regime_K"] for row in rows]
            assert all(b <= a for a, b in zip(regimes, regimes[1:]))

    def test_csv_json_round_trip_bit_identical(self, capsys):
        args = ["curve", "--arch", "fc:4,2", "--spectrum", "exp:0.5",
                "--F-grid", "0:7:40"]
        code, json_out, _ = run_cli(args + ["--out", "json"], capsys)
        assert code == 0
        code, csv_out, _ = run_cli(args + ["--out", "csv"], capsys)
        assert code == 0
        json_rows = parse_json(json_out)["rows"]
        reader = csv.DictReader(io.StringIO(csv_out))
        for json_row, csv_row in zip(json_rows, reader, strict=True):
            assert float(csv_row["F"]) == json_row["F"]
            assert float(csv_row["mmi"]) == json_row["mmi"]
            assert int(csv_row["regime_K"]) == json_row["regime_K"]

    def test_gnuplot_companion(self, tmp_path, capsys):
        script = tmp_path / "curve.gp"
        code, _, _ = run_cli(["curve", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                              "--F-grid", "0:2:5", "--gnuplot", str(script)], capsys)
        assert code == 0
        data = tmp_path / "curve.csv"
        assert script.exists() and data.exists()
        assert str(data) in script.read_text()
        lines = data.read_text().strip().splitlines()
        assert lines[0] == "F,mmi,regime_K,active_components"
        assert len(lines) == 6

    def test_gnuplot_data_stays_beside_a_script_without_suffix(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.d").mkdir()
        code, _, _ = run_cli(["curve", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                              "--F-grid", "0:2:5", "--gnuplot", "out.d/plot"], capsys)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.d"]
        assert sorted(p.name for p in (tmp_path / "out.d").iterdir()) == ["plot", "plot.csv"]
        assert "'out.d/plot.csv'" in (tmp_path / "out.d" / "plot").read_text()

    def test_gnuplot_script_named_like_its_data_exits_2(self, tmp_path, capsys):
        script = tmp_path / "plot.csv"
        code, out, err = run_cli(["curve", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                                  "--F-grid", "0:2:5", "--gnuplot", str(script)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: --gnuplot") and not script.exists()

    def test_gnuplot_directory_exits_2_and_writes_nothing(self, tmp_path, capsys):
        target = tmp_path / "plot"
        target.mkdir()
        code, out, err = run_cli(["curve", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                                  "--F-grid", "0:2:5", "--gnuplot", str(target)], capsys)
        assert code == 2 and out == "" and err.startswith("error:")
        assert [p.name for p in tmp_path.iterdir()] == ["plot"]

    @pytest.mark.parametrize("script_before", [None, "kept\n"], ids=["absent", "present"])
    def test_gnuplot_data_directory_exits_2_and_leaves_the_script(self, tmp_path, capsys,
                                                                  script_before):
        (tmp_path / "plot.csv").mkdir()
        script = tmp_path / "plot.gp"
        if script_before is not None:
            script.write_text(script_before)
        code, out, err = run_cli(["curve", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                                  "--F-grid", "0:2:5", "--gnuplot", str(script)], capsys)
        assert code == 2 and out == "" and err.startswith("error:")
        if script_before is None:
            assert not script.exists()
        else:
            assert script.read_text() == script_before

    def test_grid_required(self, capsys):
        code, _, err = run_cli(["curve", "--arch", "fc:2,2",
                                "--spectrum", "list:2,1"], capsys)
        assert code == 2
        assert "F-grid" in err


class TestCmdBreakpoints:
    def test_two_components(self, capsys):
        code, out, _ = run_cli(["breakpoints", "--arch", "fc:2,2",
                                "--spectrum", "list:2,1", "--out", "csv"], capsys)
        assert code == 0
        assert out.splitlines() == ["k,breakpoint", "1,0", "2,0.5"]

    def test_three_components(self, capsys):
        code, out, _ = run_cli(["breakpoints", "--arch", "fc:3,3",
                                "--spectrum", "list:4,2,1"], capsys)
        rows = parse_json(out)["rows"]
        assert [row["breakpoint"] for row in rows] == [0.0, 0.25, 1.25]
        assert [row["k"] for row in rows] == [1, 2, 3]

    def test_isotropic_zeros(self, capsys):
        code, out, _ = run_cli(["breakpoints", "--arch", "fc:3,3",
                                "--spectrum", "list:1,1,1"], capsys)
        rows = parse_json(out)["rows"]
        assert all(row["breakpoint"] == 0.0 for row in rows)

    def test_bottleneck_truncates(self, capsys):
        code, out, _ = run_cli(["breakpoints", "--arch", "fc:3,2",
                                "--spectrum", "list:4,2,1"], capsys)
        rows = parse_json(out)["rows"]
        assert len(rows) == 2


class TestPinnedOutputBytes:
    """Report bytes that refactors of the closed form must leave unchanged."""

    @pytest.mark.parametrize("args, digest", [
        (["curve", "--figure1", "left", "--out", "csv"],
         "7071648d03176ad4a53f20de1640424100754c927011e0ee07b9cedbf6d60e2f"),
        (["breakpoints", "--arch", "fc:3,3", "--spectrum", "list:4,2,1", "--out", "csv"],
         "461a0e8243e38b757a255c45a94698c072f7c05ddbc47ee698a0980577fc6a5a"),
        (["curve", "--figure1", "right", "--out", "json"],
         "66c90ce7bc821d9c1ccaf95f731db5313b2d1b9f612d971f0832da127a4a6518"),
        (["verify", "--seed", "0"],
         "8f8f43fef98714601c2ee8eceae8cab4de75a83524d8c3cae1ea181fa58ab207"),
    ], ids=["curve-figure1-left", "breakpoints-fc-3-3", "curve-figure1-right", "verify-seed-0"])
    def test_stdout_sha256(self, capsys, args, digest):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_breakpoint_past_the_double_range_exits_2(self, capsys):
        code, out, err = run_cli(["breakpoints", "--arch", "fc:7098,7098",
                                  "--spectrum", "exp:0.1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: breakpoint 7011 of 7098 passes the double range\n"


class TestConfigPrecedence:
    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "architecture": {"family": "fc", "n0": 2, "n1": 2},
            "spectrum": {"kind": "explicit", "values": [2.0, 1.0]},
            "sigma2": 1.0,
            "F": 2.5,
        }))
        code, out, _ = run_cli(["mmi", "--config", str(config)], capsys)
        assert code == 0
        base = parse_json(out)["rows"][0]["mmi"]
        assert base == pytest.approx(1.03972077, abs=1e-8)
        code, out, _ = run_cli(["mmi", "--config", str(config), "--sigma2", "2"], capsys)
        assert code == 0
        assert parse_json(out)["rows"][0]["mmi"] != base

    def test_config_mlp_with_model_spectrum(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "architecture": {"family": "mlp", "widths": [50, 3, 50]},
            "spectrum": {"kind": "exp_decay", "rate": 0.1, "n": 100},
            "F": 4.0,
        }))
        code, out, _ = run_cli(["mmi", "--config", str(config)], capsys)
        assert code == 0
        assert parse_json(out)["rows"][0]["bottleneck"] == 3


class TestFileSources:
    def test_covariance_csv_source(self, tmp_path, capsys):
        path = tmp_path / "cov.csv"
        path.write_text("2.0,0.0\n0.0,1.0\n")
        code, out, _ = run_cli(["mmi", "--arch", "fc:2,2",
                                "--spectrum", f"file:{path}", "--F", "2.5"], capsys)
        assert code == 0
        assert parse_json(out)["rows"][0]["mmi"] == pytest.approx(1.03972077, abs=1e-8)

    def test_spectrum_json_source(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "explicit", "values": [2.0, 1.0]}))
        code, out, _ = run_cli(["mmi", "--arch", "fc:2,2",
                                "--spectrum", f"file:{path}", "--F", "2.5"], capsys)
        assert code == 0
        assert parse_json(out)["rows"][0]["mmi"] == pytest.approx(1.03972077, abs=1e-8)

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cov.csv"
        path.write_text("1.0,zebra\n0.0,1.0\n")
        code, _, err = run_cli(["mmi", "--arch", "fc:2,2",
                                "--spectrum", f"file:{path}", "--F", "1"], capsys)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("name, flag", [("bad.csv", "--spectrum"),
                                            ("bad.json", "--spectrum"),
                                            ("bad.json", "--config")])
    def test_undecodable_file_exits_2_naming_it(self, tmp_path, capsys, name, flag):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe1,2")
        value = f"file:{path}" if flag == "--spectrum" else str(path)
        code, out, err = run_cli(["mmi", "--arch", "fc:2,2", flag, value, "--F", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(path) in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(["mmi", "--arch", "fc:2,2",
                                "--spectrum", "file:/nonexistent.csv", "--F", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["verify", "--config", "{path}"],
        ["mmi", "--arch", "fc:2,2", "--F", "1", "--spectrum", "file:{path}"],
    ], ids=["verify-config", "mmi-spectrum"])
    def test_deeply_nested_json_exits_2_naming_it(self, tmp_path, capsys, args):
        # 5,000 nested arrays pass the decoder's recursion limit in a 10 KB file
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        code, out, err = run_cli([arg.format(path=path) for arg in args], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(path) in err


class TestCmdVerify:
    def test_passes_and_reports(self, capsys):
        code, out, err = run_cli(["verify", "--seed", "0"], capsys)
        assert code == 0
        report = parse_json(out)
        assert report["pass"] is True
        names = [check["name"] for check in report["checks"]]
        assert names == ["achievability", "optimizer-gap", "breakpoint-agreement",
                         "relu-large-bias", "entropy-ordering", "bijective-invariance"]
        assert err.count("PASS") == 6

    def test_corrupted_closed_form_fails(self, capsys):
        code, out, err = run_cli(["verify", "--seed", "0",
                                  "--corrupt-closed-form", "0.1"], capsys)
        assert code == 1
        assert "FAIL achievability" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2_naming_the_seed(self, tmp_path, capsys, source):
        args = (["verify", "--seed", "-1"] if source == "flag"
                else ["verify", "--config", write_config(tmp_path, {"seed": -1})])
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: seed must be")

    @pytest.mark.parametrize("seed", [-1, 1.0, True, "0", None])
    def test_run_verification_rejects_a_seed_that_is_no_count(self, seed):
        from mmicap import ConfigError, run_verification
        with pytest.raises(ConfigError, match="seed"):
            run_verification(seed=seed)

    @pytest.mark.parametrize("offset", ["nan", "inf"])
    def test_non_finite_offset_exits_2_naming_it(self, capsys, offset):
        code, out, err = run_cli(["verify", "--seed", "0", "--corrupt-closed-form", offset],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: mmi_offset must be real and finite")

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf, True, "0.1", None])
    def test_run_verification_rejects_an_offset_that_is_no_finite_number(self, offset):
        from mmicap import ConfigError, run_verification
        with pytest.raises(ConfigError, match="mmi_offset"):
            run_verification(mmi_offset=offset)

    def test_nan_capacity_fails_every_check_that_reads_it(self, monkeypatch):
        from dataclasses import replace

        from mmicap import MCConfig, verify
        real = verify.evaluate
        monkeypatch.setattr(verify, "evaluate",
                            lambda *args: replace(real(*args), nats=math.nan))
        achievability = verify._check_achievability(0, 0.0, instances=3)
        assert achievability["pass"] is False and math.isnan(achievability["max_abs_gap"])
        optimizer = verify._check_optimizer(0, instances=1)
        assert optimizer["pass"] is False and math.isnan(optimizer["max_gap"])
        cov = verify.CovarianceMatrix(np.diag([3.0, 1.5, 0.5]))
        relu = verify.verify_relu_theorem(2.0, cov, 1.0, 2, [2.0, 4.0], MCConfig(200, 200, 1))
        assert relu["pass"] is False

    def test_nan_branch_value_fails_breakpoint_agreement(self, monkeypatch):
        from mmicap import verify
        monkeypatch.setattr(verify, "mmi_formula", lambda *args: math.nan)
        report = verify._check_breakpoint_agreement(0, instances=3)
        assert report["pass"] is False and math.isnan(report["max_abs_gap"])


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mmicap.cli", "mmi", "--arch", "fc:2,2",
             "--spectrum", "list:2,1", "--F", "2.5", "--out", "csv"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("2.5,1.03972077")

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mmicap.cli", "mmi", "--arch", "fc:2,2",
             "--spectrum", "list:2,1", "--F", "1", "--units", "furlongs"],
            capture_output=True, text=True)
        assert proc.returncode == 2


def write_config(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


FC_TWO_ONE = {"architecture": {"family": "fc", "n0": 2, "n1": 2},
              "spectrum": {"kind": "explicit", "values": [2.0, 1.0]}}


class TestConfigChecks:
    @pytest.mark.parametrize("command, fields", [
        ("mmi", {"F": 1.0, "units": "furlongs"}),
        ("mmi", {"F": 1.0, "out": "xml"}),
        ("mmi", {"F": 1.0, "architecture": {"family": "fc", "n0": 2}}),
        ("mmi", {"F": 1.0, "sigma2": "1"}),
        ("curve", {"F_grid": [0.0, float("nan"), 3]}),
        ("curve", {"F_grid": [0.5, float("nan")]}),
    ])
    def test_bad_field_exits_2(self, tmp_path, capsys, command, fields):
        config = write_config(tmp_path, {**FC_TWO_ONE, **fields})
        code, out, err = run_cli([command, "--config", config], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_model_spectrum_length_from_architecture(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "architecture": {"family": "fc", "n0": 4, "n1": 2},
            "spectrum": {"kind": "exp_decay", "rate": 0.5},
            "F": 1.0,
        })
        code, from_config, _ = run_cli(["mmi", "--config", config], capsys)
        assert code == 0
        code, from_flags, _ = run_cli(["mmi", "--arch", "fc:4,2", "--spectrum", "exp:0.5",
                                       "--F", "1"], capsys)
        assert code == 0
        assert from_config == from_flags


class TestNonFinite:
    @pytest.mark.parametrize("args", [
        ["mmi", "--F", "nan"],
        ["mmi", "--F", "inf"],
        ["curve", "--F-grid", "0:nan:3"],
        ["mmi", "--F", "1", "--sigma2", "nan"],
    ])
    def test_rejected_with_exit_2(self, capsys, args):
        code, out, err = run_cli(args[:1] + ["--arch", "fc:2,2", "--spectrum", "list:2,1"]
                                 + args[1:], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_overflowing_capacity_never_printed(self, capsys):
        # (F + s T) / (s m) overflows here, but the capacity itself,
        # 607 ln 10 + ln 5 + (1/2) ln 2 nats, is finite and is printed
        for out in ("json", "csv"):
            code, stdout, err = run_cli(["mmi", "--arch", "fc:2,2", "--spectrum", "list:2,1",
                                         "--F", "1e308", "--sigma2", "1e-300",
                                         "--out", out], capsys)
            assert code == 0 and err == ""
            assert not any(word in stdout.lower() for word in ("inf", "nan"))
            if out == "json":
                assert parse_json(stdout)["rows"][0]["mmi"] == 1399.62516
            else:
                header, row = stdout.strip().splitlines()
                assert float(row.split(",")[header.split(",").index("mmi")]) == 1399.62516

    def test_huge_noise_variance_gives_finite_capacity(self, capsys):
        # s T_m = 3e308 overflows a double; the capacity, about 5e-309 nats, does not
        code, out, err = run_cli(["mmi", "--arch", "fc:3,3", "--spectrum", "list:1,1,1",
                                  "--F", "1", "--sigma2", "1e308"], capsys)
        assert code == 0 and err == ""
        value = parse_json(out)["rows"][0]["mmi"]
        assert math.isfinite(value) and value == pytest.approx(5e-309, rel=1e-6)


class TestOversized:
    @pytest.mark.parametrize("args", [
        ["mmi", "--arch", "fc:1000000000000,2", "--spectrum", "exp:0.1", "--F", "1"],
        ["curve", "--arch", "fc:2,2", "--spectrum", "list:2,1", "--F-grid", "0:1:1000000000"],
        ["mmi", "--arch", "conv:40000000,20000000,2", "--spectrum", "harmonic", "--F", "1"],
    ])
    def test_rejected_before_allocating(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_huge_dims_that_build_nothing_large_still_run(self, capsys):
        code, out, _ = run_cli(["mmi", "--arch", "conv:2000000000000,2,1000000000000",
                                "--spectrum", "list:2,1", "--F", "1"], capsys)
        assert code == 0 and parse_json(out)["rows"][0]["active_components"] == 2


class TestConvBlockSpectrum:
    """A conv run reads the spectrum of one block, built at block_size."""

    @pytest.mark.parametrize("spectrum", ["exp:0.5", "harmonic", "list:3,2,1"])
    def test_model_spectra_decompose_nothing(self, capsys, monkeypatch, spectrum):
        calls = []
        for module in (mmicap.cli, mmicap.mmi):
            original = module.decompose_covariance
            monkeypatch.setattr(module, "decompose_covariance",
                                lambda cov, original=original: calls.append(cov) or original(cov))
        code, out, _ = run_cli(["mmi", "--arch", "conv:6,3,2", "--spectrum", spectrum,
                                "--F", "2.5"], capsys)
        assert code == 0 and parse_json(out)["rows"][0]["bottleneck"] == 2
        assert calls == []

    def test_block_spectrum_has_no_covariance_floor(self, capsys):
        def nats(arch):
            code, out, _ = run_cli(["mmi", "--arch", arch, "--spectrum", "list:1e300,1",
                                    "--F", "1"], capsys)
            assert code == 0
            return parse_json(out)["rows"][0]["mmi"]
        assert nats("conv:4,2,2") == pytest.approx(2.0 * nats("fc:2,2"), rel=0.0, abs=2e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_covariance_csv_matches_the_library_block(self, tmp_path, capsys, seed):
        rng = np.random.default_rng(seed)
        dim, reps = 5, 3
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        entries = (q * np.exp(rng.uniform(-2.0, 2.0, dim))) @ q.T
        path = tmp_path / "cov.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in entries.tolist()))
        block = BlockCovariance(CovarianceMatrix(entries), reps)
        arch = ArchitectureSpec(Convolutional(dim * reps, dim, 4))
        model = ["--arch", f"conv:{dim * reps},{dim},4", "--spectrum", f"file:{path}"]
        code, out, _ = run_cli(["breakpoints", *model], capsys)
        assert code == 0
        expected = _quantize(evaluate(arch, block, 1.0, 0.0).breakpoints.tolist())
        assert [row["breakpoint"] for row in parse_json(out)["rows"]] == expected
        code, out, _ = run_cli(["curve", *model, "--F-grid", "0:20:50"], capsys)
        assert code == 0
        result = evaluate(arch, block, 1.0, np.linspace(0.0, 20.0, 50))
        rows = parse_json(out)["rows"]
        assert [row["mmi"] for row in rows] == _quantize(result.nats.tolist())
        assert [row["regime_K"] for row in rows] == result.regime.tolist()


class TestBreakpointsChecks:
    def test_spectrum_length_mismatch_exits_2(self, capsys):
        code, out, err = run_cli(["breakpoints", "--arch", "fc:3,2",
                                  "--spectrum", "list:2,1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestFlagsPerCommand:
    @pytest.mark.parametrize("args", [
        ["verify", "--seed", "0", "--out", "csv"],
        ["verify", "--seed", "0", "--arch", "fc:2,2"],
        ["breakpoints", "--arch", "fc:2,2", "--spectrum", "list:2,1", "--units", "bits"],
        ["mmi", "--arch", "fc:2,2", "--spectrum", "list:2,1", "--F", "1", "--seed", "1"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "error:" in captured.err

    def test_verify_reads_seed_from_config(self, tmp_path, capsys, monkeypatch):
        seeds = []

        def fake_verification(seed, mmi_offset):
            seeds.append(seed)
            return {"seed": seed, "checks": [], "pass": True}

        monkeypatch.setattr("mmicap.cli.run_verification", fake_verification)
        config = write_config(tmp_path, {**FC_TWO_ONE, "seed": 7, "units": "furlongs"})
        assert run_cli(["verify", "--config", config], capsys)[0] == 0
        assert run_cli(["verify", "--config", config, "--seed", "3"], capsys)[0] == 0
        assert seeds == [7, 3]

    @pytest.mark.parametrize("command, fields", [
        ("breakpoints", {"units": "furlongs", "F": "x", "F_grid": "x"}),
        ("mmi", {"F": 1.0, "F_grid": "x"}),
        ("curve", {"F_grid": [0.0, 1.0, 2], "F": "x"}),
    ])
    def test_config_entries_the_command_does_not_read_are_ignored(self, tmp_path, capsys,
                                                                   command, fields):
        config = write_config(tmp_path, {**FC_TWO_ONE, **fields})
        code, out, err = run_cli([command, "--config", config], capsys)
        assert code == 0 and err == ""
        assert parse_json(out)["command"] == command

    def test_config_activation_entry_is_ignored(self, tmp_path, capsys):
        doc = {**FC_TWO_ONE, "F": 2.5}
        code, plain, _ = run_cli(["mmi", "--config", write_config(tmp_path, doc)], capsys)
        assert code == 0
        tagged = {**doc, "architecture": {**doc["architecture"], "activation": "swish"}}
        code, out, err = run_cli(["mmi", "--config", write_config(tmp_path, tagged)], capsys)
        assert code == 0 and err == "" and out == plain


class TestInputErrors:
    @pytest.mark.parametrize("n0, code", [(7098, 0), (7099, 2), (7500, 2)])
    def test_exp_spectrum_length_limit(self, capsys, n0, code):
        # exp(-0.1 (n - 1)) has a finite reciprocal while 0.1 (n - 1) <= ln(max double)
        result, out, err = run_cli(["mmi", "--arch", f"fc:{n0},2", "--spectrum", "exp:0.1",
                                    "--F", "1"], capsys)
        assert result == code
        if code == 0:
            assert parse_json(out)["rows"][0]["active_components"] == 2
        else:
            assert err.startswith("error:") and f"eigenvalue 7099 of {n0}" in err

    @pytest.mark.parametrize("args, code, text", [
        (["mmi", "--arch", "fc:7098,2", "--F", "1"], 0, '"active_components": 2'),
        (["mmi", "--arch", "fc:7098,7098", "--F", "1"], 0, '"mmi": 0.400057181'),
        (["breakpoints", "--arch", "fc:7098,7098"], 2, "breakpoint 7011 of 7098"),
        (["breakpoints", "--arch", "fc:7098,7098", "--out", "csv"], 2,
         "breakpoint 7011 of 7098"),
        # log T = 0.1 n + log1p(-e^{-0.1 n}) - log(expm1(0.1)) gives 1266963.684 nats
        (["mmi", "--arch", "fc:7098,7098", "--sigma2", "1e-10", "--F", "1e303"], 0,
         '"mmi": 1266963.68,'),
    ], ids=["fc-narrow", "fc-wide", "breakpoints-json", "breakpoints-csv", "prefix"])
    def test_long_exp_spectrum_overflow_is_typed_not_warned(self, capsys, args, code, text):
        # the 1/lambda prefix and the breakpoints of exp:0.1 at n = 7098 pass the
        # double range near the tail: the capacity reads the prefix only through
        # its log and answers, the breakpoint table exits 2 naming the first
        # component past it
        result, out, err = run_cli(args + ["--spectrum", "exp:0.1"], capsys)
        assert result == code
        if code == 0:
            assert text in out
        else:
            assert out == "" and err.startswith("error:") and text in err

    def test_rate_past_the_double_range_prints_one_error_line(self):
        # -rate * i overflows to -inf: the zero eigenvalue is reported, with no
        # numpy warning before it
        proc = subprocess.run(
            [sys.executable, "-m", "mmicap.cli", "curve", "--arch", "fc:3,3",
             "--spectrum", "exp:1e308", "--F-grid", "0:1:2"], capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: eigenvalue 2 of 3 is 0")

    @pytest.mark.parametrize("source", ["csv", "config"])
    def test_conv_block_of_the_wrong_size_exits_2(self, tmp_path, capsys, source):
        csv_path = tmp_path / "cov.csv"
        csv_path.write_text("2.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,0.5\n")
        spectrum = ({"covariance_csv": str(csv_path)} if source == "csv"
                    else {"kind": "harmonic", "n": 3})
        config = write_config(tmp_path, {
            "architecture": {"family": "conv", "n0": 4, "block": 2, "filters": 2},
            "spectrum": spectrum, "F": 1.0})
        code, out, err = run_cli(["mmi", "--config", config], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("spectrum, config", [
        ("list:2,1", "missing"),
        ("list:2,1", [1, 2]),
        ("list:a", None),
    ], ids=["missing-config", "non-object-config", "non-numeric-list"])
    def test_unusable_input_exits_2(self, tmp_path, capsys, spectrum, config):
        args = ["mmi", "--arch", "fc:2,2", "--spectrum", spectrum, "--F", "1"]
        if config == "missing":
            args += ["--config", str(tmp_path / "missing.json")]
        elif config is not None:
            args += ["--config", write_config(tmp_path, config)]
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")


# Fuzzing main(): command lines and config files mixing valid and invalid
# fragments; a flag value comes from its valid pool three times in four.  Every
# dimension and grid size is either tiny or far beyond the CLI's size bound, so
# no accepted draw can ask for a large allocation.
def valid_or_not(valid, invalid):
    return st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(invalid))


NUMBER_TEXT = valid_or_not(["0", "1", "2.5", "1e-3"], ["-1", "1e-300", "1e308", "nan", "inf", "x"])
ARCH_TEXT = st.sampled_from(["fc:2,2", "fc:3,2", "fc:2", "fc:0,2", "fc:a,2", "conv:4,2,2",
                             "conv:6,3,2", "conv:5,2,1", "mlp:3,1", "mlp:", "rnn:2,2",
                             "fc:1000000000000,2", "fc:2,1000000000000",
                             "conv:2000000000000,20000000,2", "conv:2000000000000,2,2",
                             "mlp:1000000000000,2"])
SPECTRUM_TEXT = st.sampled_from(["list:2,1", "list:3,2,1", "list:1,1e-310", "list:nan,1",
                                 "list:0,1", "list:", "exp:0.5", "exp:nan", "exp:-1", "exp:",
                                 "exp:1e308",
                                 "harmonic", "file:{dir}/spec.json", "file:{dir}/cov.csv",
                                 "file:/nonexistent.csv", "bogus:1"])
MODEL_FLAGS = st.one_of(
    st.sampled_from([("fc:2,2", "list:2,1"), ("fc:3,2", "exp:0.5"), ("conv:4,2,2", "harmonic"),
                     ("mlp:3,1", "list:3,2,1"), ("fc:2,2", "file:{dir}/cov.csv"),
                     ("conv:4,2,2", "file:{dir}/cov.csv"), ("fc:2,2", "file:{dir}/spec.json")]),
    st.tuples(ARCH_TEXT, SPECTRUM_TEXT))
GRID_TEXT = st.one_of(
    st.builds(lambda lo, hi, n: f"{lo}:{hi}:{n}", NUMBER_TEXT, NUMBER_TEXT,
              valid_or_not(["1", "3"], ["0", "-2", "x", "1000000000"])),
    st.sampled_from(["0:1", "::", ""]))
SMALL_INT = st.integers(-1, 6)
DIM = st.one_of(SMALL_INT, st.sampled_from([10**9, 10**12]))
JSON_VALUE = st.one_of(st.none(), st.booleans(), DIM, st.floats(), st.text(max_size=3),
                       st.lists(st.one_of(DIM, st.floats()), max_size=4))
ARCH_DOC = st.fixed_dictionaries({"family": st.sampled_from(["fc", "conv", "mlp", "rnn"])},
                                 optional={"n0": DIM, "n1": DIM,
                                           "block": DIM, "filters": DIM,
                                           "widths": st.lists(DIM, max_size=3),
                                           "activation": st.sampled_from(["relu", "swish"])})
SPECTRUM_DOC = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["exp_decay", "harmonic", "explicit", "zipf"]),
    "rate": JSON_VALUE, "n": JSON_VALUE, "values": JSON_VALUE,
    "covariance_csv": st.sampled_from(["{dir}/cov.csv", "/nonexistent.csv"])})
CONFIG_DOC = st.fixed_dictionaries({}, optional={
    "architecture": st.one_of(ARCH_DOC, JSON_VALUE),
    "spectrum": st.one_of(SPECTRUM_DOC, JSON_VALUE),
    "F": JSON_VALUE, "F_grid": JSON_VALUE, "sigma2": JSON_VALUE,
    "units": st.one_of(st.sampled_from(["nats", "bits", "furlongs"]), JSON_VALUE),
    "out": st.one_of(st.sampled_from(["csv", "json", "xml"]), JSON_VALUE),
    "seed": JSON_VALUE})
NON_FINITE_OUTPUT = re.compile(r"NaN|Infinity|\bnan\b|\binf\b")


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["mmi", "curve", "breakpoints"]))
    flags = [("--sigma2", NUMBER_TEXT),
             ("--units", st.sampled_from(["nats", "bits"])),
             ("--out", st.sampled_from(["csv", "json"]))]
    if command == "mmi":
        flags.append(("--F", NUMBER_TEXT))
    if command == "curve":
        flags += [("--F-grid", GRID_TEXT), ("--figure1", st.sampled_from(["left", "right"]))]
    argv = [command]
    if draw(st.integers(0, 3)):
        arch, spectrum = draw(MODEL_FLAGS)
        argv += ["--arch", arch, "--spectrum", spectrum]
    for flag, values in flags:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv, draw(st.one_of(st.none(), st.none(), CONFIG_DOC))


class TestFuzzMain:
    @settings(max_examples=150, deadline=None)
    @given(command_lines(), SPECTRUM_DOC)
    def test_exit_code_and_finite_output(self, case, spectrum_doc):
        argv, config = case
        with tempfile.TemporaryDirectory() as tmp:
            # "{dir}" in a drawn value names this example's directory.
            files = {"spec.json": json.dumps(spectrum_doc), "cov.csv": "2.0,0.5\n0.5,1.0\n",
                     "run.json": json.dumps(config)}
            for name, text in files.items():
                with open(os.path.join(tmp, name), "w") as fh:
                    fh.write(text.replace("{dir}", tmp))
            argv = [arg.replace("{dir}", tmp) for arg in argv]
            if config is not None:
                argv += ["--config", os.path.join(tmp, "run.json")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 2), (argv, config, err.getvalue())
        if code == 0:
            assert not NON_FINITE_OUTPUT.search(out.getvalue()), (argv, config)
        else:
            assert "error:" in err.getvalue(), (argv, config)
