"""The benchmark's checks pass on the program as it is and catch a wrong output."""

import dataclasses
import time

import pytest

import mmicap
import mmicap.mmi
import run
import speed
import tracer as tracing
import workloads


def _one_round(name, seed=0):
    workload = workloads.build(name, seed, run.ROOT)
    result = run.Run()
    result.execute(workload.make_round(0))
    return result


def test_closed_form_round_passes():
    result = _one_round("closed-form")
    assert result.attempted == 10
    assert result.failed == 0 and result.correct, result.problems


def test_closed_form_catches_a_1e_6_nat_error(monkeypatch):
    original = mmicap.mmi.evaluate

    def off_by_a_micronat(*args, **kwargs):
        out = original(*args, **kwargs)
        return dataclasses.replace(out, nats=out.nats + 1e-6)

    monkeypatch.setattr(mmicap.mmi, "evaluate", off_by_a_micronat)
    result = _one_round("closed-form")
    assert result.attempted == 10
    assert result.failed == result.attempted
    assert not result.correct


def test_cli_verify_catches_a_corrupted_closed_form(monkeypatch):
    original = workloads.CliRunner.__call__

    def corrupt_verify(self, argv, threads):
        if argv[0] == "verify":
            argv = [*argv, "--corrupt-closed-form", "1e-6"]
        return original(self, argv, threads)

    monkeypatch.setattr(workloads.CliRunner, "__call__", corrupt_verify)
    result = _one_round("cli")
    failed_kinds = sorted(p.split(":")[0] for p in result.problems)
    assert failed_kinds == ["verify", "verify"], result.problems
    assert result.failed == 2 and not result.correct


def test_a_check_that_cannot_read_the_output_fails_the_operation():
    def unreadable(out):
        raise KeyError("rows")

    result = run.Run()
    result.execute([workloads.Op("mmi", lambda: {}, unreadable),
                    workloads.Op("mmi", lambda: {}, lambda out: None)])
    assert result.attempted == 2 and result.failed == 1 and not result.correct
    assert result.problems == ["mmi: KeyError: 'rows'"]


@pytest.mark.parametrize("name", ["oracle", "cli"])
def test_other_rounds_pass(name):
    result = _one_round(name)
    assert result.failed == 0 and result.correct, result.problems


def test_tracer_records_nested_spans_and_restores_functions():
    original = mmicap.mmi.evaluate
    tracer = tracing.Tracer()
    run.instrument(tracer)
    try:
        assert mmicap.mmi.evaluate is not original
        spectrum = mmicap.Spectrum([2.0, 1.0])
        arch = mmicap.ArchitectureSpec(mmicap.FullyConnected(2, 2))
        mmicap.invert_mmi(arch, spectrum, 1.0, 1.0397207708399179)
    finally:
        tracer.uninstall()
    assert mmicap.mmi.evaluate is original and mmicap.evaluate is original
    summary = tracer.summary()
    assert summary["mmi.invert"]["calls"] == 1
    assert summary["mmi.evaluate"]["calls"] == tracer.counts["mmi.invert.evaluations"]
    assert summary["waterfill.breakpoints"]["calls"] == summary["mmi.evaluate"]["calls"]
    invert = next(s for s in tracer.spans if s.name == "mmi.invert")
    assert all(s.parent == invert.index for s in tracer.spans if s.name == "mmi.evaluate")
    total = invert.end - invert.start
    assert 0.0 <= summary["mmi.invert"]["self_s"] <= total


def test_scaling_uses_the_median_of_the_probes_around_an_operation():
    probe = speed.SpeedProbe()
    probe.samples = [0.036, 0.036, 0.009, 0.036, 0.036, 0.036]
    assert probe.scale(2) == pytest.approx(speed.REFERENCE_S / 0.036)
    probe.latest = lambda: 1
    result = run.Run(probe)
    result.execute([workloads.Op("mmi", lambda: time.sleep(0.01), lambda out: None)])
    [(_, _, measured)] = result.latencies(scaled=False)
    [(_, _, scaled)] = result.latencies()
    assert measured >= 0.01
    assert scaled == pytest.approx(measured * speed.REFERENCE_S / 0.036)
