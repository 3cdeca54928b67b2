"""The four benchmark workloads and the checks on every operation's output.

A workload is built once from the run seed (its fixed inputs: spectra,
covariances, argument lists), then hands out rounds of operations.  Every
round holds the same operations in the same order; round ``r`` draws its
budgets, targets and Monte-Carlo seeds from ``(seed, r)``, so a run repeats
no call verbatim and the same seed always gives the same inputs.

Each operation carries a timed call into mmicap and a check made apart from
it: against ``reference`` (which never calls mmicap) or against a property
the method must have.  A check never compares with stored program output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

import mmicap
import mmicap.cli

#: Absolute tolerance on capacity values, plus a relative share for the long
#: float sums of wide spectra (a few thousand log terms of order 1-10).
NATS_ATOL = 1e-9
NATS_RTOL = 1e-12

#: Bisection-reference points checked per wide-spectrum sweep; every point of
#: every sweep is still checked against the curve properties.
WIDE_CHECK_POINTS = 8

#: Monte-Carlo sample size of ROADMAP criterion 8.
MC_SAMPLES = 20_000

#: An MC estimate passes when estimate - exact lies in
#: [-MC_SE_MULTIPLE * se, MC_SE_MULTIPLE * se + MC_BIAS_ALLOWANCE].  The
#: plug-in entropy overestimates by Jensen's inequality, so the bias side is
#: one-sided.
MC_SE_MULTIPLE = 5.0
MC_BIAS_ALLOWANCE = 0.02

#: Optimizer results may exceed the capacity by at most this (soundness) and
#: must come within OPTIMIZER_GAP of it.
OPTIMIZER_SLACK = 1e-9
OPTIMIZER_GAP = 1e-4

#: Iteration cap of the optimizer runs.  Converged runs need 20-160
#: iterations on these instances; about one dense run in ten and one conv run
#: in four stalls with its projected gradient just above the 1e-8 tolerance
#: and spins to the cap, 1e-12 from capacity.  The library default of 5000
#: makes a stall cost 100x a converged run, far too uneven a cost for a
#: steady figure; at 300 it still costs several converged runs.
OPTIMIZER_MAX_ITERS = 300

#: Seed of every ``mmicap verify`` process of the cli workload, the one the
#: ROADMAP times it with, whatever the run seed: verify's cost depends on its
#: seed (its optimizer check stalls on some, 1.0 s against 2.0 s for the
#: report), which would make the figure measure the seed rather than the code.
VERIFY_SEED = 0


class CheckFailed(Exception):
    """An operation's output disagreed with its reference or property."""


@dataclass
class Op:
    """One timed call into mmicap and the check on what it returned.

    ``kind`` groups operations for per-kind figures; ``points`` counts the
    budget-grid points a sweep evaluates and ``pairs`` the nominal mixture
    pairs (points x centres) of its density evaluations.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    points: int = 0
    pairs: int = 0


@dataclass
class Workload:
    make_round: Callable[[int], list[Op]]
    #: Run in-process instead of as child processes (cli workload only).
    set_in_process: Callable[[bool], None] | None = None


def _close(value: float, expected: float, what: str) -> None:
    tol = NATS_ATOL + NATS_RTOL * abs(expected)
    if not abs(value - expected) <= tol:
        raise CheckFailed(f"{what}: got {value!r}, reference {expected!r}, "
                          f"off by {value - expected:.3e} > {tol:.1e}")


def _rotated_cov(rng: np.random.Generator, eigenvalues) -> np.ndarray:
    lam = np.asarray(eigenvalues, dtype=np.float64)
    basis, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    cov = basis @ np.diag(lam) @ basis.T
    return 0.5 * (cov + cov.T)


def _log_uniform(rng: np.random.Generator, size: int, lo: float, hi: float) -> np.ndarray:
    return np.sort(np.exp(rng.uniform(lo, hi, size=size)))[::-1]


def _separated(rng: np.random.Generator, size: int) -> np.ndarray:
    """Eigenvalues about a factor e^0.6 apart, at a random overall scale."""
    return np.exp(-0.6 * np.arange(size) + rng.uniform(-0.1, 0.1, size)
                  + rng.uniform(-0.7, 0.7))


def _last_breakpoint(eigenvalues, noise_var: float, n_tilde: int) -> float:
    """Budget scale of a sweep: where the last usable component enters."""
    floors = noise_var / np.sort(eigenvalues)[::-1][:n_tilde]
    return float(np.sum(floors[-1] - floors))


# ----------------------------------------------------------------------------
# closed-form


@dataclass
class _Family:
    label: str
    arch: object
    source: object
    noise_var: float
    reference: Callable[[np.ndarray], np.ndarray]
    budget_scale: float
    wide: bool = False


def _curve_check(family: _Family, grid: np.ndarray, rng_seed) -> Callable:
    def check(points) -> None:
        budgets = np.array([b for b, _ in points])
        values = np.array([r.nats for _, r in points])
        if budgets.shape != grid.shape or not np.array_equal(budgets, grid):
            raise CheckFailed(f"{family.label}: curve budgets differ from the grid")
        if values[0] != 0.0:
            raise CheckFailed(f"{family.label}: curve starts at {values[0]!r}, not 0")
        slack = NATS_ATOL + NATS_RTOL * np.abs(values[1:])
        if np.any(np.diff(values) < -slack):
            raise CheckFailed(f"{family.label}: curve decreases")
        if np.any(values[2:] - 2.0 * values[1:-1] + values[:-2] > 4.0 * slack[1:]):
            raise CheckFailed(f"{family.label}: curve is not concave")
        if family.wide:
            pick = np.random.default_rng(rng_seed).choice(
                grid.size - 2, WIDE_CHECK_POINTS - 2, replace=False) + 1
            idx = np.concatenate(([0, grid.size - 1], np.sort(pick)))
        else:
            idx = np.arange(grid.size)
        expected = family.reference(grid[idx])
        for i, e in zip(idx, expected):
            _close(values[i], e, f"{family.label} capacity at F={grid[i]!r}")
    return check


def _invert_check(family: _Family, target: float) -> Callable:
    def check(budget) -> None:
        budget = float(budget)
        if not budget >= 0.0:
            raise CheckFailed(f"{family.label}: inverted budget {budget!r} is negative")
        reached = mmicap.evaluate(family.arch, family.source, family.noise_var, budget).nats
        if not abs(reached - target) <= 1e-9:
            raise CheckFailed(f"{family.label}: evaluate(invert({target!r})) = "
                              f"{reached!r}, off by {reached - target:.3e}")
        _close(float(family.reference(np.array([budget]))[0]), target,
               f"{family.label}: reference capacity at the inverted budget")
    return check


def closed_form(seed: int) -> Workload:
    """Curve sweeps and inversions on five families, no oracle or MC work."""
    rng = np.random.default_rng([seed, 1])
    families = []

    def fc_family(label, lam, hidden, scale, wide=False):
        spectrum = mmicap.Spectrum(lam)
        arch = mmicap.ArchitectureSpec(mmicap.FullyConnected(lam.size, hidden))
        n_tilde = min(lam.size, hidden)
        families.append(_Family(
            label, arch, spectrum, 1.0,
            lambda b, lam=lam, n=n_tilde: ref.dense_capacity(lam, 1.0, b, n),
            scale, wide))

    i = np.arange(100, dtype=np.float64)
    fc_family("fig1-left", np.exp(-0.1 * i), 50, 500.0)
    fc_family("fig1-right", 1.0 / (i + 1.0), 50, 500.0)

    wide = _log_uniform(rng, 20_000, -3.0, 3.0)
    fc_family("fc-wide", wide, 20_000, _last_breakpoint(wide, 1.0, wide.size), wide=True)

    block_lam = _log_uniform(rng, 64, -2.0, 2.0)
    block = _rotated_cov(rng, block_lam)
    conv = mmicap.ArchitectureSpec(mmicap.Convolutional(1024, 64, 32))
    families.append(_Family(
        "conv", conv, mmicap.BlockCovariance(mmicap.CovarianceMatrix(block), 16), 1.0,
        lambda b: ref.conv_capacity(block, 16, 32, 1.0, b),
        _last_breakpoint(block_lam, 1.0, 32)))

    mlp_lam = (1.0 + np.arange(300.0)) ** -rng.uniform(0.5, 1.5)
    widths = (200, 40, 120)
    families.append(_Family(
        "mlp", mmicap.ArchitectureSpec(mmicap.MultiLayer(widths)),
        mmicap.Spectrum(mlp_lam), 1.0,
        lambda b: ref.mlp_capacity(mlp_lam, widths, 1.0, b),
        _last_breakpoint(mlp_lam, 1.0, 40)))

    def make_round(r: int) -> list[Op]:
        rrng = np.random.default_rng([seed, 2, r])
        ops = []
        for fam in families:
            grid = np.linspace(0.0, fam.budget_scale * rrng.uniform(0.5, 1.5), 400)
            ops.append(Op(
                f"curve:{fam.label}",
                lambda fam=fam, grid=grid: mmicap.mmi_curve(
                    fam.arch, fam.source, fam.noise_var, grid),
                _curve_check(fam, grid, [seed, 3, r]),
                points=grid.size))
        for fam in families:
            budget = fam.budget_scale * rrng.uniform(0.01, 1.5)
            target = float(fam.reference(np.array([budget]))[0])
            ops.append(Op(
                f"invert:{fam.label}",
                lambda fam=fam, target=target: mmicap.invert_mmi(
                    fam.arch, fam.source, fam.noise_var, target),
                _invert_check(fam, target)))
        return ops

    return Workload(make_round)


# ----------------------------------------------------------------------------
# oracle


def _weights_check(cov, lam, noise_var, hidden, budgets) -> Callable:
    n_tilde = min(lam.size, hidden)
    expected = ref.dense_capacity(lam, noise_var, budgets, n_tilde)

    def check(results) -> None:
        for budget, cap, (weights, nats) in zip(budgets, expected, results):
            w = weights.entries
            if float(np.sum(w * w)) > budget * (1.0 + 1e-12) + 1e-300:
                raise CheckFailed(f"weights leave the budget ball at F={budget!r}")
            _close(nats, ref.linear_mi(w, cov, noise_var),
                   f"exact MI of the built weights at F={budget!r}")
            _close(nats, cap, f"built weights vs capacity at F={budget!r}")
    return check


def _optimizer_check(capacity: float, score: Callable[[np.ndarray], float],
                     budget: float, label: str) -> Callable:
    def check(result) -> None:
        w = result.weights.entries
        if float(np.sum(w * w)) > budget * (1.0 + 1e-12):
            raise CheckFailed(f"{label}: weights leave the budget ball")
        _close(result.nats, score(w), f"{label}: reported MI vs log-det of its weights")
        if result.nats > capacity + OPTIMIZER_SLACK:
            raise CheckFailed(f"{label}: {result.nats!r} exceeds capacity {capacity!r}")
        if result.nats < capacity - OPTIMIZER_GAP:
            raise CheckFailed(f"{label}: {result.nats!r} is more than "
                              f"{OPTIMIZER_GAP} below capacity {capacity!r}")
    return check


def oracle(seed: int) -> Workload:
    """Optimal-weight construction, dense and conv projected gradient ascent."""

    def make_round(r: int) -> list[Op]:
        rng = np.random.default_rng([seed, 4, r])
        ops = []
        for noise_var in (0.1, 1.0, 10.0, 1.0):
            dim, hidden = 32, 24
            lam = _log_uniform(rng, dim, -2.0, 2.0)
            cov = _rotated_cov(rng, lam)
            bp = ref.breakpoints(lam, noise_var, min(dim, hidden))
            budgets = np.concatenate((0.5 * (bp[:-1] + bp[1:]), [1.5 * bp[-1] + 1.0]))
            ops.append(Op(
                "weights",
                lambda cov=cov, noise_var=noise_var, hidden=hidden, budgets=budgets:
                    _build_and_score(cov, noise_var, hidden, budgets),
                _weights_check(cov, lam, noise_var, hidden, budgets)))
        for _ in range(2):
            lam = _separated(rng, 4)
            cov = _rotated_cov(rng, lam)
            budget = float(rng.uniform(0.5, 4.0))
            config = mmicap.OptimizerConfig(max_iters=OPTIMIZER_MAX_ITERS, restarts=2,
                                            seed=int(rng.integers(2**31)))
            ops.append(Op(
                "maximize",
                lambda cov=cov, budget=budget, config=config: mmicap.maximize_mi(
                    budget, mmicap.CovarianceMatrix(cov), 1.0, 3, config),
                _optimizer_check(
                    float(ref.dense_capacity(lam, 1.0, budget, 3)),
                    lambda w, cov=cov: ref.linear_mi(w, cov, 1.0), budget, "maximize_mi")))
        block_lam = _separated(rng, 3)
        block = _rotated_cov(rng, block_lam)
        reps, filters = 4, 2
        budget = float(rng.uniform(0.5, 3.0))
        config = mmicap.OptimizerConfig(max_iters=OPTIMIZER_MAX_ITERS, restarts=2,
                                        seed=int(rng.integers(2**31)))
        full = np.kron(np.eye(reps), block)
        ops.append(Op(
            "maximize-conv",
            lambda: mmicap.maximize_mi_conv(
                budget, mmicap.BlockCovariance(mmicap.CovarianceMatrix(block), reps),
                filters, 1.0, config),
            _optimizer_check(
                float(ref.conv_capacity(block, reps, filters, 1.0, budget)),
                lambda w: ref.linear_mi(np.kron(np.eye(reps), w), full, 1.0),
                budget, "maximize_mi_conv")))
        return ops

    return Workload(make_round)


def _build_and_score(cov, noise_var, hidden, budgets):
    covariance = mmicap.CovarianceMatrix(cov)
    decomposition = mmicap.decompose_covariance(covariance)
    out = []
    for budget in budgets:
        weights = mmicap.build_optimal_weights(float(budget), decomposition, noise_var, hidden)
        out.append((weights, mmicap.exact_linear_mi(weights, covariance, noise_var)))
    return out


# ----------------------------------------------------------------------------
# monte-carlo


def _estimate_check(exact: float, label: str) -> Callable:
    def check(estimate) -> None:
        gap = estimate.value - exact
        se = estimate.std_error
        if not (se > 0.0 and -MC_SE_MULTIPLE * se <= gap
                <= MC_SE_MULTIPLE * se + MC_BIAS_ALLOWANCE):
            raise CheckFailed(f"{label}: estimate {estimate.value!r} (se {se:.2e}) vs "
                              f"exact {exact!r}, gap {gap:.3e}")
    return check


def _ordering_check(report) -> None:
    row = report["rows"][0]
    if not report["pass"] or not row["difference"] <= 3.0 * row["se_difference"]:
        raise CheckFailed(f"relu entropy ordering fails: {row}")
    if not (math.isfinite(row["h_linear"]) and math.isfinite(row["h_relu"])):
        raise CheckFailed("entropy ordering returned a non-finite entropy")
    expected = row["h_relu"] - row["h_linear"]
    if not abs(row["difference"] - expected) <= 1e-9 * max(1.0, abs(row["h_linear"])):
        raise CheckFailed("entropy ordering difference disagrees with its entropies")


def monte_carlo(seed: int) -> Workload:
    """Criterion-8-sized MC estimates on linear, tanh and relu channels."""
    pairs = MC_SAMPLES * MC_SAMPLES

    def make_round(r: int) -> list[Op]:
        rng = np.random.default_rng([seed, 5, r])
        ops = []
        for kind, hidden, dim in (("linear", 1, 3), ("bijective", 2, 3), ("linear", 3, 4)):
            cov = _rotated_cov(rng, _log_uniform(rng, dim, -1.0, 1.0))
            weights = rng.standard_normal((hidden, dim)) / math.sqrt(dim)
            bias = rng.uniform(-1.0, 1.0, size=hidden)
            mc = mmicap.MCConfig(MC_SAMPLES, MC_SAMPLES, int(rng.integers(2**31)))
            make = mmicap.linear_channel if kind == "linear" else mmicap.bijective_channel
            model = make(mmicap.WeightMatrix(weights), bias, 1.0)
            # The bijective estimate adds an independent Jacobian correction.
            ops.append(Op(
                f"estimate:{kind}",
                lambda model=model, cov=cov, mc=mc: mmicap.estimate_mi(
                    model, mmicap.CovarianceMatrix(cov), mc),
                _estimate_check(ref.linear_mi(weights, cov, 1.0), f"{kind} h={hidden}"),
                pairs=pairs))
        cov = _rotated_cov(rng, _log_uniform(rng, 3, -1.0, 1.0))
        weights = rng.standard_normal((2, 3))
        bias = rng.uniform(-1.0, 0.5, size=2)
        mc = mmicap.MCConfig(MC_SAMPLES, MC_SAMPLES, int(rng.integers(2**31)))
        model = mmicap.relu_channel(mmicap.WeightMatrix(weights), bias, 1.0)
        ops.append(Op(
            "entropy-ordering",
            lambda: mmicap.verify_entropy_ordering(model, mmicap.CovarianceMatrix(cov), mc),
            _ordering_check, pairs=2 * pairs))
        return ops

    return Workload(make_round)


# ----------------------------------------------------------------------------
# cli


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


class CliRunner:
    """Runs ``mmicap`` argument lists as child processes or in process."""

    def __init__(self, root: str):
        self.root = root
        self.in_process = False

    def env(self, threads: int) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["MMI_THREADS"] = str(threads)
        return env

    def __call__(self, argv: list[str], threads: int) -> CliRun:
        if self.in_process:
            saved = os.environ.get("MMI_THREADS")
            os.environ["MMI_THREADS"] = str(threads)
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = mmicap.cli.main(argv)
            finally:
                if saved is None:
                    os.environ.pop("MMI_THREADS", None)
                else:
                    os.environ["MMI_THREADS"] = saved
            return CliRun(code, out.getvalue(), err.getvalue())
        done = subprocess.run([sys.executable, "-m", "mmicap.cli", *argv],
                              capture_output=True, text=True, cwd=self.root,
                              env=self.env(threads), timeout=170)
        return CliRun(done.returncode, done.stdout, done.stderr)


def _sig9_close(printed: float, expected: float, what: str) -> None:
    """The printed value must be the reference rounded to 9 significant digits."""
    if expected == 0.0:
        ok = printed == 0.0
    else:
        half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(expected))) - 8)
        ok = abs(printed - expected) <= half_unit * (1.0 + 1e-6) + 1e-12 * abs(expected)
    if not ok:
        raise CheckFailed(f"{what}: printed {printed!r}, reference {expected!r}")


def _exit_ok(run: CliRun, what: str) -> None:
    if run.code != 0:
        raise CheckFailed(f"{what}: exit code {run.code}: {run.stderr.strip()[-300:]}")


def _curve_csv_check(lam: np.ndarray, label: str) -> Callable:
    grid = np.linspace(0.0, 500.0, 400)
    expected = ref.dense_capacity(lam, 1.0, grid, 50)

    def check(run: CliRun) -> None:
        _exit_ok(run, label)
        lines = run.stdout.strip().splitlines()
        if lines[0] != "F,mmi,regime_K,active_components" or len(lines) != 401:
            raise CheckFailed(f"{label}: unexpected CSV layout ({len(lines)} lines)")
        for line, budget, value in zip(lines[1:], grid, expected):
            f_text, mmi_text, *_ = line.split(",")
            _sig9_close(float(f_text), budget, f"{label} F")
            _sig9_close(float(mmi_text), value, f"{label} mmi at F={budget!r}")
    return check


def _verify_check(seed: int, label: str) -> Callable:
    # The relu large-bias check scores the closed form at F = 2 on
    # diag(exp(-0.5 i)), i = 0..2, with 2 hidden units and unit noise.
    closed = float(ref.dense_capacity(np.exp(-0.5 * np.arange(3.0)), 1.0, 2.0, 2))

    def check(run: CliRun) -> None:
        _exit_ok(run, label)
        report = json.loads(run.stdout)
        if report.get("pass") is not True or report.get("seed") != seed:
            raise CheckFailed(f"{label}: report does not pass")
        names = [c["name"] for c in report["checks"]]
        for name in names:
            if f"PASS {name}" not in run.stderr.splitlines():
                raise CheckFailed(f"{label}: no PASS line for {name}")
        relu = next(c for c in report["checks"] if c["name"] == "relu-large-bias")
        for row in relu["report"]["rows"]:
            _sig9_close(row["closed_form"], closed, f"{label}: relu closed form")
    return check


def cli(seed: int, root: str) -> Workload:
    """Whole ``mmicap`` commands: verify (1 and 2 threads), curves, tables."""
    runner = CliRunner(root)
    i = np.arange(100, dtype=np.float64)
    left, right = np.exp(-0.1 * i), 1.0 / (i + 1.0)
    last_verify: dict[str, str] = {}

    def make_round(r: int) -> list[Op]:
        rng = np.random.default_rng([seed, 6, r])
        ops = []

        for threads in (1, 2):
            argv = ["verify", "--seed", str(VERIFY_SEED)]
            base = _verify_check(VERIFY_SEED, f"verify threads={threads}")

            def check(run, base=base, threads=threads):
                base(run)
                other = last_verify.get("stdout")
                if other is not None and other != run.stdout:
                    raise CheckFailed(f"verify stdout with MMI_THREADS={threads} differs "
                                      "from the other thread count's")
                last_verify["stdout"] = run.stdout

            ops.append(Op("verify", lambda argv=argv, threads=threads: runner(argv, threads),
                          check))

        for side, lam in (("left", left), ("right", right)):
            ops.append(Op("curve",
                          lambda side=side: runner(
                              ["curve", "--figure1", side, "--out", "csv"], 1),
                          _curve_csv_check(lam, f"curve --figure1 {side}")))

        dims = int(rng.integers(3, 9))
        values = np.round(np.exp(rng.uniform(-2.0, 2.0, size=dims)), 6)
        hidden = int(rng.integers(1, dims + 1))
        listing = "list:" + ",".join(repr(float(v)) for v in values)
        sigma2 = float(np.round(rng.uniform(0.2, 3.0), 4))
        arch = f"fc:{dims},{hidden}"

        def bp_check(run: CliRun) -> None:
            _exit_ok(run, "breakpoints")
            lines = run.stdout.strip().splitlines()
            expected = ref.breakpoints(values, sigma2, min(dims, hidden))
            if lines[0] != "k,breakpoint" or len(lines) != expected.size + 1:
                raise CheckFailed("breakpoints: unexpected CSV layout")
            for k, (line, value) in enumerate(zip(lines[1:], expected), start=1):
                k_text, bp_text = line.split(",")
                if int(k_text) != k:
                    raise CheckFailed(f"breakpoints: row {k} labelled {k_text}")
                _sig9_close(float(bp_text), value, f"breakpoint {k}")

        ops.append(Op("breakpoints", lambda: runner(
            ["breakpoints", "--arch", arch, "--spectrum", listing,
             "--sigma2", repr(sigma2), "--out", "csv"], 1), bp_check))

        budget = float(np.round(rng.uniform(0.05, 20.0), 4))

        def mmi_check(run: CliRun) -> None:
            _exit_ok(run, "mmi")
            row = json.loads(run.stdout)["rows"][0]
            expected = float(ref.dense_capacity(values, sigma2, budget, min(dims, hidden)))
            _sig9_close(row["mmi"], expected, f"mmi at F={budget!r}")
            _sig9_close(row["F"], budget, "mmi F")

        ops.append(Op("mmi", lambda: runner(
            ["mmi", "--arch", arch, "--spectrum", listing, "--sigma2", repr(sigma2),
             "--F", repr(budget)], 1), mmi_check))
        return ops

    def set_in_process(flag: bool) -> None:
        runner.in_process = flag

    return Workload(make_round, set_in_process)


def build(name: str, seed: int, root: str) -> Workload:
    if name == "closed-form":
        return closed_form(seed)
    if name == "oracle":
        return oracle(seed)
    if name == "monte-carlo":
        return monte_carlo(seed)
    if name == "cli":
        return cli(seed, root)
    raise ValueError(f"unknown workload {name!r}")
