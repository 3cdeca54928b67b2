"""mmicap benchmark: one command, four workloads, every output checked.

    python3 benchmarks/run.py --workload closed-form --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from its
``src`` directory.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (timed untraced, and scaled to a
reference machine speed by the probe in ``speed.py``); with ``--trace 1`` they
are the per-layer ones, from rounds run with spans around each layer's
functions, alternating with untraced rounds of the same operations to give
the tracing overhead.  Full results and the span list go to ``bench_out/``.
See README.md in this directory for the workloads and what each metric is
expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench_out")

#: Kernel worker threads and BLAS threads; together they use at most
#: nproc cores (one BLAS thread per kernel worker).
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
MMI_THREADS = max(1, min(2, NPROC or 1))
BLAS_THREADS = 1

WORKLOADS = ("closed-form", "oracle", "monte-carlo", "cli")

#: Fresh-interpreter set-up measurements per run; setup_s is their median,
#: scaled by the run's speed factor (``speed.SpeedProbe.factor``).
SETUP_PROBES = 7

#: Spans recorded in the traced run: (module, function, span name).
SPANS = [
    ("spectrum", "decompose_covariance", "spectrum.decompose"),
    ("waterfill", "breakpoints", "waterfill.breakpoints"),
    ("waterfill", "solve_waterfill", "waterfill.solve"),
    ("mmi", "evaluate", "mmi.evaluate"),
    ("mmi", "mmi_curve", "mmi.curve"),
    ("mmi", "invert_mmi", "mmi.invert"),
    ("oracle", "exact_linear_mi", "oracle.exact_mi"),
    ("oracle", "build_optimal_weights", "oracle.build_weights"),
    ("oracle", "maximize_mi", "oracle.maximize"),
    ("oracle", "maximize_mi_conv", "oracle.maximize_conv"),
    ("mc", "_mixture_log_density", "mc.kernel"),
    ("mc", "sample_gaussian_inputs", "mc.sampling"),
    ("mc", "estimate_mi", "mc.estimate"),
    ("mc", "verify_entropy_ordering", "mc.entropy_ordering"),
    ("verify", "_check_achievability", "verify.check.achievability"),
    ("verify", "_check_optimizer", "verify.check.optimizer-gap"),
    ("verify", "_check_breakpoint_agreement", "verify.check.breakpoint-agreement"),
    ("verify", "_check_relu_large_bias", "verify.check.relu-large-bias"),
    ("verify", "_check_entropy_ordering", "verify.check.entropy-ordering"),
    ("verify", "_check_bijective_invariance", "verify.check.bijective-invariance"),
    ("cli", "main", "cli.main"),
]

#: Counts taken at the same boundaries as the spans.
COUNTS = [
    "mmi.invert.evaluations",
    "oracle.maximize.iterations",
    "oracle.maximize.converged",
    "oracle.line_search.evaluations",
    "mc.kernel.pairs",
]


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them."""
    names = [f"{span}.{field}" for _, _, span in SPANS
             for field in ("calls", "busy_s", "self_s")]
    return names + COUNTS + ["cli.import_s", "trace.overhead_s", "trace.overhead_share"]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_share") else "count"


def pin_threads() -> None:
    """Fix the thread counts; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["MMI_THREADS"] = str(MMI_THREADS)


def _require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "mmicap", "__init__.py")):
        print(f"error: no mmicap sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def setup_probe(workload: str, seed: int) -> None:
    """Time ``import mmicap.cli`` and the workload's input build in this
    (fresh) interpreter and print both as JSON."""
    t0 = time.perf_counter()
    import mmicap.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads
    workloads.build(workload, seed, ROOT)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up and import seconds over fresh interpreters."""
    totals, imports = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
        reading = json.loads(done.stdout.strip().splitlines()[-1])
        totals.append(reading["import_s"] + reading["build_s"])
        imports.append(reading["import_s"])
    return statistics.median(totals), statistics.median(imports)


class Run:
    """Counts, and the latency of every checked operation, of a run so far.

    With a speed probe, each latency is also kept scaled to the reference
    machine speed (see ``speed.py``); the end-to-end figures use the scaled
    times, and the ``_raw`` figures the measured ones.  Throughputs are
    totals over every checked operation, so a kind's slow tail (an optimizer
    stall) counts in full.  ``op_p50_s`` is the median latency of a round's
    operations, averaged over the rounds.
    """

    def __init__(self, probe=None):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.probe = probe
        #: Per kind: budget points and mixture pairs per operation.
        self.shape: dict[str, tuple[int, int]] = {}
        #: Every checked operation: (round, kind, seconds, index of the probe
        #: taken just before it, or None).
        self.done: list[tuple[int, str, float, int | None]] = []
        self.rounds = 0
        self.problems: list[str] = []

    def execute(self, ops, tracer=None) -> float:
        """Run one round of operations, traced when a tracer is given, then
        check them untraced; returns the seconds spent in the calls."""
        for op in ops:
            self.shape.setdefault(op.kind, (op.points, op.pairs))
        spent = 0.0
        results = []
        if tracer is not None:
            instrument(tracer)
        try:
            for index, op in enumerate(ops):
                self.attempted += 1
                probe = self.probe.latest() if self.probe is not None else None
                if tracer is not None:
                    tracer.op = index
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # a program error fails this operation only
                    self.failed += 1
                    self.problems.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - t0
                spent += elapsed
                results.append((op, out, elapsed, probe))
        finally:
            if tracer is not None:
                tracer.op = None
                tracer.uninstall()
        for op, out, elapsed, probe in results:
            try:
                op.check(out)
            except Exception as exc:  # CheckFailed, or output the check cannot read
                self.failed += 1
                self.correct = False
                self.problems.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            self.done.append((self.rounds, op.kind, elapsed, probe))
        self.rounds += 1
        return spent

    def finish(self) -> None:
        """Probe once more, so the last operations have a probe after them."""
        if self.probe is not None:
            self.probe.measure()

    def latencies(self, scaled: bool = True) -> list[tuple[int, str, float]]:
        """(round, kind, seconds) of every checked operation."""
        return [(r, kind, elapsed * self.probe.scale(probe)
                 if scaled and probe is not None else elapsed)
                for r, kind, elapsed, probe in self.done]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Checked operations per second of the time spent in their calls."""
        times = [t for _, _, t in self.latencies(scaled)]
        return len(times) / sum(times)

    def op_p50_s(self, scaled: bool = True) -> float:
        """Mean over the rounds of each round's median operation latency."""
        by_round: dict[int, list[float]] = {}
        for r, _, t in self.latencies(scaled):
            by_round.setdefault(r, []).append(t)
        return statistics.fmean(statistics.median(ts) for ts in by_round.values())

    def by_kind(self, scaled: bool = True) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for _, kind, t in self.latencies(scaled):
            out.setdefault(kind, []).append(t)
        return out

    def rate(self, field: int) -> float | None:
        """Points (field 0) or pairs (field 1) per second over the checked
        operations of the kinds that have them; None when no kind does."""
        by_kind = self.by_kind()
        kinds = [kind for kind, shape in self.shape.items()
                 if shape[field] and by_kind.get(kind)]
        if not kinds:
            return None
        done = sum(self.shape[kind][field] * len(by_kind[kind]) for kind in kinds)
        return done / sum(sum(by_kind[kind]) for kind in kinds)

    def median_of(self, prefix: str) -> float | None:
        pooled = [t for _, kind, t in self.latencies() if kind.split(":")[0] == prefix]
        return statistics.median(pooled) if pooled else None


def instrument(tracer) -> None:
    import mmicap  # noqa: F401  (loads every layer module)
    import mmicap.cli  # noqa: F401

    modules = {name: sys.modules[f"mmicap.{name}"]
               for name in ("spectrum", "waterfill", "mmi", "oracle", "mc", "verify", "cli")}

    def in_invert(t, args, kwargs):
        if t.inside("mmi.invert"):
            t.count("mmi.invert.evaluations")

    def in_optimizer(t, args, kwargs):
        if t.inside("oracle.maximize") or t.inside("oracle.maximize_conv"):
            t.count("oracle.line_search.evaluations")

    def kernel_pairs(t, args, kwargs):
        t.count("mc.kernel.pairs", int(args[0].shape[0]) * int(args[1].shape[0]))

    def converged(t, result):
        t.count("oracle.maximize.converged", int(bool(result.converged)))

    def iterations(t, result):
        t.count("oracle.maximize.iterations", int(result[3]))

    hooks = {
        "mmi.evaluate": {"on_call": in_invert},
        "mc.kernel": {"on_call": kernel_pairs},
        "oracle.maximize": {"on_result": converged},
        "oracle.maximize_conv": {"on_result": converged},
    }
    for module, attr, span in SPANS:
        tracer.wrap(modules[module], attr, span, **hooks.get(span, {}))
    tracer.wrap(modules["oracle"], "_ascend", None, on_result=iterations)
    tracer.wrap(modules["oracle"], "_mi_value", None, on_call=in_optimizer)


def run_untraced(workload, seconds: float, run: Run) -> int:
    rounds = 0
    start = time.perf_counter()
    while True:
        run.execute(workload.make_round(rounds))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def run_traced(workload, seconds: float, run: Run):
    """Alternate each round untraced then traced on identical operations."""
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        plain.append(run.execute(workload.make_round(rounds)))
        traced.append(run.execute(workload.make_round(rounds), tracer))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return tracer, plain, traced


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine_info() -> dict:
    import numpy
    import scipy
    return {"nproc": NPROC, "MMI_THREADS": MMI_THREADS, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    pin_threads()
    _require_source()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import speed
    import workloads

    setup_s, import_s = measure_setup(args.workload, args.seed)
    probe = None if args.trace else speed.SpeedProbe()
    workload = workloads.build(args.workload, args.seed, ROOT)
    run = Run(probe)
    extra: dict[str, dict] = {}

    if args.trace:
        if workload.set_in_process is not None:
            workload.set_in_process(True)
        tracer, plain, traced = run_traced(workload, args.seconds, run)
        n = len(traced)
        values = {name: tracer.counts.get(name, 0) / n for name in COUNTS}
        for span, entry in tracer.summary().items():
            for field, value in entry.items():
                values[f"{span}.{field}"] = value / n
        values["cli.import_s"] = import_s
        values["trace.overhead_s"] = (sum(traced) - sum(plain)) / n
        values["trace.overhead_share"] = (sum(traced) - sum(plain)) / sum(plain)
        metrics = {name: {"value": values.get(name, 0.0), "unit": per_layer_unit(name)}
                   for name in per_layer_names()}
        extra["trace.rounds"] = {"value": n, "unit": "count"}
        extra["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    else:
        rounds = run_untraced(workload, args.seconds, run)
        run.finish()
        checked = len(run.done)
        metrics = {
            "setup_s": {"value": setup_s * probe.factor(), "unit": "s"},
            "ops_per_s": {"value": run.ops_per_s() if checked else 0.0, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * run.op_p50_s() if checked else 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(args.workload == "cli"), "unit": "MB"},
        }
        extra["setup_s_raw"] = {"value": setup_s, "unit": "s"}
        if checked:
            extra["ops_per_s_raw"] = {"value": run.ops_per_s(scaled=False), "unit": "1/s"}
            extra["op_p50_ms_raw"] = {"value": 1e3 * run.op_p50_s(scaled=False), "unit": "ms"}
        extra["speed_factor"] = {"value": probe.factor(), "unit": "ratio"}
        extra["speed_probes"] = {"value": len(probe.samples), "unit": "count"}
        extra["rounds"] = {"value": rounds, "unit": "count"}
        extra["ops_checked"] = {"value": checked, "unit": "count"}
        for name, field in (("points_per_s", 0), ("pairs_per_s", 1)):
            value = run.rate(field) if checked else None
            if value is not None:
                extra[name] = {"value": value, "unit": "1/s"}
        if args.workload == "cli":
            for kind, name in (("verify", "verify_s"), ("curve", "curve_s")):
                value = run.median_of(kind)
                if value is not None:
                    extra[name] = {"value": value, "unit": "s"}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        tracer.write(os.path.join(OUT_DIR, f"TRACE_{stem}.jsonl"))
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"BENCH_{stem}.json"), "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "workload_metrics": extra,
                   "latencies_s": run.by_kind(scaled=False),
                   "operations": run.done,
                   "speed_probes_s": probe.samples if probe is not None else [],
                   "problems": run.problems[:50], "machine": machine_info()}, fh, indent=2)
    for problem in run.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in {**metrics, **extra}.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
