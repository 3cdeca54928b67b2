"""Command-line front end.

Subcommands: ``mmi`` (single capacity value), ``curve`` (capacity over a
budget grid, with curve presets), ``breakpoints`` (regime boundaries) and
``verify`` (the numerical/Monte-Carlo verification suite).

A run is one document shaped like the ``--config`` file: flags become
fragments of it, ``--figure1`` is a constant one, and one set of typed
builders checks the merged document whatever each value came from.  Each
command takes the flags, and checks the entries, of the settings it reads.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
Floats are quantized to 9 significant digits at the output boundary in both
CSV and JSON, so the two formats carry bit-identical values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, MmicapError, NumericalOverflow, finite, positive
from .mmi import (ArchitectureSpec, Convolutional, FullyConnected, MultiLayer, evaluate,
                  mmi_curve)
from .spectrum import SPECTRUM_KINDS, decompose_covariance, load_covariance_csv, model_spectrum
from .verify import run_verification

DEFAULTS = {"sigma2": 1.0, "units": "nats", "out": "json", "seed": 0}

#: ``--figure1`` presets: N0 = 100, N1 = 50, sigma2 = 1, 400 budgets on [0, 500].
FIGURE1 = {
    side: {"architecture": {"family": "fc", "n0": 100, "n1": 50},
           "spectrum": spectrum, "sigma2": 1.0, "F_grid": [0.0, 500.0, 400]}
    for side, spectrum in (("left", {"kind": "exp_decay", "rate": 0.1}),
                           ("right", {"kind": "harmonic"}))
}

#: Dimension fields of the fc and conv architecture entries, in ``--arch`` order.
ARCH_DIMS = {"fc": ("n0", "n1"), "conv": ("n0", "block", "filters")}

#: Most elements of any array a run builds from its settings: the spectrum
#: length or the F_grid count.
MAX_ELEMENTS = 10**7

UNITS = ("nats", "bits")
OUTS = ("csv", "json")
_WANTED = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _quantize(value):
    """Round floats to 9 significant digits; recurse through containers."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.9g}")
    if isinstance(value, dict):
        return {key: _quantize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_quantize(item) for item in value]
    return value


def _check(value, name: str, kind, required: bool = True):
    """One run setting checked against ``kind``: float (a finite number), int,
    str, dict, list, a tuple of allowed values, or ``[float]``/``[int]`` for a
    list of those.  None is an error unless ``required`` is false."""
    if value is None:
        if required:
            raise ConfigError(f"{name} is required")
        return None
    if isinstance(kind, list):
        return [_check(item, name, kind[0]) for item in _check(value, name, list)]
    if isinstance(kind, tuple):
        ok, wanted = value in kind, "one of " + ", ".join(kind)
    elif kind is float:  # a list is not a number
        ok, wanted = not isinstance(value, list), "real and finite"
    else:
        ok, wanted = isinstance(value, kind), _WANTED[kind]
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{name} must be {wanted}, got {value!r}")
    return finite(value, name) if kind is float else value


def _bound(count: int, name: str) -> int:
    if count > MAX_ELEMENTS:
        raise ConfigError(f"{name} would build {count} elements; the limit is {MAX_ELEMENTS}")
    return count


def _arch_doc(text: str) -> dict:
    """--arch fc:N0,N1 | conv:N0,NB,Nf | mlp:w1,w2,... as an architecture entry."""
    kind, _, rest = text.partition(":")
    try:
        dims = [int(tok) for tok in rest.split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"--arch: expected comma-separated integers, got {rest!r}") from exc
    if kind == "mlp":
        return {"family": "mlp", "widths": dims}
    if kind not in ARCH_DIMS:
        raise ConfigError(f"--arch: unknown family {kind!r} (use fc:, conv: or mlp:)")
    names = ARCH_DIMS[kind]
    if len(dims) != len(names):
        raise ConfigError(f"--arch {kind} expects {len(names)} dimensions, got {rest!r}")
    return {"family": kind, **dict(zip(names, dims))}


def _spectrum_doc(text: str) -> dict:
    """--spectrum exp:RATE | harmonic | list:v1,v2,... | file:PATH as a spectrum
    entry; a ``.json`` file holds the entry itself, any other is a covariance CSV."""
    kind, _, rest = text.partition(":")
    if kind == "file":
        if rest.endswith(".json"):
            return _load_json(rest, "--spectrum")
        return {"covariance_csv": rest}
    if kind == "harmonic":
        return {"kind": "harmonic"}
    try:
        if kind == "exp":
            return {"kind": "exp_decay", "rate": float(rest)}
        if kind == "list":
            return {"kind": "explicit",
                    "values": [float(tok) for tok in rest.split(",") if tok != ""]}
    except ValueError as exc:
        raise ConfigError(f"--spectrum {kind}: expects numbers, got {rest!r}") from exc
    raise ConfigError(
        f"--spectrum: unknown source {kind!r} (use exp:, harmonic, file: or list:)"
    )


def _grid_doc(text: str) -> list:
    """--F-grid lo:hi:n as an F_grid entry."""
    try:
        lo, hi, count = text.split(":")
        return [float(lo), float(hi), int(count)]
    except ValueError as exc:
        raise ConfigError(f"--F-grid expects lo:hi:n, got {text!r}") from exc


def _flag_doc(args: argparse.Namespace) -> dict:
    """The flags of one command line as a fragment shaped like the config file."""
    doc = {key: getattr(args, key, None) for key in ("sigma2", "units", "out", "seed", "F")}
    for key, flag, to_doc in (("architecture", "arch", _arch_doc),
                              ("spectrum", "spectrum", _spectrum_doc),
                              ("F_grid", "F_grid", _grid_doc)):
        text = getattr(args, flag, None)
        doc[key] = None if text is None else to_doc(text)
    return doc


def _load_json(path: str, flag: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad bytes, bad or too deep JSON
        raise ConfigError(f"{flag} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{flag} {path}: document must be a JSON object")
    return doc


def _run_doc(args: argparse.Namespace) -> dict:
    """Preset over flags over config file over defaults, by top-level key;
    an absent (or null) entry leaves the lower layer's value."""
    doc = dict(DEFAULTS)
    config = _load_json(args.config, "--config") if args.config else {}
    for layer in (config, _flag_doc(args), FIGURE1.get(getattr(args, "figure1", None), {})):
        doc.update((key, value) for key, value in layer.items() if value is not None)
    return doc


def _build_arch(doc) -> ArchitectureSpec:
    doc = _check(doc, "architecture (--arch)", dict)
    family = _check(doc.get("family"), "architecture.family", ("fc", "conv", "mlp"))
    if family == "mlp":
        widths = _check(doc.get("widths"), "architecture.widths", [int])
        return ArchitectureSpec(MultiLayer(tuple(widths)))
    dims = [_check(doc.get(key), f"architecture.{key}", int) for key in ARCH_DIMS[family]]
    kind = FullyConnected if family == "fc" else Convolutional
    return ArchitectureSpec(kind(*dims))


def _build_source(doc, arch: ArchitectureSpec):
    """The Spectrum the architecture reads: of its inputs for fc, of one block for
    conv, of any length for mlp.  A covariance CSV is decomposed to its spectrum."""
    doc = _check(doc, "spectrum (--spectrum)", dict)
    if "covariance_csv" in doc:
        cov = load_covariance_csv(_check(doc["covariance_csv"], "spectrum.covariance_csv", str))
        return decompose_covariance(cov).spectrum
    family = arch.family
    kind = _check(doc.get("kind"), "spectrum.kind", SPECTRUM_KINDS)
    n = _check(doc.get("n"), "spectrum.n", int, required=False)
    if n is None and kind != "explicit":
        if isinstance(family, MultiLayer):
            raise ConfigError("spectrum: model spectra need a length 'n' under an mlp "
                              "architecture; use list:, file: or a config entry with 'n'")
        n = family.block_size if isinstance(family, Convolutional) else family.input_dim
    if n is not None:
        _bound(n, "spectrum")
    return model_spectrum(
        kind, n, rate=_check(doc.get("rate"), "spectrum.rate", float, required=False),
        values=_check(doc.get("values"), "spectrum.values", [float], required=False))


def _build_grid(spec) -> np.ndarray:
    """[lo, hi, n] with an integer n: n budgets from lo to hi; otherwise the budgets."""
    spec = _check(spec, "F_grid", list)
    if len(spec) == 3 and isinstance(spec[2], int) and not isinstance(spec[2], bool):
        lo, hi = _check(spec[0], "F_grid lo", float), _check(spec[1], "F_grid hi", float)
        if spec[2] < 1 or hi < lo or lo < 0:
            raise ConfigError(f"F_grid needs 0 <= lo <= hi and n >= 1, got {spec}")
        return np.linspace(lo, hi, _bound(spec[2], "F_grid"))
    return np.array(_check(spec, "F_grid", [float]), dtype=np.float64)


class RunConfig:
    """The settings every mmi, curve and breakpoints run reads.  The budget
    entries and ``units`` are checked by the commands that read them, so an
    entry a command never reads is ignored, whatever its value."""

    def __init__(self, args: argparse.Namespace):
        self.doc = _run_doc(args)
        self.sigma2 = positive(self.doc["sigma2"], "sigma2")
        self.out = _check(self.doc["out"], "out", OUTS)
        self.arch = _build_arch(self.doc.get("architecture"))
        self.source = _build_source(self.doc.get("spectrum"), self.arch)


def _emit(rows: list[dict], meta: dict, out: str, stream=None) -> None:
    """One table in CSV (9 significant digits) or JSON (same quantized values)."""
    rows = [_quantize(row) for row in rows]
    # Built for CSV too: allow_nan=False keeps NaN and inf out of both formats.
    text = json.dumps({**_quantize(meta), "rows": rows}, indent=2, allow_nan=False)
    if out == "csv":
        columns = list(rows[0].keys()) if rows else []
        text = "\n".join([",".join(columns)] + [
            ",".join(f"{row[c]:.9g}" if isinstance(row[c], float) else str(row[c])
                     for c in columns) for row in rows])
    print(text, file=stream)


def _curve_table(command: str, config: RunConfig, grid) -> tuple[list[dict], dict]:
    """Capacity rows over ``grid`` in the run's units, and the table's header."""
    units = _check(config.doc["units"], "units", UNITS)
    scale = math.log(2.0) if units == "bits" else 1.0
    rows = [{
        "F": budget,
        "mmi": result.nats / scale,
        "regime_K": result.regime,
        "active_components": result.active_components,
    } for budget, result in mmi_curve(config.arch, config.source, config.sigma2, grid)]
    return rows, {"command": command, "units": units, "sigma2": config.sigma2}


def cmd_mmi(args) -> int:
    config = RunConfig(args)
    budget = _check(config.doc.get("F"), "F (--F)", float)
    rows, meta = _curve_table("mmi", config, [budget])
    rows[0]["bottleneck"] = rows[0]["regime_K"] + rows[0]["active_components"]
    _emit(rows, meta, config.out)
    return 0


def cmd_curve(args) -> int:
    config = RunConfig(args)
    if config.doc.get("F_grid") is None:
        raise ConfigError("--F-grid (or --figure1) is required for the curve subcommand")
    rows, meta = _curve_table("curve", config, _build_grid(config.doc["F_grid"]))
    if args.gnuplot:
        _write_gnuplot(args.gnuplot, rows, meta["units"])
    _emit(rows, meta, config.out)
    return 0


def _write_gnuplot(script_path: str, rows: list[dict], units: str) -> None:
    """Companion plain-text plotting script plus the CSV it references."""
    data_path = os.path.splitext(script_path)[0] + ".csv"
    if data_path == script_path:
        raise ConfigError(f"--gnuplot {script_path}: the script would overwrite its data")
    created = not os.path.lexists(script_path)
    script = open(script_path, "a")  # emptied only once the data file opens too
    try:
        data = open(data_path, "w")
    except OSError:
        script.close()
        if created:
            os.remove(script_path)
        raise
    with script, data:
        script.truncate(0)
        _emit(rows, {}, "csv", data)
        script.write("set datafile separator ','\n")
        script.write(f"set xlabel 'F'\nset ylabel 'capacity ({units})'\n")
        script.write(f"plot '{data_path}' skip 1 using 1:2 with lines title 'capacity'\n")


def cmd_breakpoints(args) -> int:
    config = RunConfig(args)
    rho = evaluate(config.arch, config.source, config.sigma2, 0.0).breakpoints
    if not np.isfinite(rho[-1]):
        raise NumericalOverflow(f"breakpoint {int(np.argmin(np.isfinite(rho))) + 1} "
                                f"of {rho.size} passes the double range")
    rows = [{"k": k + 1, "breakpoint": value} for k, value in enumerate(rho.tolist())]
    _emit(rows, {"command": "breakpoints", "sigma2": config.sigma2}, config.out)
    return 0


def cmd_verify(args) -> int:
    report = run_verification(seed=_run_doc(args)["seed"], mmi_offset=args.corrupt_closed_form)
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['name']}", file=sys.stderr)
    print(json.dumps(_quantize(report), indent=2, allow_nan=False))
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmicap", description="Mutual-information capacity of Gaussian-input architectures.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes the flags of the settings it reads.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file; flags override its fields")
    model = argparse.ArgumentParser(add_help=False, parents=[config])
    model.add_argument("--arch", help="fc:N0,N1 | conv:N0,NB,Nf | mlp:w1,w2,...")
    model.add_argument("--spectrum", help="exp:rate | harmonic | file:PATH | list:v1,v2,...")
    model.add_argument("--sigma2", type=float, help="output noise variance (default 1)")
    model.add_argument("--out", choices=OUTS)
    capacity = argparse.ArgumentParser(add_help=False, parents=[model])
    capacity.add_argument("--units", choices=UNITS)

    p_mmi = sub.add_parser("mmi", parents=[capacity], help="single capacity value")
    p_mmi.add_argument("--F", type=float, help="squared-Frobenius weight budget")
    p_mmi.set_defaults(func=cmd_mmi)

    p_curve = sub.add_parser("curve", parents=[capacity], help="capacity over a budget grid")
    p_curve.add_argument("--F-grid", dest="F_grid", help="lo:hi:n ascending grid")
    p_curve.add_argument("--figure1", choices=sorted(FIGURE1),
                         help="preset: N0=100, N1=50, sigma2=1, 400-point grid")
    p_curve.add_argument("--gnuplot", help="also write a plotting script and its CSV here")
    p_curve.set_defaults(func=cmd_curve)

    sub.add_parser("breakpoints", parents=[model],
                   help="regime boundaries of the budget axis").set_defaults(func=cmd_breakpoints)

    p_verify = sub.add_parser("verify", parents=[config], help="run the verification suite")
    p_verify.add_argument("--seed", type=int, help="seed of the stochastic checks (default 0)")
    p_verify.add_argument("--corrupt-closed-form", type=float, default=0.0,
                          help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MmicapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
