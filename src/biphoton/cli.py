"""Command-line front end: simulate -> correlate -> fit -> report, plus
OD analysis and sequence compilation.

Exit codes are stable: 0 success, 2 validation error, 3 I/O error,
4 data corruption, 5 fit non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .config import load_config
from .correlate import HistogramConfig, coincidence_rate, cross_correlate, read_histogram
from .errors import BiphotonError, CorruptionError, StreamFormatError, ValidationError
from .fitting import (PARAM_NAMES, ModelKind, fit, initial_guess, model_eval,
                      model_eval_binned)
from .metrics import (ODContext, atom_number, bandwidth_from_tau, cauchy_schwarz,
                      spectral_brightness)
from .pipeline import simulate_experiment, write_manifest
from .sequence import compile_duty_cycle, emit_gates
from .tagio import StreamReader

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_CORRUPTION = 4
EXIT_NONCONVERGENCE = 5

# The first class an error is an instance of gives its exit code, so
# subclasses come before their bases; ValidationError is a BiphotonError.
# A fit that does not converge raises nothing: fit and od-fit return 5.
EXIT_CODES = (
    (CorruptionError, EXIT_CORRUPTION),
    (StreamFormatError, EXIT_CORRUPTION),
    (BiphotonError, EXIT_VALIDATION),
    (OSError, EXIT_IO),
)

log = logging.getLogger("biphoton")


def _setup_logging():
    level = os.environ.get("BIPHOTON_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def cmd_simulate(args) -> int:
    config, digest = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    manifest = simulate_experiment(config, args.out, config_hash=digest)
    manifest_path = args.manifest or (str(args.out) + ".manifest.json")
    write_manifest(manifest, manifest_path)
    print(f"wrote {manifest['n_tags']} tags over "
          f"{manifest['live_time_s']:.6g} s gated live time to {args.out}")
    return EXIT_OK


def _histogram_config(args, config=None) -> HistogramConfig:
    """The config's histogram, or the default one, with each field that a
    flag of the same name sets replaced."""
    base = config.histogram if config is not None else HistogramConfig()
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(HistogramConfig)
             if getattr(args, f.name, None) is not None}
    return dataclasses.replace(base, **flags)


def cmd_correlate(args) -> int:
    config = None
    if args.config:
        config, _ = load_config(args.config)
    hist_cfg = _histogram_config(args, config)
    with StreamReader(args.input) as reader:
        hist = cross_correlate(reader, hist_cfg)
    hist.export_csv(args.out)
    print(f"{hist.total_coincidences} coincidences in {hist.config.n_bins} bins; "
          f"R1={hist.rate_a:.6g} Hz R2={hist.rate_b:.6g} Hz "
          f"G_acc={hist.g_acc:.6g}/bin")
    return EXIT_OK


def _fit_points(hist, window):
    """Bin centres, counts / G_acc and their errors, inside ``window``."""
    g_acc = hist.g_acc
    x = hist.bin_centers_ns()
    y = hist.counts / g_acc
    # sqrt(n + 1) tempers the low-count bias of sqrt(n) weights.
    sigma = np.sqrt(hist.counts + 1.0) / g_acc
    if window:
        sel = (x >= window[0]) & (x <= window[1])
        x, y, sigma = x[sel], y[sel], sigma[sel]
    return x, y, sigma


def fit_histogram(hist, kind, window=None):
    """The accidental-normalized weighted fit of a correlation histogram:
    its bins inside the (lo, hi) ns ``window``, or all of them, divided by
    its accidental floor G_acc per bin, which must be positive."""
    if hist.g_acc <= 0:
        raise ValidationError("need a positive accidental floor per bin", field="g_acc")
    x, y, sigma = _fit_points(hist, window)
    return fit(x, y, sigma, kind, initial_guess(x, y, kind),
               bin_width=hist.config.bin_width)


def cmd_fit(args) -> int:
    hist = read_histogram(args.input)
    kind = ModelKind.CROSS_CONVOLVED if args.model == "cross" else ModelKind.AUTO_CONVOLVED
    result = fit_histogram(hist, kind, args.window)
    x, y, _ = _fit_points(hist, args.window)
    report = result.as_dict()
    report["g_acc_per_bin"] = hist.g_acc
    report["bin_width_ns"] = hist.config.bin_width
    report["g2_model_max"] = _model_maximum(result, x)
    report["rates_hz"] = [hist.rate_a, hist.rate_b]
    report["duration_s"] = hist.duration_s
    if kind is ModelKind.CROSS_CONVOLVED:
        report["coincidence_rate_hz"] = coincidence_rate(hist, args.coincidence_window)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if args.residuals:
        # The bin means, which the fit minimised against.
        model = model_eval_binned(kind, result.params, x, hist.config.bin_width)
        with open(args.residuals, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "observed", "model", "residual"])
            for xi, yi, mi in zip(x, y, model):
                writer.writerow([f"{xi:.6f}", f"{yi:.9g}", f"{mi:.9g}",
                                 f"{yi - mi:.9g}"])
    _print_fit(result)
    if not result.converged:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _model_maximum(result, centers) -> float:
    """The model's maximum on 20 001 points across the histogram."""
    grid = np.linspace(float(centers.min()), float(centers.max()), 20001)
    return float(np.max(model_eval(result.kind, result.params, grid)))


def _print_fit(result):
    names = PARAM_NAMES[result.kind]
    bits = [f"{n}={result[n]:.6g}+-{result.uncertainty(n):.3g}" for n in names]
    status = "converged" if result.converged else "NOT CONVERGED"
    print(f"{result.kind.value} fit {status} in {result.n_iterations} iterations: "
          + ", ".join(bits) + f"; reduced chi2 {result.reduced_chi2:.4g}")


def _scan_column(rows, name):
    """One column of an absorption scan's rows, as floats."""
    try:
        return np.array([float(row[name]) for row in rows])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"missing or not a number ({exc!r})", field=name) from None


def cmd_od_fit(args) -> int:
    with open(args.input, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValidationError("absorption scan CSV is empty", field=str(args.input))
    x, y = _scan_column(rows, "detuning_mhz"), _scan_column(rows, "transmission")
    sigma = np.full_like(y, args.noise if args.noise else max(float(np.std(y)) * 0.05, 1e-4))
    p0 = initial_guess(x, y, ModelKind.ABSORPTION_OD)
    free = ("od", "center", "gamma") if args.free_gamma else None
    result = fit(x, y, sigma, ModelKind.ABSORPTION_OD, p0, free=free)
    ctx = ODContext(sigma0_cm2=args.sigma0, area_cm2=args.area)
    report = result.as_dict()
    report["atom_number"] = atom_number(result["od"], ctx)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    _print_fit(result)
    print(f"atom number {report['atom_number']:.4g}")
    if not result.converged:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_report(args) -> int:
    def load(path):
        if not path:
            return None
        with open(path) as fh:
            return json.load(fh)

    cross = load(args.cross)
    auto_s = load(args.auto_signal)
    auto_i = load(args.auto_idler)
    rows = []
    for label, rep in (("g2_si", cross), ("g2_ss", auto_s), ("g2_ii", auto_i)):
        if rep:
            rows.append((label, rep["params"]["tau_d"], rep["uncertainties"]["tau_d"],
                         rep["params"]["tau_c"], rep["uncertainties"]["tau_c"]))
    lines = ["correlation  tau_D (ns)          tau_c (ns)"]
    for label, td, tde, tc, tce in rows:
        lines.append(f"{label:<12} {td:.3g} +- {tde:.2g}      {tc:.3g} +- {tce:.2g}")
    tau_c = cross["params"]["tau_c"] if cross else args.tau_c
    if tau_c is not None:
        lines.append(f"bandwidth: {bandwidth_from_tau(tau_c):.4g} MHz")
        rc = args.rc if args.rc is not None else (cross or {}).get("coincidence_rate_hz")
        if rc is not None:
            lines.append(f"coincidence rate: {rc:.4g} s^-1")
            lines.append(
                f"spectral brightness: {spectral_brightness(rc, tau_c):.4g} (MHz s)^-1")
    if cross and auto_s and auto_i:
        g2_si = cross.get("g2_model_max")
        g2_ss = 1.0 + auto_s["params"]["g0"]
        g2_ii = 1.0 + auto_i["params"]["g0"]
        rep = cauchy_schwarz(g2_si, g2_ss, g2_ii)
        flag = "classical" if rep.classical else "NON-CLASSICAL"
        lines.append(f"Cauchy-Schwarz R = {rep.ratio:.4g} ({flag})")
    else:
        lines.append("Cauchy-Schwarz R: unavailable (needs cross + both autos)")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_sequence(args) -> int:
    config, _ = load_config(args.config)
    program = compile_duty_cycle(config.duty_cycle, config.hardware)
    gates = emit_gates(program, config.duty_cycle.gate_channel)
    if args.out:
        program.export_csv(args.out)
    print(f"{len(program.slots)} slots/cycle, {program.words_per_cycle} words/cycle, "
          f"{program.stored_words} words stored"
          + (" (hardware-looped)" if program.hardware_looped else "")
          + f", total {program.total_duration_us} us, {len(gates)} gate windows")
    for note in program.rounding_notes:
        print(f"note: {note}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Photon-pair source simulator and analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic tag stream")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("correlate", help="histogram a tag stream")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--bin-width", dest="bin_width", type=float, default=None)
    p.add_argument("--dt-min", dest="dt_min", type=float, default=None)
    p.add_argument("--dt-max", dest="dt_max", type=float, default=None)
    p.add_argument("--channel-a", dest="channel_a", type=int, default=None)
    p.add_argument("--channel-b", dest="channel_b", type=int, default=None)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("fit", help="fit a correlation histogram")
    p.add_argument("--input", required=True)
    p.add_argument("--model", choices=["cross", "auto"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", nargs=2, type=float, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--coincidence-window", dest="coincidence_window",
                   type=float, default=40.0)
    p.add_argument("--residuals", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("od-fit", help="fit an absorption scan for OD")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--noise", type=float, default=None,
                   help="per-point transmission noise sigma")
    p.add_argument("--free-gamma", dest="free_gamma", action="store_true")
    p.add_argument("--sigma0", type=float, default=ODContext.sigma0_cm2)
    p.add_argument("--area", type=float, default=ODContext.area_cm2)
    p.set_defaults(func=cmd_od_fit)

    p = sub.add_parser("report", help="summary table and Cauchy-Schwarz ratio")
    tau = p.add_mutually_exclusive_group()
    tau.add_argument("--cross", default=None)
    tau.add_argument("--tau-c", dest="tau_c", type=float, default=None,
                     help="coherence time in ns, in place of a cross fit report")
    p.add_argument("--auto-signal", dest="auto_signal", default=None)
    p.add_argument("--auto-idler", dest="auto_idler", default=None)
    p.add_argument("--rc", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sequence", help="compile the duty cycle")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sequence)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
