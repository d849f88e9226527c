"""Command-line front end: simulate -> correlate -> fit -> report, plus
OD analysis and sequence compilation.

Exit codes are stable: 0 success, 2 validation error, 3 I/O error,
4 data corruption, 5 fit non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import statistics
import sys

import numpy as np

from . import __version__
from .config import load_config
from .correlate import (AccidentalEstimate, CorrelationHistogram, HistogramConfig,
                        accidental_from_histogram, cross_correlate, coincidence_rate)
from .errors import (BiphotonError, CorruptionError, NonConvergenceError,
                     StreamFormatError, ValidationError)
from .fitting import PARAM_NAMES, ModelKind, fit, initial_guess, model_eval
from .metrics import (ODContext, atom_number, bandwidth_from_tau, cauchy_schwarz,
                      spectral_brightness)
from .pipeline import simulate_experiment, write_manifest
from .sequence import compile_duty_cycle, emit_gates, validate
from .tagio import StreamReader, write_stream

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_CORRUPTION = 4
EXIT_NONCONVERGENCE = 5

# The first class an error is an instance of gives its exit code, so
# subclasses come before their bases; ValidationError is a BiphotonError.
EXIT_CODES = (
    (NonConvergenceError, EXIT_NONCONVERGENCE),
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
        config = type(config)(**{**config.__dict__, "seed": args.seed})
    result = simulate_experiment(config, config_hash=digest)
    write_stream(result.stream, sink=args.out)
    manifest_path = args.manifest or (str(args.out) + ".manifest.json")
    write_manifest(result.manifest, manifest_path)
    print(f"wrote {result.manifest['n_tags']} tags over "
          f"{result.live_time_s:.6g} s gated live time to {args.out}")
    return EXIT_OK


def _histogram_config(args, config=None) -> HistogramConfig:
    base = config.histogram if config is not None else HistogramConfig()
    kwargs = {}
    for flag, name in (("bin_width", "bin_width"), ("dt_min", "dt_min"),
                       ("dt_max", "dt_max"), ("channel_a", "channel_a"),
                       ("channel_b", "channel_b")):
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[name] = value
    if kwargs:
        merged = {f: getattr(base, f) for f in
                  ("bin_width", "dt_min", "dt_max", "channel_a", "channel_b")}
        merged.update(kwargs)
        return HistogramConfig(**merged)
    return base


def cmd_correlate(args) -> int:
    config = None
    if args.config:
        config, _ = load_config(args.config)
    hist_cfg = _histogram_config(args, config)
    with StreamReader(args.input) as reader:
        hist = cross_correlate(reader, hist_cfg)
    acc = accidental_from_histogram(hist)
    sidecar = args.meta or (str(args.out) + ".meta.json")
    hist.export_csv(args.out, accidental=acc if acc.g_acc > 0 else None,
                    sidecar=sidecar)
    print(f"{hist.total_coincidences} coincidences in {hist.config.n_bins} bins; "
          f"R1={hist.rate_a:.6g} Hz R2={hist.rate_b:.6g} Hz "
          f"G_acc={acc.g_acc:.6g}/bin")
    return EXIT_OK


def _read_histogram_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValidationError("histogram CSV is empty", field=str(path))
    centers = np.array([float(r["bin_center_ns"]) for r in rows])
    counts = np.array([float(r["counts"]) for r in rows])
    return centers, counts


def _load_meta(path):
    meta_path = str(path) + ".meta.json"
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            return json.load(fh)
    return {}


def cmd_fit(args) -> int:
    centers, counts = _read_histogram_csv(args.input)
    meta = _load_meta(args.input)
    kind = ModelKind.CROSS_CONVOLVED if args.model == "cross" else ModelKind.AUTO_CONVOLVED
    g_acc = args.g_acc if args.g_acc is not None else meta.get("g_acc_per_bin")
    if not g_acc or g_acc <= 0:
        raise ValidationError("need a positive accidental floor "
                              "(--g-acc or histogram metadata)", field="g_acc")
    bin_width = meta.get("bin_width_ns")
    if bin_width is None:
        # statistics.median: np.median would import numpy.ma (about 12 ms).
        bin_width = statistics.median(np.diff(centers).tolist())
    y = counts / g_acc
    # sqrt(n + 1) tempers the low-count bias of sqrt(n) weights.
    sigma = np.sqrt(counts + 1.0) / g_acc
    if args.window:
        lo, hi = args.window
        sel = (centers >= lo) & (centers <= hi)
        centers, y, sigma = centers[sel], y[sel], sigma[sel]
    p0 = initial_guess(centers, y, kind)
    result = fit(centers, y, sigma, kind, p0, bin_width=bin_width)
    report = result.as_dict()
    report["g_acc_per_bin"] = g_acc
    report["bin_width_ns"] = bin_width
    report["g2_model_max"] = _model_maximum(result, centers)
    if meta:
        report["rates_hz"] = [meta.get("rate_a_hz"), meta.get("rate_b_hz")]
        report["duration_s"] = meta.get("duration_s")
        if args.model == "cross" and meta.get("duration_s"):
            hist_cfg = HistogramConfig(
                bin_width=meta["bin_width_ns"], dt_min=meta["dt_min_ns"],
                dt_max=meta["dt_max_ns"], channel_a=meta["channel_a"],
                channel_b=meta["channel_b"])
            hist = CorrelationHistogram(config=hist_cfg,
                                        counts=counts.astype(np.int64),
                                        duration_s=meta["duration_s"],
                                        n_a=meta.get("n_a", 0), n_b=meta.get("n_b", 0))
            acc = AccidentalEstimate(g_acc)
            report["coincidence_rate_hz"] = coincidence_rate(
                hist, args.coincidence_window, acc)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if args.residuals:
        model = model_eval(kind, result.params, centers)
        with open(args.residuals, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "observed", "model", "residual"])
            for xi, yi, mi in zip(centers, y, model):
                writer.writerow([f"{xi:.6f}", f"{yi:.9g}", f"{mi:.9g}",
                                 f"{yi - mi:.9g}"])
    _print_fit(result)
    if not result.converged:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _model_maximum(result, centers) -> float:
    grid = np.linspace(float(centers.min()), float(centers.max()), 20001)
    return float(np.max(model_eval(result.kind, result.params, grid)))


def _print_fit(result):
    names = PARAM_NAMES[result.kind]
    bits = [f"{n}={result[n]:.6g}+-{result.uncertainty(n):.3g}" for n in names]
    status = "converged" if result.converged else "NOT CONVERGED"
    print(f"{result.kind.value} fit {status} in {result.n_iterations} iterations: "
          + ", ".join(bits) + f"; reduced chi2 {result.reduced_chi2:.4g}")


def cmd_od_fit(args) -> int:
    with open(args.input, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValidationError("absorption scan CSV is empty", field=str(args.input))
    x = np.array([float(r["detuning_mhz"]) for r in rows])
    y = np.array([float(r["transmission"]) for r in rows])
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


def cmd_metrics(args) -> int:
    tau_c = args.tau_c
    rc = args.rc
    if args.fit_report:
        with open(args.fit_report) as fh:
            report = json.load(fh)
        tau_c = report["params"]["tau_c"]
        if rc is None:
            rc = report.get("coincidence_rate_hz")
    if tau_c is None:
        raise ValidationError("need --tau-c or --fit-report", field="tau_c")
    print(f"bandwidth {bandwidth_from_tau(tau_c):.6g} MHz from tau_c {tau_c:.6g} ns")
    if rc is not None:
        print(f"spectral brightness {spectral_brightness(rc, tau_c):.6g} (MHz s)^-1 "
              f"from r_c {rc:.6g} s^-1")
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
    if cross:
        tau_c = cross["params"]["tau_c"]
        lines.append(f"bandwidth: {bandwidth_from_tau(tau_c):.4g} MHz")
        rc = args.rc if args.rc is not None else cross.get("coincidence_rate_hz")
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
    diagnostics = validate(program, config.hardware)
    gates = emit_gates(program, config.duty_cycle.gate_channel)
    if args.out:
        program.export_csv(args.out)
    print(f"{len(program.slots)} slots/cycle, {program.words_per_cycle} words/cycle, "
          f"{program.stored_words} words stored"
          + (" (hardware-looped)" if program.hardware_looped else "")
          + f", total {program.total_duration_us} us, {len(gates)} gate windows")
    for note in program.rounding_notes:
        print(f"note: {note}")
    for diag in diagnostics:
        print(f"diagnostic[{diag['code']}]: {diag['message']}")
    return EXIT_OK if not diagnostics else EXIT_VALIDATION


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
    p.add_argument("--meta", default=None)
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
    p.add_argument("--g-acc", dest="g_acc", type=float, default=None)
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

    p = sub.add_parser("metrics", help="bandwidth and spectral brightness")
    p.add_argument("--tau-c", dest="tau_c", type=float, default=None)
    p.add_argument("--rc", type=float, default=None)
    p.add_argument("--fit-report", dest="fit_report", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("report", help="summary table and Cauchy-Schwarz ratio")
    p.add_argument("--cross", default=None)
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
