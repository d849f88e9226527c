"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (visible with pytest -s or on failure)."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from oracles import auto_model, convolved_exponential, cross_model, \
    brute_force_histogram
from biphoton.metrics import PhaseMatchSpec, check_phase_matching
from biphoton.cli import fit_histogram, main
from biphoton.config import config_from_dict
from biphoton.correlate import HistogramConfig, StreamCorrelator, cross_correlate
from biphoton.fitting import ModelKind, fit, initial_guess, model_eval
from biphoton.metrics import (ODContext, atom_number, bandwidth_from_tau,
                              cauchy_schwarz, spectral_brightness)
from biphoton.pipeline import simulate_experiment
from biphoton.sequence import (DutyCycleSpec, HardwareProfile, SequenceProgram,
                               Slot, compile_duty_cycle, emit_gates)
from biphoton.simulate import SourceConfig, generate_chaotic_gated, split_hbt
from biphoton.tagio import StreamHeader, StreamReader

from streams import read_arrays, stream_file


def check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"{name}: {detail}"


REFERENCE_CONDITIONS = {
    # 16 kHz singles per channel after detection, 17 s gated live time.
    "seed": 1,
    "source": {"pair_rate": 26283.0, "tau_c": 4.4},
    "signal_detector": {"quantum_efficiency": 0.62,
                        "jitter_sigma": 0.61 / 2 ** 0.5},
    "idler_detector": {"quantum_efficiency": 0.6034,
                       "jitter_sigma": 0.61 / 2 ** 0.5},
    "duty_cycle": {"load_duration_us": 500, "fwm_duration_us": 200,
                   "cycles": 85_000},
}


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("reference") / "run.tags"
    start = time.perf_counter()
    manifest = simulate_experiment(config_from_dict(REFERENCE_CONDITIONS), path)
    with StreamReader(path) as reader:
        hist = cross_correlate(reader, HistogramConfig())
    acc = hist.g_acc
    fit_result = fit_histogram(hist, ModelKind.CROSS_CONVOLVED)
    elapsed = time.perf_counter() - start
    return {"hist": hist, "fit": fit_result, "acc": acc, "elapsed": elapsed,
            "live_time_s": manifest["live_time_s"]}


def test_criterion_01_heralded_coherence_recovery(reference_run):
    r = reference_run["fit"]
    tau_c, tau_d = r["tau_c"], r["tau_d"]
    hist = reference_run["hist"]
    ok = (abs(tau_c - 4.4) <= 0.3 and abs(tau_d - 0.61) <= 0.1
          and reference_run["elapsed"] < 120 and r.converged
          and abs(reference_run["live_time_s"] - 17.0) < 1e-9
          and 14_000 < hist.rate_a < 18_000 and 14_000 < hist.rate_b < 18_000)
    check("criterion 1 (heralded coherence recovery)", ok,
          f"tau_c={tau_c:.3f} ns (target 4.4+-0.3), tau_d={tau_d:.3f} ns "
          f"(target 0.61+-0.1), singles {hist.rate_a:.0f}/{hist.rate_b:.0f} Hz, "
          f"runtime {reference_run['elapsed']:.1f} s")


def test_criterion_02_accidental_floor(reference_run):
    hist = reference_run["hist"]
    centers = hist.bin_centers_ns()
    wings = (centers >= 200.0) & (centers <= 350.0)
    mean = float(hist.counts[wings].mean())
    expected = hist.rate_a * hist.rate_b * hist.config.bin_width * 1e-9 * \
        hist.duration_s
    sigma_mean = np.sqrt(expected / wings.sum())
    ok = abs(mean - expected) <= 3 * sigma_mean
    check("criterion 2 (accidental floor)", ok,
          f"wing mean {mean:.3f}/bin vs R1*R2*dt*T {expected:.3f} "
          f"(|diff| = {abs(mean - expected) / sigma_mean:.2f} sigma)")


def test_criterion_03_bandwidth_and_brightness():
    bw = bandwidth_from_tau(4.4)
    b = spectral_brightness(1e4, 4.4)
    ok = abs(bw - 36.2) / 36.2 <= 0.003 and 0.01 <= abs(b - 280) / 280 <= 0.05
    check("criterion 3 (bandwidth and brightness)", ok,
          f"bandwidth {bw:.4f} MHz (target 36.2 +- 0.3%), "
          f"brightness {b:.1f} per MHz*s (276 expected, 280 quoted)")


CHAOTIC_PIPELINE = {
    "seed": 7,
    "source": {"pair_rate": 4e5, "tau_c": 4.4,
               "uncorrelated_rate_s": 2e5, "uncorrelated_rate_i": 2e5,
               "chaotic_tau_s": 18.9, "chaotic_tau_i": 12.8,
               "chaotic_grid_dt_ns": 1.2},
    "signal_detector": {"quantum_efficiency": 0.62,
                        "jitter_sigma": 0.61 / 2 ** 0.5},
    "idler_detector": {"quantum_efficiency": 0.60,
                       "jitter_sigma": 0.61 / 2 ** 0.5},
    "duty_cycle": {"load_duration_us": 500, "fwm_duration_us": 2000,
                   "cycles": 150},
}


def _auto_zero_g2(stream, source_channel, out_channels, seed):
    channels, timestamps, header = stream
    split = stream_file(split_hbt(channels, source_channel, out_channels, seed),
                        timestamps, header)
    cfg = HistogramConfig(bin_width=1.4, dt_min=-50, dt_max=50,
                          channel_a=out_channels[0], channel_b=out_channels[1])
    hist = cross_correlate(StreamReader(split), cfg)
    g_acc = hist.g_acc
    zero = int(np.argmin(np.abs(hist.bin_centers_ns())))
    # Conservative denominator: never below the coherent-light value.
    return max(float(hist.counts[zero]) / g_acc, 1.0)


def test_criterion_04_cauchy_schwarz(tmp_path):
    # (a) reference fitted inputs.
    rep = cauchy_schwarz(1270.0, 1.77, 1.63)
    ok_a = (abs(rep.ratio - 5.59e5) / 5.59e5 < 0.005
            and abs(rep.ratio - 5.62e5) / 5.62e5 <= 0.01
            and not rep.classical)

    # (b) full simulated pipeline: pairs plus chaotic singles on both arms.
    path = tmp_path / "chaotic.tags"
    simulate_experiment(config_from_dict(CHAOTIC_PIPELINE), path)
    with StreamReader(path) as reader:
        hist = cross_correlate(reader, HistogramConfig())
    cross_fit = fit_histogram(hist, ModelKind.CROSS_CONVOLVED)
    grid = np.linspace(-20, 60, 8001)
    g2_si = float(np.max(model_eval(ModelKind.CROSS_CONVOLVED,
                                    cross_fit.params, grid)))
    with StreamReader(path) as reader:  # the HBT split needs the arrays
        stream = (*read_arrays(reader), reader.header)
    g2_ss = _auto_zero_g2(stream, 0, (2, 3), seed=101)
    g2_ii = _auto_zero_g2(stream, 1, (4, 5), seed=102)
    pipeline = cauchy_schwarz(g2_si, g2_ss, g2_ii)
    ok_b = pipeline.ratio > 1e4 and not pipeline.classical

    # Siegert property of the chaotic generator at desk-scale statistics.
    tau, rate, duration_ns = 50.0, 2e7, 5e7
    src = SourceConfig(uncorrelated_rate_s=rate, chaotic_tau_s=tau,
                       chaotic_grid_dt_ns=0.5)
    times = generate_chaotic_gated(src, "signal", [(0, int(duration_ns * 1000))],
                                   seed=13)
    stream = stream_file(np.zeros(len(times), np.uint8), times,
                         StreamHeader(acquisition_seconds=duration_ns * 1e-9))
    cfg = HistogramConfig(bin_width=0.5, dt_min=-100, dt_max=100,
                          channel_a=0, channel_b=0)
    auto = cross_correlate(StreamReader(stream), cfg)
    floor = rate ** 2 * cfg.bin_width * 1e-9 * duration_ns * 1e-9
    zero = int(np.argmin(np.abs(auto.bin_centers_ns())))
    g2_zero = float(auto.counts[zero]) / floor
    ok_c = abs(g2_zero - 2.0) <= 0.05

    check("criterion 4 (Cauchy-Schwarz)", ok_a and ok_b and ok_c,
          f"reference inputs R={rep.ratio:.4g} (target 5.59e5 +- 1% of 5.62e5); "
          f"pipeline R={pipeline.ratio:.4g} (>1e4, g2_si={g2_si:.1f}, "
          f"autos {g2_ss:.2f}/{g2_ii:.2f}); Siegert g2(0)={g2_zero:.3f} "
          f"(2 +- 0.05)")


def test_criterion_05_convolution_model_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(100):
        tau_c = rng.uniform(0.5, 30.0)
        sigma = rng.uniform(0.05, 3.0)
        baseline = rng.uniform(0.0, 3.0)
        t = rng.uniform(-5 * sigma, 5 * tau_c, size=7)
        if i % 2 == 0:
            amplitude = rng.uniform(1.0, 2000.0)
            params = np.array([amplitude, tau_c, sigma, baseline])
            analytic = model_eval(ModelKind.CROSS_CONVOLVED, params, t)
            reference = np.array([cross_model(ti, amplitude, tau_c, sigma,
                                              baseline) for ti in t])
        else:
            g0 = rng.uniform(0.01, 1.0)
            params = np.array([g0, tau_c, sigma, baseline])
            analytic = model_eval(ModelKind.AUTO_CONVOLVED, params, t)
            reference = np.array([auto_model(ti, g0, tau_c, sigma, baseline)
                                  for ti in t])
        scale = np.maximum(np.abs(reference), 1e-30)
        worst = max(worst, float(np.max(np.abs(analytic - reference) / scale)))
    ok = worst < 1e-6
    check("criterion 5 (convolution-model oracle)", ok,
          f"max relative error {worst:.3g} over 100 draws (< 1e-6)")


def test_criterion_06_brute_force_correlator_equivalence():
    rng = np.random.default_rng(66)
    cfg = HistogramConfig(bin_width=1.4, dt_min=-50, dt_max=350)
    auto_cfg = HistogramConfig(bin_width=1.4, dt_min=-50, dt_max=350,
                               channel_a=0, channel_b=0)
    mismatches = 0
    for i in range(50):
        n = int(rng.integers(100, 10_001))
        ts = np.sort(rng.integers(0, 400_000, n)).astype(np.int64)
        ch = rng.integers(0, 2, n).astype(np.uint8)
        stream = stream_file(ch, ts, StreamHeader(acquisition_seconds=4e-7))
        config = auto_cfg if i % 5 == 0 else cfg
        fast = cross_correlate(StreamReader(stream), config).counts
        slow = brute_force_histogram(
            ch, ts, channel_a=config.channel_a, channel_b=config.channel_b,
            dt_min_ps=config.dt_min_ps, bin_width_ps=config.bin_width_ps,
            n_bins=config.n_bins)
        if not np.array_equal(fast, slow):
            mismatches += 1
    ok = mismatches == 0
    check("criterion 6 (brute-force correlator equivalence)", ok,
          f"{50 - mismatches}/50 streams with exact count equality")


def test_criterion_07_od_pipeline():
    rng = np.random.default_rng(55)
    x = np.linspace(-60.0, 60.0, 241)
    truth = np.array([20.0, 6.065, 0.0])
    y = model_eval(ModelKind.ABSORPTION_OD, truth, x)
    y = y * (1.0 + 0.01 * rng.standard_normal(len(x)))
    sigma = np.maximum(0.01 * np.abs(y), 1e-6)
    result = fit(x, y, sigma, ModelKind.ABSORPTION_OD,
                 initial_guess(x, y, ModelKind.ABSORPTION_OD))
    od = result["od"]
    n = atom_number(od, ODContext())
    ok = abs(od - 20.0) <= 0.5 and abs(n - 5.5e7) / 5.5e7 < 0.01
    check("criterion 7 (OD pipeline)", ok,
          f"fitted OD {od:.3f} +- {result.uncertainty('od'):.3f} "
          f"(target 20 +- 0.5), atom number {n:.4g} (target ~5.5e7)")


def test_criterion_08_sequencer_budget():
    profile = HardwareProfile(slot_duration_us=20, ram_words=16_384)
    full = SequenceProgram(slots=[Slot(0)] * 16_384, profile=profile,
                           cycles=1, hardware_looped=False)
    spec = DutyCycleSpec(load_duration_us=500, fwm_duration_us=200, cycles=85)
    program = compile_duty_cycle(spec, profile)
    gates = emit_gates(program, spec.gate_channel)
    gated_ps = sum(g[1] - g[0] for g in gates)
    ok = (full.total_duration_us == 327_680
          and len(program.slots) == 35
          and gated_ps == 85 * 200 * 1_000_000)
    check("criterion 8 (sequencer budget)", ok,
          f"16384 words = {full.total_duration_us / 1000:.3f} ms (327.680), "
          f"{len(program.slots)} slots/cycle (35), gated "
          f"{gated_ps / 1e6:.0f} us (= 200 us x 85 exactly)")


def test_criterion_09_phase_matching():
    spec = PhaseMatchSpec.colinear(lambda_p1_nm=780.0, lambda_p2_nm=776.0,
                                   lambda_s_nm=762.0, lambda_i_nm=795.0)
    loose = check_phase_matching(spec, rel_tol=1e-3)
    tight = check_phase_matching(spec, rel_tol=1e-5)
    ok = loose.passes and not tight.passes
    check("criterion 9 (phase matching)", ok,
          f"nominal wavelengths: rel residual {loose.energy_relative:.3g} "
          f"passes at 1e-3, fails at 1e-5")


def test_criterion_10_throughput():
    n_total = 100_000_000
    chunk = 4_000_000
    span_ps = 2_000_000_000_000  # 2 s of wall clock per chunk at 2 MHz
    rng = np.random.default_rng(99)
    corr = StreamCorrelator(HistogramConfig())
    feed_time = 0.0
    for i in range(n_total // chunk):
        ts = np.sort(rng.integers(0, span_ps, chunk)) + i * span_ps
        ch = rng.integers(0, 2, chunk).astype(np.uint8)
        t0 = time.perf_counter()
        corr.feed(ch, ts)
        feed_time += time.perf_counter() - t0
    rate = n_total / feed_time
    hist = corr.finish(n_total / 2e6)
    ok_rate = rate >= 2.5e6 and hist.total_coincidences > 0

    # Streaming reader stays memory-bounded regardless of file size.
    n_file = 4_000_000
    ts = np.sort(rng.integers(0, 1 << 48, n_file)).astype(np.int64)
    buf = stream_file(rng.integers(0, 2, n_file).astype(np.uint8), ts)
    file_bytes = buf.getbuffer().nbytes
    del ts
    reader = StreamReader(buf, chunk_records=1 << 16)
    tracemalloc.start()
    n_read = sum(len(t) for _, t in reader.chunks())
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    ok_mem = n_read == n_file and peak < file_bytes / 4
    check("criterion 10 (throughput)", ok_rate and ok_mem,
          f"{rate / 1e6:.2f} Mtags/s on 1e8 tags (>= 2.5), streaming peak "
          f"{peak / 1e6:.1f} MB on a {file_bytes / 1e6:.0f} MB stream")


def test_criterion_11_reproducibility(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "seed": 5,
        "source": {"pair_rate": 1e5, "tau_c": 4.4},
        "signal_detector": {"jitter_sigma": 0.43},
        "idler_detector": {"jitter_sigma": 0.43},
        "duty_cycle": {"cycles": 2000},
    }))
    streams, reports = [], []
    for run in ("a", "b"):
        stream = tmp_path / f"{run}.tags"
        hist = tmp_path / f"{run}.csv"
        report = tmp_path / f"{run}.json"
        assert main(["simulate", "--config", str(config), "--out", str(stream)]) == 0
        assert main(["correlate", "--input", str(stream), "--out", str(hist)]) == 0
        assert main(["fit", "--input", str(hist), "--model", "cross",
                     "--out", str(report)]) == 0
        streams.append(stream.read_bytes())
        reports.append(report.read_text())
    ok = streams[0] == streams[1] and reports[0] == reports[1]
    check("criterion 11 (reproducibility)", ok,
          f"stream files byte-identical: {streams[0] == streams[1]}, "
          f"fit reports identical: {reports[0] == reports[1]}")
