"""The benchmark's workloads: the input each one hands to the program, the
command chain it runs through ``biphoton.cli.main`` and the checks on the
chain's outputs.

Only the standard library is imported at module level; the replay writer
imports numpy when it runs. Nothing here imports ``biphoton``: inputs are
written from ``docs/timetag-format.md`` and outputs are checked from the
files the commands write, so a change to the program cannot change its
own input or its own checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

# Seeds: ``default_seed`` is used when --seed is not given; ``held_out_seed``
# is kept out of tuning, for confirming a claimed gain on fresh inputs.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

JITTER_NS = 0.61 / 2 ** 0.5  # per detector; 0.61 ns combined

# REFERENCE_CONDITIONS of the acceptance gate (criterion 1): 85 000 gates of
# 200 us, 17 s live time, about 545 k tags and no chaotic light.
REFERENCE_CONFIG = {
    "source": {"pair_rate": 26283.0, "tau_c": 4.4},
    "signal_detector": {"quantum_efficiency": 0.62, "jitter_sigma": JITTER_NS},
    "idler_detector": {"quantum_efficiency": 0.6034, "jitter_sigma": JITTER_NS},
    "duty_cycle": {"load_duration_us": 500, "fwm_duration_us": 200,
                   "cycles": 85_000},
}

# Source, detectors and 2 ms gates of CHAOTIC_PIPELINE (criterion 4b), with
# its 1.2 ns field grid; the cycle count is set per workload below.
CHAOTIC_CONFIG = {
    "source": {"pair_rate": 4e5, "tau_c": 4.4,
               "uncorrelated_rate_s": 2e5, "uncorrelated_rate_i": 2e5,
               "chaotic_tau_s": 18.9, "chaotic_tau_i": 12.8,
               "chaotic_grid_dt_ns": 1.2},
    "signal_detector": {"quantum_efficiency": 0.62, "jitter_sigma": JITTER_NS},
    "idler_detector": {"quantum_efficiency": 0.60, "jitter_sigma": JITTER_NS},
    "duty_cycle": {"load_duration_us": 500, "fwm_duration_us": 2000,
                   "cycles": 24},
}

# Statistical checks accept within N_SIGMA standard errors. Every run draws
# fresh inputs from its seed and a run makes up to six such checks, so at
# 3 sigma about one honest run in 60 would fail; at 4 sigma one in 2500.
N_SIGMA = 4.0

AUTO_ARGS = ("--dt-min", "-100", "--dt-max", "100")


@dataclass
class Step:
    """One operation of a chain: a CLI command, or the Cauchy-Schwarz
    report that the chain computes with ``biphoton.metrics``."""

    op: str
    argv: list


@dataclass
class Workload:
    name: str
    why: str
    kind: str  # reference | chaotic | replay
    size: int  # duty cycles (simulated) or tag pairs (replay)

    def config(self, seed: int) -> dict | None:
        if self.kind == "replay":
            return None
        base = REFERENCE_CONFIG if self.kind == "reference" else CHAOTIC_CONFIG
        doc = json.loads(json.dumps(base))
        doc["seed"] = program_seed(seed)
        doc["duty_cycle"]["cycles"] = self.size
        return doc

    def steps(self, stream: str, out: str, config: str | None) -> list[Step]:
        """The chain, as CLI argument lists. ``stream`` is the tag file the
        chain analyses: written by ``simulate`` unless this is a replay."""
        def path(name):
            return os.path.join(out, name)

        steps = []
        if self.kind != "replay":
            steps.append(Step("simulate", ["simulate", "--config", config,
                                           "--out", stream]))
        steps.append(Step("correlate_si", ["correlate", "--input", stream,
                                           "--out", path("si.csv")]))
        if self.kind != "reference":
            for op, ch in (("correlate_ss", "0"), ("correlate_ii", "1")):
                steps.append(Step(op, ["correlate", "--input", stream,
                                       "--out", path(op[-2:] + ".csv"),
                                       "--channel-a", ch, "--channel-b", ch,
                                       *AUTO_ARGS]))
        steps.append(Step("fit_cross", ["fit", "--input", path("si.csv"),
                                        "--model", "cross",
                                        "--out", path("cross.json")]))
        if self.kind == "chaotic":
            steps.append(Step("cauchy_schwarz", [path("cross.json"),
                                                 path("ss.csv"), path("ii.csv"),
                                                 path("cs.json")]))
        return steps

    def check(self, out: str, stream: str) -> list[tuple[str, bool, str]]:
        """(op, ok, detail) for each check on one chain's outputs."""
        results = []

        def add(op, ok, detail):
            results.append((op, bool(ok), detail))

        if self.kind == "reference":
            manifest = _load_json(stream + ".manifest.json")
            live = self.size * 200e-6
            add("simulate", abs(manifest["live_time_s"] - live) < 1e-9,
                f"live time {manifest['live_time_s']} s (want {live:g})")
        si = read_histogram(os.path.join(out, "si.csv"))
        if self.kind == "reference":
            meta = si["meta"]
            ok = all(14_000 < meta[k] < 18_000 for k in ("rate_a_hz", "rate_b_hz"))
            add("correlate_si", ok, f"singles {meta['rate_a_hz']:.0f}/"
                f"{meta['rate_b_hz']:.0f} Hz (want 14-18 kHz)")
            add("correlate_si", *_wing_floor(si, 200.0, 350.0))
        if self.kind == "replay":
            for op in ("correlate_ss", "correlate_ii"):
                auto = read_histogram(os.path.join(out, op[-2:] + ".csv"))
                add(op, *_wing_floor(auto, 20.0, 100.0, symmetric=True))
                add(op, *_zero_bin_poisson(auto))
        fit = _load_json(os.path.join(out, "cross.json"))
        tau_c, tau_d = fit["params"]["tau_c"], fit["params"]["tau_d"]
        add("fit_cross", fit["converged"] and abs(tau_c - 4.4) <= 0.3,
            f"converged {fit['converged']}, tau_c {tau_c:.4f} ns (want 4.4+-0.3)")
        if self.kind != "chaotic":
            add("fit_cross", abs(tau_d - 0.61) <= 0.1,
                f"tau_d {tau_d:.4f} ns (want 0.61+-0.1)")
        if self.kind == "chaotic":
            cs = _load_json(os.path.join(out, "cs.json"))
            add("cauchy_schwarz", cs["ratio"] > 1e4 and not cs["classical"],
                f"R {cs['ratio']:.4g} (want > 1e4)")
        return results


def program_seed(seed: int) -> int:
    """The config seed for a benchmark seed (configs need a non-negative int)."""
    return seed % (1 << 32)


# One line each; these are BENCHMARK.json's reasons.
WORKLOADS = {
    "reference": Workload(
        "reference",
        "acceptance REFERENCE_CONDITIONS, 85000 gates and 545k tags: per-gate "
        "Python work in simulate and write_stream dominates; correlate and fit do little",
        "reference", 85_000),
    "chaotic": Workload(
        "chaotic",
        "CHAOTIC_PIPELINE, 24 gates of 2 ms on a 1.2 ns field grid: the chaotic "
        "generator's cost per cell is 99% of the run; gate and file work is negligible",
        "chaotic", 24),
    "replay": Workload(
        "replay",
        "no simulation: a 6M-tag stream with the reference gate table, written "
        "by the benchmark; reading and correlating it (si, ss, ii) do all the work",
        "replay", 2_000_000),
}


def small(name: str) -> Workload:
    """A quick version of a workload, for the benchmark's own tests."""
    w = WORKLOADS[name]
    size = {"reference": 2000, "chaotic": 2, "replay": 20_000}[w.kind]
    return Workload(w.name, w.why, w.kind, size)


# ---------------------------------------------------------------- outputs

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_histogram(path) -> dict:
    """Histogram CSV and its metadata sidecar, as written by ``correlate``."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {"centers": [float(r["bin_center_ns"]) for r in rows],
            "counts": [int(r["counts"]) for r in rows],
            "meta": _load_json(path + ".meta.json")}


def _floor_per_bin(meta) -> float:
    """Accidental coincidences per bin of two independent streams, R1 R2 dt T."""
    return (meta["rate_a_hz"] * meta["rate_b_hz"] * meta["bin_width_ns"] * 1e-9
            * meta["duration_s"])


def _wing_floor(hist, lo, hi, symmetric=False):
    wing = [n for c, n in zip(hist["centers"], hist["counts"])
            if lo <= (abs(c) if symmetric else c) <= hi]
    expected = _floor_per_bin(hist["meta"])
    mean = sum(wing) / len(wing)
    z = abs(mean - expected) / math.sqrt(expected / len(wing))
    return z <= N_SIGMA, (f"wing mean {mean:.3f}/bin vs R1R2dtT {expected:.3f} "
                          f"({z:.2f} sigma, {len(wing)} bins)")


def zero_bin_counts(hist) -> int:
    """Coincidences in the bin nearest zero delay."""
    zero = min(range(len(hist["centers"])), key=lambda i: abs(hist["centers"][i]))
    return hist["counts"][zero]


def _zero_bin_poisson(hist):
    expected = _floor_per_bin(hist["meta"])
    g2 = zero_bin_counts(hist) / expected
    z = abs(g2 - 1.0) * math.sqrt(expected)
    return z <= N_SIGMA, f"auto g2(0) {g2:.4f} (want 1, {z:.2f} sigma)"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ----------------------------------------------------------------- replay

REPLAY_CYCLES = 85_000
REPLAY_CYCLE_PS = 700_000_000  # 500 us load + 200 us gate
REPLAY_GATE_START_PS = 500_000_000
REPLAY_GATE_PS = 200_000_000
REPLAY_TAU_C_PS = 4400.0
REPLAY_JITTER_PS = 430.0
REPLAY_KEEP = 2  # replay files kept in the cache, most recently used first


def write_replay(path: str, seed: int, pairs: int):
    """Write a recorded-style stream per docs/timetag-format.md.

    ``pairs`` signal-idler pairs (idler delay Exp(4.4 ns), 0.43 ns Gaussian
    jitter per tag) plus ``pairs // 2`` flat background tags per channel,
    uniform over the gated live time of the reference duty cycle.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([program_seed(seed), pairs]))
    starts = (np.arange(REPLAY_CYCLES, dtype=np.int64) * REPLAY_CYCLE_PS
              + REPLAY_GATE_START_PS)
    live_ps = REPLAY_CYCLES * REPLAY_GATE_PS

    def in_gates(n):
        u = rng.integers(0, live_ps, size=n)
        return starts[u // REPLAY_GATE_PS] + u % REPLAY_GATE_PS

    def jitter(n):
        return np.rint(rng.standard_normal(n) * REPLAY_JITTER_PS).astype(np.int64)

    n_bg = pairs // 2
    signal = in_gates(pairs)
    idler = signal + rng.exponential(REPLAY_TAU_C_PS, pairs).astype(np.int64)
    signal += jitter(pairs)
    idler += jitter(pairs)
    times = np.concatenate([signal, in_gates(n_bg), idler, in_gates(n_bg)])
    channels = np.repeat(np.array([0, 1], np.uint64), pairs + n_bg)
    order = np.argsort(times, kind="stable")
    records = (times[order].astype(np.uint64) << np.uint64(8)) | channels[order]

    header = struct.pack("<8sHHIHHdQQI", b"BIPHTAG\0", 1, 0, 1, 2, 0,
                         live_ps * 1e-12, 48, 0, 0)
    table = np.empty((REPLAY_CYCLES, 2), dtype="<u8")
    table[:, 0] = starts
    table[:, 1] = starts + REPLAY_GATE_PS
    tmp = path + ".partial"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(struct.pack("<I", REPLAY_CYCLES))
        fh.write(table.tobytes())
        fh.write(records.astype("<u8").tobytes())
    os.replace(tmp, path)


def replay_input(cache_dir: str, seed: int, pairs: int) -> str:
    """The replay stream for (seed, pairs), from the cache when its digest
    still matches; the cache keeps the REPLAY_KEEP most recently used files."""
    os.makedirs(cache_dir, exist_ok=True)
    stem = os.path.join(cache_dir, f"replay-{program_seed(seed)}-{pairs}")
    path, digest_path = stem + ".tags", stem + ".sha256"
    cached = None
    if os.path.exists(path) and os.path.exists(digest_path):
        with open(digest_path) as fh:
            cached = fh.read().strip()
    if cached is None or cached != file_digest(path):
        write_replay(path, seed, pairs)
        with open(digest_path, "w") as fh:
            fh.write(file_digest(path) + "\n")
    os.utime(path)
    tags = sorted((f for f in os.listdir(cache_dir) if f.endswith(".tags")),
                  key=lambda f: os.path.getmtime(os.path.join(cache_dir, f)))
    for old in tags[:-REPLAY_KEEP]:
        for suffix in (".tags", ".sha256"):
            try:
                os.remove(os.path.join(cache_dir, old[:-5] + suffix))
            except FileNotFoundError:
                pass
    return path
