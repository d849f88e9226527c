"""Monte Carlo photon source and detector model.

Correlated pairs are drawn as a gated Poisson process with exponentially
delayed idlers; chaotic singles come from a doubly stochastic Poisson
process driven by a complex Gaussian field with Lorentzian spectrum, which
yields the thermal-light relation g2(dt) = 1 + exp(-2|dt|/tau) without
modelling atom-number fluctuations.

Gates are the sorted, disjoint ``(n, 2)`` int64 array of half-open
``[start, end)`` ps windows that ``tagio.check_gates`` accepts; a list of
``(start, end)`` pairs works too.

All randomness is derived from ``numpy.random.SeedSequence`` so identical
seeds and configs reproduce bit-identical streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import ResolutionError, ValidationError
from .tagio import StreamHeader, TagStream, check_gates

SIGNAL = 0
IDLER = 1
SPECIES_NAMES = {"signal": SIGNAL, "idler": IDLER}

PS_PER_S = 1_000_000_000_000
PS_PER_NS = 1000


@dataclass(frozen=True)
class SourceConfig:
    """Emission-side knobs. Rates in s^-1, times in ns.

    ``pair_rate`` applies while a gate is open; the uncorrelated rates set
    the chaotic singles floor of each channel.
    """

    pair_rate: float = 0.0
    tau_c: float = 4.4
    chaotic_tau_s: float = 18.9
    chaotic_tau_i: float = 12.8
    uncorrelated_rate_s: float = 0.0
    uncorrelated_rate_i: float = 0.0
    chaotic_grid_dt_ns: float | None = None  # default: tau / 20 per channel

    def __post_init__(self):
        for name in ("pair_rate", "uncorrelated_rate_s", "uncorrelated_rate_i"):
            if getattr(self, name) < 0:
                raise ValidationError("rates must be non-negative", field=name)
        for name in ("tau_c", "chaotic_tau_s", "chaotic_tau_i"):
            if getattr(self, name) <= 0:
                raise ValidationError("times must be positive", field=name)
        if self.chaotic_grid_dt_ns is not None and self.chaotic_grid_dt_ns <= 0:
            raise ValidationError("must be positive", field="chaotic_grid_dt_ns")


@dataclass(frozen=True)
class DetectorConfig:
    quantum_efficiency: float = 1.0
    dark_rate: float = 0.0  # counts/s
    jitter_sigma: float = 0.0  # ns
    dead_time: float = 0.0  # ns

    def __post_init__(self):
        if not 0.0 <= self.quantum_efficiency <= 1.0:
            raise ValidationError("must be within [0, 1]", field="quantum_efficiency")
        for name in ("dark_rate", "jitter_sigma", "dead_time"):
            if getattr(self, name) < 0:
                raise ValidationError("must be non-negative", field=name)


@dataclass
class EmissionBatch:
    """Column-wise emission events, sorted by time."""

    times_ps: np.ndarray  # int64
    species: np.ndarray  # uint8
    pair_ids: np.ndarray  # int64, 0 for unpaired

    def __len__(self):
        return len(self.times_ps)

    def select(self, species: int) -> "EmissionBatch":
        m = self.species == species
        return EmissionBatch(self.times_ps[m], self.species[m], self.pair_ids[m])

    @staticmethod
    def empty() -> "EmissionBatch":
        return EmissionBatch(np.zeros(0, np.int64), np.zeros(0, np.uint8),
                             np.zeros(0, np.int64))


def merge_batches(*batches: EmissionBatch) -> EmissionBatch:
    times = np.concatenate([b.times_ps for b in batches])
    species = np.concatenate([b.species for b in batches])
    pair_ids = np.concatenate([b.pair_ids for b in batches])
    order = np.argsort(times, kind="stable")
    return EmissionBatch(times[order], species[order], pair_ids[order])


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def generate_pairs(src: SourceConfig, gates, seed) -> EmissionBatch:
    """Signal/idler pair emissions inside the gate windows.

    Signal times are a homogeneous Poisson process at ``pair_rate``
    restricted to the gates; each idler follows its signal by an
    Exp(tau_c) delay. Paired events share a 1-based pair id.
    """
    gates = check_gates(gates)
    rng = np.random.default_rng(_seed_sequence(seed))
    if not len(gates) or src.pair_rate == 0:
        return EmissionBatch.empty()

    widths_ps = (gates[:, 1] - gates[:, 0]).astype(float)
    counts = rng.poisson(src.pair_rate * (widths_ps / PS_PER_S))
    total = int(counts.sum())
    if total == 0:
        return EmissionBatch.empty()
    starts = np.repeat(gates[:, 0], counts)
    widths = np.repeat(widths_ps, counts)
    signal_ps = starts + (rng.random(total) * widths).astype(np.int64)
    signal_ps.sort(kind="stable")
    delays_ps = rng.exponential(src.tau_c * PS_PER_NS, size=total)
    idler_ps = signal_ps + np.maximum(delays_ps.astype(np.int64), 0)

    pair_ids = np.arange(1, total + 1, dtype=np.int64)
    batch = EmissionBatch(
        times_ps=np.concatenate([signal_ps, idler_ps]),
        species=np.concatenate([np.full(total, SIGNAL, np.uint8),
                                np.full(total, IDLER, np.uint8)]),
        pair_ids=np.concatenate([pair_ids, pair_ids]),
    )
    return merge_batches(batch)


def generate_chaotic(src: SourceConfig, channel: str, duration_ns: float, seed,
                     grid_dt_ns: float | None = None,
                     start_ps: int = 0) -> EmissionBatch:
    """Chaotic (thermal) singles for one channel over ``duration_ns``.

    The intensity is |E(t)|^2 with E a unit-power complex first-order
    autoregressive process whose correlation time is the channel's
    chaotic tau, so the events asymptotically satisfy
    g2(dt) = 1 + exp(-2 |dt| / tau).
    """
    species = SPECIES_NAMES.get(channel)
    if species is None:
        raise ValidationError(f"unknown channel {channel!r}", field="channel")
    tau = src.chaotic_tau_s if species == SIGNAL else src.chaotic_tau_i
    rate = src.uncorrelated_rate_s if species == SIGNAL else src.uncorrelated_rate_i
    if duration_ns <= 0:
        raise ValidationError("duration must be positive", field="duration_ns")
    if grid_dt_ns is None:
        grid_dt_ns = src.chaotic_grid_dt_ns or tau / 20.0
    if grid_dt_ns > tau / 10.0:
        raise ResolutionError(
            f"grid {grid_dt_ns} ns too coarse for chaotic tau {tau} ns "
            f"(need <= tau/10)")
    if rate == 0:
        return EmissionBatch.empty()

    rng = np.random.default_rng(_seed_sequence(seed))
    n_cells = int(math.ceil(duration_ns / grid_dt_ns))
    rho = math.exp(-grid_dt_ns / tau)
    drive = math.sqrt(1.0 - rho * rho)
    mean_per_cell = rate * grid_dt_ns * 1e-9

    # Stationary start: the two field quadratures each carry variance 1/2,
    # so the intensity x^2 + y^2 averages to 1.
    zi = rho * rng.standard_normal((2, 1)) / math.sqrt(2)

    chunk = 1 << 20
    times_out = []
    produced = 0
    while produced < n_cells:
        n = min(chunk, n_cells - produced)
        noise = rng.standard_normal((2, n)) / math.sqrt(2)
        quads, zi = lfilter([drive], [1.0, -rho], noise, axis=1, zi=zi)
        intensity = quads[0] ** 2
        intensity += quads[1] ** 2
        # Poissonization: per-cell independent Poisson counts are equivalent
        # to one Poisson total thrown onto cells proportionally to intensity.
        cum = np.cumsum(intensity)
        total = int(rng.poisson(mean_per_cell * cum[-1]))
        if total:
            u = rng.random(total) * cum[-1]
            cell_idx = produced + np.searchsorted(cum, u, side="right")
            t_ns = (cell_idx + rng.random(total)) * grid_dt_ns
            t_ps = start_ps + (t_ns * PS_PER_NS).astype(np.int64)
            t_ps.sort(kind="stable")
            times_out.append(t_ps)
        produced += n

    if not times_out:
        return EmissionBatch.empty()
    times = np.concatenate(times_out)
    return EmissionBatch(times_ps=times,
                         species=np.full(len(times), species, np.uint8),
                         pair_ids=np.zeros(len(times), np.int64))


def generate_chaotic_gated(src: SourceConfig, channel: str, gates, seed) -> EmissionBatch:
    """Chaotic singles emitted only while a gate is open.

    Each gate gets an independent field realisation with a seed derived
    from ``seed``, matching the per-cycle generation contract. A channel
    whose uncorrelated rate is 0 draws nothing, so it spawns no seeds.
    """
    gates = check_gates(gates)
    if not len(gates):
        return EmissionBatch.empty()
    rate = src.uncorrelated_rate_s if channel == "signal" else src.uncorrelated_rate_i
    if rate == 0:
        # Nothing to draw; one call on the first gate keeps the channel and
        # grid checks.
        start, end = gates[0].tolist()
        return generate_chaotic(src, channel, (end - start) / PS_PER_NS, seed,
                                start_ps=start)
    children = _seed_sequence(seed).spawn(len(gates))
    return merge_batches(*(
        generate_chaotic(src, channel, (end - start) / PS_PER_NS, child, start_ps=start)
        for (start, end), child in zip(gates.tolist(), children)))


def _dead_time_filter(times_ps: np.ndarray, dead_ps: int) -> np.ndarray:
    """Greedy dead-time mask: drop tags within dead_ps after an accepted one."""
    keep = np.ones(len(times_ps), dtype=bool)
    last = -np.inf
    for i, t in enumerate(times_ps):
        if t - last < dead_ps and last != -np.inf:
            keep[i] = False
        else:
            last = t
    return keep


def detect(batch: EmissionBatch, det_by_species, channel_map, seed,
           gates=None, header: StreamHeader | None = None) -> TagStream:
    """Run emissions through the detector model and emit a tag stream.

    ``det_by_species`` maps species code -> DetectorConfig (a single
    DetectorConfig applies to all species); ``channel_map`` maps species
    code -> output channel number. Events are thinned by quantum
    efficiency, smeared by Gaussian jitter truncated at +-5 sigma, mixed
    with dark counts over the gated spans, and pruned by per-channel dead
    time. The output is time-sorted and clipped to
    [min gate - 5 sigma, max gate + 5 sigma].
    """
    if len(batch) and np.any(np.diff(batch.times_ps) < 0):
        raise ValidationError("events must be sorted by time", field="events")
    if isinstance(det_by_species, DetectorConfig):
        det_by_species = {s: det_by_species for s in channel_map}
    rng = np.random.default_rng(_seed_sequence(seed))

    gates = check_gates(gates)
    spans = gates
    if not len(gates) and len(batch):
        spans = np.array([[batch.times_ps.min(), batch.times_ps.max()]])
    span_lo, span_hi = (int(spans[0, 0]), int(spans[-1, 1])) if len(spans) else (0, 0)

    out_channels = []
    out_times = []
    for species, channel in channel_map.items():
        det = det_by_species[species]
        sigma_ps = det.jitter_sigma * PS_PER_NS
        sub = batch.select(species)
        times = sub.times_ps
        if det.quantum_efficiency < 1.0 and len(times):
            times = times[rng.random(len(times)) < det.quantum_efficiency]
        if sigma_ps > 0 and len(times):
            jitter = rng.standard_normal(len(times)) * sigma_ps
            np.clip(jitter, -5.0 * sigma_ps, 5.0 * sigma_ps, out=jitter)
            times = times + jitter.astype(np.int64)
        if det.dark_rate > 0 and len(spans):
            dark_parts = []
            for lo, hi in spans.tolist():
                n = rng.poisson(det.dark_rate * (hi - lo) / PS_PER_S)
                if n:
                    dark_parts.append(lo + (rng.random(n) * (hi - lo)).astype(np.int64))
            if dark_parts:
                times = np.concatenate([times] + dark_parts)
        times = np.sort(times, kind="stable")
        lo_clip = span_lo - int(5 * sigma_ps)
        hi_clip = span_hi + int(5 * sigma_ps)
        times = times[(times >= lo_clip) & (times <= hi_clip)]
        if det.dead_time > 0 and len(times):
            times = times[_dead_time_filter(times, int(det.dead_time * PS_PER_NS))]
        out_channels.append(np.full(len(times), channel, np.uint8))
        out_times.append(times)

    channels = np.concatenate(out_channels) if out_channels else np.zeros(0, np.uint8)
    times = np.concatenate(out_times) if out_times else np.zeros(0, np.int64)
    order = np.argsort(times, kind="stable")
    return TagStream(channels=channels[order], timestamps=times[order],
                     header=header or StreamHeader(), gates=gates)


def split_hbt(stream: TagStream, source_channel: int, out_channels, seed) -> TagStream:
    """50/50 beam-splitter: reroute one channel onto two detector channels."""
    rng = np.random.default_rng(_seed_sequence(seed))
    channels = stream.channels.copy()
    m = channels == source_channel
    pick = rng.random(int(m.sum())) < 0.5
    routed = np.where(pick, out_channels[0], out_channels[1]).astype(np.uint8)
    channels[m] = routed
    return TagStream(channels=channels, timestamps=stream.timestamps,
                     header=stream.header, gates=stream.gates)
