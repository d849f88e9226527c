"""Monte Carlo photon source and detector model.

Correlated pairs are drawn as a gated Poisson process with exponentially
delayed idlers; chaotic singles come from a doubly stochastic Poisson
process driven by a complex Ornstein-Uhlenbeck field (Lorentzian
spectrum), drawn event by event with no time grid, which yields the
thermal-light relation g2(dt) = 1 + exp(-2|dt|/tau) exactly, without
modelling atom-number fluctuations.

Every stage from emission to the tag stream works on one species' sorted
int64 ps time array: ``generate_pairs`` returns the signal and the idler
times as two such arrays, ``generate_chaotic_gated`` one channel's, and
``detect`` turns one of them into one detector channel's sorted
``TagStream``.

Gates are the sorted, disjoint ``(n, 2)`` int64 array of half-open
``[start, end)`` ps windows that ``tagio.check_gates`` accepts; a list of
``(start, end)`` pairs works too.

All randomness is derived from ``numpy.random.SeedSequence`` so identical
seeds and configs reproduce bit-identical streams. ``generate_chaotic_gated``
draws every gate of a channel from one generator, gate after gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tagio import PS_PER_NS, StreamHeader, TagStream, check_gates, check_order

PS_PER_S = 1_000_000_000_000
NEWTON_TOL_NS = 1e-4


@dataclass(frozen=True)
class SourceConfig:
    """Emission-side knobs. Rates in s^-1, times in ns.

    ``pair_rate`` applies while a gate is open; the uncorrelated rates set
    the chaotic singles floor of each channel. ``chaotic_grid_dt_ns`` is
    accepted and checked but ignored: the chaotic light has no time grid.
    """

    pair_rate: float = 0.0
    tau_c: float = 4.4
    chaotic_tau_s: float = 18.9
    chaotic_tau_i: float = 12.8
    uncorrelated_rate_s: float = 0.0
    uncorrelated_rate_i: float = 0.0
    chaotic_grid_dt_ns: float | None = None

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
class PairEmission:
    """Emission times of the pairs, int64 ps: the signals and the idlers,
    each sorted. ``len`` counts both species."""

    signal_ps: np.ndarray
    idler_ps: np.ndarray

    def __len__(self):
        return len(self.signal_ps) + len(self.idler_ps)


def _no_events() -> np.ndarray:
    return np.zeros(0, np.int64)


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _gated_poisson(rate: float, spans: np.ndarray, rng) -> np.ndarray:
    """Unsorted times of a Poisson process at ``rate`` per s inside the
    spans: one count per span from one ``poisson`` call, then one batch of
    uniforms places every event in its span."""
    widths_ps = (spans[:, 1] - spans[:, 0]).astype(float)
    counts = rng.poisson(rate * (widths_ps / PS_PER_S))
    total = int(counts.sum())
    offsets = rng.random(total) * np.repeat(widths_ps, counts)
    return np.repeat(spans[:, 0], counts) + offsets.astype(np.int64)


def generate_pairs(src: SourceConfig, gates, seed) -> PairEmission:
    """Signal and idler emission times inside the gate windows.

    Signal times are a homogeneous Poisson process at ``pair_rate``
    restricted to the gates; each idler follows its signal by an
    Exp(tau_c) delay. Both arrays come back sorted, so the k-th idler is
    no earlier than the k-th signal.
    """
    gates = check_gates(gates)
    rng = np.random.default_rng(_seed_sequence(seed))
    if not len(gates) or src.pair_rate == 0:
        return PairEmission(_no_events(), _no_events())
    signal_ps = _gated_poisson(src.pair_rate, gates, rng)
    signal_ps.sort()
    delays_ps = rng.exponential(src.tau_c * PS_PER_NS, size=len(signal_ps))
    idler_ps = signal_ps + np.maximum(delays_ps.astype(np.int64), 0)
    idler_ps.sort(kind="stable")  # nearly sorted already: timsort's best case
    return PairEmission(signal_ps, idler_ps)


def generate_chaotic(src: SourceConfig, channel: str, duration_ns: float, seed,
                     start_ps: int = 0) -> np.ndarray:
    """Chaotic singles of one channel: ``generate_chaotic_gated`` on the one
    gate ``[start_ps, start_ps + ceil(duration_ns * 1000))``."""
    if duration_ns <= 0:
        raise ValidationError("duration must be positive", field="duration_ns")
    end_ps = start_ps + math.ceil(duration_ns * PS_PER_NS)
    return generate_chaotic_gated(src, channel, [(start_ps, end_ps)], seed)


def _blocks(draw, size=4096):
    """Scalar draws, taken from ``draw(size)`` one block at a time."""
    while True:
        yield from draw(size).tolist()


def _chaotic_events(q: float, tau: float, widths_ns, rng):
    """Gate indices and offsets (ns, in order) of the events of a Cox
    process with rate ``q * |E(t)|^2`` per ns, one stationary field per gate.

    Each quadrature of E follows dx = -a x dt + s dW, a = 1/tau, s^2 = a.
    Given I = |E|^2 = i0 at the last event, none follows within t with
    probability exp(-F(t)), F = A i0 + 2B; under that survival weight a
    quadrature is Gaussian with mean m x0 and variance v, so I at the next
    event is v times a non-central chi-square (lambda = m^2 i0 / v)
    size-biased by I: 6 degrees of freedom with probability
    mu / (1 + mu), mu = lambda / 2, else 4. With gamma^2 = a^2 + 2 s^2 q,
    d = gamma - a, w = 1 - exp(-2 gamma t) and den = 2 gamma - d w:
    A = q w / den, 2B = ln(den / 2 gamma) + d t,
    m = 2 gamma exp(-gamma t) / den and v = s^2 w / den.
    """
    a = 1.0 / tau
    gamma = math.sqrt(a * a + 2.0 * a * q)
    two_g = 2.0 * gamma
    d = 2.0 * a * q / (gamma + a)  # gamma - a, without the cancellation
    a_inf = q / (gamma + a)  # A(t) as t -> inf
    b_inf = math.log((gamma + a) / two_g)  # 2B(t) - d t as t -> inf
    exps = _blocks(rng.standard_exponential).__next__
    normals = _blocks(rng.standard_normal).__next__
    uniforms = _blocks(rng.random).__next__

    def hazard(t, i0):  # F(t) and F'(t); nothing overflows for any t
        w = -math.expm1(-two_g * t)
        big_a = q * w / (two_g - d * w)
        return (big_a * i0 + math.log1p(-d * w / two_g) + d * t,
                (q - 2.0 * a * big_a * (1.0 + big_a)) * i0 + 2.0 * a * big_a)

    gate_of, offsets = [], []
    for g, width in enumerate(widths_ns):
        i0 = exps()  # stationary |E|^2 at the gate start
        now = 0.0
        while True:
            e = exps()
            lo, hi = 0.0, width - now
            if hazard(hi, i0)[0] < e:
                break
            # Newton inside the bracket (lo, hi], from the asymptote, or from
            # the tangent at 0 if the asymptote crosses e at t <= 0.
            t = (e - a_inf * i0 - b_inf) / d
            if t <= 0:
                t = e / (q * i0)
            if not lo < t <= hi:
                t = 0.5 * hi
            while True:
                f, df = hazard(t, i0)
                lo, hi = (t, hi) if f < e else (lo, t)
                nxt = t - (f - e) / df
                if not lo < nxt <= hi:
                    nxt = 0.5 * (lo + hi)
                step, t = abs(nxt - t), nxt
                if step < NEWTON_TOL_NS:
                    break
            now += t
            gate_of.append(g)
            offsets.append(now)
            w = -math.expm1(-two_g * t)
            den = two_g - d * w
            mean2 = (two_g * math.exp(-gamma * t) / den) ** 2 * i0  # v * lambda
            v = a * w / den
            x = math.sqrt(mean2) + math.sqrt(v) * normals()
            chi = normals() ** 2 + 2.0 * exps()
            if uniforms() * (2.0 * v + mean2) < mean2:
                chi += 2.0 * exps()
            i0 = x * x + v * chi
    return gate_of, offsets


def generate_chaotic_gated(src: SourceConfig, channel: str, gates, seed) -> np.ndarray:
    """Sorted int64 ps times of one channel's chaotic singles, emitted only
    while a gate is open.

    The intensity is |E(t)|^2, E a unit-power complex Ornstein-Uhlenbeck
    field with the channel's chaotic tau, so g2(dt) = 1 + exp(-2|dt|/tau)
    holds exactly; each gate starts from an independent stationary field.
    Events come from the exact survival function, with no time grid: on a
    2-vCPU Intel Xeon, 4 us per event at rate * tau = 0.004, 6 us at
    rate * tau = 1, and 1.6 us per gate without events. One generator,
    seeded from ``seed``, draws the gates in order; a zero rate draws nothing.
    """
    gates = check_gates(gates)
    if not len(gates):
        return _no_events()
    if channel not in ("signal", "idler"):
        raise ValidationError(f"unknown channel {channel!r}", field="channel")
    signal = channel == "signal"
    tau = src.chaotic_tau_s if signal else src.chaotic_tau_i
    rate = src.uncorrelated_rate_s if signal else src.uncorrelated_rate_i
    if rate == 0:
        return _no_events()

    rng = np.random.default_rng(_seed_sequence(seed))
    widths_ps = gates[:, 1] - gates[:, 0]
    gate_of, offsets = _chaotic_events(rate * 1e-9, tau,
                                       (widths_ps / PS_PER_NS).tolist(), rng)
    offsets_ps = (np.array(offsets) * PS_PER_NS).astype(np.int64)
    return gates[gate_of, 0] + np.minimum(offsets_ps, widths_ps[gate_of] - 1)


def _dead_time_filter(times_ps: np.ndarray, dead_ps: int) -> np.ndarray:
    """Greedy dead-time mask: drop tags within dead_ps after an accepted one.
    A tag at least dead_ps after its predecessor is always kept, so only
    the tags closer than that are walked."""
    keep = np.ones(len(times_ps), dtype=bool)
    close = np.flatnonzero(np.diff(times_ps) < dead_ps) + 1
    last, prev = 0, -1
    for i, t, before in zip(close.tolist(), times_ps[close].tolist(),
                            times_ps[close - 1].tolist()):
        if i != prev + 1:
            last = before  # kept: it is not close to its own predecessor
        if t - last < dead_ps:
            keep[i] = False
        else:
            last = t
        prev = i
    return keep


def detect(batch: np.ndarray, det: DetectorConfig, channel: int, seed,
           gates=None, header: StreamHeader | None = None) -> TagStream:
    """Run one species' sorted int64 ps emission times through one detector
    and return its channel's time-sorted tag stream.

    Events are thinned by quantum efficiency, smeared by Gaussian jitter
    truncated at +-5 sigma, mixed with dark counts over the gated spans
    (over the events' own span when there are no gates), clipped to
    [first gate - 5 sigma, last gate end + 5 sigma] and pruned by dead
    time. The efficiency draws come first, then the jitter, each over the
    sorted input, then the dark counts: one Poisson count per span, then
    one uniform per count.
    """
    check_order(batch)
    rng = np.random.default_rng(_seed_sequence(seed))
    gates = check_gates(gates)
    spans = gates
    if not len(gates) and len(batch):
        spans = np.array([[batch[0], batch[-1]]])
    span_lo, span_hi = (int(spans[0, 0]), int(spans[-1, 1])) if len(spans) else (0, 0)

    sigma_ps = det.jitter_sigma * PS_PER_NS
    times = batch
    if det.quantum_efficiency < 1.0 and len(times):
        times = times[rng.random(len(times)) < det.quantum_efficiency]
    if sigma_ps > 0 and len(times):
        jitter = rng.standard_normal(len(times)) * sigma_ps
        np.clip(jitter, -5.0 * sigma_ps, 5.0 * sigma_ps, out=jitter)
        times = times + jitter.astype(np.int64)
    if det.dark_rate > 0 and len(spans):
        times = np.concatenate([times, _gated_poisson(det.dark_rate, spans, rng)])
    times = np.sort(times, kind="stable")
    clip = int(5 * sigma_ps)
    times = times[np.searchsorted(times, span_lo - clip):
                  np.searchsorted(times, span_hi + clip, side="right")]
    if det.dead_time > 0 and len(times):
        times = times[_dead_time_filter(times, int(det.dead_time * PS_PER_NS))]
    return TagStream(channels=np.full(len(times), channel, np.uint8),
                     timestamps=times, header=header or StreamHeader(), gates=gates)


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
