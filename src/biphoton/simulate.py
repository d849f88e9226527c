"""Monte Carlo photon source and detector model.

Correlated pairs are drawn as a gated Poisson process with exponentially
delayed idlers; chaotic singles come from a doubly stochastic Poisson
process driven by a complex Ornstein-Uhlenbeck field (Lorentzian
spectrum), drawn event by event with no time grid, which yields the
thermal-light relation g2(dt) = 1 + exp(-2|dt|/tau) exactly, without
modelling atom-number fluctuations.

Every stage from emission to the tag stream works on one species' sorted
int64 ps time array, one block of whole gates at a time, so per-tag
arrays are held one block at a time. What is held for the whole run: the
gate table, and every gate's pair count, which ``PairSource`` draws up
front (as ``Detector`` does the dark counts); and each channel's chaotic
singles, 8 bytes per event, which ``generate_chaotic_gated`` draws whole
because their count sets where the detector's jitter draws start.
``generate_pairs`` hands out one block's signal and idler arrays, and
``detect`` runs one block of one species through its ``Detector``. Values
that cross into the next block (late idlers, jittered tags near the cut,
the last tag kept for dead time) are carried in the ``PairSource`` and
the ``Detector``, so the output does not depend on where blocks are cut.

Gates are the sorted, disjoint ``(n, 2)`` int64 array of half-open
``[start, end)`` ps windows that ``tagio.check_gates`` accepts; a list of
``(start, end)`` pairs works too.

All randomness is derived from ``numpy.random.SeedSequence`` so identical
seeds and configs reproduce bit-identical streams. ``generate_chaotic_gated``
draws every gate of a channel from one generator, gate after gate.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_fields
from .tagio import PS_PER_NS, check_gates

PS_PER_S = 1_000_000_000_000
NEWTON_TOL_NS = 1e-4
# 2 gamma t past which -expm1(-2 gamma t) is exactly 1.0 (see _chaotic_events).
_FAR_EXPONENT = 40.0


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
        check_fields(self)
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
        check_fields(self)
        if not 0.0 <= self.quantum_efficiency <= 1.0:
            raise ValidationError("must be within [0, 1]", field="quantum_efficiency")
        for name in ("dark_rate", "jitter_sigma", "dead_time"):
            if getattr(self, name) < 0:
                raise ValidationError("must be non-negative", field=name)


@dataclass
class PairEmission:
    """Emission times of one block of pairs, int64 ps: its signals and the
    idlers released with it, each sorted. ``len`` counts both species."""

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


def _advanced(rng, n: int):
    """A new generator at the state ``rng`` reaches after ``n`` more
    ``random()`` draws, one 64-bit step each; ``rng`` is left as it is."""
    bits = copy.deepcopy(rng.bit_generator)
    bits.advance(n)
    return np.random.Generator(bits)


def _poisson_counts(rate: float, spans: np.ndarray, rng) -> np.ndarray:
    """Event counts of a Poisson process at ``rate`` per s in each span,
    from one ``poisson`` call."""
    mean = (spans[:, 1] - spans[:, 0]).astype(float)
    mean /= PS_PER_S
    mean *= rate
    return rng.poisson(mean)


def _place(spans: np.ndarray, counts: np.ndarray, rng) -> np.ndarray:
    """Unsorted times of ``counts[k]`` events uniform in span ``k``: one
    uniform per event, in span order."""
    widths_ps = (spans[:, 1] - spans[:, 0]).astype(float)
    offsets = rng.random(int(counts.sum())) * np.repeat(widths_ps, counts)
    return np.repeat(spans[:, 0], counts) + offsets.astype(np.int64)


def _held_back(times: np.ndarray, cut):
    """Sorted ``times`` split at ``cut``: those before it, and those at or
    past it, which wait for the next block; no cut holds nothing back."""
    k = len(times) if cut is None else int(np.searchsorted(times, cut))
    return times[:k], times[k:]


class PairSource:
    """The pair emission of one run, handed out block by block of gates.

    Every gate's pair count is drawn first, in one ``poisson`` call. The
    same generator then places the signals, one uniform per pair, and a
    copy of it advanced past all of those uniforms draws the idler delays,
    so where the blocks are cut changes no draw. Idlers that a block's cut
    holds back wait in ``carry``.
    """

    def __init__(self, src: SourceConfig, gates, seed):
        self.gates = check_gates(gates)
        self.tau_ps = src.tau_c * PS_PER_NS
        self.rng = np.random.default_rng(_seed_sequence(seed))
        self.counts = _poisson_counts(src.pair_rate, self.gates, self.rng)
        self.n_pairs = int(self.counts.sum())
        self.delays = _advanced(self.rng, self.n_pairs)
        self.carry = _no_events()


def generate_pairs(source: PairSource, block=slice(None), cut=None) -> PairEmission:
    """Signal and idler emission times of one block of gates, each sorted.

    Signal times are a homogeneous Poisson process at ``pair_rate``
    restricted to the gates; each idler follows its signal by an
    Exp(tau_c) delay. Idlers at or past ``cut`` (ps) are held back and
    come with the next block. Blocks are taken in order; the default
    emits the whole run in one call, and then the k-th idler is no
    earlier than the k-th signal.
    """
    signal_ps = _place(source.gates[block], source.counts[block], source.rng)
    signal_ps.sort()
    delays_ps = source.delays.exponential(source.tau_ps, size=len(signal_ps))
    idler_ps = np.concatenate([source.carry,
                               signal_ps + np.maximum(delays_ps.astype(np.int64), 0)])
    idler_ps.sort(kind="stable")  # nearly sorted already: timsort's best case
    idler_ps, source.carry = _held_back(idler_ps, cut)
    return PairEmission(signal_ps, idler_ps)


def _blocks(draw, size=4096):
    """Scalar draws, taken from ``draw(size)`` one block at a time: the next
    block is drawn when a value is asked for and the last one is used up."""
    return itertools.chain.from_iterable(iter(lambda: draw(size).tolist(), None))


def _chaotic_events(q: float, tau: float, widths_ns, rng):
    """The running event count at the end of each gate, and the events'
    offsets (ns from their gate's start, in order), of a Cox process with
    rate ``q * |E(t)|^2`` per ns, one stationary field per gate.

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

    Past t_far = ``_FAR_EXPONENT`` / (2 gamma), exp(-2 gamma t) < 5e-18 is
    below 2^-54 = 5.6e-17, half the spacing of the doubles just under 1
    (true from 2 gamma t = 37.5), so w rounds to exactly 1.0: F is then
    affine in t, and F', den and v are constants.
    An event whose Newton start lies there, inside the gate, has its gate
    check and first Newton step done inline with those constants. They
    are ``hazard``'s own expressions at w = 1.0, summed in the same order,
    and a product with 1.0 is exact, so the inline step rounds exactly as
    ``hazard`` would; it is taken if it stays in the bracket and is below
    ``NEWTON_TOL_NS``, and any other event takes the general loop.
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

    # hazard's and the field update's terms at w = 1.0, for t > t_far.
    t_far = _FAR_EXPONENT / two_g
    w = 1.0
    far_a = q * w / (two_g - d * w)
    far_log = math.log1p(-d * w / two_g)
    far_slope, far_const = q - 2.0 * a * far_a * (1.0 + far_a), 2.0 * a * far_a
    far_den = two_g - d * w
    far_v = a * w / far_den
    far_root_v = math.sqrt(far_v)

    ends, offsets = [], []
    for width in widths_ns:
        i0 = exps()  # stationary |E|^2 at the gate start
        now = 0.0
        while True:
            e = exps()
            hi = width - now
            # Newton inside the bracket (0, hi], from the asymptote, or from
            # the tangent at 0 if the asymptote crosses e at t <= 0.
            t = (e - a_inf * i0 - b_inf) / d
            solved = False
            if t_far < t <= hi:
                f_0 = far_a * i0 + far_log  # F(t) = f_0 + d t here
                if f_0 + d * hi < e:
                    break
                f = f_0 + d * t
                nxt = t - (f - e) / (far_slope * i0 + far_const)
                in_bracket = t < nxt <= hi if f < e else 0.0 < nxt <= t
                solved = in_bracket and abs(nxt - t) < NEWTON_TOL_NS
            elif hazard(hi, i0)[0] < e:
                break
            if solved:
                t = nxt
            else:
                if t <= 0:
                    t = e / (q * i0)
                lo = 0.0
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
            offsets.append(now)
            if t > t_far:
                den, v, root_v = far_den, far_v, far_root_v
            else:
                w = -math.expm1(-two_g * t)
                den = two_g - d * w
                v = a * w / den
                root_v = math.sqrt(v)
            mean2 = (two_g * math.exp(-gamma * t) / den) ** 2 * i0  # v * lambda
            x = math.sqrt(mean2) + root_v * normals()
            chi = normals() ** 2 + 2.0 * exps()
            if uniforms() * (2.0 * v + mean2) < mean2:
                chi += 2.0 * exps()
            i0 = x * x + v * chi
        ends.append(len(offsets))
    return ends, offsets


def generate_chaotic_gated(src: SourceConfig, channel: str, gates, seed) -> np.ndarray:
    """Sorted int64 ps times of one channel's chaotic singles, emitted only
    while a gate is open.

    The intensity is |E(t)|^2, E a unit-power complex Ornstein-Uhlenbeck
    field with the channel's chaotic tau, so g2(dt) = 1 + exp(-2|dt|/tau)
    holds exactly; each gate starts from an independent stationary field.
    Events come from the exact survival function, with no time grid: on a
    2-vCPU Intel Xeon, 1.5-2.0 us per event at rate * tau = 0.004 or
    5e-4, where over 90 % of the events take the closed-form far tail of
    ``_chaotic_events``, 4.4-4.8 us at rate * tau = 1, where almost none
    do, and 1.0-1.7 us per gate without events. One generator, seeded
    from ``seed``, draws the gates in order; a zero rate draws nothing.
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
    ends, offsets = _chaotic_events(rate * 1e-9, tau,
                                    (widths_ps / PS_PER_NS).tolist(), rng)
    gate_of = np.repeat(np.arange(len(gates)), np.diff(ends, prepend=0))
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


class Detector:
    """One detector's draws and state over the blocks of a run.

    ``n_in`` is the number of events the whole run will feed it. The
    efficiency uniforms come from ``rng``, one per event; ``jitter``, a
    copy of ``rng`` advanced past all of them, draws the jitter normals,
    and ``dark``, from the first child of the seed, draws the dark counts:
    every gate's count first, then one uniform per count, block by block.
    So where the blocks are cut changes no draw. Tags that a block's cut
    holds back wait in ``carry``; ``last`` is the last tag kept, for dead
    time. ``counts`` sums what each cut did over the run. Without gates
    there are no dark counts and no clip.
    """

    def __init__(self, config: DetectorConfig, n_in: int, seed, gates=None):
        seq = _seed_sequence(seed)
        self.config = config
        self.n_in = n_in
        self.gates = check_gates(gates)
        self.rng = np.random.default_rng(seq)
        self.jitter = _advanced(self.rng, n_in if config.quantum_efficiency < 1.0 else 0)
        self.sigma_ps = config.jitter_sigma * PS_PER_NS
        self.clip_ps = int(5 * self.sigma_ps)
        if config.dark_rate > 0:
            # The child that spawn(1) would give, without counting it as spawned.
            self.dark = np.random.default_rng(np.random.SeedSequence(
                seq.entropy, spawn_key=seq.spawn_key + (0,), pool_size=seq.pool_size))
            self.dark_counts = _poisson_counts(config.dark_rate, self.gates, self.dark)
        self.bounds = ((int(self.gates[0, 0]) - self.clip_ps,
                        int(self.gates[-1, 1]) + self.clip_ps) if len(self.gates) else None)
        self.carry = _no_events()
        self.last = None
        self.counts = dict.fromkeys(("in", "kept", "dark", "clipped", "dead", "out"), 0)


def detect(batch: np.ndarray, detector: Detector, block=slice(None), cut=None) -> np.ndarray:
    """Run one block of a species' sorted int64 ps emission times through
    a detector and return the block's tags, sorted.

    Events are thinned by quantum efficiency, smeared by Gaussian jitter
    truncated at +-5 sigma and mixed with the dark counts of the gates in
    ``block``. Tags at or past ``cut`` (ps) are held back for the next
    block; the rest are clipped to [first gate - 5 sigma, last gate end +
    5 sigma] and pruned by dead time. Blocks are taken in order, and every
    later input must be at least ``cut`` + 5 sigma; the default runs the
    whole input in one call. The order of ``batch`` is not checked: the
    simulation builds it sorted, and the stream writer checks the tags.
    """
    det, counts = detector.config, detector.counts
    counts["in"] += len(batch)
    if counts["in"] > detector.n_in:
        # Past n_in, the efficiency draws would reuse the jitter's.
        raise ValidationError(f"detector fed more than its {detector.n_in} events",
                              field="batch")
    times = batch
    if det.quantum_efficiency < 1.0 and len(times):
        times = times.compress(detector.rng.random(len(times)) < det.quantum_efficiency)
    counts["kept"] += len(times)
    sigma_ps = detector.sigma_ps
    if sigma_ps > 0 and len(times):
        jitter = detector.jitter.standard_normal(len(times)) * sigma_ps
        np.clip(jitter, -5.0 * sigma_ps, 5.0 * sigma_ps, out=jitter)
        times = times + jitter.astype(np.int64)
    parts = [detector.carry, times]
    if det.dark_rate > 0:
        parts.append(_place(detector.gates[block], detector.dark_counts[block],
                            detector.dark))
        counts["dark"] += len(parts[-1])
    times = np.concatenate(parts)
    times.sort(kind="stable")
    times, detector.carry = _held_back(times, cut)
    if detector.bounds is not None:
        lo, hi = detector.bounds
        n = len(times)
        times = times[np.searchsorted(times, lo):np.searchsorted(times, hi, side="right")]
        counts["clipped"] += n - len(times)
    if det.dead_time > 0 and len(times):
        head = np.array([] if detector.last is None else [detector.last], np.int64)
        times = np.concatenate([head, times])
        keep = _dead_time_filter(times, int(det.dead_time * PS_PER_NS))
        keep[:len(head)] = False  # kept already, by an earlier block
        counts["dead"] += len(times) - len(head) - int(keep.sum())
        times = times.compress(keep)
        if len(times):
            detector.last = int(times[-1])
    counts["out"] += len(times)
    return times


def split_hbt(channels, source_channel: int, out_channels, seed) -> np.ndarray:
    """50/50 beam-splitter: a copy of ``channels`` with each tag on
    ``source_channel`` rerouted at random to one of ``out_channels``."""
    rng = np.random.default_rng(_seed_sequence(seed))
    channels = np.array(channels, np.uint8)
    m = channels == source_channel
    pick = rng.random(int(m.sum())) < 0.5
    channels[m] = np.where(pick, out_channels[0], out_channels[1])
    return channels
