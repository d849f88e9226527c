import hashlib
import io
import logging
import math
import tracemalloc

import numpy as np
import pytest

from biphoton import pipeline, simulate
from biphoton.config import ExperimentConfig, config_from_dict
from biphoton.correlate import HistogramConfig, cross_correlate
from biphoton.errors import ValidationError
from biphoton.pipeline import simulate_experiment, write_manifest
from biphoton.simulate import (Detector, DetectorConfig, PairSource, SourceConfig,
                               detect, generate_chaotic_gated, generate_pairs,
                               split_hbt)
from biphoton.tagio import StreamHeader, StreamReader

from oracles import chaotic_on_grid, dead_time_mask
from streams import read_arrays, stream_file

PS = 1000  # ps per ns

IDENTITY = DetectorConfig()


def one_gate(width_us):
    return [(0, int(width_us * 1_000_000))]


def chaotic(src, channel, duration_ns, seed):
    """One channel's chaotic singles in the one gate [0, duration_ns)."""
    return generate_chaotic_gated(src, channel, [(0, int(duration_ns * PS))], seed)


def pairs_of(src, gates, seed):
    """A whole run's pair emission, in one block."""
    return generate_pairs(PairSource(src, gates, seed))


def detect_all(batch, det, seed, gates=None):
    """A whole input's tags from one detector, in one block."""
    return detect(batch, Detector(det, len(batch), seed, gates))


def auto_correlate(times_ps, duration_ns, cfg):
    """``cross_correlate`` of one channel's tags, written to a stream file
    with ``duration_ns`` of live time."""
    header = StreamHeader(acquisition_seconds=duration_ns * 1e-9)
    file = stream_file(np.zeros(len(times_ps), np.uint8), times_ps, header)
    return cross_correlate(StreamReader(file), cfg)


def positive_lag_g2(times_ps, duration_ns, bin_ns, max_ns):
    """g2 over [0, max_ns) lags, normalised by the sample's own rate, and
    its Poisson error per bin."""
    cfg = HistogramConfig(bin_width=bin_ns, dt_min=0, dt_max=max_ns,
                          channel_a=0, channel_b=0)
    counts = auto_correlate(times_ps, duration_ns, cfg).counts
    floor = len(times_ps) ** 2 * bin_ns / duration_ns
    return counts / floor, np.sqrt(counts) / floor


class TestPairGeneration:
    def test_zero_rate_is_empty(self):
        batch = pairs_of(SourceConfig(pair_rate=0.0), one_gate(200), 1)
        assert len(batch) == 0

    def test_no_gates_is_empty(self):
        batch = pairs_of(SourceConfig(pair_rate=1e5), [], 1)
        assert len(batch) == 0

    def test_pair_count_is_poisson(self):
        gates = [(i * 1_000_000_000, i * 1_000_000_000 + 200_000_000)
                 for i in range(1000)]
        pairs = pairs_of(SourceConfig(pair_rate=1e5), gates, seed=3)
        n_pairs = len(pairs.signal_ps)
        expected = 1e5 * 200e-6 * 1000  # 20_000
        assert abs(n_pairs - expected) < 4 * np.sqrt(expected)
        assert len(pairs.idler_ps) == n_pairs
        assert len(pairs) == 2 * n_pairs

    def test_idler_delay_is_exponential_with_tau_c_mean(self):
        src = SourceConfig(pair_rate=2e5, tau_c=4.4)
        pairs = pairs_of(src, one_gate(50_000), seed=5)
        # Sorting changes neither sum, so the mean delay survives it.
        delays_ns = (pairs.idler_ps - pairs.signal_ps) / PS
        n = len(delays_ns)
        assert np.all(delays_ns >= 0)
        # Exp(tau) sample mean: sigma = tau / sqrt(N).
        assert abs(delays_ns.mean() - 4.4) < 4 * 4.4 / np.sqrt(n)

    def test_events_are_time_sorted_with_idlers_after_signals(self):
        pairs = pairs_of(SourceConfig(pair_rate=1e5), one_gate(5000), 7)
        assert len(pairs.signal_ps) > 0
        assert np.all(np.diff(pairs.signal_ps) >= 0)
        assert np.all(np.diff(pairs.idler_ps) >= 0)
        # Each idler follows its signal, so the k-th idler follows the
        # k-th signal.
        assert len(pairs.idler_ps) == len(pairs.signal_ps)
        assert np.all(pairs.idler_ps >= pairs.signal_ps)

    def test_unsorted_gates_rejected(self):
        gates = [(100, 200), (50, 90)]
        with pytest.raises(ValidationError):
            pairs_of(SourceConfig(pair_rate=1.0), gates, 1)


class TestChaoticGeneration:
    def test_zero_rate_is_empty(self):
        src = SourceConfig(uncorrelated_rate_s=0.0)
        assert len(chaotic(src, "signal", 1000.0, 1)) == 0

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValidationError):
            chaotic(SourceConfig(), "pump", 1000.0, 1)

    def test_mean_rate_recovered(self):
        src = SourceConfig(uncorrelated_rate_s=1e6, chaotic_tau_s=10.0)
        duration_ns = 2e7  # 20 ms
        times = chaotic(src, "signal", duration_ns, seed=11)
        expected = 1e6 * duration_ns * 1e-9
        # Bunching inflates the count variance by 1 + 2 R tau over Poisson.
        sigma = np.sqrt(expected * (1 + 2 * 1e6 * 10e-9))
        assert abs(len(times) - expected) < 5 * sigma
        assert np.all(np.diff(times) >= 0)

    def test_siegert_relation_at_zero_tail_and_half_width(self):
        tau = 50.0
        rate = 2e7
        duration_ns = 3e7  # 30 ms
        src = SourceConfig(uncorrelated_rate_s=rate, chaotic_tau_s=tau,
                           chaotic_grid_dt_ns=0.5)
        times = chaotic(src, "signal", duration_ns, seed=13)
        cfg = HistogramConfig(bin_width=0.5, dt_min=-200, dt_max=200,
                              channel_a=0, channel_b=0)
        hist = auto_correlate(times, duration_ns, cfg)
        centers = hist.bin_centers_ns()
        floor = rate ** 2 * cfg.bin_width * 1e-9 * duration_ns * 1e-9
        g2 = hist.counts / floor
        zero_bin = int(np.argmin(np.abs(centers)))
        assert g2[zero_bin] == pytest.approx(2.0, abs=0.05)
        tail = g2[np.abs(centers) > 3 * tau].mean()  # bunching there < 0.003
        assert tail == pytest.approx(1.0, abs=0.02)
        # g2 - 1 = exp(-2|dt|/tau) crosses 1/e at dt = tau / 2.
        pos = centers > 0
        crossing = centers[pos][np.argmin(np.abs((g2[pos] - 1.0) - 1 / np.e))]
        assert crossing == pytest.approx(tau / 2, rel=0.10)

    def test_gated_variant_stays_inside_gates(self):
        src = SourceConfig(uncorrelated_rate_s=1e6, chaotic_tau_s=10.0)
        gates = [(0, 1_000_000), (5_000_000, 6_500_000)]
        times = generate_chaotic_gated(src, "signal", gates, seed=2)
        inside = np.zeros(len(times), dtype=bool)
        for g in gates:
            inside |= (times >= g[0]) & (times < g[1])
        assert len(times) > 0
        assert inside.all()
        assert np.all(np.diff(times) >= 0)

    def test_zero_rate_channel_does_no_per_gate_work(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a zero-rate channel drew events")

        monkeypatch.setattr(simulate, "_chaotic_events", no_draws)
        gates = [(i * 10_000_000, i * 10_000_000 + 5_000_000) for i in range(1000)]
        batch = generate_chaotic_gated(SourceConfig(), "signal", gates, seed=1)
        assert len(batch) == 0

    def test_zero_rate_channel_keeps_its_checks(self):
        with pytest.raises(ValidationError):
            generate_chaotic_gated(SourceConfig(), "pump", one_gate(1), seed=1)
        assert len(generate_chaotic_gated(SourceConfig(), "pump", [], seed=1)) == 0

    # r tau = 0.05 and r tau = 1; the grid is tau / 20 and the bins tau / 5
    # and tau / 10, with about 200 and 5000 pairs per bin.
    @pytest.mark.parametrize("rate, tau, duration_ns, bin_ns", [
        (5e6, 10.0, 4e6, 2.0),
        (5e7, 20.0, 1e6, 2.0),
    ])
    def test_matches_grid_oracle(self, rate, tau, duration_ns, bin_ns):
        src = SourceConfig(uncorrelated_rate_s=rate, chaotic_tau_s=tau)
        events = chaotic(src, "signal", duration_ns, seed=21)
        grid = chaotic_on_grid(rate, tau, duration_ns, tau / 20, seed=21)
        # Mean rate: the counts differ by less than 5 sigma, with the
        # bunching excess 2 r tau on each variance.
        expected = rate * duration_ns * 1e-9
        sigma = np.sqrt(2 * expected * (1 + 2 * rate * 1e-9 * tau))
        assert abs(len(events) - len(grid)) < 5 * sigma
        # g2 shape out to 5 tau: chi^2 of the difference within 5 sigma
        # of its number of bins.
        g_e, err_e = positive_lag_g2(events, duration_ns, bin_ns, 5 * tau)
        g_g, err_g = positive_lag_g2(grid, duration_ns, bin_ns, 5 * tau)
        chi2 = float(np.sum((g_e - g_g) ** 2 / (err_e ** 2 + err_g ** 2)))
        ndf = len(g_e)
        assert chi2 < ndf + 5 * np.sqrt(2 * ndf)
        # First bin against exp(-2 dt / tau) averaged over [0, bin).
        first = tau / (2 * bin_ns) * (1 - np.exp(-2 * bin_ns / tau))
        assert g_e[0] - 1 == pytest.approx(first, abs=5 * err_e[0])

    def test_fano_factor_of_gate_counts(self):
        # Counts in gates of L = 2 tau at r tau = 1, each gate an
        # independent stationary field: Var/mean is
        # 1 + r tau (1 - tau / 2L (1 - exp(-2L / tau))).
        rate, tau, width_ns, n_gates = 2e7, 50.0, 100.0, 50_000
        src = SourceConfig(uncorrelated_rate_s=rate, chaotic_tau_s=tau)
        period_ps = 2 * int(width_ns) * PS
        gates = [(i * period_ps, i * period_ps + int(width_ns) * PS)
                 for i in range(n_gates)]
        times = generate_chaotic_gated(src, "signal", gates, seed=17)
        counts = np.bincount(times // period_ps, minlength=n_gates)
        r_tau = rate * 1e-9 * tau
        theory = 1 + r_tau * (1 - tau / (2 * width_ns)
                              * (1 - np.exp(-2 * width_ns / tau)))
        # Error from 25 batches of 2000 gates.
        batches = counts.reshape(25, -1)
        fano = batches.var(axis=1, ddof=1) / batches.mean(axis=1)
        error = fano.std(ddof=1) / np.sqrt(len(fano))
        assert counts.var(ddof=1) / counts.mean() == pytest.approx(theory, abs=4 * error)
        assert counts.mean() == pytest.approx(rate * width_ns * 1e-9, rel=0.02)

    # Four gates: 2 us; 600 us; 777 ps; 1 us + 1 ps. The grid setting is
    # accepted and ignored.
    GOLDEN_SRC = SourceConfig(uncorrelated_rate_s=2e8, uncorrelated_rate_i=5e7,
                              chaotic_tau_s=10.0, chaotic_tau_i=12.8,
                              chaotic_grid_dt_ns=0.5)
    GOLDEN_GATES = [(0, 2_000_000), (5_000_000, 605_000_000),
                    (700_000_000, 700_000_777), (800_000_000, 801_000_001)]
    GOLDEN = {
        "signal": (121_163, "a85b96c4e4c8ce0ad516ee9dd97669a8"
                            "fb930e09a582f055984d2a54cc9e7fb7"),
        "idler": (30_364, "b07edfca3487db8481719da226d393eb"
                          "7d05f6ae38c5d6340d1b82c53eae8e22"),
    }

    @pytest.mark.parametrize("channel", ["signal", "idler"])
    def test_gated_draws_match_golden_digest(self, channel):
        # Pins the seed contract: one generator per channel call, the gates
        # drawn in order, and the order of the draws within a gate.
        times = generate_chaotic_gated(self.GOLDEN_SRC, channel, self.GOLDEN_GATES,
                                       seed=2024)
        digest = hashlib.sha256(times.astype("<i8").tobytes()).hexdigest()
        assert (len(times), digest) == self.GOLDEN[channel]

    # CHAOTIC_PIPELINE's source on four of its 2 ms gates: unlike GOLDEN_SRC,
    # most events there take the closed-form far tail of _chaotic_events.
    # Pinned before that path existed.
    FAR_SRC = SourceConfig(uncorrelated_rate_s=2e5, uncorrelated_rate_i=2e5,
                           chaotic_tau_s=18.9, chaotic_tau_i=12.8,
                           chaotic_grid_dt_ns=1.2)
    FAR_GATES = [(k * 2_500_000_000 + 500_000_000, (k + 1) * 2_500_000_000)
                 for k in range(4)]
    FAR_GOLDEN = {
        "signal": (1_557, "1b023cf3f60b63187476ebb8783a9e5d"
                          "7f738640bfeed14bdc5ed0088f51158a"),
        "idler": (1_600, "9b8ecff8230b482251e1119c3989711a"
                         "a8b3bb216adabc005558d334c0a3d96b"),
    }

    @pytest.mark.parametrize("channel", ["signal", "idler"])
    def test_far_tail_draws_match_golden_digest(self, channel):
        times = generate_chaotic_gated(self.FAR_SRC, channel, self.FAR_GATES,
                                       seed=2024)
        digest = hashlib.sha256(times.astype("<i8").tobytes()).hexdigest()
        assert (len(times), digest) == self.FAR_GOLDEN[channel]

    @pytest.mark.parametrize("rate", [2e4, 2e5, 2e6, 2e7])
    def test_far_tail_changes_no_event(self, monkeypatch, rate):
        # An infinite threshold sends every event through the general Newton
        # loop. The offsets are compared as floats, to the bit: the far tail
        # must round as the general loop does, not just land in the same ps.
        # 2 us gates hold events whose gate end comes before t_far.
        widths_ns = [2_000.0, 200_000.0, 2_000.0, 200_000.0]
        calls = {"expm1": 0}

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def expm1(self, x):
                calls["expm1"] += 1
                return math.expm1(x)

        def events(tau, seed):
            calls["expm1"] = 0
            rng = np.random.default_rng(seed)
            ends, offsets = simulate._chaotic_events(rate * 1e-9, tau, widths_ns, rng)
            return ends, np.array(offsets), calls["expm1"]

        monkeypatch.setattr(simulate, "math", CountingMath())
        expm1_calls = {"default": 0, "general": 0}
        for tau in (0.5, 4.4, 18.9, 100.0):
            for seed in (1, 2, 3):
                ends, offsets, n_calls = events(tau, seed)
                expm1_calls["default"] += n_calls
                with monkeypatch.context() as m:
                    m.setattr(simulate, "_FAR_EXPONENT", math.inf)
                    general_ends, general_offsets, n_calls = events(tau, seed)
                    expm1_calls["general"] += n_calls
                assert ends == general_ends, (tau, seed)
                assert np.array_equal(offsets.view(np.int64),
                                      general_offsets.view(np.int64)), (tau, seed)
        # The far tail, which calls no expm1, was taken at every rate.
        assert expm1_calls["default"] < expm1_calls["general"]

    def test_reproducible_for_same_seed(self):
        src = SourceConfig(uncorrelated_rate_s=1e6, chaotic_tau_s=10.0)
        a = chaotic(src, "signal", 1e6, seed=4)
        b = chaotic(src, "signal", 1e6, seed=4)
        c = chaotic(src, "signal", 1e6, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestScalarBlocks:
    @staticmethod
    def generator_blocks(draw, size=4096):  # reference: the plain generator form
        while True:
            yield from draw(size).tolist()

    def test_same_draws_at_the_same_points(self):
        def run(blocks):
            log, counts = [], {"a": 0, "b": 0}

            def draw(stream, size):
                log.append((stream, size))
                counts[stream] += 1
                base = 100 * (1 if stream == "a" else -1) * counts[stream]
                return np.arange(base, base + size)

            a = blocks(lambda size: draw("a", size), 3).__next__
            b = blocks(lambda size: draw("b", size), 3).__next__
            assert log == []  # nothing is drawn before it is asked for
            values = []
            for pattern in ("a", "ab", "aaab", "bbbbbb", "a", "abababab", "bbb"):
                for stream in pattern:
                    values.append((stream, (a if stream == "a" else b)()))
                    values.append(list(log))
            return values

        old = run(self.generator_blocks)
        new = run(simulate._blocks)
        assert new == old
        assert all(type(v) is int for _, v in new[::2])


class TestDetector:
    def batch(self, times_ns):
        return (np.asarray(times_ns, dtype=float) * PS).astype(np.int64)

    def test_identity_detector_passes_everything_through(self):
        batch = self.batch([10, 20, 35, 90])
        assert np.array_equal(detect_all(batch, IDENTITY, seed=1), batch)

    def test_quantum_efficiency_thins_binomially(self):
        n = 40_000
        batch = self.batch(np.arange(n) * 100.0)
        det = DetectorConfig(quantum_efficiency=0.5)
        tags = detect_all(batch, det, seed=3)
        sigma = np.sqrt(n * 0.25)
        assert abs(len(tags) - n / 2) < 4 * sigma

    def test_jitter_widens_pair_delays_to_tau_d(self):
        # Nearly coincident pairs at sparse spacing: the detected
        # signal-idler delay spread is the two jitters in quadrature.
        sigma_det = 0.61 / np.sqrt(2)
        src = SourceConfig(pair_rate=1e6, tau_c=1e-3)
        pairs = pairs_of(src, one_gate(10_000), seed=9)
        det = DetectorConfig(jitter_sigma=sigma_det)
        t_s = detect_all(pairs.signal_ps, det, seed=10, gates=one_gate(10_000))
        t_i = detect_all(pairs.idler_ps, det, seed=11, gates=one_gate(10_000))
        assert len(t_s) == len(t_i)
        delays_ns = (t_i - t_s) / PS  # spacing ~1 us >> jitter keeps order
        n = len(delays_ns)
        tol = 4 * 0.61 / np.sqrt(2 * n)  # std-of-std for Gaussian samples
        assert np.std(delays_ns) == pytest.approx(0.61, abs=max(tol, 0.02))

    def test_dark_counts_fill_gated_span(self):
        det = DetectorConfig(dark_rate=1e6)
        gates = one_gate(10_000)  # 10 ms
        tags = detect_all(np.zeros(0, np.int64), det, seed=5, gates=gates)
        expected = 1e6 * 10e-3
        assert abs(len(tags) - expected) < 4 * np.sqrt(expected)
        assert tags.min() >= 0
        assert tags.max() <= gates[0][1]

    def test_dark_counts_are_poisson_in_every_gate(self):
        rate, width_ps, period_ps, n_gates = 2e6, 50_000_000, 200_000_000, 2000
        gates = np.array([(i * period_ps, i * period_ps + width_ps)
                          for i in range(n_gates)])
        t = detect_all(np.zeros(0, np.int64), DetectorConfig(dark_rate=rate),
                       seed=12, gates=gates)
        gate = np.searchsorted(gates[:, 0], t, side="right") - 1
        assert np.all(gate >= 0)
        assert np.all(t < gates[gate, 1])
        mean = rate * width_ps * 1e-12  # 100 per gate
        assert abs(len(t) - n_gates * mean) < 4 * np.sqrt(n_gates * mean)
        # Per gate, a Poisson count's variance equals its mean; the sample
        # variance has variance 2 mean^2 / (n - 1) + mean / n.
        per_gate = np.bincount(gate, minlength=n_gates)
        sigma = np.sqrt(2 * mean ** 2 / (n_gates - 1) + mean / n_gates)
        assert abs(per_gate.var(ddof=1) - mean) < 4 * sigma
        # Uniform within its gate: mean offset half the width.
        offset = (t - gates[gate, 0]) / width_ps
        assert abs(offset.mean() - 0.5) < 4 * np.sqrt(1 / 12 / len(t))

    def test_dead_time_drops_close_followers(self):
        batch = self.batch([0.0, 0.5, 5.0, 5.8, 9.0])
        det = DetectorConfig(dead_time=1.0)
        assert detect_all(batch, det, seed=1).tolist() == [0, 5000, 9000]

    def test_dead_time_mask_matches_per_tag_walk(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(0, 2000))
            dead_ps = int(rng.integers(1, 5000))
            span = int(rng.integers(1, 4 * dead_ps * max(n, 1)))
            times = np.sort(rng.integers(0, span, n)).astype(np.int64)
            assert np.array_equal(simulate._dead_time_filter(times, dead_ps),
                                  dead_time_mask(times, dead_ps))

    def test_more_events_than_sized_for_rejected(self):
        detector = Detector(DetectorConfig(quantum_efficiency=0.5), 3, seed=1)
        detect(self.batch([1, 2]), detector)
        with pytest.raises(ValidationError):
            detect(self.batch([3, 4]), detector)


class TestSplitHbt:
    def test_conserves_tags_and_reroutes_channels(self):
        rng = np.random.default_rng(6)
        ch = rng.integers(0, 2, 5000).astype(np.uint8)
        before = ch.copy()
        out = split_hbt(ch, 0, (2, 3), seed=1)
        assert out.dtype == np.uint8
        assert np.array_equal(ch, before)  # a copy: the input is left as it was
        mask = ch == 0
        assert set(np.unique(out[mask])) <= {2, 3}
        assert np.array_equal(out[~mask], ch[~mask])
        # Roughly balanced split.
        n2 = int((out == 2).sum())
        assert abs(n2 - mask.sum() / 2) < 4 * np.sqrt(mask.sum() / 4)


class TestPipeline:
    CONFIG = {
        "seed": 42,
        "source": {"pair_rate": 5e4, "tau_c": 4.4,
                   "uncorrelated_rate_s": 2e4, "uncorrelated_rate_i": 2e4,
                   "chaotic_tau_s": 18.9, "chaotic_tau_i": 12.8},
        "signal_detector": {"quantum_efficiency": 0.6, "jitter_sigma": 0.43},
        "idler_detector": {"quantum_efficiency": 0.6, "jitter_sigma": 0.43},
        "duty_cycle": {"load_duration_us": 500, "fwm_duration_us": 200,
                       "cycles": 50},
    }

    def run(self, overrides=None):
        """The run's manifest, its stream's reader, and the stream's
        channels and timestamps, read back."""
        data = {**self.CONFIG, **(overrides or {})}
        buf = io.BytesIO()
        manifest = simulate_experiment(config_from_dict(data), buf, config_hash="abc")
        buf.seek(0)
        reader = StreamReader(buf)
        return manifest, reader, *read_arrays(reader)

    def test_live_time_and_gate_count(self):
        manifest, reader, _, _ = self.run()
        assert manifest["n_gates"] == 50
        assert manifest["live_time_s"] == pytest.approx(50 * 200e-6)
        assert reader.header.acquisition_seconds == manifest["live_time_s"]
        assert len(reader.gates) == 50

    def test_manifest_records_run_facts(self):
        m, _, _, ts = self.run()
        assert m["seed"] == 42
        assert m["config_sha256"] == "abc"
        assert m["n_tags"] == len(ts)
        assert m["n_gates"] == 50
        assert m["channels"] == {"signal": 0, "idler": 1}

    def test_both_channels_populated_and_sorted(self):
        _, _, ch, ts = self.run()
        assert np.all(np.diff(ts) >= 0)
        assert (ch == 0).sum() > 0
        assert (ch == 1).sum() > 0

    def test_bit_identical_reproducibility(self):
        bufs = []
        for _ in range(2):
            buf = io.BytesIO()
            simulate_experiment(config_from_dict(self.CONFIG), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        other = io.BytesIO()
        simulate_experiment(config_from_dict({**self.CONFIG, "seed": 43}), other)
        assert other.getvalue() != bufs[0]

    def test_singles_rate_tracks_config(self):
        manifest, _, channels, _ = self.run()
        t = manifest["live_time_s"]
        # Pairs at 5e4 * qe 0.6 plus chaotic floor 2e4 * 0.6 per channel.
        expected = (5e4 + 2e4) * 0.6 * t
        for ch in (0, 1):
            n = int((channels == ch).sum())
            assert abs(n - expected) < 6 * np.sqrt(expected)

    def test_signal_tag_comes_first_at_equal_times(self):
        # Ideal detectors and a 1 ps coherence time: most idlers land on
        # their signal's picosecond.
        _, _, ch, ts = self.run({"source": {"pair_rate": 5e4, "tau_c": 1e-3},
                                 "signal_detector": {}, "idler_detector": {}})
        tie = np.flatnonzero(ts[1:] == ts[:-1])
        assert len(tie) > 100
        assert np.all(ch[tie] <= ch[tie + 1])

    def test_default_config_runs_empty(self):
        buf = io.BytesIO()
        manifest = simulate_experiment(ExperimentConfig(), buf)
        buf.seek(0)
        assert read_arrays(StreamReader(buf))[1].size == 0
        assert manifest["n_tags"] == 0
        assert manifest["n_gates"] == 1


class TestPipelineGolden:
    """Stream and manifest bytes of three pipeline configs, pinned: the
    per-stage seeds and the draw order within each stage."""

    DETECTORS = {
        "signal_detector": {"quantum_efficiency": 0.62,
                            "jitter_sigma": 0.61 / 2 ** 0.5},
        "idler_detector": {"quantum_efficiency": 0.6034,
                           "jitter_sigma": 0.61 / 2 ** 0.5},
    }
    REFERENCE = {  # the acceptance REFERENCE_CONDITIONS at 2000 cycles
        "seed": 1,
        "source": {"pair_rate": 26283.0, "tau_c": 4.4},
        **DETECTORS,
        "duty_cycle": {"load_duration_us": 500, "fwm_duration_us": 200,
                       "cycles": 2000},
    }
    CHAOTIC = {  # the acceptance CHAOTIC_PIPELINE at 2 cycles
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
                       "cycles": 2},
    }
    DEAD_TIME = {
        **REFERENCE,
        "signal_detector": {**DETECTORS["signal_detector"], "dead_time": 50.0},
        "idler_detector": {**DETECTORS["idler_detector"], "dead_time": 50.0},
    }

    @pytest.mark.parametrize("config, n_tags, stream_sha, manifest_sha", [
        (REFERENCE, 12_624,
         "0af5ab04f4e4f860e79591a227052c6a7a04ff68a923f25199f797bdad59e704",
         "5a132c87e9b5c889cc2c02b6366e3307191f74b58849cfd42e965695704ee39e"),
        (CHAOTIC, 2_900,
         "88dbeca5b6465377310d8304a915401bfdbd36d18d01108f98f76395aa7e3bae",
         "85036da71cdc45c216133f889a11e0186f08b52da2f56b90d0c329474bd2edfa"),
        (DEAD_TIME, 12_612,
         "219f7775fd7b8c7ff8cddb812d017723d18fe5281a1106d777f0c8f72ac81d01",
         "5f93b632738e0541482f28308408d1e9b6f0bb01f09d294cdef7c833b61488be"),
    ], ids=["reference", "chaotic", "dead_time"])
    def test_matches_golden_digest(self, tmp_path, config, n_tags, stream_sha,
                                   manifest_sha):
        buf = io.BytesIO()
        result = simulate_experiment(config_from_dict(config), buf, config_hash="golden")
        write_manifest(result, tmp_path / "manifest.json")
        manifest = (tmp_path / "manifest.json").read_bytes()
        assert result["n_tags"] == n_tags
        assert hashlib.sha256(buf.getvalue()).hexdigest() == stream_sha
        assert hashlib.sha256(manifest).hexdigest() == manifest_sha


class TestBlocks:
    """``simulate_experiment`` runs in blocks of whole gates; where they
    are cut must not show in the output, and memory must not grow with
    the tag count."""

    DARK_DEAD = {  # dark counts and 50 ns dead time on both detectors
        **TestPipelineGolden.REFERENCE,
        "signal_detector": {**TestPipelineGolden.DETECTORS["signal_detector"],
                            "dark_rate": 2e4, "dead_time": 50.0},
        "idler_detector": {**TestPipelineGolden.DETECTORS["idler_detector"],
                           "dark_rate": 5e4, "dead_time": 50.0},
    }
    CARRIES = {
        # 100 us idler delays over 20 us between 40 us gates, and jitter
        # and dead times of microseconds: every kind of carry across a
        # block's cut happens many times.
        "seed": 3,
        "source": {"pair_rate": 1e6, "tau_c": 1e5},
        "signal_detector": {"quantum_efficiency": 0.7, "jitter_sigma": 1000.0,
                            "dead_time": 2000.0},
        "idler_detector": {"jitter_sigma": 0.3, "dead_time": 500.0},
        "duty_cycle": {"load_duration_us": 20, "fwm_duration_us": 40,
                       "cycles": 300},
    }

    @staticmethod
    def outputs(config, tmp_path):
        buf = io.BytesIO()
        manifest = simulate_experiment(config_from_dict(config), buf, config_hash="b")
        write_manifest(manifest, tmp_path / "manifest.json")
        return buf.getvalue(), (tmp_path / "manifest.json").read_bytes()

    @pytest.mark.parametrize("config", [
        TestPipelineGolden.REFERENCE, TestPipelineGolden.CHAOTIC,
        TestPipelineGolden.DEAD_TIME, DARK_DEAD, CARRIES,
    ], ids=["reference", "chaotic", "dead_time", "dark_dead", "carries"])
    def test_output_does_not_depend_on_block_size(self, monkeypatch, tmp_path, config):
        default = self.outputs(config, tmp_path)
        # One gate per block, a prime number of events, the whole run.
        for block_tags in (1, 997, 1 << 62):
            monkeypatch.setattr(pipeline, "_BLOCK_TAGS", block_tags)
            assert self.outputs(config, tmp_path) == default, block_tags

    def test_pair_blocks_reassemble_the_whole_emission(self):
        # One gate per block, each cut at the next gate's start: 100 us
        # idler delays carry most idlers across one or more cuts.
        gates = np.array([(i * 60_000_000, i * 60_000_000 + 40_000_000)
                          for i in range(300)])
        src = SourceConfig(pair_rate=2e5, tau_c=1e5)
        source = PairSource(src, gates, seed=3)
        blocks, carried = [], []
        for g in range(len(gates)):
            cut = int(gates[g + 1, 0]) if g + 1 < len(gates) else None
            blocks.append(generate_pairs(source, slice(g, g + 1), cut))
            carried.append(len(source.carry))
        assert np.mean(carried) > 5
        whole = pairs_of(src, gates, seed=3)
        for species in ("signal_ps", "idler_ps"):
            assert np.array_equal(np.concatenate([getattr(b, species) for b in blocks]),
                                  getattr(whole, species))

    def test_memory_does_not_grow_with_the_tag_count(self, tmp_path):
        # The same 2000 gates at 4x the pair rate: about 490 k tags
        # against 122 k. A run that held all its tags grew by about 45
        # bytes per tag, 17 MB; one that holds a block at a time does not.
        peaks = []
        for rate in (1e6, 2.5e5):
            config = {**TestPipelineGolden.REFERENCE,
                      "source": {"pair_rate": rate, "tau_c": 4.4}}
            tracemalloc.start()
            manifest = simulate_experiment(config_from_dict(config), tmp_path / "run.tags")
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert manifest["n_tags"] > 100_000
        assert peaks[0] - peaks[1] < 2 * 1024 * 1024

    def test_loss_budget_adds_up_to_the_tags_written(self, caplog):
        config = {**self.DARK_DEAD, "source": {**TestPipelineGolden.CHAOTIC["source"]},
                  "duty_cycle": {"load_duration_us": 500, "fwm_duration_us": 200,
                                 "cycles": 20}}
        with caplog.at_level(logging.DEBUG, logger="biphoton"):
            manifest = simulate_experiment(config_from_dict(config), io.BytesIO())
        stages = {}
        for record in caplog.records:
            stage, _, fields = record.getMessage().partition(": ")
            stages[stage] = {k: float(v) for k, v in
                             (field.split("=") for field in fields.split())}
        emitted = stages["simulate pairs"]["emitted"]
        chaotic = stages["simulate chaotic"]
        out = 0
        for species in ("signal", "idler"):
            det = stages[f"simulate detect {species}"]
            assert det["in"] == emitted + chaotic[species] > 0
            assert 0 < det["kept"] < det["in"]
            assert det["dark"] > 0 and det["dead"] > 0 and det["wall_s"] >= 0
            assert det["out"] == det["kept"] + det["dark"] - det["clipped"] - det["dead"]
            out += det["out"]
        assert stages["simulate write"]["tags"] == out == manifest["n_tags"]
        assert manifest["n_pairs_emitted"] == emitted
