import hashlib
import io

import numpy as np
import pytest

from biphoton import simulate
from biphoton.config import ExperimentConfig, config_from_dict
from biphoton.correlate import HistogramConfig, cross_correlate
from biphoton.errors import ResolutionError, ValidationError
from biphoton.pipeline import simulate_experiment
from biphoton.simulate import (IDLER, SIGNAL, DetectorConfig, EmissionBatch,
                               SourceConfig, detect, generate_chaotic,
                               generate_chaotic_gated, generate_pairs,
                               split_hbt)
from biphoton.tagio import write_stream

PS = 1000  # ps per ns

IDENTITY = DetectorConfig()
CHANNEL_MAP = {SIGNAL: 0, IDLER: 1}


def one_gate(width_us):
    return [(0, int(width_us * 1_000_000))]


class TestPairGeneration:
    def test_zero_rate_is_empty(self):
        batch = generate_pairs(SourceConfig(pair_rate=0.0), one_gate(200), 1)
        assert len(batch) == 0

    def test_no_gates_is_empty(self):
        batch = generate_pairs(SourceConfig(pair_rate=1e5), [], 1)
        assert len(batch) == 0

    def test_pair_count_is_poisson(self):
        gates = [(i * 1_000_000_000, i * 1_000_000_000 + 200_000_000)
                 for i in range(1000)]
        batch = generate_pairs(SourceConfig(pair_rate=1e5), gates, seed=3)
        n_pairs = int((batch.species == SIGNAL).sum())
        expected = 1e5 * 200e-6 * 1000  # 20_000
        assert abs(n_pairs - expected) < 4 * np.sqrt(expected)
        assert (batch.species == IDLER).sum() == n_pairs

    def test_idler_delay_is_exponential_with_tau_c_mean(self):
        src = SourceConfig(pair_rate=2e5, tau_c=4.4)
        batch = generate_pairs(src, one_gate(50_000), seed=5)
        signal = batch.select(SIGNAL)
        idler = batch.select(IDLER)
        order_s = np.argsort(signal.pair_ids)
        order_i = np.argsort(idler.pair_ids)
        delays_ns = (idler.times_ps[order_i] - signal.times_ps[order_s]) / PS
        n = len(delays_ns)
        assert np.all(delays_ns >= 0)
        # Exp(tau) sample mean: sigma = tau / sqrt(N).
        assert abs(delays_ns.mean() - 4.4) < 4 * 4.4 / np.sqrt(n)

    def test_events_are_time_sorted_with_matching_pair_ids(self):
        batch = generate_pairs(SourceConfig(pair_rate=1e5), one_gate(5000), 7)
        assert np.all(np.diff(batch.times_ps) >= 0)
        ids, counts = np.unique(batch.pair_ids, return_counts=True)
        assert np.all(counts == 2)
        assert ids.min() >= 1

    def test_unsorted_gates_rejected(self):
        gates = [(100, 200), (50, 90)]
        with pytest.raises(ValidationError):
            generate_pairs(SourceConfig(pair_rate=1.0), gates, 1)


class TestChaoticGeneration:
    def test_zero_rate_is_empty(self):
        src = SourceConfig(uncorrelated_rate_s=0.0)
        assert len(generate_chaotic(src, "signal", 1000.0, 1)) == 0

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValidationError):
            generate_chaotic(SourceConfig(), "pump", 1000.0, 1)

    def test_coarse_grid_rejected(self):
        src = SourceConfig(uncorrelated_rate_s=1e4, chaotic_tau_s=10.0)
        with pytest.raises(ResolutionError):
            generate_chaotic(src, "signal", 1000.0, 1, grid_dt_ns=2.0)

    def test_mean_rate_recovered(self):
        src = SourceConfig(uncorrelated_rate_s=1e6, chaotic_tau_s=10.0)
        duration_ns = 2e7  # 20 ms
        batch = generate_chaotic(src, "signal", duration_ns, seed=11)
        expected = 1e6 * duration_ns * 1e-9
        # Bunching inflates the count variance by 1 + 2 R tau over Poisson.
        sigma = np.sqrt(expected * (1 + 2 * 1e6 * 10e-9))
        assert abs(len(batch) - expected) < 5 * sigma
        assert np.all(np.diff(batch.times_ps) >= 0)

    def test_siegert_relation_at_zero_tail_and_half_width(self):
        tau = 50.0
        rate = 2e7
        duration_ns = 3e7  # 30 ms
        src = SourceConfig(uncorrelated_rate_s=rate, chaotic_tau_s=tau,
                           chaotic_grid_dt_ns=0.5)
        batch = generate_chaotic(src, "signal", duration_ns, seed=13)
        cfg = HistogramConfig(bin_width=0.5, dt_min=-200, dt_max=200,
                              channel_a=0, channel_b=0)
        from biphoton.tagio import StreamHeader, TagStream
        stream = TagStream(channels=np.zeros(len(batch), np.uint8),
                           timestamps=batch.times_ps,
                           header=StreamHeader(acquisition_seconds=duration_ns * 1e-9))
        hist = cross_correlate(stream, cfg)
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
        batch = generate_chaotic_gated(src, "signal", gates, seed=2)
        inside = np.zeros(len(batch), dtype=bool)
        for g in gates:
            inside |= (batch.times_ps >= g[0]) & (batch.times_ps < g[1])
        assert len(batch) > 0
        assert inside.all()
        assert np.all(np.diff(batch.times_ps) >= 0)

    def test_zero_rate_channel_does_no_per_gate_work(self, monkeypatch):
        calls = []
        real = simulate.generate_chaotic

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "generate_chaotic", counting)
        gates = [(i * 10_000_000, i * 10_000_000 + 5_000_000) for i in range(1000)]
        batch = generate_chaotic_gated(SourceConfig(), "signal", gates, seed=1)
        assert len(batch) == 0
        assert len(calls) == 1

    def test_zero_rate_channel_keeps_its_checks(self):
        with pytest.raises(ResolutionError):
            generate_chaotic_gated(SourceConfig(chaotic_grid_dt_ns=5.0), "signal",
                                   one_gate(1), seed=1)
        with pytest.raises(ValidationError):
            generate_chaotic_gated(SourceConfig(), "pump", one_gate(1), seed=1)
        assert len(generate_chaotic_gated(SourceConfig(), "pump", [], seed=1)) == 0

    # Four gates on a 0.5 ns grid: 4000 cells; 1.2e6 cells, a full chunk of
    # 2^20 and a partial one; 2 cells; 2001 cells.
    GOLDEN_SRC = SourceConfig(uncorrelated_rate_s=2e8, uncorrelated_rate_i=5e7,
                              chaotic_tau_s=10.0, chaotic_tau_i=12.8,
                              chaotic_grid_dt_ns=0.5)
    GOLDEN_GATES = [(0, 2_000_000), (5_000_000, 605_000_000),
                    (700_000_000, 700_000_777), (800_000_000, 801_000_001)]
    GOLDEN = {
        "signal": (119_270, "f53b32e46df02277ec290dabdd73e4af"
                            "83a71d672a8307fc0f5edd7493894790"),
        "idler": (29_705, "6e88c8709f1be77fc42fceb1127732a9"
                          "6500c30e759b082798d3f80b71c6b239"),
    }

    @pytest.mark.parametrize("channel", ["signal", "idler"])
    def test_gated_draws_match_golden_digest(self, channel):
        # Pins the seed contract: per-gate child seeds, the chunk size and
        # the order of the draws within a chunk.
        batch = generate_chaotic_gated(self.GOLDEN_SRC, channel, self.GOLDEN_GATES,
                                       seed=2024)
        digest = hashlib.sha256(batch.times_ps.astype("<i8").tobytes()).hexdigest()
        assert (len(batch), digest) == self.GOLDEN[channel]

    def test_gated_output_does_not_depend_on_worker_count(self, monkeypatch):
        gates = [(i * 3_000_000, i * 3_000_000 + 2_000_000) for i in range(7)]
        runs = {}
        for cpus in (1, 2, 4):
            monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
            runs[cpus] = generate_chaotic_gated(self.GOLDEN_SRC, "signal", gates, seed=9)
        for cpus in (2, 4):
            for name in ("times_ps", "species", "pair_ids"):
                assert np.array_equal(getattr(runs[cpus], name), getattr(runs[1], name))

    def test_reproducible_for_same_seed(self):
        src = SourceConfig(uncorrelated_rate_s=1e6, chaotic_tau_s=10.0)
        a = generate_chaotic(src, "signal", 1e6, seed=4)
        b = generate_chaotic(src, "signal", 1e6, seed=4)
        c = generate_chaotic(src, "signal", 1e6, seed=5)
        assert np.array_equal(a.times_ps, b.times_ps)
        assert not np.array_equal(a.times_ps, c.times_ps)


class TestDetector:
    def batch(self, times_ns, species=SIGNAL):
        times = (np.asarray(times_ns, dtype=float) * PS).astype(np.int64)
        return EmissionBatch(times_ps=times,
                             species=np.full(len(times), species, np.uint8),
                             pair_ids=np.zeros(len(times), np.int64))

    def test_identity_detector_passes_everything_through(self):
        batch = self.batch([10, 20, 35, 90])
        stream = detect(batch, IDENTITY, CHANNEL_MAP, seed=1)
        assert np.array_equal(stream.timestamps, batch.times_ps)
        assert np.all(stream.channels == 0)

    def test_quantum_efficiency_thins_binomially(self):
        n = 40_000
        batch = self.batch(np.arange(n) * 100.0)
        det = DetectorConfig(quantum_efficiency=0.5)
        stream = detect(batch, det, CHANNEL_MAP, seed=3)
        sigma = np.sqrt(n * 0.25)
        assert abs(len(stream) - n / 2) < 4 * sigma

    def test_jitter_widens_pair_delays_to_tau_d(self):
        # Nearly coincident pairs at sparse spacing: the detected
        # signal-idler delay spread is the two jitters in quadrature.
        sigma_det = 0.61 / np.sqrt(2)
        src = SourceConfig(pair_rate=1e6, tau_c=1e-3)
        pairs = generate_pairs(src, one_gate(10_000), seed=9)
        det = DetectorConfig(jitter_sigma=sigma_det)
        stream = detect(pairs, det, CHANNEL_MAP, seed=10,
                        gates=one_gate(10_000))
        t_s = stream.timestamps[stream.channels == 0]
        t_i = stream.timestamps[stream.channels == 1]
        assert len(t_s) == len(t_i)
        delays_ns = (t_i - t_s) / PS  # spacing ~1 us >> jitter keeps order
        n = len(delays_ns)
        tol = 4 * 0.61 / np.sqrt(2 * n)  # std-of-std for Gaussian samples
        assert np.std(delays_ns) == pytest.approx(0.61, abs=max(tol, 0.02))

    def test_dark_counts_fill_gated_span(self):
        det = DetectorConfig(dark_rate=1e6)
        gates = one_gate(10_000)  # 10 ms
        stream = detect(EmissionBatch.empty(), det, {SIGNAL: 0}, seed=5,
                        gates=gates)
        expected = 1e6 * 10e-3
        assert abs(len(stream) - expected) < 4 * np.sqrt(expected)
        assert stream.timestamps.min() >= 0
        assert stream.timestamps.max() <= gates[0][1]

    def test_dead_time_drops_close_followers(self):
        batch = self.batch([0.0, 0.5, 5.0, 5.8, 9.0])
        det = DetectorConfig(dead_time=1.0)
        stream = detect(batch, det, CHANNEL_MAP, seed=1)
        assert stream.timestamps.tolist() == [0, 5000, 9000]

    def test_unsorted_batch_rejected(self):
        batch = EmissionBatch(
            times_ps=np.array([100, 50], np.int64),
            species=np.zeros(2, np.uint8), pair_ids=np.zeros(2, np.int64))
        with pytest.raises(ValidationError):
            detect(batch, IDENTITY, CHANNEL_MAP, seed=1)


class TestSplitHbt:
    def test_conserves_tags_and_reroutes_channels(self):
        rng = np.random.default_rng(6)
        from biphoton.tagio import StreamHeader, TagStream
        ts = np.sort(rng.integers(0, 1_000_000, 5000)).astype(np.int64)
        ch = rng.integers(0, 2, 5000).astype(np.uint8)
        stream = TagStream(channels=ch, timestamps=ts, header=StreamHeader())
        out = split_hbt(stream, 0, (2, 3), seed=1)
        assert np.array_equal(out.timestamps, ts)
        mask = ch == 0
        assert set(np.unique(out.channels[mask])) <= {2, 3}
        assert np.array_equal(out.channels[~mask], ch[~mask])
        # Roughly balanced split.
        n2 = int((out.channels == 2).sum())
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
        data = {**self.CONFIG, **(overrides or {})}
        config = config_from_dict(data)
        return simulate_experiment(config, config_hash="abc")

    def test_live_time_and_gate_count(self):
        result = self.run()
        assert result.n_gates == 50
        assert result.live_time_s == pytest.approx(50 * 200e-6)

    def test_manifest_records_run_facts(self):
        result = self.run()
        m = result.manifest
        assert m["seed"] == 42
        assert m["config_sha256"] == "abc"
        assert m["n_tags"] == len(result.stream)
        assert m["n_gates"] == 50
        assert m["channels"] == {"signal": 0, "idler": 1}

    def test_both_channels_populated_and_sorted(self):
        stream = self.run().stream
        assert np.all(np.diff(stream.timestamps) >= 0)
        assert (stream.channels == 0).sum() > 0
        assert (stream.channels == 1).sum() > 0

    def test_bit_identical_reproducibility(self):
        bufs = []
        for _ in range(2):
            buf = io.BytesIO()
            write_stream(self.run().stream, sink=buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        other = io.BytesIO()
        write_stream(self.run({"seed": 43}).stream, sink=other)
        assert other.getvalue() != bufs[0]

    def test_singles_rate_tracks_config(self):
        result = self.run()
        stream = result.stream
        t = result.live_time_s
        # Pairs at 5e4 * qe 0.6 plus chaotic floor 2e4 * 0.6 per channel.
        expected = (5e4 + 2e4) * 0.6 * t
        for ch in (0, 1):
            n = int((stream.channels == ch).sum())
            assert abs(n - expected) < 6 * np.sqrt(expected)

    def test_default_config_runs_empty(self):
        result = simulate_experiment(ExperimentConfig())
        assert len(result.stream) == 0
        assert result.n_gates == 1
