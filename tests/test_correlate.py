import io
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_histogram

from biphoton import correlate
from biphoton.correlate import (CorrelationHistogram, HistogramConfig, StreamCorrelator,
                                coincidence_rate, cross_correlate, read_histogram)
from biphoton.errors import OrderingError, ValidationError
from biphoton.tagio import StreamHeader, StreamReader

from streams import stream_file

# Thresholds under which every chunk is counted by one kernel.
FORCED = {
    "whole": {"_WHOLE_SHARE": 0.0, "_BIN_EDGE_PAIRS_PER_BIN": math.inf},
    "gather": {"_WHOLE_SHARE": 2.0, "_BIN_EDGE_PAIRS_PER_BIN": math.inf},
    "bin-edge": {"_BIN_EDGE_OFFSET": 1, "_BIN_EDGE_PAIRS_PER_BIN": -1.0},
}


def force_kernel(monkeypatch, kernel):
    for name, value in FORCED[kernel].items():
        monkeypatch.setattr(correlate, name, value)


def random_stream(rng, n, t_max_ps=2_000_000, n_channels=2):
    """The channels and sorted timestamps of n tags in [0, t_max_ps)."""
    ts = np.sort(rng.integers(0, t_max_ps, n)).astype(np.int64)
    ch = rng.integers(0, n_channels, n).astype(np.uint8)
    return ch, ts


def correlate_file(channels, timestamps, config, seconds=1.0, chunk_records=1 << 16):
    """``cross_correlate`` of the stream file of these records, read in
    chunks of ``chunk_records``."""
    file = stream_file(channels, timestamps, StreamHeader(acquisition_seconds=seconds))
    return cross_correlate(StreamReader(file, chunk_records), config)


def feed_in_chunks(channels, timestamps, config, size):
    corr = StreamCorrelator(config)
    for i in range(0, len(timestamps), size):
        corr.feed(channels[i:i + size], timestamps[i:i + size])
    return corr.finish(1.0)


def brute(channels, timestamps, config):
    return brute_force_histogram(
        channels, timestamps,
        channel_a=config.channel_a, channel_b=config.channel_b,
        dt_min_ps=config.dt_min_ps, bin_width_ps=config.bin_width_ps,
        n_bins=config.n_bins)


class TestHistogramConfig:
    def test_bin_count_covers_range(self):
        cfg = HistogramConfig(bin_width=1.4, dt_min=-50, dt_max=350)
        assert cfg.n_bins == 286
        assert cfg.dt_end_ps >= cfg.dt_min_ps + 400_000

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            HistogramConfig(bin_width=0.0)
        with pytest.raises(ValidationError):
            HistogramConfig(dt_min=10, dt_max=10)
        with pytest.raises(ValidationError):
            HistogramConfig(dt_min=10, dt_max=10.0001)

    @pytest.mark.parametrize("field", ["channel_a", "channel_b"])
    @pytest.mark.parametrize("channel", [-1, 256, 1.5])
    def test_channel_outside_8_bits_rejected(self, field, channel):
        with pytest.raises(ValidationError) as exc:
            HistogramConfig(**{field: channel})
        assert exc.value.field == field

    @pytest.mark.parametrize("bin_width, dt_min, dt_max, n_bins", [
        (1.4, -50, 350, 286), (1.4, -100, 100, 143),
        # Widths that round to whole ps: 1.4 ps -> 1 ps, 2.5 ps -> 2 ps.
        (0.0014, -50, 350, 400_000), (0.0025, -1, 1, 1000)])
    def test_bins_reach_dt_max_after_rounding(self, bin_width, dt_min, dt_max,
                                              n_bins):
        cfg = HistogramConfig(bin_width=bin_width, dt_min=dt_min, dt_max=dt_max)
        assert cfg.n_bins == n_bins
        assert cfg.dt_end_ps >= cfg.dt_max_ps
        assert cfg.dt_end_ps - cfg.bin_width_ps < cfg.dt_max_ps


class TestCorrelator:
    def test_single_pair_lands_in_expected_bin(self):
        cfg = HistogramConfig(bin_width=1.4, dt_min=-50, dt_max=350)
        hist = correlate_file([0, 1], [1_000, 11_000], cfg)
        assert hist.total_coincidences == 1
        expected_bin = int((10_000 - cfg.dt_min_ps) // cfg.bin_width_ps)
        assert hist.counts[expected_bin] == 1

    def test_matches_brute_force_cross_and_auto(self):
        rng = np.random.default_rng(21)
        cfg = HistogramConfig(bin_width=1.4, dt_min=-50, dt_max=350)
        auto = HistogramConfig(bin_width=1.4, dt_min=-50, dt_max=350,
                               channel_a=1, channel_b=1)
        for _ in range(5):
            ch, ts = random_stream(rng, 4000)
            assert np.array_equal(correlate_file(ch, ts, cfg).counts,
                                  brute(ch, ts, cfg))
            assert np.array_equal(correlate_file(ch, ts, auto).counts,
                                  brute(ch, ts, auto))

    def test_auto_histogram_symmetric_with_zero_bin_excluded(self):
        rng = np.random.default_rng(3)
        # Edges at odd ps and timestamps on a multiple-of-4 lattice: no
        # delay can land exactly on a half-open bin edge, so the mirrored
        # bins pair up exactly.
        cfg = HistogramConfig(bin_width=0.002, dt_min=-0.101, dt_max=0.101,
                              channel_a=0, channel_b=0)
        ts = 4 * np.sort(rng.integers(0, 2_000, 3000)).astype(np.int64)
        counts = correlate_file(np.zeros(3000, np.uint8), ts, cfg, seconds=8e-9).counts
        assert counts.sum() > 0
        assert np.array_equal(counts, counts[::-1])

    def test_chunked_feeding_matches_batch(self):
        # Read in chunks of 1, 7 and 2**16 records or as one chunk, the file
        # gives one histogram.
        rng = np.random.default_rng(9)
        cfg = HistogramConfig()
        ch, ts = random_stream(rng, 5000)
        batch = correlate_file(ch, ts, cfg, chunk_records=len(ts))
        assert batch.total_coincidences > 0
        for size in (1, 7, 1 << 16):
            chunked = correlate_file(ch, ts, cfg, chunk_records=size)
            assert np.array_equal(chunked.counts, batch.counts)
            assert (chunked.n_a, chunked.n_b) == (batch.n_a, batch.n_b)

    def test_unsorted_tag_stream_rejected(self):
        # A file whose last two records are swapped: its reader raises.
        raw = bytearray(stream_file([0, 1, 0], [50, 100, 150]).getvalue())
        raw[-16:-8], raw[-8:] = raw[-8:], raw[-16:-8]
        with pytest.raises(OrderingError):
            cross_correlate(StreamReader(io.BytesIO(bytes(raw))), HistogramConfig())

    def test_empty_stream_gives_zero_histogram(self):
        hist = correlate_file([], [], HistogramConfig())
        assert hist.total_coincidences == 0

    def test_finish_returns_counts_of_its_own(self):
        # A histogram already returned must not change when the correlator
        # is finished again.
        auto = HistogramConfig(bin_width=1.0, dt_min=-10, dt_max=10,
                               channel_a=0, channel_b=0)
        corr = StreamCorrelator(auto)
        corr.feed([0, 0, 0], [0, 1_000, 2_000])
        first = corr.finish(1.0)
        kept = first.counts.copy()
        assert kept.sum() == 6
        second = corr.finish(1.0)
        assert np.array_equal(first.counts, kept)
        assert np.array_equal(second.counts, kept)
        assert second.counts is not first.counts


class TestIsolatedTagPrefilter:
    """Tags with no partner in reach, next to partnered ones and at chunk
    edges, leave every count exact."""

    CROSS = HistogramConfig(bin_width=1.0, dt_min=-20, dt_max=30)
    AUTO = HistogramConfig(bin_width=1.0, dt_min=-20, dt_max=30,
                           channel_a=1, channel_b=1)
    # dt_min > 0: the window does not contain 0, and span = dt_end.
    LATE = HistogramConfig(bin_width=1.0, dt_min=5, dt_max=30)

    def check(self, channels, timestamps, cfg):
        expected = brute(channels, timestamps, cfg)
        n_a = int(np.count_nonzero(channels == cfg.channel_a))
        n_b = int(np.count_nonzero(channels == cfg.channel_b))
        for size in (1, 2, 7, max(len(timestamps), 1)):
            hist = feed_in_chunks(channels, timestamps, cfg, size)
            assert np.array_equal(hist.counts, expected), size
            assert (hist.n_a, hist.n_b) == (n_a, n_b), size

    def check_all(self, channels, timestamps):
        channels = np.asarray(channels, np.uint8)
        timestamps = np.asarray(timestamps, np.int64)
        for cfg in (self.CROSS, self.AUTO, self.LATE):
            self.check(channels, timestamps, cfg)

    def test_sparse_random_streams(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            # Mean spacing 100 ns against a 30 ns span: most tags are isolated.
            self.check_all(*random_stream(rng, 300, t_max_ps=30_000_000, n_channels=3))

    def test_equal_timestamps(self):
        # Equal times on one channel, then across both, between isolated tags.
        self.check_all([1, 1, 1, 0, 1, 0, 0, 1, 1],
                       [0, 100_000, 100_000, 200_000, 200_000, 200_000,
                        300_000, 300_000, 400_000])

    @pytest.mark.parametrize("cfg", [
        CROSS, AUTO, LATE,
        # Reach set by the negative side: span = 1 - dt_min > dt_end.
        HistogramConfig(bin_width=1.0, dt_min=-40, dt_max=10),
        HistogramConfig(bin_width=1.0, dt_min=-40, dt_max=10,
                        channel_a=0, channel_b=0)])
    def test_gap_of_span_and_span_minus_one(self, cfg):
        span = max(cfg.dt_end_ps, 1 - cfg.dt_min_ps)
        # Tags exactly span apart pair with nothing; span - 1 apart they may.
        ts = np.array([0, span, 10 * span, 11 * span - 1], np.int64)
        for channels in ([0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 0, 0]):
            self.check(np.array(channels, np.uint8), ts, cfg)

    def test_isolated_tag_at_a_chunk_edge(self):
        # With chunks of 2 and 7, the isolated tag at 1 ms opens or closes a
        # chunk, next to a partnered pair in the chunk beside it.
        ch = [0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1]
        ts = [0, 5_000, 200_000, 205_000, 400_000, 405_000, 1_000_000,
              1_600_000, 1_605_000, 1_610_000, 2_000_000, 2_001_000,
              2_002_000, 3_000_000]
        self.check_all(ch, ts)
        self.check_all(ch[1:], ts[1:])


def sweep_property():
    """The hypothesis property of ``TestNeighbourSweep``, made anew for each
    class that runs it: one wrapped test must not run on several classes."""

    @settings(max_examples=200, deadline=None)
    @given(tags=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 25)),
                         max_size=60),
           dt_min_ps=st.integers(-40, 40), bin_width_ps=st.integers(1, 6),
           n_bins=st.integers(1, 15),
           pair=st.tuples(st.integers(0, 2), st.integers(0, 2)),
           cuts=st.lists(st.integers(1, 59), max_size=8))
    def test_equals_brute_force(self, tags, dt_min_ps, bin_width_ps, n_bins,
                                pair, cuts):
        # Gaps of 0-25 ps against windows of a few ps to about 100 ps give
        # equal times, dense runs and isolated tags; windows may hold 0 or
        # lie wholly on either side of it.
        channels = np.array([c for c, _ in tags], np.uint8)
        timestamps = np.cumsum([g for _, g in tags], dtype=np.int64)
        cfg = HistogramConfig(bin_width=bin_width_ps / 1000,
                              dt_min=dt_min_ps / 1000,
                              dt_max=(dt_min_ps + n_bins * bin_width_ps) / 1000,
                              channel_a=pair[0], channel_b=pair[1])
        assert (cfg.dt_min_ps, cfg.n_bins) == (dt_min_ps, n_bins)
        corr = StreamCorrelator(cfg)
        bounds = sorted({c for c in cuts if c < len(tags)})
        for ch, ts in zip(np.split(channels, bounds), np.split(timestamps, bounds)):
            corr.feed(ch, ts)
        hist = corr.finish(1.0)
        assert np.array_equal(hist.counts, brute(channels, timestamps, cfg))
        assert hist.n_a == np.count_nonzero(channels == pair[0])
        assert hist.n_b == np.count_nonzero(channels == pair[1])

    return test_equals_brute_force


class TestNeighbourSweep:
    """The offset sweep equals the all-pairs oracle for any stream, window
    and chunking."""

    test_equals_brute_force = sweep_property()

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (1, 1)])
    def test_burst_carried_past_many_chunks(self, pair):
        # 200 tags 100 ps apart sit inside one 30 ns span, between isolated
        # tags; fed 3 at a time, the carried tail holds far more tags than
        # a chunk.
        rng = np.random.default_rng(17)
        ts = np.concatenate([[0], 1_000_000 + 100 * np.arange(200),
                             [1_030_000, 2_000_000]]).astype(np.int64)
        ch = rng.integers(0, 2, len(ts)).astype(np.uint8)
        cfg = HistogramConfig(bin_width=0.5, dt_min=-20, dt_max=30,
                              channel_a=pair[0], channel_b=pair[1])
        expected = brute(ch, ts, cfg)
        assert expected.sum() > 5000
        assert np.array_equal(feed_in_chunks(ch, ts, cfg, 3).counts, expected)


class ForcedKernel:
    """Runs the cases of the test class it is mixed into with every chunk
    counted by ``KERNEL``."""

    KERNEL = None

    @pytest.fixture(autouse=True, scope="class")
    def forced_kernel(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_kernel(monkeypatch, self.KERNEL)
            yield


class TestIsolatedTagPrefilterWhole(ForcedKernel, TestIsolatedTagPrefilter):
    KERNEL = "whole"


class TestIsolatedTagPrefilterGather(ForcedKernel, TestIsolatedTagPrefilter):
    KERNEL = "gather"


class TestIsolatedTagPrefilterBinEdge(ForcedKernel, TestIsolatedTagPrefilter):
    KERNEL = "bin-edge"


class TestNeighbourSweepWhole(ForcedKernel, TestNeighbourSweep):
    KERNEL = "whole"
    test_equals_brute_force = sweep_property()


class TestNeighbourSweepGather(ForcedKernel, TestNeighbourSweep):
    KERNEL = "gather"
    test_equals_brute_force = sweep_property()


class TestNeighbourSweepBinEdge(ForcedKernel, TestNeighbourSweep):
    KERNEL = "bin-edge"
    test_equals_brute_force = sweep_property()


class TestKernelChoice:
    """Each chunk picks its kernel from its own density."""

    # A 30 ns span and 50 bins: more than 5 pairs per tag is dense.
    CROSS = HistogramConfig(bin_width=1.0, dt_min=-20, dt_max=30)
    AUTO = HistogramConfig(bin_width=1.0, dt_min=-20, dt_max=30,
                           channel_a=1, channel_b=1)
    BOUNDS = [200, 400, 800]  # where the density changes

    def crossing_stream(self):
        """Sparse, regular and dense stretches 40 us apart, then sparse
        again: tags 300 ns apart on average, exactly 12 ns apart (partners
        one and two places back only) and 400 tags in 100 ns."""
        rng = np.random.default_rng(12)
        sparse = np.sort(rng.integers(0, 60_000_000, 200))
        regular = 100_000_000 + 12_000 * np.arange(200)
        dense = 200_000_000 + np.sort(rng.integers(0, 100_000, 400))
        ts = np.concatenate([sparse, regular, dense, 300_000_000 + sparse])
        return rng.integers(0, 2, len(ts)).astype(np.uint8), ts.astype(np.int64)

    def feed(self, channels, timestamps, cfg, bounds):
        corr = StreamCorrelator(cfg)
        for ch, ts in zip(np.split(channels, bounds), np.split(timestamps, bounds)):
            corr.feed(ch, ts)
        return corr

    @pytest.mark.parametrize("cfg", [CROSS, AUTO])
    def test_chunks_of_each_density_take_their_kernel(self, cfg):
        ch, ts = self.crossing_stream()
        corr = self.feed(ch, ts, cfg, self.BOUNDS)
        assert corr.chunks_by_kernel == {"whole": 1, "gather": 2, "bin-edge": 1}
        assert np.array_equal(corr.finish(1.0).counts, brute(ch, ts, cfg))

    @pytest.mark.parametrize("cfg", [CROSS, AUTO])
    def test_random_splits_across_the_crossings(self, cfg):
        ch, ts = self.crossing_stream()
        expected = brute(ch, ts, cfg)
        assert expected.sum() > 10_000
        rng = np.random.default_rng(34)
        for _ in range(20):
            bounds = np.sort(rng.choice(np.arange(1, len(ts)),
                                        rng.integers(1, 40), replace=False))
            hist = self.feed(ch, ts, cfg, bounds).finish(1.0)
            assert np.array_equal(hist.counts, expected), bounds

    @pytest.mark.parametrize("kernel", sorted(FORCED))
    def test_forced_thresholds_pick_one_kernel(self, kernel, monkeypatch):
        force_kernel(monkeypatch, kernel)
        ch, ts = self.crossing_stream()
        bounds = np.arange(100, len(ts), 100)
        corr = self.feed(ch, ts, self.CROSS, bounds)
        assert corr.chunks_by_kernel[kernel] == len(bounds) + 1
        assert np.array_equal(corr.finish(1.0).counts, brute(ch, ts, self.CROSS))


class TestLogging:
    def test_one_debug_line_per_pass(self, caplog):
        buf = stream_file(*random_stream(np.random.default_rng(4), 1000))
        with caplog.at_level(logging.DEBUG, logger="biphoton"):
            hist = cross_correlate(StreamReader(buf, chunk_records=100),
                                   HistogramConfig())
        assert len(caplog.records) == 1
        record = caplog.records[0]
        assert (record.name, record.levelno) == ("biphoton", logging.DEBUG)
        message = record.getMessage()
        assert "1000 tags in" in message
        assert f"{hist.total_coincidences} pairs counted" in message
        for kernel in FORCED:
            assert f"'{kernel}'" in message

    def test_silent_at_warning(self, caplog):
        ch, ts = random_stream(np.random.default_rng(4), 1000)
        with caplog.at_level(logging.WARNING, logger="biphoton"):
            correlate_file(ch, ts, HistogramConfig())
        assert caplog.records == []


def singles_histogram(rate_a, rate_b, duration_s, counts=0):
    """A flat histogram in 1.4 ns bins whose singles give these rates."""
    cfg = HistogramConfig(bin_width=1.4, dt_min=-50, dt_max=350)
    return CorrelationHistogram(config=cfg, counts=np.full(cfg.n_bins, counts, np.int64),
                                duration_s=duration_s, n_a=round(rate_a * duration_s),
                                n_b=round(rate_b * duration_s))


class TestAccidentals:
    def test_reference_rates_give_6_15_counts_per_bin(self):
        g_acc = singles_histogram(16_295.0, 15_860.0, 17.0).g_acc
        assert g_acc == pytest.approx(6.1505, abs=0.001)

    def test_zero_input_gives_zero(self):
        assert singles_histogram(0.0, 15_860.0, 17.0).g_acc == 0.0
        assert singles_histogram(16_295.0, 15_860.0, 0.0).g_acc == 0.0

    def test_doubling_duration_doubles_floor(self):
        one = singles_histogram(1e4, 1e4, 10.0).g_acc
        two = singles_histogram(1e4, 1e4, 20.0).g_acc
        assert two == pytest.approx(2 * one)


def g2_columns(path):
    """The g2 and g2_err columns of a histogram CSV."""
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    return table[:, 2], table[:, 3]


class TestNormalization:
    """The g2 columns that ``export_csv`` writes: counts / G_acc and
    sqrt(counts) / G_acc."""

    def make_hist(self, counts, g_acc):
        # 1e5 singles a channel over T: G_acc = 1e10 * 1.4 ns / T.
        return singles_histogram(1e5 * g_acc / 14.0, 1e5 * g_acc / 14.0, 14.0 / g_acc,
                                 counts)

    def test_flat_histogram_normalizes_to_unity(self, tmp_path):
        hist = self.make_hist(50, 50.0)
        hist.export_csv(tmp_path / "h.csv")
        g2, _ = g2_columns(tmp_path / "h.csv")
        assert np.allclose(g2, 1.0)

    def test_peak_normalization_arithmetic(self, tmp_path):
        # Raw peak: (G0 + G_acc) / G_acc with G0 = 1654, G_acc = 5.8.
        hist = self.make_hist(0, 5.8)
        hist.counts[100] = round(1654 + 5.8)
        hist.export_csv(tmp_path / "h.csv")
        g2, g2_err = g2_columns(tmp_path / "h.csv")
        assert g2[100] == pytest.approx(286.2, abs=0.1)
        assert g2_err[100] == pytest.approx(np.sqrt(1660) / 5.8, rel=1e-6)

    def test_zero_count_bins_give_zero_g2(self, tmp_path):
        hist = self.make_hist(0, 5.0)
        hist.export_csv(tmp_path / "h.csv")
        g2, g2_err = g2_columns(tmp_path / "h.csv")
        assert np.all(g2 == 0)
        assert np.all(g2_err == 0)

    def test_export_csv_with_sidecar(self, tmp_path):
        hist = self.make_hist(5, 5.0)
        out = tmp_path / "hist.csv"
        hist.export_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "bin_center_ns,counts,g2,g2_err"
        meta = json.loads((tmp_path / "hist.csv.meta.json").read_text())
        assert meta["g_acc_per_bin"] == hist.g_acc == pytest.approx(5.0)
        assert meta["bin_width_ns"] == 1.4


def _exported(tmp_path, g_acc=6.25):
    """A histogram with counts in every bin and singles that give it an
    accidental floor of about ``g_acc`` per bin, written by ``export_csv``."""
    cfg = HistogramConfig(bin_width=0.7, dt_min=-20.3, dt_max=31.0,
                          channel_a=2, channel_b=5)
    counts = np.random.default_rng(8).poisson(30.0, cfg.n_bins).astype(np.int64)
    n_a, duration_s = 91_234, 3.7
    hist = CorrelationHistogram(config=cfg, counts=counts, duration_s=duration_s,
                                n_a=n_a, n_b=round(g_acc * duration_s / (n_a * 0.7e-9)))
    path = tmp_path / "h.csv"
    hist.export_csv(path)
    return hist, path


def _edit_csv(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _edit_cell(lines, row, col, edit):
    cells = lines[row].split(",")
    cells[col] = edit(cells[col])
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


class TestReadHistogram:
    @pytest.mark.parametrize("g_acc", [6.25, 0.0])
    def test_round_trip(self, tmp_path, g_acc):
        hist, path = _exported(tmp_path, g_acc)
        back = read_histogram(path)
        assert back.config == hist.config
        assert back.counts.dtype == np.int64
        assert np.array_equal(back.counts, hist.counts)
        assert (back.n_a, back.n_b, back.duration_s) == (hist.n_a, hist.n_b,
                                                         hist.duration_s)
        assert back.g_acc == hist.g_acc == pytest.approx(g_acc)
        meta = json.loads((tmp_path / "h.csv.meta.json").read_text())
        assert meta.get("g_acc_per_bin") == (back.g_acc or None)
        header = path.read_text().splitlines()[0]
        assert header == ("bin_center_ns,counts,g2,g2_err" if g_acc
                          else "bin_center_ns,counts")

    @pytest.mark.parametrize("damage", ["missing", "key", "json", "text", "bool"])
    def test_missing_or_malformed_sidecar_rejected(self, tmp_path, damage):
        _, path = _exported(tmp_path)
        sidecar = tmp_path / "h.csv.meta.json"
        if damage == "missing":
            sidecar.unlink()
        elif damage in ("key", "text", "bool"):
            meta = json.loads(sidecar.read_text())
            if damage == "key":
                del meta["n_a"]
            else:
                meta["n_a"] = "91234" if damage == "text" else True
            sidecar.write_text(json.dumps(meta))
        else:
            sidecar.write_text(sidecar.read_text()[:-2])
        with pytest.raises(ValidationError) as err:
            read_histogram(path)
        assert err.value.field == "sidecar"

    @pytest.mark.parametrize("edit, field", [
        (lambda lines: lines[:-1], "csv"),  # a row short
        (lambda lines: lines + [lines[-1]], "csv"),  # a row over
        (lambda lines: _edit_cell(lines, 3, 1, lambda n: n + ".5"), "counts"),
        (lambda lines: _edit_cell(lines, 3, 1, lambda n: "-" + n), "counts"),
        (lambda lines: _edit_cell(lines, 3, 1, lambda n: "nan"), "counts"),
        (lambda lines: _edit_cell(lines, 3, 1, lambda n: "x"), "csv"),
        (lambda lines: _edit_cell(lines, 3, 1, lambda n: str(int(n) + 1)),
         "total_coincidences"),
    ], ids=["short", "long", "fraction", "negative", "nan", "text", "total"])
    def test_damaged_csv_rejected(self, tmp_path, edit, field):
        _, path = _exported(tmp_path)
        _edit_csv(path, edit)
        with pytest.raises(ValidationError) as err:
            read_histogram(path)
        assert err.value.field == field

    @pytest.mark.parametrize("offset_ns", [9e-7, -9e-7, 1.1e-6, -1.1e-6])
    def test_centres_agree_with_the_binning_within_1e_6_ns(self, tmp_path, offset_ns):
        hist, path = _exported(tmp_path)
        centre = f"{hist.bin_centers_ns()[6] + offset_ns:.9f}"
        _edit_csv(path, lambda lines: _edit_cell(lines, 7, 0, lambda c: centre))
        if abs(offset_ns) < 1e-6:
            assert np.array_equal(read_histogram(path).counts, hist.counts)
        else:
            with pytest.raises(ValidationError) as err:
                read_histogram(path)
            assert err.value.field == "bin_center_ns"


class TestCoincidenceRate:
    def test_pure_accidentals_give_zero_rate(self):
        rng = np.random.default_rng(33)
        # 239 046 singles a channel in 2 s put G_acc at 40.0 per 1.4 ns bin.
        hist = singles_histogram(119_523.0, 119_523.0, 2.0)
        assert hist.g_acc == pytest.approx(40.0, abs=1e-3)
        hist.counts = rng.poisson(hist.g_acc, len(hist.counts)).astype(np.int64)
        rate = coincidence_rate(hist, 40.0)
        n_bins = int(((hist.bin_centers_ns() >= 0)
                      & (hist.bin_centers_ns() <= 40.0)).sum())
        sigma = np.sqrt(40.0 * n_bins) / 2.0
        assert abs(rate) < 4 * sigma

    def test_window_fraction_of_exponential(self):
        # Bins of an exact exponential: shrinking the window from "all"
        # to tau_c captures the 1 - 1/e fraction of true pairs.
        cfg = HistogramConfig(bin_width=0.01, dt_min=-10, dt_max=60)
        centers = cfg.bin_centers_ns()
        tau = 4.4
        density = np.where(centers >= 0, np.exp(-np.maximum(centers, 0) / tau), 0)
        counts = np.round(1e6 * density * cfg.bin_width).astype(np.int64)
        hist = CorrelationHistogram(config=cfg, counts=counts, duration_s=1.0)
        assert hist.g_acc == 0.0  # no singles: nothing to subtract
        full = coincidence_rate(hist, 44.0)
        short = coincidence_rate(hist, tau)
        assert short / full == pytest.approx(1 - np.exp(-1), abs=0.01)
