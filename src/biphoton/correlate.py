"""Coincidence histograms from tag streams: single-pass sliding-window
cross/auto correlation, accidental estimates, and g2 normalization.

``StreamCorrelator`` consumes time-ordered chunks, so a stream read through
``StreamReader`` is histogrammed with memory bounded by the chunk size, not
by the file size. Each tag is compared with the ones 1, 2, ... places
before it until they are out of reach, never with itself.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tagio import PS_PER_NS, StreamReader, TagStream, check_order


@dataclass(frozen=True)
class HistogramConfig:
    """Binning of the delay axis dt = t_b - t_a, in ns.

    The delay axis is tiled by ``n_bins`` half-open bins of ``bin_width``
    starting at ``dt_min``; the width and both ends are rounded to integer
    ps. Channels are the 8-bit channel numbers of the tag stream.
    """

    bin_width: float = 1.4
    dt_min: float = -50.0
    dt_max: float = 350.0
    channel_a: int = 0
    channel_b: int = 1

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValidationError("bin_width must be positive", field="bin_width")
        if not self.dt_min_ps < self.dt_max_ps:
            raise ValidationError("dt_min must be below dt_max", field="dt_min")
        if self.bin_width_ps < 1:
            raise ValidationError("bin_width below 1 ps", field="bin_width")
        for name in ("channel_a", "channel_b"):
            if getattr(self, name) not in range(256):
                raise ValidationError("channel must be an integer in 0-255", field=name)

    @property
    def bin_width_ps(self) -> int:
        return int(round(self.bin_width * PS_PER_NS))

    @property
    def dt_min_ps(self) -> int:
        return int(round(self.dt_min * PS_PER_NS))

    @property
    def dt_max_ps(self) -> int:
        return int(round(self.dt_max * PS_PER_NS))

    @property
    def n_bins(self) -> int:
        return -((self.dt_min_ps - self.dt_max_ps) // self.bin_width_ps)

    @property
    def dt_end_ps(self) -> int:
        """Exclusive upper edge of the last bin (>= dt_max)."""
        return self.dt_min_ps + self.n_bins * self.bin_width_ps

    def bin_edges_ns(self) -> np.ndarray:
        return (self.dt_min_ps + np.arange(self.n_bins + 1) * self.bin_width_ps) / PS_PER_NS

    def bin_centers_ns(self) -> np.ndarray:
        edges = self.bin_edges_ns()
        return 0.5 * (edges[:-1] + edges[1:])


@dataclass
class CorrelationHistogram:
    config: HistogramConfig
    counts: np.ndarray  # int64 per bin
    duration_s: float  # gated live time T
    n_a: int = 0
    n_b: int = 0

    @property
    def rate_a(self) -> float:
        return self.n_a / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def rate_b(self) -> float:
        return self.n_b / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def total_coincidences(self) -> int:
        return int(self.counts.sum())

    def bin_centers_ns(self) -> np.ndarray:
        return self.config.bin_centers_ns()

    def export_csv(self, path, accidental=None, sidecar=None):
        """CSV with bin_center_ns, counts and, when an accidental estimate
        is supplied, the normalized g2 columns. Optionally writes a JSON
        metadata sidecar."""
        centers = self.bin_centers_ns()
        g2 = normalize(self, accidental) if accidental and accidental.g_acc > 0 else None
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if g2 is None:
                writer.writerow(["bin_center_ns", "counts"])
                for c, n in zip(centers, self.counts):
                    writer.writerow([f"{c:.6f}", int(n)])
            else:
                writer.writerow(["bin_center_ns", "counts", "g2", "g2_err"])
                for c, n, v, e in zip(centers, self.counts, g2.values, g2.errors):
                    writer.writerow([f"{c:.6f}", int(n), f"{v:.9g}", f"{e:.9g}"])
        if sidecar:
            meta = {
                "duration_s": self.duration_s,
                "rate_a_hz": self.rate_a,
                "rate_b_hz": self.rate_b,
                "n_a": self.n_a,
                "n_b": self.n_b,
                "bin_width_ns": self.config.bin_width,
                "dt_min_ns": self.config.dt_min,
                "dt_max_ns": self.config.dt_max,
                "channel_a": self.config.channel_a,
                "channel_b": self.config.channel_b,
                "total_coincidences": self.total_coincidences,
            }
            if accidental is not None:
                meta["g_acc_per_bin"] = accidental.g_acc
                meta["g_acc_source"] = accidental.source
            with open(sidecar, "w") as fh:
                json.dump(meta, fh, indent=2)


@dataclass(frozen=True)
class AccidentalEstimate:
    """Expected flat coincidence floor per bin."""

    g_acc: float
    source: str = "computed"

    def __post_init__(self):
        if self.g_acc < 0:
            raise ValidationError("G_acc must be non-negative", field="g_acc")


@dataclass
class G2Histogram:
    """Per-bin degree of second-order coherence with Poisson error bars."""

    bin_centers_ns: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    low_statistics: np.ndarray  # True where the bin had zero counts


class StreamCorrelator:
    """Single-pass sliding-window correlator over time-ordered chunks.

    Feed (channels, timestamps) chunks in global time order; every ordered
    pair (a, b) with dt = t_b - t_a inside the histogram range increments
    the containing bin. A pair in range is less than
    ``span = max(dt_end_ps, 1 - dt_min_ps)`` ps apart, so each sorted tag
    of the correlated channel(s) meets the tags 1, 2, ... places before it
    until one is a span away. Tags d apart land at +d when the earlier is
    on channel a, at -d when it is on b, and at both in an auto histogram.
    The tags within a span of a chunk's end are carried into the next
    feed, so memory stays bounded by the chunk plus one span of tags.
    """

    def __init__(self, config: HistogramConfig):
        self.config = config
        self.counts = np.zeros(config.n_bins, dtype=np.int64)
        self.n_a = 0
        self.n_b = 0
        self._lo_ps = config.dt_min_ps
        self._hi_ps = config.dt_end_ps
        self._span_ps = max(self._hi_ps, 1 - self._lo_ps)
        self._auto = config.channel_a == config.channel_b
        self._carry_t = np.zeros(0, dtype=np.int64)
        self._carry_a = np.zeros(0, dtype=np.int8)
        self._last_ts = None

    def feed(self, channels, timestamps):
        timestamps = np.asarray(timestamps, dtype=np.int64)
        channels = np.asarray(channels)
        if len(timestamps) == 0:
            return
        check_order(timestamps, self._last_ts)
        self._last_ts = int(timestamps[-1])

        is_a = channels == self.config.channel_a
        on = is_a if self._auto else is_a | (channels == self.config.channel_b)
        new_t = np.compress(on, timestamps)
        new_a = np.compress(on, is_a).view(np.int8)
        n_a = int(np.count_nonzero(new_a))
        self.n_a += n_a
        self.n_b += n_a if self._auto else len(new_t) - n_a
        if len(new_t) == 0:
            return

        # t[0] is a sentinel a span before every tag: it pairs with none.
        head = self._carry_t[0] if len(self._carry_t) else new_t[0]
        t = np.concatenate([[head - self._span_ps], self._carry_t, new_t])
        a = np.concatenate([np.zeros(1, np.int8), self._carry_a, new_a])
        dt = self._delays(t, a, 1 + len(self._carry_t))
        dt = np.compress((dt >= self._lo_ps) & (dt < self._hi_ps), dt)
        self.counts += np.bincount((dt - self._lo_ps) // self.config.bin_width_ps,
                                   minlength=self.config.n_bins)
        keep = np.searchsorted(t, self._last_ts - self._span_ps, side="right")
        self._carry_t, self._carry_a = t[keep:].copy(), a[keep:].copy()

    def _delays(self, t, a, first):
        """Delays t_b - t_a of the pairs less than a span apart whose later
        tag is ``t[first:]``; ``t[0]`` is a sentinel a span before the rest
        and ``a`` is 1 on channel-a tags. Offsets past 7 go in blocks of 8,
        16, 32, ..., so a burst of n tags within a span takes about
        log2(n) + 5 passes and at most twice the comparisons it has pairs.
        """
        d = t[first:] - t[first - 1:-1]
        j = np.flatnonzero(d < self._span_ps)
        d = d[j]
        j += first
        later, earlier = j, j - 1
        out = []
        k = 2
        while True:
            if self._auto:
                out += [d, -d]
            else:
                # +1 for (a, b), -1 for (b, a), 0 for a pair on one channel.
                sign = a[earlier] - a[later]
                out.append(np.compress(sign != 0, d * sign))
            if not len(j):
                return np.concatenate(out)
            width = 1 if k < 8 else k
            if width == 1:
                later, earlier = j, j - k
            else:
                later = np.repeat(j, width)
                earlier = later - np.tile(np.arange(k, k + width), len(j))
            np.maximum(earlier, 0, out=earlier)  # past the start: the sentinel
            d = t[later] - t[earlier]
            near = d < self._span_ps
            j = np.compress(near[width - 1::width], j)
            later = j if width == 1 else np.compress(near, later)
            earlier, d = np.compress(near, earlier), np.compress(near, d)
            k += width

    def finish(self, duration_s: float) -> CorrelationHistogram:
        """The histogram of everything fed so far, in counts of its own."""
        return CorrelationHistogram(config=self.config, counts=self.counts.copy(),
                                    duration_s=duration_s,
                                    n_a=self.n_a, n_b=self.n_b)


def cross_correlate(stream: TagStream | StreamReader, config: HistogramConfig,
                    duration_s: float | None = None) -> CorrelationHistogram:
    """Correlate a whole stream: a ``TagStream`` in one feed, or a
    ``StreamReader`` chunk by chunk with memory bounded by the chunk size.

    ``duration_s`` defaults to the gated live time recorded in the stream
    header. Auto-correlation of one HBT arm is the same operation with the
    arm's two detector channels as channel_a/channel_b.
    """
    if duration_s is None:
        duration_s = stream.header.acquisition_seconds
    if isinstance(stream, StreamReader):
        chunks = stream.chunks()
    else:
        chunks = [(stream.channels, stream.timestamps)]
    corr = StreamCorrelator(config)
    for channels, timestamps in chunks:
        corr.feed(channels, timestamps)
    return corr.finish(duration_s)


def accidental_rate(rate_a_hz: float, rate_b_hz: float, bin_width_s: float,
                    duration_s: float) -> AccidentalEstimate:
    """Expected accidentals per bin from two independent sources:
    R1 * R2 * dt_bin * T."""
    for name, v in (("rate_a", rate_a_hz), ("rate_b", rate_b_hz),
                    ("bin_width", bin_width_s), ("duration", duration_s)):
        if v < 0:
            raise ValidationError("must be non-negative", field=name)
    return AccidentalEstimate(rate_a_hz * rate_b_hz * bin_width_s * duration_s,
                              source="computed")


def accidental_from_histogram(hist: CorrelationHistogram) -> AccidentalEstimate:
    """Accidental floor from the histogram's own measured singles rates."""
    return accidental_rate(hist.rate_a, hist.rate_b,
                           hist.config.bin_width_ps * 1e-12, hist.duration_s)


def normalize(hist: CorrelationHistogram, acc: AccidentalEstimate) -> G2Histogram:
    """Per-bin g2 = counts / G_acc with sqrt(counts)/G_acc error bars.

    Zero-count bins get g2 = 0 with zero error and are flagged low-statistics.
    """
    if acc.g_acc <= 0:
        raise ValidationError("G_acc must be positive to normalize", field="g_acc")
    counts = hist.counts.astype(float)
    return G2Histogram(
        bin_centers_ns=hist.bin_centers_ns(),
        values=counts / acc.g_acc,
        errors=np.sqrt(counts) / acc.g_acc,
        low_statistics=hist.counts == 0,
    )


def coincidence_rate(hist: CorrelationHistogram, window_ns: float,
                     acc: AccidentalEstimate) -> float:
    """Accidental-subtracted pair rate from the [0, window] delay span."""
    if window_ns <= 0:
        raise ValidationError("window must be positive", field="window_ns")
    centers = hist.bin_centers_ns()
    if window_ns > centers[-1]:
        raise ValidationError("window exceeds histogram range", field="window_ns")
    sel = (centers >= 0.0) & (centers <= window_ns)
    n_bins = int(sel.sum())
    if hist.duration_s <= 0:
        raise ValidationError("histogram has no live time", field="duration_s")
    net = float(hist.counts[sel].sum()) - acc.g_acc * n_bins
    return net / hist.duration_s
