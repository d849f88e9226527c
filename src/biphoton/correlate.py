"""Coincidence histograms from tag streams: single-pass sliding-window
cross/auto correlation, accidental estimates, and g2 normalization.

``StreamCorrelator`` consumes time-ordered chunks, so a stream read through
``StreamReader`` is histogrammed with memory bounded by the chunk size, not
by the file size. Each chunk first drops its isolated tags, those with no
tag of the correlated channel(s) close enough to pair with; they are only
counted. An auto histogram never pairs a tag with itself: one dt = 0
self-pair per kept tag is removed from the zero bin.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tagio import StreamReader, TagStream, check_order

NS_TO_PS = 1000


@dataclass(frozen=True)
class HistogramConfig:
    """Binning of the delay axis dt = t_b - t_a, in ns.

    The delay axis is tiled by ``n_bins`` half-open bins of ``bin_width``
    starting at ``dt_min``; bin widths are rounded to integer ps.
    """

    bin_width: float = 1.4
    dt_min: float = -50.0
    dt_max: float = 350.0
    channel_a: int = 0
    channel_b: int = 1

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValidationError("bin_width must be positive", field="bin_width")
        if not self.dt_min < self.dt_max:
            raise ValidationError("dt_min must be below dt_max", field="dt_min")
        if self.bin_width_ps < 1:
            raise ValidationError("bin_width below 1 ps", field="bin_width")

    @property
    def bin_width_ps(self) -> int:
        return int(round(self.bin_width * NS_TO_PS))

    @property
    def dt_min_ps(self) -> int:
        return int(round(self.dt_min * NS_TO_PS))

    @property
    def n_bins(self) -> int:
        return int(math.ceil((self.dt_max - self.dt_min) / self.bin_width))

    @property
    def dt_end_ps(self) -> int:
        """Exclusive upper edge of the last bin (>= dt_max)."""
        return self.dt_min_ps + self.n_bins * self.bin_width_ps

    def bin_edges_ns(self) -> np.ndarray:
        return (self.dt_min_ps + np.arange(self.n_bins + 1) * self.bin_width_ps) / NS_TO_PS

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
    source: str = "computed"  # computed | fitted

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
    the containing bin. Memory stays bounded by the event density times
    the delay window, independent of total stream length.

    A pair in range is never ``span = max(dt_end_ps, 1 - dt_min_ps)`` ps or
    more apart, so before pairing, ``feed`` drops each tag of the correlated
    channel(s) whose neighbours among those tags are at least ``span`` away
    on both sides. The first and last such tag of a chunk are always kept:
    their neighbours may lie in another chunk. ``n_a`` and ``n_b`` count
    every tag. In an auto histogram (``channel_a == channel_b``) each kept
    tag meets itself at dt = 0; ``finish`` subtracts one self-pair per kept
    tag from the zero bin.
    """

    def __init__(self, config: HistogramConfig):
        self.config = config
        self.counts = np.zeros(config.n_bins, dtype=np.int64)
        self.n_a = 0
        self.n_b = 0
        self._lo_ps = config.dt_min_ps
        self._hi_ps = config.dt_end_ps
        self._span_ps = max(self._hi_ps, 1 - self._lo_ps)
        self._pend_a = np.zeros(0, dtype=np.int64)
        self._pend_b = np.zeros(0, dtype=np.int64)
        self._last_ts = None
        self._auto = config.channel_a == config.channel_b
        self._self_pairs = 0

    def feed(self, channels, timestamps):
        timestamps = np.asarray(timestamps, dtype=np.int64)
        channels = np.asarray(channels)
        if len(timestamps) == 0:
            return
        check_order(timestamps, self._last_ts)
        self._last_ts = int(timestamps[-1])

        is_a = channels == self.config.channel_a
        if self._auto:
            t = timestamps[is_a]
            ta = tb = t[self._partnered(t)]
            self.n_a += len(t)
            self.n_b += len(t)
            self._self_pairs += len(ta)
        else:
            on = is_a | (channels == self.config.channel_b)
            t, is_a = timestamps[on], is_a[on]
            keep = self._partnered(t)
            n_a = int(np.count_nonzero(is_a))
            self.n_a += n_a
            self.n_b += len(t) - n_a
            ta = t[keep & is_a]
            tb = t[keep & ~is_a]
        self._pend_a = np.concatenate([self._pend_a, ta])
        self._pend_b = np.concatenate([self._pend_b, tb])
        # Anchors whose full partner window is guaranteed present.
        cut = np.searchsorted(self._pend_a, self._last_ts - self._hi_ps, side="right")
        self._sweep(cut)

    def _partnered(self, t):
        """Mask of the sorted tags ``t`` that may pair: those at either end
        of the chunk and those with a neighbour closer than the span."""
        keep = np.ones(len(t), dtype=bool)
        if len(t) > 2:
            near = (t[1:] - t[:-1]) < self._span_ps
            keep[1:-1] = near[:-1] | near[1:]
        return keep

    def _sweep(self, n_anchors):
        if n_anchors:
            anchors = self._pend_a[:n_anchors]
            self._count_pairs(anchors, self._pend_b)
            self._pend_a = self._pend_a[n_anchors:]
        # Partners below every remaining window can be dropped.
        horizon = self._pend_a[0] if len(self._pend_a) else (
            self._last_ts if self._last_ts is not None else 0)
        keep_from = np.searchsorted(self._pend_b, horizon + self._lo_ps, side="left")
        self._pend_b = self._pend_b[keep_from:]

    def _count_pairs(self, ta, tb):
        if len(ta) == 0 or len(tb) == 0:
            return
        lo = np.searchsorted(tb, ta + self._lo_ps, side="left")
        hi = np.searchsorted(tb, ta + self._hi_ps, side="left")
        per = hi - lo
        total = int(per.sum())
        if total == 0:
            return
        # Expand (anchor, partner-range) pairs without a Python loop.
        reps = np.repeat(np.arange(len(ta)), per)
        offsets = np.arange(total) - np.repeat(np.cumsum(per) - per, per)
        dt = tb[lo[reps] + offsets] - ta[reps]
        idx = (dt - self._lo_ps) // self.config.bin_width_ps
        self.counts += np.bincount(idx, minlength=self.config.n_bins)

    def finish(self, duration_s: float) -> CorrelationHistogram:
        """The histogram of everything fed so far, in counts of its own."""
        self._sweep(len(self._pend_a))
        counts = self.counts.copy()
        if self._auto and self._lo_ps <= 0 < self._hi_ps:
            # A tag never pairs with itself: remove the dt == 0 self-pairs.
            counts[-self._lo_ps // self.config.bin_width_ps] -= self._self_pairs
        return CorrelationHistogram(config=self.config, counts=counts,
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


def accidental_from_wings(hist: CorrelationHistogram, wing_min_ns: float,
                          wing_max_ns: float) -> AccidentalEstimate:
    """Empirical per-bin floor: mean count over a flat far-wing delay range."""
    centers = hist.bin_centers_ns()
    sel = (centers >= wing_min_ns) & (centers <= wing_max_ns)
    if not np.any(sel):
        raise ValidationError("wing range contains no bins", field="wing_min_ns")
    return AccidentalEstimate(float(hist.counts[sel].mean()), source="fitted")


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
