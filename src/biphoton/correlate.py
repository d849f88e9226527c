"""Coincidence histograms from tag streams: single-pass sliding-window
cross/auto correlation, and each histogram's accidental floor G_acc per
bin from its own singles.

``cross_correlate`` feeds a ``StreamReader``'s time-ordered chunks to a
``StreamCorrelator``, so a stream file is histogrammed with memory bounded
by the chunk size, not by the file size. Each tag is compared with the ones
1, 2, ... places before it until they are out of reach, never with itself.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_fields
from .tagio import PS_PER_NS, StreamReader

log = logging.getLogger("biphoton")


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
        check_fields(self)
        if self.bin_width_ps < 1:
            raise ValidationError("bin_width must be at least 1 ps", field="bin_width")
        if not self.dt_min_ps < self.dt_max_ps:
            raise ValidationError("dt_min must be below dt_max", field="dt_min")
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
    def g_acc(self) -> float:
        """G_acc, the expected accidentals per bin from two independent
        sources, R1 * R2 * dt_bin * T; 0 when a channel is silent or there
        is no live time."""
        bin_width_s = self.config.bin_width_ps * 1e-12
        return self.rate_a * self.rate_b * bin_width_s * self.duration_s

    @property
    def total_coincidences(self) -> int:
        return int(self.counts.sum())

    def bin_centers_ns(self) -> np.ndarray:
        return self.config.bin_centers_ns()

    def export_csv(self, path):
        """Writes the CSV at ``path`` and its JSON sidecar at
        ``<path>.meta.json`` (docs/histogram-format.md). The g2 columns,
        counts / G_acc and sqrt(counts) / G_acc, and the sidecar's
        ``g_acc_per_bin`` are written only when G_acc is positive."""
        centers = self.bin_centers_ns()
        g_acc = self.g_acc
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if g_acc > 0:
                writer.writerow(["bin_center_ns", "counts", "g2", "g2_err"])
                for c, n, v, e in zip(centers, self.counts, self.counts / g_acc,
                                      np.sqrt(self.counts) / g_acc):
                    writer.writerow([f"{c:.6f}", int(n), f"{v:.9g}", f"{e:.9g}"])
            else:
                writer.writerow(["bin_center_ns", "counts"])
                for c, n in zip(centers, self.counts):
                    writer.writerow([f"{c:.6f}", int(n)])
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
        if g_acc > 0:
            meta["g_acc_per_bin"] = g_acc
        with open(_sidecar_path(path), "w") as fh:
            json.dump(meta, fh, indent=2)


def _sidecar_path(csv_path) -> str:
    return str(csv_path) + ".meta.json"


def read_histogram(path) -> CorrelationHistogram:
    """The histogram ``export_csv`` wrote at ``path``.

    The binning, live time and singles come from the sidecar, the counts
    from the CSV; the sidecar's ``g_acc_per_bin`` is not read, since the
    histogram derives G_acc from its own singles. Raises
    ``ValidationError`` when the sidecar is missing or malformed, when the
    CSV has other than ``n_bins`` rows, centres more than 1e-6 ns from the
    binning's or counts that are not non-negative integers, or when the
    counts do not sum to ``total_coincidences``.
    """
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        try:
            table = np.array(list(rows), dtype=float)
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}", field="csv") from None
    sidecar = _sidecar_path(path)
    try:
        with open(sidecar) as fh:
            meta = json.load(fh)
        config = HistogramConfig(
            bin_width=meta["bin_width_ns"], dt_min=meta["dt_min_ns"],
            dt_max=meta["dt_max_ns"], channel_a=meta["channel_a"],
            channel_b=meta["channel_b"])
        duration_s, n_a, n_b = meta["duration_s"], meta["n_a"], meta["n_b"]
        total = meta["total_coincidences"]
    except FileNotFoundError:
        raise ValidationError(f"no metadata sidecar {sidecar}", field="sidecar") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"malformed sidecar {sidecar}: {exc!r}",
                              field="sidecar") from None
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (duration_s, n_a, n_b, total)):
        raise ValidationError(f"malformed sidecar {sidecar}: a value is not a number",
                              field="sidecar")
    if (header[:2] != ["bin_center_ns", "counts"]
            or table.shape != (config.n_bins, len(header))):
        raise ValidationError(f"{path}: need a bin_center_ns,counts header and "
                              f"{config.n_bins} full rows", field="csv")
    if not np.all(np.abs(table[:, 0] - config.bin_centers_ns()) <= 1e-6):
        raise ValidationError(f"{path}: bin centres disagree with the sidecar's "
                              "binning", field="bin_center_ns")
    counts = table[:, 1]
    if not np.all((counts >= 0) & (counts % 1 == 0)):  # rejects nan and inf too
        raise ValidationError(f"{path}: counts must be non-negative integers",
                              field="counts")
    hist = CorrelationHistogram(config=config, counts=counts.astype(np.int64),
                                duration_s=duration_s, n_a=n_a, n_b=n_b)
    if hist.total_coincidences != total:
        raise ValidationError(f"{path}: counts sum to {hist.total_coincidences}, "
                              f"the sidecar records {total}", field="total_coincidences")
    return hist


# Each chunk picks its kernel from its own density (see StreamCorrelator).
# Offsets are compared over the whole chunk while at least this share of
# its tags still has a partner that far back and less than a span away.
_WHOLE_SHARE = 1 / 8
# At this offset (1-8), a chunk whose tags still have partners is counted
# at the bin edges instead if it has more than this many pairs per tag and
# per bin.
_BIN_EDGE_OFFSET = 8
_BIN_EDGE_PAIRS_PER_BIN = 0.1
# Keys per binary-search call of the bin-edge kernel: bounds its memory.
_BIN_EDGE_KEYS = 1 << 16


class StreamCorrelator:
    """Single-pass sliding-window correlator over time-ordered chunks.

    Feed (channels, timestamps) chunks in global time order, unchecked;
    every ordered pair (a, b) with dt = t_b - t_a inside the histogram
    range increments the containing bin. A pair in range is less than
    ``span = max(dt_end_ps, 1 - dt_min_ps)`` ps apart. Tags d apart land at
    +d when the earlier is on channel a, at -d when it is on b, and at both
    in an auto histogram. The tags within a span of a chunk's end are
    carried into the next feed, so memory stays bounded by the chunk plus
    one span of tags.

    Each chunk counts the pairs whose later tag it brings with one of three
    kernels, chosen from that chunk's density; all three give the same
    integer counts:

    * whole-array: each sorted tag of the correlated channel(s) is compared
      with the one k places before it, for the whole chunk at once, for
      k = 1, 2, ... while at least ``_WHOLE_SHARE`` of its tags still have
      that partner within a span;
    * gather: past that, only the tags whose partner k - 1 places back was
      within a span are compared at k, in blocks of 8, 16, 32, ... offsets
      past 7;
    * bin-edge: when tags survive to offset ``_BIN_EDGE_OFFSET`` and the
      chunk has more than ``_BIN_EDGE_PAIRS_PER_BIN`` pairs within a span
      per tag and per bin, the pairs below each bin edge are counted by
      binary search and the bins are their differences (see
      ``_count_at_bin_edges``). Its cost per tag is bounded by the bin
      count, not by the number of partners.

    ``chunks_by_kernel`` counts the chunks each kernel finished. Work
    arrays grow to the largest chunk and are reused by later ones.
    """

    def __init__(self, config: HistogramConfig):
        self.config = config
        self.counts = np.zeros(config.n_bins, dtype=np.int64)
        self.n_a = 0
        self.n_b = 0
        self.chunks_by_kernel = {"whole": 0, "gather": 0, "bin-edge": 0}
        self._n_bins = config.n_bins
        self._bin_ps = config.bin_width_ps
        self._lo_ps = config.dt_min_ps
        self._hi_ps = config.dt_end_ps
        self._span_ps = max(self._hi_ps, 1 - self._lo_ps)
        self._edges_ps = self._lo_ps + self._bin_ps * np.arange(self._n_bins + 1)
        self._auto = config.channel_a == config.channel_b
        self._carry_t = np.zeros(0, dtype=np.int64)
        self._carry_a = np.zeros(0, dtype=np.int8)
        self._work = {}
        self._n_delays = 0

    def _buffer(self, name, n, dtype, keep=0):
        """The first n items of a grow-only work array; growing it keeps
        its first ``keep`` items."""
        buf = self._work.get(name)
        if buf is None or len(buf) < n:
            grown = np.empty(n + n // 8, dtype)
            if keep:
                grown[:keep] = buf[:keep]
            buf = self._work[name] = grown
        return buf[:n]

    def _append(self, n):
        """The next n slots of the chunk's delays."""
        start = self._n_delays
        self._n_delays += n
        return self._buffer("delays", self._n_delays, np.int64, keep=start)[start:]

    def feed(self, channels, timestamps):
        timestamps = np.asarray(timestamps, dtype=np.int64)
        # A reader's chunks are contiguous; a strided view compares far faster copied.
        channels = np.ascontiguousarray(channels)
        if len(timestamps) == 0:
            return

        is_a = channels == self.config.channel_a
        on = is_a if self._auto else is_a | (channels == self.config.channel_b)
        n_on = int(np.count_nonzero(on))
        if n_on == len(on):  # every tag is correlated: no copy
            new_t, new_a = timestamps, is_a
        else:
            new_t = timestamps.compress(on)
            new_a = 1 if self._auto else is_a.compress(on)
        n_a = n_on if self._auto else int(np.count_nonzero(new_a))
        self.n_a += n_a
        self.n_b += n_a if self._auto else n_on - n_a
        if n_on == 0:
            return

        # t[0] is a sentinel a span before every tag: it pairs with none.
        first = 1 + len(self._carry_t)
        t = self._buffer("t", first + n_on, np.int64)
        a = self._buffer("a", first + n_on, np.int8)
        t[0] = (self._carry_t[0] if first > 1 else new_t[0]) - self._span_ps
        t[1:first], t[first:] = self._carry_t, new_t
        a[0] = 0
        a[1:first], a[first:] = self._carry_a, new_a
        self.counts += self._count(t, a, first)
        keep = t.searchsorted(timestamps[-1] - self._span_ps, side="right")
        self._carry_t, self._carry_a = t[keep:].copy(), a[keep:].copy()

    def _count(self, t, a, first):
        """Counts per bin of the pairs whose later tag is ``t[first:]``;
        ``t[0]`` is a sentinel a span before the rest and ``a`` is 1 on
        channel-a tags.

        Offset 1 is compared over the whole chunk. The next offset is too
        while at least ``_WHOLE_SHARE`` of the tags compared had a partner
        in reach (``_whole_offset``); past that, only those tags are
        gathered (``_gather_offsets``). Once tags survive to offset
        ``_BIN_EDGE_OFFSET``, known before any compare when the first tag
        of the chunk does, ``_dense`` counts their partners, and a chunk
        with more than ``_BIN_EDGE_PAIRS_PER_BIN`` per tag and bin is
        counted at the bin edges instead (``_count_at_bin_edges``).
        """
        self._n_delays, kernel = 0, "whole"
        # When the first tag reaches _BIN_EDGE_OFFSET, tags survive to it:
        # choose before comparing any.
        back = first + 1 - _BIN_EDGE_OFFSET
        choose_at = (1 if back >= 0 and t[first] - t[back] < self._span_ps
                     else _BIN_EDGE_OFFSET)
        k, j = 1, None  # j: the tags still in reach; None while all are
        while j is None or len(j):
            if k == choose_at and self._dense(t, first, j):
                self.chunks_by_kernel["bin-edge"] += 1
                return self._count_at_bin_edges(t, a, first)
            if j is None:
                j = self._whole_offset(t, a, first, k)
                k += 1
            else:
                kernel = "gather"
                j, k = self._gather_offsets(t, a, j, k)
        self.chunks_by_kernel[kernel] += 1
        # Bin in place; a delay out of range, below it wrapped to a huge
        # unsigned value, lands in an extra last bin.
        key = self._buffer("delays", self._n_delays, np.int64)
        np.subtract(key, self._lo_ps, out=key)
        np.minimum(key.view(np.uint64), np.uint64(self._hi_ps - self._lo_ps),
                   out=key.view(np.uint64))
        np.floor_divide(key, self._bin_ps, out=key)
        return np.bincount(key, minlength=self._n_bins + 1)[:-1]

    def _whole_offset(self, t, a, first, k):
        """Appends the delays of the pairs k places apart whose later tag
        is ``t[first:]``, compared over the whole chunk. Returns None while
        at least ``_WHOLE_SHARE`` of the compared tags had that partner in
        reach, else the indices of those that had."""
        n = len(t)
        s = max(first, k)  # a tag nearer the start reached the sentinel
        m = n - s
        if m <= 0:
            return np.zeros(0, dtype=np.intp)
        d = np.subtract(t[s:], t[s - k:n - k], out=self._buffer("d", m, np.int64))
        near = np.less(d, self._span_ps, out=self._buffer("near", m, np.bool_))
        n_near = np.count_nonzero(near)
        j = None if n_near and n_near >= _WHOLE_SHARE * m else np.flatnonzero(near) + s
        if self._auto:
            d = d.compress(near, out=self._append(n_near))
            np.negative(d, out=self._append(n_near))
        else:
            # +1 for (a, b), -1 for (b, a), 0 for a pair on one channel.
            sign = np.subtract(a[s - k:n - k], a[s:],
                               out=self._buffer("sign", m, np.int8))
            np.logical_and(near, sign, out=near)
            np.multiply(d, sign, out=d)
            d.compress(near, out=self._append(np.count_nonzero(near)))
        return j

    def _gather_offsets(self, t, a, j, k):
        """Appends the delays of the pairs k places apart whose later tag
        is one of ``j``, the tags whose partner k - 1 places back was in
        reach, and returns the tags still in reach with the next offset.
        Offsets past 7 go in blocks of 8, 16, 32, ..., so a burst of n tags
        within a span takes about log2(n) + 5 passes and at most twice the
        comparisons it has pairs."""
        width = 1 if k < 8 else k
        if width == 1:
            later, earlier = j, j - k
        else:
            later = np.repeat(j, width)
            earlier = later - np.tile(np.arange(k, k + width), len(j))
        np.maximum(earlier, 0, out=earlier)  # past the start: the sentinel
        d = t[later] - t[earlier]
        near = d < self._span_ps
        j = j.compress(near[width - 1::width])
        later = j if width == 1 else later.compress(near)
        earlier, d = earlier.compress(near), d.compress(near)
        if self._auto:
            self._append(len(d))[:] = d
            np.negative(d, out=self._append(len(d)))
        else:
            sign = a[earlier] - a[later]
            pair = sign != 0
            (d * sign).compress(pair, out=self._append(np.count_nonzero(pair)))
        return j, k + width

    def _dense(self, t, first, j):
        """Whether the tags ``j`` still in reach, all of ``t[first:]`` when
        None, have more than ``_BIN_EDGE_PAIRS_PER_BIN`` pairs less than a
        span apart per bin and per tag of the chunk."""
        if j is None:
            j = np.arange(first, len(t))
        # Tag i has i - (the first index less than a span before it) partners.
        reach = t.searchsorted(t[j] - self._span_ps, side="right")
        partners = int(j.sum() - reach.sum())
        return partners > _BIN_EDGE_PAIRS_PER_BIN * self._n_bins * (len(t) - first)

    def _count_at_bin_edges(self, t, a, first):
        """Counts per bin of the pairs with a tag in ``t[first:]``, from
        C[k], the pairs with delay below bin edge e_k, and counts = diff(C).

        These are the pairs of carry and chunk less those of the carry:
        (a in chunk, b anywhere), below e_k when t_b < t_a + e_k, and
        (a in carry, b in chunk), below e_k when t_a > t_b - e_k.
        """
        carry_t, new_t = t[1:first], t[first:]
        if self._auto:
            a_carry, a_new, b_new, b_all = carry_t, new_t, new_t, t[1:]
        else:
            on_a = a[1:].view(np.bool_)
            on_b = ~on_a
            a_new = new_t.compress(on_a[first - 1:])
            b_new = new_t.compress(on_b[first - 1:])
            # Select only what the new tags of each channel pair with.
            b_all = t[1:].compress(on_b) if len(a_new) else new_t[:0]
            a_carry = carry_t.compress(on_a[:first - 1]) if len(b_new) else new_t[:0]
        below = (_summed_searches(b_all, a_new, self._edges_ps, "left")
                 + len(a_carry) * len(b_new)
                 - _summed_searches(a_carry, b_new, -self._edges_ps, "right"))
        counts = below[1:] - below[:-1]
        if self._auto and self._lo_ps <= 0 < self._hi_ps:
            counts[-self._lo_ps // self._bin_ps] -= len(a_new)  # self-pairs
        return counts

    def finish(self, duration_s: float) -> CorrelationHistogram:
        """The histogram of everything fed so far, in counts of its own."""
        return CorrelationHistogram(config=self.config, counts=self.counts.copy(),
                                    duration_s=duration_s,
                                    n_a=self.n_a, n_b=self.n_b)


def _summed_searches(sorted_ps, keys_ps, offsets_ps, side):
    """S[k] = sum over x in ``keys_ps`` of
    ``searchsorted(sorted_ps, x + offsets_ps[k], side)``."""
    total = np.zeros(len(offsets_ps), dtype=np.int64)
    if not len(sorted_ps):  # every search gives 0
        return total
    # One row per offset: each row's keys are sorted, which binary search
    # takes faster than one row per key.
    cols = max(1, _BIN_EDGE_KEYS // len(offsets_ps))
    for i in range(0, len(keys_ps), cols):
        keys = offsets_ps[:, None] + keys_ps[i:i + cols]
        total += sorted_ps.searchsorted(keys, side).sum(axis=1)
    return total


def cross_correlate(stream: StreamReader,
                    config: HistogramConfig) -> CorrelationHistogram:
    """Correlate a whole stream fed chunk by chunk from ``stream.chunks()``,
    with memory bounded by the reader's chunk size. The reader checks the
    order of its chunks and raises ``OrderingError`` when they are out of
    order.

    The live time T is the gated live time recorded in the stream header.
    Auto-correlation of one HBT arm is the same operation with the arm's
    two detector channels as channel_a/channel_b. Logs one DEBUG line per
    pass on the ``biphoton`` logger.
    """
    started = time.perf_counter()
    corr = StreamCorrelator(config)
    tags = 0
    for channels, timestamps in stream.chunks():
        tags += len(timestamps)
        corr.feed(channels, timestamps)
    hist = corr.finish(stream.header.acquisition_seconds)
    log.debug("correlate %d-%d: %d tags in, %d pairs counted, chunks by kernel "
              "%s, %.3f s", config.channel_a, config.channel_b, tags,
              hist.total_coincidences, corr.chunks_by_kernel,
              time.perf_counter() - started)
    return hist


def coincidence_rate(hist: CorrelationHistogram, window_ns: float) -> float:
    """Pair rate from the [0, window] delay span, less G_acc per bin."""
    centers = hist.bin_centers_ns()
    if not 0 < window_ns <= centers[-1]:
        raise ValidationError("window must be positive and within the histogram range",
                              field="window_ns")
    sel = (centers >= 0.0) & (centers <= window_ns)
    n_bins = int(sel.sum())
    if hist.duration_s <= 0:
        raise ValidationError("histogram has no live time", field="duration_s")
    net = float(hist.counts[sel].sum()) - hist.g_acc * n_bins
    return net / hist.duration_s
