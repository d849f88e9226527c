"""Binary time-tag stream format, batch/streaming readers, and software
gate filtering.

Byte layout (all little-endian):

* header, 48 bytes::

      offset  size  field
      0       8     magic b"BIPHTAG\\0"
      8       2     version (currently 1)
      10      2     reserved (0)
      12      4     tick unit, ps per tick (> 0, default 1)
      16      2     channel count
      18      2     reserved (0)
      20      8     acquisition live time T, float64 seconds
      28      8     gate table offset (0 when no table is stored)
      36      8     reserved (0)
      44      4     reserved (0)

* optional gate table at offset 48: uint32 window count followed by
  (uint64 start_ps, uint64 end_ps) per window, sorted and disjoint,

* records to end of file, 8 bytes each: 1 byte channel then the 56-bit
  timestamp in ps as 7 little-endian bytes.

Timestamps are non-decreasing within a stream; 2**56 ps is about 20 hours.

In memory, gate windows are one sorted, disjoint ``(n, 2)`` int64 array of
half-open ``[start, end)`` ps windows, one row per window; ``check_gates``
builds and validates it, and the gate table on disk is its bytes as uint64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CorruptionError, OrderingError, StreamFormatError, ValidationError

MAGIC = b"BIPHTAG\0"
VERSION = 1
HEADER_SIZE = 48
RECORD_SIZE = 8
MAX_TIMESTAMP = (1 << 56) - 1

_HEADER_STRUCT = struct.Struct("<8sHHIHHdQQI")
GATE_READ_WINDOWS = 1 << 15  # gate-table windows per read: 512 KiB


@dataclass(frozen=True)
class TimeTagRecord:
    channel: int
    timestamp: int  # ps since stream epoch


def check_gates(gates) -> np.ndarray:
    """Gate windows as a sorted, disjoint ``(n, 2)`` int64 array of
    half-open ``[start, end)`` ps windows, one row per window.

    Accepts any ``(n, 2)`` array-like, such as a list of ``(start, end)``
    pairs; ``None`` or an empty sequence means no windows.
    """
    arr = np.asarray([] if gates is None else gates, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("gates must be an (n, 2) array of windows",
                              field="gates")
    if np.any(arr < 0):
        raise ValidationError("gate bounds must be non-negative", field="gates")
    if np.any(arr[:, 0] >= arr[:, 1]):
        raise ValidationError("gate start must precede end", field="gates")
    if np.any(arr[1:, 0] < arr[:-1, 1]):
        raise ValidationError("gate windows must be sorted and disjoint",
                              field="gates")
    return arr


@dataclass(frozen=True)
class StreamHeader:
    tick_ps: int = 1
    channel_count: int = 2
    acquisition_seconds: float = 0.0
    version: int = VERSION

    def __post_init__(self):
        if self.tick_ps <= 0:
            raise ValidationError("tick unit must be positive", field="tick_ps")
        if self.version < 1:
            raise ValidationError("version must be >= 1", field="version")


@dataclass
class TagStream:
    """In-memory stream: parallel channel/timestamp arrays plus metadata."""

    channels: np.ndarray  # uint8
    timestamps: np.ndarray  # int64 ps
    header: StreamHeader = field(default_factory=StreamHeader)
    gates: np.ndarray | None = None  # (n, 2) int64, see check_gates

    def __post_init__(self):
        self.gates = check_gates(self.gates)

    def __len__(self):
        return len(self.timestamps)

    @classmethod
    def from_records(cls, records, header=None, gates=None):
        records = list(records)
        channels = np.array([r.channel for r in records], dtype=np.uint8)
        timestamps = np.array([r.timestamp for r in records], dtype=np.int64)
        return cls(channels=channels, timestamps=timestamps,
                   header=header or StreamHeader(), gates=gates)

    def records(self):
        return [TimeTagRecord(int(c), int(t))
                for c, t in zip(self.channels, self.timestamps)]

    def export_csv(self, path):
        """Interoperability export: channel,timestamp_ps rows."""
        with open(path, "w") as fh:
            fh.write("channel,timestamp_ps\n")
            for c, t in zip(self.channels, self.timestamps):
                fh.write(f"{int(c)},{int(t)}\n")


def check_order(timestamps, after=None):
    """Raise ``OrderingError`` unless ``timestamps`` are non-decreasing and
    none precedes ``after``, the last timestamp of an earlier chunk."""
    if len(timestamps) and ((after is not None and timestamps[0] < after)
                            or np.any(timestamps[1:] < timestamps[:-1])):
        raise OrderingError("records must be sorted by timestamp")


def _pack_header(header: StreamHeader, gate_table_offset: int) -> bytes:
    return _HEADER_STRUCT.pack(
        MAGIC, header.version, 0, header.tick_ps, header.channel_count, 0,
        header.acquisition_seconds, gate_table_offset, 0, 0)


def _encode_records(channels, timestamps, after=None) -> bytes:
    channels = np.ascontiguousarray(channels, dtype=np.uint8)
    timestamps = np.ascontiguousarray(timestamps, dtype=np.int64)
    if len(channels) != len(timestamps):
        raise ValidationError("channel/timestamp length mismatch")
    if len(timestamps) == 0:
        return b""
    check_order(timestamps, after)
    if int(timestamps[0]) < 0 or int(timestamps[-1]) > MAX_TIMESTAMP:
        raise ValidationError("timestamp outside the 56-bit range",
                              field="timestamp")
    # Pack channel into the low byte of a little-endian u64 timestamp<<8.
    words = (timestamps.astype(np.uint64) << np.uint64(8)) | channels.astype(np.uint64)
    return words.tobytes()


def _encode_gate_table(gates: np.ndarray) -> bytes:
    """The gate table for checked gates, or nothing when there are none."""
    if not len(gates):
        return b""
    return struct.pack("<I", len(gates)) + gates.astype("<u8").tobytes()


def write_stream(stream_or_records, header=None, sink=None, gates=None) -> int:
    """Serialize a stream; returns the number of bytes written.

    Accepts either a ``TagStream`` (header/gates taken from it unless
    overridden) or an iterable of ``TimeTagRecord`` plus an explicit
    header. ``sink`` is a path or a binary file object.
    """
    if isinstance(stream_or_records, TagStream):
        st = stream_or_records
        header = header or st.header
        gates = st.gates if gates is None else gates
        channels, timestamps = st.channels, st.timestamps
    else:
        records = list(stream_or_records)
        header = header or StreamHeader()
        channels = np.array([r.channel for r in records], dtype=np.uint8)
        timestamps = np.array([r.timestamp for r in records], dtype=np.int64)
    table = _encode_gate_table(check_gates(gates))
    payload = _encode_records(channels, timestamps)
    blob = _pack_header(header, HEADER_SIZE if table else 0) + table + payload
    if sink is None:
        raise ValidationError("sink is required", field="sink")
    if hasattr(sink, "write"):
        sink.write(blob)
    else:
        with open(sink, "wb") as fh:
            fh.write(blob)
    return len(blob)


class StreamWriter:
    """Incremental writer: header and gates up front, records appended."""

    def __init__(self, sink, header=None, gates=None):
        self.header = header or StreamHeader()
        self.gates = check_gates(gates)
        table = _encode_gate_table(self.gates)
        self._own = not hasattr(sink, "write")
        self._fh = open(sink, "wb") if self._own else sink
        self._fh.write(_pack_header(self.header, HEADER_SIZE if table else 0) + table)
        self._last_ts = None
        self.bytes_written = HEADER_SIZE + len(table)

    def write(self, channels, timestamps):
        timestamps = np.ascontiguousarray(timestamps, dtype=np.int64)
        if len(timestamps):
            payload = _encode_records(channels, timestamps, self._last_ts)
            self._fh.write(payload)
            self.bytes_written += len(payload)
            self._last_ts = int(timestamps[-1])

    def close(self):
        if self._own:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _read_exact(fh, n, what, offset):
    buf = fh.read(n)
    if len(buf) != n:
        raise CorruptionError(f"truncated {what}", offset + len(buf))
    return buf


def _parse_header(fh):
    raw = fh.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise StreamFormatError("file shorter than a stream header")
    (magic, version, _r0, tick_ps, channel_count, _r1,
     acq_s, table_offset, _r2, _r3) = _HEADER_STRUCT.unpack(raw)
    if magic != MAGIC:
        raise StreamFormatError("bad magic; not a biphoton time-tag stream")
    if version < 1 or version > VERSION:
        raise StreamFormatError(f"unsupported stream version {version}")
    header = StreamHeader(tick_ps=tick_ps, channel_count=channel_count,
                          acquisition_seconds=acq_s, version=version)
    if not table_offset:
        return header, check_gates(None), HEADER_SIZE
    if table_offset != HEADER_SIZE:
        raise CorruptionError("gate table offset out of place", table_offset)
    count = struct.unpack("<I", _read_exact(fh, 4, "gate table", HEADER_SIZE))[0]
    # Bounded reads: a corrupt count fails at the end of the file, not in
    # one allocation of up to 64 GiB.
    pos = HEADER_SIZE + 4
    parts = [np.zeros(0, "<i8")]
    for first in range(0, count, GATE_READ_WINDOWS):
        n = 16 * min(GATE_READ_WINDOWS, count - first)
        parts.append(np.frombuffer(_read_exact(fh, n, "gate table", pos), "<i8"))
        pos += n
    # A u64 bound of 2**63 or more reads as negative, which check_gates rejects.
    return header, check_gates(np.concatenate(parts).reshape(-1, 2)), pos


def _decode_records(buf: bytes):
    words = np.frombuffer(buf, dtype=np.uint64)
    channels = (words & np.uint64(0xFF)).astype(np.uint8)
    timestamps = (words >> np.uint64(8)).astype(np.int64)
    return channels, timestamps


class StreamReader:
    """Streaming reader with bounded memory: fixed-size record chunks."""

    def __init__(self, source, chunk_records: int = 1 << 16):
        self._own = not hasattr(source, "read")
        self._fh = open(source, "rb") if self._own else source
        self.header, self.gates, self._data_offset = _parse_header(self._fh)
        self.chunk_records = int(chunk_records)

    def chunks(self):
        """Yield (channels, timestamps) array pairs of bounded size.

        Raises ``OrderingError`` at the first chunk whose records are out of
        order, within the chunk or against the end of the chunk before.
        """
        offset = self._data_offset
        last = None
        while True:
            buf = self._fh.read(self.chunk_records * RECORD_SIZE)
            if not buf:
                break
            if len(buf) % RECORD_SIZE:
                raise CorruptionError("truncated record",
                                      offset + len(buf) - (len(buf) % RECORD_SIZE))
            channels, timestamps = _decode_records(buf)
            check_order(timestamps, last)
            last = timestamps[-1]
            yield channels, timestamps
            offset += len(buf)

    def records(self):
        for channels, timestamps in self.chunks():
            for c, t in zip(channels, timestamps):
                yield TimeTagRecord(int(c), int(t))

    def close(self):
        if self._own:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_stream(source, mode: str = "batch"):
    """Read a stream file.

    ``mode="batch"`` materializes everything and returns a ``TagStream``;
    ``mode="streaming"`` returns a ``StreamReader`` whose ``chunks()`` /
    ``records()`` iterate with memory independent of stream length.
    """
    if mode == "streaming":
        return StreamReader(source)
    if mode != "batch":
        raise ValidationError(f"unknown read mode {mode!r}", field="mode")
    with StreamReader(source) as reader:
        parts = list(reader.chunks())
        if parts:
            channels = np.concatenate([p[0] for p in parts])
            timestamps = np.concatenate([p[1] for p in parts])
        else:
            channels = np.zeros(0, dtype=np.uint8)
            timestamps = np.zeros(0, dtype=np.int64)
        return TagStream(channels=channels, timestamps=timestamps,
                         header=reader.header, gates=reader.gates)


def gate_filter(stream_or_timestamps, gates):
    """Keep exactly the tags with start <= t < end for some gate window.

    Single vectorized pass; order preserved. Accepts a ``TagStream`` (a
    filtered copy is returned) or a timestamp array (a boolean mask is
    applied and the kept timestamps returned).
    """
    gates = check_gates(gates)
    if isinstance(stream_or_timestamps, TagStream):
        mask = _gate_mask(stream_or_timestamps.timestamps, gates)
        return replace(stream_or_timestamps,
                       channels=stream_or_timestamps.channels[mask],
                       timestamps=stream_or_timestamps.timestamps[mask])
    timestamps = np.asarray(stream_or_timestamps, dtype=np.int64)
    return timestamps[_gate_mask(timestamps, gates)]


def _gate_mask(timestamps, gates):
    idx = np.searchsorted(gates[:, 0], timestamps, side="right") - 1
    valid = idx >= 0
    mask = np.zeros(len(timestamps), dtype=bool)
    mask[valid] = timestamps[valid] < gates[idx[valid], 1]
    return mask


def total_gate_time_ps(gates) -> int:
    gates = check_gates(gates)
    return int((gates[:, 1] - gates[:, 0]).sum())


def merge_streams(*streams: TagStream) -> TagStream:
    """Deterministic sorted merge of streams sharing one epoch."""
    if not streams:
        raise ValidationError("need at least one stream")
    channels = np.concatenate([s.channels for s in streams])
    timestamps = np.concatenate([s.timestamps for s in streams])
    order = np.argsort(timestamps, kind="stable")
    return TagStream(channels=channels[order], timestamps=timestamps[order],
                     header=streams[0].header, gates=streams[0].gates)
