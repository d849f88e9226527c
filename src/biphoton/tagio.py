"""Binary time-tag stream format and its streaming writer and reader.

Byte layout (all little-endian):

* header, 48 bytes::

      offset  size  field
      0       8     magic b"BIPHTAG\\0"
      8       2     version (1)
      10      2     reserved (0)
      12      4     tick unit, ps per tick (1)
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
Every stream is a file written by ``StreamWriter`` and read by
``StreamReader``, and ``check_order`` checks the order once in each, on the
way out and on the way in; the layers past them trust it.

In memory, gate windows are one sorted, disjoint ``(n, 2)`` int64 array of
half-open ``[start, end)`` ps windows, one row per window; ``check_gates``
builds and validates it, and the gate table on disk is its bytes as uint64.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, OrderingError, StreamFormatError, ValidationError

MAGIC = b"BIPHTAG\0"
VERSION = 1
HEADER_SIZE = 48
RECORD_SIZE = 8
MAX_TIMESTAMP = (1 << 56) - 1
PS_PER_NS = 1000  # timestamps are in ps

_HEADER_STRUCT = struct.Struct("<8sHHIHHdQQI")
GATE_READ_WINDOWS = 1 << 15  # gate-table windows per read: 512 KiB


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
    """The header fields that vary between streams, each checked to fit its
    field. The version and the tick each have one legal value, so the writer
    always packs ``VERSION`` and a 1 ps tick and the reader rejects any other."""

    channel_count: int = 2
    acquisition_seconds: float = 0.0

    def __post_init__(self):
        if not 0 <= self.channel_count <= 0xFFFF:
            raise ValidationError("must fit 16 bits, 0..65535", field="channel_count")
        if not 0.0 <= self.acquisition_seconds < math.inf:
            raise ValidationError("must be finite and non-negative",
                                  field="acquisition_seconds")


def check_order(timestamps, after=None):
    """Raise ``OrderingError`` unless ``timestamps`` are non-decreasing and
    none precedes ``after``, the last timestamp of an earlier chunk."""
    if len(timestamps) and ((after is not None and timestamps[0] < after)
                            or np.any(timestamps[1:] < timestamps[:-1])):
        raise OrderingError("records must be sorted by timestamp")


def _pack_header(header: StreamHeader, gate_table_offset: int) -> bytes:
    return _HEADER_STRUCT.pack(
        MAGIC, VERSION, 0, 1, header.channel_count, 0,  # 1 ps per tick
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


def _gate_table_parts(gates: np.ndarray):
    """The gate table of checked gates as its count's bytes and its
    windows' buffer, or nothing when there are none. A checked bound is
    non-negative, so its int64 bytes are its uint64 bytes, and on a
    little-endian machine the buffer is ``gates`` itself, not a copy."""
    if not len(gates):
        return []
    return [struct.pack("<I", len(gates)), np.ascontiguousarray(gates, "<i8")]


class StreamWriter:
    """Incremental writer: header and gates first, records appended.

    Nothing reaches the sink until the first records have been encoded, or
    until ``close`` for a stream with none. A path sink is written through
    a sibling ``<path>.part`` file, which replaces the path on a clean close
    and is removed when the ``with`` block raises: a failed write creates no
    file and leaves an existing one untouched.
    """

    def __init__(self, sink, header=None, gates=None):
        self.header = header or StreamHeader()
        self.gates = check_gates(gates)
        table = _gate_table_parts(self.gates)
        self._head = [_pack_header(self.header, HEADER_SIZE if table else 0), *table]
        self._sink = sink
        self._fh = None
        self._part = None if hasattr(sink, "write") else f"{os.fspath(sink)}.part"
        self._last_ts = None
        self.bytes_written = sum(memoryview(part).nbytes for part in self._head)

    def _open(self):
        if self._fh is None:
            self._fh = self._sink if self._part is None else open(self._part, "wb")
            for part in self._head:
                self._fh.write(part)
        return self._fh

    def write(self, channels, timestamps):
        timestamps = np.ascontiguousarray(timestamps, dtype=np.int64)
        payload = _encode_records(channels, timestamps, self._last_ts)
        if payload:
            self._open().write(payload)
            self.bytes_written += len(payload)
            self._last_ts = int(timestamps[-1])

    def close(self):
        """Finish the stream; one with no records still gets its header."""
        self._open()
        if self._part is not None:
            self._fh.close()
            os.replace(self._part, self._sink)
            self._part = None  # a second close, or the with block's, is a no-op

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.close()
        elif self._fh is not None and self._part is not None:
            self._fh.close()
            os.remove(self._part)


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
    if version != VERSION:
        raise StreamFormatError(f"unsupported stream version {version}")
    if tick_ps != 1:
        # Every consumer takes timestamps as picoseconds.
        raise StreamFormatError(f"unsupported tick of {tick_ps} ps; only 1 ps is read")
    try:
        header = StreamHeader(channel_count=channel_count, acquisition_seconds=acq_s)
    except ValidationError as exc:
        raise StreamFormatError(f"bad header: {exc}") from None
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


def _decode_records(words, channels, timestamps):
    """Decode ``<u8`` records into ``channels`` (uint8) and ``timestamps``
    (int64) of the same length: a record's low byte and the bits above."""
    np.copyto(channels, words.view(np.uint8)[::RECORD_SIZE])
    np.right_shift(words, np.uint64(8), out=timestamps.view(np.uint64))


class StreamReader:
    """Streaming reader with bounded memory: fixed-size record chunks."""

    def __init__(self, source, chunk_records: int = 1 << 16):
        self._own = not hasattr(source, "read")
        self._fh = open(source, "rb") if self._own else source
        try:
            self.header, self.gates, self._data_offset = _parse_header(self._fh)
        except BaseException:
            self.close()
            raise
        self.chunk_records = int(chunk_records)

    def __len__(self):
        """Records in the source, from its size past the header and gates;
        a trailing partial record does not count."""
        here = self._fh.tell()
        size = self._fh.seek(0, 2)  # 2: relative to the end
        self._fh.seek(here)
        return (size - self._data_offset) // RECORD_SIZE

    def chunks(self):
        """Yield (channels, timestamps) array pairs of at most
        ``chunk_records`` records.

        One pass reads into one set of buffers: a chunk's arrays are valid
        until the next iteration, so copy them to keep them. Raises
        ``OrderingError`` at the first chunk whose records are out of
        order, within the chunk or against the end of the chunk before.
        """
        records = np.empty(self.chunk_records, "<u8")
        channels = np.empty(self.chunk_records, np.uint8)
        timestamps = np.empty(self.chunk_records, np.int64)
        offset = self._data_offset
        last = None
        while True:
            got = self._fh.readinto(records)
            if not got:
                break
            if got % RECORD_SIZE:
                raise CorruptionError("truncated record",
                                      offset + got - got % RECORD_SIZE)
            n = got // RECORD_SIZE
            chunk_channels, chunk_timestamps = channels[:n], timestamps[:n]
            _decode_records(records[:n], chunk_channels, chunk_timestamps)
            check_order(chunk_timestamps, last)
            last = chunk_timestamps[-1]
            yield chunk_channels, chunk_timestamps
            offset += got

    def close(self):
        if self._own:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def total_gate_time_ps(gates) -> int:
    gates = check_gates(gates)
    return int((gates[:, 1] - gates[:, 0]).sum())


def merge_records(channels, timestamps):
    """Channels and timestamps of several sorted runs of records, given as
    lists of per-run arrays, merged by time; at equal times the earlier
    run comes first."""
    channels = np.concatenate(channels)
    timestamps = np.concatenate(timestamps)
    order = np.argsort(timestamps, kind="stable")
    return channels[order], timestamps[order]

