import io
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.errors import (CorruptionError, OrderingError, StreamFormatError,
                             ValidationError)
from biphoton.sequence import (PS_PER_US, DutyCycleSpec, HardwareProfile,
                               compile_duty_cycle, emit_gates)
from biphoton.tagio import (GATE_READ_WINDOWS, HEADER_SIZE, MAGIC, MAX_TIMESTAMP,
                            RECORD_SIZE, StreamHeader, StreamReader, StreamWriter,
                            _decode_records, check_gates, merge_records,
                            total_gate_time_ps)

from streams import read_arrays, stream_file


def write_pairs(pairs, sink, header=None, gates=None):
    """Write ``(channel, timestamp)`` pairs through one ``StreamWriter``;
    returns the number of bytes written."""
    with StreamWriter(sink, header, gates) as writer:
        writer.write([c for c, _ in pairs], [t for _, t in pairs])
    return writer.bytes_written


def pairs_file(pairs, header=None, gates=None):
    """A rewound stream file of ``(channel, timestamp)`` pairs."""
    return stream_file([c for c, _ in pairs], [t for _, t in pairs], header, gates)


def pairs_of(reader):
    channels, timestamps = read_arrays(reader)
    return list(zip(channels.tolist(), timestamps.tolist()))


class TestGolden:
    """Byte layout pinned against an independent struct-level encoding."""

    RECORDS = [(0, 1_000), (1, 2_500), (0, 2_500)]

    def expected_bytes(self):
        header = struct.pack("<8sHHIHHdQQI", MAGIC, 1, 0, 1, 2, 0, 1.25, 0, 0, 0)
        payload = b"".join(struct.pack("<Q", (t << 8) | c) for c, t in self.RECORDS)
        return header + payload

    def test_writer_produces_expected_bytes(self):
        buf = io.BytesIO()
        n = write_pairs(self.RECORDS, buf, StreamHeader(acquisition_seconds=1.25))
        assert buf.getvalue() == self.expected_bytes()
        assert n == HEADER_SIZE + 3 * RECORD_SIZE

    def test_reader_parses_expected_bytes(self):
        reader = StreamReader(io.BytesIO(self.expected_bytes()))
        assert pairs_of(reader) == self.RECORDS
        assert reader.header == StreamHeader(channel_count=2, acquisition_seconds=1.25)

    def test_gate_table_layout(self):
        gates = [(100, 200), (300, 450)]
        raw = pairs_file(self.RECORDS, gates=gates).getvalue()
        table_offset = struct.unpack_from("<Q", raw, 28)[0]
        assert table_offset == HEADER_SIZE
        count = struct.unpack_from("<I", raw, HEADER_SIZE)[0]
        assert count == 2
        assert struct.unpack_from("<QQ", raw, HEADER_SIZE + 4) == (100, 200)
        assert struct.unpack_from("<QQ", raw, HEADER_SIZE + 20) == (300, 450)

    def test_reference_gate_table(self):
        # The 85 000 gates of the acceptance reference duty cycle, against a
        # per-window encoding of 200 us windows that open 500 us into each
        # 700 us cycle.
        spec = DutyCycleSpec(load_duration_us=500, fwm_duration_us=200,
                             cycles=85_000)
        gates = emit_gates(compile_duty_cycle(spec, HardwareProfile()),
                           spec.gate_channel)
        expected = struct.pack("<I", 85_000) + b"".join(
            struct.pack("<QQ", (700 * i + 500) * PS_PER_US,
                        (700 * i + 700) * PS_PER_US) for i in range(85_000))
        raw = pairs_file(self.RECORDS, gates=gates).getvalue()
        assert struct.unpack_from("<Q", raw, 28)[0] == HEADER_SIZE
        assert raw[HEADER_SIZE:HEADER_SIZE + len(expected)] == expected
        back = StreamReader(io.BytesIO(raw))
        assert np.array_equal(back.gates, gates)
        assert pairs_of(back) == self.RECORDS


class TestRoundTrip:
    def test_empty_stream(self):
        back = StreamReader(pairs_file([]))
        assert pairs_of(back) == []
        assert back.header == StreamHeader()

    def test_large_random_roundtrip(self):
        rng = np.random.default_rng(5)
        n = 1_000_000
        ts = np.sort(rng.integers(0, 1 << 40, n)).astype(np.int64)
        ch = rng.integers(0, 4, n).astype(np.uint8)
        back = StreamReader(stream_file(ch, ts, StreamHeader(channel_count=4)))
        back_ch, back_ts = read_arrays(back)
        assert np.array_equal(back_ts, ts)
        assert np.array_equal(back_ch, ch)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, (1 << 56) - 1)),
                    max_size=200))
    def test_roundtrip_property(self, pairs):
        pairs.sort(key=lambda p: p[1])
        assert pairs_of(StreamReader(pairs_file(pairs))) == pairs

    @settings(max_examples=50, deadline=None)
    @given(channel_count=st.integers(0, (1 << 16) - 1),
           seconds=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
           steps=st.lists(st.tuples(st.integers(0, 1 << 40), st.integers(1, 1 << 40)),
                          max_size=20),
           pairs=st.lists(st.tuples(st.integers(0, 255), st.integers(0, MAX_TIMESTAMP)),
                          max_size=50),
           chunk_records=st.integers(1, 8))
    def test_header_gates_and_records_round_trip(self, channel_count, seconds, steps,
                                                 pairs, chunk_records):
        # (gap, width) steps give sorted, disjoint windows.
        gates = np.cumsum(np.array(steps, np.int64).reshape(-1)).reshape(-1, 2)
        pairs.sort(key=lambda p: p[1])
        header = StreamHeader(channel_count=channel_count, acquisition_seconds=seconds)
        reader = StreamReader(pairs_file(pairs, header, gates),
                              chunk_records=chunk_records)
        streamed = [p for c, t in reader.chunks() for p in zip(c.tolist(), t.tolist())]
        assert reader.header == header
        assert np.array_equal(reader.gates, gates)
        assert streamed == pairs

    def test_gates_roundtrip(self):
        gates = [(0, 10), (20, 35)]
        back = StreamReader(pairs_file(self.records(), gates=gates))
        assert np.array_equal(back.gates, gates)

    @staticmethod
    def records():
        return [(0, 5), (1, 25)]


class TestValidation:
    def test_unsorted_records_rejected(self):
        with pytest.raises(OrderingError):
            pairs_file([(0, 10), (0, 5)])

    @staticmethod
    def hand_written(timestamps):
        header = struct.pack("<8sHHIHHdQQI", MAGIC, 1, 0, 1, 2, 0, 0.0, 0, 0, 0)
        return header + b"".join(struct.pack("<Q", t << 8) for t in timestamps)

    def test_reader_rejects_unsorted_records(self):
        raw = self.hand_written([500, 100])
        with pytest.raises(OrderingError):
            list(StreamReader(io.BytesIO(raw)).chunks())

    def test_reader_rejects_disorder_across_chunks(self):
        reader = StreamReader(io.BytesIO(self.hand_written([500, 100])),
                              chunk_records=1)
        chunks = reader.chunks()
        assert next(chunks)[1].tolist() == [500]
        with pytest.raises(OrderingError):
            next(chunks)

    def test_reader_accepts_equal_timestamps(self):
        raw = self.hand_written([100, 500, 500, 700])
        for n in (1, 2, 4):
            # A chunk's arrays are reused by the next: keep copies.
            reader = StreamReader(io.BytesIO(raw), chunk_records=n)
            parts = [t.copy() for _, t in reader.chunks()]
            assert np.concatenate(parts).tolist() == [100, 500, 500, 700]

    def test_timestamp_range_rejected(self):
        with pytest.raises(ValidationError):
            pairs_file([(0, 1 << 56)])

    @pytest.mark.parametrize("pairs, error", [
        ([(0, 10), (0, 5)], OrderingError),
        ([(0, 1 << 56)], ValidationError),
    ], ids=["unsorted", "past_56_bits"])
    def test_rejected_write_leaves_files_alone(self, tmp_path, pairs, error):
        old = tmp_path / "old.tags"
        old.write_bytes(bytes(range(100)))
        new = tmp_path / "new.tags"
        for path in (old, new):
            with pytest.raises(error):
                write_pairs(pairs, path)
        assert old.read_bytes() == bytes(range(100))
        assert not new.exists()

    def test_bad_magic(self):
        with pytest.raises(StreamFormatError):
            StreamReader(io.BytesIO(b"NOTMAGIC" + b"\0" * 40))

    def test_truncated_header(self):
        with pytest.raises(StreamFormatError):
            StreamReader(io.BytesIO(b"BIPHTAG\0short"))

    def test_rejected_file_is_closed(self, tmp_path):
        # An unclosed file only warns when it is collected, so the check
        # runs in its own interpreter with that warning made an error.
        path = tmp_path / "bad.tags"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 40)
        script = (
            "import gc\n"
            "from biphoton.errors import StreamFormatError\n"
            "from biphoton.tagio import StreamReader\n"
            "try:\n"
            f"    StreamReader({str(path)!r})\n"
            "except StreamFormatError:\n"
            "    gc.collect()\n"
            "else:\n"
            "    raise SystemExit('no StreamFormatError')\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-W", "error::ResourceWarning",
                               "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr

    def test_truncated_record_reports_offset(self):
        raw = pairs_file([(0, 100), (1, 200)]).getvalue()
        damaged = raw[:-1]  # drop one byte of the last record
        with pytest.raises(CorruptionError) as err:
            list(StreamReader(io.BytesIO(damaged)).chunks())
        assert err.value.offset == HEADER_SIZE + RECORD_SIZE

    @pytest.mark.parametrize("count, table_bytes, offset", [
        (0xFFFFFFFF, 48, 100),  # a corrupt count in a 100-byte file
        (4, 56, HEADER_SIZE + 4 + 56),  # the last window cut in half
    ])
    def test_truncated_gate_table_reports_offset(self, tmp_path, count,
                                                 table_bytes, offset):
        path = tmp_path / "table.tags"
        path.write_bytes(self.table_header(count) + bytes(range(table_bytes)))
        with pytest.raises(CorruptionError) as err:
            StreamReader(path)
        assert err.value.offset == offset

    def test_gate_table_is_read_in_bounded_pieces(self):
        sizes = []

        class Recording(io.BytesIO):
            def read(self, n=-1):
                sizes.append(n)
                return super().read(n)

        with pytest.raises(CorruptionError):
            StreamReader(Recording(self.table_header(0xFFFFFFFF) + b"\0" * 48))
        assert 0 <= min(sizes) and max(sizes) <= 16 * GATE_READ_WINDOWS

    @staticmethod
    def table_header(count):
        return (struct.pack("<8sHHIHHdQQI", MAGIC, 1, 0, 1, 2, 0, 0.0,
                            HEADER_SIZE, 0, 0) + struct.pack("<I", count))

    def test_unsupported_version(self):
        header = struct.pack("<8sHHIHHdQQI", MAGIC, 99, 0, 1, 2, 0, 0.0, 0, 0, 0)
        with pytest.raises(StreamFormatError):
            StreamReader(io.BytesIO(header))

    def test_tick_other_than_one_ps_rejected(self):
        # A 2 ps/tick file: read as ps, its delays would come out halved.
        header = struct.pack("<8sHHIHHdQQI", MAGIC, 1, 0, 2, 2, 0, 0.0, 0, 0, 0)
        raw = header + struct.pack("<QQ", 500 << 8, (700 << 8) | 1)
        with pytest.raises(StreamFormatError, match="tick"):
            StreamReader(io.BytesIO(raw))


class TestHeaderChecks:
    """The header's fields are checked on the way out and on the way in."""

    @pytest.mark.parametrize("fields", [
        {"channel_count": 70_000}, {"channel_count": -1},
        {"acquisition_seconds": math.nan}, {"acquisition_seconds": math.inf},
        {"acquisition_seconds": -1.0},
    ], ids=["count-past-u16", "negative-count", "nan", "inf", "negative-time"])
    def test_writer_rejects_a_header_outside_its_fields(self, fields):
        with pytest.raises(ValidationError, match=next(iter(fields))):
            StreamWriter(io.BytesIO(), StreamHeader(**fields))

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -1.0])
    def test_reader_rejects_a_stored_live_time(self, seconds):
        raw = bytearray(pairs_file([(0, 5)], StreamHeader(acquisition_seconds=2.0))
                        .getvalue())
        assert struct.unpack_from("<d", raw, 20) == (2.0,)
        raw[20:28] = struct.pack("<d", seconds)
        with pytest.raises(StreamFormatError, match="acquisition_seconds"):
            StreamReader(io.BytesIO(bytes(raw)))


class TestCheckGates:
    def test_accepts_empty_and_pairs(self):
        assert check_gates([]).shape == (0, 2)
        assert check_gates(None).shape == (0, 2)
        gates = check_gates([(0, 10), (10, 25)])
        assert gates.dtype == np.int64
        assert gates.tolist() == [[0, 10], [10, 25]]

    @pytest.mark.parametrize("gates", [
        [(10, 10)],  # start == end
        [(20, 10)],  # start > end
        [(30, 40), (0, 10)],  # unsorted
        [(0, 20), (10, 30)],  # overlapping
        [(-5, 10)],  # negative bound
        [(0, 10, 20)],  # not (n, 2)
    ])
    def test_rejects(self, gates):
        with pytest.raises(ValidationError):
            check_gates(gates)

    def test_writers_reject_a_negative_bound(self):
        with pytest.raises(ValidationError):
            StreamWriter(io.BytesIO(), gates=[(-5, 10)])

    def test_total_gate_time(self):
        gates = [(0, 10), (20, 25)]
        assert total_gate_time_ps(gates) == 15


class TestStreaming:
    def build(self, n=10_000, seed=2):
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.integers(0, 1 << 40, n)).astype(np.int64)
        ch = rng.integers(0, 2, n).astype(np.uint8)
        return stream_file(ch, ts), ch, ts

    def test_streaming_equals_batch(self):
        buf, ch, ts = self.build()
        reader = StreamReader(buf, chunk_records=999)
        parts = [(c.copy(), t.copy()) for c, t in reader.chunks()]
        assert np.array_equal(np.concatenate([p[0] for p in parts]), ch)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), ts)

    def test_chunks_are_bounded(self):
        buf, _, _ = self.build()
        reader = StreamReader(buf, chunk_records=256)
        sizes = [len(t) for _, t in reader.chunks()]
        assert max(sizes) <= 256
        assert sum(sizes) == 10_000

    def test_incremental_writer_matches_one_shot(self):
        one, ch, ts = self.build()
        inc = io.BytesIO()
        with StreamWriter(inc) as writer:
            for i in range(0, len(ts), 999):
                writer.write(ch[i:i + 999], ts[i:i + 999])
        assert inc.getvalue() == one.getvalue()

    def test_failed_writer_leaves_the_path_alone(self, tmp_path):
        path = tmp_path / "out.tags"
        path.write_bytes(bytes(range(100)))
        with pytest.raises(OrderingError):
            with StreamWriter(path) as writer:
                writer.write([0], [100])
                writer.write([0], [50])
        assert path.read_bytes() == bytes(range(100))
        assert [p.name for p in tmp_path.iterdir()] == ["out.tags"]

    def test_writer_rejects_an_unsorted_chunk(self):
        with StreamWriter(io.BytesIO()) as writer:
            with pytest.raises(OrderingError):
                writer.write([0, 1], [100, 50])

    def test_incremental_writer_rejects_cross_chunk_disorder(self):
        with StreamWriter(io.BytesIO()) as writer:
            writer.write([0], [100])
            with pytest.raises(OrderingError):
                writer.write([0], [50])


def test_merge_records_sorted():
    channels, timestamps = merge_records(
        [np.array([0, 0], np.uint8), np.array([1, 1], np.uint8)],
        [np.array([1, 5], np.int64), np.array([3, 5], np.int64)])
    assert timestamps.tolist() == [1, 3, 5, 5]
    assert channels.tolist() == [0, 1, 0, 1]  # the earlier run first at equal times


class TestDecodeRecords:
    def test_matches_the_astype_decode(self):
        rng = np.random.default_rng(8)
        words = rng.integers(0, 1 << 64, 1000, dtype=np.uint64, endpoint=False)
        words[:3] = [0xFF, (MAX_TIMESTAMP << 8) | 0xFF, MAX_TIMESTAMP << 8]
        buf = words.astype("<u8").tobytes()
        channels, timestamps = np.empty(1000, np.uint8), np.empty(1000, np.int64)
        _decode_records(np.frombuffer(buf, "<u8"), channels, timestamps)
        old = np.frombuffer(buf, dtype=np.uint64)
        assert channels.dtype == np.uint8 and timestamps.dtype == np.int64
        assert np.array_equal(channels, (old & np.uint64(0xFF)).astype(np.uint8))
        assert np.array_equal(timestamps, (old >> np.uint64(8)).astype(np.int64))
        assert channels[:3].tolist() == [255, 255, 0]
        assert timestamps[:3].tolist() == [0, MAX_TIMESTAMP, MAX_TIMESTAMP]


class TestChunkLifetime:
    def test_chunks_share_the_readers_buffers(self):
        buf, _, _ = TestStreaming().build(n=1000)
        chunks = StreamReader(buf, chunk_records=300).chunks()
        first, second = next(chunks), next(chunks)
        assert np.shares_memory(first[0], second[0])
        assert np.shares_memory(first[1], second[1])
