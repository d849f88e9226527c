import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.errors import (CorruptionError, OrderingError, StreamFormatError,
                             ValidationError)
from biphoton.sequence import (PS_PER_US, DutyCycleSpec, HardwareProfile,
                               compile_duty_cycle, emit_gates)
from biphoton.tagio import (GATE_READ_WINDOWS, HEADER_SIZE, MAGIC, RECORD_SIZE,
                            StreamHeader, StreamReader, StreamWriter, TagStream,
                            TimeTagRecord, check_gates, gate_filter, merge_streams,
                            read_stream, total_gate_time_ps, write_stream)


def roundtrip(stream, **kwargs):
    buf = io.BytesIO()
    write_stream(stream, sink=buf, **kwargs)
    buf.seek(0)
    return read_stream(buf)


class TestGolden:
    """Byte layout pinned against an independent struct-level encoding."""

    RECORDS = [TimeTagRecord(0, 1_000), TimeTagRecord(1, 2_500),
               TimeTagRecord(0, 2_500)]

    def expected_bytes(self):
        header = struct.pack("<8sHHIHHdQQI", MAGIC, 1, 0, 1, 2, 0, 1.25, 0, 0, 0)
        payload = b"".join(struct.pack("<Q", (r.timestamp << 8) | r.channel)
                           for r in self.RECORDS)
        return header + payload

    def test_writer_produces_expected_bytes(self):
        stream = TagStream.from_records(
            self.RECORDS, header=StreamHeader(acquisition_seconds=1.25))
        buf = io.BytesIO()
        n = write_stream(stream, sink=buf)
        assert buf.getvalue() == self.expected_bytes()
        assert n == HEADER_SIZE + 3 * RECORD_SIZE

    def test_reader_parses_expected_bytes(self):
        stream = read_stream(io.BytesIO(self.expected_bytes()))
        assert stream.records() == self.RECORDS
        assert stream.header.acquisition_seconds == 1.25
        assert stream.header.tick_ps == 1

    def test_gate_table_layout(self):
        gates = [(100, 200), (300, 450)]
        buf = io.BytesIO()
        write_stream(TagStream.from_records(self.RECORDS, gates=gates), sink=buf)
        raw = buf.getvalue()
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
        one = io.BytesIO()
        write_stream(TagStream.from_records(self.RECORDS, gates=gates), sink=one)
        inc = io.BytesIO()
        with StreamWriter(inc, gates=gates) as writer:
            writer.write([r.channel for r in self.RECORDS],
                         [r.timestamp for r in self.RECORDS])
        raw = one.getvalue()
        assert inc.getvalue() == raw
        assert struct.unpack_from("<Q", raw, 28)[0] == HEADER_SIZE
        assert raw[HEADER_SIZE:HEADER_SIZE + len(expected)] == expected
        back = read_stream(io.BytesIO(raw))
        assert np.array_equal(back.gates, gates)
        assert back.records() == self.RECORDS


class TestRoundTrip:
    def test_empty_stream(self):
        stream = TagStream.from_records([])
        back = roundtrip(stream)
        assert len(back) == 0
        assert back.header == stream.header

    def test_large_random_roundtrip(self):
        rng = np.random.default_rng(5)
        n = 1_000_000
        ts = np.sort(rng.integers(0, 1 << 40, n)).astype(np.int64)
        ch = rng.integers(0, 4, n).astype(np.uint8)
        stream = TagStream(channels=ch, timestamps=ts,
                           header=StreamHeader(channel_count=4))
        back = roundtrip(stream)
        assert np.array_equal(back.timestamps, ts)
        assert np.array_equal(back.channels, ch)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, (1 << 56) - 1)),
                    max_size=200))
    def test_roundtrip_property(self, pairs):
        pairs.sort(key=lambda p: p[1])
        records = [TimeTagRecord(c, t) for c, t in pairs]
        back = roundtrip(TagStream.from_records(records))
        assert back.records() == records

    def test_gates_roundtrip(self):
        gates = [(0, 10), (20, 35)]
        back = roundtrip(TagStream.from_records(self.records(), gates=gates))
        assert np.array_equal(back.gates, gates)

    @staticmethod
    def records():
        return [TimeTagRecord(0, 5), TimeTagRecord(1, 25)]


class TestValidation:
    def test_unsorted_records_rejected(self):
        records = [TimeTagRecord(0, 10), TimeTagRecord(0, 5)]
        with pytest.raises(OrderingError):
            write_stream(records, sink=io.BytesIO())

    @staticmethod
    def hand_written(timestamps):
        header = struct.pack("<8sHHIHHdQQI", MAGIC, 1, 0, 1, 2, 0, 0.0, 0, 0, 0)
        return header + b"".join(struct.pack("<Q", t << 8) for t in timestamps)

    def test_reader_rejects_unsorted_records(self):
        raw = self.hand_written([500, 100])
        with pytest.raises(OrderingError):
            read_stream(io.BytesIO(raw))
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
            parts = list(StreamReader(io.BytesIO(raw), chunk_records=n).chunks())
            assert np.concatenate([t for _, t in parts]).tolist() == [100, 500, 500, 700]

    def test_timestamp_range_rejected(self):
        with pytest.raises(ValidationError):
            write_stream([TimeTagRecord(0, 1 << 56)], sink=io.BytesIO())

    def test_bad_magic(self):
        with pytest.raises(StreamFormatError):
            read_stream(io.BytesIO(b"NOTMAGIC" + b"\0" * 40))

    def test_truncated_header(self):
        with pytest.raises(StreamFormatError):
            read_stream(io.BytesIO(b"BIPHTAG\0short"))

    def test_truncated_record_reports_offset(self):
        buf = io.BytesIO()
        write_stream([TimeTagRecord(0, 100), TimeTagRecord(1, 200)],
                     sink=buf)
        damaged = buf.getvalue()[:-1]  # drop one byte of the last record
        with pytest.raises(CorruptionError) as err:
            read_stream(io.BytesIO(damaged))
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
            read_stream(path)
        assert err.value.offset == offset

    def test_gate_table_is_read_in_bounded_pieces(self):
        sizes = []

        class Recording(io.BytesIO):
            def read(self, n=-1):
                sizes.append(n)
                return super().read(n)

        with pytest.raises(CorruptionError):
            read_stream(Recording(self.table_header(0xFFFFFFFF) + b"\0" * 48))
        assert 0 <= min(sizes) and max(sizes) <= 16 * GATE_READ_WINDOWS

    @staticmethod
    def table_header(count):
        return (struct.pack("<8sHHIHHdQQI", MAGIC, 1, 0, 1, 2, 0, 0.0,
                            HEADER_SIZE, 0, 0) + struct.pack("<I", count))

    def test_unsupported_version(self):
        header = struct.pack("<8sHHIHHdQQI", MAGIC, 99, 0, 1, 2, 0, 0.0, 0, 0, 0)
        with pytest.raises(StreamFormatError):
            read_stream(io.BytesIO(header))


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
            write_stream([TimeTagRecord(0, 5)], sink=io.BytesIO(), gates=[(-5, 10)])
        with pytest.raises(ValidationError):
            StreamWriter(io.BytesIO(), gates=[(-5, 10)])


class TestStreaming:
    def build(self, n=10_000, seed=2):
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.integers(0, 1 << 40, n)).astype(np.int64)
        ch = rng.integers(0, 2, n).astype(np.uint8)
        buf = io.BytesIO()
        write_stream(TagStream(channels=ch, timestamps=ts), sink=buf)
        buf.seek(0)
        return buf, ch, ts

    def test_streaming_equals_batch(self):
        buf, ch, ts = self.build()
        reader = read_stream(buf, mode="streaming")
        parts = list(reader.chunks())
        assert np.array_equal(np.concatenate([p[0] for p in parts]), ch)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), ts)

    def test_chunks_are_bounded(self):
        buf, _, _ = self.build()
        reader = StreamReader(buf, chunk_records=256)
        sizes = [len(t) for _, t in reader.chunks()]
        assert max(sizes) <= 256
        assert sum(sizes) == 10_000

    def test_incremental_writer_matches_one_shot(self):
        _, ch, ts = self.build()
        one = io.BytesIO()
        write_stream(TagStream(channels=ch, timestamps=ts), sink=one)
        inc = io.BytesIO()
        with StreamWriter(inc) as writer:
            for i in range(0, len(ts), 999):
                writer.write(ch[i:i + 999], ts[i:i + 999])
        assert inc.getvalue() == one.getvalue()

    def test_incremental_writer_rejects_cross_chunk_disorder(self):
        with StreamWriter(io.BytesIO()) as writer:
            writer.write([0], [100])
            with pytest.raises(OrderingError):
                writer.write([0], [50])


class TestGateFilter:
    def test_empty_gate_list_keeps_nothing(self):
        ts = np.array([1, 2, 3], dtype=np.int64)
        assert len(gate_filter(ts, [])) == 0

    def test_full_span_gate_is_identity(self):
        ts = np.array([5, 10, 20], dtype=np.int64)
        kept = gate_filter(ts, [(0, 21)])
        assert np.array_equal(kept, ts)

    def test_half_open_boundaries(self):
        gates = [(10, 20)]
        ts = np.array([9, 10, 19, 20], dtype=np.int64)
        kept = gate_filter(ts, gates)
        assert kept.tolist() == [10, 19]

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        ts = np.sort(rng.integers(0, 1000, 500)).astype(np.int64)
        gates = [(100, 300), (600, 900)]
        once = gate_filter(ts, gates)
        twice = gate_filter(once, gates)
        assert np.array_equal(once, twice)

    def test_stream_variant_filters_channels_too(self):
        stream = TagStream.from_records(
            [TimeTagRecord(0, 5), TimeTagRecord(1, 15), TimeTagRecord(0, 25)])
        kept = gate_filter(stream, [(10, 20)])
        assert kept.records() == [TimeTagRecord(1, 15)]

    def test_total_gate_time(self):
        gates = [(0, 10), (20, 25)]
        assert total_gate_time_ps(gates) == 15


def test_merge_streams_sorted():
    a = TagStream.from_records([TimeTagRecord(0, 1), TimeTagRecord(0, 5)])
    b = TagStream.from_records([TimeTagRecord(1, 3)])
    merged = merge_streams(a, b)
    assert merged.timestamps.tolist() == [1, 3, 5]
    assert merged.channels.tolist() == [0, 1, 0]
