import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafstream.errors import TraceParseError
from dafstream.trace import (VideoTrace, burst_trace, constant_trace,
                             downsample, load_trace, packetize, random_trace)

from oracles import FrameIndex


def make_csv(rows, header="frame,bytes,type"):
    return header + "\n" + "\n".join(rows) + "\n"


class TestLoadTrace:
    def test_ceil_arithmetic(self):
        csv = make_csv(["1,1024,I", "2,2048,P", "3,100,P"])
        t = load_trace(csv, payload_bytes=1024)
        assert t.packets_per_frame == (1, 2, 1)
        assert t.total_packets == 4

    def test_malformed_row_reports_line(self):
        csv = make_csv(["1,1024,I", "2,abc,P"])
        with pytest.raises(TraceParseError, match="line 3"):
            load_trace(csv, payload_bytes=1024)

    def test_empty_trace(self):
        with pytest.raises(TraceParseError, match="empty"):
            load_trace("", payload_bytes=1024)
        with pytest.raises(TraceParseError, match="no frames"):
            load_trace("frame,bytes,type\n", payload_bytes=1024)

    def test_non_monotone_frame_numbers(self):
        csv = make_csv(["1,100,I", "3,100,P"])
        with pytest.raises(TraceParseError, match="ascend"):
            load_trace(csv, payload_bytes=1024)

    def test_bad_header(self):
        with pytest.raises(TraceParseError, match="header"):
            load_trace("no,such,header\n1,2,3\n", payload_bytes=1024)

    def test_total_matches_independent_summation(self, tmp_path):
        # foreman-like file; k recomputed by summing the file directly
        rng = np.random.default_rng(1)
        sizes = rng.integers(2000, 16000, size=300)
        rows = [f"{i + 1},{b},P" for i, b in enumerate(sizes)]
        path = tmp_path / "trace.csv"
        path.write_text(make_csv(rows))
        t = load_trace(str(path), payload_bytes=1024, frame_rate=30)
        expected_k = sum(-(-int(b) // 1024) for b in sizes)
        assert t.num_frames == 300
        assert t.total_packets == expected_k

    def test_zero_byte_frame_still_gets_one_packet(self):
        t = load_trace(make_csv(["1,0,P"]), payload_bytes=1024)
        assert t.packets_per_frame == (1,)

    def test_path_with_comma_is_a_path(self, tmp_path):
        path = tmp_path / "clips" / "a,b.csv"
        path.parent.mkdir()
        path.write_text(make_csv(["1,1024,I", "2,2048,P"]))
        for source in (str(path), path):
            assert load_trace(source, payload_bytes=1024).packets_per_frame == (1, 2)


class TestPacketize:
    def test_padding(self):
        t = VideoTrace.from_frame_bytes([100], 30, 1024)
        buf = packetize(t, [b"x" * 100])
        assert buf.shape == (1, 1024)
        assert bytes(buf[0][:100]) == b"x" * 100
        assert not buf[0][100:].any()

    def test_exact_fit_no_padding(self):
        t = VideoTrace.from_frame_bytes([2048], 30, 1024)
        payload = bytes(range(256)) * 8
        buf = packetize(t, [payload])
        assert buf.shape == (2, 1024)
        assert buf.tobytes() == payload

    def test_synthetic_mode_zeros(self):
        t = constant_trace(5, 3000, payload_bytes=1024)
        buf = packetize(t, None)
        assert buf.shape == (t.total_packets, 1024)
        assert not buf.any()

    def test_length_mismatch(self):
        t = VideoTrace.from_frame_bytes([100], 30, 1024)
        with pytest.raises(ValueError, match="100"):
            packetize(t, [b"x" * 99])
        with pytest.raises(ValueError, match="payload"):
            packetize(t, [])

    def test_output_length_is_k_times_p(self):
        t = random_trace(17, 1, 6, seed=3, payload_bytes=64)
        payloads = [bytes(b % 251 for b in range(n)) for n in t.frame_bytes]
        buf = packetize(t, payloads)
        assert buf.size == t.total_packets * 64


class TestFrameIndex:
    def test_packet_counts_window(self):
        t = VideoTrace.from_frame_bytes([3 * 64, 4 * 64, 2 * 64, 2 * 64], 30, 64)
        idx = FrameIndex(t)
        assert t.packets_per_frame == (3, 4, 2, 2)
        assert idx.packets_in_frames(1, 2) == 7
        assert idx.packets_in_frames(1, 0) == 0
        assert idx.packets_in_frames(2, 3) == 8

    def test_bounds(self):
        t = constant_trace(4, 1000, payload_bytes=1024)
        idx = FrameIndex(t)
        with pytest.raises(ValueError):
            idx.packets_in_frames(1, 5)
        with pytest.raises(ValueError):
            idx.packets_in_frames(0, 1)
        with pytest.raises(ValueError):
            idx.frame_of(t.total_packets + 1)

    def test_first_packet_recurrence(self):
        t = random_trace(20, 1, 5, seed=7)
        idx = FrameIndex(t)
        assert idx.first_packet(1) == 1
        for f in range(1, 20):
            assert (idx.first_packet(f + 1) - idx.first_packet(f)
                    == t.packets_per_frame[f - 1])
        offsets = t.packet_offsets()
        assert offsets.dtype == np.int64
        assert offsets.tolist() == [idx.first_packet(f) - 1 for f in range(1, 21)] + [
            t.total_packets]

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_frame_packet_round_trip(self, seed):
        t = random_trace(12, 1, 6, seed=seed)
        idx = FrameIndex(t)
        for p in range(1, t.total_packets + 1):
            f = idx.frame_of(p)
            assert idx.first_packet(f) <= p
            assert p < idx.first_packet(f) + t.packets_per_frame[f - 1]


class TestDownsample:
    def test_direct_substitution(self):
        t = VideoTrace(frame_rate=30, gop_size=1, payload_bytes=64,
                       frame_bytes=(64, 128, 192, 256),
                       packets_per_frame=(1, 2, 3, 4))
        d = downsample(t, 2)
        assert d.packets_per_frame == (3, 7)
        assert d.frame_rate == 15

    def test_identity(self):
        t = random_trace(10, 1, 4, seed=0)
        assert downsample(t, 1) is t

    def test_preserves_total_packets(self):
        t = random_trace(300, 2, 14, seed=42)
        d = downsample(t, 5)
        assert d.num_frames == 60
        assert d.total_packets == t.total_packets

    def test_non_divisible_errors(self):
        t = random_trace(10, 1, 4, seed=0)
        with pytest.raises(ValueError, match="divide"):
            downsample(t, 3)

    def test_gop_constraint(self):
        t = constant_trace(12, 1000, gop_size=4)
        with pytest.raises(ValueError, match="GOP"):
            downsample(t, 2)
        assert downsample(t, 4).num_frames == 3

    @given(st.sampled_from([2, 3, 5, 6]), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_mass_invariant(self, factor, seed):
        t = random_trace(30, 1, 9, seed=seed)
        d = downsample(t, factor)
        assert d.total_packets == t.total_packets
        for i in range(d.num_frames):  # superframe i sums its factor frames
            group = slice(i * factor, (i + 1) * factor)
            assert d.packets_per_frame[i] == sum(t.packets_per_frame[group])
            assert d.frame_bytes[i] == sum(t.frame_bytes[group])
        assert all(type(v) is int for v in d.frame_bytes + d.packets_per_frame)


class TestSyntheticTraces:
    def test_burst_is_two_level(self):
        t = burst_trace(20, 1000, 5000, 10, payload_bytes=1024)
        assert set(t.frame_bytes) == {1000, 5000}
        assert t.frame_bytes[0] == 1000 and t.frame_bytes[5] == 5000

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoTrace.from_frame_bytes([], 30, 1024)
        with pytest.raises(ValueError):
            VideoTrace.from_frame_bytes([100], 0, 1024)
        with pytest.raises(ValueError):
            VideoTrace(frame_rate=30, gop_size=1, payload_bytes=8,
                       frame_bytes=(8,), packets_per_frame=(0,))
