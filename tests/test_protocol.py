import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafstream.errors import ProtocolError
from dafstream.harness import session_slopes
from dafstream.protocol import (GOLDEN_BYTES, GOLDEN_HEADER, HEADER_DTYPE, HEADER_LEN,
                                DafHeader, datagram_records, decode_header,
                                decode_packet, encode_header, encode_packet, to_f32)
from dafstream.windowing import build_schedule

from oracles import decode_datagrams, struct_datagram

valid_headers = st.builds(
    DafHeader,
    start_packet=st.integers(1, 0xFFFFFFFF),
    window_packets=st.integers(1, 0xFFFF),
    slope_factor=st.floats(-1.0, 1.0, allow_nan=False, width=32),
    packet_id=st.integers(0, 0xFFFFFF),
    payload_bytes=st.integers(1, 0xFFFF),
)


class TestGolden:
    def test_committed_vector(self):
        assert encode_header(GOLDEN_HEADER) == GOLDEN_BYTES
        assert len(GOLDEN_BYTES) == HEADER_LEN == HEADER_DTYPE.itemsize == 15
        assert decode_header(GOLDEN_BYTES) == GOLDEN_HEADER

    def test_layout_assembled_by_hand(self):
        h = DafHeader(start_packet=0x01020304, window_packets=0x0506,
                      slope_factor=0.5, packet_id=0x0A0B0C,
                      payload_bytes=0x0D0E)
        raw = encode_header(h)
        assert raw[0:4] == bytes.fromhex("01020304")
        assert raw[4:6] == bytes.fromhex("0506")
        assert raw[6:10] == struct.pack(">f", 0.5)
        assert raw[10:13] == bytes.fromhex("0a0b0c")
        assert raw[13:15] == bytes.fromhex("0d0e")

    def test_negative_one_slope_encoding(self):
        h = DafHeader(1, 1, -1.0, 1, 1024)
        assert encode_header(h)[6:10] == bytes.fromhex("bf800000")


class TestRoundTrip:
    @given(valid_headers)
    @settings(max_examples=300, deadline=None)
    def test_decode_encode_identity(self, header):
        raw = struct_datagram(header.start_packet, header.window_packets, header.slope_factor,
                              header.packet_id, header.payload_bytes)
        assert encode_header(header) == raw
        assert decode_header(raw) == header

    def test_slope_stored_at_wire_precision(self):
        h = DafHeader(1, 1, 0.1234567890123, 1, 64)
        assert h.slope_factor == struct.unpack(">f", struct.pack(">f", 0.1234567890123))[0]
        assert decode_header(encode_header(h)).slope_factor == h.slope_factor

    def test_packet_round_trip(self):
        h = DafHeader(7, 3, 0.25, 99, 8)
        datagram = encode_packet(h, b"\x01\x02\x03\x04\x05\x06\x07\x08")
        h2, payload = decode_packet(datagram)
        assert h2 == h
        assert payload == b"\x01\x02\x03\x04\x05\x06\x07\x08"


class TestErrors:
    def test_truncated_buffer(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_header(GOLDEN_BYTES[:14])

    def test_framing_mismatch(self):
        h = DafHeader(1, 1, 0.0, 1, 1024)
        with pytest.raises(ProtocolError, match="framing"):
            decode_packet(encode_header(h) + b"x" * 512)
        with pytest.raises(ProtocolError, match="payload"):
            encode_packet(h, b"x" * 512)

    def test_field_range_validation(self):
        with pytest.raises(ProtocolError, match="PacketID"):
            DafHeader(1, 1, 0.0, 1 << 24, 1024)
        with pytest.raises(ProtocolError, match="WSize"):
            DafHeader(1, 0, 0.0, 1, 1024)
        with pytest.raises(ProtocolError, match="WSize"):
            DafHeader(1, 0x10000, 0.0, 1, 1024)
        with pytest.raises(ProtocolError, match="P "):
            DafHeader(1, 1, 0.0, 1, 0)
        with pytest.raises(ProtocolError, match="StartP"):
            DafHeader(0, 1, 0.0, 1, 1024)

    def test_integer_fields_must_be_integers(self):
        # a fractional StartP was encoded truncated, a fractional PacketID
        # reached the receiver's tables as an index
        for fields, name in [((1.5, 1, 0.0, 1, 1024), "StartP 1.5"),
                             ((1, 2.0, 0.0, 1, 1024), "WSize 2.0"),
                             ((1, 1, 0.0, 7.5, 1024), "PacketID 7.5"),
                             ((1, 1, 0.0, 1, 1024.0), "P 1024.0"),
                             ((True, 1, 0.0, 1, 1024), "StartP True"),
                             ((1, 1, 0.0, 1, "1024"), "P '1024'")]:
            with pytest.raises(ProtocolError, match=f"^{name} is not an integer$"):
                DafHeader(*fields)
        h = DafHeader(np.int64(1), np.uint16(1), np.float32(0.0), np.int32(1), np.int64(1024))
        assert encode_header(h) == GOLDEN_BYTES

    def test_slope_must_be_a_real_number(self):
        # float() turned the string '0.5' into slope 0.5 and True into 1.0
        for slope in ("0.5", b"0.5", True, np.True_, 1j, None):
            with pytest.raises(ProtocolError,
                               match=f"^SlopeF {re.escape(repr(slope))} is not a real number$"):
                DafHeader(1, 1, slope, 1, 1024)
        for slope in (0.5, np.float32(0.5), np.float64(0.5), 1, np.int64(-1)):
            assert DafHeader(1, 1, slope, 1, 1024).slope_factor == float(slope)

    def test_slope_out_of_range_rejected_on_decode(self):
        raw = bytearray(GOLDEN_BYTES)
        raw[6:10] = struct.pack(">f", 1.5)
        with pytest.raises(ProtocolError, match="SlopeF"):
            decode_header(bytes(raw))
        raw[6:10] = struct.pack(">f", math.nan)
        with pytest.raises(ProtocolError, match="SlopeF"):
            decode_header(bytes(raw))
        raw[6:10] = bytes.fromhex("7f800001")  # a signaling NaN: no RuntimeWarning either
        with pytest.raises(ProtocolError, match="SlopeF"):
            decode_header(bytes(raw))


def struct_f32(x):
    return struct.unpack(">f", struct.pack(">f", x))[0]


class TestFloat32:
    def test_matches_struct_on_long_schedule(self, workloads):
        inp = workloads.build("long-daf-1800", workloads.DEFAULT_SEED)
        params = inp.cells[0].params
        slopes = session_slopes(inp.trace, params)
        schedule = build_schedule(params, inp.trace, slopes=slopes)
        want = [struct_f32(float(a)) for a in slopes]
        assert to_f32(slopes).tolist() == want
        assert schedule.slope.tolist() == want
        assert len(set(want)) > 100

    def test_matches_struct_at_the_ends(self):
        f32 = np.float32
        values = [-1.0, 1.0]
        for end in (f32(-1.0), f32(1.0)):
            for toward in (f32(-2.0), f32(0.0), f32(2.0)):
                values.append(float(np.nextafter(end, toward)))
        # halfway between 1.0 and its float32 neighbours: ties round to even
        values += [1.0 + 2.0 ** -24, 1.0 - 2.0 ** -25, -1.0 - 2.0 ** -24]
        for x in values:
            assert float(to_f32(x)) == struct_f32(x), x


def sample_rows(n=40, P=8, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(1, 1 << 32, size=n), rng.integers(1, 1 << 16, size=n),
            rng.uniform(-1, 1, size=n), rng.integers(0, 1 << 24, size=n),
            rng.integers(0, 256, size=(n, P), dtype=np.uint8))


def datagrams(start, wsize, slope, pid, P, payload):
    """struct_datagram of every row, back to back."""
    return b"".join(struct_datagram(int(a), int(w), struct_f32(s), int(p), P, row.tobytes())
                    for a, w, s, p, row in zip(start, wsize, slope, pid, payload))


class TestDatagrams:
    def test_bytes_equal_packet_by_packet_encoding(self):
        start, wsize, slope, pid, payload = sample_rows()
        assert datagrams(start, wsize, slope, pid, 8, payload) == b"".join(
            encode_packet(DafHeader(int(a), int(w), float(s), int(p), 8), row.tobytes())
            for a, w, s, p, row in zip(start, wsize, slope, pid, payload))

    def test_round_trip(self):
        start, wsize, slope, pid, payload = sample_rows(P=5)
        data = datagrams(start, wsize, slope, pid, 5, payload)
        got = decode_datagrams(data, 5)
        assert [a.tolist() for a in got] == [start.tolist(), wsize.tolist(),
                                             [struct_f32(x) for x in slope], pid.tolist()]
        assert np.array_equal(datagram_records(data, 5)["payload"], payload)

    def test_framing_errors(self):
        data = datagrams([1, 2], [1, 1], [0.0, 0.0], [1, 2], 4, np.zeros((2, 4), np.uint8))
        with pytest.raises(ProtocolError, match="framing"):
            decode_datagrams(data[:-1], 4)
        with pytest.raises(ProtocolError, match="framing"):
            decode_datagrams(data, 3)
        with pytest.raises(ProtocolError, match="framing"):
            decode_datagrams(GOLDEN_BYTES + bytes(19), 4)  # header says P=1024

    def test_fields_checked_as_arrays(self):
        ok = datagrams([1, 2], [1, 1], [0.0, 0.0], [1, 2], 4, np.zeros((2, 4), np.uint8))
        bad = bytearray(ok)
        bad[19 + 6:19 + 10] = struct.pack(">f", math.nan)
        with pytest.raises(ProtocolError, match="SlopeF"):
            decode_datagrams(bytes(bad), 4)
        bad = bytearray(ok)
        bad[19 + 4:19 + 6] = bytes(2)
        with pytest.raises(ProtocolError, match="WSize"):
            decode_datagrams(bytes(bad), 4)
        with pytest.raises(ProtocolError, match="StartP"):
            decode_datagrams(ok + struct_datagram(0, 1, 0.0, 3, 4, bytes(4)), 4)


@st.composite
def datagram_bytes(draw):
    """Arbitrary bytes for decode_datagrams: any length, or whole records
    whose P field is, by chance or by choice, the decoder's payload size."""
    P = draw(st.integers(1, 16))
    if draw(st.booleans()):
        return draw(st.binary(max_size=4 * (HEADER_LEN + P))), P
    records = []
    for _ in range(draw(st.integers(0, 4))):
        head = bytearray(draw(st.binary(min_size=HEADER_LEN, max_size=HEADER_LEN)))
        if draw(st.booleans()):
            head[-2:] = P.to_bytes(2, "big")
        records.append(bytes(head) + draw(st.binary(min_size=P, max_size=P)))
    return b"".join(records), P


class TestUntrustedBytes:
    @given(datagram_bytes())
    @settings(max_examples=500, deadline=None)
    def test_decode_gives_datagrams_or_protocol_error(self, case):
        data, P = case
        try:
            fields = decode_datagrams(data, P)
        except ProtocolError:
            return
        # what decodes is in range and encodes back to the same bytes
        payload = datagram_records(data, P)["payload"]
        assert payload.shape == (len(data) // (HEADER_LEN + P), P)
        assert datagrams(*fields, P, payload) == data
