"""The 15-byte application-layer packet header.

Big-endian layout, 15 bytes total (see PROTOCOL.md for the normative spec):

    StartP   uint32   first packet number of the window
    WSize    uint16   window length in packets
    SlopeF   float32  slope factor of the window's sampling distribution
    PacketID uint24   coded packet counter, also the sampling seed
    P        uint16   payload length in bytes

A datagram is the header followed by exactly P payload bytes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError

HEADER_LEN = 15
MAX_PACKET_ID = (1 << 24) - 1
MAX_WSIZE = 0xFFFF

#: The header as a packed big-endian record; PacketID is three raw bytes.
HEADER_DTYPE = np.dtype([("start_packet", ">u4"), ("window_packets", ">u2"),
                         ("slope_factor", ">f4"), ("packet_id", "u1", (3,)),
                         ("payload_bytes", ">u2")])


def to_f32(x):
    """x rounded to float32, as SlopeF carries it, returned as float64.

    Works on scalars and arrays alike. Values beyond the float32 range
    become +-inf, and a NaN (a signaling one from received bytes too) stays
    NaN; check_fields rejects both.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(x, dtype=np.float64).astype(">f4").astype(np.float64)


def _reject(bad: np.ndarray, values, message: str):
    if np.any(bad):
        value = np.asarray(values)[bad].flat[0]
        raise ProtocolError(message.format(value))


def check_fields(start_packet, window_packets, slope_factor, packet_id, payload_bytes):
    """Range-check header fields, scalars or equal-length arrays.

    Returns SlopeF at float32 precision (NaN and values outside [-1, 1]
    after truncation are rejected). Every header, single or batched, is
    checked here.
    """
    start_packet = np.asarray(start_packet)
    window_packets = np.asarray(window_packets)
    packet_id = np.asarray(packet_id)
    payload_bytes = np.asarray(payload_bytes)
    _reject((start_packet < 1) | (start_packet > 0xFFFFFFFF), start_packet,
            "StartP {} outside 1..2^32-1")
    _reject((window_packets < 1) | (window_packets > MAX_WSIZE), window_packets,
            "WSize {} outside 1..65535")
    _reject((packet_id < 0) | (packet_id > MAX_PACKET_ID), packet_id,
            "PacketID {} outside 0..2^24-1")
    _reject((payload_bytes < 1) | (payload_bytes > 0xFFFF), payload_bytes,
            "P {} outside 1..65535")
    slope = to_f32(slope_factor)
    _reject(~((slope >= -1.0) & (slope <= 1.0)), slope_factor, "SlopeF {} outside [-1, 1]")
    return slope


@dataclass(frozen=True)
class DafHeader:
    """One header. StartP, WSize, PacketID and P must be integers and SlopeF
    a real number (a bool is neither), and every field in range
    (check_fields), or ProtocolError."""

    start_packet: int      # StartP
    window_packets: int    # WSize
    slope_factor: float    # SlopeF (stored at exactly float32 precision)
    packet_id: int         # PacketID
    payload_bytes: int     # P

    def __post_init__(self):
        for name, value in (("StartP", self.start_packet), ("WSize", self.window_packets),
                            ("PacketID", self.packet_id), ("P", self.payload_bytes)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ProtocolError(f"{name} {value!r} is not an integer")
        if isinstance(self.slope_factor, bool) or not isinstance(self.slope_factor, numbers.Real):
            raise ProtocolError(f"SlopeF {self.slope_factor!r} is not a real number")
        slope = check_fields(self.start_packet, self.window_packets, float(self.slope_factor),
                             self.packet_id, self.payload_bytes)
        object.__setattr__(self, "slope_factor", float(slope))


def _write_headers(head, start_packet, window_packets, slope_factor, packet_id, payload_bytes):
    """Check header fields and write them into records of HEADER_DTYPE."""
    packet_id = np.asarray(packet_id, dtype=np.int64)
    head["slope_factor"] = check_fields(start_packet, window_packets, slope_factor,
                                        packet_id, payload_bytes)
    head["start_packet"] = start_packet
    head["window_packets"] = window_packets
    head["packet_id"] = packet_id.astype(">u4").view(np.uint8).reshape(-1, 4)[:, 1:]
    head["payload_bytes"] = payload_bytes


def packet_ids(raw) -> np.ndarray:
    """The PacketIDs of an (n, 3) uint8 array of their big-endian bytes (the
    "packet_id" field of HEADER_DTYPE records), as int64. Nothing is checked."""
    pid = raw.astype(np.int64)
    return (pid[:, 0] << 16) | (pid[:, 1] << 8) | pid[:, 2]


def _read_headers(head):
    """The checked fields of HEADER_DTYPE records, as arrays: StartP, WSize,
    SlopeF, PacketID and P."""
    packet_id = packet_ids(head["packet_id"])
    start = head["start_packet"].astype(np.int64)
    wsize = head["window_packets"].astype(np.int64)
    size = head["payload_bytes"].astype(np.int64)
    slope = check_fields(start, wsize, head["slope_factor"], packet_id, size)
    return start, wsize, slope, packet_id, size


def encode_header(header: DafHeader) -> bytes:
    head = np.zeros(1, dtype=HEADER_DTYPE)
    _write_headers(head, [header.start_packet], [header.window_packets],
                   [header.slope_factor], [header.packet_id], header.payload_bytes)
    return head.tobytes()


def decode_header(data: bytes) -> DafHeader:
    if len(data) < HEADER_LEN:
        raise ProtocolError(f"truncated header: {len(data)} bytes, need {HEADER_LEN}")
    fields = _read_headers(np.frombuffer(data, dtype=HEADER_DTYPE, count=1))
    return DafHeader(*(field.item() for field in fields))


def encode_packet(header: DafHeader, payload: bytes) -> bytes:
    if len(payload) != header.payload_bytes:
        raise ProtocolError(
            f"payload is {len(payload)} bytes but header says {header.payload_bytes}")
    return encode_header(header) + bytes(payload)


def decode_packet(datagram: bytes) -> tuple[DafHeader, bytes]:
    header = decode_header(datagram)
    payload = datagram[HEADER_LEN:]
    if len(payload) != header.payload_bytes:
        raise ProtocolError(
            f"framing error: {len(payload)} payload bytes, header says {header.payload_bytes}")
    return header, payload


def datagram_records(data, payload_bytes: int) -> np.ndarray:
    """Back-to-back datagrams of `payload_bytes` bytes each, as records
    ("header", "payload") viewing `data`; writable if `data` is."""
    dtype = np.dtype([("header", HEADER_DTYPE), ("payload", "u1", (payload_bytes,))])
    if len(data) % dtype.itemsize:
        raise ProtocolError(f"framing error: {len(data)} bytes is not a whole number "
                            f"of {dtype.itemsize}-byte datagrams")
    return np.frombuffer(data, dtype=dtype)


#: Committed reference vector; must never change across releases.
GOLDEN_HEADER = DafHeader(start_packet=1, window_packets=1, slope_factor=0.0,
                          packet_id=1, payload_bytes=1024)
GOLDEN_BYTES = bytes.fromhex("000000010001000000000000010400")
