"""Frame-size traces, packetization and per-frame packet offsets.

A video stream is reduced to a per-frame byte count. Every frame is split
into fixed-size packets (the last one zero-padded), and all window math in
the rest of the package is driven by the resulting per-frame packet counts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .channel import check_integer
from .errors import TraceParseError

TRACE_HEADER = ("frame", "bytes", "type")


@dataclass(frozen=True)
class VideoTrace:
    """Immutable per-frame description of a packetized stream.

    packets_per_frame is normally ceil(frame_bytes / payload_bytes) with a
    minimum of 1, but downsampled traces carry explicit per-bucket sums.
    """

    frame_rate: float
    gop_size: int
    payload_bytes: int
    frame_bytes: tuple[int, ...]
    packets_per_frame: tuple[int, ...]

    def __post_init__(self):
        _check_params(self.frame_rate, self.gop_size, self.payload_bytes)
        if len(self.frame_bytes) == 0:
            raise ValueError("trace must contain at least one frame")
        if len(self.frame_bytes) != len(self.packets_per_frame):
            raise ValueError("frame_bytes and packets_per_frame lengths differ")
        for s, b in zip(self.packets_per_frame, self.frame_bytes):
            check_integer(s, "packet count")
            check_integer(b, "frame size")
        if any(s < 1 for s in self.packets_per_frame):
            raise ValueError("every frame must hold at least one packet")
        if any(b < 0 for b in self.frame_bytes):
            raise ValueError("negative frame size")

    @classmethod
    def from_frame_bytes(cls, frame_bytes, frame_rate, payload_bytes,
                         gop_size: int = 1) -> "VideoTrace":
        _check_params(frame_rate, gop_size, payload_bytes)  # before P counts a packet
        sizes = []
        for b in frame_bytes:
            check_integer(b, "frame size")
            sizes.append(int(b))
        sizes = tuple(sizes)
        s = tuple(max(1, math.ceil(b / payload_bytes)) for b in sizes)
        return cls(frame_rate=float(frame_rate), gop_size=int(gop_size),
                   payload_bytes=int(payload_bytes), frame_bytes=sizes,
                   packets_per_frame=s)

    @property
    def num_frames(self) -> int:
        return len(self.packets_per_frame)

    @property
    def total_packets(self) -> int:
        return sum(self.packets_per_frame)

    def packet_offsets(self) -> np.ndarray:
        """int64 [0, cumsum(packets_per_frame)]: entry t counts the packets
        in frames 1..t, so frame t holds packets offsets[t-1]+1..offsets[t]."""
        return np.concatenate(([0], np.cumsum(self.packets_per_frame, dtype=np.int64)))


def _check_params(frame_rate, gop_size, payload_bytes):
    """ConfigError unless gop_size and payload_bytes are integers (a bool is
    not), ValueError unless all three are >= 1 and frame_rate is finite."""
    check_integer(gop_size, "GOP size")
    check_integer(payload_bytes, "payload size")
    if not (math.isfinite(frame_rate) and frame_rate >= 1 and gop_size >= 1
            and payload_bytes >= 1):
        raise ValueError("frame_rate, gop_size and payload_bytes must all be >= 1, "
                         "and frame_rate finite")


def load_trace(path, payload_bytes: int, frame_rate: float = 30.0,
               gop_size: int = 1) -> VideoTrace:
    """Parse a CSV trace file ("frame,bytes,type" header, rows numbered from
    1) at `path`, a str or os.PathLike."""
    _check_params(frame_rate, gop_size, payload_bytes)
    # utf-8-sig drops the byte-order mark spreadsheets write first
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [(i + 1, row) for i, row in enumerate(rows) if row and any(c.strip() for c in row)]
    if not rows:
        raise TraceParseError("empty trace file")
    header_line, header = rows[0]
    if tuple(c.strip().lower() for c in header[:3]) != TRACE_HEADER:
        raise TraceParseError(
            f"line {header_line}: expected header 'frame,bytes,type', got {','.join(header)!r}")
    if len(rows) == 1:
        raise TraceParseError("trace contains a header but no frames")

    sizes = []
    for lineno, row in rows[1:]:
        if len(row) < 2:
            raise TraceParseError(f"line {lineno}: expected 'frame,bytes,type', got {','.join(row)!r}")
        try:
            frame_no = int(row[0].strip())
            nbytes = int(row[1].strip())
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-numeric field in {','.join(row)!r}") from None
        if frame_no != len(sizes) + 1:
            raise TraceParseError(
                f"line {lineno}: frame numbers must ascend from 1; got {frame_no}, expected {len(sizes) + 1}")
        if nbytes < 0:
            raise TraceParseError(f"line {lineno}: negative frame size {nbytes}")
        sizes.append(nbytes)

    return VideoTrace.from_frame_bytes(sizes, frame_rate, payload_bytes, gop_size)


def check_payloads(trace: VideoTrace, payloads):
    """ValueError unless `payloads` holds one C-contiguous buffer of the
    trace's byte count per frame."""
    if len(payloads) != trace.num_frames:
        raise ValueError(f"expected {trace.num_frames} frame payloads, got {len(payloads)}")
    for t, (blob, expected) in enumerate(zip(payloads, trace.frame_bytes), start=1):
        try:
            view = memoryview(blob)
        except TypeError:
            raise ValueError(f"frame {t}: a {type(blob).__name__} is not a buffer") from None
        if not view.c_contiguous:
            raise ValueError(f"frame {t}: payload is not C-contiguous")
        if view.nbytes != expected:
            raise ValueError(f"frame {t}: payload is {view.nbytes} bytes, trace says {expected}")


def packetize(trace: VideoTrace, payloads) -> np.ndarray:
    """Split frame payloads into P-byte packets, zero-padding the last one.

    Each frame's payload (see check_payloads) is copied once, straight to
    its first packet's row. Returns a (total_packets, payload_bytes) uint8
    array; packet number n is row n-1.
    """
    check_payloads(trace, payloads)
    P = trace.payload_bytes
    buf = np.zeros(trace.total_packets * P, dtype=np.uint8)
    out = memoryview(buf)
    for blob, at in zip(payloads, (trace.packet_offsets()[:-1] * P).tolist()):
        view = memoryview(blob).cast("B")
        out[at:at + view.nbytes] = view
    return buf.reshape(trace.total_packets, P)


def downsample(trace: VideoTrace, factor: int) -> VideoTrace:
    """Merge every `factor` frames into one superframe (packet counts summed)."""
    check_integer(factor, "downsampling factor")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return trace
    if trace.num_frames % factor != 0:
        raise ValueError(f"factor {factor} does not divide {trace.num_frames} frames")
    if factor % trace.gop_size != 0:
        raise ValueError(f"factor {factor} is not a multiple of the GOP size {trace.gop_size}")
    ends = np.arange(0, trace.num_frames + 1, factor)  # superframe bounds, in frames
    nb = np.diff(np.concatenate(([0], np.cumsum(trace.frame_bytes, dtype=np.int64)))[ends])
    ns = np.diff(trace.packet_offsets()[ends])
    return VideoTrace(frame_rate=trace.frame_rate / factor, gop_size=1,
                      payload_bytes=trace.payload_bytes,
                      frame_bytes=tuple(nb.tolist()), packets_per_frame=tuple(ns.tolist()))


# --- synthetic traces (no real video in the repo) ---

def constant_trace(num_frames: int, bytes_per_frame: int, frame_rate: float = 30.0,
                   payload_bytes: int = 1024, gop_size: int = 1) -> VideoTrace:
    return VideoTrace.from_frame_bytes([bytes_per_frame] * num_frames,
                                       frame_rate, payload_bytes, gop_size)


def sinusoidal_trace(num_frames: int, mean_bytes: int, amp_bytes: int,
                     period_frames: int, frame_rate: float = 30.0,
                     payload_bytes: int = 1024, gop_size: int = 1,
                     first_frame_bytes: int | None = None) -> VideoTrace:
    """Slow sinusoidal rate swing, optionally with a large opening frame."""
    if num_frames < 1 or period_frames < 1:
        raise ValueError("num_frames and period_frames must be >= 1")
    sizes = [int(round(mean_bytes + amp_bytes * math.sin(2 * math.pi * t / period_frames)))
             for t in range(num_frames)]
    if first_frame_bytes is not None:
        sizes[0] = first_frame_bytes
    return VideoTrace.from_frame_bytes(sizes, frame_rate, payload_bytes, gop_size)


def burst_trace(num_frames: int, low_bytes: int, high_bytes: int,
                period_frames: int, frame_rate: float = 30.0,
                payload_bytes: int = 1024, gop_size: int = 1) -> VideoTrace:
    """Two-level square wave: half a period low, half a period high."""
    if period_frames < 1:
        raise ValueError("period_frames must be >= 1")
    half = max(1, period_frames // 2)
    sizes = [high_bytes if (t // half) % 2 else low_bytes for t in range(num_frames)]
    return VideoTrace.from_frame_bytes(sizes, frame_rate, payload_bytes, gop_size)


def random_trace(num_frames: int, min_packets: int, max_packets: int, seed: int,
                 frame_rate: float = 30.0, payload_bytes: int = 1024,
                 gop_size: int = 1) -> VideoTrace:
    """Uniformly random packet counts; frame bytes exact multiples of P."""
    rng = np.random.default_rng(seed)
    s = rng.integers(min_packets, max_packets + 1, size=num_frames)
    sizes = [int(v) * payload_bytes for v in s]
    return VideoTrace.from_frame_bytes(sizes, frame_rate, payload_bytes, gop_size)
