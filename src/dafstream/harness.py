"""Full coding sessions, IDR/FDR metrics, and parameter sweeps.

A session walks the window schedule at a constant data rate (coded packet n
leaves at n * P / R seconds) and pushes every packet through the erasure
channel. It runs in blocks of consecutive coded packets whose datagrams fit
in BLOCK_BYTES (session_blocks): the delivered ones cross the wire as
datagram bytes (the encoder draws their compositions only to XOR real
payloads), and the decoder rebuilds their compositions from the received
headers alone before peeling the block in PacketID order. A block's bytes
are freed before the next block is sent. A native
packet decoded by the send time of the last coded packet of the last window
covering its frame counts as in-time; decoded ever, toward the file ratio.
Warm-up/cool-down padding is excluded from both.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import ChannelModel, transmit_many
from .errors import ConfigError, ProtocolError
# draw, xor_payload, encode_packet and decode_packet are looked up here by
# the per-layer tracer in bench/tracer.py; sessions use their batch forms.
from .ltcode import (CodedPacketMeta, DecoderState, InverseCdf, draw, draw_batch,
                     robust_soliton, uniform_cdf, xor_payload, xor_payloads)
from .protocol import (HEADER_LEN, DafHeader, Datagrams, decode_datagrams, decode_packet,
                       encode_datagrams, encode_packet)
from .sampling import SlopePlan, optimize_slopes, slope_density
from .trace import VideoTrace, downsample, packetize
from .windowing import (CodingParams, Mode, WindowSchedule, build_schedule,
                        derive_params, wcp_packets)

#: Datagram bytes per block of a session (at least one datagram). Bounds the
#: wire bytes and payload rows held at once; a composition depends only on
#: its PacketID and window, so the block size changes no result.
BLOCK_BYTES = 1 << 21

#: Cells per row block of SessionCodec._build_cdf; bounds its temporaries.
TABLE_BLOCK = 1 << 14


@dataclass(frozen=True)
class Metrics:
    idr: float
    fdr: float

    def __post_init__(self):
        if not 0.0 <= self.idr <= self.fdr <= 1.0:
            raise ValueError(f"need 0 <= IDR <= FDR <= 1, got idr={self.idr}, fdr={self.fdr}")


class SessionCodec:
    """Window sampling machinery shared verbatim by encoder and decoder.

    Both ends hold the trace, the coding parameters and the window schedule
    (by default the one run_session builds). Distributions come only from
    those plus header fields, so reconstruction is exact; a header that does
    not name a schedule entry is rejected before anything is drawn.
    """

    def __init__(self, trace: VideoTrace, params: CodingParams,
                 schedule: WindowSchedule | None = None):
        self.trace = trace
        self.params = params
        if schedule is None:
            schedule = build_schedule(params, trace, slopes=session_slopes(trace, params))
        self.schedule = schedule
        key = (schedule.start_packet << 16) | schedule.window_packets
        self._order = np.argsort(key, kind="stable")
        self._keys = key[self._order]
        # draw_batch inputs per entry: (StartP, window table, degree table)
        self.windows = [(start, table, robust_soliton(size).table) for start, size, table
                        in zip(schedule.start_packet.tolist(), schedule.window_packets.tolist(),
                               self._build_cdf())]

    def _build_cdf(self) -> list[InverseCdf]:
        """Window table of every schedule entry, built in one pass.

        Entries of slope 0 share one uniform table per WSize. A sloped
        window is cut into groups of `step` frames from its first frame, and
        a packet's probability depends on its group's midpoint; windows
        start and end on group boundaries, so each packet's group midpoint
        is found once for the whole trace. Sloped tables are built in row
        blocks of at most TABLE_BLOCK cells, sorted by WSize so rows pad
        little, and each row is summed in order along its axis, as np.cumsum
        sums one window.
        """
        sched = self.schedule
        flat = sched.slope == 0.0
        uniform = {w: InverseCdf(uniform_cdf(w))
                   for w in np.unique(sched.window_packets[flat]).tolist()}
        tables = [uniform[w] if f else None
                  for w, f in zip(sched.window_packets.tolist(), flat.tolist())]
        sloped = np.flatnonzero(~flat)
        if not len(sloped):
            return tables
        slope = sched.slope[sloped]
        if not np.all(np.abs(slope) <= 1.0):
            raise ValueError("slope factor outside [-1, 1]")
        first, size = sched.start_packet[sloped], sched.window_packets[sloped]
        k, step = self.trace.total_packets, self.params.step_frames
        if np.any(first + size - 1 > k):
            raise ValueError("window runs past the trace")
        # packets through the end of each packet's group, and the group's size
        ends = downsample(self.trace, step).packet_offsets()[1:]
        group = np.diff(ends, prepend=0)
        end = np.repeat(ends, group)
        if np.any(end[first + size - 2] != first + size - 1) or np.any(
                (first > 1) & (end[first - 2] != first - 1)):
            raise ValueError("window does not start and end on step boundaries")
        mid = end - np.repeat(group, group) / 2.0
        order = np.argsort(size, kind="stable")
        rows = max(1, TABLE_BLOCK // int(size.max()))
        for a in range(0, len(order), rows):
            pick = order[a:a + rows]
            start, n = first[pick][:, None], size[pick]
            packet = np.minimum(start + np.arange(n[-1]), k)
            # a group's midpoint measured from the window's first packet
            pdf = slope_density(mid[packet - 1] - (start - 1), n[:, None].astype(np.float64),
                                slope[pick][:, None])
            cdf = np.add.accumulate(pdf, axis=1)
            for e, table in zip(sloped[pick].tolist(), InverseCdf.rows(cdf, n)):
                tables[e] = table
        return tables

    # -- encoder ----------------------------------------------------------

    def send(self, first: int, last: int, delivered: np.ndarray,
             buffer: np.ndarray | None = None) -> bytearray:
        """Datagram bytes of the packets among first..last that the channel
        delivers (`delivered` is the session's per-packet mask).

        Only a payload buffer needs compositions, for the XOR, so only then
        are the delivered packets drawn; a packet's composition does not
        depend on the rest of its batch.
        """
        sched = self.schedule
        pids = first + np.flatnonzero(delivered[first - 1:last])
        entry = np.searchsorted(sched.cum_sent, pids)
        payload = None
        if buffer is not None:
            payload = xor_payloads(*draw_batch(pids, entry, self.windows), buffer)
        return encode_datagrams(sched.start_packet[entry], sched.window_packets[entry],
                                sched.slope[entry], pids, self.trace.payload_bytes, payload)

    # -- decoder ----------------------------------------------------------

    def receive(self, data) -> tuple[Datagrams, np.ndarray, np.ndarray]:
        """Decode datagram bytes and rebuild their compositions from the
        headers: (datagrams, CSR indptr, neighbors)."""
        rx = decode_datagrams(data, self.trace.payload_bytes)
        indptr, neighbors = self.compositions(rx.start_packet, rx.window_packets,
                                              rx.slope_factor, rx.packet_id, rx.payload_bytes)
        return rx, indptr, neighbors

    def compositions(self, start_packet, window_packets, slope_factor, packet_id,
                     payload_bytes):
        """Decoder-side compositions of checked header fields, as CSR arrays.

        (StartP, WSize) must name a schedule entry, SlopeF must be that
        entry's slope and P the session's payload size; anything else raises
        ProtocolError before a draw.
        """
        start = np.asarray(start_packet, dtype=np.int64)
        wsize = np.asarray(window_packets, dtype=np.int64)
        if np.any(np.asarray(payload_bytes) != self.trace.payload_bytes):
            raise ProtocolError(f"P {payload_bytes} is not the session's "
                                f"{self.trace.payload_bytes}-byte payload")
        key = (start << 16) | wsize
        at = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
        unknown = self._keys[at] != key
        if np.any(unknown):
            i = int(np.argmax(unknown))
            raise ProtocolError(f"StartP {start[i]}, WSize {wsize[i]} names no window "
                                "of the session's schedule")
        entry = self._order[at]
        wrong = self.schedule.slope[entry] != slope_factor
        if np.any(wrong):
            i = int(np.argmax(wrong))
            raise ProtocolError(f"SlopeF {np.asarray(slope_factor)[i]} is not the slope of "
                                f"the window at StartP {start[i]}")
        return draw_batch(packet_id, entry, self.windows)

    def meta_from_header(self, header: DafHeader) -> CodedPacketMeta:
        """Decoder-side reconstruction of one packet's composition."""
        indptr, neighbors = self.compositions(
            [header.start_packet], [header.window_packets], [header.slope_factor],
            [header.packet_id], header.payload_bytes)
        return CodedPacketMeta(packet_id=header.packet_id, degree=int(indptr[1]),
                               neighbors=tuple(neighbors.tolist()),
                               start_packet=header.start_packet,
                               window_packets=header.window_packets,
                               slope_factor=header.slope_factor)


def session_blocks(total_coded: int, payload_bytes: int):
    """Yield the (first, last) PacketIDs of each block of a session, tiling
    1..total_coded with as many datagrams as fit in BLOCK_BYTES, at least one."""
    size = max(1, BLOCK_BYTES // (HEADER_LEN + payload_bytes))
    for first in range(1, total_coded + 1, size):
        yield first, min(first + size - 1, total_coded)


@lru_cache(maxsize=32)
def cached_slope_plan(trace: VideoTrace, window: int, step: int) -> SlopePlan:
    return optimize_slopes(trace, window, step)


def session_slopes(trace: VideoTrace, params: CodingParams) -> np.ndarray | None:
    """Slope factors per schedule entry; only the DAF mode optimizes them."""
    if params.mode is not Mode.DAF:
        return None
    plan = cached_slope_plan(trace, params.window_frames, params.step_frames)
    return plan.slopes


@dataclass
class SessionResult:
    seed: int
    config: dict
    decode_time: np.ndarray     # seconds per native packet (index 0 unused), inf if never
    frame_deadline: np.ndarray  # seconds per frame (index 0 unused)
    wcp: frozenset
    in_time: int
    late: int
    never: int

    def metrics(self) -> Metrics:
        eligible = self.in_time + self.late + self.never
        if eligible == 0:
            return Metrics(idr=0.0, fdr=0.0)
        return Metrics(idr=self.in_time / eligible,
                       fdr=(self.in_time + self.late) / eligible)

    def canonical_bytes(self) -> bytes:
        head = json.dumps(
            {"seed": self.seed, "config": self.config, "in_time": self.in_time,
             "late": self.late, "never": self.never, "wcp": sorted(self.wcp)},
            sort_keys=True).encode()
        return head + self.decode_time.tobytes() + self.frame_deadline.tobytes()


def run_session(trace: VideoTrace, params: CodingParams, channel: ChannelModel,
                seed: int, payloads=None) -> SessionResult:
    """Encode, transmit and decode one full session.

    `payloads` may carry real frame bytes; without them the session is
    structure-only (all-zero packets), which decodes identically. Only DAF
    optimizes its slope factors; every other mode's are zero.
    """
    if trace.payload_bytes > 0xFFFF:
        raise ConfigError("payload size does not fit the wire header")
    schedule = build_schedule(params, trace, slopes=session_slopes(trace, params))
    k = trace.total_packets
    T = trace.num_frames
    N = params.total_coded
    interval = params.send_interval_s(trace)

    wcp = wcp_packets(params, trace)
    buffer = None
    if payloads is not None:
        buffer = packetize(trace, payloads)
        for p in wcp:  # padding periods carry no data
            buffer[p - 1] = 0

    eff_channel = replace(channel, seed=channel.seed + seed)
    send_times = np.arange(1, N + 1, dtype=np.float64) * interval
    delivered = transmit_many(eff_channel, np.arange(1, N + 1), send_times)

    codec = SessionCodec(trace, params, schedule)
    decoder = DecoderState(k, pseudo_decoded=wcp,
                           payload_bytes=trace.payload_bytes if buffer is not None else None)
    decode_time = np.full(k + 1, np.inf)

    for first, last in session_blocks(N, trace.payload_bytes):
        if not delivered[first - 1:last].any():
            continue
        # an honest trip through the wire format: only bytes cross
        data = codec.send(first, last, delivered, buffer)
        rx, indptr, neighbors = codec.receive(data)
        released, by = decoder.ingest_block(rx.packet_id, indptr, neighbors,
                                            rx.payload if buffer is not None else None)
        decode_time[released] = send_times[rx.packet_id[by] - 1]
        del data, rx, indptr, neighbors  # rx views data; free both before the next send

    frame_deadline = np.zeros(T + 1)
    # a padding frame no window touches (entry 0) takes the last entry's
    # deadline; derive_params rejects a schedule leaving any other frame out
    frame_deadline[1:] = schedule.cum_sent[schedule.last_covering_entry(T)[1:] - 1] * interval

    frame_of = np.repeat(np.arange(1, T + 1), trace.packets_per_frame)
    real = np.ones(k, dtype=bool)
    real[np.fromiter(wcp, dtype=np.int64, count=len(wcp)) - 1] = False
    dt = decode_time[1:]
    decoded = np.isfinite(dt)
    on_time = decoded & (dt <= frame_deadline[frame_of])
    in_time = int(np.count_nonzero(real & on_time))
    late = int(np.count_nonzero(real & decoded & ~on_time))
    never = int(np.count_nonzero(real & ~decoded))

    config = {
        "mode": params.mode.value,
        "window_frames": params.window_frames,
        "step_frames": params.step_frames,
        "delay_frames": params.delay_frames,
        "data_rate": params.data_rate,
        "code_rate": params.code_rate,
        "total_coded": params.total_coded,
        "native_packets": k,
        "frames": T,
        "payload_bytes": trace.payload_bytes,
        "channel": channel.describe(),
    }
    return SessionResult(seed=seed, config=config, decode_time=decode_time,
                         frame_deadline=frame_deadline, wcp=wcp,
                         in_time=in_time, late=late, never=never)


@dataclass(frozen=True)
class SweepRow:
    mode: str
    code_rate: float
    delay_s: float
    channel: str
    idr: float
    fdr: float


def delay_to_frames(delay_s: float, frame_rate: float) -> int:
    return int(math.floor(delay_s * frame_rate + 1e-9))


def sweep(trace: VideoTrace, modes, code_rates, delays_s, channels,
          repetitions: int = 20, base_seed: int = 0,
          step_frames: int = 1) -> list[SweepRow]:
    """Median IDR/FDR per (mode, code rate, delay, channel) grid cell."""
    cells = [(m, c, d, ch) for m in modes for c in code_rates
             for d in delays_s for ch in channels]
    if not cells:
        raise ConfigError("empty sweep grid")
    rows = []
    for mode, code_rate, delay_s, ch in cells:
        params = derive_params(trace, mode, delay_to_frames(delay_s, trace.frame_rate),
                               step_frames=step_frames, code_rate=code_rate)
        idrs, fdrs = [], []
        for rep in range(repetitions):
            result = run_session(trace, params, ch, base_seed + rep)
            m = result.metrics()
            idrs.append(m.idr)
            fdrs.append(m.fdr)
        rows.append(SweepRow(mode=Mode.parse(mode).value, code_rate=code_rate,
                             delay_s=delay_s, channel=ch.describe(),
                             idr=statistics.median(idrs),
                             fdr=statistics.median(fdrs)))
    return rows


CSV_HEADER = "mode,code_rate,delay_s,channel,idr,fdr"

#: Below this decoding ratio a result is reported as N/A (no visible video).
NA_THRESHOLD = 0.10


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.mode},{r.code_rate:g},{r.delay_s:g},{r.channel},"
                     f"{r.idr:.6f},{r.fdr:.6f}")
    return "\n".join(lines) + "\n"


def summarize(rows) -> str:
    """Human-readable matrix of the sweep results."""
    if not rows:
        raise ConfigError("nothing to report")
    out = [f"{'code rate':>9}  {'delay(s)':>8}  {'channel':<34}  {'scheme':<7}  "
           f"{'IDR':>7}  {'FDR':>7}"]

    def fmt(x):
        return "N/A" if x < NA_THRESHOLD else f"{100 * x:.2f}%"

    for r in rows:
        out.append(f"{r.code_rate:>9g}  {r.delay_s:>8g}  {r.channel:<34}  "
                   f"{r.mode:<7}  {fmt(r.idr):>7}  {fmt(r.fdr):>7}")
    return "\n".join(out) + "\n"


def report(rows, csv_path=None) -> tuple[str, str]:
    """Plot-ready CSV plus the text summary; optionally writes the CSV."""
    csv_text = rows_to_csv(rows)
    summary = summarize(rows)
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    return csv_text, summary
