"""Full coding sessions, IDR/FDR metrics, and parameter sweeps.

A session walks the window schedule at a constant data rate (coded packet n
leaves at n * P / R seconds) and pushes every packet through the erasure
channel. What does not depend on the seed (the schedule, the compositions
of all N coded packets, the peeling tables built from them, the deadlines)
is a SessionCodec, built by the first session on a CodingParams object and
kept on it. The params carry the trace derive_params validated them for: a
session on a trace not equal to it is refused before any codec is built,
and one on an equal twin runs on the params' codec. Each session then runs
in blocks of consecutive coded packets whose datagrams fit in BLOCK_BYTES
(session_blocks): the delivered ones cross the wire as datagram bytes,
and the decoder peels the block's PacketIDs in order on the codec's
tables, noting for each native packet the arrival that released it. Decode
times are read from that record once, after the last block. The codec
writes the 15-byte header of every PacketID once; a block's headers are
copied from those bytes, and the receiver accepts a header exactly when it
is its PacketID's, byte for byte, without decoding its fields. Every block
of a session is written into a prefix of one datagram buffer. Without
payloads it fits the codec's first, largest block, and a session that ends
normally keeps it as the one spare, freed with its codec, for the next such
session on that codec; with payloads it fits the most datagrams a block
delivers and is not kept. An LT packet's payload depends only on its
composition and the source bytes, so the first payload session on a codec
writes every PacketID's whole datagram, header and XOR payload, once into a
read-only image (payload_image), kept, freed with its codec, while later
sessions pass equal payloads; a block's datagrams are then copied whole from
it, where without payloads only their headers are. A codec being built
drops the spare and the image.
A native packet decoded by the send time of the last coded packet of the
last window covering its frame counts as in-time; decoded ever, toward the
file ratio. Warm-up/cool-down padding is excluded from both.
"""

from __future__ import annotations

import json
import math
import mmap
import statistics
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelModel, check_integer, transmit_many
from .errors import ConfigError, ProtocolError
# draw, xor_payload, encode_packet and decode_packet are looked up here by
# the per-layer tracer in bench/tracer.py; sessions use their batch forms.
from .ltcode import (CodedPacketMeta, DecoderState, PeelingTables, cdf_tables, degree_tables,
                     draw, draw_batch, xor_payload, xor_payloads)
from .protocol import (HEADER_DTYPE, HEADER_LEN, DafHeader, _write_headers, datagram_records,
                       decode_header, decode_packet, encode_header, encode_packet, packet_ids)
from .sampling import SamplingPlan, optimize_slopes, slope_density
from .trace import VideoTrace, check_payloads, downsample, packetize
from .windowing import CodingParams, Mode, build_schedule, derive_params, wcp_packets

#: Datagram bytes per block of a session (at least one datagram). Bounds the
#: wire bytes and payload rows held at once; a composition depends only on
#: its PacketID and window, so the block size changes no result.
BLOCK_BYTES = 1 << 21

#: At most one datagram buffer kept between sessions: SessionCodec -> bytearray.
_spare = weakref.WeakKeyDictionary()

#: At most one datagram image kept between sessions: SessionCodec ->
#: (the payloads it was built from, as a tuple of bytes; the image).
_image = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class Metrics:
    idr: float
    fdr: float

    def __post_init__(self):
        if not 0.0 <= self.idr <= self.fdr <= 1.0:
            raise ValueError(f"need 0 <= IDR <= FDR <= 1, got idr={self.idr}, fdr={self.fdr}")


class SessionCodec:
    """The seed-invariant part of a session on one CodingParams and the
    trace they carry, shared verbatim by encoder and decoder.

    Both ends hold the trace, the step and the window schedule. A coded
    packet's composition depends only on its PacketID and the schedule
    entry that sends it, so the codec draws all N compositions once, when
    it is built, as CSR arrays `indptr` and `neighbors` (row PacketID - 1),
    and keeps no window table after that draw. It also holds
    the peeling tables, the padding packets (`wcp`, and `real` marking the
    others), the send times, the frame deadlines, each packet's deadline and
    `headers`, the 15 wire bytes of every packet's header (row PacketID - 1);
    only the channel's delivery mask and the decode depend on the seed. Its
    arrays are read-only, since SessionResults share them, and it keeps no
    reference to the params.
    """

    def __init__(self, params: CodingParams):
        _spare.clear()  # no spare buffer or payload image is held while a codec is built
        _image.clear()
        trace = params.trace
        schedule = build_schedule(params, slopes=session_slopes(params))
        self.trace, self.schedule = trace, schedule
        self.total_coded = int(schedule.cum_sent[-1])
        pids = np.arange(1, self.total_coded + 1)
        entry = np.searchsorted(schedule.cum_sent, pids)
        # draw_batch inputs per entry: (StartP, window table, degree table),
        # freed as soon as the one draw is done
        sizes, size_of = np.unique(schedule.window_packets, return_inverse=True)
        degrees = degree_tables(sizes)
        windows = [(start, table, degrees[i]) for start, i, table
                   in zip(schedule.start_packet.tolist(), size_of.tolist(),
                          self._build_cdf(params.step_frames))]
        self.indptr, self.neighbors = draw_batch(pids, entry, windows)
        del windows
        T, k = trace.num_frames, trace.total_packets
        interval = params.send_interval_s()
        self.wcp = wcp_packets(params)
        self.peeling = PeelingTables(k, self.indptr, self.neighbors, self.wcp)
        self.real = np.frombuffer(self.peeling.known, dtype=np.uint8)[1:] == 0
        self.send_times = pids * interval
        # every header checked and packed once, by the one header writer
        head = np.zeros(self.total_coded, dtype=HEADER_DTYPE)
        _write_headers(head, schedule.start_packet[entry], schedule.window_packets[entry],
                       schedule.slope[entry], pids, trace.payload_bytes)
        self.headers = head.view(np.uint8).reshape(self.total_coded, HEADER_LEN)
        # a padding frame no window touches (entry 0) takes the last entry's
        # deadline; derive_params rejects a schedule leaving any other frame out
        last = schedule.last_covering_entry(T)[1:] - 1
        self.frame_deadline = np.zeros(T + 1)
        self.frame_deadline[1:] = schedule.cum_sent[last] * interval
        self.packet_deadline = self.frame_deadline[np.repeat(np.arange(1, T + 1),
                                                             trace.packets_per_frame)]
        for a in (self.indptr, self.neighbors, self.real, self.send_times,
                  self.headers, self.frame_deadline, self.packet_deadline):
            a.flags.writeable = False
        self.config = {
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
        }

    def _build_cdf(self, step: int) -> list[np.ndarray]:
        """Window table (cdf_keys) of every schedule entry, built in one pass.

        Entries of slope 0 share one uniform table per WSize. A sloped
        window is cut into groups of `step` frames from its first frame, and
        a packet's probability depends on its group's midpoint; windows
        start and end on group boundaries, so each packet's group midpoint
        is found once for the whole trace. Both kinds are built as padded
        2-D row blocks (cdf_tables), and each row is summed in order
        along its axis, as np.cumsum sums one window. Only DAF slopes its
        windows: derive_params admits them only inside the trace and on the
        step grid, and the slope solve clips to [-1, 1].
        """
        sched = self.schedule
        flat = sched.slope == 0.0
        sizes = np.unique(sched.window_packets[flat])
        uniform = dict(zip(sizes.tolist(), cdf_tables(
            sizes, lambda pick: np.arange(1, sizes[pick[-1]] + 1) / sizes[pick][:, None])))
        tables = [uniform[w] if f else None
                  for w, f in zip(sched.window_packets.tolist(), flat.tolist())]
        sloped = np.flatnonzero(~flat)
        if not len(sloped):
            return tables
        slope = sched.slope[sloped]
        first, size = sched.start_packet[sloped], sched.window_packets[sloped]
        k = self.trace.total_packets
        # packets through the end of each packet's group, and the group's size
        ends = downsample(self.trace, step).packet_offsets()[1:]
        group = np.diff(ends, prepend=0)
        mid = np.repeat(ends - group / 2.0, group)

        def cdf_rows(pick):
            start, n = first[pick][:, None], size[pick]
            packet = np.minimum(start + np.arange(n[-1]), k)
            # a group's midpoint measured from the window's first packet
            pdf = slope_density(mid[packet - 1] - (start - 1), n[:, None].astype(np.float64),
                                slope[pick][:, None])
            return np.add.accumulate(pdf, axis=1)

        for e, table in zip(sloped.tolist(), cdf_tables(size, cdf_rows)):
            tables[e] = table
        return tables

    # -- encoder ----------------------------------------------------------

    def send(self, first: int, last: int, delivered: np.ndarray, out,
             image: np.ndarray | None = None) -> memoryview:
        """Datagram bytes of the packets among first..last that the channel
        delivers (`delivered` is the session's per-packet mask), written into
        a prefix of `out`, a writable buffer of enough bytes, and returned as
        a read-only view of it, so no reader writes into a buffer that later
        sessions reuse.

        With a datagram image (payload_image) each datagram is its row,
        copied whole; without one only the header, from `headers`, so the
        payload bytes stay as they were in `out`.
        """
        pids = first + np.flatnonzero(delivered[first - 1:last])
        source = self.headers if image is None else image
        size = HEADER_LEN + self.trace.payload_bytes
        data = memoryview(out)[:len(pids) * size]
        rows = np.frombuffer(data, dtype=np.uint8).reshape(len(pids), size)
        # every PacketID is in 1..N, so "clip" clips nothing
        np.take(source, pids - 1, axis=0, out=rows[:, :source.shape[1]], mode="clip")
        return data.toreadonly()

    # -- decoder ----------------------------------------------------------

    def receive(self, data) -> tuple[np.ndarray, np.ndarray]:
        """Check the framing and every header of datagram bytes; returns the
        PacketIDs and the (n, P) payload rows, which the decoder reads with
        the packets' compositions from the codec.

        A header is accepted exactly when its 15 bytes are its PacketID's
        row of `headers`; the first that is not is refused (_refuse).
        """
        P = self.trace.payload_bytes
        rec = datagram_records(data, P)
        pid = packet_ids(rec["header"]["packet_id"])
        rows = np.frombuffer(data, dtype=np.uint8).reshape(len(rec), HEADER_LEN + P)
        # a row of `headers` holds its own PacketID, so an ID outside 1..N,
        # clipped to row 1 or N, never equals its row
        want, got = self.headers.take(pid - 1, axis=0, mode="clip"), rows[:, :HEADER_LEN]
        if not np.array_equal(want, got):
            self._refuse(got[np.argmax(np.any(want != got, axis=1))].tobytes())
        return pid, rows[:, HEADER_LEN:]

    def _refuse(self, raw: bytes):
        """Raise the ProtocolError of a header that is not its PacketID's
        record, for the first rule it breaks: a field out of range, P, a
        PacketID outside 1..N, the window, then SlopeF."""
        h, P, N = decode_header(raw), self.trace.payload_bytes, self.total_coded
        if h.payload_bytes != P:
            raise ProtocolError(f"P {h.payload_bytes} is not the session's {P}-byte payload")
        if not 1 <= h.packet_id <= N:
            raise ProtocolError(f"PacketID {h.packet_id} outside the session's 1..{N}")
        s, e = self.schedule, int(np.searchsorted(self.schedule.cum_sent, h.packet_id))
        if (h.start_packet, h.window_packets) != (s.start_packet[e], s.window_packets[e]):
            raise ProtocolError(f"PacketID {h.packet_id} is not sent through the window at "
                                f"StartP {h.start_packet}, WSize {h.window_packets}")
        # every other field is the record's, so SlopeF's bytes differ: another
        # value, or -0.0 for a window of slope 0.0
        raise ProtocolError(f"SlopeF {h.slope_factor} is not the slope of the window at "
                            f"StartP {h.start_packet}")

    def meta_from_header(self, header: DafHeader) -> CodedPacketMeta:
        """Decoder-side composition of one packet, whose header must be its
        PacketID's record, as in receive."""
        pid, raw = header.packet_id, encode_header(header)
        if raw != self.headers[min(max(pid, 1), self.total_coded) - 1].tobytes():
            self._refuse(raw)
        neighbors = self.neighbors[self.indptr[pid - 1]:self.indptr[pid]]
        return CodedPacketMeta(packet_id=pid, degree=len(neighbors),
                               neighbors=tuple(neighbors.tolist()),
                               start_packet=header.start_packet,
                               window_packets=header.window_packets,
                               slope_factor=header.slope_factor)


def payload_image(codec: SessionCodec, payloads) -> np.ndarray:
    """The datagram image of `codec` for frame payloads run_session has
    checked: row PacketID - 1 is that packet's whole datagram, its header
    from `headers` then its XOR payload, a read-only (N, HEADER_LEN + P)
    uint8 array.

    The payload columns are written by one xor_payloads over the codec's
    whole CSR, from packetize with padding zeroed. The image is kept, as the
    process's one image (freed with its codec), with a snapshot of the
    payloads, tuple(bytes(p) for p in payloads): a copy of a mutable buffer,
    so one edited in place since misses, and the object itself for bytes,
    so an equal list of the same bytes objects hits on identity alone.
    """
    snapshot = tuple(bytes(p) for p in payloads)
    held = _image.get(codec)
    if held is not None and held[0] == snapshot:
        return held[1]
    _image.clear()  # an old image is freed before a new one is built
    source = packetize(codec.trace, snapshot)
    source[~codec.real] = 0  # padding periods carry no data
    # the image is its own anonymous mapping, unmapped when it is freed: a
    # freed malloc block this large would raise glibc's mmap threshold to its
    # size, and the sources and datagram buffers cut after it would then be
    # kept in the heap (relay-payload-300 peak RSS +1.9 MB)
    N, size = codec.total_coded, HEADER_LEN + codec.trace.payload_bytes
    image = np.frombuffer(mmap.mmap(-1, N * size), dtype=np.uint8).reshape(N, size)
    image[:, :HEADER_LEN] = codec.headers
    xor_payloads(codec.indptr, codec.neighbors, source, out=image[:, HEADER_LEN:])
    image.flags.writeable = False
    _image[codec] = (snapshot, image)
    return image


def session_blocks(total_coded: int, payload_bytes: int):
    """Yield the (first, last) PacketIDs of each block of a session, tiling
    1..total_coded with as many datagrams as fit in BLOCK_BYTES, at least one."""
    size = max(1, BLOCK_BYTES // (HEADER_LEN + payload_bytes))
    for first in range(1, total_coded + 1, size):
        yield first, min(first + size - 1, total_coded)


@lru_cache(maxsize=32)
def cached_slope_plan(trace: VideoTrace, window: int, step: int) -> SamplingPlan:
    return optimize_slopes(trace, window, step)


def session_slopes(params: CodingParams) -> np.ndarray | None:
    """Slope factors per schedule entry; only the DAF mode optimizes them."""
    if params.mode is not Mode.DAF:
        return None
    plan = cached_slope_plan(params.trace, params.window_frames, params.step_frames)
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


def session_plan(params: CodingParams) -> SessionCodec:
    """The codec of `params`, built by the first session that asks.

    It is kept on the params object itself, so it lives as long as that
    object: an equal params object from another derive_params call builds
    its own.
    """
    codec = params.__dict__.get("_session_plan")
    if codec is None:
        codec = SessionCodec(params)
        object.__setattr__(params, "_session_plan", codec)  # CodingParams is frozen
    return codec


def run_session(trace: VideoTrace, params: CodingParams, channel: ChannelModel,
                seed: int, payloads=None) -> SessionResult:
    """Encode, transmit and decode one full session.

    `payloads` may carry real frame bytes, one C-contiguous buffer of the
    trace's byte count per frame, checked before any work (ValueError, as
    in packetize); without them the session is structure-only (all-zero
    packets), which decodes identically. Only DAF optimizes its slope
    factors; every other mode's are zero. The seed-invariant work is done
    once per params object (session_plan), and the datagrams once per
    codec and payloads (payload_image). `trace` must be the one the params
    were derived for, or equal to it.
    """
    if trace != params.trace:
        raise ConfigError("the trace is not the one these coding parameters were derived for")
    eff_channel = channel.for_session(seed)  # checks the seed
    if payloads is not None:
        check_payloads(trace, payloads)
    codec = session_plan(params)
    k, N = trace.total_packets, codec.total_coded
    image = None if payloads is None else payload_image(codec, payloads)

    delivered = transmit_many(eff_channel, np.arange(1, N + 1), codec.send_times)

    decoder = DecoderState(codec.peeling,
                           payload_bytes=trace.payload_bytes if image is not None else None)

    blocks = list(session_blocks(N, trace.payload_bytes))
    # every block's datagrams are written into a prefix of one buffer: without
    # payloads this codec's spare (popped, so no two sessions share it) or one
    # cut for the first, largest block; with them, a new one for the most
    # datagrams a block delivers, not kept
    wire = None if image is not None else _spare.pop(codec, None)
    _spare.clear()  # any other spare is freed before a buffer is cut
    if wire is None:
        wire = bytearray((HEADER_LEN + trace.payload_bytes) * (
            blocks[0][1] if image is None else
            max(int(np.count_nonzero(delivered[first - 1:last])) for first, last in blocks)))
    for first, last in blocks:
        if not delivered[first - 1:last].any():
            continue
        # an honest trip through the wire format: only bytes cross
        data = codec.send(first, last, delivered, wire, image)
        decoder.ingest_block(*codec.receive(data))
    if image is None:
        _spare[codec] = wire
    # each packet decodes at the send time of the arrival that released it
    rows = decoder.release_rows()
    hit = rows >= 0
    decode_time = np.full(k + 1, np.inf)
    decode_time[hit] = codec.send_times[rows[hit]]

    dt = decode_time[1:]
    decoded = np.isfinite(dt)
    on_time = decoded & (dt <= codec.packet_deadline)
    real = codec.real
    return SessionResult(seed=int(seed), config=dict(codec.config, channel=channel.describe()),
                         decode_time=decode_time, frame_deadline=codec.frame_deadline,
                         wcp=codec.wcp, in_time=int(np.count_nonzero(real & on_time)),
                         late=int(np.count_nonzero(real & decoded & ~on_time)),
                         never=int(np.count_nonzero(real & ~decoded)))


@dataclass(frozen=True)
class SweepRow:
    mode: str
    code_rate: float
    delay_s: float
    channel: str
    idr: float
    fdr: float


def delay_to_frames(delay_s: float, frame_rate: float) -> int:
    """Whole frames in `delay_s` seconds; a delay that is not finite is a ConfigError."""
    frames = delay_s * frame_rate
    if not math.isfinite(frames):
        raise ConfigError(f"delay of {delay_s} s is not a finite number")
    return int(math.floor(frames + 1e-9))


def sweep(trace: VideoTrace, modes, code_rates, delays_s, channels,
          repetitions: int = 20, base_seed: int = 0,
          step_frames: int = 1) -> list[SweepRow]:
    """Median IDR/FDR per (mode, code rate, delay, channel) grid cell.

    The repetitions, every delay, every cell's params and the first and last
    session seeds are checked before the first session runs. The channels
    of one (mode, code rate, delay) share its params, and so its codec.
    """
    check_integer(repetitions, "repetitions per cell")
    if repetitions < 1:
        raise ConfigError(f"need at least one repetition per cell, got {repetitions}")
    delays = [(d, delay_to_frames(d, trace.frame_rate)) for d in delays_s]
    cells = [(m, c, d, derive_params(trace, m, delay, step_frames=step_frames, code_rate=c))
             for m in modes for c in code_rates for d, delay in delays]
    if not cells or not channels:
        raise ConfigError("empty sweep grid")
    for ch in channels:
        for seed in (base_seed, base_seed + repetitions - 1):
            ch.for_session(seed)
    rows = []
    cells.reverse()
    while cells:  # a cell's params, with the codec they keep, go once its sessions ran
        mode, code_rate, delay_s, params = cells.pop()
        for ch in channels:
            idrs, fdrs = [], []
            for rep in range(repetitions):
                m = run_session(trace, params, ch, base_seed + rep).metrics()
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
