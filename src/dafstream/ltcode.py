"""LT coding: robust-soliton degree draws, seeded sampling, XOR, BP decoding.

Everything a coded packet needs beyond its payload is reproducible from the
header: the PRNG is seeded by PacketID alone, the degree is drawn first and
the neighbors second, so encoder and decoder always agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ProtocolError
from .prng import XorShift64Star, packet_states, xorshift64star_next


#: The robust-soliton c and delta. PROTOCOL.md fixes them: both ends draw
#: every degree from this table, so packets drawn with others are unreadable.
SOLITON_C = 0.4
SOLITON_DELTA = 0.02


@dataclass(frozen=True)
class DegreeDistribution:
    """Robust-soliton degree distribution over 1..window_packets."""

    window_packets: int
    pmf: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", InverseCdf(np.cumsum(self.pmf)))

    def mean_degree(self) -> float:
        return sum((d + 1) * p for d, p in enumerate(self.pmf))


@lru_cache(maxsize=4096)
def robust_soliton(window_packets: int) -> DegreeDistribution:
    """Ideal soliton plus the spike term, normalized.

    The spike sits at ceil(k/R) where R = c * ln(k/delta) * sqrt(k), with
    c = SOLITON_C and delta = SOLITON_DELTA.
    """
    k, c, delta = window_packets, SOLITON_C, SOLITON_DELTA
    if k < 1:
        raise ValueError("window must hold at least one packet")
    rho = np.zeros(k + 1)
    rho[1] = 1.0 / k
    for d in range(2, k + 1):
        rho[d] = 1.0 / (d * (d - 1))
    tau = np.zeros(k + 1)
    ripple = c * math.log(k / delta) * math.sqrt(k)
    spike = min(k, math.ceil(k / ripple))
    for d in range(1, spike):
        tau[d] = ripple / (d * k)
    if ripple > delta:
        tau[spike] = ripple * math.log(ripple / delta) / k
    mu = rho[1:] + tau[1:]
    mu /= mu.sum()
    return DegreeDistribution(window_packets=k, pmf=tuple(mu))


@dataclass(frozen=True)
class CodedPacketMeta:
    """Reconstructible description of one coded packet's composition."""

    packet_id: int
    degree: int
    neighbors: tuple[int, ...]   # distinct native packet numbers, sorted
    start_packet: int
    window_packets: int
    slope_factor: float


#: At or below this many unfinished packets, the lockstep rounds of
#: draw_batch stop and each packet finishes alone from its own generator.
_LOCKSTEP_MIN = 16

#: Most packets per pass of draw_batch. A pass searches one joined key
#: array, so it must touch fewer than 2047 tables (see _Tables).
_PASS_PACKETS = 2046

#: Most cells per pass of draw_batch, the sum of WSize over its packets (a
#: pass holds at least one packet). Bounds the pass's chosen-neighbor bitmap
#: to _PASS_CELLS bytes and its joined keys to _PASS_CELLS words.
_PASS_CELLS = 1 << 21

_TWO53 = float(1 << 53)
_KEY_SPAN = (1 << 53) + 1


class InverseCdf:
    """A cumulative distribution over 0..n-1, inverted by 53-bit deviates.

    The CDF is nondecreasing. The deviate u = m * 2**-53 of an integer m
    falls at index bisect_right(cdf, u), which is exactly the number of
    integer keys ceil(value * 2**53) <= m: scaling by 2**53 is exact. Keys
    are clipped to 0..2**53, which keeps them sorted and changes no
    comparison, since m < 2**53. The last key is 2**53 (the CDF's last entry
    counts as exactly 1, whatever its float sum), so every deviate falls
    inside the table. Only the keys are kept.
    """

    __slots__ = ("keys",)

    def __init__(self, cdf):
        scaled = np.ceil(np.asarray(cdf, dtype=np.float64) * _TWO53)
        self.keys = np.clip(scaled, 0.0, _TWO53).astype(np.uint64)
        self.keys[..., -1] = 1 << 53

    @classmethod
    def rows(cls, cdf, sizes) -> list["InverseCdf"]:
        """One table per row of a 2-D array of CDFs, row r cut to sizes[r]."""
        all_keys = cls(cdf).keys
        all_keys[np.arange(len(sizes)), sizes - 1] = 1 << 53
        tables = []
        for keys, size in zip(all_keys, sizes.tolist()):
            table = cls.__new__(cls)
            table.keys = keys[:size]
            tables.append(table)
        return tables

    def __len__(self) -> int:
        return len(self.keys)

    def search(self, m) -> np.ndarray:
        """The index each 53-bit deviate m falls at."""
        return np.searchsorted(self.keys, m, side="right")


class _Tables:
    """Several InverseCdf tables searched by one np.searchsorted call.

    Table t's keys are offset by t * (2**53 + 1), so the joined keys stay
    sorted and every search lands inside its own table; the offsets fit in
    64 bits for fewer than 2047 tables.
    """

    def __init__(self, tables):
        if len(tables) >= 2047:
            raise ValueError("too many tables for one joined search")
        self.tables = tables
        self.sizes = np.fromiter((len(t) for t in tables), dtype=np.int64, count=len(tables))
        self.base = np.cumsum(self.sizes) - self.sizes
        self.offset = np.arange(len(tables), dtype=np.uint64) * np.uint64(_KEY_SPAN)
        self.keys = np.concatenate([t.keys for t in tables]) + np.repeat(self.offset, self.sizes)

    def search(self, which: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The index the 53-bit deviate m[i] falls at in table which[i], for every i."""
        return np.searchsorted(self.keys, self.offset[which] + m, side="right") - self.base[which]


def draw_batch(packet_ids, window_of, windows) -> tuple[np.ndarray, np.ndarray]:
    """Draw the composition of many coded packets at once, as CSR arrays.

    Packet i is drawn from `windows[window_of[i]]`, a tuple (start_packet,
    window table, degree table) of InverseCdf tables: the window table is
    the per-packet sampling CDF over the window, the degree table the
    robust-soliton CDF. Each packet's generator is seeded by its PacketID
    alone; it draws the degree first, clamped to the window size, then
    neighbors until that many distinct ones are chosen, so packet i gets
    the same neighbors whatever else is in the batch. Returns (indptr,
    neighbors): packet i's sorted native packet numbers are
    neighbors[indptr[i]:indptr[i + 1]].
    """
    packet_ids = np.asarray(packet_ids, dtype=np.int64)
    window_of = np.asarray(window_of, dtype=np.intp)
    used, local = np.unique(window_of, return_inverse=True)
    wsize = np.fromiter((len(windows[w][1]) for w in used.tolist()), dtype=np.int64,
                        count=len(used))
    cells = np.concatenate(([0], np.cumsum(wsize[local])))  # of the packets before i
    indptrs, neighbors = [np.zeros(1, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    a, n = 0, len(packet_ids)
    while a < n:
        b = int(np.searchsorted(cells, cells[a] + _PASS_CELLS, side="right")) - 1
        b = min(a + _PASS_PACKETS, max(a + 1, b))
        ip, nb = _draw_pass(packet_ids[a:b], window_of[a:b], windows)
        indptrs.append(ip[1:] + indptrs[-1][-1])
        neighbors.append(nb)
        a = b
    return np.concatenate(indptrs), np.concatenate(neighbors)


def _finish(rng: XorShift64Star, table: InverseCdf, chosen: set, degree: int) -> set:
    """Draw window positions into `chosen` until it holds `degree` of them."""
    while len(chosen) < degree:
        # each deviate adds at most one position, so none is drawn past the degree
        chosen.update(table.search(rng.next_u53s(degree - len(chosen))).tolist())
    return chosen


def _draw_pass(packet_ids, window_of, windows):
    n = len(packet_ids)
    used, local = np.unique(window_of, return_inverse=True)
    picked = [windows[w] for w in used]
    starts = np.array([w[0] for w in picked], dtype=np.int64)
    cdfs = _Tables([w[1] for w in picked])

    state = packet_states(packet_ids)
    size = cdfs.sizes[local]
    degree = _Tables([w[2] for w in picked]).search(local, xorshift64star_next(state)) + 1
    np.minimum(degree, size, out=degree)

    # chosen[offset[i] + j]: packet i has drawn window position j
    offset = np.cumsum(size) - size
    chosen = np.zeros(int(offset[-1] + size[-1]), dtype=bool)
    which, need, active = local, degree.copy(), np.arange(n)
    act_size, act_offset = size, offset
    while len(active) > _LOCKSTEP_MIN:
        j = cdfs.search(which, xorshift64star_next(state))
        pos = act_offset + j
        fresh = ~chosen[pos]
        chosen[pos[fresh]] = True
        need -= fresh
        going = need > 0
        if not going.all():
            state, which, need, active = state[going], which[going], need[going], active[going]
            act_size, act_offset = act_size[going], act_offset[going]
    for i in range(len(active)):  # the few left finish alone
        lo, hi = int(act_offset[i]), int(act_offset[i] + act_size[i])
        got = _finish(XorShift64Star(int(state[i])), cdfs.tables[which[i]],
                      set(np.flatnonzero(chosen[lo:hi]).tolist()), int(degree[active[i]]))
        chosen[lo + np.fromiter(got, dtype=np.intp, count=len(got))] = True

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    neighbors = np.flatnonzero(chosen) + np.repeat(starts[local] - offset, degree)
    return indptr, neighbors


def draw(packet_id: int, start_packet: int, window_cdf, dist: DegreeDistribution,
         slope_factor: float = 0.0) -> CodedPacketMeta:
    """Draw one packet's degree and distinct neighbors from its packet-id seed.

    `window_cdf` is the cumulative per-packet sampling distribution over the
    window (floats; the last counts as 1). A batch of one of draw_batch.
    """
    table = InverseCdf(window_cdf)
    indptr, neighbors = draw_batch([packet_id], [0], [(start_packet, table, dist.table)])
    return CodedPacketMeta(packet_id=packet_id, degree=int(indptr[1]),
                           neighbors=tuple(neighbors.tolist()),
                           start_packet=start_packet, window_packets=len(table),
                           slope_factor=slope_factor)


def uniform_cdf(window_packets: int) -> np.ndarray:
    return np.arange(1, window_packets + 1) / window_packets


#: Neighbor rows gathered at once by xor_payloads.
_XOR_ROWS = 256


def xor_payloads(indptr, neighbors, buffer: np.ndarray, out: np.ndarray | None = None):
    """XOR payload of every packet of a CSR batch, one row per packet.

    Packet i XORs the native packets (1-based numbers) in
    neighbors[indptr[i]:indptr[i + 1]] of a (k, P) uint8 buffer. Rows are
    gathered about _XOR_ROWS at a time, so memory stays bounded, and XORed
    as the widest unsigned words that tile P bytes. The rows are written
    into `out`, an (n, P) uint8 array that may be a strided view (a new one
    if None), which is returned.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    idx = np.asarray(neighbors, dtype=np.intp) - 1
    if np.any(idx < 0) or np.any(idx >= buffer.shape[0]):
        raise ValueError("neighbor outside the native packet buffer")
    n = len(indptr) - 1
    if np.any(indptr[1:] <= indptr[:-1]):
        raise ValueError("every packet needs at least one neighbor")
    if out is None:
        out = np.empty((n, buffer.shape[1]), dtype=np.uint8)
    elif out.shape != (n, buffer.shape[1]) or out.dtype != np.uint8:
        raise ValueError(f"out is {out.dtype} {out.shape}, need uint8 ({n}, {buffer.shape[1]})")
    word = next(w for w in (8, 4, 2, 1) if buffer.shape[1] % w == 0)
    words = np.ascontiguousarray(buffer, dtype=np.uint8).view(f"u{word}")
    a = 0
    while a < n:
        b = max(int(np.searchsorted(indptr, indptr[a] + _XOR_ROWS, side="right")) - 1, a + 1)
        lo = indptr[a]
        rows = np.bitwise_xor.reduceat(words[idx[lo:indptr[b]]], indptr[a:b] - lo, axis=0)
        out[a:b] = rows.view(np.uint8)
        a = b
    return out


def xor_payload(neighbors, buffer: np.ndarray) -> np.ndarray:
    """XOR of the native packets (1-based numbers) in a (k, P) uint8 buffer."""
    return xor_payloads([0, len(neighbors)], neighbors, buffer)[0]


class PeelingTables:
    """The seed-invariant half of the peeling decoder, built once per set of
    compositions: coded packet PacketID (row PacketID - 1 of the CSR arrays
    indptr, neighbors) is an equation over its native packets, and those in
    `pseudo_decoded` (the warm-up/cool-down padding) are known zeros. Its
    read-only arrays: `incidence[start[n]:start[n + 1]]`, the rows holding
    native n, ascending (none for padding); `count` and `total`, each row's
    non-padding neighbors and their sum; and `known` (bytes), the decoded
    flag of packets 0..k before any arrival.
    """

    def __init__(self, total_packets: int, indptr, neighbors, pseudo_decoded=()):
        k = total_packets
        self.total_packets, self.total_coded = k, len(indptr) - 1
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.neighbors = np.asarray(neighbors, dtype=np.int64)
        self.pseudo = frozenset(pseudo_decoded)
        known = np.zeros(k + 1, dtype=np.uint8)
        for p in self.pseudo:
            if not 1 <= p <= k:
                raise ValueError(f"pseudo-decoded packet {p} outside 1..{k}")
            known[p] = 1
        self.known = known.tobytes()
        live = known[self.neighbors] == 0
        # a stable sort on the narrowest type that holds k (a radix sort up
        # to 16 bits) keeps each native's equations ascending
        native = self.neighbors[live].astype(np.min_scalar_type(k))
        row = np.repeat(np.arange(self.total_coded, dtype=np.int32), np.diff(self.indptr))[live]
        self.incidence = row[np.argsort(native, kind="stable")]
        self.start = np.zeros(k + 2, dtype=np.int64)
        np.cumsum(np.bincount(native, minlength=k + 1), out=self.start[1:])
        self.count = np.bincount(row, minlength=self.total_coded).astype(np.int32)
        # float sums of integers far below 2**53 are exact
        self.total = np.bincount(row, weights=native, minlength=self.total_coded).astype(np.int64)
        for a in (self.indptr, self.neighbors, self.incidence, self.start, self.count, self.total):
            a.flags.writeable = False


class DecoderState:
    """Belief-propagation (peeling) decoder: the per-seed half of a session,
    on the PeelingTables of its compositions.

    An equation is two integers, its count of unknown neighbors and their
    sum, so once one is left the sum names it; both start from the tables,
    copied to Python lists. Releasing a native packet walks its incidence,
    read in place, and decrements every equation holding it, arrived or not
    (the ripple), so an equation arrives with its count up to date: 0 is
    redundant, 1 releases at once, more waits until the ripple brings it to
    1. With payloads, a value is a Python int (bytes read little-endian; 0
    while unknown and on padding); a waiting equation keeps its row as bytes,
    and a packet released through it is that row XOR its neighbors' values
    (its own still 0). Padding starts out decoded and is not reported.
    """

    def __init__(self, tables: PeelingTables, payload_bytes: int | None = None):
        self.tables = tables
        self.payload_bytes = payload_bytes
        self._decoded = bytearray(tables.known)
        self._known = np.frombuffer(self._decoded, dtype=np.uint8)  # same memory
        self._values = None if payload_bytes is None else [0] * (tables.total_packets + 1)
        self._arrived = bytearray(tables.total_coded)
        self._count = tables.count.tolist()    # per equation: unknown neighbors left
        self._sum = tables.total.tolist()      # per equation: sum of their numbers
        self._incidence = memoryview(tables.incidence)  # walked in place, never copied
        self._start = tables.start.tolist()
        self._kept = {}  # per waiting equation: its payload row, as bytes

    def is_decoded(self, packet: int) -> bool:
        return bool(self._decoded[packet])

    def decoded_payload(self, packet: int) -> np.ndarray | None:
        """Recovered bytes; zeros for pseudo-decoded packets."""
        if not self._decoded[packet]:
            raise KeyError(f"packet {packet} not decoded")
        values = self._values
        return None if values is None else np.frombuffer(  # fresh, the caller's to write
            bytearray(values[packet].to_bytes(self.payload_bytes, "little")), dtype=np.uint8)

    def decoded_packets(self) -> list[int]:
        """All decoded packet numbers excluding the pseudo-decoded padding."""
        return [p for p in np.flatnonzero(self._known).tolist() if p not in self.tables.pseudo]

    def ingest(self, packet_id: int, payload: np.ndarray | None = None) -> list[int]:
        """Absorb one coded packet, a block of one of ingest_block; returns
        every native packet it released, sorted."""
        rows = None if payload is None else np.asarray(payload, dtype=np.uint8)[None]
        return self.ingest_block([packet_id], rows)[0].tolist()

    def ingest_block(self, packet_ids, rows=None):
        """Absorb a block of coded packets, in order.

        Packet i has PacketID packet_ids[i] and, if the decoder holds
        payloads, the payload rows[i] (otherwise rows is not read); its
        composition is the tables'. Repeated PacketIDs and packets carrying
        no new information are ignored. A PacketID outside 1..N, or payload
        rows that are not one of the decoder's size per packet, raise
        ProtocolError before any PacketID of the block is recorded.

        Returns (released, by): every native packet released, in decode
        order and sorted within each packet, and the block index of the
        packet whose arrival released it.
        """
        ids = np.asarray(packet_ids, dtype=np.int64)
        N = self.tables.total_coded
        if ids.ndim != 1 or (len(ids) and (ids.min() < 1 or ids.max() > N)):
            raise ProtocolError(f"a PacketID outside the session's 1..{N}")
        values = self._values
        if values is not None:
            rows = None if rows is None else np.asarray(rows, dtype=np.uint8)
            if rows is None or rows.shape != (len(ids), self.payload_bytes):
                raise ProtocolError(f"need one {self.payload_bytes}-byte payload row per packet")
            ptr, nbrs = memoryview(self.tables.indptr), memoryview(self.tables.neighbors)

        cnt, tot, inc, start = self._count, self._sum, self._incidence, self._start
        arrived, decoded, kept = self._arrived, self._decoded, self._kept
        released, by = [], []
        for i, e in enumerate((ids - 1).tolist()):
            if arrived[e]:
                continue
            arrived[e] = 1
            c = cnt[e]
            if c and values is not None:  # a copy, so the caller may reuse its rows
                kept[e] = rows[i].tobytes()
            if c != 1:
                continue
            got = []
            queue = [e]
            while queue:
                f = queue.pop()
                if not cnt[f]:  # its last unknown was released since it was queued
                    continue
                nat = tot[f]
                decoded[nat] = 1
                got.append(nat)
                if values is not None:  # nat's own value is still 0
                    v = int.from_bytes(kept.pop(f), "little")
                    for m in nbrs[ptr[f]:ptr[f + 1]]:
                        v ^= values[m]
                    values[nat] = v
                for g in inc[start[nat]:start[nat + 1]]:  # f among them
                    c = cnt[g] = cnt[g] - 1
                    tot[g] -= nat
                    if c == 1 and arrived[g]:
                        queue.append(g)
            got.sort()
            released += got
            by += [i] * len(got)
        self._kept = {g: row for g, row in kept.items() if cnt[g]}  # drop those solved by others
        return np.array(released, dtype=np.int64), np.array(by, dtype=np.int64)
