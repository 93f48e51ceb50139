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
from .prng import next_u53s, packet_states, xorshift64star_next


#: The robust-soliton c and delta. PROTOCOL.md fixes them: both ends draw
#: every degree from this table, so packets drawn with others are unreadable.
SOLITON_C = 0.4
SOLITON_DELTA = 0.02


# Sessions do not call it; it keeps its cache for bench/workloads.py.
@lru_cache(maxsize=4096)
def robust_soliton(window_packets: int) -> np.ndarray:
    """The robust-soliton table of one window size, degree_tables([window_packets])[0]."""
    return degree_tables([window_packets])[0]


def degree_tables(sizes) -> list[np.ndarray]:
    """The robust-soliton table (cdf_keys over degrees 1..size) of every
    window size in `sizes`, in order."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(sizes) and sizes.min() < 1:
        raise ValueError("window must hold at least one packet")
    return cdf_tables(sizes, lambda pick: np.cumsum(_soliton_pmf(sizes[pick]), axis=1))


def _soliton_pmf(ks: np.ndarray) -> np.ndarray:
    """Robust-soliton pmf rows of window sizes ks (ascending): row r holds
    degrees 1..ks[r], and what lies past ks[r] is not read.

    Ideal soliton plus the spike term, normalized: the spike sits at
    ceil(k/R) where R = c * ln(k/delta) * sqrt(k), with c = SOLITON_C and
    delta = SOLITON_DELTA. Products of whole numbers below 2**53 are exact
    in float64, so every term rounds as the one-degree-at-a-time formula's
    does; R and the spike term come from `math`, one size at a time, and
    each row is normalized by the numpy sum of exactly its own k terms.
    """
    c, delta = SOLITON_C, SOLITON_DELTA
    ks = ks.tolist()
    ripple = [c * math.log(k / delta) * math.sqrt(k) for k in ks]  # > delta, as k >= 1
    spike = [min(k, math.ceil(k / r)) for k, r in zip(ks, ripple)]
    d = np.arange(1.0, ks[-1] + 1)
    size = np.array(ks, dtype=np.float64)
    pmf = np.where(d < np.array(spike)[:, None], np.array(ripple)[:, None] / (d * size[:, None]),
                   0.0)
    pmf[np.arange(len(ks)), np.array(spike) - 1] = [
        r * math.log(r / delta) / k for k, r in zip(ks, ripple)]
    pmf[:, 0] += 1.0 / size
    pmf[:, 1:] += 1.0 / (d[1:] * (d[1:] - 1.0))
    pmf /= np.array([row[:k].sum() for row, k in zip(pmf, ks)])[:, None]
    return pmf


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

#: Cells per row block of cdf_tables.
TABLE_BLOCK = 1 << 14

_TWO53 = float(1 << 53)
_KEY_SPAN = (1 << 53) + 1


def cdf_keys(cdf) -> np.ndarray:
    """The uint64 keys of a cumulative distribution over 0..n-1 (a row of
    keys per row of a 2-D cdf), inverted by 53-bit deviates.

    The CDF is nondecreasing. The deviate u = m * 2**-53 of an integer m
    falls at index bisect_right(cdf, u), which is exactly the number of
    integer keys ceil(value * 2**53) <= m: scaling by 2**53 is exact. Keys
    are clipped to 0..2**53, which keeps them sorted and changes no
    comparison, since m < 2**53. The last key is 2**53 (the CDF's last entry
    counts as exactly 1, whatever its float sum), so every deviate falls
    inside the table.
    """
    scaled = np.ceil(np.asarray(cdf, dtype=np.float64) * _TWO53)
    keys = np.clip(scaled, 0.0, _TWO53).astype(np.uint64)
    keys[..., -1] = 1 << 53
    return keys


def cdf_tables(sizes, cdf_rows) -> list[np.ndarray]:
    """One read-only key array (cdf_keys) per entry of `sizes`, built as
    padded 2-D row blocks in order of size: cdf_rows(pick) gives the CDF
    rows of sizes[pick] (ascending), row r read up to sizes[pick][r], whose
    key there is set to 2**53. A block's rows times its largest size is at
    most TABLE_BLOCK cells (at least one row), so the temporaries stay
    bounded however wide the windows are."""
    sizes = np.asarray(sizes)
    order = np.argsort(sizes, kind="stable")
    s = sizes[order].tolist()
    tables = [None] * len(s)
    a = 0
    while a < len(s):
        b = min(len(s), a + max(1, TABLE_BLOCK // s[a]))
        if (b - a) * s[b - 1] > TABLE_BLOCK:  # then this many fit, as sizes ascend
            b = a + max(1, TABLE_BLOCK // s[b - 1])
        pick = order[a:b]
        keys = cdf_keys(cdf_rows(pick))
        keys[np.arange(b - a), sizes[pick] - 1] = 1 << 53
        keys.flags.writeable = False
        for i, row, size in zip(pick.tolist(), keys, s[a:b]):
            tables[i] = row[:size]
        a = b
    return tables


class _Tables:
    """Several key arrays (cdf_keys) searched by one np.searchsorted call.

    Table t's keys are offset by t * (2**53 + 1), so the joined keys stay
    sorted and every search lands inside its own table; the offsets fit in
    64 bits for fewer than 2047 tables.
    """

    def __init__(self, tables):
        if len(tables) >= 2047:
            raise ValueError("too many tables for one joined search")
        self.sizes = np.fromiter((len(t) for t in tables), dtype=np.int64, count=len(tables))
        self.base = np.cumsum(self.sizes) - self.sizes
        self.offset = np.arange(len(tables), dtype=np.uint64) * np.uint64(_KEY_SPAN)
        self.keys = np.concatenate(tables) + np.repeat(self.offset, self.sizes)

    def search(self, which: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The index the 53-bit deviate m[i] falls at in table which[i], for every i."""
        return np.searchsorted(self.keys, self.offset[which] + m, side="right") - self.base[which]


def draw_batch(packet_ids, window_of, windows) -> tuple[np.ndarray, np.ndarray]:
    """Draw the composition of many coded packets at once, as CSR arrays.

    Packet i is drawn from `windows[window_of[i]]`, a tuple (start_packet,
    window table, degree table) of key arrays (cdf_keys): the window table is
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
    wsize = np.fromiter((len(w[1]) for w in windows), dtype=np.int64, count=len(windows))
    cells = np.concatenate(([0], np.cumsum(wsize[window_of])))  # of the packets before i
    # a leading 0, so the cumulative sum of the degrees is indptr
    degrees, neighbors = [np.zeros(1, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    a, n = 0, len(packet_ids)
    while a < n:
        b = int(np.searchsorted(cells, cells[a] + _PASS_CELLS, side="right")) - 1
        b = min(a + _PASS_PACKETS, max(a + 1, b))
        d, nb = _draw_pass(packet_ids[a:b], window_of[a:b], windows)
        degrees.append(d)
        neighbors.append(nb)
        a = b
    return np.cumsum(np.concatenate(degrees)), np.concatenate(neighbors)


def _draw_pass(packet_ids, window_of, windows):
    """The degrees and concatenated neighbors of one pass of draw_batch."""
    n = len(packet_ids)
    used, local = np.unique(window_of, return_inverse=True)
    picked = [windows[w] for w in used]
    starts = np.array([w[0] for w in picked], dtype=np.int64)
    cdfs = _Tables([w[1] for w in picked])

    state = packet_states(packet_ids)
    size = cdfs.sizes[local]
    degree = _Tables([w[2] for w in picked]).search(local, xorshift64star_next(state)) + 1
    np.minimum(degree, size, out=degree)

    # chosen[offset[i] + j]: packet i has drawn window position j; a deviate
    # plus key[i] is searched in the joined keys, and the index it falls at
    # plus shift[i] is its position in chosen
    offset = np.cumsum(size) - size
    chosen = np.zeros(int(offset[-1] + size[-1]), dtype=bool)
    key = cdfs.offset[local]
    shift = offset - cdfs.base[local]
    need, active = degree.copy(), np.arange(n)
    while len(active) > _LOCKSTEP_MIN:
        pos = xorshift64star_next(state)
        pos += key
        pos = np.searchsorted(cdfs.keys, pos, side="right")
        pos += shift
        fresh = ~chosen[pos]
        chosen[pos] = True
        need -= fresh
        going = need > 0
        if not going.all():
            state, key, shift, need, active = (
                state[going], key[going], shift[going], need[going], active[going])
    for x, i, left in zip(state.tolist(), active.tolist(), need.tolist()):
        # the few left finish alone, in their rows of chosen; each deviate
        # marks at most one position, so none is drawn past the degree
        keys = picked[local[i]][1]
        row = chosen[offset[i]:offset[i] + size[i]]
        while left:
            m, x = next_u53s(x, left)
            row[np.searchsorted(keys, m, side="right")] = True
            left = int(degree[i] - np.count_nonzero(row))

    neighbors = np.flatnonzero(chosen) + np.repeat(starts[local] - offset, degree)
    return degree, neighbors


def draw(packet_id: int, start_packet: int, window_cdf, degrees: np.ndarray,
         slope_factor: float = 0.0) -> CodedPacketMeta:
    """Draw one packet's degree and distinct neighbors from its packet-id seed.

    `window_cdf` is the cumulative per-packet sampling distribution over the
    window (floats; the last counts as 1), `degrees` a degree table such as
    robust_soliton's. A batch of one of draw_batch.
    """
    table = cdf_keys(window_cdf)
    indptr, neighbors = draw_batch([packet_id], [0], [(start_packet, table, degrees)])
    return CodedPacketMeta(packet_id=packet_id, degree=int(indptr[1]),
                           neighbors=tuple(neighbors.tolist()),
                           start_packet=start_packet, window_packets=len(table),
                           slope_factor=slope_factor)


#: Bytes of payload rows per chunk of xor_payloads: a chunk holds
#: c = max(1, _XOR_BYTES // P) packets of P bytes.
_XOR_BYTES = 1 << 17

#: At or below this many packets still XORing, a chunk of xor_payloads
#: finishes each alone.
_XOR_STRAGGLERS = 4


def xor_payloads(indptr, neighbors, buffer: np.ndarray, out: np.ndarray | None = None):
    """XOR payload of every packet of a CSR batch, one row per packet.

    Packet i XORs the native packets (1-based numbers) in
    neighbors[indptr[i]:indptr[i + 1]] of a (k, P) uint8 buffer, read as
    the widest unsigned words that tile P bytes. The rows are written into
    `out`, an (n, P) uint8 array that may be a strided view (a new one if
    None), which is returned.

    Packets go in chunks of c (see _XOR_BYTES), each sorted widest first.
    A chunk gathers every packet's first neighbor row into an accumulator.
    Then slot s = 1, 2, ... gathers the s-th neighbor rows of the packets
    of degree above s, a prefix after the sort, and XORs them in place; once
    _XOR_STRAGGLERS or fewer are left, each finishes alone, reducing its
    rest c rows at a time. The accumulator is scattered back in packet
    order. XOR is associative and commutative, so the order changes no
    byte. Besides `out`, the call holds at most (2c + 1) * P bytes of rows
    (the accumulator, one slot's rows and a straggler's reduced row), 16
    bytes per neighbor and 64 per packet of indices, and 16 KiB of
    interpreter objects.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    idx = np.asarray(neighbors, dtype=np.intp) - 1
    if np.any(idx < 0) or np.any(idx >= buffer.shape[0]):
        raise ValueError("neighbor outside the native packet buffer")
    n = len(indptr) - 1
    degree = np.diff(indptr)
    if np.any(degree <= 0):
        raise ValueError("every packet needs at least one neighbor")
    P = buffer.shape[1]
    if out is None:
        out = np.empty((n, P), dtype=np.uint8)
    elif out.shape != (n, P) or out.dtype != np.uint8:
        raise ValueError(f"out is {out.dtype} {out.shape}, need uint8 ({n}, {P})")
    word = next(w for w in (8, 4, 2, 1) if P % w == 0)
    words = np.ascontiguousarray(buffer, dtype=np.uint8).view(f"u{word}")
    c = max(1, _XOR_BYTES // max(P, 1))
    acc = np.empty((min(n, c), words.shape[1]), dtype=words.dtype)
    rows = np.empty_like(acc)
    # every index is checked above; mode "clip" lets np.take write to out unbuffered
    for a in range(0, n, c):
        order = np.argsort(-degree[a:a + c], kind="stable")
        deg, first = degree[a:a + c][order], indptr[a:a + c][order]
        m = len(order)
        np.take(words, idx[first], axis=0, out=acc[:m], mode="clip")
        # slots 1 .. top - 1 hold more than _XOR_STRAGGLERS packets each
        top = int(deg[_XOR_STRAGGLERS]) if m > _XOR_STRAGGLERS else 1
        wide = np.searchsorted(-deg, -np.arange(1, top), side="left")
        for s, w in enumerate(wide.tolist(), start=1):
            got = rows[:w]
            np.take(words, idx[first[:w] + s], axis=0, out=got, mode="clip")
            acc[:w] ^= got
        for j, (start, end) in enumerate(zip(first[:_XOR_STRAGGLERS].tolist(),
                                             (first + deg)[:_XOR_STRAGGLERS].tolist())):
            for lo in range(start + top, end, len(rows)):
                got = rows[:end - lo]
                np.take(words, idx[lo:lo + len(got)], axis=0, out=got, mode="clip")
                acc[j] ^= np.bitwise_xor.reduce(got, axis=0)
        out[a + order] = acc[:m].view(np.uint8)
    return out


def xor_payload(neighbors, buffer: np.ndarray) -> np.ndarray:
    """XOR of the native packets (1-based numbers) in a (k, P) uint8 buffer."""
    return xor_payloads([0, len(neighbors)], neighbors, buffer)[0]


def _state_widths(max_total: int, max_count: int) -> tuple[int, int]:
    """(ONE, ARRIVE) of PeelingTables.state: ONE is the power of two above
    the largest sum, ARRIVE the power of two above ONE * (max_count + 1), so
    a count and a sum (or a release mark, 3 * ONE + native) stay below
    ARRIVE. ValueError if a state ARRIVE + ONE * count + sum would not fit
    in int64."""
    one = 1 << int(max_total).bit_length()
    arrive = 1 << (one * (int(max_count) + 1)).bit_length()
    if arrive > 1 << 62:
        raise ValueError(f"equation state of {max_count} neighbors summing to "
                         f"{max_total} does not fit in int64")
    return one, arrive


class PeelingTables:
    """The seed-invariant half of the peeling decoder, built once per set of
    compositions: coded packet PacketID (row PacketID - 1 of the CSR arrays
    indptr, neighbors) is an equation over its native packets, and those in
    `pseudo_decoded` (the warm-up/cool-down padding) are known zeros. It
    holds `equations[n]`, the rows holding native n, ascending (none for
    padding), as a tuple of Python ints, one int object per row shared by
    every tuple, so a decoder walks it without allocating; the read-only
    `state`, each row's packed start state ARRIVE + ONE * count + sum of its
    non-padding neighbors (`arrive` and `one` are powers of two, from
    _state_widths); and `known` (bytes), the decoded flag of packets 0..k
    before any arrival.
    """

    def __init__(self, total_packets: int, indptr, neighbors, pseudo_decoded=()):
        k = total_packets
        self.total_packets, self.total_coded = k, len(indptr) - 1
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.neighbors = np.asarray(neighbors, dtype=np.int64)
        known = np.zeros(k + 1, dtype=np.uint8)
        for p in pseudo_decoded:
            if not 1 <= p <= k:
                raise ValueError(f"pseudo-decoded packet {p} outside 1..{k}")
            known[p] = 1
        self.known = known.tobytes()
        live = known[self.neighbors] == 0
        # a stable sort on the narrowest type that holds k (a radix sort up
        # to 16 bits) keeps each native's equations ascending
        native = self.neighbors[live].astype(np.min_scalar_type(k))
        row = np.repeat(np.arange(self.total_coded, dtype=np.int32), np.diff(self.indptr))[live]
        incidence = row[np.argsort(native, kind="stable")]
        start = np.zeros(k + 2, dtype=np.int64)
        np.cumsum(np.bincount(native, minlength=k + 1), out=start[1:])
        count = np.bincount(row, minlength=self.total_coded).astype(np.int64)
        # float sums of integers far below 2**53 are exact
        total = np.bincount(row, weights=native, minlength=self.total_coded).astype(np.int64)
        self.one, self.arrive = _state_widths(total.max(initial=0), count.max(initial=0))
        self.state = self.arrive + self.one * count + total
        # each row's int object is made once and shared by every tuple holding it
        flat = np.array(range(self.total_coded), dtype=object)[incidence].tolist()
        bounds = start.tolist()
        self.equations = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        for a in (self.indptr, self.neighbors, self.state):
            a.flags.writeable = False


class DecoderState:
    """Belief-propagation (peeling) decoder: the per-seed half of a session,
    on the PeelingTables of its compositions.

    An equation is one Python int, copied from the tables' `state`: ARRIVE
    while it has not arrived, plus ONE times its count of unknown neighbors,
    plus their sum, so once one is left the sum names it. An arrival
    subtracts ARRIVE; below ONE the equation is redundant, below 2 * ONE it
    releases at once, otherwise it waits. Releasing native packet nat
    through equation f first sets f to 3 * ONE + nat, then walks
    `equations[nat]` (f among them) and subtracts ONE + nat from each, so
    every equation holding nat, arrived or not, stays up to date (the
    ripple); one that falls below 2 * ONE has arrived and is down to one
    unknown, or none if another release solved it first, and is queued. f
    itself lands on 2 * ONE, out of the queue for good. Releases are logged
    flat with the index of the arrival that caused them, and sorted once
    per block; decoded flags are set once per block.

    With payloads, a value is a Python int (bytes read little-endian; 0
    while unknown and on padding); a waiting equation keeps its row as bytes,
    and a packet released through it is that row XOR its neighbors' nonzero
    values (its own is still 0, and is skipped). Padding starts out decoded
    and is not reported.
    """

    def __init__(self, tables: PeelingTables, payload_bytes: int | None = None):
        self.tables = tables
        self.payload_bytes = payload_bytes
        self._decoded = bytearray(tables.known)
        self._known = np.frombuffer(self._decoded, dtype=np.uint8)  # same memory
        self._values = None if payload_bytes is None else [0] * (tables.total_packets + 1)
        self._state = tables.state.tolist()
        self._kept = {}  # per waiting equation: its payload row, as bytes

    def decoded_payload(self, packet: int) -> np.ndarray | None:
        """Recovered bytes; zeros for pseudo-decoded packets. KeyError for a
        packet outside 1..k or not decoded."""
        if not (0 < packet < len(self._decoded) and self._decoded[packet]):
            raise KeyError(f"packet {packet} not decoded")
        values = self._values
        return None if values is None else np.frombuffer(  # fresh, the caller's to write
            bytearray(values[packet].to_bytes(self.payload_bytes, "little")), dtype=np.uint8)

    def ingest(self, packet_id: int, payload: np.ndarray | None = None) -> list[int]:
        """Absorb one coded packet, a block of one of ingest_block; returns
        every native packet it released, sorted."""
        rows = None if payload is None else np.asarray(payload)[None]
        return self.ingest_block([packet_id], rows)[0].tolist()

    def ingest_block(self, packet_ids, rows=None):
        """Absorb a block of coded packets, in order.

        Packet i has PacketID packet_ids[i] and, if the decoder holds
        payloads, the payload rows[i] (otherwise rows is not read); its
        composition is the tables'. Repeated PacketIDs and packets carrying
        no new information are ignored. A PacketID that is not an integer in
        1..N, or payload rows that are not one uint8 row of the decoder's
        size per packet, raise ProtocolError before any PacketID of the
        block is recorded.

        Returns (released, by): every native packet released, in decode
        order and sorted within each packet, and the block index of the
        packet whose arrival released it.
        """
        tables = self.tables
        ids = np.asarray(packet_ids)
        N = tables.total_coded
        if ids.ndim != 1 or (len(ids) and ids.dtype.kind not in "iu"):  # no float or bool
            raise ProtocolError(f"PacketIDs need a list of integers, not {ids.dtype} "
                                f"of shape {ids.shape}")
        if len(ids) and (ids.min() < 1 or ids.max() > N):
            raise ProtocolError(f"a PacketID outside the session's 1..{N}")
        ids = ids.astype(np.int64)
        values = self._values
        if values is not None:
            rows = None if rows is None else np.asarray(rows)
            if rows is None or rows.dtype != np.uint8 or rows.shape != (len(ids),
                                                                        self.payload_bytes):
                raise ProtocolError(f"need one {self.payload_bytes}-byte uint8 payload row "
                                    f"per packet")
            ptr, nbrs = memoryview(tables.indptr), memoryview(tables.neighbors)

        one, arrive, equations = tables.one, tables.arrive, tables.equations
        two, three = 2 * one, 3 * one
        state, kept = self._state, self._kept
        released, by = [], []
        for i, e in enumerate((ids - 1).tolist()):
            v = state[e]
            if v < arrive:  # a repeat
                continue
            v = state[e] = v - arrive
            if v < one:  # redundant
                continue
            if values is not None:  # a copy, so the caller may reuse its rows
                kept[e] = rows[i].tobytes()
            if v >= two:  # waits for the ripple
                continue
            queue = [e]
            while queue:
                f = queue.pop()
                nat = state[f] - one
                if nat < 0:  # its last unknown was released since it was queued
                    continue
                state[f] = three + nat  # its own step below leaves it at 2 * ONE, unqueued
                released.append(nat)
                by.append(i)
                if values is not None:
                    x = int.from_bytes(kept.pop(f), "little")
                    for m in nbrs[ptr[f]:ptr[f + 1]]:
                        w = values[m]
                        if w:
                            x ^= w
                    values[nat] = x
                step = one + nat
                for g in equations[nat]:
                    v = state[g] = state[g] - step
                    if v < two:
                        queue.append(g)
        self._kept = {g: row for g, row in kept.items() if state[g] >= one}  # drop the solved
        released, by = np.array(released, dtype=np.int64), np.array(by, dtype=np.int64)
        self._known[released] = 1
        order = np.lexsort((released, by))
        return released[order], by[order]
