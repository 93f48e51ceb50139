"""Independent reference computations used only by tests.

Everything here evaluates the ASP objective by direct accumulation of
per-window sampling distributions and searches by brute-force grids, so it
shares no solver path with the package's optimizers. `draw_oracle` is the
packet draw exactly as PROTOCOL.md states it, one packet and one deviate at
a time, for checking the package's batch draw. `peeling_oracle` is the
peeling decoder kept as sets of unknown neighbors, one packet at a time, for
checking the package's counter decoder, and `block_releases` rebuilds, from
the decoder's per-packet record, the per-block event log the oracle gives;
`minmax_decode_times` gives the
arrival that releases each packet as a min-max fixpoint, solved in time
order rather than arrival order, for checking whole sessions. `iter_coded_packets` lists every coded
packet a session's encoder would send (from `window_tables`, the draw
inputs a codec keeps only while it draws), for checks that need all of
them. `FrameIndex`, `schedule_oracle`, `last_covering_oracle`,
`slope_coeffs_oracle` and `slope_matrix_oracle` are the per-frame and
per-entry lookups and loops the package's array forms replaced,
`slope_solve_oracle` is the slope solve with H and b built entry by entry
in Python floats and the sweep reading columns of H with numpy scalars
(`centered_gram` is H by its dense definition, Dc.T @ Dc), and
`struct_datagram` packs the wire header field by field with `struct`;
`header_record` packs with it the header an honest sender writes for a
PacketID, and `decode_datagrams` is the batch header reader the receiver
used before it compared each header's bytes with that record.
`transmit` (over `counter_uniform` and `splitmix64`), `packet_rng`,
`slope_pdf`, `uniform_cdf` and `uniform_matrix` are the scalar and
per-window forms of the channel, the packet generator, the window CDFs and
the sampling matrices; `packet_rng` is written from PROTOCOL.md alone and
imports no generator code from the package.
`xor_payloads_oracle` XORs each coded packet's payload alone, for checking
the package's slot-by-slot XOR kernel.
`header_rule_oracle` is the receiver's header check as first stated, one
header at a time: a (StartP, WSize) lookup, then the slope, the PacketID's
window and P. `robust_soliton_oracle` is the degree distribution built one
degree at a time, for checking the package's one-pass degree tables.
"""

import heapq
import itertools
import math
import struct
from bisect import bisect_left, bisect_right

import numpy as np

from dafstream.harness import SessionCodec, session_blocks
from dafstream.ltcode import CodedPacketMeta, draw_batch, robust_soliton, xor_payloads
from dafstream.prng import MASK64, PACKET_SEED_SALT
from dafstream.protocol import DafHeader, check_fields, datagram_records, packet_ids, to_f32
from dafstream.errors import ProtocolError, SolverError
from dafstream.sampling import (SamplingPlan, _check_window, _optimizer_domain, slope_coeffs,
                                slope_density, slope_matrix)
from dafstream.windowing import Mode

#: The columns of a WindowSchedule, as schedule_oracle lists them.
COLUMNS = ("start_frame", "end_frame", "start_packet", "window_packets", "slope", "cum_sent")

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB


class PacketRng:
    """PROTOCOL.md's packet generator, one deviate at a time: xorshift64*
    with the (12, 25, 27) shifts and multiplier 0x2545F4914F6CDD1D, from a
    nonzero seed (a zero seed starts at the salt instead)."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = (seed & MASK64) or PACKET_SEED_SALT

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & MASK64

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * _INV_2_53


def packet_rng(packet_id):
    """The generator both ends use for a given coded packet, one deviate at
    a time; it shares no code with the package's (prng.packet_states and
    prng.next_u53s)."""
    return PacketRng(packet_id ^ PACKET_SEED_SALT)


def splitmix64(x):
    """Finalizer of the splitmix64 stream; a 64-bit mixing function."""
    z = (x + _SM_GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _SM_MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _SM_MIX2) & MASK64
    return z ^ (z >> 31)


def counter_uniform(seed, index):
    """prng.counter_uniforms for one index, with Python integers."""
    z = splitmix64((seed + index * _SM_GAMMA) & MASK64)
    return (z >> 11) * _INV_2_53


def transmit(model, packet_index, send_time_s):
    """channel.transmit_many for one packet, as PROTOCOL.md states it."""
    if model.kind == "mobile-relay" and not _gate_open(model, send_time_s):
        return False
    return counter_uniform(model.seed, packet_index) < model.delivery_prob()


def _gate_open(model, send_time_s):
    phase = send_time_s % model.period_s
    return phase < model.duty * model.period_s


def slope_pdf(frame_packets, slope):
    """Per-packet sampling probabilities of one window, from its frames'
    packet counts in order (sampling.slope_density at each frame's midpoint,
    repeated over the frame's packets)."""
    if not -1.0 <= slope <= 1.0:
        raise ValueError(f"slope factor {slope} outside [-1, 1]")
    s = np.asarray(frame_packets, dtype=np.float64)
    if s.ndim != 1 or len(s) == 0 or np.any(s < 1):
        raise ValueError("frame_packets must be a non-empty sequence of counts >= 1")
    density = slope_density(np.cumsum(s) - s / 2.0, s.sum(), slope)
    return np.repeat(density, s.astype(int))


def uniform_matrix(trace, window):
    """Sampling matrix assigning every frame of every window probability 1/W."""
    _check_window(trace, window)
    rows = trace.num_frames - window + 1
    return np.full((rows, window), 1.0 / window)


def direct_asp_from_slopes(trace, window, slopes):
    """Accumulate per-packet probabilities window by window (no affine form)."""
    s = trace.packets_per_frame
    T = len(s)
    P = np.zeros(T)
    for t0 in range(T - window + 1):
        pdf = slope_pdf(s[t0:t0 + window], slopes[t0])
        pos = 0
        for i in range(window):
            P[t0 + i] += pdf[pos]
            pos += s[t0 + i]
    return P


def direct_asp_from_matrix(A, trace, window):
    s = np.asarray(trace.packets_per_frame, dtype=np.float64)
    T = len(s)
    P = np.zeros(T)
    for t0 in range(len(A)):
        P[t0:t0 + window] += A[t0]
    return P / s


def stable_objective(P, window):
    T = len(P)
    stable = np.asarray(P[window - 1:T - window + 1])
    return float(((stable - stable.mean()) ** 2).sum())


def plan_objective(plan):
    """ASP objective of an optimizer's plan, on its own (possibly downsampled) domain."""
    return stable_objective(plan.asp().values, plan.window)


def simplex_grid(dim, resolution):
    """All probability vectors of length `dim` on a grid of given spacing."""
    steps = int(round(1.0 / resolution))
    out = []
    for combo in itertools.product(range(steps + 1), repeat=dim - 1):
        if sum(combo) <= steps:
            head = [c / steps for c in combo]
            out.append(head + [1.0 - sum(head)])
    return np.array(out)


def perframe_grid_oracle(trace, window, coarse=0.05):
    """Row-wise grid search over the per-window simplices, refined locally.

    Cyclic exact-per-row minimization of a convex objective converges to the
    global optimum; shrinking grids push the precision below 1e-7.
    """
    s = np.asarray(trace.packets_per_frame, dtype=np.float64)
    T = len(s)
    rows = T - window + 1
    A = np.full((rows, window), 1.0 / window)

    def best_row(t0, candidates):
        base = direct_asp_from_matrix(A, trace, window)
        base[t0:t0 + window] -= A[t0] / s[t0:t0 + window]
        # evaluate every candidate directly on the full stable range
        P = np.tile(base, (len(candidates), 1))
        P[:, t0:t0 + window] += candidates / s[t0:t0 + window]
        stable = P[:, window - 1:T - window + 1]
        dev = stable - stable.mean(axis=1, keepdims=True)
        scores = (dev ** 2).sum(axis=1)
        return candidates[int(np.argmin(scores))], float(scores.min())

    def sweep(candidate_fn, max_rounds=60):
        best = None
        for _ in range(max_rounds):
            improved = False
            for t0 in range(rows):
                cand, score = best_row(t0, candidate_fn(t0))
                if best is None or score < best - 1e-15:
                    best = score
                    improved = improved or not np.allclose(cand, A[t0])
                A[t0] = cand
            if not improved:
                break
        return best

    grid = simplex_grid(window, coarse)
    best = sweep(lambda t0: grid)
    for res in (1e-2, 2e-3, 4e-4, 8e-5, 1.6e-5, 3.2e-6):
        offsets = np.array(list(itertools.product((-2, -1, 0, 1, 2),
                                                  repeat=window)))
        def local(t0, res=res, offsets=offsets):
            cands = A[t0] + offsets * res
            cands = cands[np.all(cands >= 0, axis=1)]
            cands = cands / cands.sum(axis=1, keepdims=True)
            return np.vstack([A[t0], cands])
        best = sweep(local)
    return A, best


def slope_grid_oracle(trace, window, coarse_points=41):
    """Coordinate-wise grid search over slope factors in [-1, 1], refined."""
    s = trace.packets_per_frame
    T = len(s)
    rows = T - window + 1
    a = np.zeros(rows)

    def window_contrib(t0, value):
        pdf = slope_pdf(s[t0:t0 + window], value)
        pos, out = 0, np.zeros(T)
        for i in range(window):
            out[t0 + i] = pdf[pos]
            pos += s[t0 + i]
        return out

    def objective_parts():
        P = np.zeros(T)
        for t0 in range(rows):
            P += window_contrib(t0, a[t0])
        return P

    def sweep(candidates_fn, max_rounds=80):
        best = stable_objective(objective_parts(), window)
        for _ in range(max_rounds):
            improved = False
            for j in range(rows):
                base = objective_parts() - window_contrib(j, a[j])
                for val in candidates_fn(j):
                    score = stable_objective(base + window_contrib(j, val), window)
                    if score < best - 1e-15:
                        best = score
                        a[j] = val
                        improved = True
            if not improved:
                break
        return best

    coarse = np.linspace(-1.0, 1.0, coarse_points)
    best = sweep(lambda j: coarse)
    for res in (0.01, 2e-3, 4e-4, 8e-5, 1.6e-5, 3.2e-6):
        best = sweep(lambda j, res=res: np.clip(
            a[j] + res * np.arange(-2, 3), -1.0, 1.0))
    return a, best


def slope_full_grid(trace, window, points=11, chunk=200_000):
    """Exhaustive grid over all slope vectors; the global lower envelope.

    Evaluates the objective from per-window tables built directly with
    slope_pdf, vectorized over candidates.
    """
    s = trace.packets_per_frame
    T = len(s)
    rows = T - window + 1
    values = np.linspace(-1.0, 1.0, points)
    # tables[j][v] = per-frame packet-probability contribution of window j
    tables = np.zeros((rows, points, T))
    for j in range(rows):
        for v, val in enumerate(values):
            pdf = slope_pdf(s[j:j + window], val)
            pos = 0
            for i in range(window):
                tables[j, v, j + i] = pdf[pos]
                pos += s[j + i]
    lo, hi = window - 1, T - window + 1
    best = np.inf
    best_combo = None
    # combination n is the rows base-`points` digits of n, the most significant
    # first: itertools.product(range(points), repeat=rows) order
    radix = points ** np.arange(rows - 1, -1, -1, dtype=np.int64)
    total = points ** rows
    for start in range(0, total, chunk):
        n = np.arange(start, min(start + chunk, total), dtype=np.int64)
        idx = n[:, None] // radix % points
        P = np.zeros((len(idx), hi - lo))
        for j in range(rows):
            P += tables[j, idx[:, j], lo:hi]
        dev = P - P.mean(axis=1, keepdims=True)
        scores = (dev ** 2).sum(axis=1)
        i = int(np.argmin(scores))
        if scores[i] < best:
            best = float(scores[i])
            best_combo = values[idx[i]]
    return best_combo, best


def gf2_first_determined(equations, known=()):
    """1-based index of the first equation after which each unknown is fixed.

    `equations` are XOR equations given as sets of packet numbers; packets in
    `known` (the warm-up/cool-down padding) are known from the start. An
    unknown is determined once its unit vector lies in the GF(2) span of the
    equations so far, i.e. once an ideal decoder (Gaussian elimination, not
    just peeling) could recover it. Rows are Python ints kept in reduced
    row-echelon form, where a packet is determined exactly when its pivot row
    has no other bit left.
    """
    known = frozenset(known)
    rows = {}   # pivot packet -> row holding no other pivot
    first = {}
    for n, eq in enumerate(equations, start=1):
        unknown = [p for p in eq if p not in known]
        row = sum(1 << p for p in unknown)
        for p in unknown:
            if p in rows:
                row ^= rows[p]
        if not row:
            continue
        pivot = row.bit_length() - 1
        for q, other in rows.items():
            if other >> pivot & 1:
                other ^= row
                rows[q] = other
                if other == 1 << q and q not in first:
                    first[q] = n
        rows[pivot] = row
        if row == 1 << pivot:
            first[pivot] = n
    return first


def in_time_oracle(trace, schedule, equations, known):
    """Packets an ideal decoder holds by their frame's deadline, lossless.

    `equations` are the neighbor sets of coded packets 1, 2, ... in send
    order. A frame's deadline is the cumulative coded count of the last
    schedule entry whose window touches it.
    """
    deadline = [0] * (trace.num_frames + 1)
    for first, end, cum in zip(schedule.start_frame.tolist(), schedule.end_frame.tolist(),
                               schedule.cum_sent.tolist()):
        for t in range(first, end + 1):
            deadline[t] = max(deadline[t], cum)
    first = gf2_first_determined(equations, known)
    in_time, last = set(), 0
    for t, count in enumerate(trace.packets_per_frame, start=1):
        in_time.update(p for p in range(last + 1, last + count + 1)
                       if first.get(p, math.inf) <= deadline[t])
        last += count
    return in_time


def draw_oracle(packet_id, start_packet, window_cdf, degree_cdf):
    """(degree, sorted neighbors) of one coded packet, by the rejection loop.

    One generator per packet, seeded from the PacketID; one deviate inverted
    through the degree CDF (clamped to the window size), then deviates
    inverted through the window CDF, duplicates rejected, until the degree
    is reached.
    """
    rng = packet_rng(packet_id)
    wsize = len(window_cdf)
    degree = min(bisect_right(degree_cdf, rng.next_float()) + 1, wsize)
    chosen = set()
    while len(chosen) < degree:
        j = bisect_right(window_cdf, rng.next_float())
        chosen.add(start_packet + min(j, wsize - 1))
    return degree, tuple(sorted(chosen))


def uniform_cdf(window_packets):
    """The uniform window CDF, one window at a time (SessionCodec._build_cdf
    builds the slope-0 tables of all WSizes in one pass)."""
    return np.arange(1, window_packets + 1) / window_packets


def robust_soliton_oracle(k, c=0.4, delta=0.02):
    """The robust-soliton pmf over degrees 1..k (float64), one degree at a
    time: the ideal soliton, plus ripple/(d*k) below the spike and the
    spike term at it, normalized by the numpy sum of all k terms."""
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
    return mu


def xor_payloads_oracle(indptr, neighbors, buffer):
    """Each packet's XOR payload as one np.bitwise_xor.reduce of its own
    neighbor rows (1-based) of a (k, P) uint8 buffer, packet by packet."""
    buffer = np.asarray(buffer, dtype=np.uint8)
    out = np.empty((len(indptr) - 1, buffer.shape[1]), dtype=np.uint8)
    for i, (a, b) in enumerate(zip(indptr[:-1], indptr[1:])):
        out[i] = np.bitwise_xor.reduce(buffer[np.asarray(neighbors[a:b]) - 1], axis=0)
    return out


def degree_cdf(k):
    """Cumulative robust-soliton distribution over degrees 1..k."""
    cdf = np.cumsum(robust_soliton_oracle(k))
    cdf[-1] = 1.0
    return cdf.tolist()


def peeling_oracle(total_packets, packets, pseudo_decoded=(), payload_bytes=None):
    """Peel coded packets one at a time, each pending equation a set.

    `packets` holds (packet_id, neighbors, payload or None) in arrival
    order. A repeated PacketID is ignored; padding in `pseudo_decoded` is
    known zeros from the start. Returns (released, payloads): the sorted
    native packets each packet released, and the recovered payload of every
    released packet (when payloads are given).
    """
    known = set(pseudo_decoded)
    payloads = {}
    pending = {}     # packet id -> [unknown neighbors, residual payload]
    waiting = {}     # native packet -> packet ids pending on it
    seen = set()
    released = []
    for pid, neighbors, payload in packets:
        got = []
        released.append(got)
        if pid in seen:
            continue
        seen.add(pid)
        unknown = {n for n in neighbors if n not in known}
        residual = None
        if payload is not None:
            residual = np.array(payload, dtype=np.uint8)
            for n in neighbors:
                if n in payloads:
                    residual ^= payloads[n]
        if len(unknown) > 1:
            pending[pid] = [unknown, residual]
            for n in unknown:
                waiting.setdefault(n, []).append(pid)
            continue
        queue = [(unknown.pop(), residual)] if unknown else []
        while queue:
            n, row = queue.pop()
            if n in known:
                continue
            known.add(n)
            got.append(n)
            if row is not None:
                payloads[n] = row
            for q in waiting.pop(n, []):
                entry = pending.get(q)
                if entry is None or n not in entry[0]:
                    continue
                entry[0].discard(n)
                if entry[1] is not None and row is not None:
                    entry[1] ^= row
                if len(entry[0]) == 1:
                    del pending[q]
                    queue.append((entry[0].pop(), entry[1]))
        got.sort()
    return released, payloads


def block_releases(dec, ids, rows=None):
    """Feed one block to the DecoderState `dec` and return (released, by)
    as int64 arrays: the packets whose record the block set, each with the
    first index in `ids` of its releasing PacketID, ordered by that index,
    then by packet. A rejected block raises what ingest_block raises."""
    before = dec.release_rows()
    dec.ingest_block(ids, rows)
    after = dec.release_rows()
    released = np.flatnonzero(after != before)
    first = {}
    for i, pid in enumerate(np.asarray(ids).tolist()):
        first.setdefault(pid, i)
    by = np.array([first[r + 1] for r in after[released].tolist()], dtype=np.int64)
    order = np.lexsort((released, by))
    return released[order], by[order]


def minmax_decode_times(equations, known=()):
    """The PacketID of the arrival at which peeling releases each packet.

    `equations` holds the (packet_id, neighbors) of the delivered coded
    packets; packets in `known` (the padding) have time 0. The time of a
    packet n is the greatest fixpoint of

        t[n] = min over equations e holding n of
               max(PacketID(e), max over e's other neighbors m of t[m]),

    the limit of iterating from t = inf off `known`, that is, the least
    cost of a chain of degree-one reductions releasing n. (Equations 5 and
    6 over the same two packets also satisfy it with t = 5 on both, a
    smaller fixpoint, yet no chain releases either.) It is found by Knuth's
    generalization of Dijkstra's algorithm (Knuth,
    "A generalization of Dijkstra's algorithm", IPL 6(1), 1977): packets are
    fixed in time order, and an equation left with one unfixed neighbor
    offers it max(its PacketID, the time just fixed). Packets no chain
    releases are absent.
    """
    equations = [(pid, set(ns)) for pid, ns in equations]
    fixed = dict.fromkeys(known, 0)
    holding = {}
    heap = []
    for i, (pid, ns) in enumerate(equations):
        ns.difference_update(fixed)
        for n in ns:
            holding.setdefault(n, []).append(i)
        if len(ns) == 1:
            heap.append((pid, next(iter(ns))))
    heapq.heapify(heap)
    while heap:
        t, n = heapq.heappop(heap)
        if n in fixed:
            continue
        fixed[n] = t
        for i in holding.get(n, ()):
            pid, ns = equations[i]
            ns.discard(n)
            if len(ns) == 1:  # every other neighbor was fixed at t or before
                heapq.heappush(heap, (max(pid, t), next(iter(ns))))
    for n in known:
        del fixed[n]
    return fixed


def window_tables(codec, step):
    """draw_batch's (StartP, window table, degree table) of every entry of a
    codec's schedule; `step` is the params' step_frames."""
    sched = codec.schedule
    return [(start, table, robust_soliton(size)) for start, size, table
            in zip(sched.start_packet.tolist(), sched.window_packets.tolist(),
                   codec._build_cdf(step))]


def encode_block(codec, windows, first, last):
    """Draw every coded packet first..last of a session from its
    window_tables: (packet ids, 0-based schedule entry of each, CSR indptr,
    neighbors)."""
    pids = np.arange(first, last + 1, dtype=np.int64)
    entry = np.searchsorted(codec.schedule.cum_sent, pids)
    return (pids, entry, *draw_batch(pids, entry, windows))


def iter_coded_packets(params, buffer=None, codec=None):
    """Yield (header, meta, payload) for every coded packet of a session."""
    codec = codec or SessionCodec(params)
    trace = params.trace
    sched = codec.schedule
    total = int(sched.cum_sent[-1])
    windows = window_tables(codec, params.step_frames)
    for first, last in session_blocks(total, trace.payload_bytes):
        pids, entry, indptr, neighbors = encode_block(codec, windows, first, last)
        payloads = None if buffer is None else xor_payloads(indptr, neighbors, buffer)
        bounds = indptr.tolist()
        for i, (pid, e) in enumerate(zip(pids.tolist(), entry.tolist())):
            header = DafHeader(start_packet=int(sched.start_packet[e]),
                               window_packets=int(sched.window_packets[e]),
                               slope_factor=float(sched.slope[e]), packet_id=pid,
                               payload_bytes=trace.payload_bytes)
            meta = CodedPacketMeta(packet_id=pid, degree=bounds[i + 1] - bounds[i],
                                   neighbors=tuple(neighbors[bounds[i]:bounds[i + 1]].tolist()),
                                   start_packet=header.start_packet,
                                   window_packets=header.window_packets,
                                   slope_factor=header.slope_factor)
            yield header, meta, None if payloads is None else payloads[i]


def header_rule_oracle(schedule, payload_bytes, start, wsize, slope, packet_id, p):
    """Whether a receiver accepts one header under PROTOCOL.md's four
    receiver checks, as first stated: (StartP, WSize) names a schedule
    entry (the first, were two to share it), SlopeF is that entry's slope,
    PacketID lies in 1..N and is sent through that entry, and P is the
    session's payload size."""
    named = [e for e, key in enumerate(zip(schedule.start_packet.tolist(),
                                           schedule.window_packets.tolist()))
             if key == (start, wsize)]
    if not named:
        return False
    cum_sent = schedule.cum_sent.tolist()
    return (float(schedule.slope[named[0]]) == slope and 1 <= packet_id <= cum_sent[-1]
            and bisect_left(cum_sent, packet_id) == named[0] and p == payload_bytes)


class FrameIndex:
    """Bidirectional map between 1-based frame numbers and packet numbers,
    from a running sum of the trace's packet counts."""

    def __init__(self, trace):
        self.trace = trace
        cum = [0]
        for s in trace.packets_per_frame:
            cum.append(cum[-1] + s)
        self._cum = cum  # _cum[t] = packets in frames 1..t

    def first_packet(self, frame: int) -> int:
        """Packet number of the first packet of a frame (pktno)."""
        self._check_frame(frame)
        return self._cum[frame - 1] + 1

    def frame_of(self, packet: int) -> int:
        """Frame a packet belongs to (frmno)."""
        if not 1 <= packet <= self._cum[-1]:
            raise ValueError(f"packet {packet} outside 1..{self._cum[-1]}")
        return bisect_right(self._cum, packet - 1)

    def packets_in_frames(self, start_frame: int, count: int) -> int:
        """Total packets in `count` consecutive frames starting at start_frame."""
        if count < 0:
            raise ValueError("frame count must be >= 0")
        if count == 0:
            self._check_frame(start_frame)
            return 0
        self._check_frame(start_frame)
        self._check_frame(start_frame + count - 1)
        return self._cum[start_frame + count - 1] - self._cum[start_frame - 1]

    def _check_frame(self, frame: int):
        if not 1 <= frame <= self.trace.num_frames:
            raise ValueError(f"frame {frame} outside 1..{self.trace.num_frames}")


def schedule_oracle(params, slopes=None):
    """Every window entry laid out one at a time through FrameIndex, as a
    dict of per-entry lists keyed by COLUMNS."""
    trace = params.trace
    index = FrameIndex(trace)
    T = trace.num_frames
    W = params.window_frames
    step = params.step_frames
    N = params.total_coded
    if params.mode is Mode.EXPAND:
        starts = list(range(1, T + 1, step))  # one entry per step across the stream
    else:
        starts = list(range(1, T - W + 2, step))
    wire_slopes = [] if slopes is None else to_f32(slopes).tolist()
    columns = {c: [] for c in COLUMNS}
    for m, f in enumerate(starts, start=1):
        cum = min(math.floor(m * params.coded_per_step), N)
        if m == len(starts):
            cum = N
        slope = wire_slopes[m - 1] if m <= len(wire_slopes) else 0.0
        if params.mode is Mode.EXPAND:
            start_frame = ((f - 1) // W) * W + 1
            end_frame = min(f + step - 1, T)
            start_packet = index.first_packet(start_frame)
            wsize = index.packets_in_frames(start_frame, end_frame - start_frame + 1)
        elif params.mode is Mode.S_LT:
            start_frame = f
            start_packet = index.first_packet(f)
            wsize = params.fixed_window_packets
            end_frame = index.frame_of(start_packet + wsize - 1)
        else:
            start_frame = f
            start_packet = index.first_packet(f)
            wsize = index.packets_in_frames(f, W)
            end_frame = f + W - 1
        for c, v in zip(COLUMNS, (start_frame, end_frame, start_packet, wsize, slope, cum)):
            columns[c].append(v)
    return columns


def last_covering_oracle(schedule, num_frames):
    """For each frame (1-based), the 1-based index of the last entry whose
    window touches it (0 if none does), by scattering every entry's frames."""
    first = schedule.start_frame
    span = schedule.end_frame - first + 1
    index = np.arange(1, len(first) + 1)
    frames = np.arange(int(span.sum())) + np.repeat(first - (np.cumsum(span) - span), span)
    last = np.zeros(num_frames + 1, dtype=np.int64)
    np.maximum.at(last, frames, np.repeat(index, span))
    return last


def slope_coeffs_oracle(trace, window):
    """(d1, d2) of sampling.slope_coeffs, one frame and one window at a time."""
    s = np.asarray(trace.packets_per_frame, dtype=np.float64)
    T = trace.num_frames
    rows = T - window + 1
    w = np.array([s[t0:t0 + window].sum() for t0 in range(rows)])
    cum = np.concatenate([[0.0], np.cumsum(s)])
    d1 = np.zeros((T, rows))
    d2 = np.zeros(T)
    for t in range(T):
        lo = max(0, t - window + 1)
        hi = min(t, rows - 1)
        for t0 in range(lo, hi + 1):
            pkt = cum[t + 1] - cum[t0]  # packets in frames t0..t of window t0
            d1[t, t0] = (2.0 * pkt - s[t]) / w[t0] ** 2 - 1.0 / w[t0]
            d2[t] += 1.0 / w[t0]
    return d1, d2


def centered_gram(trace, window, step=1):
    """H = Dc.T @ Dc of the slope solve by its definition: Dc is the stable
    rows of the dense d1, each column centered over the stable frames."""
    ds, w = _optimizer_domain(trace, window, step)
    D = slope_coeffs(ds, w).d1[w - 1:ds.num_frames - w + 1]
    Dc = D - D.mean(axis=0, keepdims=True)
    return Dc.T @ Dc


def slope_solve_oracle(trace, window, step=1, tol=1e-10, max_iter=100_000):
    """sampling.optimize_slopes with H and b built entry by entry in Python
    floats from the columns of slope_coeffs_oracle's d1, by the formula and
    the summation order sampling._slope_system documents: H = G - u u.T / m
    and b = d1.T ec - (u / m) sum(ec), every sum over the stable frames in
    ascending order from 0.0. It reads column j of H and keeps its scalars
    as numpy float64, so it is also the reference for the package's sweep,
    which reads row j of H and keeps its scalars as Python floats."""
    ds, w = _optimizer_domain(trace, window, step)
    d1, d2 = slope_coeffs_oracle(ds, w)
    T = ds.num_frames
    lo, hi = w - 1, T - w + 1
    m = float(hi - lo)
    e = d2[lo:hi]
    ec = e - e.mean()
    rows = T - w + 1
    first = [max(j, lo) for j in range(rows)]  # the first stable frame of window j
    cols = [d1[first[j]:min(j + w, hi), j].tolist() for j in range(rows)]

    def total(terms):
        acc = 0.0
        for x in terms:
            acc += x
        return acc

    u = [total(col) for col in cols]
    ec_at = ec.tolist()
    ec_sum = total(ec_at)
    H = np.multiply.outer(u, u) / -m
    b = np.empty(rows)
    for j in range(rows):
        dot = total(x * ec_at[first[j] + n - lo] for n, x in enumerate(cols[j]))
        b[j] = dot - u[j] / m * ec_sum
        for k in range(j, min(j + w, rows)):  # G[j, k] over frames first[k]..j + w - 1
            g = total(cols[j][f - first[j]] * cols[k][f - first[k]]
                      for f in range(first[k], min(j + w, hi)))
            H[j, k] += g
            if k != j:
                H[k, j] += g
    c0 = float(ec @ ec)
    a = np.zeros(rows)
    r = np.zeros(rows)  # H @ a, maintained incrementally
    diag = np.diag(H).copy()

    def objective():
        return float(a @ r + 2.0 * (b @ a) + c0)

    j_prev = objective()
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        for j in range(rows):
            if diag[j] < 1e-30:
                continue
            target = a[j] - (r[j] + b[j]) / diag[j]
            new = min(1.0, max(-1.0, target))
            delta = new - a[j]
            if delta != 0.0:
                a[j] = new
                r += H[:, j] * delta
        j_new = objective()
        if abs(j_prev - j_new) < tol:
            j_prev = j_new
            break
        j_prev = j_new
    else:
        raise SolverError(
            f"slope optimizer did not converge in {max_iter} sweeps "
            f"(last objective {j_prev:.3e})")
    return SamplingPlan(slope_matrix(ds, w, a), ds, w, sweeps, a)


def slope_matrix_oracle(trace, window, slopes):
    """sampling.slope_matrix, one window at a time: each frame's packet
    probability from slope_pdf times the frame's packet count."""
    s = np.asarray(trace.packets_per_frame)
    rows = len(s) - window + 1
    A = np.empty((rows, window))
    for t0 in range(rows):
        frames = s[t0:t0 + window]
        first = np.cumsum(frames) - frames  # each frame's first packet in the window
        A[t0] = slope_pdf(frames, slopes[t0])[first] * frames
    return A


def struct_datagram(start_packet, window_packets, slope_factor, packet_id,
                    payload_bytes, payload=b""):
    """A datagram packed field by field as PROTOCOL.md lays it out."""
    return (struct.pack(">IHf", start_packet, window_packets, slope_factor)
            + packet_id.to_bytes(3, "big") + struct.pack(">H", payload_bytes) + bytes(payload))


def header_record(schedule, payload_bytes, packet_id):
    """The 15 header bytes an honest sender writes for `packet_id`, packed
    from the fields of the window that sends it; None outside 1..N."""
    cum_sent = schedule.cum_sent.tolist()
    if not 1 <= packet_id <= cum_sent[-1]:
        return None
    e = bisect_left(cum_sent, packet_id)
    return struct_datagram(int(schedule.start_packet[e]), int(schedule.window_packets[e]),
                           float(schedule.slope[e]), packet_id, payload_bytes)


def decode_datagrams(data, payload_bytes: int):
    """Decode the headers of back-to-back datagrams that each carry
    `payload_bytes` bytes, as the arrays StartP, WSize, SlopeF (float64
    holding float32 values) and PacketID.

    The fields are checked as arrays by the same check_fields as DafHeader;
    a datagram whose P differs from `payload_bytes` is a framing error.
    """
    head = datagram_records(data, payload_bytes)["header"]
    packet_id = packet_ids(head["packet_id"])
    start = head["start_packet"].astype(np.int64)
    wsize = head["window_packets"].astype(np.int64)
    size = head["payload_bytes"].astype(np.int64)
    slope = check_fields(start, wsize, head["slope_factor"], packet_id, size)
    bad = size != payload_bytes
    if np.any(bad):
        raise ProtocolError(f"framing error: header says P={size[bad][0]}, "
                            f"datagram carries {payload_bytes}")
    return start, wsize, slope, packet_id
