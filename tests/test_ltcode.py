import math
import random
import tracemalloc
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafstream import ltcode
from dafstream.errors import ProtocolError
from dafstream.ltcode import (DecoderState, DegreeDistribution, InverseCdf,
                              PeelingTables, draw, draw_batch, robust_soliton,
                              uniform_cdf, xor_payload, xor_payloads)
from dafstream.protocol import HEADER_LEN, MAX_PACKET_ID, datagram_records

from oracles import degree_cdf, draw_oracle, peeling_oracle, slope_pdf


def degree_one_dist(window):
    return DegreeDistribution(window_packets=window, pmf=(1.0,) + (0.0,) * (window - 1))


class TestRobustSoliton:
    def test_single_packet_window(self):
        dist = robust_soliton(1)
        assert dist.pmf == (1.0,)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            robust_soliton(0)

    def test_normalization_and_spike(self):
        k, c, delta = 10, 0.4, 0.02  # PROTOCOL.md's constants
        assert (ltcode.SOLITON_C, ltcode.SOLITON_DELTA) == (c, delta)
        dist = robust_soliton(k)
        pmf = np.array(dist.pmf)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf >= 0)
        ripple = c * math.log(k / delta) * math.sqrt(k)
        spike = min(k, math.ceil(k / ripple))
        # independent recomputation of the normalizer
        rho = [1.0 / k] + [1.0 / (d * (d - 1)) for d in range(2, k + 1)]
        tau = [0.0] * k
        for d in range(1, spike):
            tau[d - 1] = ripple / (d * k)
        tau[spike - 1] = ripple * math.log(ripple / delta) / k
        beta = sum(rho) + sum(tau)
        expected = [(r + t) / beta for r, t in zip(rho, tau)]
        assert np.allclose(pmf, expected, atol=1e-12)
        assert pmf[spike - 1] > pmf[spike]  # the spike sticks out

    def test_mean_degree_grows_like_log(self):
        means = [robust_soliton(k).mean_degree() for k in (10, 100, 1000)]
        assert means[0] < means[1] < means[2]
        for k, m in zip((10, 100, 1000), means):
            bound = math.log(k / 0.02)
            assert 0.2 * bound < m < 1.2 * bound

    def test_empirical_degree_mean_matches_analytic(self):
        dist = robust_soliton(64)
        cdf = uniform_cdf(64)
        n = 20_000
        indptr, _ = draw_batch(np.arange(1, n + 1), np.zeros(n, dtype=np.intp),
                               [(1, InverseCdf(cdf), dist.table)])
        sample_mean = int(indptr[-1]) / n
        # crude 4-sigma band using the analytic second moment
        second = sum((d + 1) ** 2 * p for d, p in enumerate(dist.pmf))
        sigma = math.sqrt((second - dist.mean_degree() ** 2) / n)
        assert abs(sample_mean - dist.mean_degree()) < 4 * sigma


class TestDraw:
    def test_identical_inputs_identical_outputs(self):
        dist = robust_soliton(24)
        cdf = uniform_cdf(24)
        for pid in (1, 7, 123456):
            a = draw(pid, 10, cdf, dist)
            b = draw(pid, 10, cdf, dist)
            assert a == b

    def test_single_packet_window_clamps(self):
        dist = robust_soliton(17)  # table larger than the window
        meta = draw(5, 42, uniform_cdf(1), dist)
        assert meta.degree == 1
        assert meta.neighbors == (42,)

    def test_meta_invariants(self):
        dist = robust_soliton(30)
        cdf = uniform_cdf(30)
        for pid in range(1, 300):
            meta = draw(pid, 100, cdf, dist)
            assert meta.degree == len(meta.neighbors)
            assert len(set(meta.neighbors)) == meta.degree
            assert all(100 <= n <= 129 for n in meta.neighbors)
            assert meta.neighbors == tuple(sorted(meta.neighbors))

    def test_uniform_neighbor_frequencies(self):
        w, n = 16, 100_000
        dist = degree_one_dist(w)
        cdf = uniform_cdf(w)
        _, neighbors = draw_batch(np.arange(1, n + 1), np.zeros(n, dtype=np.intp),
                                  [(1, InverseCdf(cdf), dist.table)])
        counts = np.bincount(neighbors - 1, minlength=w)
        p = 1.0 / w
        bound = 3 * math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= bound)

    def test_nonuniform_pdf_respected(self):
        # packet 1 gets 90% of the mass; it must dominate the draws
        cdf = [0.9, 1.0]
        dist = degree_one_dist(2)
        hits = sum(draw(pid, 1, cdf, dist).neighbors[0] == 1
                   for pid in range(1, 2001))
        assert hits > 1650


class TestInverseCdf:
    # the float sum of robust_soliton(3)'s pmf is 1 - 2**-53, so its last
    # scaled key would be 2**53 - 1, which the largest deviate passes
    K = 3

    def test_last_entry_counts_as_one(self):
        cdf = np.cumsum(robust_soliton(self.K).pmf)
        assert cdf[-1] < 1.0
        table = InverseCdf(cdf)
        assert table.search(np.uint64(2**53 - 1)) == self.K - 1
        assert table.search(np.uint64(0)) == 0
        assert int(table.keys[-1]) == 2**53

    def test_padded_rows_end_at_their_size(self):
        short = np.cumsum(robust_soliton(self.K).pmf)
        cdf = np.array([[*short, 1.5, 2.0], np.cumsum(robust_soliton(5).pmf)])
        tables = InverseCdf.rows(cdf, np.array([self.K, 5]))
        assert [len(t) for t in tables] == [self.K, 5]
        for table, size in zip(tables, (self.K, 5)):
            assert table.search(np.uint64(2**53 - 1)) == size - 1
            assert int(table.keys[-1]) == 2**53


def slope_cdf(counts, slope):
    """A window CDF as its float sum, whose last entry may fall short of 1."""
    return np.cumsum(slope_pdf(counts, slope))


def assert_matches_oracle(packet_ids, window_of, windows):
    """`windows` holds (start packet, window CDF array, DegreeDistribution)."""
    tables = [(start, InverseCdf(cdf), dist.table) for start, cdf, dist in windows]
    indptr, neighbors = draw_batch(packet_ids, window_of, tables)
    assert len(indptr) == len(packet_ids) + 1
    for i, (pid, w) in enumerate(zip(packet_ids, window_of)):
        start, cdf, dist = windows[w]
        want = draw_oracle(int(pid), start, cdf.tolist(), degree_cdf(dist))
        got = neighbors[indptr[i]:indptr[i + 1]]
        assert (int(indptr[i + 1] - indptr[i]), tuple(got.tolist())) == want, pid
    return indptr, neighbors


@st.composite
def batches(data):
    """Windows of 1..400 packets with extreme and random float32 slopes,
    degree tables of the window's size or larger (degree clamped), and
    sorted PacketIDs with gaps."""
    windows = []
    for _ in range(data(st.integers(1, 5))):
        wsize = data(st.integers(1, 400))
        cuts = data(st.sets(st.integers(1, wsize - 1), max_size=min(wsize - 1, 6))) if wsize > 1 else set()
        counts = np.diff([0, *sorted(cuts), wsize])
        slope = data(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                               st.floats(-1.0, 1.0, width=32)))
        degree = robust_soliton(data(st.sampled_from([wsize, wsize + 7, 400])))
        windows.append((data(st.integers(1, 1 << 31)), slope_cdf(counts, slope), degree))
    n = data(st.integers(1, 1100))
    rng = np.random.default_rng(data(st.integers(0, 2**32 - 1)))
    pids = np.sort(rng.choice(MAX_PACKET_ID + 1, size=n, replace=False))
    return pids, rng.integers(0, len(windows), size=n), windows


class TestDrawBatch:
    @given(batches(), st.sampled_from([1, 400, 5_000, ltcode._PASS_CELLS]))
    @settings(max_examples=25, deadline=None)
    def test_matches_rejection_oracle(self, batch, pass_cells):
        # small cell caps cut the batch into many passes, down to one packet each
        with mock.patch.object(ltcode, "_PASS_CELLS", pass_cells):
            assert_matches_oracle(*batch)

    def test_clamped_degree_draws_whole_window(self):
        # degrees from a 400-packet table, windows of 3 packets
        indptr, neighbors = assert_matches_oracle(
            np.arange(1, 3001), np.zeros(3000, dtype=np.intp),
            [(10, uniform_cdf(3), robust_soliton(400))])
        full = np.flatnonzero(np.diff(indptr) == 3)
        assert len(full) > 0
        for i in full[:20]:
            assert neighbors[indptr[i]:indptr[i + 1]].tolist() == [10, 11, 12]

    def test_gapped_ids_span_passes_and_windows(self):
        windows = [(1 + 50 * w, slope_cdf([20, 30, 50], s), robust_soliton(100))
                   for w, s in enumerate((-1.0, 0.0, 0.37, 1.0))]
        pids = np.arange(1, 7000, 3)  # 2,333 packets: two passes by count
        assert_matches_oracle(pids, pids % 4, windows)

    def test_more_windows_than_one_joined_search_holds(self):
        # 2,100 distinct windows in one batch; a pass must touch fewer than 2,047
        sizes = [1 + w % 9 for w in range(2100)]
        windows = [(1 + 3 * w, uniform_cdf(n), robust_soliton(n)) for w, n in enumerate(sizes)]
        pids = np.arange(1, 4201)
        assert_matches_oracle(pids, (pids * 11) % 2100, windows)

    def test_pass_memory_is_bounded_by_cells(self):
        # 2,000 packets of one 60,000-packet window: the chosen-neighbor bitmaps
        # of one 2,000-packet pass alone would be 120 MB
        cdf, degrees = uniform_cdf(60_000), robust_soliton(4)
        windows = [(1, InverseCdf(cdf), degrees.table)]
        tracemalloc.start()
        try:
            indptr, neighbors = draw_batch(np.arange(1, 2001), np.zeros(2000, dtype=np.intp),
                                           windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert len(indptr) == 2001 and np.all(np.diff(indptr) >= 1)
        for pid in (1, 1000, 2000):
            got = neighbors[indptr[pid - 1]:indptr[pid]].tolist()
            assert (len(got), tuple(got)) == draw_oracle(pid, 1, cdf.tolist(),
                                                         degree_cdf(degrees))

    def test_same_packet_same_neighbors_in_any_batch(self):
        windows = [(1, InverseCdf(uniform_cdf(40)), robust_soliton(40).table)]
        whole = draw_batch(np.arange(1, 1001), np.zeros(1000, dtype=np.intp), windows)
        alone = draw_batch([500], [0], windows)
        assert whole[1][whole[0][499]:whole[0][500]].tolist() == alone[1].tolist()

    def test_empty_batch(self):
        indptr, neighbors = draw_batch([], [], [])
        assert indptr.tolist() == [0] and len(neighbors) == 0


class TestXor:
    def make_buffer(self, k=5, P=32, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(k, P), dtype=np.uint8)

    def test_degree_one_identity(self):
        buf = self.make_buffer()
        assert np.array_equal(xor_payload([3], buf), buf[2])

    def test_self_inverse(self):
        buf = self.make_buffer()
        both = xor_payload([1, 2], buf)
        assert np.array_equal(np.bitwise_xor(both, buf[1]), buf[0])
        assert np.array_equal(np.bitwise_xor(both, buf[0]), buf[1])

    def test_out_of_range(self):
        buf = self.make_buffer()
        with pytest.raises(ValueError):
            xor_payload([6], buf)

    def test_batch_equals_row_by_row(self):
        buf = self.make_buffer(k=40, P=8, seed=2)
        rng = np.random.default_rng(1)
        degrees = rng.integers(1, 40, size=300)
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        neighbors = rng.integers(1, 41, size=int(indptr[-1]))
        got = xor_payloads(indptr, neighbors, buf)
        for i in range(300):
            row = np.zeros(8, dtype=np.uint8)
            for n in neighbors[indptr[i]:indptr[i + 1]]:
                row ^= buf[n - 1]
            assert np.array_equal(got[i], row)

    def test_out_may_be_a_strided_view(self):
        buf = self.make_buffer(k=40, P=16, seed=4)
        indptr = np.arange(0, 3 * 301, 3)
        neighbors = np.random.default_rng(2).integers(1, 41, size=3 * 300)
        records = np.zeros((300, 3 + 16), dtype=np.uint8)  # rows 19 bytes apart
        got = xor_payloads(indptr, neighbors, buf, out=records[:, 3:])
        assert got.base is records or got.base is records.base
        assert np.array_equal(records[:, 3:], xor_payloads(indptr, neighbors, buf))
        assert not records[:, :3].any()
        with pytest.raises(ValueError, match="out is"):
            xor_payloads(indptr, neighbors, buf, out=records[:, 2:])

    def test_session_round_trip_reencodes_identically(self):
        buf = self.make_buffer(k=5, P=16, seed=3)
        dist = robust_soliton(5)
        cdf = uniform_cdf(5)
        metas = [draw(pid, 1, cdf, dist) for pid in range(1, 16)]
        payloads = [xor_payload(m.neighbors, buf) for m in metas]
        dec = decoder(5, [m.neighbors for m in metas], payload_bytes=16)
        for m, pl in zip(metas, payloads):
            dec.ingest(m.packet_id, pl)
        assert dec.decoded_packets() == [1, 2, 3, 4, 5]
        recovered = np.vstack([dec.decoded_payload(p) for p in range(1, 6)])
        assert np.array_equal(recovered, buf)
        for m, pl in zip(metas, payloads):
            assert np.array_equal(xor_payload(m.neighbors, recovered), pl)


def decoder(k, compositions, pseudo=(), payload_bytes=None):
    """A decoder over k native packets whose coded packet i (PacketID i)
    has the neighbors compositions[i - 1]."""
    indptr = np.concatenate(([0], np.cumsum([len(c) for c in compositions]))).astype(np.int64)
    neighbors = np.array([n for c in compositions for n in sorted(c)], dtype=np.int64)
    return DecoderState(PeelingTables(k, indptr, neighbors, pseudo), payload_bytes)


class TestPeelingTables:
    def test_incidence_counts_and_sums_leave_padding_out(self):
        # equations (rows) 0..3 over natives 1..5, with 2 and 4 padding
        tables = PeelingTables(5, [0, 2, 2, 5, 6], [1, 2, 1, 3, 4, 5], pseudo_decoded=(2, 4))
        got = {n: tables.incidence[tables.start[n]:tables.start[n + 1]].tolist()
               for n in range(1, 6)}
        assert got == {1: [0, 2], 2: [], 3: [2], 4: [], 5: [3]}
        assert tables.count.tolist() == [1, 0, 2, 1]
        assert tables.total.tolist() == [1, 0, 4, 5]
        assert tables.known == bytes([0, 0, 1, 0, 1, 0])
        assert tables.incidence.dtype == np.int32

    def test_each_natives_equations_ascend_on_wide_sessions(self):
        # k past 16 bits sorts on uint32, below on uint16; both stay stable
        for k in (300, 70_000):
            rng = np.random.default_rng(k)
            sets = [np.unique(rng.integers(1, k + 1, size=rng.integers(1, 9)))
                    for _ in range(2_000)]
            indptr = np.concatenate(([0], np.cumsum([len(s) for s in sets])))
            tables = PeelingTables(k, indptr, np.concatenate(sets))
            want = {}
            for i, s in enumerate(sets):
                for n in s.tolist():
                    want.setdefault(n, []).append(i)
            inc, start = tables.incidence.tolist(), tables.start.tolist()
            assert {n: inc[start[n]:start[n + 1]] for n in range(1, k + 1)
                    if start[n] < start[n + 1]} == want

    def test_padding_outside_the_session_rejected(self):
        with pytest.raises(ValueError, match="pseudo-decoded packet 5"):
            PeelingTables(4, [0, 1], [1], pseudo_decoded=(5,))


class TestDecoderState:
    def test_degree_one_release(self):
        dec = decoder(4, [[2]])
        assert dec.ingest(1) == [2]
        assert dec.is_decoded(2)

    def test_pair_resolves_in_either_order(self):
        for order in ([1, 2], [2, 1]):
            dec = decoder(2, [[1, 2], [1]])
            released = []
            for pid in order:
                released += dec.ingest(pid)
            assert sorted(released) == [1, 2]

    def test_duplicate_packet_id_ignored(self):
        # the table fixes each PacketID's composition, so a repeat is the same
        # equation again, in one block or across blocks
        dec = decoder(3, [[1], [2, 3]])
        assert dec.ingest(1) == [1]
        assert dec.ingest(1) == []
        released, by = dec.ingest_block([2, 2, 1])
        assert released.tolist() == [] and not dec.is_decoded(2)

    def test_out_of_range_packet_id_rejected_before_recording(self):
        dec = decoder(4, [[2], [3]], payload_bytes=2)
        for bad in ([1, 3], [0, 1], [-1], [[1]]):
            with pytest.raises(ProtocolError, match="PacketID"):
                dec.ingest_block(bad, np.zeros((2, 2), np.uint8))
        for rows in (None, np.zeros((1, 2), np.uint8), np.zeros((2, 3), np.uint8),
                     np.zeros(4, np.uint8)):
            with pytest.raises(ProtocolError, match="payload row"):
                dec.ingest_block([1, 2], rows)
        assert not dec.is_decoded(2) and not dec.is_decoded(3)
        # neither PacketID was recorded, so their valid copies still count
        released, by = dec.ingest_block([1, 2], np.array([[5, 6], [7, 8]], np.uint8))
        assert released.tolist() == [2, 3] and by.tolist() == [0, 1]
        assert dec.decoded_payload(3).tolist() == [7, 8]

    def test_redundant_packet_absorbed(self):
        dec = decoder(3, [[1], [2], [1, 2]])
        dec.ingest(1)
        dec.ingest(2)
        assert dec.ingest(3) == []

    def test_order_insensitive_for_fixed_set(self):
        dist = robust_soliton(12)
        cdf = uniform_cdf(12)
        compositions = [draw(pid, 1, cdf, dist).neighbors for pid in range(1, 19)]
        pids = list(range(1, 19))
        reference = None
        rng = random.Random(5)
        for _ in range(8):
            rng.shuffle(pids)
            dec = decoder(12, compositions)
            for pid in pids:
                dec.ingest(pid)
            decoded = tuple(dec.decoded_packets())
            if reference is None:
                reference = decoded
            assert decoded == reference

    def test_pseudo_decoded_excluded_from_results(self):
        dec = decoder(6, [[1, 2, 5]], pseudo=(1, 2), payload_bytes=4)
        assert dec.is_decoded(1)
        assert dec.decoded_packets() == []
        # padding packets count as known zeros when stripping
        got = dec.ingest(1, np.array([9, 9, 9, 9], dtype=np.uint8))
        assert got == [5]
        assert np.array_equal(dec.decoded_payload(5),
                              np.array([9, 9, 9, 9], dtype=np.uint8))
        assert np.array_equal(dec.decoded_payload(1), np.zeros(4, np.uint8))

    def test_kept_row_survives_the_caller_zeroing_its_rows(self):
        x = np.array([[0, 0, 0], [1, 2, 3], [4, 5, 6]], np.uint8)  # row n is packet n
        dec = decoder(2, [[1, 2], [2]], payload_bytes=3)
        rows = (x[1] ^ x[2])[None]
        assert dec.ingest_block([1], rows)[0].tolist() == []  # waits for packet 2
        rows[:] = 0
        assert dec.ingest_block([2], x[2][None])[0].tolist() == [1, 2]
        assert dec.decoded_payload(1).tolist() == [1, 2, 3]

    def test_decoded_payload_is_the_callers_own_copy(self):
        dec = decoder(2, [[1]], payload_bytes=5)
        dec.ingest(1, np.arange(1, 6, dtype=np.uint8))
        got = dec.decoded_payload(1)
        assert got.dtype == np.uint8 and got.shape == (5,) and got.flags.writeable
        got[:] = 0xFF
        assert dec.decoded_payload(1).tolist() == [1, 2, 3, 4, 5]

    def test_odd_payload_size_from_strided_datagram_records(self):
        # P = 1023 is not a multiple of 8; rows view the datagrams' payload field
        P, k = 1023, 6
        buf = np.random.default_rng(7).integers(0, 256, size=(k + 1, P), dtype=np.uint8)
        buf[4] = 0  # padding
        compositions = [[1, 2, 4], [2], [2, 3], [3, 5, 6], [5], [1, 6], [4, 6]]
        rows = datagram_records(bytearray(len(compositions) * (HEADER_LEN + P)), P)["payload"]
        assert not rows.flags.c_contiguous
        for i, c in enumerate(compositions):
            rows[i] = np.bitwise_xor.reduce(buf[c], axis=0)
        dec = decoder(k, compositions, pseudo=(4,), payload_bytes=P)
        dec.ingest_block(np.arange(1, len(compositions) + 1), rows)
        assert dec.decoded_packets() == [1, 2, 3, 5, 6]
        for n in range(1, k + 1):
            assert np.array_equal(dec.decoded_payload(n), buf[n]), n

    def test_padding_decodes_as_zeros(self):
        dec = decoder(4, [[1, 2], [2, 3, 4]], pseudo=(1, 3), payload_bytes=5)
        for n in (1, 3):
            assert dec.decoded_payload(n).tolist() == [0] * 5
        x2 = int.to_bytes(0x0102030405, 5, byteorder="little")
        assert dec.ingest(1, np.frombuffer(x2, np.uint8)) == [2]
        assert dec.decoded_payload(2).tobytes() == x2
        assert dec.decoded_payload(3).tolist() == [0] * 5

    def test_cascade_through_pending(self):
        dec = decoder(3, [[1, 2], [2, 3], [3]])
        assert dec.ingest(1) == []
        assert dec.ingest(2) == []
        assert sorted(dec.ingest(3)) == [1, 2, 3]

    def test_monte_carlo_no_loss_baseline(self):
        # frozen floor from a 1000-trial oracle run (full-decode rate 0.474,
        # mean decoded fraction 0.845 at k=16, N=24)
        dist = robust_soliton(16)
        cdf = uniform_cdf(16)
        full = 0
        fraction = 0.0
        trials = 300
        for trial in range(trials):
            base = trial * 1000 + 1
            dec = decoder(16, [draw(base + i, 1, cdf, dist).neighbors for i in range(24)])
            for pid in range(1, 25):
                dec.ingest(pid)
            done = len(dec.decoded_packets())
            full += done == 16
            fraction += done / 16
        assert full / trials >= 0.40
        assert fraction / trials >= 0.78


@st.composite
def decoder_runs(data):
    """A composition table over k natives and PacketIDs 1..N (N <= 60), with
    empty and whole-window neighbor sets and padding, then blocks of
    PacketIDs with repeats and out-of-order arrivals, and payload rows
    consistent with one hidden buffer (or none at all)."""
    k = data(st.integers(1, 40))
    pseudo = data(st.sets(st.integers(1, k), max_size=k // 3))
    payload_bytes = data(st.sampled_from([None, 1, 3, 8]))
    rng = np.random.default_rng(data(st.integers(0, 2**32 - 1)))
    buffer = rng.integers(0, 256, size=(k + 1, payload_bytes or 1), dtype=np.uint8)
    buffer[sorted(pseudo)] = 0
    table = []
    for _ in range(data(st.integers(1, 60))):
        kind = data(st.sampled_from(["few", "random", "whole"]))
        if kind == "few":
            table.append(sorted(data(st.sets(st.integers(1, k), max_size=min(k, 5)))))
        elif kind == "random":
            table.append(sorted(rng.choice(np.arange(1, k + 1), size=rng.integers(1, k + 1),
                                           replace=False).tolist()))
        else:
            table.append(list(range(1, k + 1)))
    blocks = []
    for _ in range(data(st.integers(1, 6))):
        ids = data(st.lists(st.integers(1, len(table)), max_size=12))
        rows = None
        if payload_bytes is not None:
            rows = np.zeros((len(ids), payload_bytes), dtype=np.uint8)
            for i, pid in enumerate(ids):
                rows[i] = np.bitwise_xor.reduce(buffer[table[pid - 1]], axis=0)  # 0 if empty
        blocks.append((np.array(ids, dtype=np.int64), rows))
    return k, pseudo, payload_bytes, buffer, table, blocks


def corrupt(draw, total_coded, payload_bytes, block):
    """The block with one hostile change, or None when it can carry none."""
    ids, rows = block
    kinds = (["low", "high"] if len(ids) else []) + (
        ["no-rows", "row-count", "row-width"] if payload_bytes is not None else [])
    if not kinds:
        return None
    kind = draw(st.sampled_from(kinds))
    ids = ids.copy()
    if kind == "low":
        ids[draw(st.integers(0, len(ids) - 1))] = draw(st.integers(-5, 0))
    elif kind == "high":
        ids[draw(st.integers(0, len(ids) - 1))] = draw(st.integers(total_coded + 1,
                                                                   total_coded + 1000))
    elif kind == "no-rows":
        rows = None
    elif kind == "row-count":
        n = len(ids) + (draw(st.sampled_from([-1, 1])) if len(ids) else 1)
        rows = np.zeros((n, payload_bytes), dtype=np.uint8)
    else:
        rows = np.zeros((len(ids), payload_bytes + 1), dtype=np.uint8)
    return ids, rows


class TestCounterDecoderAgainstOracle:
    @given(decoder_runs(), st.data())
    @settings(max_examples=300, deadline=timedelta(milliseconds=500))
    def test_blocks_and_single_packets_match_oracle(self, run, data):
        k, pseudo, payload_bytes, buffer, table, blocks = run
        draw = data.draw
        by_block = decoder(k, table, pseudo, payload_bytes)
        by_packet = decoder(k, table, pseudo, payload_bytes)
        packets, per_packet, order = [], [], []
        for block in blocks:
            hostile = (corrupt(draw, len(table), payload_bytes, block)
                       if draw(st.booleans()) else None)
            if hostile is not None:
                # rejected whole: no PacketID of it is recorded, nothing decodes
                with pytest.raises(ProtocolError):
                    by_block.ingest_block(*hostile)
            ids, rows = block
            released, by = by_block.ingest_block(ids, rows)
            got = [[] for _ in ids]
            for n, i in zip(released.tolist(), by.tolist()):
                got[i].append(n)
            per_packet += got
            order += released.tolist()
            for i, pid in enumerate(ids.tolist()):
                payload = None if rows is None else rows[i]
                assert by_packet.ingest(pid, payload) == got[i]
                packets.append((pid, table[pid - 1], payload))
        want, payloads = peeling_oracle(k, packets, pseudo, payload_bytes)
        assert per_packet == want
        assert order == [n for got in want for n in got]
        released = sorted(n for got in want for n in got)
        assert by_packet.decoded_packets() == by_block.decoded_packets() == released
        if payload_bytes is not None:
            assert sorted(payloads) == released
        for n in range(1, k + 1):
            assert by_block.is_decoded(n) == (n in pseudo or any(n in got for got in want))
            if by_block.is_decoded(n) and payload_bytes is not None:
                assert np.array_equal(by_block.decoded_payload(n), buffer[n])
                assert np.array_equal(by_packet.decoded_payload(n), buffer[n])

    def test_rejected_block_records_no_packet_id(self):
        dec = decoder(4, [[2], [3]])
        with pytest.raises(ProtocolError):
            dec.ingest_block([1, 2, 3])  # PacketID 3 is outside 1..2
        released, by = dec.ingest_block([1, 2])
        assert released.tolist() == [2, 3] and by.tolist() == [0, 1]
