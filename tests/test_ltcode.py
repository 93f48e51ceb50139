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
from dafstream.harness import SessionCodec
from dafstream.ltcode import (DecoderState, PeelingTables, cdf_keys, cdf_tables, degree_tables,
                              draw, draw_batch, robust_soliton, xor_payload, xor_payloads)
from dafstream.prng import PACKET_SEED_SALT, next_u53s, packet_states
from dafstream.protocol import HEADER_LEN, MAX_PACKET_ID, datagram_records
from dafstream.windowing import build_schedule

from oracles import (block_releases, degree_cdf, draw_oracle, packet_rng, peeling_oracle,
                     robust_soliton_oracle, slope_pdf, uniform_cdf, window_tables,
                     xor_payloads_oracle)


def degree_one_table(window):
    return cdf_keys(np.ones(window))  # the CDF of pmf (1, 0, ..., 0)


def mean_degree(pmf):
    return sum((d + 1) * p for d, p in enumerate(pmf))


class TestRobustSoliton:
    def test_single_packet_window(self):
        assert robust_soliton(1).tolist() == [1 << 53]  # degree 1 always
        assert robust_soliton_oracle(1).tolist() == [1.0]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            robust_soliton(0)

    def test_normalization_and_spike(self):
        k, c, delta = 10, 0.4, 0.02  # PROTOCOL.md's constants
        assert (ltcode.SOLITON_C, ltcode.SOLITON_DELTA) == (c, delta)
        pmf = robust_soliton_oracle(k)
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
        means = [mean_degree(robust_soliton_oracle(k)) for k in (10, 100, 1000)]
        assert means[0] < means[1] < means[2]
        for k, m in zip((10, 100, 1000), means):
            bound = math.log(k / 0.02)
            assert 0.2 * bound < m < 1.2 * bound

    def test_empirical_degree_mean_matches_analytic(self):
        pmf, cdf = robust_soliton_oracle(64), uniform_cdf(64)
        n = 20_000
        indptr, _ = draw_batch(np.arange(1, n + 1), np.zeros(n, dtype=np.intp),
                               [(1, cdf_keys(cdf), robust_soliton(64))])
        sample_mean = int(indptr[-1]) / n
        # crude 4-sigma band using the analytic second moment
        second = sum((d + 1) ** 2 * p for d, p in enumerate(pmf))
        sigma = math.sqrt((second - mean_degree(pmf) ** 2) / n)
        assert abs(sample_mean - mean_degree(pmf)) < 4 * sigma


def soliton_keys(k):
    return cdf_keys(np.cumsum(robust_soliton_oracle(k)))


class TestDegreeTables:
    """degree_tables and robust_soliton give the per-degree formula's bits."""

    def test_every_size_to_2000_and_the_largest(self):
        sizes = [*range(1, 2001), 65_535]
        tables = degree_tables(sizes)
        for k, table in zip(sizes, tables):
            one = robust_soliton.__wrapped__(k)  # uncached: 2,001 tables are large
            assert soliton_keys(k).tobytes() == table.tobytes() == one.tobytes(), k

    def test_window_sizes_of_every_bench_cell(self, workloads):
        for name in workloads.SPECS:
            inp = workloads.build(name, workloads.DEFAULT_SEED)
            for cell in inp.cells:
                sizes = np.unique(build_schedule(cell.params).window_packets)
                for k, table in zip(sizes.tolist(), degree_tables(sizes)):
                    assert table.tobytes() == soliton_keys(k).tobytes(), (name, cell.mode, k)

    def test_any_order_with_repeats(self):
        sizes = [400, 3, 17, 3, 1, 400, 2]
        for k, table in zip(sizes, degree_tables(sizes)):
            assert table.tobytes() == robust_soliton(k).tobytes()
        assert degree_tables([]) == []

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            degree_tables([3, 0])

    def test_memory_is_bounded_by_blocks(self):
        # 1,000 small sizes next to 65,535: one padded array of them all
        # would be 1,001 x 65,535 float64 cells, 525 MB; the tables hold 4.5 MB
        sizes = [*range(1, 1001), 65_535]
        tracemalloc.start()
        try:
            tables = degree_tables(sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert [len(t) for t in tables] == sizes


class TestPacketGenerator:
    def test_next_u53s_is_the_scalar_stream(self):
        pids = (1, 2, 1000, MAX_PACKET_ID, PACKET_SEED_SALT)  # the last seeds state 0
        for pid, state in zip(pids, packet_states(pids).tolist()):
            want = packet_rng(pid)
            assert state == want.state
            for n in (0, 1, 7, 100, 3):
                got, state = next_u53s(state, n)
                assert got.dtype == np.uint64
                assert got.tolist() == [want.next_u64() >> 11 for _ in range(n)]
            assert state == want.state


class TestDraw:
    def test_identical_inputs_identical_outputs(self):
        degrees = robust_soliton(24)
        cdf = uniform_cdf(24)
        for pid in (1, 7, 123456):
            a = draw(pid, 10, cdf, degrees)
            b = draw(pid, 10, cdf, degrees)
            assert a == b

    def test_single_packet_window_clamps(self):
        degrees = robust_soliton(17)  # table larger than the window
        meta = draw(5, 42, uniform_cdf(1), degrees)
        assert meta.degree == 1
        assert meta.neighbors == (42,)

    def test_meta_invariants(self):
        degrees = robust_soliton(30)
        cdf = uniform_cdf(30)
        for pid in range(1, 300):
            meta = draw(pid, 100, cdf, degrees)
            assert meta.degree == len(meta.neighbors)
            assert len(set(meta.neighbors)) == meta.degree
            assert all(100 <= n <= 129 for n in meta.neighbors)
            assert meta.neighbors == tuple(sorted(meta.neighbors))

    def test_uniform_neighbor_frequencies(self):
        w, n = 16, 100_000
        cdf = uniform_cdf(w)
        _, neighbors = draw_batch(np.arange(1, n + 1), np.zeros(n, dtype=np.intp),
                                  [(1, cdf_keys(cdf), degree_one_table(w))])
        counts = np.bincount(neighbors - 1, minlength=w)
        p = 1.0 / w
        bound = 3 * math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= bound)

    def test_nonuniform_pdf_respected(self):
        # packet 1 gets 90% of the mass; it must dominate the draws
        cdf = [0.9, 1.0]
        degrees = degree_one_table(2)
        hits = sum(draw(pid, 1, cdf, degrees).neighbors[0] == 1
                   for pid in range(1, 2001))
        assert hits > 1650


class TestInverseCdf:
    # the float sum of the 3-packet robust-soliton pmf is 1 - 2**-53, so its last
    # scaled key would be 2**53 - 1, which the largest deviate passes
    K = 3

    def test_last_entry_counts_as_one(self):
        cdf = np.cumsum(robust_soliton_oracle(self.K))
        assert cdf[-1] < 1.0
        keys = cdf_keys(cdf)
        assert keys.dtype == np.uint64
        assert np.searchsorted(keys, np.uint64(2**53 - 1), side="right") == self.K - 1
        assert np.searchsorted(keys, np.uint64(0), side="right") == 0
        assert int(keys[-1]) == 2**53

    def test_padded_rows_end_at_their_size(self):
        short = np.cumsum(robust_soliton_oracle(self.K))
        cdf = np.array([[*short, 1.5, 2.0], np.cumsum(robust_soliton_oracle(5))])
        tables = cdf_tables([self.K, 5], lambda pick: cdf[pick])
        assert [len(t) for t in tables] == [self.K, 5]
        for table, size in zip(tables, (self.K, 5)):
            assert np.searchsorted(table, np.uint64(2**53 - 1), side="right") == size - 1
            assert int(table[-1]) == 2**53

    def test_every_row_ends_at_its_own_size_with_the_last_key(self):
        # padded rows read past their size: 0.5 there would give a key below 2**53
        sizes = [5, 2, 9, 2, 1]
        tables = cdf_tables(sizes, lambda pick: np.full((len(pick), 9), 0.5))
        assert [len(t) for t in tables] == sizes
        for table in tables:
            assert table.dtype == np.uint64
            assert int(table[-1]) == 2**53
            assert np.all(table[:-1] == 2**52)

    def test_tables_are_read_only(self):
        tables = cdf_tables([3, 4], lambda pick: np.cumsum(np.full((len(pick), 4), 0.25), axis=1))
        tables += degree_tables([5, 6])
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0

    def test_a_cached_table_cannot_be_written(self):
        want = draw(7, 1, np.arange(1, 9) / 8, robust_soliton(8))
        assert want.neighbors == (4, 5)
        with pytest.raises(ValueError):
            robust_soliton(8)[:] = 0
        assert robust_soliton(8).tolist() == soliton_keys(8).tolist()
        assert draw(7, 1, np.arange(1, 9) / 8, robust_soliton(8)) == want


def slope_cdf(counts, slope):
    """A window CDF as its float sum, whose last entry may fall short of 1."""
    return np.cumsum(slope_pdf(counts, slope))


def assert_matches_oracle(packet_ids, window_of, windows):
    """`windows` holds (start packet, window CDF array, degree table size)."""
    tables = [(start, cdf_keys(cdf), robust_soliton(size)) for start, cdf, size in windows]
    indptr, neighbors = draw_batch(packet_ids, window_of, tables)
    assert len(indptr) == len(packet_ids) + 1
    for i, (pid, w) in enumerate(zip(packet_ids, window_of)):
        start, cdf, size = windows[w]
        want = draw_oracle(int(pid), start, cdf.tolist(), degree_cdf(size))
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
        degree = data(st.sampled_from([wsize, wsize + 7, 400]))
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
            [(10, uniform_cdf(3), 400)])
        full = np.flatnonzero(np.diff(indptr) == 3)
        assert len(full) > 0
        for i in full[:20]:
            assert neighbors[indptr[i]:indptr[i + 1]].tolist() == [10, 11, 12]

    def test_gapped_ids_span_passes_and_windows(self):
        windows = [(1 + 50 * w, slope_cdf([20, 30, 50], s), 100)
                   for w, s in enumerate((-1.0, 0.0, 0.37, 1.0))]
        pids = np.arange(1, 7000, 3)  # 2,333 packets: two passes by count
        assert_matches_oracle(pids, pids % 4, windows)

    def test_more_windows_than_one_joined_search_holds(self):
        # 2,100 distinct windows in one batch; a pass must touch fewer than 2,047
        sizes = [1 + w % 9 for w in range(2100)]
        windows = [(1 + 3 * w, uniform_cdf(n), n) for w, n in enumerate(sizes)]
        pids = np.arange(1, 4201)
        assert_matches_oracle(pids, (pids * 11) % 2100, windows)

    def test_pass_memory_is_bounded_by_cells(self):
        # 2,000 packets of one 60,000-packet window: the chosen-neighbor bitmaps
        # of one 2,000-packet pass alone would be 120 MB
        cdf = uniform_cdf(60_000)
        windows = [(1, cdf_keys(cdf), robust_soliton(4))]
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
            assert (len(got), tuple(got)) == draw_oracle(pid, 1, cdf.tolist(), degree_cdf(4))

    def test_same_packet_same_neighbors_in_any_batch(self):
        windows = [(1, cdf_keys(uniform_cdf(40)), robust_soliton(40))]
        whole = draw_batch(np.arange(1, 1001), np.zeros(1000, dtype=np.intp), windows)
        alone = draw_batch([500], [0], windows)
        assert whole[1][whole[0][499]:whole[0][500]].tolist() == alone[1].tolist()

    @pytest.mark.parametrize("lockstep_min", [0, ltcode._PASS_PACKETS + 1])
    def test_either_draw_path_gives_the_same_sessions(self, workloads, lockstep_min):
        # every packet in lockstep to its last neighbor, or every packet alone
        # from its degree on: each packet draws the same deviates either way
        cells = [("readme-300", cell.mode) for cell in
                 workloads.build("readme-300", workloads.DEFAULT_SEED).cells]
        for name, mode in [*cells, ("relay-payload-300", "DAF")]:
            inp = workloads.build(name, workloads.DEFAULT_SEED)
            p = next(c.params for c in inp.cells if c.mode == mode)
            codec = SessionCodec(p)
            windows = window_tables(codec, p.step_frames)
            with mock.patch.object(ltcode, "_LOCKSTEP_MIN", lockstep_min):
                pids = np.arange(1, codec.total_coded + 1)
                indptr, neighbors = draw_batch(pids, np.searchsorted(codec.schedule.cum_sent,
                                                                     pids), windows)
            assert np.array_equal(indptr, codec.indptr), (name, mode)
            assert np.array_equal(neighbors, codec.neighbors), (name, mode)

    def test_empty_batch(self):
        indptr, neighbors = draw_batch([], [], [])
        assert indptr.tolist() == [0] and len(neighbors) == 0


@st.composite
def xor_batches(data):
    """A (k, P) buffer at every word width, and a CSR batch of packets whose
    degrees run from 1 up to k, a few of them wide enough to finish as
    stragglers, with neighbors that may repeat."""
    P = data(st.sampled_from([1, 2, 3, 4, 7, 8, 1023, 1024]))
    k = data(st.integers(1, 60))
    n = data(st.integers(0, 80))
    degree = data(st.lists(st.one_of(st.integers(1, min(k, 4)), st.integers(1, k)),
                           min_size=n, max_size=n))
    rng = np.random.default_rng(data(st.integers(0, 2**32 - 1)))
    indptr = np.concatenate(([0], np.cumsum(degree, dtype=np.int64)))
    neighbors = rng.integers(1, k + 1, size=int(indptr[-1]))
    return indptr, neighbors, rng.integers(0, 256, size=(k, P), dtype=np.uint8)


class TestXor:
    @given(xor_batches(), st.integers(1, 9), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, batch, chunk_packets, strided):
        # a chunk of 1..9 packets cuts each batch into many chunks
        indptr, neighbors, buf = batch
        n, P = len(indptr) - 1, buf.shape[1]
        want = xor_payloads_oracle(indptr, neighbors, buf)
        records = np.zeros(n, dtype=[("head", "u1", (HEADER_LEN,)), ("payload", "u1", (P,))])
        out = records["payload"] if strided else None  # rows HEADER_LEN + P bytes apart
        with mock.patch.object(ltcode, "_XOR_BYTES", chunk_packets * P):
            got = xor_payloads(indptr, neighbors, buf, out=out)
        assert got.tobytes() == want.tobytes()
        assert not records["head"].any()
        if strided:
            assert records["payload"].tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,P", [(2018, 1024), (31, 65_535)])
    def test_memory_stays_within_the_stated_budget(self, n, P):
        # a session block of each size (harness.session_blocks), drawn from
        # one 300-packet window, sent into its datagrams' payload fields
        k = 300
        windows = [(1, cdf_keys(uniform_cdf(k)), robust_soliton(k))]
        indptr, neighbors = draw_batch(np.arange(1, n + 1), np.zeros(n, dtype=np.intp), windows)
        buf = np.random.default_rng(n).integers(0, 256, size=(k, P), dtype=np.uint8)
        out = datagram_records(bytearray(n * (HEADER_LEN + P)), P)["payload"]
        tracemalloc.start()
        try:
            xor_payloads(indptr, neighbors, buf, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c = max(1, ltcode._XOR_BYTES // P)  # the docstring's budget
        assert peak <= (2 * c + 1) * P + 16 * len(neighbors) + 64 * n + 16 * 1024
        assert out.tobytes() == xor_payloads_oracle(indptr, neighbors, buf).tobytes()

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
        degrees = robust_soliton(5)
        cdf = uniform_cdf(5)
        metas = [draw(pid, 1, cdf, degrees) for pid in range(1, 16)]
        payloads = [xor_payload(m.neighbors, buf) for m in metas]
        dec = decoder(5, [m.neighbors for m in metas], payload_bytes=16)
        released = [n for m, pl in zip(metas, payloads) for n in dec.ingest(m.packet_id, pl)]
        assert sorted(released) == [1, 2, 3, 4, 5]
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


def assert_tables_match_compositions(tables, compositions, pseudo=()):
    """equations[n] lists the rows holding native n, ascending (none for
    padding), and each row's packed state reads (not arrived, count, sum) of
    its non-padding neighbors in `compositions`."""
    rows = [[n for n in c if n not in pseudo] for c in compositions]
    holding = [[] for _ in range(tables.total_packets + 1)]
    for i, row in enumerate(rows):
        for n in row:
            holding[n].append(i)
    assert tables.equations == tuple(tuple(h) for h in holding)
    one, arrive = tables.one, tables.arrive
    state = tables.state.tolist()
    assert tables.state.dtype == np.int64
    assert all(v >= arrive for v in state)
    assert [(v - arrive) // one for v in state] == [len(r) for r in rows]
    assert [(v - arrive) % one for v in state] == [sum(r) for r in rows]


class TestPeelingTables:
    def test_incidence_counts_and_sums_leave_padding_out(self):
        # equations (rows) 0..3 over natives 1..5, with 2 and 4 padding
        tables = PeelingTables(5, [0, 2, 2, 5, 6], [1, 2, 1, 3, 4, 5], pseudo_decoded=(2, 4))
        assert tables.equations == ((), (0, 2), (), (2,), (), (3,))
        assert tables.known == bytes([0, 0, 1, 0, 1, 0])
        assert_tables_match_compositions(tables, [[1, 2], [], [1, 3, 4], [5]], pseudo=(2, 4))

    def test_each_natives_equations_ascend_on_wide_sessions(self):
        # k past 16 bits sorts on uint32, below on uint16; both stay stable
        for k in (300, 70_000):
            rng = np.random.default_rng(k)
            sets = [np.unique(rng.integers(1, k + 1, size=rng.integers(1, 9)))
                    for _ in range(2_000)]
            indptr = np.concatenate(([0], np.cumsum([len(s) for s in sets])))
            tables = PeelingTables(k, indptr, np.concatenate(sets))
            assert_tables_match_compositions(tables, [s.tolist() for s in sets])

    def test_state_widths(self):
        # ONE is the power of two above the largest sum, ARRIVE the one above
        # ONE * (max count + 1)
        assert ltcode._state_widths(0, 0) == (1, 2)
        assert ltcode._state_widths(5, 1) == (8, 32)
        assert ltcode._state_widths(8, 3) == (16, 128)
        assert ltcode._state_widths(2**40 - 1, 2**22 - 2) == (2**40, 2**62)
        for total, count in ((2**40 - 1, 2**22 - 1), (2**40, 2**21 - 1), (2**62, 1)):
            with pytest.raises(ValueError, match="does not fit in int64"):
                ltcode._state_widths(total, count)

    def test_padding_outside_the_session_rejected(self):
        with pytest.raises(ValueError, match="pseudo-decoded packet 5"):
            PeelingTables(4, [0, 1], [1], pseudo_decoded=(5,))


class TestDecoderState:
    def test_degree_one_release(self):
        dec = decoder(4, [[2]])
        assert dec.ingest(1) == [2]
        assert dec.decoded_payload(2) is None  # decoded, and no payloads held

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
        released, by = block_releases(dec, [2, 2, 1])
        assert released.tolist() == []
        with pytest.raises(KeyError):
            dec.decoded_payload(2)

    def test_out_of_range_packet_id_rejected_before_recording(self):
        dec = decoder(4, [[2], [3]], payload_bytes=2)
        for bad in ([1, 3], [0, 1], [-1], [[1]]):
            with pytest.raises(ProtocolError, match="PacketID"):
                dec.ingest_block(bad, np.zeros((2, 2), np.uint8))
        for rows in (None, np.zeros((1, 2), np.uint8), np.zeros((2, 3), np.uint8),
                     np.zeros(4, np.uint8)):
            with pytest.raises(ProtocolError, match="payload row"):
                dec.ingest_block([1, 2], rows)
        for n in (2, 3):
            with pytest.raises(KeyError):
                dec.decoded_payload(n)
        # neither PacketID was recorded, so their valid copies still count
        released, by = block_releases(dec, [1, 2], np.array([[5, 6], [7, 8]], np.uint8))
        assert released.tolist() == [2, 3] and by.tolist() == [0, 1]
        assert dec.decoded_payload(3).tolist() == [7, 8]

    def test_non_integer_ids_and_non_uint8_rows_rejected_before_recording(self):
        # a float or bool PacketID would be cast to another packet's, and a
        # row of other numbers cast, or overflow, into other bytes
        dec = decoder(4, [[2], [3]], payload_bytes=2)
        for bad in ([1.5], [1.0, 2.0], [True], np.array([1, 2], dtype=np.float64), ["1"]):
            with pytest.raises(ProtocolError, match="PacketIDs need a list of integers"):
                dec.ingest_block(bad, np.zeros((len(bad), 2), np.uint8))
        for rows in (np.array([[5.0, 6.0], [7.0, 8.0]]), [[5, 6], [7, 8]], [[300, 6], [7, 8]],
                     np.array([[5, 6], [7, 8]], dtype=np.int8)):
            with pytest.raises(ProtocolError, match="uint8 payload row"):
                dec.ingest_block([1, 2], rows)
        with pytest.raises(ProtocolError, match="uint8 payload row"):
            dec.ingest(1, np.array([5.0, 6.0]))
        with pytest.raises(ProtocolError, match="PacketIDs need"):
            decoder(4, [[2], [3]]).ingest(1.5)
        # nothing was recorded: the valid block decodes both packets
        released, by = block_releases(dec, np.array([1, 2], dtype=np.uint32),
                                      np.array([[5, 6], [7, 8]], np.uint8))
        assert released.tolist() == [2, 3] and by.tolist() == [0, 1]
        assert dec.decoded_payload(2).tolist() == [5, 6]

    def test_released_equation_repeated_later_changes_nothing(self):
        x = np.array([[0, 0], [1, 2], [3, 4], [5, 6]], np.uint8)  # row n is packet n
        compositions = [[1], [1, 2], [2, 3]]
        rows = np.array([x[1], x[1] ^ x[2], x[2] ^ x[3]])
        dec = decoder(3, compositions, payload_bytes=2)
        released, by = block_releases(dec, [1, 2, 3], rows)
        assert released.tolist() == [1, 2, 3] and by.tolist() == [0, 1, 2]
        for pid in (1, 2, 3):  # each a released equation, now with a wrong payload
            released, by = block_releases(dec, [pid, pid], np.full((2, 2), 0xEE, np.uint8))
            assert released.tolist() == [] and by.tolist() == []
            for n in (1, 2, 3):
                assert dec.decoded_payload(n).tolist() == x[n].tolist()

    def test_decoders_sharing_tables_stay_apart(self):
        degrees, cdf = robust_soliton(12), uniform_cdf(12)
        compositions = [draw(pid, 1, cdf, degrees).neighbors for pid in range(1, 25)]
        buffer = np.random.default_rng(4).integers(0, 256, size=(13, 3), dtype=np.uint8)
        buffer[6] = 0  # padding
        payload = np.array([np.bitwise_xor.reduce(buffer[list(c)], axis=0) for c in compositions])
        a_blocks = [[3, 1, 7], [2, 2, 9, 5], [11, 4, 6, 8, 10, 12, 13, 14]]
        b_blocks = [[24, 23], [1], [20, 21, 22, 19, 18, 17], [16, 15, 3]]

        def feed(dec, block):
            ids = np.array(block)
            return [a.tolist() for a in block_releases(dec, ids, payload[ids - 1])]

        def alone(blocks):
            dec = decoder(12, compositions, pseudo=(6,), payload_bytes=3)
            return [feed(dec, b) for b in blocks], dec

        a_want, a_dec = alone(a_blocks)
        b_want, _ = alone(b_blocks)
        tables = a_dec.tables
        state, equations = tables.state.copy(), tables.equations
        a, b = DecoderState(tables, 3), DecoderState(tables, 3)
        a_got, b_got = [], []
        for i in range(max(len(a_blocks), len(b_blocks))):
            if i < len(b_blocks):
                b_got.append(feed(b, b_blocks[i]))
            if i < len(a_blocks):
                a_got.append(feed(a, a_blocks[i]))
        assert a_got == a_want and b_got == b_want
        for dec, got in ((a, a_got), (b, b_got)):
            for n in (n for block in got for n in block[0]):
                assert dec.decoded_payload(n).tolist() == buffer[n].tolist()
        assert np.array_equal(tables.state, state) and tables.equations == equations

    def test_redundant_packet_absorbed(self):
        dec = decoder(3, [[1], [2], [1, 2]])
        dec.ingest(1)
        dec.ingest(2)
        assert dec.ingest(3) == []

    def test_order_insensitive_for_fixed_set(self):
        degrees = robust_soliton(12)
        cdf = uniform_cdf(12)
        compositions = [draw(pid, 1, cdf, degrees).neighbors for pid in range(1, 19)]
        pids = list(range(1, 19))
        reference = None
        rng = random.Random(5)
        for _ in range(8):
            rng.shuffle(pids)
            dec = decoder(12, compositions)
            decoded = tuple(sorted(n for pid in pids for n in dec.ingest(pid)))
            if reference is None:
                reference = decoded
            assert decoded == reference

    def test_pseudo_decoded_excluded_from_results(self):
        dec = decoder(6, [[1, 2, 5]], pseudo=(1, 2), payload_bytes=4)
        # padding packets count as known zeros when stripping, and are not released
        got = dec.ingest(1, np.array([9, 9, 9, 9], dtype=np.uint8))
        assert got == [5]
        assert np.array_equal(dec.decoded_payload(5),
                              np.array([9, 9, 9, 9], dtype=np.uint8))
        assert np.array_equal(dec.decoded_payload(1), np.zeros(4, np.uint8))

    def test_kept_row_survives_the_caller_zeroing_its_rows(self):
        x = np.array([[0, 0, 0], [1, 2, 3], [4, 5, 6]], np.uint8)  # row n is packet n
        dec = decoder(2, [[1, 2], [2]], payload_bytes=3)
        rows = (x[1] ^ x[2])[None]
        assert block_releases(dec, [1], rows)[0].tolist() == []  # waits for packet 2
        rows[:] = 0
        assert block_releases(dec, [2], x[2][None])[0].tolist() == [1, 2]
        assert dec.decoded_payload(1).tolist() == [1, 2, 3]

    def test_decoded_payload_is_the_callers_own_copy(self):
        dec = decoder(2, [[1]], payload_bytes=5)
        dec.ingest(1, np.arange(1, 6, dtype=np.uint8))
        got = dec.decoded_payload(1)
        assert got.dtype == np.uint8 and got.shape == (5,) and got.flags.writeable
        got[:] = 0xFF
        assert dec.decoded_payload(1).tolist() == [1, 2, 3, 4, 5]

    def test_decoded_payload_of_a_packet_outside_the_session_is_a_key_error(self):
        # -1 must not wrap round to packet k, nor a huge number raise IndexError
        dec = decoder(2, [[1], [2]], payload_bytes=2)
        dec.ingest_block([1, 2], np.array([[1, 2], [3, 4]], np.uint8))
        for bad in (-1, -3, 0, 3, 10**9):
            with pytest.raises(KeyError, match=f"packet {bad} not decoded"):
                dec.decoded_payload(bad)

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
        released, _ = block_releases(dec, np.arange(1, len(compositions) + 1), rows)
        assert sorted(released.tolist()) == [1, 2, 3, 5, 6]
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
        degrees = robust_soliton(16)
        cdf = uniform_cdf(16)
        full = 0
        fraction = 0.0
        trials = 300
        for trial in range(trials):
            base = trial * 1000 + 1
            dec = decoder(16, [draw(base + i, 1, cdf, degrees).neighbors for i in range(24)])
            done = sum(len(dec.ingest(pid)) for pid in range(1, 25))
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
                record = by_block.release_rows()
                with pytest.raises(ProtocolError):
                    by_block.ingest_block(*hostile)
                assert np.array_equal(by_block.release_rows(), record)
            ids, rows = block
            released, by = block_releases(by_block, ids, rows)
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
        # the record holds the row of the PacketID whose arrival released each packet
        record = np.full(k + 1, -1)
        for (pid, _, _), got in zip(packets, want):
            record[got] = pid - 1
        for dec in (by_block, by_packet):
            assert np.array_equal(dec.release_rows(), record)
        assert order == [n for got in want for n in got]
        assert len(set(order)) == len(order)  # no packet released twice
        released = sorted(order)
        if payload_bytes is not None:
            assert sorted(payloads) == released
        for n in range(1, k + 1):
            if n not in pseudo and n not in released:
                for dec in (by_block, by_packet):
                    with pytest.raises(KeyError):
                        dec.decoded_payload(n)
            elif payload_bytes is not None:
                assert np.array_equal(by_block.decoded_payload(n), buffer[n])
                assert np.array_equal(by_packet.decoded_payload(n), buffer[n])

    def test_rejected_block_records_no_packet_id(self):
        dec = decoder(4, [[2], [3]])
        with pytest.raises(ProtocolError):
            dec.ingest_block([1, 2, 3])  # PacketID 3 is outside 1..2
        released, by = block_releases(dec, [1, 2])
        assert released.tolist() == [2, 3] and by.tolist() == [0, 1]


class TestReleaseRecord:
    def test_record_holds_the_releasing_row(self):
        dec = decoder(4, [[1, 2], [3], [2]])
        assert dec.ingest_block([1, 2]) is None
        assert dec.release_rows().tolist() == [-1, -1, -1, 1, -1]
        dec.ingest_block([3])  # releases 2, whose ripple releases 1
        rows = dec.release_rows()
        assert rows.dtype == np.int64 and rows.tolist() == [-1, 2, 2, 1, -1]
        rows[1] = 7  # a copy, the caller's own
        assert dec.release_rows()[1] == 2

    def test_repeated_packet_id_changes_no_record(self):
        # within a block the first copy releases, across blocks the repeat is ignored
        dec = decoder(3, [[1], [1, 2], [3]])
        dec.ingest_block([2, 1, 1, 2])
        assert dec.release_rows().tolist() == [-1, 0, 0, -1]
        for block in ([1], [2, 2], [1, 2, 1]):
            dec.ingest_block(block)
            assert dec.release_rows().tolist() == [-1, 0, 0, -1]
        assert dec.ingest(1) == [] and dec.ingest(3) == [3]
        assert dec.release_rows().tolist() == [-1, 0, 0, 2]

    def test_repeat_within_a_block_keeps_the_first_payload(self):
        x = np.array([[0, 0], [1, 2], [3, 4]], np.uint8)  # row n is packet n
        dec = decoder(2, [[1, 2], [2]], payload_bytes=2)
        rows = np.array([x[1] ^ x[2], [0xEE, 0xEE], x[2]], np.uint8)
        dec.ingest_block([1, 1, 2], rows)
        assert dec.release_rows().tolist() == [-1, 1, 1]
        assert [dec.decoded_payload(n).tolist() for n in (1, 2)] == [[1, 2], [3, 4]]

    def test_rejected_block_leaves_the_record(self):
        dec = decoder(4, [[2], [2, 3], [4]], payload_bytes=1)
        dec.ingest_block([1], np.zeros((1, 1), np.uint8))
        want = dec.release_rows()
        for ids, rows in (([2, 3, 4], np.zeros((3, 1), np.uint8)),
                          ([2, 3], np.zeros((1, 1), np.uint8)),
                          ([2.0, 3.0], np.zeros((2, 1), np.uint8)),
                          ([2, 3], np.zeros((2, 1), np.int16))):
            with pytest.raises(ProtocolError):
                dec.ingest_block(ids, rows)
            assert np.array_equal(dec.release_rows(), want)
        dec.ingest_block([2, 3], np.zeros((2, 1), np.uint8))
        assert dec.release_rows().tolist() == [-1, -1, 0, 1, 2]

    def test_index_zero_and_padding_stay_unset(self):
        dec = decoder(5, [[1, 2], [2, 3, 4], [5], [1, 2, 3, 4, 5]], pseudo=(1, 3))
        dec.ingest_block([1, 2, 3, 4])
        rows = dec.release_rows()
        assert rows.tolist() == [-1, -1, 0, -1, 1, 2]
        for n in (1, 3):  # padding is decoded from the start, and never released
            assert dec.decoded_payload(n) is None
