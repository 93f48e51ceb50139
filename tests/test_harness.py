from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafstream.channel import ChannelModel, transmit_many
from dafstream.errors import ConfigError, ProtocolError
from dafstream import harness
from dafstream.harness import (CSV_HEADER, Metrics, SessionCodec, delay_to_frames, report,
                               rows_to_csv, run_session, session_blocks, session_slopes,
                               summarize, sweep)
from dafstream.ltcode import DecoderState, InverseCdf, uniform_cdf
from dafstream.protocol import (HEADER_LEN, DafHeader, decode_packet,
                                encode_datagrams, encode_packet)
from dafstream.trace import constant_trace, packetize, random_trace, sinusoidal_trace
from dafstream.windowing import build_schedule, derive_params, wcp_packets

from oracles import encode_block, iter_coded_packets, slope_pdf


def lossless():
    return ChannelModel(kind="single", loss_rate=0.0)


class TestMetrics:
    def test_bounds(self):
        Metrics(idr=0.5, fdr=0.7)
        with pytest.raises(ValueError):
            Metrics(idr=0.8, fdr=0.7)
        with pytest.raises(ValueError):
            Metrics(idr=-0.1, fdr=0.5)

    def test_delay_to_frames(self):
        assert delay_to_frames(1.83, 30) == 54
        assert delay_to_frames(0.5, 30) == 15
        assert delay_to_frames(1.0, 30) == 30


class TestRunSession:
    def test_lossless_decodes_whole_file(self):
        t = constant_trace(120, 8 * 1024, frame_rate=30)
        p = derive_params(t, "DAF-L", 30, code_rate=0.7)
        r = run_session(t, p, lossless(), 0)
        m = r.metrics()
        assert m.fdr == 1.0
        assert m.idr >= 0.99
        assert r.in_time + r.late + r.never == t.total_packets - len(r.wcp)

    def test_block_mode_idr_equals_fdr(self):
        t = sinusoidal_trace(120, 8000, 4000, 40, frame_rate=30)
        p = derive_params(t, "Block", 24, code_rate=0.8)
        ch = ChannelModel(kind="single", loss_rate=0.1)
        for seed in range(5):
            m = run_session(t, p, ch, seed).metrics()
            assert m.idr == m.fdr

    def test_blackout_causes_late_and_never(self):
        t = sinusoidal_trace(180, 8000, 4000, 60, frame_rate=30)
        p = derive_params(t, "DAF-L", 24, code_rate=0.8)
        ch = ChannelModel(kind="mobile-relay", loss_rate=0.0,
                          period_s=2.0, duty=0.6)
        r = run_session(t, p, ch, 1)
        m = r.metrics()
        assert r.never > 0
        assert m.fdr > m.idr

    def test_fdr_at_least_idr_everywhere(self):
        t = random_trace(60, 4, 12, seed=3)
        ch = ChannelModel(kind="single", loss_rate=0.15)
        for mode in ("DAF", "DAF-L", "S-LT", "Block", "Expand"):
            p = derive_params(t, mode, 12, code_rate=0.8)
            for seed in (0, 1):
                m = run_session(t, p, ch, seed).metrics()
                assert m.fdr >= m.idr

    def test_same_seed_identical_result_bytes(self):
        t = sinusoidal_trace(90, 8000, 3000, 30, frame_rate=30)
        p = derive_params(t, "DAF", 15, code_rate=0.8)
        ch = ChannelModel(kind="single", loss_rate=0.2)
        a = run_session(t, p, ch, 7)
        b = run_session(t, p, ch, 7)
        assert a.canonical_bytes() == b.canonical_bytes()
        c = run_session(t, p, ch, 8)
        assert a.canonical_bytes() != c.canonical_bytes()

    def test_wcp_packets_not_counted(self):
        t = constant_trace(90, 4 * 1024, frame_rate=30)
        p = derive_params(t, "DAF-L", 30, code_rate=0.6)
        r = run_session(t, p, lossless(), 0)
        wcp = wcp_packets(p, t)
        assert r.wcp == wcp
        assert r.in_time + r.late + r.never == t.total_packets - len(wcp)


class TestEncoderDecoderAgreement:
    def test_meta_reconstruction_round_trip(self):
        t = sinusoidal_trace(60, 6000, 3000, 20, frame_rate=30)
        p = derive_params(t, "DAF", 10, code_rate=0.8)
        from dafstream.harness import session_slopes
        sched = build_schedule(p, t, slopes=session_slopes(t, p))
        codec = SessionCodec(t, p)
        count = 0
        for header, meta, _ in iter_coded_packets(t, p, sched, codec=codec):
            rx = codec.meta_from_header(header)
            assert rx == meta
            count += 1
        assert count == p.total_coded

    def test_payload_fidelity_through_wire(self):
        rng = np.random.default_rng(11)
        t = random_trace(40, 1, 5, seed=4, payload_bytes=64)
        payloads = [rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
                    for n in t.frame_bytes]
        p = derive_params(t, "DAF", 10, code_rate=0.5)
        from dafstream.harness import session_slopes
        sched = build_schedule(p, t, slopes=session_slopes(t, p))
        buffer = packetize(t, payloads)
        wcp = wcp_packets(p, t)
        for q in wcp:
            buffer[q - 1] = 0
        codec = SessionCodec(t, p)
        dec = DecoderState(t.total_packets, pseudo_decoded=wcp, payload_bytes=64)
        for header, meta, payload in iter_coded_packets(t, p, sched,
                                                        buffer=buffer, codec=codec):
            h2, pl2 = decode_packet(encode_packet(header, payload.tobytes()))
            dec.ingest(codec.meta_from_header(h2),
                       np.frombuffer(pl2, dtype=np.uint8))
        decoded = dec.decoded_packets()
        assert len(decoded) > 0.9 * (t.total_packets - len(wcp))
        for q in decoded:
            assert np.array_equal(dec.decoded_payload(q), buffer[q - 1]), q


class TestDecoderSideCompositions:
    def test_receiver_csr_equals_sender_csr_on_lossy_relay(self, workloads):
        inp = workloads.build("relay-payload-300", workloads.DEFAULT_SEED)
        t, p = inp.trace, inp.cells[0].params
        sched = build_schedule(p, t, slopes=session_slopes(t, p))
        sender = SessionCodec(t, p, sched)
        receiver = SessionCodec(t, p)  # its own schedule, tables and caches
        buffer = packetize(t, inp.payloads)
        N = p.total_coded
        delivered = transmit_many(inp.channel, np.arange(1, N + 1),
                                  np.arange(1, N + 1) * p.send_interval_s(t))
        assert 0.2 < delivered.mean() < 0.9
        checked = 0
        for first, last in session_blocks(N, t.payload_bytes):
            pids, _, indptr, neighbors = encode_block(sender, first, last)
            sent = delivered[first - 1:last]
            rx, rx_indptr, rx_neighbors = receiver.receive(
                sender.send(first, last, delivered, buffer))
            assert rx.packet_id.tolist() == pids[sent].tolist()
            rows = [neighbors[indptr[i]:indptr[i + 1]] for i in np.flatnonzero(sent)]
            assert np.array_equal(np.diff(rx_indptr), [len(r) for r in rows])
            assert np.array_equal(rx_neighbors, np.concatenate(rows) if rows
                                  else np.zeros(0, dtype=np.int64))
            for row, got in zip(rows, rx.payload):
                assert np.array_equal(np.bitwise_xor.reduce(buffer[row - 1]), got)
            checked += len(rows)
        assert checked == int(delivered.sum())


class TestPayloadRecovery:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", ["DAF", "DAF-L"])
    def test_relay_workload_payloads_decode_exactly(self, workloads, mode, seed):
        # run_session's block loop, keeping the decoder to read its bytes
        inp = workloads.build("relay-payload-300", workloads.DEFAULT_SEED)
        t = inp.trace
        p = next(c.params for c in inp.cells if c.mode == mode)
        wcp = wcp_packets(p, t)
        buffer = packetize(t, inp.payloads)
        buffer[np.array(sorted(wcp)) - 1] = 0
        N = p.total_coded
        delivered = transmit_many(replace(inp.channel, seed=inp.channel.seed + seed),
                                  np.arange(1, N + 1),
                                  np.arange(1, N + 1, dtype=np.float64) * p.send_interval_s(t))
        codec = SessionCodec(t, p)
        dec = DecoderState(t.total_packets, pseudo_decoded=wcp, payload_bytes=t.payload_bytes)
        for first, last in session_blocks(N, t.payload_bytes):
            if delivered[first - 1:last].any():
                rx, indptr, neighbors = codec.receive(codec.send(first, last, delivered, buffer))
                dec.ingest_block(rx.packet_id, indptr, neighbors, rx.payload)
        decoded = dec.decoded_packets()
        result = run_session(t, p, inp.channel, seed, payloads=inp.payloads)
        assert decoded == np.flatnonzero(np.isfinite(result.decode_time)).tolist()
        assert len(decoded) > 0.5 * (t.total_packets - len(wcp))
        for q in decoded + sorted(wcp):
            assert np.array_equal(dec.decoded_payload(q), buffer[q - 1]), q


class TestSessionBlocks:
    @pytest.mark.parametrize("payload_bytes", [1, 1024, 0xFFFF])
    @pytest.mark.parametrize("total", [1, 2017, 2018, 2019, 100_000])
    def test_blocks_tile_the_session_within_the_byte_budget(self, payload_bytes, total):
        blocks = list(session_blocks(total, payload_bytes))
        assert blocks[0][0] == 1 and blocks[-1][1] == total
        assert all(b[0] == a[1] + 1 for a, b in zip(blocks, blocks[1:]))
        for first, last in blocks:
            assert last >= first
            assert (last - first + 1) * (HEADER_LEN + payload_bytes) <= harness.BLOCK_BYTES

    def test_block_size_follows_the_budget(self, monkeypatch):
        # 2,018 datagrams of 1,039 bytes fill 2 MiB; a budget below one datagram still holds one
        assert next(session_blocks(10_000, 1024)) == (1, 2018)
        monkeypatch.setattr(harness, "BLOCK_BYTES", 10)
        assert list(session_blocks(3, 1024)) == [(1, 1), (2, 2), (3, 3)]

    @pytest.mark.parametrize("name", ["readme-300", "relay-payload-300"])
    def test_block_size_changes_no_result(self, workloads, monkeypatch, name):
        inp = workloads.build(name, workloads.DEFAULT_SEED)
        p = next(c.params for c in inp.cells if c.mode == "DAF")
        want = run_session(inp.trace, p, inp.channel, 3, payloads=inp.payloads)
        # 37 datagrams per block, so blocks fall nowhere near the default's bounds
        monkeypatch.setattr(harness, "BLOCK_BYTES", 37 * (HEADER_LEN + inp.trace.payload_bytes))
        got = run_session(inp.trace, p, inp.channel, 3, payloads=inp.payloads)
        assert got.canonical_bytes() == want.canonical_bytes()


class TestWindowTables:
    @pytest.mark.parametrize("mode,step", [("DAF", 1), ("DAF", 2), ("DAF", 5),
                                           ("Expand", 2), ("Block", 3)])
    def test_one_pass_tables_equal_per_window_cumsum(self, mode, step):
        # each window alone, groups of `step` frames from its first frame, as
        # the per-entry build did; some slopes are 0 and share uniform tables
        t = random_trace(60, 1, 9, seed=3, payload_bytes=64)
        p = derive_params(t, mode, 24, step_frames=step, code_rate=0.7)
        count = len(build_schedule(p, t).start_frame)
        slopes = np.random.default_rng(step).uniform(-1, 1, size=count)
        slopes[::4] = 0.0
        slopes[1::7] = 1.0
        codec = SessionCodec(t, p, build_schedule(p, t, slopes=slopes))
        s = t.packets_per_frame
        sched = codec.schedule
        for index, (first, end, start_packet, wsize, slope, (start, table, _)) in enumerate(
                zip(sched.start_frame.tolist(), sched.end_frame.tolist(),
                    sched.start_packet.tolist(), sched.window_packets.tolist(),
                    sched.slope.tolist(), codec.windows), start=1):
            assert start == start_packet
            if slope == 0.0:
                cdf = uniform_cdf(wsize)
            else:
                g = p.step_frames  # Block's step is its window
                frames = range(first, end + 1, g)
                counts = [sum(s[f - 1:min(f + g - 1, end)]) for f in frames]
                assert sum(counts) == wsize
                cdf = np.cumsum(slope_pdf(counts, slope))
            assert np.array_equal(table.keys, InverseCdf(cdf).keys), index

    def test_sloped_window_off_the_step_grid_rejected(self):
        # S-LT windows hold a fixed packet count, so they end inside a frame
        t = random_trace(60, 1, 9, seed=3, payload_bytes=64)
        p = derive_params(t, "S-LT", 24, code_rate=0.7)
        slopes = np.full(len(build_schedule(p, t).start_frame), 0.5)
        with pytest.raises(ValueError, match="step boundar"):
            SessionCodec(t, p, build_schedule(p, t, slopes=slopes))


class TestHostileHeaders:
    @pytest.fixture(scope="class")
    def codec(self, workloads):
        inp = workloads.build("readme-300", workloads.DEFAULT_SEED)
        cell = next(c for c in inp.cells if c.mode == "DAF")
        codec = SessionCodec(inp.trace, cell.params)
        assert inp.trace.total_packets == 2934
        return codec

    def entry(self, codec):
        """(StartP, WSize, SlopeF) of entry 41."""
        s = codec.schedule
        return int(s.start_packet[40]), int(s.window_packets[40]), float(s.slope[40])

    def test_window_past_the_stream(self, codec):
        with pytest.raises(ProtocolError, match="names no window"):
            codec.meta_from_header(DafHeader(2934, 50, 0.0, 7, 1024))

    def test_sloped_window_past_the_stream(self, codec):
        with pytest.raises(ProtocolError, match="names no window"):
            codec.meta_from_header(DafHeader(2939, 50, 0.5, 7, 1024))

    def test_slope_must_be_the_entrys(self, codec):
        start, wsize, slope = self.entry(codec)
        assert slope != 0.5
        with pytest.raises(ProtocolError, match="SlopeF"):
            codec.meta_from_header(DafHeader(start, wsize, 0.5, 7, 1024))
        meta = codec.meta_from_header(DafHeader(start, wsize, slope, 7, 1024))
        assert all(start <= n < start + wsize for n in meta.neighbors)

    def test_payload_size_must_be_the_sessions(self, codec):
        start, wsize, slope = self.entry(codec)
        with pytest.raises(ProtocolError, match="P "):
            codec.meta_from_header(DafHeader(start, wsize, slope, 7, 512))

    def test_batch_decoder_rejects_before_drawing(self, codec):
        good = self.entry(codec)
        for bad in (good, (2934, 50, 0.0), (2939, 50, 0.5)):
            data = encode_datagrams([good[0], bad[0]], [good[1], bad[1]],
                                    [good[2], bad[2]], [6, 7], 1024)
            if bad is good:
                rx, indptr, _ = codec.receive(data)
                assert rx.packet_id.tolist() == [6, 7] and len(indptr) == 3
            else:
                with pytest.raises(ProtocolError):
                    codec.receive(data)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_datagrams_give_compositions_or_protocol_error(self, codec, data):
        # one to four consecutive honest datagrams, some header bytes
        # overwritten, then cut anywhere
        size = HEADER_LEN + codec.trace.payload_bytes
        n = data.draw(st.integers(1, 4))
        first = data.draw(st.integers(1, codec.params.total_coded - n + 1))
        wire = codec.send(first, first + n - 1, np.ones(codec.params.total_coded, dtype=bool))
        for _ in range(data.draw(st.integers(0, 6))):
            row = data.draw(st.integers(0, n - 1))
            byte = data.draw(st.integers(0, HEADER_LEN - 1))
            wire[row * size + byte] = data.draw(st.integers(0, 255))
        cut = data.draw(st.one_of(st.just(len(wire)), st.integers(0, len(wire))))
        try:
            rx, indptr, neighbors = codec.receive(bytes(wire[:cut]))
        except ProtocolError:
            return
        assert len(indptr) == len(rx.packet_id) + 1
        lo = np.repeat(rx.start_packet, np.diff(indptr))
        hi = lo + np.repeat(rx.window_packets, np.diff(indptr))
        assert np.all((lo <= neighbors) & (neighbors < hi))


class TestSweep:
    def test_singleton_grid_matches_run_session(self):
        t = constant_trace(60, 6 * 1024, frame_rate=30)
        ch = ChannelModel(kind="single", loss_rate=0.1)
        rows = sweep(t, ["DAF-L"], [0.8], [0.4], [ch],
                     repetitions=5, base_seed=3)
        assert len(rows) == 1
        p = derive_params(t, "DAF-L", delay_to_frames(0.4, 30), code_rate=0.8)
        import statistics
        idrs = [run_session(t, p, ch, 3 + i).metrics().idr for i in range(5)]
        assert rows[0].idr == statistics.median(idrs)

    def test_empty_grid_rejected(self):
        t = constant_trace(60, 6 * 1024)
        with pytest.raises(ConfigError, match="empty"):
            sweep(t, [], [0.8], [0.4], [lossless()])

    def test_csv_format(self):
        t = constant_trace(60, 6 * 1024, frame_rate=30)
        rows = sweep(t, ["DAF-L", "Block"], [0.8], [0.4], [lossless()],
                     repetitions=2, base_seed=0)
        csv_text = rows_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER == "mode,code_rate,delay_s,channel,idr,fdr"
        assert len(lines) == 3
        assert lines[1].startswith("DAF-L,0.8,0.4,single:plr=0,")

    def test_rows_append_without_resorting(self):
        t = constant_trace(60, 6 * 1024, frame_rate=30)
        a = sweep(t, ["Block"], [0.9], [0.4], [lossless()], repetitions=1)
        b = sweep(t, ["DAF-L"], [0.8], [0.4], [lossless()], repetitions=1)
        combined = rows_to_csv(a + b).strip().split("\n")
        assert combined[1].startswith("Block")
        assert combined[2].startswith("DAF-L")

    def test_summary_na_marker(self):
        # a hopeless configuration decodes almost nothing in time
        t = sinusoidal_trace(120, 9000, 5000, 40, frame_rate=30)
        ch = ChannelModel(kind="single", loss_rate=0.75)
        rows = sweep(t, ["Block"], [1.0], [0.4], [ch], repetitions=3)
        text = summarize(rows)
        assert "N/A" in text

    def test_report_writes_csv(self, tmp_path):
        t = constant_trace(60, 6 * 1024, frame_rate=30)
        rows = sweep(t, ["DAF-L"], [0.8], [0.4], [lossless()], repetitions=1)
        out = tmp_path / "rows.csv"
        csv_text, summary = report(rows, csv_path=out)
        assert out.read_text() == csv_text
        assert "DAF-L" in summary
