import gc
import math
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafstream.channel import ChannelModel, transmit_many
from dafstream.errors import ConfigError, ProtocolError
from dafstream import harness, ltcode
from dafstream.harness import (CSV_HEADER, Metrics, SessionCodec, delay_to_frames, rows_to_csv,
                               run_session, session_blocks, session_plan, summarize, sweep)
from dafstream.ltcode import DecoderState, PeelingTables, cdf_keys, xor_payloads
from dafstream.protocol import (HEADER_LEN, DafHeader, datagram_records, decode_header,
                                decode_packet, encode_packet)
from dafstream.trace import (burst_trace, constant_trace, packetize, random_trace,
                             sinusoidal_trace)
from dafstream.windowing import Mode, build_schedule, derive_params, wcp_packets

from oracles import (block_releases, decode_datagrams, encode_block, header_record,
                     header_rule_oracle, iter_coded_packets, minmax_decode_times, slope_pdf,
                     struct_datagram, uniform_cdf, window_tables)


def lossless():
    return ChannelModel(kind="single", loss_rate=0.0)


def sweep_cell(delay_s, step_frames=1):
    t = constant_trace(60, 6 * 1024, frame_rate=30)
    return sweep(t, ["DAF-L"], [0.8], [0.4, delay_s], [lossless()], repetitions=1,
                 step_frames=step_frames)


def sweep_reps(repetitions):
    t = constant_trace(60, 6 * 1024, frame_rate=30)
    return sweep(t, ["DAF-L"], [0.8], [0.4], [lossless()], repetitions=repetitions)


def params_with(**kwargs):
    kwargs = {"delay_frames": 24, "step_frames": 1, **kwargs}
    return derive_params(constant_trace(60, 6 * 1024, frame_rate=30), "DAF-L", **kwargs)


@pytest.mark.parametrize("case", [
    lambda: params_with(data_rate=math.nan),
    lambda: params_with(data_rate=math.inf),
    lambda: params_with(code_rate=0.8, delay_frames=24.5),
    lambda: params_with(code_rate=0.8, delay_frames=True),
    lambda: params_with(code_rate=0.8, step_frames=True),
    lambda: params_with(code_rate=0.8, step_frames=2.0),
    lambda: sweep_cell(math.nan),
    lambda: sweep_cell(math.inf),
    lambda: sweep_cell(0.4, step_frames=True),
    lambda: sweep_cell(0.05),  # the second cell's delay is 1 frame, infeasible
    lambda: sweep_reps(True),
    lambda: sweep_reps("3"),
    lambda: sweep_reps(2.0),
    lambda: sweep(constant_trace(60, 65536, payload_bytes=65536), ["DAF-L"], [0.8], [0.8],
                  [lossless()], repetitions=1),  # P over the header's 16 bits
], ids=["data-rate-nan", "data-rate-inf", "delay-float", "delay-bool", "step-bool",
        "step-float", "sweep-delay-nan", "sweep-delay-inf", "sweep-step-bool",
        "sweep-later-cell-infeasible", "sweep-reps-bool", "sweep-reps-str", "sweep-reps-float",
        "sweep-payload-too-wide"])
def test_bad_numbers_are_config_errors_before_any_work(case, monkeypatch):
    def no_session(*args, **kwargs):
        raise AssertionError("a session ran")

    monkeypatch.setattr(harness, "run_session", no_session)
    with pytest.raises(ConfigError):
        case()


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
        wcp = wcp_packets(p)
        assert r.wcp == wcp
        assert r.in_time + r.late + r.never == t.total_packets - len(wcp)


class TestEncoderDecoderAgreement:
    def test_meta_reconstruction_round_trip(self):
        t = sinusoidal_trace(60, 6000, 3000, 20, frame_rate=30)
        p = derive_params(t, "DAF", 10, code_rate=0.8)
        codec = SessionCodec(p)
        count = 0
        for header, meta, _ in iter_coded_packets(p, codec=codec):
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
        buffer = packetize(t, payloads)
        wcp = wcp_packets(p)
        for q in wcp:
            buffer[q - 1] = 0
        codec = SessionCodec(p)
        dec = DecoderState(PeelingTables(t.total_packets, codec.indptr, codec.neighbors, wcp),
                           payload_bytes=64)
        decoded = []
        for header, meta, payload in iter_coded_packets(p, buffer=buffer, codec=codec):
            h2, pl2 = decode_packet(encode_packet(header, payload.tobytes()))
            assert codec.meta_from_header(h2) == meta
            decoded += dec.ingest(h2.packet_id, np.frombuffer(pl2, dtype=np.uint8))
        assert len(decoded) > 0.9 * (t.total_packets - len(wcp))
        for q in decoded:
            assert np.array_equal(dec.decoded_payload(q), buffer[q - 1]), q


class TestDecoderSideCompositions:
    def test_receiver_csr_equals_sender_csr_on_lossy_relay(self, workloads):
        inp = workloads.build("relay-payload-300", workloads.DEFAULT_SEED)
        t, p = inp.trace, inp.cells[0].params
        sender = SessionCodec(p)
        receiver = SessionCodec(p)  # its own schedule, tables and caches
        buffer = packetize(t, inp.payloads)
        N = p.total_coded
        delivered = transmit_many(inp.channel, np.arange(1, N + 1),
                                  np.arange(1, N + 1) * p.send_interval_s())
        assert 0.2 < delivered.mean() < 0.9
        windows = window_tables(sender, p.step_frames)
        checked = 0
        for first, last in session_blocks(N, t.payload_bytes):
            pids, _, indptr, neighbors = encode_block(sender, windows, first, last)
            sent = delivered[first - 1:last]
            got_pids, payload = receiver.receive(sender.send(first, last, delivered, buffer))
            assert got_pids.tolist() == pids[sent].tolist()
            rows = [neighbors[indptr[i]:indptr[i + 1]] for i in np.flatnonzero(sent)]
            for pid, row, got in zip(got_pids.tolist(), rows, payload):
                # the receiver reads by PacketID the composition the sender drew
                assert np.array_equal(receiver.neighbors[receiver.indptr[pid - 1]:
                                                         receiver.indptr[pid]], row)
                assert np.array_equal(np.bitwise_xor.reduce(buffer[row - 1]), got)
            checked += len(rows)
        assert checked == int(delivered.sum())


def sent_by_oracle(codec, windows, buffer, delivered, first, last):
    """What send wrote before it read the plan: draw, XOR (zeros without a
    payload buffer), then encode every header field by field."""
    t, sched = codec.trace, codec.schedule
    pids, entry, indptr, neighbors = encode_block(codec, windows, first, last)
    sent = np.flatnonzero(delivered[first - 1:last])
    want = bytearray(b"".join(
        struct_datagram(int(sched.start_packet[e]), int(sched.window_packets[e]),
                        float(sched.slope[e]), int(pid), t.payload_bytes, bytes(t.payload_bytes))
        for e, pid in zip(entry[sent], pids[sent])))
    if buffer is not None and len(sent):
        rows = [neighbors[indptr[i]:indptr[i + 1]] for i in sent]
        sent_indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
        datagram_records(want, t.payload_bytes)["payload"] = xor_payloads(
            sent_indptr, np.concatenate(rows), buffer)
    return want


def record_sends(monkeypatch):
    """Record (first, last, delivered, bytes, underlying buffer) of every
    SessionCodec.send into the returned list."""
    sent, send = [], SessionCodec.send

    def recorded(self, first, last, delivered, payloads=None, out=None):
        data = send(self, first, last, delivered, payloads, out)
        sent.append((first, last, delivered, bytes(data), data.obj))
        return data
    monkeypatch.setattr(SessionCodec, "send", recorded)
    return sent


class TestSend:
    @pytest.fixture(scope="class")
    def relay(self, workloads):
        inp = workloads.build("relay-payload-300", workloads.DEFAULT_SEED)
        t, p = inp.trace, inp.cells[0].params
        N = p.total_coded
        delivered = transmit_many(inp.channel, np.arange(1, N + 1),
                                  np.arange(1, N + 1) * p.send_interval_s())
        codec = SessionCodec(p)
        return codec, packetize(t, inp.payloads), delivered, window_tables(codec, p.step_frames)

    def test_datagrams_equal_drawing_and_xoring_each_block(self, relay):
        codec, buffer, delivered, windows = relay
        t, N = codec.trace, codec.total_coded
        delivered = delivered.copy()
        delivered[:next(session_blocks(N, t.payload_bytes))[1]] = True  # one whole block
        assert 0.2 < delivered.mean() < 0.9
        for first, last in session_blocks(N, t.payload_bytes):
            want = sent_by_oracle(codec, windows, buffer, delivered, first, last)
            assert codec.send(first, last, delivered, buffer) == want
            assert codec.send(first, last, delivered) == sent_by_oracle(
                codec, windows, None, delivered, first, last)

    @pytest.mark.parametrize("name", ["readme-300", "relay-payload-300"])
    def test_sessions_reuse_one_buffer_and_send_the_oracles_bytes(self, workloads, name,
                                                                   monkeypatch):
        # every block of a session is written into a prefix of one buffer,
        # and without payloads every session on one codec reuses it; its
        # payload bytes stay zero without payloads, with them every
        # delivered row is overwritten, short last block included
        inp = workloads.build(name, workloads.DEFAULT_SEED)
        cell = inp.cells[0]
        codec = session_plan(cell.params)
        windows = window_tables(codec, cell.params.step_frames)
        P = inp.trace.payload_bytes
        buffer = None if inp.payloads is None else packetize(inp.trace, inp.payloads)
        if buffer is not None:
            buffer[~codec.real] = 0
        sent, buffers = record_sends(monkeypatch), []
        for seed in (0, 1, 2):
            sent.clear()
            run_session(inp.trace, cell.params, inp.channel, seed, payloads=inp.payloads)
            assert [s[:2] for s in sent] == list(session_blocks(codec.total_coded, P))
            assert len(sent[-1][3]) < len(sent[0][3])  # a short last block
            assert all(s[4] is sent[0][4] for s in sent)
            buffers.append(sent[0][4])
            if seed == 0:  # cut for the largest block, with payloads for the most delivered
                want = (max(len(s[3]) for s in sent) if buffer is not None
                        else (sent[0][1] - sent[0][0] + 1) * (HEADER_LEN + P))
                assert len(buffers[0]) == want
            for first, last, delivered, data, _ in sent:
                assert data == sent_by_oracle(codec, windows, buffer, delivered, first, last)
                if buffer is None:
                    assert not datagram_records(data, P)["payload"].any()
        if buffer is None:
            assert all(b is buffers[0] for b in buffers)

    def test_a_session_without_payloads_after_one_with_sends_zero_payloads(self, workloads,
                                                                           monkeypatch):
        inp = workloads.build("relay-payload-300", workloads.DEFAULT_SEED)
        params = inp.cells[0].params
        codec = session_plan(params)
        # the payload session takes the spare the first one cut for the
        # largest block and writes payload bytes into it
        run_session(inp.trace, params, inp.channel, 2)
        run_session(inp.trace, params, inp.channel, 0, payloads=inp.payloads)
        sent = record_sends(monkeypatch)
        run_session(inp.trace, params, inp.channel, 1)
        windows = window_tables(codec, params.step_frames)
        for first, last, delivered, data, _ in sent:
            assert not datagram_records(data, inp.trace.payload_bytes)["payload"].any()
            assert data == sent_by_oracle(codec, windows, None, delivered, first, last)

    def test_a_codec_never_gets_another_codecs_buffer(self, workloads, monkeypatch):
        # the spare fits both codecs and holds no payload bytes, so only its
        # owner decides; and no spare is kept while a codec is built
        inp = workloads.build("readme-300", workloads.DEFAULT_SEED)
        params = inp.cells[0].params
        other_trace = sinusoidal_trace(90, 8000, 4000, 30, payload_bytes=512)
        other = derive_params(other_trace, "DAF-L", 15, code_rate=0.8)
        run_session(inp.trace, params, inp.channel, 0)
        assert harness._spare
        codec = session_plan(other)
        assert not harness._spare
        sent = record_sends(monkeypatch)
        run_session(inp.trace, params, inp.channel, 1)
        spare = sent[0][4]
        sent.clear()
        run_session(other_trace, other, inp.channel, 0)
        assert sent and all(s[4] is not spare for s in sent)
        windows = window_tables(codec, other.step_frames)
        for first, last, delivered, data, _ in sent:
            assert data == sent_by_oracle(codec, windows, None, delivered, first, last)

    def test_a_session_that_raises_leaves_no_spare(self, workloads, monkeypatch):
        inp = workloads.build("readme-300", workloads.DEFAULT_SEED)
        params = inp.cells[0].params
        codec = session_plan(params)
        run_session(inp.trace, params, inp.channel, 1)
        send = SessionCodec.send

        def corrupted(self, first, last, delivered, payloads=None, out=None):
            data = send(self, first, last, delivered, payloads, out)
            out[0] ^= 1  # StartP of the first datagram
            out[HEADER_LEN] = 0xFF  # and one of its payload bytes, which no later send writes
            return data
        with monkeypatch.context() as patched:
            patched.setattr(SessionCodec, "send", corrupted)
            with pytest.raises(ProtocolError):
                run_session(inp.trace, params, inp.channel, 0)
        sent = record_sends(monkeypatch)
        run_session(inp.trace, params, inp.channel, 0)
        windows = window_tables(codec, params.step_frames)
        for first, last, delivered, data, _ in sent:
            assert data == sent_by_oracle(codec, windows, None, delivered, first, last)

    def test_the_spare_is_freed_with_its_codec(self):
        t = sinusoidal_trace(90, 8000, 4000, 30)
        params = derive_params(t, "DAF-L", 15, code_rate=0.8)
        run_session(t, params, ChannelModel(kind="single", loss_rate=0.1), 0)
        assert len(harness._spare) == 1
        del params
        gc.collect()
        assert not harness._spare

    def test_a_payload_session_keeps_no_spare(self, workloads):
        inp = workloads.build("relay-payload-300", workloads.DEFAULT_SEED)
        params = inp.cells[0].params
        run_session(inp.trace, params, inp.channel, 2)
        assert harness._spare
        run_session(inp.trace, params, inp.channel, 0, payloads=inp.payloads)
        assert not harness._spare

    def test_send_into_a_buffer_returns_a_read_only_view(self, relay):
        codec, buffer, delivered, _ = relay
        first, last = next(session_blocks(codec.total_coded, codec.trace.payload_bytes))
        out = bytearray(harness.BLOCK_BYTES)
        data = codec.send(first, last, delivered, buffer, out=out)
        assert data.readonly and data.obj is out
        assert data == codec.send(first, last, delivered, buffer)
        with pytest.raises(TypeError):
            data[0] = 0
        assert not codec.receive(data)[1].flags.writeable

    def test_a_block_is_held_once(self, relay):
        # the XOR goes straight into the datagrams; no (n, P) copy is made
        codec, buffer, _, _ = relay
        first, last = next(session_blocks(codec.total_coded, codec.trace.payload_bytes))
        everything = np.ones(codec.total_coded, dtype=bool)
        codec.send(first, last, everything, buffer)
        tracemalloc.start()
        try:
            data = codec.send(first, last, everything, buffer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = HEADER_LEN + codec.trace.payload_bytes
        assert len(data) == harness.BLOCK_BYTES // size * size  # a full block
        assert peak < 1.5 * len(data)


class TestSessionPlan:
    def cell(self):
        t = sinusoidal_trace(90, 8000, 4000, 30, frame_rate=30)
        return t, lambda: derive_params(t, "DAF", 15, code_rate=0.8)

    def test_second_session_draws_and_builds_nothing(self, monkeypatch):
        t, params = self.cell()
        p = params()
        ch = ChannelModel(kind="single", loss_rate=0.1)
        run_session(t, p, ch, 0)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(harness, "draw_batch", counted("draw_batch", harness.draw_batch))
        monkeypatch.setattr(SessionCodec, "_build_cdf",
                            counted("_build_cdf", SessionCodec._build_cdf))
        monkeypatch.setattr(harness, "build_schedule",
                            counted("build_schedule", harness.build_schedule))
        monkeypatch.setattr(harness, "PeelingTables",
                            counted("PeelingTables", harness.PeelingTables))
        for seed in (1, 2):
            run_session(t, p, ch, seed)
        assert calls == []
        run_session(t, params(), ch, 1)  # a new params object draws again
        assert calls == ["build_schedule", "_build_cdf", "draw_batch", "PeelingTables"]

    def test_window_tables_are_dropped_after_the_draw(self):
        # no session reads them again; the CSR compositions are a third of their size
        t, params = self.cell()
        codec = session_plan(params())
        assert not hasattr(codec, "windows") and len(codec.neighbors) > 0

    def test_equal_params_objects_build_their_own_plans(self):
        t, params = self.cell()
        p, q = params(), params()
        assert p == q and p is not q
        assert session_plan(p) is not session_plan(q)
        assert session_plan(p) is session_plan(p)

    def test_an_equal_twin_trace_shares_the_plan(self):
        t, params = self.cell()
        p = params()
        plan = session_plan(p)
        twin = sinusoidal_trace(90, 8000, 4000, 30, frame_rate=30)
        assert twin == t and twin is not t
        ch = ChannelModel(kind="single", loss_rate=0.1)
        got = run_session(twin, p, ch, 0)
        assert session_plan(p) is plan and plan.trace is t
        assert got.canonical_bytes() == run_session(t, params(), ch, 0).canonical_bytes()

    @pytest.mark.parametrize("mode", [m.value for m in Mode])
    def test_a_foreign_trace_is_refused_before_any_codec(self, workloads, mode):
        # these ran on the foreman trace's params: silently with other frame
        # sizes, or failing deep in the codec build on a shorter trace
        inp = workloads.build("readme-300", workloads.DEFAULT_SEED)
        p = workloads.params_for(inp.spec, inp.trace, mode)
        foreign = {"other frame sizes": constant_trace(300, 100 * 1024),
                   "shorter": constant_trace(30, 1024),
                   "other frame rate": replace(inp.trace, frame_rate=25.0)}
        for what, trace in foreign.items():
            with pytest.raises(ConfigError, match="not the one these coding parameters"):
                run_session(trace, p, inp.channel, 0)
            assert "_session_plan" not in p.__dict__, what

    def test_plan_dies_with_its_params(self):
        # no reference cycle: reference counting alone frees the plan
        t, params = self.cell()
        p = params()
        result = run_session(t, p, ChannelModel(kind="single", loss_rate=0.1), 0)
        plan = weakref.ref(session_plan(p))
        gc.disable()
        try:
            assert plan() is not None
            del p
            assert plan() is None
        finally:
            gc.enable()
        assert result.frame_deadline[-1] > 0  # results outlive the plan

    @pytest.mark.parametrize("name", ["readme-300", "long-daf-1800", "relay-payload-300"])
    def test_shared_params_give_the_bytes_of_fresh_params(self, workloads, name):
        inp = workloads.build(name, workloads.DEFAULT_SEED)
        shared = workloads.params_for(inp.spec, inp.trace, "DAF")
        for seed in range(workloads.SESSION_SEEDS):
            fresh = workloads.params_for(inp.spec, inp.trace, "DAF")
            want = run_session(inp.trace, fresh, inp.channel, seed, payloads=inp.payloads)
            got = run_session(inp.trace, shared, inp.channel, seed, payloads=inp.payloads)
            assert got.canonical_bytes() == want.canonical_bytes(), seed

    def test_shared_arrays_are_read_only(self):
        t, params = self.cell()
        p = params()
        ch = ChannelModel(kind="single", loss_rate=0.1)
        first, second = run_session(t, p, ch, 0), run_session(t, p, ch, 1)
        assert first.frame_deadline is second.frame_deadline
        plan = session_plan(p)
        peeling = plan.peeling
        for shared in (first.frame_deadline, plan.indptr, plan.neighbors,
                       plan.send_times, plan.headers, plan.packet_deadline, plan.real,
                       peeling.indptr,
                       peeling.neighbors, peeling.state):
            with pytest.raises(ValueError, match="read-only"):
                shared[1] = 0
        assert isinstance(peeling.equations, tuple)
        assert isinstance(peeling.known, bytes)  # each decoder copies it
        first.decode_time[1] = -1.0  # each session's own
        assert second.decode_time[1] != -1.0


class TestPayloadRecovery:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", ["DAF", "DAF-L"])
    def test_relay_workload_payloads_decode_exactly(self, workloads, mode, seed):
        # run_session's block loop, keeping the decoder to read its bytes
        inp = workloads.build("relay-payload-300", workloads.DEFAULT_SEED)
        t = inp.trace
        p = next(c.params for c in inp.cells if c.mode == mode)
        wcp = wcp_packets(p)
        buffer = packetize(t, inp.payloads)
        buffer[np.array(sorted(wcp)) - 1] = 0
        N = p.total_coded
        delivered = transmit_many(replace(inp.channel, seed=inp.channel.seed + seed),
                                  np.arange(1, N + 1),
                                  np.arange(1, N + 1, dtype=np.float64) * p.send_interval_s())
        codec = SessionCodec(p)
        dec = DecoderState(PeelingTables(t.total_packets, codec.indptr, codec.neighbors, wcp),
                           payload_bytes=t.payload_bytes)
        decoded = []
        for first, last in session_blocks(N, t.payload_bytes):
            if delivered[first - 1:last].any():
                pids, payload = codec.receive(codec.send(first, last, delivered, buffer))
                decoded += block_releases(dec, pids, payload)[0].tolist()
        decoded.sort()
        result = run_session(t, p, inp.channel, seed, payloads=inp.payloads)
        assert decoded == np.flatnonzero(np.isfinite(result.decode_time)).tolist()
        assert len(decoded) > 0.5 * (t.total_packets - len(wcp))
        for q in decoded + sorted(wcp):
            assert np.array_equal(dec.decoded_payload(q), buffer[q - 1]), q


def fixpoint_arrivals(t, p, channel, seed):
    """minmax_decode_times over the equations session `seed` delivers: the
    PacketID that releases each packet some chain releases."""
    plan = session_plan(p)
    indptr, neighbors = plan.indptr.tolist(), plan.neighbors.tolist()
    N = plan.total_coded
    delivered = transmit_many(channel.for_session(seed), np.arange(1, N + 1), plan.send_times)
    return minmax_decode_times(
        [(pid, neighbors[indptr[pid - 1]:indptr[pid]])
         for pid in (np.flatnonzero(delivered) + 1).tolist()], plan.wcp)


def fixpoint_decode_times(t, p, channel, seed):
    """The decode time of every packet of session `seed`, from
    fixpoint_arrivals, and how many packets some chain releases."""
    plan = session_plan(p)
    arrival = fixpoint_arrivals(t, p, channel, seed)
    want = np.full(t.total_packets + 1, np.inf)
    for n, pid in arrival.items():
        want[n] = plan.send_times[pid - 1]
    return want, len(arrival)


class TestDecodeTimesAgainstFixpoint:
    @pytest.mark.parametrize("name", ["readme-300", "long-daf-1800", "relay-payload-300"])
    def test_decode_times_are_the_minmax_fixpoint(self, workloads, name):
        # each packet decodes at the send time of the arrival that closes its
        # cheapest chain of degree-one reductions
        inp = workloads.build(name, workloads.DEFAULT_SEED)
        t = inp.trace
        p = next(c.params for c in inp.cells if c.mode == "DAF")
        wcp = session_plan(p).wcp
        for seed in range(3):
            result = run_session(t, p, inp.channel, seed, payloads=inp.payloads)
            want, released = fixpoint_decode_times(t, p, inp.channel, seed)
            assert 0 < released < t.total_packets - len(wcp) + 1
            assert np.array_equal(result.decode_time, want), seed

    @pytest.mark.parametrize("name", ["readme-300", "long-daf-1800", "relay-payload-300"])
    def test_release_rows_are_the_minmax_fixpoint(self, workloads, name):
        # run_session's block loop, keeping the decoder to read its record
        inp = workloads.build(name, workloads.DEFAULT_SEED)
        t, seed = inp.trace, 1
        p = next(c.params for c in inp.cells if c.mode == "DAF")
        codec = session_plan(p)
        buffer = None
        if inp.payloads is not None:
            buffer = packetize(t, inp.payloads)
            buffer[~codec.real] = 0
        N = codec.total_coded
        delivered = transmit_many(inp.channel.for_session(seed), np.arange(1, N + 1),
                                  codec.send_times)
        dec = DecoderState(codec.peeling, None if buffer is None else t.payload_bytes)
        for first, last in session_blocks(N, t.payload_bytes):
            if delivered[first - 1:last].any():
                dec.ingest_block(*codec.receive(codec.send(first, last, delivered, buffer)))
        want = np.full(t.total_packets + 1, -1)
        for n, pid in fixpoint_arrivals(t, p, inp.channel, seed).items():
            want[n] = pid - 1
        assert np.array_equal(dec.release_rows(), want)
        assert 0 < np.count_nonzero(want >= 0) < t.total_packets


@st.composite
def session_configs(draw):
    """A short trace (at most 90 frames, GOP 1-3, P 64-1,024, a multiple of
    the step) with a mode, step, delay, code rate, channel and session seed;
    many are infeasible."""
    gop = draw(st.integers(1, 3))
    step = gop * draw(st.integers(1, 3))
    T = step * draw(st.integers(2, 90 // step))
    P = draw(st.sampled_from([64, 100, 512, 1024]))
    kind = draw(st.sampled_from(["random", "burst", "sinusoidal", "constant"]))
    if kind == "random":
        t = random_trace(T, 1, draw(st.integers(1, 12)), seed=draw(st.integers(0, 2**32 - 1)),
                         payload_bytes=P, gop_size=gop)
    elif kind == "burst":
        low = draw(st.integers(0, 8 * P))
        t = burst_trace(T, low, draw(st.integers(low, 12 * P)), draw(st.integers(1, 40)),
                        payload_bytes=P, gop_size=gop)
    elif kind == "sinusoidal":
        mean = draw(st.integers(P, 8 * P))
        t = sinusoidal_trace(T, mean, draw(st.integers(0, mean)), draw(st.integers(1, 60)),
                             payload_bytes=P, gop_size=gop)
    else:
        t = constant_trace(T, draw(st.integers(0, 8 * P)), payload_bytes=P, gop_size=gop)
    mode = draw(st.sampled_from(["DAF", "DAF-L", "S-LT", "Block", "Expand"]))
    delay = draw(st.integers(1, 40))
    rate = draw(st.floats(0.3, 1.0))
    loss = draw(st.floats(0.0, 0.3))
    channel_kind = draw(st.sampled_from(["single", "chain", "mobile-relay"]))
    if channel_kind == "mobile-relay":
        channel = ChannelModel(kind=channel_kind, loss_rate=loss,
                               period_s=draw(st.floats(0.1, 3.0)), duty=draw(st.floats(0.1, 1.0)))
    else:
        channel = ChannelModel(kind=channel_kind, loss_rate=loss, hops=draw(st.integers(1, 3)))
    return t, mode, step, delay, rate, channel, draw(st.integers(0, 2**16))


class TestWholeSessions:
    @given(session_configs())
    @settings(max_examples=300, deadline=None)
    def test_derived_sessions_run_and_decode_at_the_fixpoint(self, config):
        # derive_params refuses a config, or its session runs: every real
        # packet is in time, late or never, and decodes at the fixpoint
        t, mode, step, delay, rate, channel, seed = config
        try:
            p = derive_params(t, mode, delay, step_frames=step, code_rate=rate)
        except ConfigError:
            return
        result = run_session(t, p, channel, seed)
        result.metrics()  # checks 0 <= IDR <= FDR <= 1
        assert result.in_time + result.late + result.never == t.total_packets - len(result.wcp)
        want, _ = fixpoint_decode_times(t, p, channel, seed)
        assert np.array_equal(result.decode_time, want)


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
        count = len(build_schedule(p).start_frame)
        slopes = np.random.default_rng(step).uniform(-1, 1, size=count)
        slopes[::4] = 0.0
        slopes[1::7] = 1.0
        with mock.patch.object(harness, "session_slopes", return_value=slopes):
            codec = SessionCodec(p)
        s = t.packets_per_frame
        sched = codec.schedule
        for index, (first, end, start_packet, wsize, slope, (start, table, _)) in enumerate(
                zip(sched.start_frame.tolist(), sched.end_frame.tolist(),
                    sched.start_packet.tolist(), sched.window_packets.tolist(),
                    sched.slope.tolist(), window_tables(codec, p.step_frames)), start=1):
            assert start == start_packet
            if slope == 0.0:
                cdf = uniform_cdf(wsize)
            else:
                g = p.step_frames  # Block's step is its window
                frames = range(first, end + 1, g)
                counts = [sum(s[f - 1:min(f + g - 1, end)]) for f in frames]
                assert sum(counts) == wsize
                cdf = np.cumsum(slope_pdf(counts, slope))
            assert np.array_equal(table, cdf_keys(cdf)), index


class TestHostileHeaders:
    @pytest.fixture(scope="class")
    def codec(self, workloads):
        inp = workloads.build("readme-300", workloads.DEFAULT_SEED)
        cell = next(c for c in inp.cells if c.mode == "DAF")
        codec = SessionCodec(cell.params)
        assert inp.trace.total_packets == 2934
        return codec

    @pytest.fixture(scope="class")
    def flat(self, workloads):
        """DAF-L on the same trace: every window has slope 0.0."""
        inp = workloads.build("readme-300", workloads.DEFAULT_SEED)
        return SessionCodec(next(c.params for c in inp.cells if c.mode == "DAF-L"))

    def entry(self, codec):
        """(StartP, WSize, SlopeF) of entry 41."""
        s = codec.schedule
        return int(s.start_packet[40]), int(s.window_packets[40]), float(s.slope[40])

    def sent(self, codec):
        """The PacketIDs entry 41 sends."""
        s = codec.schedule
        return list(range(int(s.cum_sent[39]) + 1, int(s.cum_sent[40]) + 1))

    def test_window_past_the_stream(self, codec):
        with pytest.raises(ProtocolError, match="not sent through the window at StartP 2934"):
            codec.meta_from_header(DafHeader(2934, 50, 0.0, 7, 1024))

    def test_sloped_window_past_the_stream(self, codec):
        with pytest.raises(ProtocolError, match="not sent through the window at StartP 2939"):
            codec.meta_from_header(DafHeader(2939, 50, 0.5, 7, 1024))

    def test_slope_must_be_the_entrys(self, codec):
        start, wsize, slope = self.entry(codec)
        pid = self.sent(codec)[0]
        assert slope != 0.5
        with pytest.raises(ProtocolError, match="SlopeF"):
            codec.meta_from_header(DafHeader(start, wsize, 0.5, pid, 1024))
        meta = codec.meta_from_header(DafHeader(start, wsize, slope, pid, 1024))
        assert all(start <= n < start + wsize for n in meta.neighbors)

    def test_payload_size_must_be_the_sessions(self, codec):
        start, wsize, slope = self.entry(codec)
        with pytest.raises(ProtocolError, match="P "):
            codec.meta_from_header(DafHeader(start, wsize, slope, 7, 512))

    def test_batch_decoder_rejects_before_drawing(self, codec):
        good = self.entry(codec)
        pids = self.sent(codec)[:2]
        for bad in (good, (2934, 50, 0.0), (2939, 50, 0.5)):
            data = b"".join(struct_datagram(*fields, pid, 1024, bytes(1024))
                            for fields, pid in zip((good, bad), pids))
            if bad is good:
                assert codec.receive(data)[0].tolist() == pids
            else:
                with pytest.raises(ProtocolError):
                    codec.receive(data)

    def test_packet_id_must_be_sent_by_the_named_window(self, codec):
        start, wsize, slope = self.entry(codec)
        assert 7 not in self.sent(codec)
        with pytest.raises(ProtocolError, match="PacketID 7 is not sent"):
            codec.meta_from_header(DafHeader(start, wsize, slope, 7, 1024))

    def test_packet_id_outside_the_session(self, codec):
        start, wsize, slope = self.entry(codec)
        for pid in (0, codec.total_coded + 1):
            with pytest.raises(ProtocolError, match=f"PacketID {pid} outside"):
                codec.meta_from_header(DafHeader(start, wsize, slope, pid, 1024))

    def test_receive_draws_nothing(self, codec, monkeypatch):
        # the widest slope-1 window would be the costliest to draw from
        s = codec.schedule
        widest = int(np.argmax(np.where(s.slope == 1.0, s.window_packets, 0)))
        assert s.slope[widest] == 1.0
        start, wsize = int(s.start_packet[widest]), int(s.window_packets[widest])
        honest = int(s.cum_sent[widest])

        def refuse(*args):
            raise AssertionError("the decoder drew a composition")
        monkeypatch.setattr(harness, "draw_batch", refuse)
        monkeypatch.setattr(ltcode, "draw_batch", refuse)
        monkeypatch.setattr(ltcode, "_draw_pass", refuse)
        got = codec.receive(struct_datagram(start, wsize, 1.0, honest, 1024, bytes(1024)))
        assert got[0].tolist() == [honest]
        meta = codec.meta_from_header(DafHeader(start, wsize, 1.0, honest, 1024))
        assert meta.neighbors == tuple(codec.neighbors[codec.indptr[honest - 1]:
                                                       codec.indptr[honest]].tolist())
        for pid in (honest + 1, codec.total_coded + 1, 0):
            with pytest.raises(ProtocolError, match="PacketID"):
                codec.receive(struct_datagram(start, wsize, 1.0, pid, 1024, bytes(1024)))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_datagrams_give_compositions_or_protocol_error(self, codec, data):
        # one to four consecutive honest datagrams, some header bytes
        # overwritten, then cut anywhere
        size = HEADER_LEN + codec.trace.payload_bytes
        n = data.draw(st.integers(1, 4))
        first = data.draw(st.integers(1, codec.total_coded - n + 1))
        wire = codec.send(first, first + n - 1, np.ones(codec.total_coded, dtype=bool))
        for _ in range(data.draw(st.integers(0, 6))):
            row = data.draw(st.integers(0, n - 1))
            byte = data.draw(st.integers(0, HEADER_LEN - 1))
            wire[row * size + byte] = data.draw(st.integers(0, 255))
        cut = data.draw(st.one_of(st.just(len(wire)), st.integers(0, len(wire))))
        received = bytes(wire[:cut])
        try:
            pids, _ = codec.receive(received)
        except ProtocolError:
            return
        # an accepted header names the window its PacketID's composition lies in
        start, wsize, _, pid = decode_datagrams(received, codec.trace.payload_bytes)
        assert pids.tolist() == pid.tolist()
        for start, wsize, pid in zip(start.tolist(), wsize.tolist(), pid.tolist()):
            row = codec.neighbors[codec.indptr[pid - 1]:codec.indptr[pid]]
            assert len(row) and np.all((start <= row) & (row < start + wsize))

    def test_negative_zero_slope_refused(self, flat):
        # -0.0 equals 0.0 as a number, but it is not the bytes a sender writes
        start, wsize, slope = self.entry(flat)
        pid = self.sent(flat)[0]
        assert slope == 0.0
        honest = struct_datagram(start, wsize, 0.0, pid, 1024, bytes(1024))
        assert flat.receive(honest)[0].tolist() == [pid]
        with pytest.raises(ProtocolError, match=f"SlopeF -0.0 is not the slope of the window "
                                                f"at StartP {start}"):
            flat.receive(struct_datagram(start, wsize, -0.0, pid, 1024, bytes(1024)))
        with pytest.raises(ProtocolError, match="SlopeF -0.0 is not the slope"):
            flat.meta_from_header(DafHeader(start, wsize, -0.0, pid, 1024))

    @pytest.mark.parametrize("which", ["codec", "flat"])
    def test_receive_and_meta_from_header_refuse_alike(self, request, which):
        codec = request.getfixturevalue(which)
        start, wsize, slope = self.entry(codec)
        pid, N = self.sent(codec)[0], codec.total_coded
        hostile = {"WSize 0 outside": (start, 0, slope, pid, 1024),
                   "SlopeF nan outside": (start, wsize, math.nan, pid, 1024),
                   "P 512 is not the session's": (start, wsize, slope, pid, 512),
                   f"PacketID {N + 1} outside the session's": (start, wsize, slope, N + 1, 1024),
                   "PacketID 0 outside the session's": (start, wsize, slope, 0, 1024),
                   f"PacketID {pid} is not sent through the window at StartP {start + 1}":
                       (start + 1, wsize, slope, pid, 1024),
                   "SlopeF 0.25 is not the slope": (start, wsize, 0.25, pid, 1024),
                   "SlopeF -0.0 is not the slope": (start, wsize, -0.0, pid, 1024)}
        for message, fields in hostile.items():
            raw = struct_datagram(*fields)
            got = outcome(codec.receive, raw + bytes(1024))
            assert got.startswith(message), (got, message)
            assert outcome(lambda: codec.meta_from_header(decode_header(raw))) == got

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_give_packets_or_protocol_error(self, codec, data):
        # any bytes of any length, or whole datagrams whose headers are
        # honest, honest but for some bytes, or random
        P, N = codec.trace.payload_bytes, codec.total_coded
        size = HEADER_LEN + P
        if data.draw(st.booleans()):
            wire = data.draw(st.binary(max_size=3 * size))
        else:
            wire = b""
            for _ in range(data.draw(st.integers(0, 3))):
                kind = data.draw(st.sampled_from(["honest", "bytes", "random"]))
                if kind == "random":
                    head = bytearray(data.draw(st.binary(min_size=HEADER_LEN,
                                                         max_size=HEADER_LEN)))
                else:
                    head = bytearray(codec.headers[data.draw(st.integers(0, N - 1))].tobytes())
                for _ in range(data.draw(st.integers(1, 3)) if kind == "bytes" else 0):
                    head[data.draw(st.integers(0, HEADER_LEN - 1))] = data.draw(
                        st.integers(0, 255))
                wire += bytes(head) + bytes([data.draw(st.integers(0, 255))]) * P
        try:
            pids, rows = codec.receive(wire)
        except ProtocolError:
            return
        # what is accepted is whole datagrams, each header its PacketID's record
        assert len(wire) == len(pids) * size and rows.shape == (len(pids), P)
        for i, pid in enumerate(pids.tolist()):
            assert 1 <= pid <= N
            assert wire[i * size:i * size + HEADER_LEN] == codec.headers[pid - 1].tobytes()
            assert rows[i].tobytes() == wire[i * size + HEADER_LEN:(i + 1) * size]


def outcome(check, *args):
    """check's result, or the message of the ProtocolError it raised."""
    try:
        return check(*args)
    except ProtocolError as error:
        return str(error)


class TestReceive:
    """receive accepts a block exactly when each header's 15 bytes are the
    record of its PacketID, and refuses the first header that is not."""

    @pytest.fixture(scope="class", params=[("readme-300", "DAF"), ("readme-300", "DAF-L"),
                                           ("relay-payload-300", "DAF")])
    def codec(self, request, workloads):
        name, mode = request.param
        inp = workloads.build(name, workloads.DEFAULT_SEED)
        return session_plan(next(c.params for c in inp.cells if c.mode == mode))

    @pytest.mark.parametrize("name", ["readme-300", "relay-payload-300"])
    def test_headers_are_the_encoders_bytes_and_read_only(self, workloads, name):
        inp = workloads.build(name, workloads.DEFAULT_SEED)
        P = inp.trace.payload_bytes
        for cell in inp.cells:
            codec = session_plan(cell.params)
            N = codec.total_coded
            want = b"".join(header_record(codec.schedule, P, pid) for pid in range(1, N + 1))
            assert codec.headers.dtype == np.uint8 and codec.headers.shape == (N, HEADER_LEN)
            assert np.array_equal(codec.headers, np.frombuffer(want, np.uint8).reshape(N, -1))
            with pytest.raises(ValueError, match="read-only"):
                codec.headers[0, 0] = 0

    def test_honest_blocks_are_accepted_by_their_bytes(self, codec, monkeypatch):
        N, P = codec.total_coded, codec.trace.payload_bytes
        delivered = np.random.default_rng(3).random(N) < 0.8

        def refuse(*args):
            raise AssertionError("an honest header was refused")
        monkeypatch.setattr(SessionCodec, "_refuse", refuse)
        for first, last in session_blocks(N, P):
            data = codec.send(first, last, delivered)
            pids, rows = codec.receive(data)
            assert pids.dtype == np.int64 and rows.dtype == np.uint8
            assert pids.tolist() == (first + np.flatnonzero(delivered[first - 1:last])).tolist()
            assert np.array_equal(rows, datagram_records(data, P)["payload"])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepts_and_rejects_what_the_full_checks_do(self, codec, data):
        # one to four honest datagrams, some header bytes overwritten (a
        # byte, SlopeF -0.0, another P or another PacketID), then cut anywhere
        P, N = codec.trace.payload_bytes, codec.total_coded
        size = HEADER_LEN + P
        n = data.draw(st.integers(1, 4))
        first = data.draw(st.integers(1, N - n + 1))
        wire = codec.send(first, first + n - 1, np.ones(N, dtype=bool))
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, n - 1)) * size
            kind = data.draw(st.sampled_from(["byte", "-0.0", "P", "PacketID"]))
            if kind == "byte":
                wire[at + data.draw(st.integers(0, HEADER_LEN - 1))] = data.draw(
                    st.integers(0, 255))
            elif kind == "-0.0":
                wire[at + 6:at + 10] = b"\x80\0\0\0"
            elif kind == "P":
                wire[at + 13:at + 15] = data.draw(st.sampled_from(
                    [P - 1, P + 1, 1, 0, 0xFFFF])).to_bytes(2, "big")
            else:
                pid = data.draw(st.sampled_from([0, 1, N, N + 1, (1 << 24) - 1, None]))
                pid = data.draw(st.integers(1, N)) if pid is None else pid
                wire[at + 10:at + 13] = pid.to_bytes(3, "big")
        cut = data.draw(st.one_of(st.just(len(wire)), st.integers(0, len(wire))))
        received = bytes(wire[:cut])
        # accepted exactly when whole datagrams arrive, each header packed
        # field by field from the window that sends its PacketID
        heads = [received[at:at + HEADER_LEN] for at in range(0, cut, size)]
        pids = [int.from_bytes(head[10:13], "big") for head in heads]
        if cut % size or any(head != header_record(codec.schedule, P, pid)
                             for head, pid in zip(heads, pids)):
            with pytest.raises(ProtocolError):
                codec.receive(received)
        else:
            got, rows = codec.receive(received)
            assert got.tolist() == pids
            assert rows.tobytes() == b"".join(received[at + HEADER_LEN:at + size]
                                              for at in range(0, cut, size))


class TestHeaderRule:
    """meta_from_header finds a header's record by its PacketID alone; it
    must reject exactly the headers the (StartP, WSize) lookup rule rejects."""

    @pytest.fixture(scope="class", params=[("relay-payload-300", "DAF"),
                                           ("readme-300", "Expand")])  # Expand shares StartP
    def codec(self, request, workloads):
        name, mode = request.param
        inp = workloads.build(name, workloads.DEFAULT_SEED)
        return session_plan(next(c.params for c in inp.cells if c.mode == mode))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_rejects_exactly_what_the_lookup_rule_rejects(self, codec, data):
        # honest headers with fields taken from another entry, moved by one
        # (SlopeF by one float32 step, + 0.0 keeping it off -0.0, which the
        # lookup rule takes for 0.0), or a PacketID of a neighbouring window
        s, N, P = codec.schedule, codec.total_coded, codec.trace.payload_bytes
        entries = len(s.start_packet)
        for _ in range(data.draw(st.integers(1, 3))):
            pid = data.draw(st.integers(1, N))
            e = int(np.searchsorted(s.cum_sent, pid))
            header = [int(s.start_packet[e]), int(s.window_packets[e]), float(s.slope[e]), pid, P]
            for _ in range(data.draw(st.integers(0, 2))):
                field = data.draw(st.integers(0, 4))
                shift = data.draw(st.sampled_from([-1, 1]))
                borrow = field < 4 and data.draw(st.booleans())
                if borrow and field == 3:  # the PacketID just outside this window's
                    header[3] = int(s.cum_sent[e]) + 1 if shift > 0 else (
                        int(s.cum_sent[e - 1]) if e else 0)
                elif borrow:  # the field of another entry
                    column = (s.start_packet, s.window_packets, s.slope)[field]
                    header[field] = column[data.draw(st.integers(0, entries - 1))].item()
                elif field == 2:  # the next float32 SlopeF
                    header[2] = np.nextafter(np.float32(header[2]),
                                             np.float32(shift * np.inf)).item() + 0.0
                else:
                    header[field] += shift
            try:
                codec.meta_from_header(DafHeader(*header))
            except ProtocolError:
                assert not header_rule_oracle(s, P, *header), header
            else:
                assert header_rule_oracle(s, P, *header), header


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
