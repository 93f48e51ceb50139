import numpy as np
import pytest

from dafstream.errors import ConfigError
from dafstream.harness import session_slopes
from dafstream.trace import (VideoTrace, constant_trace, random_trace,
                             sinusoidal_trace)
from dafstream.windowing import (Mode, build_schedule, derive_params,
                                 wcp_frames, wcp_packets)

from oracles import COLUMNS, FrameIndex, last_covering_oracle, schedule_oracle


def uniform_trace(num_frames, packets=1, payload=64, fps=30, gop=1):
    return VideoTrace.from_frame_bytes([packets * payload] * num_frames, fps,
                                       payload, gop)


class TestDeriveParams:
    def test_coded_per_step_from_data_rate(self):
        # 3166 kbps at F=30, P=1024 -> about 12.88 coded packets per frame
        t = constant_trace(300, 9000, frame_rate=30, payload_bytes=1024)
        p = derive_params(t, "DAF", 24, step_frames=1,
                          data_rate=3166 * 1000 / 8)
        assert p.coded_per_step == pytest.approx(3166 * 1000 / 8 / (30 * 1024))
        assert p.coded_per_step == pytest.approx(12.88, abs=0.01)

    def test_block_step_count(self):
        t = uniform_trace(300)
        p = derive_params(t, "Block", 30, step_frames=1, code_rate=0.8)
        assert p.mode is Mode.BLOCK
        assert p.step_frames == p.window_frames == 15
        assert p.num_steps == 300 // 15 - 1

    def test_window_count_matches_substitution(self):
        # 300 frames, window 20, step 5 -> 56 advance steps
        t = sinusoidal_trace(300, 9000, 4000, 60)
        p = derive_params(t, "DAF", 25, step_frames=5, code_rate=0.8)
        assert p.window_frames == 20
        assert p.num_steps == 56

    def test_code_rate_round_trip(self):
        t = uniform_trace(120, packets=3)
        p = derive_params(t, "DAF-L", 24, code_rate=0.75)
        assert p.code_rate == pytest.approx(0.75, abs=0.01)
        # deriving back from the data rate gives the same totals
        q = derive_params(t, "DAF-L", 24, data_rate=p.data_rate)
        assert q.total_coded == p.total_coded

    def test_infeasible_delay(self):
        t = uniform_trace(30)
        with pytest.raises(ConfigError, match="infeasible"):
            derive_params(t, "DAF", 9, step_frames=5, code_rate=0.8)

    def test_gop_multiple_enforced(self):
        t = uniform_trace(30, gop=3)
        with pytest.raises(ConfigError, match="GOP"):
            derive_params(t, "DAF", 10, step_frames=2, code_rate=0.8)

    def test_exactly_one_rate_argument(self):
        t = uniform_trace(30)
        with pytest.raises(ConfigError, match="exactly one"):
            derive_params(t, "DAF", 10, code_rate=0.8, data_rate=1e5)
        with pytest.raises(ConfigError, match="exactly one"):
            derive_params(t, "DAF", 10)

    def test_more_coded_packets_than_packet_ids_rejected(self):
        # four frames of 2**23 packets: k / code rate passes 2**24 - 1 coded
        # packets, and no per-packet array is built to find out
        t = VideoTrace(frame_rate=30.0, gop_size=1, payload_bytes=1,
                       frame_bytes=(1 << 23,) * 4, packets_per_frame=(1 << 23,) * 4)
        with pytest.raises(ConfigError, match="PacketID"):
            derive_params(t, "DAF", 3, code_rate=0.9)

    def test_window_wider_than_wsize_rejected(self):
        # 5-frame windows: 5 x 13,107 = 65,535 packets fit WSize, 5 x 13,108 do not
        fits = constant_trace(6, 13107 * 16, payload_bytes=16)
        assert derive_params(fits, "DAF-L", 6, code_rate=0.9).window_frames == 5
        wide = constant_trace(6, 13108 * 16, payload_bytes=16)
        with pytest.raises(ConfigError, match="widest window holds 65540 packets"):
            derive_params(wide, "DAF-L", 6, code_rate=0.9)
        with pytest.raises(ConfigError, match="widest window holds 77000 packets"):
            derive_params(constant_trace(12, 7000 * 16, payload_bytes=16), "DAF-L", 12,
                          code_rate=0.9)

    def test_frame_in_no_window_rejected(self):
        # fixed-size S-LT windows 5 frames apart skip frames no padding excuses
        t = random_trace(120, 1, 9, seed=0)
        with pytest.raises(ConfigError, match="72 frames outside the padding lie in no window"):
            derive_params(t, "S-LT", 12, step_frames=5, code_rate=0.8)
        # at step 1 only cool-down padding is left out, which is allowed
        p = derive_params(t, "S-LT", 12, step_frames=1, code_rate=0.8)
        warm, cool = wcp_frames(p, t)
        last = build_schedule(p, t).last_covering_entry(120)
        assert np.all(last[len(warm) + 1:121 - len(cool)] > 0)
        assert not np.all(last[1:] > 0)

    def test_slt_fixed_window_is_minimum(self):
        t = random_trace(40, 1, 7, seed=5)
        p = derive_params(t, "S-LT", 12, code_rate=0.8)
        idx = FrameIndex(t)
        W = p.window_frames
        expected = min(idx.packets_in_frames(f, W)
                       for f in range(1, t.num_frames - W + 2))
        assert p.fixed_window_packets == expected


def rows(sched):
    """(start frame, StartP, WSize, budget) of every entry."""
    return list(zip(sched.start_frame.tolist(), sched.start_packet.tolist(),
                    sched.window_packets.tolist(), np.diff(sched.cum_sent, prepend=0).tolist()))


class TestSchedule:
    def test_uniform_trace_entries(self):
        t = uniform_trace(6)
        p = derive_params(t, "DAF-L", 4, step_frames=2, code_rate=1.0)
        assert p.window_frames == 2
        sched = build_schedule(p, t)
        assert sched.start_frame.tolist() == [1, 3, 5]
        assert sched.start_packet.tolist() == [1, 3, 5]
        assert sched.window_packets.tolist() == [2, 2, 2]

    def test_expanding_mode_pins_start(self):
        t = uniform_trace(8, packets=2)
        p = derive_params(t, "Expand", 5, step_frames=1, code_rate=1.0)
        assert p.window_frames == 4
        sched = build_schedule(p, t)
        assert len(sched.start_frame) == 8
        starts = sched.start_packet.tolist()
        sizes = sched.window_packets.tolist()
        assert starts == [1, 1, 1, 1, 9, 9, 9, 9]
        assert sizes == [2, 4, 6, 8, 2, 4, 6, 8]

    def test_slt_windows_fixed_size_on_frame_boundaries(self):
        # repeating 3,4,2,2 packet counts; 9-frame windows hold 24..26 packets
        payload = 64
        sizes = ([3 * payload, 4 * payload, 2 * payload, 2 * payload] * 10)[:40]
        t = VideoTrace.from_frame_bytes(sizes, 30, payload)
        p = derive_params(t, "S-LT", 10, code_rate=0.9)
        assert p.window_frames == 9
        assert p.fixed_window_packets == 24
        sched = build_schedule(p, t)
        idx = FrameIndex(t)
        for start_frame, end_frame, start_packet, wsize in zip(
                sched.start_frame.tolist(), sched.end_frame.tolist(),
                sched.start_packet.tolist(), sched.window_packets.tolist()):
            assert wsize == 24
            assert start_packet == idx.first_packet(start_frame)
            # replay by hand: the window holds whole frames until 24 packets
            total, f = 0, start_frame
            while f <= t.num_frames and total + t.packets_per_frame[f - 1] <= 24:
                total += t.packets_per_frame[f - 1]
                f += 1
            assert end_frame >= f - 1
            assert start_packet + 23 <= t.total_packets

    def test_running_total_equals_total_coded(self):
        for mode in ("DAF-L", "S-LT", "Block", "Expand"):
            t = random_trace(60, 1, 6, seed=11)
            p = derive_params(t, mode, 12, code_rate=0.8)
            sched = build_schedule(p, t)
            assert sched.cum_sent[-1] == p.total_coded
            assert np.diff(sched.cum_sent, prepend=0).sum() == p.total_coded

    def test_fractional_budgets_accumulate_by_floor(self):
        t = uniform_trace(60, packets=3)
        p = derive_params(t, "DAF-L", 12, code_rate=0.77)
        sched = build_schedule(p, t)
        budget = np.diff(sched.cum_sent, prepend=0)
        for index, cum in enumerate(sched.cum_sent[:-1].tolist(), start=1):
            assert cum == int(index * p.coded_per_step)
            assert budget[index - 1] >= 0

    def test_coverage_counts(self):
        t = random_trace(60, 1, 5, seed=2)
        p = derive_params(t, "DAF-L", 12, step_frames=2, code_rate=0.8)
        sched = build_schedule(p, t)
        counts = [0] * (t.num_frames + 1)
        for first, end in zip(sched.start_frame.tolist(), sched.end_frame.tolist()):
            for f in range(first, end + 1):
                counts[f] += 1
        warm, cool = wcp_frames(p, t)
        full = p.window_frames // p.step_frames
        for f in range(1, t.num_frames + 1):
            if f in warm or f in cool:
                assert counts[f] < full
            else:
                assert counts[f] == full

    def test_block_equals_sliding_with_step_w(self):
        t = uniform_trace(60, packets=2)
        block = derive_params(t, "Block", 24, step_frames=12, code_rate=0.8)
        sliding = derive_params(t, "DAF-L", 24, step_frames=12, code_rate=0.8)
        assert block.window_frames == sliding.window_frames == 12
        bs = build_schedule(block, t)
        ss = build_schedule(sliding, t)
        for a, b in zip(rows(bs), rows(ss)):
            assert a == b

    def test_slopes_are_float32_truncated(self):
        t = uniform_trace(12)
        p = derive_params(t, "DAF", 4, step_frames=1, code_rate=1.0)
        value = 0.1234567890123  # not representable in float32
        sched = build_schedule(p, t, slopes=[value] * len(
            build_schedule(p, t).start_frame))
        import struct
        expected = struct.unpack(">f", struct.pack(">f", value))[0]
        assert sched.slope[0] == expected


def assert_matches_oracle(sched, params, trace, slopes):
    want = schedule_oracle(params, trace, slopes)
    for c in COLUMNS:
        column = getattr(sched, c)
        assert column.dtype == (np.float64 if c == "slope" else np.int64), c
        assert column.tolist() == want[c], c
    T = trace.num_frames
    assert np.array_equal(sched.last_covering_entry(T), last_covering_oracle(sched, T))


class TestColumnarSchedule:
    def test_bench_cells(self, workloads):
        cells = 0
        for name in ("readme-300", "long-daf-1800", "relay-payload-300"):
            inp = workloads.build(name, workloads.DEFAULT_SEED)
            for cell in inp.cells:
                slopes = session_slopes(inp.trace, cell.params)
                sched = build_schedule(cell.params, inp.trace, slopes=slopes)
                assert_matches_oracle(sched, cell.params, inp.trace, slopes)
                cells += 1
        assert cells == 8

    def test_mode_step_delay_grid(self):
        # fixed-size S-LT windows leave some frames that no entry touches
        rng = np.random.default_rng(4)
        checked = 0
        for seed in range(2):
            t = random_trace(120, 1, 9, seed=seed)
            for mode in Mode:
                for step in (1, 2, 5):
                    for delay in (12, 24, 40):
                        try:
                            p = derive_params(t, mode, delay, step_frames=step, code_rate=0.8)
                        except ConfigError:
                            continue
                        count = len(build_schedule(p, t).start_frame)
                        # a short slope list leaves the last entries at 0
                        slopes = rng.uniform(-1, 1, size=int(rng.integers(count // 2, count + 1)))
                        for given in (None, slopes):
                            assert_matches_oracle(build_schedule(p, t, slopes=given), p, t, given)
                        checked += 1
        assert checked >= 60


class TestWcp:
    def test_step_one(self):
        t = uniform_trace(300)
        p = derive_params(t, "DAF-L", 21, step_frames=1, code_rate=0.8)
        assert p.window_frames == 20
        warm, cool = wcp_frames(p, t)
        assert warm == frozenset(range(1, 20))
        assert cool == frozenset(range(282, 301))

    def test_block_mode_empty(self):
        t = uniform_trace(60)
        p = derive_params(t, "Block", 24, step_frames=1, code_rate=0.8)
        warm, cool = wcp_frames(p, t)
        assert warm == cool == frozenset()

    def test_step_five(self):
        t = uniform_trace(300)
        p = derive_params(t, "DAF-L", 25, step_frames=5, code_rate=0.8)
        assert p.window_frames == 20
        warm, cool = wcp_frames(p, t)
        assert warm == frozenset(range(1, 16))
        assert cool == frozenset(range(286, 301))

    def test_wcp_packets_match_frames(self):
        t = random_trace(30, 1, 4, seed=9)
        p = derive_params(t, "DAF-L", 8, step_frames=2, code_rate=0.8)
        warm, cool = wcp_frames(p, t)
        idx = FrameIndex(t)
        expected = set()
        for f in warm | cool:
            first = idx.first_packet(f)
            expected.update(range(first, first + t.packets_per_frame[f - 1]))
        assert wcp_packets(p, t) == expected
