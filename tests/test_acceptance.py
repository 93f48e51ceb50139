"""Acceptance suite: one test per criterion, printed as one line each.

Fixtures are pinned: the fluctuating "foreman-like" sequence is a 300-frame
sinusoid (9500 +/- 5500 bytes, 100-frame period, 25000-byte opening frame,
30 fps, 1024-byte packets), and every Monte-Carlo criterion uses seeds 0..19
with medians, mirroring the experiment methodology.
"""

import math
import re
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from dafstream.channel import ChannelModel
from dafstream.harness import SessionCodec, delay_to_frames, run_session, sweep
from dafstream.protocol import (GOLDEN_BYTES, GOLDEN_HEADER, DafHeader,
                                decode_header, encode_header)
from dafstream.sampling import (asp_from_matrix, optimize_per_frame,
                                optimize_slopes, slope_coeffs, slope_matrix)
from dafstream.trace import (burst_trace, constant_trace, random_trace,
                             sinusoidal_trace)
from dafstream.windowing import build_schedule, derive_params, wcp_packets

from oracles import (direct_asp_from_slopes, in_time_oracle, iter_coded_packets,
                     perframe_grid_oracle, plan_objective, slope_grid_oracle)

SEEDS = range(20)

README = Path(__file__).resolve().parents[1] / "README.md"

# Fig. 12/13-analog grids: delay sweep at C=0.85, rate sweep at 1.5 s.
TREND_MODES = ("DAF", "DAF-L", "S-LT", "Block", "Expand")
DELAYS_S = (0.5, 1.0, 1.5, 1.83)


def foreman_like():
    return sinusoidal_trace(300, mean_bytes=9500, amp_bytes=5500,
                            period_frames=100, frame_rate=30,
                            payload_bytes=1024, first_frame_bytes=25000)


def median_metrics(trace, mode, code_rate, delay_s, channel):
    params = derive_params(trace, mode, delay_to_frames(delay_s, trace.frame_rate),
                           step_frames=1, code_rate=code_rate)
    idrs, fdrs = [], []
    for seed in SEEDS:
        m = run_session(trace, params, channel, seed).metrics()
        idrs.append(m.idr)
        fdrs.append(m.fdr)
    return statistics.median(idrs), statistics.median(fdrs)


def trend_ok(values, decreasing=False, slack=0.02):
    """Monotone apart from at most one inversion of at most `slack`."""
    seq = [-v for v in values] if decreasing else list(values)
    inversions = [seq[i] - seq[i + 1] for i in range(len(seq) - 1)
                  if seq[i] > seq[i + 1]]
    return len(inversions) <= 1 and all(gap <= slack for gap in inversions)


def test_criterion_01_asp_flattening():
    start = time.monotonic()
    trace = burst_trace(300, low_bytes=4000, high_bytes=12000,
                        period_frames=50, frame_rate=30, payload_bytes=1024)
    window, step = 20, 5
    frame_plan = optimize_per_frame(trace, window, step)
    slope_plan = optimize_slopes(trace, window, step)
    ds, w = slope_plan.domain_trace, slope_plan.window
    uniform = slope_matrix(ds, w, np.zeros_like(slope_plan.slopes))
    var_uniform = asp_from_matrix(uniform, ds, w).stable_variance()
    var_slope = slope_plan.asp().stable_variance()
    var_frame = frame_plan.asp().stable_variance()
    elapsed = time.monotonic() - start
    assert var_frame <= var_slope <= var_uniform
    assert var_frame <= 0.25 * var_uniform
    assert elapsed < 30
    print(f"ACCEPTANCE 01 ASP flattening: PASS "
          f"(var uniform={var_uniform:.4f} slope={var_slope:.4f} "
          f"per-frame={var_frame:.2e}, {elapsed:.1f}s)")


def test_criterion_02_optimizers_match_oracles():
    start = time.monotonic()
    cases = [(4, 2), (5, 2), (6, 2), (7, 2), (8, 2),
             (6, 3), (7, 3), (8, 3), (8, 3), (7, 2)]
    worst_frame = worst_slope = 0.0
    for i, (T, W) in enumerate(cases):
        trace = random_trace(T, 1, 5, seed=100 + i, payload_bytes=64)
        j_frame = plan_objective(optimize_per_frame(trace, W))
        _, oracle_frame = perframe_grid_oracle(trace, W)
        worst_frame = max(worst_frame, abs(j_frame - oracle_frame))
        assert j_frame == pytest.approx(oracle_frame, abs=1e-6), (T, W, i)
        j_slope = plan_objective(optimize_slopes(trace, W))
        _, oracle_slope = slope_grid_oracle(trace, W)
        worst_slope = max(worst_slope, abs(j_slope - oracle_slope))
        assert j_slope == pytest.approx(oracle_slope, abs=1e-6), (T, W, i)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(f"ACCEPTANCE 02 optimizer vs oracle: PASS "
          f"(worst |gap| per-frame={worst_frame:.2e} slope={worst_slope:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_03_affine_form_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(6, 16))
        W = int(rng.integers(2, min(6, T)))
        trace = random_trace(T, 1, 7, seed=int(rng.integers(1 << 30)),
                             payload_bytes=64)
        coeffs = slope_coeffs(trace, W)
        a = rng.uniform(-1, 1, size=T - W + 1)
        affine = coeffs.d1 @ a + coeffs.d2
        direct = direct_asp_from_slopes(trace, W, a)
        worst = max(worst, float(np.abs(affine - direct).max()))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 03 affine-form equivalence: PASS (worst gap {worst:.2e})")


def test_criterion_04_mass_conservation():
    worst = 0.0
    for seed in range(20):
        trace = random_trace(16, 1, 6, seed=seed, payload_bytes=64)
        W = 4
        windows = trace.num_frames - W + 1
        profiles = [
            asp_from_matrix(slope_matrix(trace, W, np.zeros(windows)), trace, W),
            optimize_slopes(trace, W).asp(),
            optimize_per_frame(trace, W).asp(),
        ]
        for prof in profiles:  # sum of s(t) * P(t)
            mass = float(np.dot(prof.packets_per_frame, prof.values))
            worst = max(worst, abs(mass - windows))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 04 mass conservation: PASS (worst gap {worst:.2e})")


def test_criterion_05_protocol_golden_and_round_trips():
    assert encode_header(GOLDEN_HEADER) == GOLDEN_BYTES
    assert decode_header(GOLDEN_BYTES) == GOLDEN_HEADER
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        header = DafHeader(
            start_packet=int(rng.integers(1, 1 << 32)),
            window_packets=int(rng.integers(1, 1 << 16)),
            slope_factor=float(rng.uniform(-1, 1)),
            packet_id=int(rng.integers(0, 1 << 24)),
            payload_bytes=int(rng.integers(1, 1 << 16)))
        assert decode_header(encode_header(header)) == header
    print("ACCEPTANCE 05 protocol golden + 10^4 round-trips: PASS")


def test_criterion_06_session_determinism():
    # 4200 native packets at code rate 0.42 -> exactly 10^4 coded packets
    trace = constant_trace(600, 7 * 1024, frame_rate=30, payload_bytes=1024)
    params = derive_params(trace, "DAF", 30, code_rate=0.42)
    assert params.total_coded == 10_000
    codec = SessionCodec(params)
    checked = 0
    for header, meta, _ in iter_coded_packets(params, codec=codec):
        rx_meta = codec.meta_from_header(decode_header(encode_header(header)))
        assert rx_meta.degree == meta.degree
        assert rx_meta.neighbors == meta.neighbors
        checked += 1
    assert checked == 10_000
    channel = ChannelModel(kind="single", loss_rate=0.1)
    a = run_session(trace, params, channel, 5)
    b = run_session(trace, params, channel, 5)
    assert a.canonical_bytes() == b.canonical_bytes()
    print(f"ACCEPTANCE 06 determinism: PASS ({checked} packets, "
          f"identical result bytes)")


def test_criterion_07_lossless_decode():
    # On a lossless channel the seed drives nothing, so one session stands
    # for all. Exact 100% IDR is not attainable at this rate: three packets
    # (329, 589, 1676 in frames 42, 74, 210) were sampled 3, 1 and 2 times
    # by equations sent by their frame's deadline, yet none of them is
    # in the GF(2) span of those equations, so no decoder could release them
    # in time; cascades release them after the deadline. The in-time set is
    # therefore held to the ideal-decoder bound (an independent elimination
    # over the encoder's equations), and every packet must decode by the end.
    trace = constant_trace(300, 8 * 1024, frame_rate=30, payload_bytes=1024)
    params = derive_params(trace, "DAF-L", 30, code_rate=0.7)
    channel = ChannelModel(kind="single", loss_rate=0.0)
    result = run_session(trace, params, channel, 0)
    other = run_session(trace, params, channel, 1)
    assert np.array_equal(other.decode_time, result.decode_time)
    assert (other.in_time, other.late, other.never) == \
        (result.in_time, result.late, result.never)
    m = result.metrics()
    assert m.fdr == 1.0, f"FDR {m.fdr:.4f} < 100%"

    schedule = build_schedule(params)
    equations = [meta.neighbors for _, meta, _ in iter_coded_packets(params)]
    bound = in_time_oracle(trace, schedule, equations,
                           wcp_packets(params))
    frame_of = np.repeat(np.arange(1, trace.num_frames + 1),
                         trace.packets_per_frame)
    in_time = {p for p in range(1, trace.total_packets + 1)
               if p not in result.wcp
               and result.decode_time[p] <= result.frame_deadline[frame_of[p - 1]]}
    assert len(in_time) == result.in_time
    assert in_time == bound, (f"in time but not determined: {sorted(in_time - bound)}; "
                              f"determined but not in time: {sorted(bound - in_time)}")
    print(f"ACCEPTANCE 07 lossless decode: PASS (FDR=100%, IDR={m.idr * 100:.2f}% "
          f"= ideal-decoder bound, {len(bound)} packets)")


@pytest.fixture(scope="module")
def readme_point():
    """Median (IDR, FDR) of every scheme at README's operating point (code
    rate 0.74, 0.8 s delay, 10% loss, seeds 0..19), and the sweep's seconds."""
    start = time.monotonic()
    rows = sweep(foreman_like(), TREND_MODES, [0.74], [0.8],
                 [ChannelModel(kind="single", loss_rate=0.10)], repetitions=len(SEEDS),
                 base_seed=SEEDS[0])
    return {r.mode: (r.idr, r.fdr) for r in rows}, time.monotonic() - start


def test_criterion_08_scheme_ordering(readme_point):
    results, elapsed = readme_point
    line = " ".join(f"{m}={results[m][0] * 100:.2f}%" for m in results)
    assert results["DAF"][0] > results["DAF-L"][0] > results["S-LT"][0] \
        > results["Block"][0], line
    block_idr, block_fdr = results["Block"]
    assert block_idr == block_fdr
    assert elapsed < 600
    print(f"ACCEPTANCE 08 scheme ordering: PASS ({line}, {elapsed:.0f}s)")


def readme_results_table():
    """{scheme: (IDR, FDR) cells} of README's results table, as printed."""
    lines = README.read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("| scheme |"))
    table = {}
    for line in lines[first + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        scheme, idr, fdr = (cell.strip() for cell in line.strip("|").split("|")[:3])
        table[scheme] = (idr, fdr)
    return table


def test_readme_results_table_is_recomputed(readme_point):
    results, _ = readme_point
    printed = {mode: (f"{idr * 100:.2f}%", f"{fdr * 100:.2f}%")
               for mode, (idr, fdr) in results.items()}
    assert readme_results_table() == printed


@pytest.fixture(scope="module")
def delay_sweep():
    """Median (IDR, FDR) per scheme at code rate 0.85 and 10% loss, at each
    of 09a's delays (0.5, 1.0, 1.5 and 1.83 s), seeds 0..19."""
    trace = foreman_like()
    channel = ChannelModel(kind="single", loss_rate=0.10)
    return {mode: [median_metrics(trace, mode, 0.85, d, channel) for d in DELAYS_S]
            for mode in TREND_MODES}


def test_criterion_09a_idr_non_decreasing_in_delay(delay_sweep):
    # Block is held to IDR == FDR and to DAF's lead, not to monotonicity. At
    # C=0.85 with 10% loss a block receives about 0.9/0.85 = 1.06 times its
    # size, less than the LT code needs, so only blocks in the troughs of the
    # trace decode; a longer delay means fewer, larger blocks that average
    # the troughs away (median blocks decoded 16/50, 6/20, 4/15, 5/12), and
    # nothing in the design makes that trade monotone.
    medians = delay_sweep
    idrs = {mode: [idr for idr, _ in vals] for mode, vals in medians.items()}
    lines = {mode: f"{mode}: " + " ".join(f"{v * 100:.2f}" for v in vals)
             for mode, vals in idrs.items()}
    failures = [lines[mode] for mode in TREND_MODES
                if mode != "Block" and not trend_ok(idrs[mode], decreasing=False)]
    assert not failures, "non-monotone in delay: " + "; ".join(failures)
    assert all(idr == fdr for idr, fdr in medians["Block"]), lines["Block"]
    assert all(daf > block for daf, block in zip(idrs["DAF"], idrs["Block"])), \
        lines["DAF"] + "; " + lines["Block"]
    print("ACCEPTANCE 09a IDR vs delay: PASS (" + " | ".join(lines.values()) + ")")


def readme_known_deviations():
    """README "Known deviations": the cells of each row of the delay table
    and DAF's IDR at the same delays, as printed."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Known deviations"):]
    lines = section.splitlines()
    first = next(i for i, line in enumerate(lines) if line.strip().startswith("| delay |"))
    rows = []
    for line in lines[first + 2:]:  # past the header and its rule
        if not line.strip().startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    daf = re.search(r"\(DAF ([\d.]+), ([\d.]+),\s+([\d.]+), ([\d.]+)%\)", section)
    return rows, [f"{v}%" for v in daf.groups()]


def test_readme_known_deviations_are_recomputed(delay_sweep):
    rows, daf = readme_known_deviations()
    # delay, blocks, budget per block and blocks whose budget covers their
    # size at 10% loss come from the schedule alone; a block counts as
    # decoded in a session when every packet of its window is
    trace = foreman_like()
    channel = ChannelModel(kind="single", loss_rate=0.10)
    table = []
    for d in DELAYS_S:
        params = derive_params(trace, "Block", delay_to_frames(d, trace.frame_rate),
                               step_frames=1, code_rate=0.85)
        sched = build_schedule(params)
        budget = np.diff(sched.cum_sent, prepend=0)
        windows = list(zip(sched.start_packet.tolist(), sched.window_packets.tolist()))
        decoded = []
        for seed in SEEDS:
            finite = np.isfinite(run_session(trace, params, channel, seed).decode_time)
            decoded.append(sum(bool(finite[s:s + w].all()) for s, w in windows))
        table.append([f"{d} s", str(len(budget)), str(budget[0]),
                      str(np.count_nonzero(0.9 * budget >= sched.window_packets)),
                      f"{statistics.median(decoded):g}"])
    assert [row[:5] for row in rows] == table
    assert [row[-1] for row in rows] == [f"{idr * 100:.2f}%" for idr, _ in delay_sweep["Block"]]
    assert daf == [f"{idr * 100:.2f}%" for idr, _ in delay_sweep["DAF"]]


def test_criterion_09b_idr_non_increasing_in_code_rate():
    trace = foreman_like()
    channel = ChannelModel(kind="single", loss_rate=0.10)
    failures, lines = [], []
    for mode in TREND_MODES:
        vals = [median_metrics(trace, mode, c, 1.5, channel)[0]
                for c in (0.75, 0.85, 0.9, 1.0)]
        lines.append(f"{mode}: " + " ".join(f"{v * 100:.2f}" for v in vals))
        if not trend_ok(vals, decreasing=True):
            failures.append(lines[-1])
    assert not failures, "non-monotone in code rate: " + "; ".join(failures)
    print("ACCEPTANCE 09b IDR vs code rate: PASS (" + " | ".join(lines) + ")")


def test_criterion_10_mobile_relay_blackouts():
    trace = foreman_like()
    channel = ChannelModel(kind="mobile-relay", loss_rate=0.05,
                           period_s=2.0, duty=0.7)
    medians = {}
    for mode in ("DAF", "DAF-L", "S-LT"):
        params = derive_params(trace, mode, 24, code_rate=0.8)
        idrs, fdrs = [], []
        for seed in SEEDS:
            m = run_session(trace, params, channel, seed).metrics()
            idrs.append(m.idr)
            fdrs.append(m.fdr)
            assert m.fdr > m.idr, (mode, seed)
        medians[mode] = statistics.median(idrs)
    assert medians["DAF"] >= medians["DAF-L"]
    line = " ".join(f"{m}={v * 100:.2f}%" for m, v in medians.items())
    print(f"ACCEPTANCE 10 blackout behavior: PASS ({line})")
