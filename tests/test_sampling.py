import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafstream import sampling
from dafstream.config import load_config, params_from_config, trace_from_config
from dafstream.errors import SolverError
from dafstream.protocol import to_f32
from dafstream.sampling import (asp_from_matrix, band_sum, optimize_per_frame,
                                optimize_slopes, slope_coeffs, slope_matrix)
from dafstream.trace import (VideoTrace, burst_trace, constant_trace,
                             downsample, random_trace, sinusoidal_trace)

from oracles import (centered_gram, direct_asp_from_matrix,
                     direct_asp_from_slopes, perframe_grid_oracle, plan_objective,
                     slope_coeffs_oracle, slope_grid_oracle,
                     slope_matrix_oracle, slope_pdf, slope_solve_oracle,
                     stable_objective, uniform_matrix)

DATA = Path(__file__).parent / "data"


def total_mass(prof):
    """Sum of s(t) * P(t); equals the window count for any valid plan."""
    return float(np.dot(prof.packets_per_frame, prof.values))


def packets_trace(s, payload=64, fps=30):
    return VideoTrace.from_frame_bytes([v * payload for v in s], fps, payload)


def uniform_asp(t, W):
    """The ASP of uniform packet sampling (every slope 0)."""
    return asp_from_matrix(slope_matrix(t, W, np.zeros(t.num_frames - W + 1)), t, W)


def window_cases(workloads):
    """The bench traces at their DAF window, one downsampled to step 2, and
    short random traces with every window up to their length."""
    cases = []
    for name in ("readme-300", "long-daf-1800", "relay-payload-300"):
        inp = workloads.build(name, workloads.DEFAULT_SEED)
        W = next(c.params.window_frames for c in inp.cells if c.mode == "DAF")
        cases.append((inp.trace, W))
    cases.append((downsample(cases[0][0], 2), cases[0][1] // 2))
    for seed in range(4):
        t = random_trace(11, 1, 9, seed=seed)
        cases += [(t, W) for W in range(1, 12)]
    return cases


@st.composite
def short_traces(draw):
    """A random or burst trace of at most 60 frames, and a step of 1 or 2
    dividing its length."""
    step = draw(st.sampled_from([1, 2]))
    T = step * draw(st.integers(1, 60 // step))
    if draw(st.booleans()):
        t = random_trace(T, 1, draw(st.integers(1, 12)), seed=draw(st.integers(0, 2**32 - 1)))
    else:
        low = draw(st.integers(1, 9000))
        t = burst_trace(T, low, draw(st.integers(low, 24_000)), draw(st.integers(1, 40)))
    return t, step


def random_slopes(rng, rows):
    """Slopes in [-1, 1] with both ends and 0 among them."""
    slopes = rng.uniform(-1.0, 1.0, size=rows)
    slopes[::3] = 0.0
    slopes[1::7] = 1.0
    slopes[2::7] = -1.0
    return slopes


class TestSlopePdf:
    def test_zero_slope_is_uniform(self):
        pdf = slope_pdf([3, 4, 2, 2], 0.0)
        assert np.allclose(pdf, 1 / 11)

    def test_forward_triangle_unit_frames(self):
        pdf = slope_pdf([1, 1, 1, 1], 1.0)
        assert np.allclose(pdf, [1 / 16, 3 / 16, 5 / 16, 7 / 16])
        assert pdf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_backward_is_reverse_of_forward(self):
        fwd = slope_pdf([1] * 6, 1.0)
        bwd = slope_pdf([1] * 6, -1.0)
        assert np.allclose(bwd, fwd[::-1])

    def test_out_of_range_slope(self):
        with pytest.raises(ValueError, match="slope"):
            slope_pdf([1, 2], 1.5)
        with pytest.raises(ValueError, match="slope"):
            slope_pdf([1, 2], -1.0001)

    def test_sums_to_one_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.integers(1, 9, size=rng.integers(1, 12))
            a = float(rng.uniform(-1, 1))
            for slope in (a, -1.0, 1.0, 0.0):
                pdf = slope_pdf(s, slope)
                assert pdf.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(pdf >= 0)
                assert len(pdf) == s.sum()

    def test_constant_within_frame(self):
        pdf = slope_pdf([2, 3], 0.7)
        assert pdf[0] == pdf[1]
        assert pdf[2] == pdf[3] == pdf[4]


class TestSlopeMatrix:
    def test_equals_per_window_slope_pdf(self, workloads):
        rng = np.random.default_rng(3)
        for t, W in window_cases(workloads):
            slopes = random_slopes(rng, t.num_frames - W + 1)
            A = slope_matrix(t, W, slopes)
            assert np.array_equal(A, slope_matrix_oracle(t, W, slopes)), (t.num_frames, W)

    def test_out_of_range_slope(self):
        t = packets_trace([1, 2, 3, 4])
        for bad in (1.5, -1.0001, np.nan):
            with pytest.raises(ValueError, match="slope"):
                slope_matrix(t, 2, [0.0, bad, 0.0])


class TestAspFromMatrix:
    def test_band_sum_equals_direct_accumulation(self, workloads):
        rng = np.random.default_rng(5)
        for t, W in window_cases(workloads):
            A = slope_matrix(t, W, random_slopes(rng, t.num_frames - W + 1))
            direct = direct_asp_from_matrix(A, t, W)
            s = np.asarray(t.packets_per_frame, dtype=np.float64)
            assert np.array_equal(band_sum(A, t.num_frames) / s, direct), (t.num_frames, W)
            assert np.array_equal(asp_from_matrix(A, t, W).values, direct), (t.num_frames, W)

    def test_uniform_rows_constant_trace(self):
        t = packets_trace([3] * 12)
        prof = asp_from_matrix(uniform_matrix(t, 4), t, 4)
        lo, hi = prof.stable_range
        assert (lo, hi) == (4, 9)
        assert np.allclose(prof.stable_values(), 1 / 3)

    def test_window_one(self):
        t = packets_trace([1, 2, 4])
        prof = asp_from_matrix(uniform_matrix(t, 1), t, 1)
        assert np.allclose(prof.values, [1, 1 / 2, 1 / 4])

    def test_dimension_mismatch(self):
        t = packets_trace([1] * 6)
        with pytest.raises(ValueError, match="shape"):
            asp_from_matrix(np.ones((2, 2)) / 2, t, 3)

    def test_invalid_rows_rejected(self):
        t = packets_trace([1] * 5)
        bad = uniform_matrix(t, 2)
        bad[0] *= 1.5
        with pytest.raises(ValueError, match="sum to 1"):
            asp_from_matrix(bad, t, 2)
        neg = uniform_matrix(t, 2)
        neg[0] = [1.5, -0.5]
        with pytest.raises(ValueError, match="nonnegative"):
            asp_from_matrix(neg, t, 2)

    def test_mass_equals_window_count(self):
        t = random_trace(20, 1, 6, seed=1)
        prof = asp_from_matrix(uniform_matrix(t, 5), t, 5)
        assert total_mass(prof) == pytest.approx(16, abs=1e-9)


class TestSlopeCoefficients:
    def test_arrays_equal_frame_by_frame_loop(self, workloads):
        for t, W in window_cases(workloads):
            co = slope_coeffs(t, W)
            d1, d2 = slope_coeffs_oracle(t, W)
            assert np.array_equal(co.d1, d1), (t.num_frames, W)
            assert np.array_equal(co.d2, d2), (t.num_frames, W)

    def test_unit_frames_window_two(self):
        t = packets_trace([1] * 8)
        co = slope_coeffs(t, 2)
        for f in range(1, 7):  # frames 2..7 covered by two windows
            assert co.d1[f, f] == pytest.approx(-0.25)
            assert co.d1[f, f - 1] == pytest.approx(0.25)
            assert co.d2[f] == pytest.approx(1.0)

    def test_zero_slopes_reproduce_uniform_packet_matrix(self):
        t = random_trace(15, 1, 5, seed=3)
        co = slope_coeffs(t, 4)
        assert np.allclose(co.d2, uniform_asp(t, 4).values, atol=1e-12)

    def test_affine_equals_direct_accumulation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = random_trace(12, 1, 6, seed=int(rng.integers(1 << 30)))
            W = int(rng.integers(2, 5))
            co = slope_coeffs(t, W)
            a = rng.uniform(-1, 1, size=t.num_frames - W + 1)
            direct = direct_asp_from_slopes(t, W, a)
            assert np.allclose(co.d1 @ a + co.d2, direct, atol=1e-9)

    def test_single_slope_is_local(self):
        t = random_trace(14, 1, 4, seed=9)
        co = slope_coeffs(t, 3)
        a = np.zeros(t.num_frames - 2)
        a[5] = 0.8  # window over frames 6..8
        changed = np.nonzero(np.abs(co.d1 @ a) > 1e-15)[0]
        assert set(changed) <= {5, 6, 7}

    def test_dimension_mismatch(self):
        t = packets_trace([1] * 6)
        co = slope_coeffs(t, 2)
        assert co.d1.shape == (6, 5) and co.d2.shape == (6,)
        with pytest.raises(ValueError, match="slope factors"):
            slope_matrix(t, 2, np.zeros(3))  # every slope ASP checks the count


class TestOptimizePerFrame:
    def test_constant_trace_objective_zero(self):
        t = packets_trace([2] * 12)
        plan = optimize_per_frame(t, 3)
        assert plan_objective(plan) <= 1e-12

    def test_matches_grid_oracle(self):
        t = packets_trace([1, 2, 1, 2, 1, 2])
        plan = optimize_per_frame(t, 2)
        _, oracle = perframe_grid_oracle(t, 2)
        assert plan_objective(plan) == pytest.approx(oracle, abs=1e-6)

    def test_beats_uniform_on_fluctuating_trace(self):
        t = burst_trace(60, 2 * 64, 7 * 64, 20, payload_bytes=64)
        plan = optimize_per_frame(t, 6)
        assert plan.asp().stable_variance() < uniform_asp(t, 6).stable_variance()

    def test_rows_are_distributions(self):
        t = random_trace(16, 1, 5, seed=13)
        plan = optimize_per_frame(t, 4)
        assert np.all(plan.matrix >= -1e-12)
        assert np.allclose(plan.matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic(self):
        t = random_trace(14, 1, 6, seed=21)
        a = optimize_per_frame(t, 3).matrix
        b = optimize_per_frame(t, 3).matrix
        assert np.array_equal(a, b)

    def test_requires_stable_range(self):
        t = packets_trace([1] * 5)
        with pytest.raises(ValueError, match="frames"):
            optimize_per_frame(t, 3)

    def test_long_trace_in_bounded_memory(self):
        # 1,800 frames at W=23: 1,778 windows of 23 frames, with no operator
        # matrix over all of them
        t = sinusoidal_trace(1800, 9500, 5500, 100, first_frame_bytes=25000)
        tracemalloc.start()
        try:
            plan = optimize_per_frame(t, 23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert np.all(plan.matrix >= -1e-12)
        assert np.allclose(plan.matrix.sum(axis=1), 1.0, atol=1e-9)
        assert plan.asp().stable_variance() < uniform_asp(t, 23).stable_variance()

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sampling, "_FRAME_MAX_ITER", 1)
        with pytest.raises(SolverError, match="did not converge in 1 iterations"):
            optimize_per_frame(burst_trace(60, 2 * 64, 7 * 64, 20, payload_bytes=64), 6)

    def test_downsampled_domain(self):
        t = random_trace(40, 1, 5, seed=2, payload_bytes=64)
        plan = optimize_per_frame(t, 8, step=4)
        assert plan.domain_trace.num_frames == 10
        assert plan.window == 2
        assert plan.matrix.shape == (9, 2)
        assert total_mass(plan.asp()) == pytest.approx(9, abs=1e-9)


class TestOptimizeSlopes:
    def test_constant_trace_zero_slopes(self):
        t = packets_trace([3] * 10)
        plan = optimize_slopes(t, 2)
        assert plan_objective(plan) <= 1e-12
        assert np.allclose(plan.slopes, 0.0)

    def test_matches_grid_oracle(self):
        t = packets_trace([1, 3, 1, 3, 2, 1, 2, 3])
        plan = optimize_slopes(t, 2)
        _, oracle = slope_grid_oracle(t, 2)
        assert plan_objective(plan) == pytest.approx(oracle, abs=1e-6)

    def test_slopes_anticipate_rate_rise(self):
        # low rate ahead of a burst: windows before the rise tilt forward
        t = packets_trace([1, 1, 1, 5, 5, 5, 1, 1])
        plan = optimize_slopes(t, 2)
        _, oracle = slope_grid_oracle(t, 2)
        assert plan_objective(plan) == pytest.approx(oracle, abs=1e-6)
        # window over frames 3..4 sits just before/at the rise
        assert plan.slopes[2] > 0

    def test_box_constraints(self):
        t = burst_trace(30, 64, 10 * 64, 10, payload_bytes=64)
        plan = optimize_slopes(t, 3)
        assert np.all(plan.slopes <= 1.0)
        assert np.all(plan.slopes >= -1.0)

    def test_beats_exhaustive_coarse_grid(self):
        # 11 values per coordinate over all 7 windows of an 8-frame burst
        from oracles import slope_full_grid
        t = packets_trace([1, 1, 4, 4, 1, 1, 4, 4])
        plan = optimize_slopes(t, 2)
        _, grid_best = slope_full_grid(t, 2, points=11)
        assert plan_objective(plan) <= grid_best + 1e-9

    def test_deterministic(self):
        t = random_trace(18, 1, 7, seed=5)
        a = optimize_slopes(t, 4).slopes
        b = optimize_slopes(t, 4).slopes
        assert np.array_equal(a, b)

    def test_matches_solve_oracle(self, workloads):
        # the bench traces at their DAF window, then random traces, one at step 2
        cases = [(t, W, 1) for t, W in window_cases(workloads)[:3]]
        for seed in range(3):
            t = random_trace(40, 1, 9, seed=seed)
            cases += [(t, 2, 1), (t, 5, 1), (t, 9, 1), (t, 8, 2)]
        for t, W, step in cases:
            plan = optimize_slopes(t, W, step)
            oracle = slope_solve_oracle(t, W, step)
            assert np.array_equal(plan.slopes, oracle.slopes), (t.num_frames, W, step)
            assert plan.iterations == oracle.iterations

    def test_gram_matrix_is_the_dense_definition(self, workloads):
        # H from the band and one rank-one term is Dc.T @ Dc to rounding, and
        # symmetric bit for bit: the sweep reads row j for column j
        cases = [(t, W, 1) for t, W in window_cases(workloads)[:3]]
        for seed in range(3):
            t = random_trace(40, 1, 9, seed=seed)
            cases += [(t, 2, 1), (t, 5, 1), (t, 9, 1), (t, 20, 1), (t, 8, 2)]
        for t, W, step in cases:
            ds, w = sampling._optimizer_domain(t, W, step)
            H, _, _ = sampling._slope_system(ds, w)
            dense = centered_gram(t, W, step)
            assert np.array_equal(H, H.T), (t.num_frames, W, step)
            assert np.abs(H - dense).max() <= 1e-12 * np.abs(dense).max(), (t.num_frames, W, step)

    @given(short_traces())
    @settings(max_examples=60, deadline=None)
    def test_matches_solve_oracle_on_short_traces(self, case):
        # every window W with 2W <= T that the step divides
        t, step = case
        for W in range(step, t.num_frames // 2 + 1, step):
            plan = optimize_slopes(t, W, step)
            oracle = slope_solve_oracle(t, W, step)
            assert plan.slopes.tobytes() == oracle.slopes.tobytes(), W
            assert plan.iterations == oracle.iterations, W

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sampling, "_SLOPE_MAX_SWEEPS", 1)
        with pytest.raises(SolverError, match="did not converge in 1 sweeps"):
            optimize_slopes(burst_trace(30, 64, 10 * 64, 10, payload_bytes=64), 3)

    def test_asp_is_the_affine_map(self, workloads):
        # SamplingPlan.asp() band-sums slope_matrix; the solve minimized d1 @ a + d2
        cases = [(t, W, 1) for t, W in window_cases(workloads)[:3]]
        cases.append((random_trace(40, 1, 9, seed=0), 8, 2))
        for t, W, step in cases:
            plan = optimize_slopes(t, W, step)
            co = slope_coeffs(plan.domain_trace, plan.window)
            affine = co.d1 @ plan.slopes + co.d2
            assert np.allclose(plan.asp().values, affine, rtol=0, atol=1e-12), (t.num_frames, W)

    def test_float32_slopes_pinned(self, workloads):
        # sha256 of the SlopeF values (float32, as the wire carries them) of
        # the bench traces at their DAF window and of tests/data/readme.cfg,
        # fixed when H was Dc.T @ Dc from BLAS: they must not move with the
        # order H and b are summed in
        pinned = {
            "readme-300": "6163987eec7a4c0937f6acc91f007d208b4877ea4ed2aed9bda17956d07ac2d0",
            "long-daf-1800": "bb7ec610aad39aeb899a9664624fd59c10afa4dd8366e3ad696408a46f1ee1c9",
            "relay-payload-300":
                "fe5082d6ff0f8aa0f06195c79141ceb8b71e9bc37ba0b2e354fe0cfefb3ab27b",
        }
        cases = {name: (t, W, 1) for name, (t, W) in zip(pinned, window_cases(workloads))}
        cfg = load_config(str(DATA / "readme.cfg"))
        trace = trace_from_config(cfg)
        params = params_from_config(cfg, trace)
        cases["readme.cfg"] = (trace, params.window_frames, params.step_frames)
        pinned["readme.cfg"] = pinned["readme-300"]  # the same trace and window
        for name, (t, W, step) in cases.items():
            slopes = optimize_slopes(t, W, step).slopes
            assert hashlib.sha256(to_f32(slopes).tobytes()).hexdigest() == pinned[name], name

    def test_long_daf_memory(self, workloads):
        # 1,800 frames at W=23: the dense H (24.1 MiB) and (windows x W)
        # bands, no T x windows d1 beside it
        t = workloads.build("long-daf-1800", workloads.DEFAULT_SEED).trace
        tracemalloc.start()
        try:
            optimize_slopes(t, 23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 2**20

    def test_long_trace_memory(self):
        # 900 frames at W=23: H is dense, but d1 is only ever a band
        t = sinusoidal_trace(900, 9500, 5500, 100, first_frame_bytes=25000)
        tracemalloc.start()
        try:
            optimize_slopes(t, 23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2**20


class TestObjectiveOrdering:
    def test_perframe_beats_slope_beats_uniform(self):
        rng = np.random.default_rng(11)
        for seed in rng.integers(0, 1 << 30, size=5):
            t = random_trace(14, 1, 6, seed=int(seed))
            W = 3
            j_uniform = stable_objective(uniform_asp(t, W).values, W)
            j_slope = plan_objective(optimize_slopes(t, W))
            j_frame = plan_objective(optimize_per_frame(t, W))
            assert j_frame <= j_slope + 1e-9
            assert j_slope <= j_uniform + 1e-9

    def test_mass_conservation_all_plans(self):
        t = random_trace(20, 1, 6, seed=17)
        W = 4
        expected = t.num_frames - W + 1
        uniform = uniform_asp(t, W)
        slope = optimize_slopes(t, W).asp()
        frame = optimize_per_frame(t, W).asp()
        for prof in (uniform, slope, frame):
            assert total_mass(prof) == pytest.approx(expected, abs=1e-9)


class TestNormalization:
    def test_normalized_stable_mean_is_one(self):
        t = random_trace(20, 1, 5, seed=23)
        prof = asp_from_matrix(uniform_matrix(t, 4), t, 4)
        lo, hi = prof.stable_range
        norm = prof.normalized()
        assert norm[lo - 1:hi].mean() == pytest.approx(1.0)
