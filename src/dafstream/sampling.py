"""Window sampling distributions and the accumulated-sampling-probability math.

Each sliding window samples packets from a per-window distribution. Summing a
packet's sampling probability over every window that covers its frame gives
the accumulated sampling probability (ASP); flat ASP means every packet gets
an equal share of coding effort. Two optimizers flatten the ASP over the
stable frame range: a per-frame scheme (one probability per frame per window,
solved as a simplex-constrained least squares) and a slope-only scheme (one
linear-tilt factor per window, solved as a box-constrained least squares).

All math here runs at step granularity 1; callers with a larger step
downsample the trace first (the optimizers do this internally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .trace import VideoTrace, downsample

ROW_SUM_TOL = 1e-9

#: Stopping rules of the two optimizers: the per-frame one stops after 10
#: iterations in a row that change the objective by under _FRAME_TOL times
#: its start (at least 1), the slope one after a sweep that changes it by
#: under _SLOPE_TOL; either raises SolverError past its iteration cap.
_FRAME_TOL, _FRAME_MAX_ITER = 1e-13, 200_000
_SLOPE_TOL, _SLOPE_MAX_SWEEPS = 1e-10, 100_000


def slope_density(mid, w, slope):
    """Sampling probability of a packet of a frame whose midpoint lies `mid`
    packets into a window of `w` packets with tilt `slope` (broadcasts).

    The density over [0, w] is linear with tilt `slope` in [-1, 1]; each
    packet gets its average over the packet's unit interval, so the packets
    of one frame share one probability. slope=0 is uniform, slope=1 tilts
    all the way toward the window's end.
    """
    return (2.0 * slope / w**2) * mid + (1.0 - slope) / w


@dataclass(frozen=True)
class AspProfile:
    """Accumulated sampling probability per frame, with its stable range."""

    values: tuple[float, ...]     # P(t) for frames 1..T
    window_frames: int
    packets_per_frame: tuple[int, ...]

    @property
    def num_frames(self) -> int:
        return len(self.values)

    @property
    def stable_range(self) -> tuple[int, int]:
        """Inclusive 1-based frame range covered by the full number of windows."""
        return self.window_frames, self.num_frames - self.window_frames + 1

    def stable_values(self) -> np.ndarray:
        lo, hi = self.stable_range
        if hi < lo:
            raise ValueError("no stable frames: trace shorter than twice the window")
        return np.asarray(self.values[lo - 1:hi], dtype=np.float64)

    def normalized(self) -> np.ndarray:
        """Full profile scaled so the stable range averages to 1."""
        return np.asarray(self.values) / self.stable_values().mean()

    def stable_variance(self) -> float:
        """Variance of the stable range, normalized to a mean of 1."""
        v = self.stable_values()
        v = v / v.mean()
        return float(np.mean((v - v.mean()) ** 2))

    def objective(self) -> float:
        """Sum of squared deviations from the stable-range mean (unnormalized)."""
        v = self.stable_values()
        return float(np.sum((v - v.mean()) ** 2))


def _check_window(trace: VideoTrace, window: int):
    if not 1 <= window <= trace.num_frames:
        raise ValueError(f"window of {window} frames invalid for a {trace.num_frames}-frame trace")


def _window_grid(trace: VideoTrace, window: int):
    """The (windows x `window`) grid of window t0 and offset i.

    Returns the packet count s of every frame, the frame t = t0 + i of each
    entry, the packet count w of each window (a column) and the packets pkt
    of frames t0..t; the counts are whole numbers, so every sum is exact.
    """
    s = np.asarray(trace.packets_per_frame, dtype=np.float64)
    cum = np.concatenate([[0.0], np.cumsum(s)])
    t0 = np.arange(trace.num_frames - window + 1)[:, None]
    t = t0 + np.arange(window)
    return s, t, cum[t0 + window] - cum[t0], cum[t + 1] - cum[t0]


def slope_matrix(trace: VideoTrace, window: int, slopes) -> np.ndarray:
    """Sampling matrix induced by one slope factor per window."""
    _check_window(trace, window)
    rows = trace.num_frames - window + 1
    slopes = np.asarray(slopes, dtype=np.float64)
    if slopes.shape != (rows,):
        raise ValueError(f"expected {rows} slope factors, got {slopes.shape}")
    if not np.all(np.abs(slopes) <= 1.0):  # NaN fails too
        raise ValueError("slope factors must lie in [-1, 1]")
    s, t, w, pkt = _window_grid(trace, window)
    return slope_density(pkt - s[t] / 2.0, w, slopes[:, None]) * s[t]


def band_sum(A, num_frames: int) -> np.ndarray:
    """Sum a (windows x W) matrix along its band: entry (t0, i) adds to frame t0 + i.

    Each frame adds its terms in ascending window order t0, which fixes the
    rounding of the sum.
    """
    rows, window = A.shape
    P = np.zeros(num_frames)
    for i in range(window - 1, -1, -1):  # frame t meets window t - i
        P[i:i + rows] += A[:, i]
    return P


def asp_from_matrix(A, trace: VideoTrace, window: int) -> AspProfile:
    """Accumulate a sampling matrix into the per-frame ASP."""
    _check_window(trace, window)
    A = np.asarray(A, dtype=np.float64)
    rows = trace.num_frames - window + 1
    if A.shape != (rows, window):
        raise ValueError(f"matrix shape {A.shape} does not match {rows} windows x {window} frames")
    if np.any(A < -ROW_SUM_TOL):
        raise ValueError("sampling probabilities must be nonnegative")
    if np.any(np.abs(A.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        raise ValueError("every window's probabilities must sum to 1")
    s = np.asarray(trace.packets_per_frame, dtype=np.float64)
    P = band_sum(A, trace.num_frames) / s
    return AspProfile(values=tuple(P), window_frames=window,
                      packets_per_frame=trace.packets_per_frame)


@dataclass(frozen=True)
class SlopeCoefficients:
    """Affine decomposition of the ASP as a function of the slope vector,
    the slope solve's inputs.

    P(t) = d1[t] . slopes + d2[t], where d1[t, i] is nonzero only for the
    windows covering frame t. Depends on the trace and window only.
    """

    d1: np.ndarray   # shape (T, windows)
    d2: np.ndarray   # shape (T,)


def slope_coeffs(trace: VideoTrace, window: int) -> SlopeCoefficients:
    """The affine ASP coefficients of every window of `window` frames.

    Frame t (0-based) of window t0 gets d1[t, t0] from the w[t0] packets
    of the window and the pkt of them in frames t0..t, and d2[t] is the
    band sum of 1/w over the windows covering frame t.
    """
    _check_window(trace, window)
    s, t, w, pkt = _window_grid(trace, window)
    d1 = np.zeros((trace.num_frames, len(w)))
    d1[t, t - np.arange(window)] = (2.0 * pkt - s[t]) / w ** 2 - 1.0 / w
    d2 = band_sum(np.broadcast_to(1.0 / w, t.shape), trace.num_frames)
    return SlopeCoefficients(d1=d1, d2=d2)


@dataclass(eq=False)
class SamplingPlan:
    """An optimizer's result on the (possibly downsampled) domain: row t0 of
    `matrix` is window t0's probability per frame, induced by `slopes` (one
    factor per window) when the optimizer solved for slopes."""

    matrix: np.ndarray
    domain_trace: VideoTrace   # downsampled when step > 1
    window: int                # in domain frames
    iterations: int
    slopes: np.ndarray | None = None

    def asp(self) -> AspProfile:
        return asp_from_matrix(self.matrix, self.domain_trace, self.window)

    @property
    def objective(self) -> float:
        return self.asp().objective()


def short_trace(num_frames: int, window: int) -> str | None:
    """What a trace of `num_frames` frames lacks for the optimizers at
    `window` frames, or None. They need T >= 2W frames, so that some frame
    is covered by the full number of windows (the stable range)."""
    if num_frames < 2 * window:
        return f"a trace of at least {2 * window} frames for window {window} (got {num_frames})"
    return None


def _optimizer_domain(trace: VideoTrace, window: int, step: int):
    if step < 1:
        raise ValueError("step must be >= 1")
    if window % step != 0:
        raise ValueError(f"window {window} is not a multiple of step {step}")
    ds = downsample(trace, step)  # the step divides T: T >= 2W holds on ds as on trace
    if lack := short_trace(trace.num_frames, window):
        raise ValueError(f"the optimizers need {lack}")
    return ds, window // step


def optimize_per_frame(trace: VideoTrace, window: int, step: int = 1) -> SamplingPlan:
    """Flatten the ASP by optimizing every frame's probability in every window.

    Accelerated projected gradient on the simplex-constrained least squares;
    deterministic (fixed iteration order, no randomness).
    """
    ds, w = _optimizer_domain(trace, window, step)
    s, t, _, _ = _window_grid(ds, w)
    T = ds.num_frames
    stable = slice(w - 1, T - w + 1)
    # The uncentered map from the matrix to the stable ASP has Gram matrix
    # diag(w / s^2), and centering is a projection, so this step is at most 1/L.
    lr = np.min(s[stable]) ** 2 / (2.0 * w)

    def residual(X):
        P = band_sum(X, T)[stable] / s[stable]
        return P - P.mean()

    def objective(X):
        r = residual(X)
        return float(r @ r)

    def gradient(X):
        v = np.zeros(T)
        v[stable] = 2.0 * residual(X) / s[stable]
        return v[t]

    # start from uniform packet sampling (slope 0) so the objective can only improve
    x = slope_matrix(ds, w, np.zeros(len(t)))
    y = x.copy()
    t_acc = 1.0
    j_prev = objective(x)
    scale = max(1.0, j_prev)
    stall = 0
    iterations = 0
    for iterations in range(1, _FRAME_MAX_ITER + 1):
        x_new = _project_rows(y - lr * gradient(y))
        j_new = objective(x_new)
        if j_new > j_prev:  # restart the momentum when it overshoots
            y = x.copy()
            t_acc = 1.0
            x_new = _project_rows(y - lr * gradient(y))
            j_new = objective(x_new)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = x_new + ((t_acc - 1.0) / t_next) * (x_new - x)
        x = x_new
        t_acc = t_next
        if abs(j_prev - j_new) < _FRAME_TOL * scale:
            stall += 1
            if stall >= 10:
                j_prev = j_new
                break
        else:
            stall = 0
        j_prev = j_new
    else:
        raise SolverError(
            f"per-frame optimizer did not converge in {_FRAME_MAX_ITER} iterations "
            f"(last objective {j_prev:.3e})")
    return SamplingPlan(x, ds, w, iterations)


def _project_rows(X: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto the probability simplex."""
    rows, w = X.shape
    U = -np.sort(-X, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    ind = np.arange(1, w + 1, dtype=np.float64)
    cond = U - css / ind > 0
    rho = w - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(rows), rho] / (rho + 1.0)
    return np.maximum(X - theta[:, None], 0.0)


def optimize_slopes(trace: VideoTrace, window: int, step: int = 1) -> SamplingPlan:
    """Flatten the ASP with one slope factor per window.

    Exact cyclic coordinate minimization with clipping to [-1, 1], iterated
    until the objective change per sweep falls below _SLOPE_TOL.
    """
    ds, w = _optimizer_domain(trace, window, step)
    slopes, sweeps = _solve_slopes(ds, w)  # its d1 and H are freed on return
    return SamplingPlan(slope_matrix(ds, w, slopes), ds, w, sweeps, slopes)


def _solve_slopes(ds: VideoTrace, w: int) -> tuple[np.ndarray, int]:
    """optimize_slopes' factors on its domain, and the sweeps that found them."""
    coeffs = slope_coeffs(ds, w)
    T = ds.num_frames
    stable = slice(w - 1, T - w + 1)
    Dc = coeffs.d1[stable]  # centered in place: coeffs is this solve's own
    Dc -= Dc.mean(axis=0, keepdims=True)
    e = coeffs.d2[stable]
    ec = e - e.mean()

    H = Dc.T @ Dc
    b = Dc.T @ ec
    c0 = float(ec @ ec)
    rows = len(b)
    # the sweep's scalars are Python floats: the same IEEE double arithmetic
    # as numpy float64 scalars, without their per-operation overhead. It
    # reads r through a memoryview and hands numpy each move as a 0-d
    # float64 array, which numpy takes without converting a Python scalar.
    a = [0.0] * rows
    r = np.zeros(rows)  # H @ a, maintained incrementally
    r_at = memoryview(r)
    delta = np.empty(())
    delta_at = memoryview(delta)
    step_r = np.empty(rows)
    # syrk mirrors the triangle of Dc.T @ Dc, so row j is column j bit for bit;
    # a coordinate with no curvature never moves
    coords = [(j, h_j, b_j, d_j) for j, (h_j, b_j, d_j)
              in enumerate(zip(H, b.tolist(), np.diag(H).tolist())) if not d_j < 1e-30]

    def objective():
        x = np.array(a)
        return float(x @ r + 2.0 * (b @ x) + c0)

    j_prev = objective()
    sweeps = 0
    for sweeps in range(1, _SLOPE_MAX_SWEEPS + 1):
        for j, h_j, b_j, d_j in coords:
            a_j = a[j]
            t = a_j - (r_at[j] + b_j) / d_j
            new = 1.0 if t > 1.0 else (-1.0 if t < -1.0 else t)
            if new != a_j:
                a[j] = new
                delta_at[()] = new - a_j
                np.multiply(h_j, delta, step_r)
                r += step_r
        j_new = objective()
        if abs(j_prev - j_new) < _SLOPE_TOL:
            j_prev = j_new
            break
        j_prev = j_new
    else:
        raise SolverError(
            f"slope optimizer did not converge in {_SLOPE_MAX_SWEEPS} sweeps "
            f"(last objective {j_prev:.3e})")
    return np.array(a), sweeps
