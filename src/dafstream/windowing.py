"""Coding-parameter derivation and window schedules.

All time quantities are in frames unless a name says otherwise. The window
advances by the step every entry; budgets are fractional per step and
accumulate so the long-run send rate is exactly the configured data rate.
A CodingParams carries the trace derive_params validated it for, and every
schedule, padding set and send interval is read from that pair alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import check_integer
from .errors import ConfigError
from .protocol import MAX_PACKET_ID, MAX_WSIZE, to_f32
from .sampling import short_trace
from .trace import VideoTrace


class Mode(str, Enum):
    DAF = "DAF"
    DAF_L = "DAF-L"
    S_LT = "S-LT"
    BLOCK = "Block"
    EXPAND = "Expand"

    @classmethod
    def parse(cls, name: str) -> "Mode":
        for m in cls:
            if m.value.lower() == str(name).strip().lower():
                return m
        raise ConfigError(f"unknown mode {name!r}; expected one of {[m.value for m in cls]}")


@dataclass(frozen=True)
class CodingParams:
    """Derived coding parameters for one session, on the trace they were
    derived for (compared, not printed)."""

    trace: VideoTrace = field(repr=False)
    mode: Mode
    data_rate: float        # bytes/second
    code_rate: float        # native/coded packet ratio actually realized
    delay_frames: int       # tolerable end-to-end delay
    step_frames: int        # window advance per entry (equals window_frames in Block)
    window_frames: int      # window length
    coded_per_step: float   # coded packets per step, fractional
    num_steps: int          # (T - W) / step
    total_coded: int        # coded packets in the whole session
    fixed_window_packets: int | None = None  # S-LT only

    def __post_init__(self):
        if self.mode is Mode.BLOCK:
            if self.step_frames != self.window_frames:
                raise ConfigError("block coding requires step == window")
            if 2 * self.window_frames > self.delay_frames:
                raise ConfigError("block coding requires 2*window <= delay")
        elif self.window_frames + self.step_frames > self.delay_frames:
            raise ConfigError("sliding window requires window + step <= delay")

    def send_interval_s(self) -> float:
        """Seconds between consecutive coded packets."""
        return self.trace.payload_bytes / self.data_rate


def derive_params(trace: VideoTrace, mode, delay_frames: int, step_frames: int = 1,
                  code_rate: float | None = None,
                  data_rate: float | None = None) -> CodingParams:
    """Choose the maximal feasible window and fill in all derived quantities.

    Exactly one of code_rate / data_rate must be given; the other is derived
    through code_rate = k / N. A payload or a window wider than the header's
    P or WSize field holds, warm-up and cool-down padding covering every
    frame, a schedule leaving a frame outside the padding in no window, a
    DAF trace shorter than two windows (the slope solve's domain), a delay
    or step that is no integer, or a data rate that is not finite, is a
    ConfigError.
    """
    mode = Mode.parse(mode) if not isinstance(mode, Mode) else mode
    check_integer(delay_frames, "delay in frames")
    check_integer(step_frames, "step in frames")
    if (code_rate is None) == (data_rate is None):
        raise ConfigError("give exactly one of code_rate or data_rate")
    if step_frames < 1:
        raise ConfigError("step must be >= 1 frame")
    if trace.payload_bytes > 0xFFFF:
        raise ConfigError(f"payload size {trace.payload_bytes} does not fit the wire header")
    if step_frames % trace.gop_size != 0:
        raise ConfigError(f"step {step_frames} is not a multiple of the GOP size {trace.gop_size}")
    T = trace.num_frames
    if T % step_frames != 0:
        raise ConfigError(f"trace length {T} is not a multiple of step {step_frames}")
    if delay_frames < 2 * step_frames:
        raise ConfigError(
            f"delay of {delay_frames} frames is infeasible with step {step_frames}: "
            "need delay >= 2*step")

    if mode is Mode.BLOCK:
        window = _block_window(T, delay_frames, step_frames)
        step = window
    else:
        window = ((delay_frames - step_frames) // step_frames) * step_frames
        step = step_frames
    if T < window + step:
        raise ConfigError(f"trace of {T} frames is too short for window {window} + step {step}")
    if mode is Mode.DAF and (lack := short_trace(T, window)):  # the slope solve's domain
        raise ConfigError(f"DAF needs {lack}")

    k = trace.total_packets
    num_steps = (T - window) // step
    if data_rate is not None:
        R = float(data_rate)
    else:
        if not 0 < code_rate:
            raise ConfigError("code_rate must be positive")
        # N ~= k / code_rate spread over the (T - W) frames of sending time
        R = (k / code_rate) * trace.frame_rate * trace.payload_bytes / (T - window)
    if not 0 < R < math.inf:  # NaN fails too
        raise ConfigError(f"data rate {R} is not positive and finite")
    coded_per_step = R * step / (trace.frame_rate * trace.payload_bytes)
    total = math.floor(num_steps * coded_per_step)
    if total < 1:
        raise ConfigError("configuration sends no coded packets")
    if total > MAX_PACKET_ID:
        raise ConfigError(f"configuration sends {total} coded packets; PacketID holds "
                          f"at most {MAX_PACKET_ID}")

    fixed = None
    if mode is Mode.S_LT:  # the fewest packets any window of `window` frames holds
        offsets = trace.packet_offsets()
        fixed = int(np.min(offsets[window:] - offsets[:T - window + 1]))

    params = CodingParams(trace=trace, mode=mode, data_rate=R, code_rate=k / total,
                          delay_frames=delay_frames, step_frames=step,
                          window_frames=window, coded_per_step=coded_per_step,
                          num_steps=num_steps, total_coded=total,
                          fixed_window_packets=fixed)
    schedule = build_schedule(params)
    widest = int(schedule.window_packets.max())
    if widest > MAX_WSIZE:
        raise ConfigError(f"widest window holds {widest} packets, over WSize's {MAX_WSIZE}")
    warm, cool = wcp_frames(params)
    if len(warm) + len(cool) >= T:
        raise ConfigError(f"the warm-up and cool-down padding ({len(warm)} frames each) "
                          f"covers all {T} frames, so no packet is measured")
    outside = np.flatnonzero(schedule.last_covering_entry(T)[len(warm) + 1:T - len(cool) + 1] == 0)
    if len(outside):
        raise ConfigError(f"{len(outside)} frames outside the padding lie in no window "
                          f"(the first is frame {len(warm) + 1 + int(outside[0])})")
    return params


def _block_window(T: int, delay_frames: int, granularity: int) -> int:
    """Largest block length within half the delay that divides the trace."""
    upper = delay_frames // 2
    for w in range(upper - upper % granularity, 0, -granularity):
        if T % w == 0:
            return w
    raise ConfigError(
        f"no feasible block length <= {upper} divides the {T}-frame trace at granularity {granularity}")


@dataclass(frozen=True, eq=False)
class WindowSchedule:
    """Every window entry of a session, as columns: entry m is row m-1."""

    start_frame: np.ndarray     # int64, nondecreasing
    end_frame: np.ndarray       # int64, last frame the window touches
    start_packet: np.ndarray    # int64, StartP
    window_packets: np.ndarray  # int64, WSize
    slope: np.ndarray           # float64, SlopeF already float32-truncated
    cum_sent: np.ndarray        # int64, coded packets sent through this entry

    def last_covering_entry(self, num_frames: int) -> np.ndarray:
        """For each frame (1-based), the index of the last entry touching it
        (0 if none does).

        Window ends never fall as starts rise, so the last entry starting
        at or before a frame is the last one touching it, if any does.
        """
        frames = np.arange(num_frames + 1)
        last = np.searchsorted(self.start_frame, frames, side="right")
        last[self.end_frame[last - 1] < frames] = 0
        return last


def build_schedule(params: CodingParams, slopes=None) -> WindowSchedule:
    """Lay out every window entry with its packet range and coded budget.

    `slopes` gives one slope factor per entry (sliding-window order); absent
    entries default to 0 (uniform sampling). Values are truncated to float32
    exactly as the header carries them. Entry m sends coded packets up to
    floor(m * coded_per_step), and the last entry up to the total.
    """
    offsets = params.trace.packet_offsets()
    T = params.trace.num_frames
    W = params.window_frames
    step = params.step_frames

    if params.mode is Mode.EXPAND:
        # one entry per step across the stream, each window pinned to its block start
        first = np.arange(1, T + 1, step, dtype=np.int64)
        start_frame = (first - 1) // W * W + 1
        end_frame = np.minimum(first + step - 1, T)
    else:
        start_frame = np.arange(1, T - W + 2, step, dtype=np.int64)
        end_frame = start_frame + W - 1
    start_packet = offsets[start_frame - 1] + 1
    if params.mode is Mode.S_LT:
        window_packets = np.full_like(start_frame, params.fixed_window_packets)
        end_frame = np.searchsorted(offsets, start_packet + window_packets - 2, side="right")
    else:
        window_packets = offsets[end_frame] - offsets[start_frame - 1]

    n = len(start_frame)
    slope = np.zeros(n)
    if slopes is not None:
        wire = to_f32(slopes)[:n]
        slope[:len(wire)] = wire
    cum_sent = np.minimum(np.floor(np.arange(1, n + 1) * params.coded_per_step).astype(np.int64),
                          params.total_coded)
    cum_sent[-1] = params.total_coded
    return WindowSchedule(start_frame=start_frame, end_frame=end_frame,
                          start_packet=start_packet, window_packets=window_packets,
                          slope=slope, cum_sent=cum_sent)


def wcp_frames(params: CodingParams) -> tuple[frozenset, frozenset]:
    """Warm-up and cool-down frames: covered by fewer than W/step windows."""
    T = params.trace.num_frames
    n = params.window_frames - params.step_frames
    warm = frozenset(range(1, n + 1))
    cool = frozenset(range(T - n + 1, T + 1))
    return warm, cool


def wcp_packets(params: CodingParams) -> frozenset:
    """Packet numbers inside the warm-up/cool-down periods."""
    warm, cool = wcp_frames(params)
    offsets = params.trace.packet_offsets()
    return (frozenset(range(1, offsets[len(warm)] + 1))
            | frozenset(range(offsets[-1 - len(cool)] + 1, offsets[-1] + 1)))
