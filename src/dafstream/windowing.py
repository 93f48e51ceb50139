"""Coding-parameter derivation and window schedules.

All time quantities are in frames unless a name says otherwise. The window
advances by the step every entry; budgets are fractional per step and
accumulate so the long-run send rate is exactly the configured data rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .protocol import MAX_PACKET_ID, to_f32
from .trace import FrameIndex, VideoTrace


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


#: Modes whose windows slide over frame-based windows of W frames.
SLIDING_MODES = (Mode.DAF, Mode.DAF_L, Mode.S_LT)


@dataclass(frozen=True)
class CodingParams:
    """Derived coding parameters for one session."""

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

    def send_interval_s(self, trace: VideoTrace) -> float:
        """Seconds between consecutive coded packets."""
        return trace.payload_bytes / self.data_rate


def derive_params(trace: VideoTrace, mode, delay_frames: int, step_frames: int = 1,
                  code_rate: float | None = None,
                  data_rate: float | None = None) -> CodingParams:
    """Choose the maximal feasible window and fill in all derived quantities.

    Exactly one of code_rate / data_rate must be given; the other is derived
    through code_rate = k / N.
    """
    mode = Mode.parse(mode) if not isinstance(mode, Mode) else mode
    if (code_rate is None) == (data_rate is None):
        raise ConfigError("give exactly one of code_rate or data_rate")
    if step_frames < 1:
        raise ConfigError("step must be >= 1 frame")
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

    k = trace.total_packets
    num_steps = (T - window) // step
    if data_rate is not None:
        R = float(data_rate)
    else:
        if not 0 < code_rate:
            raise ConfigError("code_rate must be positive")
        # N ~= k / code_rate spread over the (T - W) frames of sending time
        R = (k / code_rate) * trace.frame_rate * trace.payload_bytes / (T - window)
    if R <= 0:
        raise ConfigError("data rate must be positive")
    coded_per_step = R * step / (trace.frame_rate * trace.payload_bytes)
    total = math.floor(num_steps * coded_per_step)
    if total < 1:
        raise ConfigError("configuration sends no coded packets")
    if total > MAX_PACKET_ID:
        raise ConfigError(f"configuration sends {total} coded packets; PacketID holds "
                          f"at most {MAX_PACKET_ID}")

    fixed = None
    if mode is Mode.S_LT:
        index = FrameIndex(trace)
        fixed = min(index.packets_in_frames(t, window) for t in range(1, T - window + 2))

    return CodingParams(mode=mode, data_rate=R, code_rate=k / total,
                        delay_frames=delay_frames, step_frames=step,
                        window_frames=window, coded_per_step=coded_per_step,
                        num_steps=num_steps, total_coded=total,
                        fixed_window_packets=fixed)


def _block_window(T: int, delay_frames: int, granularity: int) -> int:
    """Largest block length within half the delay that divides the trace."""
    upper = delay_frames // 2
    for w in range(upper - upper % granularity, 0, -granularity):
        if T % w == 0:
            return w
    raise ConfigError(
        f"no feasible block length <= {upper} divides the {T}-frame trace at granularity {granularity}")


@dataclass(frozen=True)
class ScheduleEntry:
    index: int            # 1-based entry number
    start_frame: int
    end_frame: int        # last frame the window touches
    start_packet: int     # StartP
    window_packets: int   # WSize
    slope: float          # SlopeF, already float32-truncated
    budget: int           # coded packets sent for this entry
    cum_sent: int         # running total after this entry


@dataclass(frozen=True)
class WindowSchedule:
    mode: Mode
    entries: tuple[ScheduleEntry, ...]

    def last_covering_entry(self, num_frames: int) -> np.ndarray:
        """For each frame (1-based), the index of the last entry touching it
        (0 if none does)."""
        first = np.array([e.start_frame for e in self.entries], dtype=np.int64)
        span = np.array([e.end_frame for e in self.entries], dtype=np.int64) - first + 1
        index = np.array([e.index for e in self.entries], dtype=np.int64)
        frames = np.arange(int(span.sum())) + np.repeat(first - (np.cumsum(span) - span), span)
        last = np.zeros(num_frames + 1, dtype=np.int64)
        np.maximum.at(last, frames, np.repeat(index, span))
        return last

    def covering_counts(self, num_frames: int) -> list[int]:
        counts = [0] * (num_frames + 1)
        for e in self.entries:
            for t in range(e.start_frame, e.end_frame + 1):
                counts[t] += 1
        return counts


def build_schedule(params: CodingParams, trace: VideoTrace,
                   slopes=None) -> WindowSchedule:
    """Lay out every window entry with its packet range and coded budget.

    `slopes` gives one slope factor per entry (sliding-window order); absent
    entries default to 0 (uniform sampling). Values are truncated to float32
    exactly as the header carries them.
    """
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
    entries = []
    prev_cum = 0
    for m, f in enumerate(starts, start=1):
        cum = min(math.floor(m * params.coded_per_step), N)
        if m == len(starts):
            cum = N
        slope = wire_slopes[m - 1] if m <= len(wire_slopes) else 0.0

        if params.mode is Mode.EXPAND:
            block_start = ((f - 1) // W) * W + 1
            end_frame = min(f + step - 1, T)
            start_packet = index.first_packet(block_start)
            wsize = index.packets_in_frames(block_start, end_frame - block_start + 1)
            start_frame = block_start
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

        entries.append(ScheduleEntry(index=m, start_frame=start_frame,
                                     end_frame=end_frame, start_packet=start_packet,
                                     window_packets=wsize, slope=slope,
                                     budget=cum - prev_cum, cum_sent=cum))
        prev_cum = cum
    return WindowSchedule(mode=params.mode, entries=tuple(entries))


def wcp_frames(params: CodingParams, trace: VideoTrace) -> tuple[frozenset, frozenset]:
    """Warm-up and cool-down frames: covered by fewer than W/step windows."""
    T = trace.num_frames
    n = params.window_frames - params.step_frames
    warm = frozenset(range(1, n + 1))
    cool = frozenset(range(T - n + 1, T + 1))
    return warm, cool


def wcp_packets(params: CodingParams, trace: VideoTrace) -> frozenset:
    """Packet numbers inside the warm-up/cool-down periods."""
    warm, cool = wcp_frames(params, trace)
    index = FrameIndex(trace)
    pkts = set()
    for t in warm | cool:
        first = index.first_packet(t)
        pkts.update(range(first, first + trace.packets_per_frame[t - 1]))
    return frozenset(pkts)
