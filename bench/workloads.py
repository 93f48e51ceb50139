"""Workload definitions: traces, payloads, coding parameters and channels.

Every input is made from the workload seed alone. The seed drives the channel
seeds and the relay payload bytes; the traces and operating points are fixed,
so each workload's sessions do the same kind of work for every seed.

Importing this module imports `dafstream` (and numpy with it), so the set-up
probe in run.py times the import by timing the import of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dafstream import harness, ltcode
from dafstream.channel import ChannelModel
from dafstream.trace import VideoTrace, burst_trace, sinusoidal_trace
from dafstream.windowing import CodingParams, derive_params

#: Session seeds a cell cycles through, as the paper's 20 seeded sessions.
SESSION_SEEDS = 20

#: The workload seed whose session digests are committed in reference.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    modes: tuple[str, ...]
    code_rate: float
    delay_s: float
    channel: dict
    frames: int
    trace_kind: str        # "foreman" or "burst"
    payloads: bool
    reps: int              # sessions per visit of a cell


SPECS = {
    s.name: s for s in (
        Spec(name="readme-300",
             why="README table: 5 schemes on the 300-frame foreman-like trace; "
                 "per-packet layers (ltcode, protocol, harness) dominate",
             modes=("DAF", "DAF-L", "S-LT", "Block", "Expand"),
             code_rate=0.74, delay_s=0.8,
             channel={"kind": "single", "loss_rate": 0.1},
             frames=300, trace_kind="foreman", payloads=False, reps=4),
        Spec(name="long-daf-1800",
             why="60 s of video, DAF only: seed-invariant slope solve and "
                 "window work, O(T^2) slope_coeffs memory",
             modes=("DAF",),
             code_rate=0.74, delay_s=0.8,
             channel={"kind": "single", "loss_rate": 0.1},
             frames=1800, trace_kind="foreman", payloads=False, reps=5),
        Spec(name="relay-payload-300",
             why="real payload bytes over a mobile relay: XOR and wire bytes, "
                 "bursty outages deepen the decoder's pending set",
             modes=("DAF", "DAF-L"),
             code_rate=0.6, delay_s=0.8,
             channel={"kind": "mobile-relay", "loss_rate": 0.05,
                      "period_s": 2.0, "duty": 0.7},
             frames=300, trace_kind="burst", payloads=True, reps=5),
    )
}


@dataclass
class Cell:
    """One scheme at one operating point."""

    mode: str
    params: CodingParams


@dataclass
class Inputs:
    spec: Spec
    seed: int
    trace: VideoTrace
    payloads: list | None
    channel: ChannelModel
    cells: list


def make_trace(spec: Spec) -> VideoTrace:
    if spec.trace_kind == "foreman":
        return sinusoidal_trace(spec.frames, 9500, 5500, 100, first_frame_bytes=25000)
    return burst_trace(spec.frames, 4000, 12000, 50)


def make_payloads(trace: VideoTrace, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            for n in trace.frame_bytes]


def params_for(spec: Spec, trace: VideoTrace, mode: str) -> CodingParams:
    delay = harness.delay_to_frames(spec.delay_s, trace.frame_rate)
    return derive_params(trace, mode, delay, code_rate=spec.code_rate)


def build(name: str, seed: int) -> Inputs:
    """Everything a run needs before its first session."""
    spec = SPECS[name]
    trace = make_trace(spec)
    payloads = make_payloads(trace, seed) if spec.payloads else None
    # session s of a cell runs on channel seed SESSION_SEEDS * seed + s, so
    # no two workload seeds share a channel realization
    channel = ChannelModel(seed=SESSION_SEEDS * seed, **spec.channel)
    cells = [Cell(mode=m, params=params_for(spec, trace, m)) for m in spec.modes]
    return Inputs(spec=spec, seed=seed, trace=trace, payloads=payloads,
                  channel=channel, cells=cells)


def cold_caches() -> dict:
    """Clear the seed-invariant caches; return their counters before clearing."""
    slope = harness.cached_slope_plan.cache_info()
    degree = ltcode.robust_soliton.cache_info()
    harness.cached_slope_plan.cache_clear()
    ltcode.robust_soliton.cache_clear()
    return {"slope_plan_hits": slope.hits, "slope_plan_misses": slope.misses,
            "robust_soliton_hits": degree.hits, "robust_soliton_misses": degree.misses}
