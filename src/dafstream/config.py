"""Flat key-value config files for the CLI harness.

Format: one `key = value` per line, `#` comments, blank lines ignored.
Lists (for sweeps) are comma-separated. Unknown keys are rejected so typos
fail before any work starts.
"""

from __future__ import annotations

import math

from .channel import ChannelModel
from .errors import ConfigError
from .harness import delay_to_frames
from .trace import (VideoTrace, burst_trace, constant_trace, load_trace,
                    sinusoidal_trace)
from .windowing import CodingParams, derive_params

KNOWN_KEYS = {
    "trace.kind", "trace.path", "trace.frames", "trace.fps", "trace.gop",
    "trace.packet_bytes", "trace.bytes_per_frame", "trace.mean_bytes",
    "trace.amp_bytes", "trace.period_frames", "trace.low_bytes",
    "trace.high_bytes", "trace.first_frame_bytes",
    "mode", "delay_s", "dt_frames", "code_rate", "data_rate_kbps",
    "channel.kind", "channel.plr", "channel.hops", "channel.period_s",
    "channel.duty", "channel.seed",
    "sweep.modes", "sweep.code_rates", "sweep.delays_s",
}


def parse_config(text: str) -> dict[str, str]:
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror or exc}") from None
    return parse_config(text)


def _get(cfg, key, cast, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        value = cast(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {cfg[key]!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: {cfg[key]!r} is not a finite number")
    return value


def trace_from_config(cfg: dict[str, str]) -> VideoTrace:
    """The trace a config describes; a value its builder rejects is a ConfigError."""
    try:
        return _build_trace(cfg)
    except ValueError as exc:
        raise ConfigError(f"trace: {exc}") from None


def _build_trace(cfg: dict[str, str]) -> VideoTrace:
    kind = cfg.get("trace.kind", "csv")
    fps = _get(cfg, "trace.fps", float, 30.0)
    gop = _get(cfg, "trace.gop", int, 1)
    P = _get(cfg, "trace.packet_bytes", int, 1024)
    if kind == "csv":
        path = cfg.get("trace.path")
        if not path:
            raise ConfigError("trace.kind=csv needs trace.path")
        try:
            return load_trace(path, P, frame_rate=fps, gop_size=gop)
        except OSError as exc:
            raise ConfigError(f"cannot read trace.path {path!r}: {exc.strerror or exc}") from None
    frames = _get(cfg, "trace.frames", int)
    if kind == "constant":
        return constant_trace(frames, _get(cfg, "trace.bytes_per_frame", int),
                              frame_rate=fps, payload_bytes=P, gop_size=gop)
    if kind == "sinusoidal":
        first = "trace.first_frame_bytes"
        return sinusoidal_trace(frames, _get(cfg, "trace.mean_bytes", int),
                                _get(cfg, "trace.amp_bytes", int),
                                _get(cfg, "trace.period_frames", int),
                                frame_rate=fps, payload_bytes=P, gop_size=gop,
                                first_frame_bytes=_get(cfg, first, int) if cfg.get(first) else None)
    if kind == "burst":
        return burst_trace(frames, _get(cfg, "trace.low_bytes", int),
                           _get(cfg, "trace.high_bytes", int),
                           _get(cfg, "trace.period_frames", int),
                           frame_rate=fps, payload_bytes=P, gop_size=gop)
    raise ConfigError(f"unknown trace.kind {kind!r}")


def channel_from_config(cfg: dict[str, str]) -> ChannelModel:
    return ChannelModel(
        kind=cfg.get("channel.kind", "single"),
        loss_rate=_get(cfg, "channel.plr", float, 0.0),
        hops=_get(cfg, "channel.hops", int, 1),
        period_s=_get(cfg, "channel.period_s", float, 0.0),
        duty=_get(cfg, "channel.duty", float, 1.0),
        seed=_get(cfg, "channel.seed", int, 0),
    )


def params_from_config(cfg: dict[str, str], trace: VideoTrace) -> CodingParams:
    if ("code_rate" in cfg) == ("data_rate_kbps" in cfg):
        raise ConfigError("give exactly one of code_rate or data_rate_kbps")
    delay_frames = delay_to_frames(_get(cfg, "delay_s", float), trace.frame_rate)
    kwargs = {}
    if "code_rate" in cfg:
        kwargs["code_rate"] = _get(cfg, "code_rate", float)
    else:
        kwargs["data_rate"] = _get(cfg, "data_rate_kbps", float) * 1000.0 / 8.0
    return derive_params(trace, cfg.get("mode", "DAF"), delay_frames,
                         step_frames=step_from_config(cfg), **kwargs)


def step_from_config(cfg: dict[str, str]) -> int:
    """The window step in frames (`dt_frames`, 1 by default)."""
    return _get(cfg, "dt_frames", int, 1)


def _grid_axis(cfg, key: str, run_key: str, cast, default=None) -> list:
    """The comma-separated values of `key`, else the one value of `run_key`."""
    if key not in cfg:
        return [_get(cfg, run_key, cast, default)]
    items = [_get({key: v.strip()}, key, cast) for v in cfg[key].split(",") if v.strip()]
    if not items:
        raise ConfigError(f"config key {key!r}: empty list")
    return items


def sweep_grid_from_config(cfg: dict[str, str]):
    """(modes, code_rates, delays_s) lists; singletons fall back to run keys."""
    return (_grid_axis(cfg, "sweep.modes", "mode", str, "DAF"),
            _grid_axis(cfg, "sweep.code_rates", "code_rate", float),
            _grid_axis(cfg, "sweep.delays_s", "delay_s", float))
