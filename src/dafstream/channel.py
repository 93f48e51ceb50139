"""Seeded erasure-channel models.

Losses are independent Bernoulli draws from a counter-based generator, so a
packet's fate depends only on (seed, packet index) and never on call order.
The mobile-relay model adds a square-wave connectivity gate: during the
off-phase every packet is lost regardless of the draw.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .prng import MASK64, counter_uniforms

KINDS = ("single", "chain", "mobile-relay")


@dataclass(frozen=True)
class ChannelModel:
    kind: str = "single"
    loss_rate: float = 0.0    # per hop
    hops: int = 1
    period_s: float = 0.0     # relay on/off cycle
    duty: float = 1.0         # fraction of the cycle the relay is reachable
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown channel kind {self.kind!r}; expected one of {KINDS}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigError(f"loss rate {self.loss_rate} outside [0, 1)")
        check_integer(self.hops, "hop count")
        if self.hops < 1:
            raise ConfigError("hop count must be >= 1")
        if not 0.0 < self.duty <= 1.0:
            raise ConfigError(f"duty cycle {self.duty} outside (0, 1]")
        if self.kind == "mobile-relay" and not self.period_s > 0:  # NaN fails too
            raise ConfigError("mobile-relay channel needs a positive period_s")
        check_integer(self.seed, "channel seed")
        object.__setattr__(self, "seed", int(self.seed))  # numpy integers wrap; ints do not
        if not 0 <= self.seed <= MASK64:
            raise ConfigError(f"channel seed {self.seed} outside 0..2**64 - 1")

    def for_session(self, seed) -> "ChannelModel":
        """This channel as session `seed` sees it, seeded self.seed + seed;
        a seed that is no integer, or a sum outside 0..2**64 - 1, is a
        ConfigError."""
        check_integer(seed, "session seed")
        return replace(self, seed=self.seed + int(seed))

    @property
    def effective_hops(self) -> int:
        if self.kind == "single":
            return 1
        if self.kind == "mobile-relay":
            return 2
        return self.hops

    def delivery_prob(self) -> float:
        """End-to-end delivery probability while connected."""
        return (1.0 - self.loss_rate) ** self.effective_hops

    def describe(self) -> str:
        if self.kind == "single":
            return f"single:plr={self.loss_rate:g}"
        if self.kind == "chain":
            return f"chain:hops={self.hops}:plr={self.loss_rate:g}"
        return (f"mobile-relay:plr={self.loss_rate:g}:period={self.period_s:g}"
                f":duty={self.duty:g}")


def check_integer(value, what: str):
    """ConfigError unless `value` is an integer (a bool is not): a float or
    bool seed would be truncated to some other seed's channel, and a float
    frame count would index the trace between frames."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} {value!r} is not an integer")


def transmit_many(model: ChannelModel, packet_indices, send_times_s) -> np.ndarray:
    """Whether each packet, sent at its time, survives the channel; each
    outcome depends on the packet's index and time alone, never on order."""
    idx = np.asarray(packet_indices)
    delivered = counter_uniforms(model.seed, idx) < model.delivery_prob()
    if model.kind == "mobile-relay":
        times = np.asarray(send_times_s, dtype=np.float64)
        open_gate = (times % model.period_s) < model.duty * model.period_s
        delivered &= open_gate
    return delivered
