"""Deterministic PRNGs pinned by the wire protocol.

Packet sampling uses xorshift64* seeded from the packet id, so encoder and
decoder reproduce the same degree and neighbor choices from the header alone.
The erasure channel uses a splitmix64 counter construction so each packet's
fate depends only on (seed, packet index), never on call order.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Nonzero salt XORed into packet ids; xorshift64* state must never be zero.
PACKET_SEED_SALT = 0x9E3779B97F4A7C15

_XS_MULT = 0x2545F4914F6CDD1D
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB


def next_u53s(state: int, n: int) -> tuple[np.ndarray, int]:
    """The next n deviates of one xorshift64* state (a Python int), as
    53-bit integers m (next_u64() >> 11; the uniform deviate is m * 2**-53),
    and the state after them."""
    x, out = state, []
    for _ in range(n):
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        out.append(((x * _XS_MULT) & MASK64) >> 11)
    return np.array(out, dtype=np.uint64), x


def packet_states(packet_ids) -> np.ndarray:
    """The seeded xorshift64* state both ends use for each coded packet:
    packet_id ^ PACKET_SEED_SALT, or PACKET_SEED_SALT where that is zero."""
    states = np.asarray(packet_ids, dtype=np.uint64) ^ np.uint64(PACKET_SEED_SALT)
    states[states == 0] = np.uint64(PACKET_SEED_SALT)
    return states


def xorshift64star_next(states: np.ndarray) -> np.ndarray:
    """Advance every uint64 state in place by one step.

    Returns the top 53 bits of each output (next_u64() >> 11), so the
    uniform deviate is the result times 2**-53.
    """
    with np.errstate(over="ignore"):
        states ^= states >> np.uint64(12)
        states ^= states << np.uint64(25)
        states ^= states >> np.uint64(27)
        return (states * np.uint64(_XS_MULT)) >> np.uint64(11)


def counter_uniforms(seed: int, indices: np.ndarray) -> np.ndarray:
    """Uniform in [0, 1) for each index, determined solely by (seed, index):
    the splitmix64 finalizer of seed + index * gamma, top 53 bits."""
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (np.uint64(seed) + idx * np.uint64(_SM_GAMMA)) + np.uint64(_SM_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_MIX2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53
