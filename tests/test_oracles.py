"""Checks of the test-only reference computations on hand-built inputs."""

import pytest

from oracles import gf2_first_determined, minmax_decode_times


@pytest.mark.parametrize("equations, known, expected", [
    # x1+x2 and x2 fix both at the second equation
    ([{1, 2}, {2}], (), {1: 2, 2: 2}),
    # no equation has degree one, yet the sum of all three is x4 alone
    ([{1, 2}, {2, 3}, {1, 3, 4}], (), {4: 3}),
    # two equations over three unknowns hold no unit vector
    ([{1, 2}, {2, 3}], (), {}),
    # the known padding packet 3 completes x1+x3
    ([{1, 3}, {2, 3, 4}], (3,), {1: 1}),
])
def test_gf2_first_determined(equations, known, expected):
    assert gf2_first_determined(equations, known) == expected


@pytest.mark.parametrize("equations, known, expected", [
    # x1+x2 waits for x2 alone, so both come with PacketID 2
    ([(1, {1, 2}), (2, {2})], (), {1: 2, 2: 2}),
    # the cheaper of two chains: x1 at max(3, t[2] = 5), not at 8
    ([(8, {1}), (3, {1, 2}), (5, {2})], (), {1: 5, 2: 5}),
    # two equations over the same pair never peel
    ([(5, {1, 2}), (6, {1, 2})], (), {}),
    # the known padding packet 3 costs nothing
    ([(1, {1, 3}), (4, {2, 3, 5})], (3,), {1: 1}),
])
def test_minmax_decode_times(equations, known, expected):
    assert minmax_decode_times(equations, known) == expected
