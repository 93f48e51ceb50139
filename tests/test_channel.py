from unittest import mock

import numpy as np
import pytest

from dafstream.channel import ChannelModel, transmit_many
from dafstream.errors import ConfigError
from dafstream import harness
from dafstream.harness import run_session, sweep
from dafstream.prng import counter_uniforms
from dafstream.trace import constant_trace
from dafstream.windowing import derive_params

from oracles import counter_uniform, transmit


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ChannelModel(kind="wormhole")

    def test_bad_rates(self):
        with pytest.raises(ConfigError):
            ChannelModel(loss_rate=1.0)
        with pytest.raises(ConfigError):
            ChannelModel(loss_rate=-0.1)
        with pytest.raises(ConfigError):
            ChannelModel(kind="chain", hops=0)
        with pytest.raises(ConfigError):
            ChannelModel(kind="mobile-relay", duty=0.0, period_s=1.0)
        for period in (0.0, float("nan")):  # a NaN period would lose every packet
            with pytest.raises(ConfigError, match="period"):
                ChannelModel(kind="mobile-relay", duty=0.5, period_s=period)

    def test_seed_is_64_bits(self):
        for seed in (-1, 1 << 64):
            with pytest.raises(ConfigError, match="seed"):
                ChannelModel(seed=seed)
        assert ChannelModel(seed=(1 << 64) - 1).seed == (1 << 64) - 1

    def test_session_seed_checked_before_any_work(self):
        # run_session adds the session seed to the channel's; a sum outside
        # 64 bits is a ConfigError before the session plan is built
        t = constant_trace(30, 3000, payload_bytes=1024)
        p = derive_params(t, "DAF-L", 10, code_rate=0.8)
        with pytest.raises(ConfigError, match="seed"):
            run_session(t, p, ChannelModel(seed=2), -3)
        assert "_session_plan" not in p.__dict__
        # a sweep checks its last session's seed before its first session
        with mock.patch.object(harness, "run_session", side_effect=AssertionError), \
                pytest.raises(ConfigError, match="seed"):
            sweep(t, ["DAF-L"], [0.8], [0.33], [ChannelModel(seed=1)], repetitions=3,
                  base_seed=(1 << 64) - 3)

    def test_seed_must_be_an_integer(self):
        # a float or bool seed would run another seed's channel: 1.5, 1.0 and
        # True all delivered what seed 1 delivers
        for seed in (1.5, 1.0, True, np.float64(2.0), np.bool_(True), "1"):
            with pytest.raises(ConfigError, match="not an integer"):
                ChannelModel(seed=seed)
        for seed in (np.int64(7), np.uint64((1 << 64) - 1), np.int8(3)):
            model = ChannelModel(kind="single", loss_rate=0.5, seed=seed)
            assert np.array_equal(transmit_many(model, np.arange(1, 9), np.zeros(8)),
                                  transmit_many(ChannelModel(kind="single", loss_rate=0.5,
                                                             seed=int(seed)),
                                                np.arange(1, 9), np.zeros(8)))

    def test_hop_count_must_be_an_integer(self):
        # 1.5 hops ran at delivery probability 0.5 ** 1.5, and True described
        # itself as chain:hops=True
        for hops in (1.5, 2.0, True, np.float64(3.0), "2"):
            with pytest.raises(ConfigError, match="hop count .* not an integer"):
                ChannelModel(kind="chain", hops=hops, loss_rate=0.5)
        model = ChannelModel(kind="chain", hops=np.int64(2), loss_rate=0.5)
        assert model.delivery_prob() == 0.25 and model.describe() == "chain:hops=2:plr=0.5"

    def test_session_seed_must_be_an_integer(self):
        t = constant_trace(30, 3000, payload_bytes=1024)
        p = derive_params(t, "DAF-L", 10, code_rate=0.8)
        for seed in (0.5, True, 2.0):
            with pytest.raises(ConfigError, match="session seed .* not an integer"):
                run_session(t, p, ChannelModel(seed=2), seed)
        assert "_session_plan" not in p.__dict__
        assert run_session(t, p, ChannelModel(seed=2), np.int64(1)).canonical_bytes() == \
            run_session(t, p, ChannelModel(seed=2), 1).canonical_bytes()
        with pytest.raises(ConfigError, match="outside"):  # a uint64 sum would wrap to 0
            ChannelModel(seed=np.uint64((1 << 64) - 1)).for_session(1)
        with mock.patch.object(harness, "run_session", side_effect=AssertionError):
            for base_seed in (0.5, True):
                with pytest.raises(ConfigError, match="not an integer"):
                    sweep(t, ["DAF-L"], [0.8], [0.33], [ChannelModel(seed=1)], repetitions=1,
                          base_seed=base_seed)


class TestCounterPrng:
    def test_vector_matches_scalar(self):
        idx = np.arange(1, 2000)
        vec = counter_uniforms(12345, idx)
        for i in (0, 7, 1337, 1998):
            assert vec[i] == counter_uniform(12345, int(idx[i]))

    def test_order_independent(self):
        model = ChannelModel(kind="single", loss_rate=0.3, seed=9)
        forward = [transmit(model, i, 0.0) for i in range(1, 200)]
        backward = [transmit(model, i, 0.0) for i in range(199, 0, -1)]
        assert forward == backward[::-1]

    def test_uniformity(self):
        u = counter_uniforms(42, np.arange(10**5))
        assert abs(u.mean() - 0.5) < 0.005
        assert np.all(u >= 0) and np.all(u < 1)


class TestTransmit:
    def test_zero_loss_always_delivers(self):
        model = ChannelModel(kind="single", loss_rate=0.0, seed=3)
        assert all(transmit(model, i, i * 0.01) for i in range(1, 500))

    def test_three_hop_chain_rate(self):
        model = ChannelModel(kind="chain", loss_rate=0.05, hops=3, seed=11)
        n = 10**6
        delivered = transmit_many(model, np.arange(1, n + 1), np.zeros(n))
        p = 0.95 ** 3
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(delivered.mean() - p) < 3 * sigma

    def test_single_hop_rate(self):
        model = ChannelModel(kind="single", loss_rate=0.10, seed=77)
        n = 10**6
        delivered = transmit_many(model, np.arange(1, n + 1), np.zeros(n))
        sigma = (0.9 * 0.1 / n) ** 0.5
        assert abs(delivered.mean() - 0.9) < 3 * sigma

    def test_relay_off_phase_drops_everything(self):
        model = ChannelModel(kind="mobile-relay", loss_rate=0.0,
                             period_s=2.0, duty=0.7, seed=5)
        # on-phase is [0, 1.4) of every 2-second cycle
        assert transmit(model, 1, 0.5)
        assert transmit(model, 2, 1.39)
        assert not transmit(model, 3, 1.5)
        assert not transmit(model, 4, 3.9)
        assert transmit(model, 5, 4.1)

    def test_relay_vector_matches_scalar(self):
        model = ChannelModel(kind="mobile-relay", loss_rate=0.2,
                             period_s=1.5, duty=0.6, seed=21)
        idx = np.arange(1, 400)
        times = np.linspace(0, 30, 399)
        vec = transmit_many(model, idx, times)
        scalar = [transmit(model, int(i), float(t)) for i, t in zip(idx, times)]
        assert vec.tolist() == scalar

    def test_same_seed_same_outcome(self):
        a = ChannelModel(kind="single", loss_rate=0.5, seed=100)
        b = ChannelModel(kind="single", loss_rate=0.5, seed=100)
        idx = np.arange(1, 1000)
        assert np.array_equal(transmit_many(a, idx, np.zeros(999)),
                              transmit_many(b, idx, np.zeros(999)))

    def test_effective_hops(self):
        assert ChannelModel(kind="single", hops=5).effective_hops == 1
        assert ChannelModel(kind="chain", hops=3).effective_hops == 3
        assert ChannelModel(kind="mobile-relay", period_s=1.0).effective_hops == 2
