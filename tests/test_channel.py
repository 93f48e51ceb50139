import numpy as np
import pytest

from dafstream.channel import ChannelModel, transmit_many
from dafstream.errors import ConfigError
from dafstream.prng import counter_uniforms

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
        with pytest.raises(ConfigError, match="period"):
            ChannelModel(kind="mobile-relay", duty=0.5)


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
