import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2i_fairness.channel import ChannelParams, spectral_efficiency
from v2i_fairness.errors import ConfigError

# The Shannon rate per hertz, log2(1 + SNR), is the rate term of the fairness
# index; spectral_efficiency computes it at |h| = 1.


def test_shannon_rate_values():
    # unit SNR product -> log2(2) = 1
    p = ChannelParams(tx_power=1.0, noise_power=1.0, path_loss_exponent=0.0)
    assert spectral_efficiency(p, 5.0) == pytest.approx(1.0)
    # SNR 0.1 at 100 m with inverse-square loss
    p = ChannelParams(tx_power=1.0, noise_power=1e-3, path_loss_exponent=2.0)
    assert spectral_efficiency(p, 100.0) == pytest.approx(0.1375035, abs=5e-7)
    # same geometry with micro-watt noise -> SNR 100
    p = ChannelParams(tx_power=1.0, noise_power=1e-6, path_loss_exponent=2.0)
    assert spectral_efficiency(p, 100.0) == pytest.approx(math.log2(101.0))


def test_shannon_rate_zero_power_param_rejected():
    with pytest.raises(ConfigError):
        ChannelParams(tx_power=0.0)


def test_shannon_rate_rejects_nonpositive_distance():
    p = ChannelParams()
    for d in (0.0, -10.0):
        with pytest.raises(ValueError):
            spectral_efficiency(p, d)


@settings(max_examples=100)
@given(st.floats(1.0, 1e4), st.floats(0.1, 3.0))
def test_shannon_rate_decreasing_in_distance(d, extra):
    p = ChannelParams()
    assert spectral_efficiency(p, d + extra) < spectral_efficiency(p, d)


@settings(max_examples=100)
@given(st.floats(1.0, 1e4), st.floats(0.1, 3.0), st.floats(1.01, 3.0))
def test_shannon_rate_increasing_in_tx_power(d, power, factor):
    low = ChannelParams(tx_power=power)
    high = ChannelParams(tx_power=power * factor)
    assert spectral_efficiency(high, d) > spectral_efficiency(low, d)


def test_snr_and_spectral_efficiency_consistent():
    p = ChannelParams(tx_power=0.2, noise_power=0.05, path_loss_exponent=3.5)
    d = 37.0
    snr = 0.2 * d ** -3.5 / 0.05
    assert spectral_efficiency(p, d) == pytest.approx(math.log2(1 + snr))


def test_channel_params_validation():
    with pytest.raises(ConfigError, match="noise_power"):
        ChannelParams(noise_power=0.0)
    with pytest.raises(ConfigError, match="path_loss_exponent"):
        ChannelParams(path_loss_exponent=-0.5)
