import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2i_fairness.channel import (
    ChannelParams,
    ar1_step,
    bessel_j0,
    correlation,
    doppler_shift,
    snr,
    spectral_efficiency,
)
from v2i_fairness.errors import ConfigError


def j0_reference(x: float) -> float:
    """Independent high-precision J0 via the defining power series.

    The alternating series cancels catastrophically for large x, so the
    working precision grows with x (the largest term is ~e^{2x}).
    """
    with mpmath.workdps(40 + int(abs(x))):
        z = mpmath.mpf(x)
        term = mpmath.mpf(1)
        total = mpmath.mpf(1)
        k = 0
        while abs(term) > mpmath.mpf(10) ** -30 * (1 + abs(total)):
            k += 1
            term *= -(z * z / 4) / (k * k)
            total += term
        return float(total)


@pytest.mark.parametrize("v, lam, cos_t, expected", [
    (25.0, 0.05, 1.0, 500.0),
    (25.0, 0.05, 0.0, 0.0),
    (30.0, 0.0508, 0.5, 295.27559),
])
def test_doppler_shift_values(v, lam, cos_t, expected):
    assert doppler_shift(v, lam, cos_t) == pytest.approx(expected, abs=1e-4)


def test_doppler_shift_rejects_bad_wavelength():
    with pytest.raises(ValueError):
        doppler_shift(25.0, 0.0)
    with pytest.raises(ValueError):
        doppler_shift(25.0, -0.05)


def test_bessel_j0_pinned_values():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j0(1.0) == pytest.approx(0.7651977, abs=1e-6)
    assert abs(bessel_j0(2.404826)) < 1e-5  # first zero


def test_bessel_j0_even_function():
    for x in (0.5, 3.7, 12.0, 40.0, 313.0):
        assert bessel_j0(-x) == bessel_j0(x)


def test_bessel_j0_rejects_nonfinite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bessel_j0(bad)


def test_bessel_j0_matches_series_oracle_dense_grid():
    # acceptance range is [0, 50]; the implementation contract extends to 1000
    for x in np.linspace(0.0, 50.0, 1001):
        assert abs(bessel_j0(float(x)) - j0_reference(float(x))) < 1e-6, x


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1000.0, allow_nan=False))
def test_bessel_j0_full_range_against_mpmath(x):
    with mpmath.workdps(40):
        ref = float(mpmath.besselj(0, x))
    assert abs(bessel_j0(x) - ref) < 1e-6


def test_bessel_j0_continuous_across_series_cutoff():
    # the series/asymptotic handover must not introduce a visible jump
    lo, hi = bessel_j0(12.0 - 1e-9), bessel_j0(12.0 + 1e-9)
    assert abs(lo - hi) < 1e-7


@pytest.mark.parametrize("f_d, t, expected", [
    (0.0, 1.0, 1.0),
    (500.0, 0.0, 1.0),
    (100.0, 0.001, 0.9037),
])
def test_correlation_values(f_d, t, expected):
    assert correlation(f_d, t) == pytest.approx(expected, abs=1e-4)


@given(st.floats(0.0, 5000.0), st.floats(0.0, 10.0))
def test_correlation_bounded(f_d, t):
    assert -1.0 <= correlation(f_d, t) <= 1.0


def test_ar1_step_rho_one_freezes_channel():
    for seed in (0, 1, 99):
        assert ar1_step(1.0 + 0.0j, 1.0, seed) == 1.0 + 0.0j


def test_ar1_step_rho_zero_is_raw_draw():
    rng = np.random.default_rng(5)
    e = (rng.standard_normal(()) + 1j * rng.standard_normal(())) / math.sqrt(2.0)
    assert ar1_step(123.0 + 4.0j, 0.0, np.random.default_rng(5)) == pytest.approx(complex(e))


def test_ar1_step_deterministic_per_seed():
    a = ar1_step(0.3 + 0.1j, 0.9, 11)
    b = ar1_step(0.3 + 0.1j, 0.9, 11)
    assert a == b


def test_ar1_step_rejects_rho_out_of_range():
    with pytest.raises(ValueError):
        ar1_step(1.0, 1.5, 0)


def test_ar1_stationary_second_moment():
    """E|h|^2 stays at 1 under rho=0.9 across 1e5 chains started at |h|=1."""
    n_chains, n_steps, rho = 100_000, 40, 0.9
    rng = np.random.default_rng(2024)
    h = np.ones(n_chains, dtype=complex)
    for _ in range(n_steps):
        h = ar1_step(h, rho, rng)
    power = np.abs(h) ** 2
    se = power.std(ddof=1) / math.sqrt(n_chains)
    assert abs(power.mean() - 1.0) < max(3 * se, 0.02)


# The Shannon rate per hertz, log2(1 + SNR), is the rate term of the fairness
# index; spectral_efficiency computes it.


def test_shannon_rate_values():
    # unit SNR product -> log2(2) = 1
    p = ChannelParams(tx_power=1.0, noise_power=1.0, path_loss_exponent=0.0)
    assert spectral_efficiency(p, 1.0, 5.0) == pytest.approx(1.0)
    # SNR 0.1 at 100 m with inverse-square loss
    p = ChannelParams(tx_power=1.0, noise_power=1e-3, path_loss_exponent=2.0)
    assert spectral_efficiency(p, 1.0, 100.0) == pytest.approx(0.1375035, abs=5e-7)
    # same geometry with micro-watt noise -> SNR 100
    p = ChannelParams(tx_power=1.0, noise_power=1e-6, path_loss_exponent=2.0)
    assert spectral_efficiency(p, 1.0, 100.0) == pytest.approx(math.log2(101.0))


def test_shannon_rate_zero_power_param_rejected_but_zero_gain_ok():
    p = ChannelParams()
    assert spectral_efficiency(p, 0.0, 100.0) == 0.0
    with pytest.raises(ConfigError):
        ChannelParams(tx_power=0.0)


def test_shannon_rate_rejects_nonpositive_distance():
    p = ChannelParams()
    for d in (0.0, -10.0):
        with pytest.raises(ValueError):
            spectral_efficiency(p, 1.0, d)


@settings(max_examples=100)
@given(st.floats(1.0, 1e4), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_shannon_rate_decreasing_in_distance(d, gain, extra):
    p = ChannelParams()
    assert spectral_efficiency(p, gain, d + extra) < spectral_efficiency(p, gain, d)


@settings(max_examples=100)
@given(st.floats(1.0, 1e4), st.floats(0.1, 3.0), st.floats(1.01, 3.0))
def test_shannon_rate_increasing_in_gain(d, gain, factor):
    p = ChannelParams()
    assert spectral_efficiency(p, gain * factor, d) > spectral_efficiency(p, gain, d)


def test_snr_and_spectral_efficiency_consistent():
    p = ChannelParams()
    d, h = 37.0, 0.8 + 0.4j
    assert spectral_efficiency(p, h, d) == pytest.approx(math.log2(1 + snr(p, h, d)))


def test_channel_params_validation():
    with pytest.raises(ConfigError, match="noise_power"):
        ChannelParams(noise_power=0.0)
    with pytest.raises(ConfigError, match="path_loss_exponent"):
        ChannelParams(path_loss_exponent=-0.5)


def test_correlation_at_composes_doppler_and_lag():
    # 25 m/s at a 0.05 m wavelength -> f_d = 500 Hz -> rho = J0(2*pi*0.5)
    rho = correlation(doppler_shift(25.0, 0.05, 1.0), 0.001)
    assert rho == pytest.approx(bessel_j0(math.pi), abs=1e-12)
