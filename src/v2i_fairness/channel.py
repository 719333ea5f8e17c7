"""Link-level channel model: SNR and spectral efficiency, plus Jakes fading kernels.

The fairness index reads the spectral efficiency log2(1 + SNR) of each link
at |h| = 1.  The fading kernels below are library functions that no verb
reads: the channel gain h can evolve as a first-order autoregressive process
    h(t) = rho * h(t - dt) + e(t) * sqrt(1 - rho^2),
where e(t) is circularly-symmetric complex Gaussian with unit variance and the
correlation coefficient rho = J0(2*pi*f_d*dt) follows the Jakes Doppler
spectrum.  With unit-variance innovations the process is stationary with
E[|h|^2] = 1, so |h|^2 enters the SNR directly as a power ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .util import as_rng


@dataclass(frozen=True)
class ChannelParams:
    """Static link parameters; defaults are working assumptions, not measured values."""

    tx_power: float = 1.0             # p, W
    noise_power: float = 1e-3         # sigma^2, W
    path_loss_exponent: float = 2.0   # dimensionless, free-space-like

    def __post_init__(self) -> None:
        for key in ("tx_power", "noise_power"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"channel.{key}", "must be positive")
        if self.path_loss_exponent < 0:
            raise ConfigError("channel.path_loss_exponent", "must be non-negative")


def doppler_shift(speed: float, wavelength: float, angle_cos: float = 1.0) -> float:
    """Doppler shift f_d = (v / wavelength) * cos(theta), in Hz."""
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    return (speed / wavelength) * angle_cos


# Power series is accurate (and cancellation-safe in float64) up to this |x|;
# beyond it the Hankel asymptotic expansion takes over.
_SERIES_CUTOFF = 12.0
_ASYMPTOTIC_TERMS = 11


def bessel_j0(x: float) -> float:
    """Zeroth-order Bessel function of the first kind, |error| < 1e-6 on |x| <= 1000.

    Power series sum_k (-1)^k (x^2/4)^k / (k!)^2 below the cutoff; Hankel's
    asymptotic expansion J0(x) ~ sqrt(2/(pi x)) [P cos(x - pi/4) - Q sin(x - pi/4)]
    above it, where P collects the even and Q the odd terms of the divergent tail.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"bessel_j0 requires finite x, got {x}")
    ax = abs(x)  # J0 is even
    if ax <= _SERIES_CUTOFF:
        z = -0.25 * ax * ax
        term = 1.0
        total = 1.0
        for k in range(1, 60):
            term *= z / (k * k)
            total += term
            if abs(term) < 1e-17 * max(1.0, abs(total)):
                break
        return total
    # t_k follows t_{k-1} * (2k-1)^2 / (8 x k); truncating near the smallest
    # term keeps the error ~3e-10 at the cutoff and it shrinks with x.
    omega = ax - 0.25 * math.pi
    t = 1.0
    p_sum = 1.0
    q_sum = 0.0
    for k in range(1, _ASYMPTOTIC_TERMS):
        t *= (2 * k - 1) ** 2 / (8.0 * ax * k)
        if k % 2 == 0:
            p_sum += t if k % 4 == 0 else -t
        else:
            q_sum += -t if k % 4 == 1 else t
    return math.sqrt(2.0 / (math.pi * ax)) * (p_sum * math.cos(omega) - q_sum * math.sin(omega))


def correlation(doppler: float, lag: float) -> float:
    """Jakes temporal correlation rho = J0(2 pi f_d t), clamped to [-1, 1]."""
    return min(1.0, max(-1.0, bessel_j0(2.0 * math.pi * doppler * lag)))


def ar1_step(h_prev, rho: float, rng=None):
    """One AR(1) update: rho * h_prev + sqrt(1 - rho^2) * e, e ~ CN(0, 1).

    Accepts a scalar or an array of gains; an array advances that many
    independent chains with one call.
    """
    if abs(rho) > 1:
        raise ValueError(f"|rho| must be <= 1, got {rho}")
    rng = as_rng(rng)
    h_prev = np.asarray(h_prev, dtype=complex)
    e = (rng.standard_normal(h_prev.shape) + 1j * rng.standard_normal(h_prev.shape))
    e /= math.sqrt(2.0)
    out = rho * h_prev + math.sqrt(1.0 - rho * rho) * e
    if out.shape == ():
        return complex(out)
    return out


def snr(params: ChannelParams, h, distance: float) -> float:
    """Received SNR p * |h|^2 * d^(-alpha) / sigma^2 at distance d > 0."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    gain = abs(h) ** 2
    return params.tx_power * gain * distance ** (-params.path_loss_exponent) / params.noise_power


def spectral_efficiency(params: ChannelParams, h, distance: float) -> float:
    """log2(1 + SNR) in bit/s/Hz — the rate term of the fairness index."""
    return math.log2(1.0 + snr(params, h, distance))
