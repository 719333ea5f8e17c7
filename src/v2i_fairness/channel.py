"""Link-level channel model: the spectral efficiency log2(1 + SNR) of one link.

The fairness index scales each lane's collision-survival product by this
rate.  Every link runs at |h| = 1, so the SNR is p * d^(-alpha) / sigma^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ChannelParams:
    """Static link parameters; defaults are working assumptions, not measured values."""

    tx_power: float = 1.0             # p, W
    noise_power: float = 1e-3         # sigma^2, W
    path_loss_exponent: float = 2.0   # dimensionless, free-space-like

    def __post_init__(self) -> None:
        for key in ("tx_power", "noise_power"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"channel.{key}", "must be finite and positive")
        if not 0 <= self.path_loss_exponent < math.inf:
            raise ConfigError("channel.path_loss_exponent",
                              "must be finite and non-negative")


def spectral_efficiency(params: ChannelParams, distance: float) -> float:
    """log2(1 + SNR) in bit/s/Hz at distance d > 0, SNR = p * d^(-alpha) / sigma^2."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    snr = params.tx_power * distance ** (-params.path_loss_exponent) / params.noise_power
    return math.log2(1.0 + snr)
