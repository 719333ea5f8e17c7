"""Closed-form SPS collision model, packet-reception ratio and fairness indices.

The pairwise collision probability is the product of three factors:

    delta_col = P_O * P_SH|O * C_Ca / N_Ca^2

where P_O is the probability the two selection windows overlap within one
reservation period, P_SH|O = (N_Sc * N_Sh / N_r)^2 is the probability both
vehicles select from the shared portion of the overlap, and C_Ca / N_Ca^2
rescales to the candidate-PRB pool.  `collision_probability` computes the
whole product.  The pool constants C_Ca, N_r, N_Ca are not pinned down by the
factorisation itself, so ``SpsParams.collision_model`` picks one of two
calibrations:

``bounded-pool``
    The candidate pool is the full bounded selection range (w_UB + 1 slots,
    all subchannels) and the sensing filter admits a fraction gamma of it.
    delta_col is strictly increasing in both windows — larger windows share
    more resources — which is the behaviour the window optimiser trades off
    against residence time.

``uniform-selection``
    Constants chosen so the product collapses to 1 / (slots_per_rri * N_Sc):
    the exact collision probability of two independent uniform picks of a
    (slot offset, subchannel) reservation.  This matches the sensing-free
    Monte Carlo simulator mechanically and is the calibration the oracle
    validation runs under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import ChannelParams, spectral_efficiency
from .errors import ConfigError, ModelDomainError

COLLISION_MODELS = ("bounded-pool", "uniform-selection")

# slot bookkeeping -----------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def slots_per_rri(numerology: int, rri: float) -> int:
    """Number of slots in one reservation period: 1000 * 2^mu * rri.

    The slot duration is 2^(-mu) ms, so an RRI of `rri` seconds spans
    1000 * 2^mu * rri slots; that count must come out a positive integer.
    """
    if not (_is_int(numerology) and numerology >= 0):
        raise ConfigError("sps.numerology", "must be a non-negative integer")
    if not (0 < rri < math.inf):
        raise ConfigError("sps.rri", "must be finite and positive")
    raw = 1000.0 * 2 ** numerology * rri
    rounded = round(raw)
    if rounded < 1 or abs(raw - rounded) > 1e-6:
        raise ConfigError("sps.rri",
                          f"1000*2^mu*rri = {raw} is not a positive integer slot count")
    return int(rounded)


@dataclass(frozen=True)
class SpsParams:
    """SPS-layer parameters shared by the analytic model and the simulator."""

    rri: float = 0.05                 # s between reserved transmissions
    numerology: int = 0               # mu; slot duration 2^(-mu) ms
    num_subchannels: int = 2          # N_Sc
    selection_window: int = 15        # w, slots beyond the trigger slot
    window_bounds: tuple[int, int] = (0, 15)   # [w_LB, w_UB]
    keep_probability: float = 0.0     # P, chance to keep resources at RC=0
    candidate_fraction: float = 0.2   # gamma, minimum candidate-set fraction
    sensing_window: float = 1000.0    # ms, trailing observation span
    packet_rate: float = 20.0         # tau, packets/s
    rc_range: tuple[int, int] = (5, 15)   # reselection-counter redraw bounds
    collision_model: str = "bounded-pool"

    def __post_init__(self):
        slots_per_rri(self.numerology, self.rri)  # validates rri/mu jointly
        if not (_is_int(self.num_subchannels) and self.num_subchannels >= 1):
            raise ConfigError("sps.num_subchannels", "must be an integer >= 1")
        w_lb, w_ub = self.window_bounds
        if not (_is_int(w_lb) and _is_int(w_ub) and 0 <= w_lb <= w_ub):
            raise ConfigError("sps.window_bounds", "need integers 0 <= w_LB <= w_UB")
        if not (_is_int(self.selection_window)
                and w_lb <= self.selection_window <= w_ub):
            raise ConfigError("sps.selection_window",
                              f"{self.selection_window!r} is not an integer in "
                              f"[{w_lb}, {w_ub}]")
        if not (0.0 <= self.keep_probability <= 0.8):
            raise ConfigError("sps.keep_probability", "must lie in [0, 0.8]")
        if not (0.0 < self.candidate_fraction <= 1.0):
            raise ConfigError("sps.candidate_fraction", "must lie in (0, 1]")
        if not (0.0 < self.sensing_window < math.inf):
            raise ConfigError("sps.sensing_window", "must be finite and positive")
        if not (0.0 < self.packet_rate <= 1000.0):
            raise ConfigError("sps.packet_rate", "must lie in (0, 1000]")
        rc_lo, rc_hi = self.rc_range
        if not (_is_int(rc_lo) and _is_int(rc_hi) and 1 <= rc_lo <= rc_hi):
            raise ConfigError("sps.rc_range", "need integers 1 <= rc_min <= rc_max")
        if self.collision_model not in COLLISION_MODELS:
            raise ConfigError("sps.collision_model",
                              f"unknown model {self.collision_model!r}; "
                              f"choose from {COLLISION_MODELS}")

    @cached_property
    def slots_per_rri(self) -> int:
        # validated once in __post_init__; the simulator reads it per transmission
        return slots_per_rri(self.numerology, self.rri)


# Eq.-level operations -------------------------------------------------------


def collision_probability(params: SpsParams, w_i, w_j):
    """delta_col = P_O * P_SH|O * C_Ca / N_Ca^2 for windows (w_i, w_j).

    With T slots per RRI and N_Sc subchannels: P_O = (w_i + w_j + 1) / T,
    the shared slots N_Sh = (w_i + 1)(w_j + 1) / (w_i + w_j + 1), P_SH|O =
    (N_Sc N_Sh / N_r)^2 and C_Ca = N_Sc N_Sh.  ``bounded-pool`` takes
    N_r = N_Sc (w_UB + 1) and N_Ca = gamma N_r; ``uniform-selection`` takes
    N_r = N_Sc sqrt((w_i + 1)(w_j + 1)) and N_Ca = C_Ca.

    Windows may be scalars or broadcastable arrays, and every domain check
    covers every element: a negative window raises ``ValueError``; a span
    over T, N_Sc N_Sh > N_r or a delta outside [0, 1] raises
    ``ModelDomainError``.
    """
    w_i = np.asarray(w_i, dtype=float)
    w_j = np.asarray(w_j, dtype=float)
    if (w_i < 0).any() or (w_j < 0).any():
        raise ValueError("windows must be >= 0")
    slots = params.slots_per_rri
    span = w_i + w_j + 1.0
    if (span > slots).any():
        raise ModelDomainError(
            f"combined window span {np.max(span)} exceeds the "
            f"{slots}-slot reservation period")
    n_sc = params.num_subchannels
    n_sh = (w_i + 1.0) * (w_j + 1.0) / span
    if params.collision_model == "bounded-pool":
        n_r = n_sc * (params.window_bounds[1] + 1.0)
        n_ca = params.candidate_fraction * n_r
    else:  # uniform-selection
        n_r = n_sc * np.sqrt((w_i + 1.0) * (w_j + 1.0))
        n_ca = n_sc * n_sh
    ratio = n_sc * n_sh / n_r
    if np.any(ratio > 1.0 + 1e-12):
        raise ModelDomainError(
            f"shared resources N_Sc*N_Sh exceed the pool N_r "
            f"(ratio {np.max(ratio)})")
    delta = span / slots * np.minimum(ratio, 1.0) ** 2 * (n_sc * n_sh) / n_ca ** 2
    if not np.all((delta >= 0.0) & (delta <= 1.0)):
        raise ModelDomainError(
            f"delta_col outside [0, 1] (max {np.max(delta)}); "
            f"sps.candidate_fraction too small for the pool")
    return delta


def packet_reception_ratio(i: int, params: SpsParams,
                           windows: Sequence[float]) -> float:
    """PRR for vehicle i: prod_{j!=i} (1 - delta_col^j) * (1 - delta_hd).

    delta_hd = tau / 1000 is the chance the receiver is itself transmitting.
    """
    n = len(windows)
    if not 0 <= i < n:
        raise ValueError(f"vehicle index {i} outside 0..{n - 1}")
    delta_hd = params.packet_rate / 1000.0
    prr = 1.0
    for j in range(n):
        if j == i:
            continue
        prr *= 1.0 - collision_probability(params, windows[i], windows[j])
        prr *= 1.0 - delta_hd
    return float(prr)


# fairness indices -----------------------------------------------------------


@dataclass(frozen=True)
class FairnessInputs:
    """Everything Eq.-17/18-style fairness evaluation needs for one network.

    The fairness kernels take trial windows as an argument.  Every link
    runs at |h| = 1 and is evaluated at the mid-pass epoch: a vehicle at
    speed v sits at x = R/2 halfway through its residence time, whatever v
    is, so every lane and the mean-speed network term share one link rate.
    """

    channel: ChannelParams
    sps: SpsParams
    speeds: tuple[float, ...]                 # m/s, magnitudes
    rsu_position: tuple[float, float, float]  # m, from the scenario
    coverage_range: float                     # m, from the scenario

    def __post_init__(self):
        if len(self.speeds) < 1:
            raise ConfigError("fairness.speeds", "need at least one vehicle")
        if any(v <= 0 for v in self.speeds):
            raise ConfigError("fairness.speeds", "all speeds must be positive")
        if self.coverage_range <= 0:
            raise ConfigError("fairness.coverage_range", "must be positive")

    @property
    def num_vehicles(self) -> int:
        return len(self.speeds)

    @property
    def mean_speed(self) -> float:
        return float(np.mean(self.speeds))

    @cached_property
    def kappa(self) -> float:
        """log2(1 + SNR) of the link from the mid-pass point (R/2, 0, 0) to the RSU."""
        mid_pass = np.array([self.coverage_range / 2, 0.0, 0.0])
        rsu = np.asarray(self.rsu_position, dtype=float)
        return spectral_efficiency(self.channel, float(np.linalg.norm(mid_pass - rsu)))

    @cached_property
    def survival(self) -> np.ndarray:
        """(W, W) read-only: 1 - delta_col(w_LB + a, w_LB + b).  Building it
        checks the model's domain at every in-bounds pair."""
        w_lb, w_ub = self.sps.window_bounds
        w = np.arange(w_lb, w_ub + 1, dtype=float)
        table = 1.0 - collision_probability(self.sps, w[:, None], w[None, :])
        table.setflags(write=False)
        return table

    @cached_property
    def network(self) -> np.ndarray:
        """(N (W - 1) + 1,) read-only: K_index at window sum N w_LB + s, whose
        mean window (N w_LB + s) / N is what `np.mean` gives for that sum."""
        n = self.num_vehicles
        w_lb, w_ub = self.sps.window_bounds
        w_bar = np.arange(n * w_lb, n * w_ub + 1, dtype=float) / n
        delta = collision_probability(self.sps, w_bar, w_bar)
        table = self.kappa * (1.0 - delta) ** (n - 1) / self.mean_speed
        table.setflags(write=False)
        return table


def fairness_indices(windows, inputs: FairnessInputs):
    """K_index and K_index^i for M integer window vectors; (M, N) -> ((M,), (M, N)).

    K_index^i is the link rate kappa times vehicle i's survival product over
    the other vehicles, per unit speed; K_index is the same index evaluated
    at the network's mean speed and mean window.  Every lane shares the one
    kappa, so channel and geometry scale both indices alike.  Both are
    gathered from the `survival` and `network` tables of `inputs`.
    """
    windows = np.asarray(windows)
    n = inputs.num_vehicles
    if windows.ndim != 2 or windows.shape[1] != n:
        raise ValueError(f"expected (M, {n}) windows, got {windows.shape}")
    if not np.issubdtype(windows.dtype, np.integer):
        raise ValueError(f"windows must be integers, got dtype {windows.dtype}")
    w_lb, w_ub = inputs.sps.window_bounds
    if (windows < w_lb).any() or (windows > w_ub).any():
        raise ValueError(f"some window outside [{w_lb}, {w_ub}]")
    at = windows - w_lb

    # fancy indexing copies, so the diagonal is set on (M, N, N), not the table
    off_diag = inputs.survival[at[:, :, None], at[:, None, :]]
    idx = np.arange(n)
    off_diag[:, idx, idx] = 1.0
    speeds = np.asarray(inputs.speeds, dtype=float)
    k_i = inputs.kappa * off_diag.prod(axis=-1) / speeds
    return inputs.network[at.sum(axis=1)], k_i


def objective_batch(windows, inputs: FairnessInputs) -> np.ndarray:
    """F_i = |K_index - K_index^i| for M window vectors; (M, N) -> (M, N).

    The optimiser calls this once per generation; a single window vector is
    a one-row batch.
    """
    k_net, k_i = fairness_indices(windows, inputs)
    return np.abs(k_net[:, None] - k_i)
