"""Monte Carlo simulator for sensing-based semi-persistent scheduling.

Vehicles reserve one PRB (slot, subchannel) per resource reservation
interval and redraw it when their reselection counter expires.  The
simulator serves as an independent oracle for the closed-form collision
and reception models in :mod:`v2i_fairness.sps_analytics`: it never calls
into that module and shares no derivation with it.

Nothing random happens between two reselection-counter expiries, so an
episode jumps from one expiry slot to the next: per vehicle it holds the
first slot and subchannel of its current periodic run and the slot its
counter next expires, and it counts its transmissions from those runs.  The
numerology, counter range and keep probability are read from the shared
:class:`SpsParams`.  Both kinds of episode run the one loop and differ only
in the pick.  Blind selection is uniform over the window.  With
``SimConfig.sensing`` the pick drops what the sensing window announced: per
(slot phase, subchannel), the last slot in which another vehicle was heard
there, read from the periodic runs that the stepwise-pruned sensing window
still covers.

Collision probability is reported under two readings because the
closed-form model is ambiguous about which event it counts:

* ``reselection_collision`` -- at the instant a vehicle redraws its PRB,
  the probability the new pick lands on another vehicle's standing
  reservation (same slot phase modulo the RRI and same subchannel).
  Without sensing the pick is uniform over the window, so the hit
  probability given the neighbour's phase is scored directly (conditional
  Monte Carlo); relative phases mix slowly between vehicles, which makes
  the raw 0/1 indicator extremely noisy for small windows.
* ``collided_fraction`` -- the share of transmissions that share their
  PRB with at least one concurrent transmission.

The first matches the random-selection model exactly in the stationary
regime; the second runs slightly hot because reselection shortens the
average gap between transmissions.  Both are returned so the discrepancy
stays visible.  :func:`estimate` runs the episodes and returns both readings
and the PRR from one simulation; :func:`estimate_collision_prob` and
:func:`estimate_prr` each return one of its two rows.

Draws come in blocks: an estimate asks its Generator for ``_BLOCK``
uniforms at a time and hands them out one by one, and an integer in
``[lo, hi)`` is ``lo + floor(u * (hi - lo))`` of the next uniform ``u``.  A
Generator passed in as ``rng_seed`` therefore advances by whole blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .sps_analytics import SpsParams
from .util import as_rng

__all__ = [
    "SimConfig",
    "CollisionEstimate",
    "PrrEstimate",
    "estimate",
    "estimate_collision_prob",
    "estimate_prr",
]


@dataclass(frozen=True)
class SimConfig:
    """One simulated cell: shared SPS numerology plus per-vehicle windows.

    ``sensing`` switches the pick from uniform over the window to the
    sensing-based one, which excludes the reservations heard in the sensing
    window; both run the same expiry-to-expiry episode.  The analytic
    collision model assumes blind random selection, so oracle comparisons
    run with sensing disabled; sensing on exercises the exclusion and
    candidate-floor logic.
    """

    sps: SpsParams
    num_vehicles: int = 2
    windows: tuple[int, ...] | None = None  # per vehicle; None -> sps.selection_window
    sensing: bool = False

    def __post_init__(self) -> None:
        if self.num_vehicles < 1:
            raise ConfigError("sim.num_vehicles", "need at least one vehicle")
        if self.windows is not None:
            object.__setattr__(self, "windows", tuple(int(w) for w in self.windows))
            if len(self.windows) != self.num_vehicles:
                raise ConfigError(
                    "sim.windows",
                    f"got {len(self.windows)} windows for {self.num_vehicles} vehicles",
                )
            if any(w < 0 for w in self.windows):
                raise ConfigError("sim.windows", "selection windows must be >= 0")

    @property
    def effective_windows(self) -> tuple[int, ...]:
        if self.windows is not None:
            return self.windows
        return (self.sps.selection_window,) * self.num_vehicles


# uniforms per Generator call; the draws do not depend on it, only how far a
# passed-in Generator has advanced when an estimate returns
_BLOCK = 1024


class _Draws:
    """The Generator's scalar ``random()`` and ``integers(lo, hi)``, from blocks.

    A scalar Generator call costs about a microsecond, ``integers`` about
    three; here a draw is a step through a list of ``_BLOCK`` uniforms.
    ``integers`` is ``lo + floor(u * (hi - lo))``: always below ``hi`` for
    ranges under 2^53, with a bias of at most ``(hi - lo) * 2^-53``.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        blocks = (rng.random(size).tolist() for size in itertools.repeat(_BLOCK))
        self.random = itertools.chain.from_iterable(blocks).__next__

    def integers(self, lo: int, hi: int) -> int:
        return lo + int(self.random() * (hi - lo))


def _uniform_pick(trigger: int, window: int, n_sc: int, rng) -> tuple[int, int]:
    """Candidate ``k`` of the window, slot by slot then subchannel, for one draw ``k``."""
    k = int(rng.integers(0, (window + 1) * n_sc))
    return trigger + 1 + k // n_sc, k % n_sc


def _sensed_pick(trigger: int, window: int, params: SpsParams, rng,
                 last_seen: dict[tuple[int, int], int]) -> tuple[int, int]:
    """Draw a PRB from the window, avoiding the reservations others announced.

    Candidate ``p`` is slot ``trigger + 1 + p // N_Sc``, subchannel
    ``p % N_Sc``, for ``p`` below ``(window + 1) * N_Sc``.  ``last_seen`` maps
    each announced reservation, (slot phase modulo ``params.slots_per_rri``,
    subchannel), to the last slot another vehicle was heard on it; it
    excludes its candidates, one per period the window spans, and a key
    matching none excludes nothing.  If fewer than
    ``ceil(params.candidate_fraction * |candidates|)`` remain, the exclusions
    heard least recently are re-admitted, in ``(last_seen, key)`` order,
    until the floor is met.  Either way the pick is one ``rng.integers``
    draw ``k`` over what remains, stepped past the excluded positions at or
    below it, so no candidate is listed; with nothing announced it is
    :func:`_uniform_pick`'s.
    """
    n_sc = params.num_subchannels
    if not last_seen:
        return _uniform_pick(trigger, window, n_sc, rng)
    period = params.slots_per_rri
    size = (window + 1) * n_sc
    stride = period * n_sc
    excluded: dict[tuple[int, int], range] = {}  # key -> its candidate positions
    count = 0
    for key in last_seen:
        phase, sc = key
        offset = (phase - trigger - 1) % period  # slots from trigger + 1 to the phase
        if offset <= window and 0 <= sc < n_sc and 0 <= phase < period:
            positions = excluded[key] = range(offset * n_sc + sc, size, stride)
            count += len(positions)
    floor = max(1, math.ceil(params.candidate_fraction * size))
    if size - count < floor:
        for key in sorted(excluded, key=lambda key: (last_seen[key], key)):
            if size - count >= floor:
                break
            count -= len(excluded.pop(key))

    k = int(rng.integers(0, size - count))
    for position in sorted(itertools.chain.from_iterable(excluded.values())):
        if position > k:
            break
        k += 1
    return trigger + 1 + k // n_sc, k % n_sc


def _sensing_slots(params: SpsParams) -> int:
    # sensing window is stated in ms; one slot lasts 2^-mu ms
    return max(1, int(round(params.sensing_window * 2**params.numerology)))


def _init_agents(config: SimConfig, rng) -> tuple[list[int], list[int], list[int]]:
    """Each agent's first slot, subchannel and counter expiry slot.

    Per agent, in vehicle order, three draws: the phase, the subchannel and
    the reselection counter, whose expiry is the counter's last transmission.
    """
    params = config.sps
    period = params.slots_per_rri
    n_sc = params.num_subchannels
    rc_lo, rc_hi = params.rc_range
    first, subchannel, expiry = [], [], []
    for _ in range(config.num_vehicles):
        slot = int(rng.integers(0, period))
        first.append(slot)
        subchannel.append(int(rng.integers(0, n_sc)))
        expiry.append(slot + (int(rng.integers(rc_lo, rc_hi + 1)) - 1) * period)
    return first, subchannel, expiry


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollisionEstimate:
    """Collision probability under both readings (see module docstring)."""

    collided_fraction: float
    collided_se: float
    reselection_collision: float
    reselection_se: float
    num_transmissions: int
    num_reselections: int
    cluster_se: float  # reselection reading, episode-level spread


@dataclass(frozen=True)
class PrrEstimate:
    value: float
    std_error: float
    num_transmissions: int
    num_reselections: int
    cluster_se: float


@dataclass
class _Tally:
    transmissions: int = 0
    collided: int = 0
    delivered: int = 0
    reselections: int = 0
    pair_trials: int = 0
    pair_weight: float = 0.0   # sum of per-pair hit probabilities
    pair_sq: float = 0.0       # ... and their squares, for the sample variance
    # per-episode reselection-collision and delivery rates for cluster errors
    episode_pair_rates: list[float] = field(default_factory=list)
    episode_delivery_rates: list[float] = field(default_factory=list)

    def add_episode(self, transmissions: int, collided: int, delivered: int,
                    reselections: int, pair_trials: int, pair_weight: float,
                    pair_sq: float) -> None:
        self.transmissions += transmissions
        self.collided += collided
        self.delivered += delivered
        self.reselections += reselections
        self.pair_trials += pair_trials
        self.pair_weight += pair_weight
        self.pair_sq += pair_sq
        if pair_trials:
            self.episode_pair_rates.append(pair_weight / pair_trials)
        if transmissions:
            self.episode_delivery_rates.append(delivered / transmissions)


def _phase_hits(trigger: int, window: int, phase: int, period: int) -> int:
    """Slots in ``trigger + 1 .. trigger + 1 + window`` equal to ``phase`` mod ``period``."""
    return (trigger + 1 + window - phase) // period - (trigger - phase) // period


def _max_slots(params: SpsParams, target_reselections: int) -> int:
    # guard: an episode whose reselections never come stops after this many slots
    return max(10_000, 20 * (target_reselections + 1) * params.rc_range[1]
               * params.slots_per_rri)


Run = tuple[int, int, int, int]  # (first, last, subchannel, vehicle), period apart


def _next_prune(last_prune: int, retention: int, slot: int, period: int,
                first: list[int]) -> int:
    """The last prune at or before ``slot``, advanced from ``last_prune``.

    A prune falls on the first occupied slot at least ``retention`` after
    the previous one.  Called before the first reselection of each slot
    that has one, so every finished run ended where the prunes were already
    brought up to date: only the current runs (``first`` onwards) can hold
    the next one.  A current run's first slot at or after ``due`` is its
    ``start`` if that is not before ``due``, else ``due`` stepped up to the
    run's phase.
    """
    while True:
        due = last_prune + retention
        nearest = min([start if start >= due else due + (start - due) % period
                       for start in first])
        if nearest > slot:
            return last_prune
        last_prune = nearest


def _last_seen(vid: int, slot: int, heard_from: int, period: int,
               first: list[int], subchannel: list[int],
               runs: list[Run]) -> dict[tuple[int, int], int]:
    """Per (phase, subchannel), the last slot in ``heard_from .. slot`` another vehicle used.

    ``runs`` are finished runs ending at or after ``heard_from``; a current
    run counts up to ``slot`` once it has started.  Finished runs are
    appended with ``last`` set to the slot they end in, and slots are
    visited in order, so along ``runs`` ``last`` never falls: on a shared
    key a later run is never older, and overwriting keeps the maximum.
    The current runs are then merged in with an explicit maximum.
    """
    last_seen = {(start % period, sc): last
                 for start, last, sc, other in runs if other != vid}
    for other, (start, sc) in enumerate(zip(first, subchannel)):
        if other != vid and start <= slot:
            last = start + (slot - start) // period * period
            key = (start % period, sc)
            if last >= heard_from and last > last_seen.get(key, -1):
                last_seen[key] = last
    return last_seen


def _run_episode(config: SimConfig, rng, target_reselections: int,
                 tally: _Tally) -> None:
    """One episode, advanced from one counter expiry to the next.

    Between its expiries an agent repeats its PRB every period and draws
    nothing, so only expiry slots are visited: in slot order, then vehicle
    order, each expiry draws the keep coin and a fresh counter, and on
    reselection the pick.  A blind pick is uniform over the window and is
    scored by its hit probability against each neighbour's reservation
    before the slot.  A sensed pick (``config.sensing``) reads
    :func:`_last_seen` and is scored by the realised hit, since exclusions
    skew it.  The episode ends after the slot in which the reselections
    reach the target, or at the ``_max_slots`` guard; its transmissions are
    then counted from each agent's periodic runs, cut at that final slot.

    The sensing window is pruned in steps, as it would be slot by slot: at
    the first occupied slot at least ``retention`` after the last prune,
    everything older than ``retention`` goes.  So a reselection hears every
    transmission since ``last_prune - retention``, and all reselections in
    one slot hear the same, including the runs the earlier ones just ended.
    """
    params = config.sps
    period = params.slots_per_rri
    n_sc = params.num_subchannels
    keep_probability = params.keep_probability
    rc_lo, rc_hi = params.rc_range
    windows = config.effective_windows
    sensing = config.sensing
    first, subchannel, expiry = _init_agents(config, rng)
    limit = min(first) + _max_slots(params, target_reselections)
    runs: list[Run] = []  # finished runs, in the order they ended
    if sensing:
        retention = _sensing_slots(params)
        last_prune = oldest = 0  # runs[oldest:] end inside the sensing window

    reselections = 0
    pair_trials = 0
    pair_weight = pair_sq = 0.0
    while True:
        slot = min(expiry)
        if slot > limit:
            end = limit  # every occupied slot up to the guard was played
            break
        before = None  # (phase, subchannel) of every reservation before the slot
        for vid, due in enumerate(expiry):
            if due != slot:
                continue
            keep = rng.random() < keep_probability
            rc = int(rng.integers(rc_lo, rc_hi + 1))
            if keep:
                expiry[vid] = slot + rc * period
                continue
            if before is None:
                before = [(s % period, sc) for s, sc in zip(first, subchannel)]
                if sensing:
                    last_prune = _next_prune(last_prune, retention, slot, period,
                                             first)
                    heard_from = last_prune - retention
                    while oldest < len(runs) and runs[oldest][1] < heard_from:
                        oldest += 1
            window = windows[vid]
            if sensing:
                pick = _sensed_pick(slot, window, params, rng, _last_seen(
                    vid, slot, heard_from, period, first, subchannel, runs[oldest:]))
            else:
                pick = _uniform_pick(slot, window, n_sc, rng)
            runs.append((first[vid], slot, subchannel[vid], vid))
            first[vid], subchannel[vid] = pick
            expiry[vid] = pick[0] + (rc - 1) * period
            reselections += 1
            pool = (window + 1) * n_sc
            picked = (pick[0] % period, pick[1])
            for other, reservation in enumerate(before):
                if other == vid:
                    continue
                if sensing:
                    hit = float(picked == reservation)
                else:
                    # uniform pick: its hit probability on the neighbour's phase
                    hit = _phase_hits(slot, window, reservation[0], period) / pool
                pair_trials += 1
                pair_weight += hit
                pair_sq += hit * hit
        if reselections >= target_reselections:
            end = slot
            break

    for vid, (s, sc) in enumerate(zip(first, subchannel)):
        if s <= end:
            runs.append((s, s + (end - s) // period * period, sc, vid))
    tally.add_episode(*_count_runs(runs, period), reselections,
                      pair_trials, pair_weight, pair_sq)


def _count_runs(runs: list[Run], period: int) -> tuple[int, int, int]:
    """Transmissions, collided and delivered ones over periodic runs.

    A run ``(first, last, subchannel, vehicle)`` transmits on ``first``,
    ``first + period``, ..., ``last``; one agent's runs never overlap.  Runs
    on different phases never meet, so each phase is swept on its own over
    the edges where runs start and stop.
    """
    by_phase: dict[int, list[Run]] = {}
    for run in runs:
        by_phase.setdefault(run[0] % period, []).append(run)
    transmissions = collided = delivered = 0
    for group in by_phase.values():
        if len(group) == 1:
            first, last, _, _ = group[0]
            count = (last - first) // period + 1
            transmissions += count
            delivered += count
            continue
        edges = sorted([(first, 1, sc) for first, _, sc, _ in group]
                       + [(last + period, -1, sc) for _, last, sc, _ in group])
        active: dict[int, int] = {}  # subchannel -> runs on it
        total = 0
        previous = edges[0][0]
        for slot, delta, sc in edges:
            if total and slot != previous:
                count = (slot - previous) // period
                transmissions += count * total
                if total == 1:
                    delivered += count
                collided += count * sum(n for n in active.values() if n > 1)
            previous = slot
            total += delta
            active[sc] = active.get(sc, 0) + delta
    return transmissions, collided, delivered


def _binomial_se(successes: int, trials: int) -> float:
    if trials == 0:
        return 0.0
    p = successes / trials
    return math.sqrt(p * (1.0 - p) / trials)


def _sample_se(total: float, total_sq: float, trials: int) -> float:
    if trials == 0:
        return 0.0
    mean = total / trials
    variance = max(0.0, total_sq / trials - mean * mean)
    return math.sqrt(variance / trials)


def _cluster_se(rates: list[float]) -> float:
    if len(rates) < 2:
        return 0.0
    return float(np.std(rates, ddof=1) / math.sqrt(len(rates)))


def _collision_estimate(config: SimConfig, tally: _Tally) -> CollisionEstimate:
    if config.num_vehicles < 2:  # a lone vehicle cannot collide
        return CollisionEstimate(0.0, 0.0, 0.0, 0.0, 0, 0, 0.0)
    collided = tally.collided / tally.transmissions if tally.transmissions else 0.0
    pair = tally.pair_weight / tally.pair_trials if tally.pair_trials else 0.0
    return CollisionEstimate(
        collided_fraction=collided,
        collided_se=_binomial_se(tally.collided, tally.transmissions),
        reselection_collision=pair,
        reselection_se=_sample_se(tally.pair_weight, tally.pair_sq, tally.pair_trials),
        num_transmissions=tally.transmissions,
        num_reselections=tally.reselections,
        cluster_se=_cluster_se(tally.episode_pair_rates),
    )


def _prr_estimate(tally: _Tally) -> PrrEstimate:
    value = tally.delivered / tally.transmissions if tally.transmissions else 1.0
    return PrrEstimate(
        value=value,
        std_error=_binomial_se(tally.delivered, tally.transmissions),
        num_transmissions=tally.transmissions,
        num_reselections=tally.reselections,
        cluster_se=_cluster_se(tally.episode_delivery_rates),
    )


def estimate(
    config: SimConfig, num_events: int, rng_seed=None, *, episodes: int = 200
) -> tuple[CollisionEstimate, PrrEstimate]:
    """Collision probability and PRR, both read from one simulation.

    The events are split over ``E = min(episodes, num_events)`` episodes
    of ``ceil(num_events / E)`` reselections each: asking for more episodes
    than events silently runs one episode per event.  A lone vehicle cannot
    collide, so with ``num_vehicles == 1`` both collision readings are zero.

    The PRR is the fraction of transmissions decodable by every other
    vehicle.  A transmission fails when another vehicle occupies the same
    PRB (collision) or transmits anywhere in the same slot (half-duplex: a
    transmitting radio cannot receive).
    """
    if num_events < 1:
        raise ValueError(f"num_events must be >= 1, got {num_events}")
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    rng = _Draws(as_rng(rng_seed))
    episodes = min(episodes, num_events)
    per_episode = math.ceil(num_events / episodes)
    tally = _Tally()
    for _ in range(episodes):
        _run_episode(config, rng, per_episode, tally)
    return _collision_estimate(config, tally), _prr_estimate(tally)


def estimate_collision_prob(
    config: SimConfig, num_events: int, rng_seed=None, *, episodes: int = 200
) -> CollisionEstimate:
    """The collision row of :func:`estimate`."""
    return estimate(config, num_events, rng_seed, episodes=episodes)[0]


def estimate_prr(
    config: SimConfig, num_events: int, rng_seed=None, *, episodes: int = 200
) -> PrrEstimate:
    """The PRR row of :func:`estimate`."""
    return estimate(config, num_events, rng_seed, episodes=episodes)[1]
