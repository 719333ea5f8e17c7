"""Monte Carlo simulator for sensing-based semi-persistent scheduling.

Vehicles reserve one PRB (slot, subchannel) per resource reservation
interval and redraw it when their reselection counter expires.  The
simulator serves as an independent oracle for the closed-form collision
and reception models in :mod:`v2i_fairness.sps_analytics`: it never calls
into that module and shares no derivation with it.

An episode's state is its list of :class:`SpsAgentState` (next PRB,
reselection counter, window); the numerology, counter range and keep
probability are read from the shared :class:`SpsParams`.  With
``SimConfig.sensing`` the episode also keeps a sensing history, a dict from
``(slot, subchannel)`` to the ids of the vehicles heard there, pruned to the
sensing window; reselection excludes the reservations it announces, and
such an episode steps slot by slot through :func:`step`.  Blind selection
keeps no history at all: its pick is uniform over the window, and nothing
random happens between two counter expiries, so a blind episode jumps from
one expiry slot to the next with exactly the draws :func:`step` would make
and counts its transmissions from each vehicle's periodic runs.

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
stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .sps_analytics import SpsParams
from .util import as_rng

__all__ = [
    "SimConfig",
    "SpsAgentState",
    "TransmissionEvent",
    "CollisionEstimate",
    "PrrEstimate",
    "reselect",
    "step",
    "estimate_collision_prob",
    "estimate_prr",
]

# Sensing history: (slot, subchannel) -> ids of the vehicles heard there.
History = dict[tuple[int, int], set[int]]


@dataclass(frozen=True)
class SimConfig:
    """One simulated cell: shared SPS numerology plus per-vehicle windows.

    ``sensing`` gates the exclusion step during reselection.  The analytic
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


@dataclass
class SpsAgentState:
    current_prb: tuple[int, int]  # (absolute slot of next transmission, subchannel)
    rc: int
    window: int


class TransmissionEvent(NamedTuple):
    slot: int
    vehicle_id: int
    subchannel: int
    collided: bool
    expired: bool      # reselection counter reached zero on this transmission
    reselected: bool   # ... and the keep-probability draw chose a fresh PRB


def reselect(
    agent: SpsAgentState,
    params: SpsParams,
    rng,
    history: History | None = None,
    *,
    own_id: int,
) -> tuple[int, int]:
    """Draw the agent's next PRB from its selection window.

    Candidates are every PRB in the ``window + 1`` slots after the trigger
    (the agent's current transmission slot), slot by slot and subchannel by
    subchannel.  Without ``history`` (blind selection, or sensing before
    anything was heard) the pick is uniform over all of them, computed from
    the draw without listing them.  Otherwise each transmission in
    ``history`` that some vehicle other than ``own_id`` made announces a
    standing reservation repeating every ``params.slots_per_rri`` slots;
    candidates matching one are excluded.  If that leaves fewer than
    ``ceil(params.candidate_fraction * |candidates|)``, the exclusions
    observed least recently are re-admitted until the floor is met.  Either
    way the pick is one ``rng.integers`` draw over what remains.
    """
    if agent.window < 0:
        raise ValueError(f"selection window must be >= 0, got {agent.window}")
    trigger = agent.current_prb[0]
    n_sc = params.num_subchannels
    if not history:
        return _uniform_pick(trigger, agent.window, n_sc, rng)
    period = params.slots_per_rri
    slots = range(trigger + 1, trigger + 2 + agent.window)
    candidates = [(s, c) for s in slots for c in range(n_sc)]
    # Most recent observation per announced reservation (slot phase, subchannel).
    last_seen: dict[tuple[int, int], int] = {}
    for (obs_slot, obs_sc), vehicles in history.items():
        if vehicles <= {own_id}:
            continue
        key = (obs_slot % period, obs_sc)
        last_seen[key] = max(obs_slot, last_seen.get(key, obs_slot))

    available = [prb for prb in candidates
                 if (prb[0] % period, prb[1]) not in last_seen]
    floor = max(1, math.ceil(params.candidate_fraction * len(candidates)))
    if len(available) < floor:
        admitted = set(available)
        for key in sorted(last_seen, key=lambda key: (last_seen[key], key)):
            if len(admitted) >= floor:
                break
            admitted.update(
                prb for prb in candidates if (prb[0] % period, prb[1]) == key
            )
        available = sorted(admitted)

    return available[int(rng.integers(0, len(available)))]


def _uniform_pick(trigger: int, window: int, n_sc: int, rng) -> tuple[int, int]:
    """Candidate ``k`` of the window, slot by slot then subchannel, for one draw ``k``."""
    k = int(rng.integers(0, (window + 1) * n_sc))
    return trigger + 1 + k // n_sc, k % n_sc


def step(
    agents: list[SpsAgentState],
    slot_index: int,
    params: SpsParams,
    rng,
    history: History | None = None,
) -> list[TransmissionEvent]:
    """Advance every agent reserved on this slot; return its transmissions.

    With sensing, every transmission is recorded into ``history`` before
    any agent advances, so reselections within the slot see a consistent
    picture.  Each transmitter, in vehicle order, counts its reselection
    counter down; on expiry it draws ``rng.random()`` against
    ``params.keep_probability`` and a fresh counter, then either keeps its
    PRB for the next period or calls :func:`reselect` with ``history``
    (``None`` for blind selection).
    """
    transmitters = [
        (vid, agent)
        for vid, agent in enumerate(agents)
        if agent.current_prb[0] == slot_index
    ]
    per_subchannel: dict[int, int] = {}
    for vid, agent in transmitters:
        sc = agent.current_prb[1]
        per_subchannel[sc] = per_subchannel.get(sc, 0) + 1
        if history is not None:
            history.setdefault((slot_index, sc), set()).add(vid)

    period = params.slots_per_rri
    rc_lo, rc_hi = params.rc_range
    events = []
    for vid, agent in transmitters:
        subchannel = agent.current_prb[1]
        agent.rc -= 1
        expired = agent.rc <= 0
        reselected = False
        if expired:
            keep = rng.random() < params.keep_probability
            agent.rc = int(rng.integers(rc_lo, rc_hi + 1))
            if keep:
                agent.current_prb = (slot_index + period, subchannel)
            else:
                reselected = True
                agent.current_prb = reselect(agent, params, rng, history, own_id=vid)
        else:
            agent.current_prb = (slot_index + period, subchannel)
        events.append(
            TransmissionEvent(
                slot=slot_index,
                vehicle_id=vid,
                subchannel=subchannel,
                collided=per_subchannel[subchannel] > 1,
                expired=expired,
                reselected=reselected,
            )
        )
    return events


def _sensing_slots(params: SpsParams) -> int:
    # sensing window is stated in ms; one slot lasts 2^-mu ms
    return max(1, int(round(params.sensing_window * 2**params.numerology)))


def _init_agents(config: SimConfig, rng) -> list[SpsAgentState]:
    params = config.sps
    period = params.slots_per_rri
    rc_lo, rc_hi = params.rc_range
    agents = []
    for window in config.effective_windows:
        agents.append(
            SpsAgentState(
                current_prb=(
                    int(rng.integers(0, period)),
                    int(rng.integers(0, params.num_subchannels)),
                ),
                rc=int(rng.integers(rc_lo, rc_hi + 1)),
                window=window,
            )
        )
    return agents


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


def _run_episode(config: SimConfig, rng, target_reselections: int, tally: _Tally) -> None:
    """One sensing episode, stepped slot by slot through :func:`step`."""
    params = config.sps
    period = params.slots_per_rri
    agents = _init_agents(config, rng)
    history: History = {}
    retention = _sensing_slots(params)
    last_prune = 0

    max_slots = _max_slots(params, target_reselections)
    start = min(agent.current_prb[0] for agent in agents)

    transmissions = collided = delivered = 0
    reselections = 0
    pair_trials = 0
    pair_weight = pair_sq = 0.0
    while reselections < target_reselections:
        slot = min(agent.current_prb[0] for agent in agents)
        if slot - start > max_slots:
            break
        if slot - last_prune >= retention:
            for key in [key for key in history if key[0] < slot - retention]:
                del history[key]
            last_prune = slot
        events = step(agents, slot, params, rng, history)
        in_slot = len(events)
        before = None  # (phase, subchannel) of every reservation before the step
        for event in events:
            transmissions += 1
            collided += int(event.collided)
            delivered += int(in_slot == 1)
            if not event.reselected:
                continue
            reselections += 1
            if before is None:
                # transmitters were on (slot, subchannel); no one else moved
                before = [(a.current_prb[0] % period, a.current_prb[1]) for a in agents]
                for ev in events:
                    before[ev.vehicle_id] = (slot % period, ev.subchannel)
            new_slot, new_sc = agents[event.vehicle_id].current_prb
            for vid, (phase_j, sc_j) in enumerate(before):
                if vid == event.vehicle_id:
                    continue
                # exclusions skew the pick; score the realised choice
                hit = float(new_slot % period == phase_j and new_sc == sc_j)
                pair_trials += 1
                pair_weight += hit
                pair_sq += hit * hit

    tally.add_episode(transmissions, collided, delivered, reselections,
                      pair_trials, pair_weight, pair_sq)


def _run_blind_episode(config: SimConfig, rng, target_reselections: int,
                       tally: _Tally) -> None:
    """One sensing-off episode, advanced from one counter expiry to the next.

    Between its expiries an agent repeats its PRB every period and draws
    nothing, so only expiry slots are visited: in slot order, then vehicle
    order, each expiry makes :func:`step`'s draws (keep, counter, and on
    reselection the blind pick of :func:`reselect`).  The episode ends after
    the slot in which the reselections reach the target, or at the
    ``_max_slots`` guard; its transmissions are then counted from each
    agent's periodic runs, cut at that final slot.
    """
    params = config.sps
    period = params.slots_per_rri
    n_sc = params.num_subchannels
    keep_probability = params.keep_probability
    rc_lo, rc_hi = params.rc_range
    agents = _init_agents(config, rng)
    start = min(agent.current_prb[0] for agent in agents)
    limit = start + _max_slots(params, target_reselections)

    # each agent's current run: first slot, subchannel and expiry slot
    first = [agent.current_prb[0] for agent in agents]
    subchannel = [agent.current_prb[1] for agent in agents]
    expiry = [agent.current_prb[0] + (agent.rc - 1) * period for agent in agents]
    windows = [agent.window for agent in agents]
    runs: list[tuple[int, int, int]] = []  # finished runs: (first, last, subchannel)

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
            window = windows[vid]
            runs.append((first[vid], slot, subchannel[vid]))
            first[vid], subchannel[vid] = _uniform_pick(slot, window, n_sc, rng)
            expiry[vid] = first[vid] + (rc - 1) * period
            reselections += 1
            # the pick is uniform over the window: score its hit probability
            # against each neighbour's reservation
            pool = (window + 1) * n_sc
            for other, (phase_j, sc_j) in enumerate(before):
                if other == vid:
                    continue
                hit = _phase_hits(slot, window, phase_j, period) / pool
                pair_trials += 1
                pair_weight += hit
                pair_sq += hit * hit
        if reselections >= target_reselections:
            end = slot
            break

    for s, sc in zip(first, subchannel):
        if s <= end:
            runs.append((s, s + (end - s) // period * period, sc))
    tally.add_episode(*_count_runs(runs, period), reselections,
                      pair_trials, pair_weight, pair_sq)


def _count_runs(runs: list[tuple[int, int, int]], period: int) -> tuple[int, int, int]:
    """Transmissions, collided and delivered ones over periodic runs.

    A run ``(first, last, subchannel)`` transmits on ``first``, ``first +
    period``, ..., ``last``; one agent's runs never overlap.  Runs on
    different phases never meet, so each phase is swept on its own over the
    edges where runs start and stop.
    """
    by_phase: dict[int, list[tuple[int, int, int]]] = {}
    for run in runs:
        by_phase.setdefault(run[0] % period, []).append(run)
    transmissions = collided = delivered = 0
    for group in by_phase.values():
        if len(group) == 1:
            first, last, _ = group[0]
            count = (last - first) // period + 1
            transmissions += count
            delivered += count
            continue
        edges = sorted([(first, 1, sc) for first, _, sc in group]
                       + [(last + period, -1, sc) for _, last, sc in group])
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


def _collect(config: SimConfig, num_events: int, rng_seed, episodes: int) -> _Tally:
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    rng = as_rng(rng_seed)
    episodes = min(episodes, num_events)
    per_episode = math.ceil(num_events / episodes)
    tally = _Tally()
    run_episode = _run_episode if config.sensing else _run_blind_episode
    for _ in range(episodes):
        run_episode(config, rng, per_episode, tally)
    return tally


def estimate_collision_prob(
    config: SimConfig, num_events: int, rng_seed=None, *, episodes: int = 200
) -> CollisionEstimate:
    """Measure PRB collisions over ``num_events`` reselection events.

    The events are split over ``E = min(episodes, num_events)`` episodes
    of ``ceil(num_events / E)`` reselections each: asking for more episodes
    than events silently runs one episode per event.  A lone vehicle cannot
    collide, so ``num_vehicles == 1`` short-circuits to zero under both
    readings.
    """
    if num_events < 1:
        raise ValueError(f"num_events must be >= 1, got {num_events}")
    if config.num_vehicles < 2:
        return CollisionEstimate(0.0, 0.0, 0.0, 0.0, 0, 0, 0.0)
    tally = _collect(config, num_events, rng_seed, episodes)
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


def estimate_prr(
    config: SimConfig, num_events: int, rng_seed=None, *, episodes: int = 200
) -> PrrEstimate:
    """Fraction of transmissions decodable by every other vehicle.

    A transmission fails when another vehicle occupies the same PRB
    (collision) or transmits anywhere in the same slot (half-duplex: a
    transmitting radio cannot receive).  Episodes are split as in
    :func:`estimate_collision_prob`: ``min(episodes, num_events)`` of them.
    """
    if num_events < 1:
        raise ValueError(f"num_events must be >= 1, got {num_events}")
    tally = _collect(config, num_events, rng_seed, episodes)
    value = tally.delivered / tally.transmissions if tally.transmissions else 1.0
    return PrrEstimate(
        value=value,
        std_error=_binomial_se(tally.delivered, tally.transmissions),
        num_transmissions=tally.transmissions,
        num_reselections=tally.reselections,
        cluster_se=_cluster_se(tally.episode_delivery_rates),
    )
