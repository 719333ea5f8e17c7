"""Monte Carlo simulator for sensing-based semi-persistent scheduling.

Vehicles reserve one PRB (slot, subchannel) per resource reservation
interval and redraw it when their reselection counter expires.  The
simulator serves as an independent oracle for the closed-form collision
and reception models in :mod:`v2i_fairness.sps_analytics`: it never calls
into that module and shares no derivation with it.

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

from .errors import ConfigError, ModelDomainError
from .sps_analytics import SpsParams
from .util import as_rng

__all__ = [
    "SimConfig",
    "ResourceGrid",
    "SpsAgentState",
    "TransmissionEvent",
    "CollisionEstimate",
    "PrrEstimate",
    "reselect",
    "step",
    "simulate",
    "estimate_collision_prob",
    "estimate_prr",
]


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


class ResourceGrid:
    """Occupancy of (slot, subchannel) PRBs over a trailing slot range."""

    def __init__(self, subchannels: int, slots: int) -> None:
        if subchannels < 1 or slots < 1:
            raise ModelDomainError("resource grid needs >=1 subchannel and slot")
        self.subchannels = subchannels
        self.slots = slots
        self.occupancy: dict[tuple[int, int], set[int]] = {}

    def record(self, slot: int, subchannel: int, vehicle_id: int) -> None:
        self.occupancy.setdefault((slot, subchannel), set()).add(vehicle_id)

    def prune(self, before_slot: int) -> None:
        """Drop records older than ``before_slot`` (sensing-window retention)."""
        stale = [key for key in self.occupancy if key[0] < before_slot]
        for key in stale:
            del self.occupancy[key]


@dataclass
class SpsAgentState:
    current_prb: tuple[int, int]  # (absolute slot of next transmission, subchannel)
    rc: int
    rri_slots: int
    window: int
    keep_probability: float


class TransmissionEvent(NamedTuple):
    slot: int
    vehicle_id: int
    subchannel: int
    collided: bool
    expired: bool      # reselection counter reached zero on this transmission
    reselected: bool   # ... and the keep-probability draw chose a fresh PRB


def _candidate_floor(candidate_fraction: float, num_candidates: int) -> int:
    return max(1, math.ceil(candidate_fraction * num_candidates))


def reselect(
    agent: SpsAgentState,
    grid: ResourceGrid,
    rng=None,
    *,
    candidate_fraction: float = 0.2,
    own_id: int | None = None,
) -> tuple[int, int]:
    """Draw the agent's next PRB from its selection window.

    Candidates are every PRB in the ``window + 1`` slots after the trigger
    (the agent's current transmission slot).  Each observed transmission in
    ``grid`` announces a standing reservation repeating every
    ``agent.rri_slots``; candidates matching one are excluded.  If that
    leaves fewer than ``ceil(candidate_fraction * |candidates|)``, the
    exclusions observed least recently are re-admitted until the floor is
    met.  The final pick is uniform over what remains.
    """
    if agent.window < 0:
        raise ValueError(f"selection window must be >= 0, got {agent.window}")
    if grid.subchannels < 1 or grid.slots < 1:
        raise ModelDomainError("cannot reselect from an empty resource grid")
    rng = as_rng(rng)

    trigger = agent.current_prb[0]
    period = agent.rri_slots
    slots = range(trigger + 1, trigger + 2 + agent.window)
    candidates = [(s, c) for s in slots for c in range(grid.subchannels)]

    # Most recent observation per announced reservation (slot phase, subchannel).
    last_seen: dict[tuple[int, int], int] = {}
    for (obs_slot, obs_sc), vehicles in grid.occupancy.items():
        if own_id is not None and vehicles <= {own_id}:
            continue
        key = (obs_slot % period, obs_sc)
        last_seen[key] = max(obs_slot, last_seen.get(key, obs_slot))

    available = [prb for prb in candidates if (prb[0] % period, prb[1]) not in last_seen]
    floor = _candidate_floor(candidate_fraction, len(candidates))
    if len(available) < floor:
        readmit_order = sorted(last_seen, key=lambda key: (last_seen[key], key))
        admitted = set(map(tuple, available))
        for key in readmit_order:
            if len(admitted) >= floor:
                break
            admitted.update(
                prb for prb in candidates if (prb[0] % period, prb[1]) == key
            )
        available = sorted(admitted)

    return available[int(rng.integers(0, len(available)))]


def step(
    agents: list[SpsAgentState],
    slot_index: int,
    grid: ResourceGrid,
    params: SpsParams,
    rng,
    *,
    sensing_view: ResourceGrid | None = None,
) -> list[TransmissionEvent]:
    """Advance every agent reserved on this slot; return its transmissions.

    All transmissions are recorded into ``grid`` before any agent advances,
    so reselections within the slot see a consistent picture.  Reselection
    candidates are screened against ``sensing_view`` (defaults to ``grid``;
    pass an empty grid to model selection without sensing).
    """
    if sensing_view is None:
        sensing_view = grid
    transmitters = [
        (vid, agent)
        for vid, agent in enumerate(agents)
        if agent.current_prb[0] == slot_index
    ]
    per_subchannel: dict[int, int] = {}
    for _, agent in transmitters:
        sc = agent.current_prb[1]
        per_subchannel[sc] = per_subchannel.get(sc, 0) + 1
    for vid, agent in transmitters:
        grid.record(slot_index, agent.current_prb[1], vid)

    rc_lo, rc_hi = params.rc_range
    events = []
    for vid, agent in transmitters:
        subchannel = agent.current_prb[1]
        agent.rc -= 1
        expired = agent.rc <= 0
        reselected = False
        if expired:
            keep = rng.random() < agent.keep_probability
            agent.rc = int(rng.integers(rc_lo, rc_hi + 1))
            if keep:
                agent.current_prb = (slot_index + agent.rri_slots, subchannel)
            else:
                reselected = True
                agent.current_prb = reselect(
                    agent_at_trigger(agent, slot_index, subchannel),
                    sensing_view,
                    rng,
                    candidate_fraction=params.candidate_fraction,
                    own_id=vid,
                )
        else:
            agent.current_prb = (slot_index + agent.rri_slots, subchannel)
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


def agent_at_trigger(
    agent: SpsAgentState, slot_index: int, subchannel: int
) -> SpsAgentState:
    """View of ``agent`` anchored at its trigger slot for reselection."""
    return SpsAgentState(
        current_prb=(slot_index, subchannel),
        rc=agent.rc,
        rri_slots=agent.rri_slots,
        window=agent.window,
        keep_probability=agent.keep_probability,
    )


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
                rri_slots=period,
                window=window,
                keep_probability=params.keep_probability,
            )
        )
    return agents


def simulate(config: SimConfig, num_slots: int, rng=None) -> list[TransmissionEvent]:
    """Run one episode over ``num_slots`` slots from a uniform-phase start."""
    if num_slots < 1:
        raise ValueError(f"num_slots must be >= 1, got {num_slots}")
    rng = as_rng(rng)
    params = config.sps
    agents = _init_agents(config, rng)
    grid = ResourceGrid(params.num_subchannels, num_slots)
    blind = ResourceGrid(params.num_subchannels, num_slots)
    retention = _sensing_slots(params)
    last_prune = 0

    events: list[TransmissionEvent] = []
    while True:
        slot = min(agent.current_prb[0] for agent in agents)
        if slot >= num_slots:
            break
        if slot - last_prune >= retention:
            grid.prune(slot - retention)
            last_prune = slot
        events.extend(
            step(
                agents,
                slot,
                grid,
                params,
                rng,
                sensing_view=grid if config.sensing else blind,
            )
        )
    return events


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

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"collided fraction {self.collided_fraction:.5f} ± {self.collided_se:.5f}, "
            f"reselection collision {self.reselection_collision:.5f} "
            f"± {self.reselection_se:.5f} "
            f"({self.num_reselections} reselections)"
        )


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


def _run_episode(config: SimConfig, rng, target_reselections: int, tally: _Tally) -> None:
    params = config.sps
    period = params.slots_per_rri
    n_sc = params.num_subchannels
    agents = _init_agents(config, rng)
    open_ended = 10**12  # episodes run to an event count, not a slot horizon
    grid = ResourceGrid(n_sc, open_ended)
    blind = ResourceGrid(n_sc, open_ended)
    retention = _sensing_slots(params)
    last_prune = 0

    rc_hi = params.rc_range[1]
    max_slots = max(10_000, 20 * (target_reselections + 1) * rc_hi * period)
    start = min(agent.current_prb[0] for agent in agents)

    transmissions = collided = delivered = 0
    reselections = 0
    pair_trials = 0
    pair_weight = pair_sq = 0.0
    while reselections < target_reselections:
        slot = min(agent.current_prb[0] for agent in agents)
        if slot - start > max_slots:
            break  # e.g. keep_probability == 1: reselection never triggers
        if slot - last_prune >= retention:
            grid.prune(slot - retention)
            last_prune = slot
        snapshot = [
            (agent.current_prb[0] % period, agent.current_prb[1]) for agent in agents
        ]
        events = step(
            agents,
            slot,
            grid,
            params,
            rng,
            sensing_view=grid if config.sensing else blind,
        )
        in_slot = len(events)
        for event in events:
            transmissions += 1
            collided += int(event.collided)
            delivered += int(in_slot == 1)
            if event.reselected:
                reselections += 1
                agent = agents[event.vehicle_id]
                new_slot, new_sc = agent.current_prb
                window = agent.window
                trigger = event.slot
                for vid, (phase_j, sc_j) in enumerate(snapshot):
                    if vid == event.vehicle_id:
                        continue
                    if config.sensing:
                        # exclusions skew the pick; score the realised choice
                        hit = float(
                            new_slot % period == phase_j and new_sc == sc_j
                        )
                    else:
                        # pick is uniform over the window: score its hit
                        # probability against the neighbour's reservation
                        matching = sum(
                            1
                            for s in range(trigger + 1, trigger + 2 + window)
                            if s % period == phase_j
                        )
                        hit = matching / ((window + 1) * n_sc)
                    pair_trials += 1
                    pair_weight += hit
                    pair_sq += hit * hit

    tally.transmissions += transmissions
    tally.collided += collided
    tally.delivered += delivered
    tally.reselections += reselections
    tally.pair_trials += pair_trials
    tally.pair_weight += pair_weight
    tally.pair_sq += pair_sq
    if pair_trials:
        tally.episode_pair_rates.append(pair_weight / pair_trials)
    if transmissions:
        tally.episode_delivery_rates.append(delivered / transmissions)


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
    for _ in range(episodes):
        _run_episode(config, rng, per_episode, tally)
    return tally


def estimate_collision_prob(
    config: SimConfig, num_events: int, rng_seed=None, *, episodes: int = 200
) -> CollisionEstimate:
    """Measure PRB collisions over ``num_events`` reselection events.

    A lone vehicle cannot collide, so ``num_vehicles == 1`` short-circuits
    to zero under both readings.
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
    transmitting radio cannot receive).
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
