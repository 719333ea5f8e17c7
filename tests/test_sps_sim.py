import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from v2i_fairness import sps_sim
from v2i_fairness.errors import ConfigError
from v2i_fairness.sps_analytics import (
    SpsParams,
    collision_probability,
    packet_reception_ratio,
)
from v2i_fairness.sps_sim import (
    CollisionEstimate,
    PrrEstimate,
    SimConfig,
    _Draws,
    _phase_hits,
    _sensed_pick,
    _uniform_pick,
    estimate,
    estimate_collision_prob,
    estimate_prr,
)


def make_params(rri=0.05, n_sc=2, w=4, rc=(5, 15), keep=0.0, gamma=0.2):
    return SpsParams(
        rri=rri,
        numerology=0,
        num_subchannels=n_sc,
        selection_window=w,
        window_bounds=(0, max(15, w)),
        keep_probability=keep,
        candidate_fraction=gamma,
        rc_range=rc,
        packet_rate=1.0 / rri,
        collision_model="uniform-selection",
    )


# ---------------------------------------------------------------------------
# the per-slot reference: every occupied slot stepped in turn, with the
# sensing history kept as a dict of the transmissions heard
# ---------------------------------------------------------------------------


@dataclass
class Agent:
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


# (slot, subchannel) -> ids of the vehicles heard there
History = dict[tuple[int, int], set[int]]


def make_agent(slot=0, sc=0, rc=5, w=4):
    return Agent(current_prb=(slot, sc), rc=rc, window=w)


def reference_agents(config, rng):
    """Uniform phase, subchannel and counter per vehicle, drawn in that order."""
    params = config.sps
    rc_lo, rc_hi = params.rc_range
    return [
        make_agent(slot=int(rng.integers(0, params.slots_per_rri)),
                   sc=int(rng.integers(0, params.num_subchannels)),
                   rc=int(rng.integers(rc_lo, rc_hi + 1)), w=w)
        for w in config.effective_windows
    ]


def reference_sensed_pick(trigger, window, params, rng, last_seen):
    """The sensed pick from a list of every candidate in the window.

    Candidates are listed slot by slot, then subchannel; those whose (slot
    phase, subchannel) is a key of ``last_seen`` are filtered out, and below
    the candidate floor the keys are re-admitted in ``(last_seen, key)``
    order until the floor is met.  One ``rng.integers`` draw indexes what
    remains.
    """
    n_sc = params.num_subchannels
    period = params.slots_per_rri
    slots = range(trigger + 1, trigger + 2 + window)
    candidates = [(s, c) for s in slots for c in range(n_sc)]
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


def reference_reselect(agent, params, rng, history=None, *, own_id):
    """The agent's next PRB, from a scan of ``history`` and the candidate list.

    Every transmission in ``history`` some vehicle other than ``own_id`` made
    announces a reservation on its (slot phase, subchannel), last seen in
    the latest slot it was heard; :func:`reference_sensed_pick` then picks
    from the agent's window.  Without history the pick is uniform over the
    candidates.
    """
    period = params.slots_per_rri
    last_seen: dict[tuple[int, int], int] = {}
    for (obs_slot, obs_sc), vehicles in (history or {}).items():
        if vehicles <= {own_id}:
            continue
        key = (obs_slot % period, obs_sc)
        last_seen[key] = max(obs_slot, last_seen.get(key, obs_slot))
    return reference_sensed_pick(agent.current_prb[0], agent.window, params, rng,
                                 last_seen)


def reference_step(agents, slot_index, params, rng, history: History | None = None):
    """Advance every agent reserved on this slot; return its transmissions.

    With sensing, every transmission is recorded into ``history`` before
    any agent advances.  Each transmitter, in vehicle order, counts its
    reselection counter down; on expiry it draws ``rng.random()`` against
    the keep probability and a fresh counter, then either keeps its PRB for
    the next period or calls :func:`reference_reselect`.
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
                agent.current_prb = reference_reselect(agent, params, rng, history,
                                                       own_id=vid)
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


def replay(cfg, num_slots, seed):
    """Every transmission of one blind episode over ``num_slots`` slots.

    Agents start on uniform phases, subchannels and counters, then
    ``reference_step`` runs slot by slot until the next transmission falls
    past the horizon.
    """
    rng = np.random.default_rng(seed)
    agents = reference_agents(cfg, rng)
    events = []
    while (slot := min(agent.current_prb[0] for agent in agents)) < num_slots:
        events.extend(reference_step(agents, slot, cfg.sps, rng))
    return events


def reference_episode(config, rng, target_reselections, tally, *, sensing):
    """The per-slot episode the expiry-to-expiry loop replaced.

    ``reference_step`` runs on every occupied slot until the slot in which
    the reselections reach the target, or past the slot guard.  Each
    reselection is scored against the reservations every vehicle held
    before the slot: a blind pick by its hit probability, a sensed one by
    the realised hit.  With sensing the history is pruned at the first
    occupied slot at least one sensing window after the previous prune.
    """
    params = config.sps
    period = params.slots_per_rri
    n_sc = params.num_subchannels
    agents = reference_agents(config, rng)
    history: History | None = None
    if sensing:
        history = {}
        # the sensing window is stated in ms; one slot lasts 2^-mu ms
        retention = max(1, int(round(params.sensing_window * 2**params.numerology)))
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
            break
        if sensing and slot - last_prune >= retention:
            for key in [key for key in history if key[0] < slot - retention]:
                del history[key]
            last_prune = slot
        events = reference_step(agents, slot, params, rng, history)
        in_slot = len(events)
        before = None
        for event in events:
            transmissions += 1
            collided += int(event.collided)
            delivered += int(in_slot == 1)
            if not event.reselected:
                continue
            reselections += 1
            if before is None:
                before = [(a.current_prb[0] % period, a.current_prb[1]) for a in agents]
                for ev in events:
                    before[ev.vehicle_id] = (slot % period, ev.subchannel)
            new_slot, new_sc = agents[event.vehicle_id].current_prb
            window = agents[event.vehicle_id].window
            for vid, (phase_j, sc_j) in enumerate(before):
                if vid == event.vehicle_id:
                    continue
                if sensing:
                    hit = float(new_slot % period == phase_j and new_sc == sc_j)
                else:
                    hit = (_phase_hits(slot, window, phase_j, period)
                           / ((window + 1) * n_sc))
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


def reference_blind_episode(config, rng, target_reselections, tally):
    reference_episode(config, rng, target_reselections, tally, sensing=False)


def reference_sensing_episode(config, rng, target_reselections, tally):
    reference_episode(config, rng, target_reselections, tally, sensing=True)


def assert_matches_reference(monkeypatch, estimator, cfg, num_events, seed, episodes):
    """Same estimate and the same RNG state afterwards as the per-slot loop.

    Draws are taken one uniform per Generator call, so the state comparison
    counts every draw rather than whole blocks.
    """
    monkeypatch.setattr(sps_sim, "_BLOCK", 1)
    rng = np.random.default_rng(seed)
    fast = estimator(cfg, num_events, rng, episodes=episodes)
    reference = reference_sensing_episode if cfg.sensing else reference_blind_episode
    with monkeypatch.context() as patch:
        patch.setattr(sps_sim, "_run_episode", reference)
        ref_rng = np.random.default_rng(seed)
        ref = estimator(cfg, num_events, ref_rng, episodes=episodes)
    assert fast == ref, (cfg, seed)
    assert rng.bit_generator.state == ref_rng.bit_generator.state, (cfg, seed)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_sim_config_rejects_no_vehicles():
    with pytest.raises(ConfigError, match="num_vehicles"):
        SimConfig(sps=make_params(), num_vehicles=0)


def test_sim_config_rejects_window_count_mismatch():
    with pytest.raises(ConfigError, match="windows"):
        SimConfig(sps=make_params(), num_vehicles=3, windows=(4, 4))


def test_sim_config_rejects_negative_window():
    with pytest.raises(ConfigError, match="windows"):
        SimConfig(sps=make_params(), num_vehicles=2, windows=(4, -1))


def test_sim_config_default_windows():
    cfg = SimConfig(sps=make_params(w=7), num_vehicles=3)
    assert cfg.effective_windows == (7, 7, 7)


# ---------------------------------------------------------------------------
# the pick
# ---------------------------------------------------------------------------


def test_reselect_forced_single_prb():
    params = make_params(n_sc=1)
    for last_seen in ({}, {(11, 0): 3}):  # announced or not, the one PRB is picked
        assert _sensed_pick(10, 0, params, np.random.default_rng(0), last_seen) == (11, 0)


def test_reselect_avoids_sensed_reservations():
    # N_Sc=2, w=1 -> four candidates; three phases announced -> one left
    last_seen = {
        (1, 0): 51,   # phase 1 = slot 101
        (2, 0): 52,   # phase 2 = slot 102
        (1, 1): 51,   # phase 1, other subchannel
    }
    choice = _sensed_pick(100, 1, make_params(n_sc=2), np.random.default_rng(3),
                          last_seen)
    assert choice == (102, 1)


def test_reselect_ignores_own_history(monkeypatch):
    # T=5 and w=9 put the vehicle's own phase among its candidates; alone in
    # the cell it hears only itself, so with sensing on it must pick exactly
    # as a blind vehicle does, draw for draw (one uniform per Generator call)
    monkeypatch.setattr(sps_sim, "_BLOCK", 1)
    params = make_params(rri=0.005, n_sc=1, w=9, rc=(1, 2))
    blind = SimConfig(sps=params, num_vehicles=1, windows=(9,))
    aware = replace(blind, sensing=True)
    rng, aware_rng = np.random.default_rng(4), np.random.default_rng(4)
    assert estimate_prr(blind, 400, rng, episodes=4) == \
        estimate_prr(aware, 400, aware_rng, episodes=4)
    assert rng.bit_generator.state == aware_rng.bit_generator.state


def test_reselect_floor_readmits_least_recent():
    # every candidate phase excluded; the floor of one forces the stalest
    # observation back into the pool, so the choice is deterministic
    last_seen = {
        (1, 0): 151,  # phase 1 -> candidate slot 201, seen longest ago
        (2, 0): 152,
        (3, 0): 153,
        (4, 0): 154,
    }
    params = make_params(n_sc=1, gamma=0.2)
    choice = _sensed_pick(200, 3, params, np.random.default_rng(5), last_seen)
    assert choice == (201, 0)


def assert_uniform(outcomes, categories):
    """Every category seen, each within three binomial sigmas of its share."""
    counts = {}
    for outcome in outcomes:
        counts[outcome] = counts.get(outcome, 0) + 1
    assert len(counts) == categories
    trials = len(outcomes)
    expect = trials / categories
    sigma = np.sqrt(trials * (1 / categories) * (1 - 1 / categories))
    for count in counts.values():
        assert abs(count - expect) < 3 * sigma


def test_reselect_uniform_over_candidates():
    params = make_params(n_sc=2)
    rng = np.random.default_rng(12)
    assert_uniform([_sensed_pick(0, 4, params, rng, {}) for _ in range(100_000)], 10)


# ---------------------------------------------------------------------------
# the block draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", [1, 7, sps_sim._BLOCK])
def test_draws_are_the_generator_uniforms_whatever_the_block(monkeypatch, block):
    # random() hands out the Generator's own uniforms in order, and
    # integers(lo, hi) is lo + floor(u * (hi - lo)) of the next one
    monkeypatch.setattr(sps_sim, "_BLOCK", block)
    uniforms = np.random.default_rng(3).random(4000)
    draws = _Draws(np.random.default_rng(3))
    assert [draws.random() for _ in range(1000)] == uniforms[:1000].tolist()
    for lo, n, part in zip((0, 5, -2), (3, 1000, 10**15 + 7),
                           np.split(uniforms[1000:], 3)):
        assert [draws.integers(lo, lo + n) for _ in part] == \
            [lo + math.floor(u * n) for u in part]


@pytest.mark.parametrize("n", [1, 2, 3, 10**15 + 7])
def test_draws_integers_stay_in_range_at_the_edges(n):
    # 0 and 1 - 2^-53 are the smallest and largest uniforms a Generator returns
    edges = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    draws = _Draws(SimpleNamespace(random=lambda size: edges))
    got = [draws.integers(7, 7 + n) for _ in edges]
    assert got[0] == 7 and got[-1] == 7 + n - 1
    assert all(7 <= k < 7 + n for k in got)


def test_draws_pick_uniform_over_candidates():
    params = make_params(n_sc=2)
    draws = _Draws(np.random.default_rng(12))
    assert_uniform([_sensed_pick(0, 4, params, draws, {}) for _ in range(100_000)], 10)
    assert_uniform([draws.integers(0, 3) for _ in range(30_000)], 3)


@pytest.mark.parametrize("n_sc", [1, 2, 4])
def test_blind_pick_matches_candidate_list(n_sc):
    # the blind pick is computed from the draw, and so is the sensed one
    # when nothing was announced; the same draw indexes the same candidate,
    # also when an announced reservation (on a subchannel out of range)
    # excludes no candidate, so the sensed pick steps its draw past nothing
    params = make_params(n_sc=n_sc, w=15)
    for trigger in (0, 7, 49, 50, 123):
        for window in (0, 1, 4, 15, 60):
            candidates = [(s, c) for s in range(trigger + 1, trigger + 2 + window)
                          for c in range(n_sc)]
            for seed in range(5):
                k = int(np.random.default_rng(seed).integers(0, len(candidates)))
                pick = _uniform_pick(trigger, window, n_sc, np.random.default_rng(seed))
                assert pick == candidates[k]
                for last_seen in ({}, {(0, n_sc): trigger}):
                    pick = _sensed_pick(trigger, window, params,
                                        np.random.default_rng(seed), last_seen)
                    assert pick == candidates[k]


def test_sensed_pick_matches_the_candidate_list(monkeypatch):
    # the pick steps its draw past the excluded window positions, the
    # reference filters a list of every candidate: the same PRB and the same
    # generator state (one uniform per Generator call), over windows past
    # the period, keys that match no candidate (phase or subchannel out of
    # range), every key announced with tied last-seen slots so the floor
    # re-admits, and nothing announced
    monkeypatch.setattr(sps_sim, "_BLOCK", 1)
    cases = np.random.default_rng(2024)
    readmitted = 0
    for case in range(4000):
        period = int(cases.choice([1, 2, 5, 10, 20]))
        n_sc = int(cases.integers(1, 5))
        window = int(cases.integers(0, 3 * period + 3))
        params = make_params(rri=period / 1000, n_sc=n_sc,
                             gamma=float(cases.choice([0.05, 0.2, 0.5, 1.0])))
        trigger = int(cases.integers(0, 4 * period))
        in_range = [(phase, sc) for phase in range(period) for sc in range(n_sc)]
        stray = [(-1, 0), (period, 0), (0, -1), (0, n_sc), (period + 2, n_sc + 1)]
        kind = case % 4
        if kind == 0:
            keys = []
        elif kind == 1:
            keys = in_range
        else:
            pool = in_range + stray if kind == 2 else stray
            keys = [pool[i] for i in cases.permutation(len(pool))[
                :int(cases.integers(1, len(pool) + 1))]]
        last_seen = {key: int(cases.integers(0, 3)) for key in keys}
        size = (window + 1) * n_sc
        free = sum(1 for s in range(trigger + 1, trigger + 2 + window)
                   for c in range(n_sc) if (s % period, c) not in last_seen)
        readmitted += free < max(1, math.ceil(params.candidate_fraction * size))

        rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
        pick = _sensed_pick(trigger, window, params, _Draws(rng), last_seen)
        ref = reference_sensed_pick(trigger, window, params, _Draws(ref_rng), last_seen)
        assert pick == ref, (case, trigger, window, params, last_seen)
        assert rng.bit_generator.state == ref_rng.bit_generator.state, case
    assert readmitted > 500


def test_last_seen_is_the_latest_transmission_heard():
    # finished runs in the order the episode appends them (by end slot, then
    # vehicle) and cut as it cuts them, at the first one ending in the
    # sensing window; the brute force walks every transmission another
    # vehicle made in heard_from .. slot
    cases = np.random.default_rng(7)
    shared_end = not_started = cut = 0
    for _ in range(1500):
        period = int(cases.choice([1, 3, 10]))
        n_sc = int(cases.integers(1, 3))
        num_vehicles = int(cases.integers(1, 6))
        slot = int(cases.integers(0, 8 * period))
        finished, first, subchannel = [], [], []
        for vid in range(num_vehicles):
            start, sc = int(cases.integers(0, period)), int(cases.integers(0, n_sc))
            while (last := start + int(cases.integers(0, 4)) * period) <= slot:
                finished.append((start, last, sc, vid))
                start = last + 1 + int(cases.integers(0, period + 2))
                sc = int(cases.integers(0, n_sc))
            first.append(start)
            subchannel.append(sc)
        finished.sort(key=lambda run: (run[1], run[3]))
        heard_from = slot - int(cases.integers(0, 3 * period + 1))
        runs = [run for run in finished if run[1] >= heard_from]
        vid = int(cases.integers(0, num_vehicles))

        expect: dict[tuple[int, int], int] = {}
        heard = [(s, sc, other) for start, last, sc, other in finished
                 for s in range(start, last + 1, period)]
        heard += [(s, sc, other)
                  for other, (start, sc) in enumerate(zip(first, subchannel))
                  for s in range(start, slot + 1, period)]
        for s, sc, other in heard:
            if other != vid and heard_from <= s <= slot:
                key = (s % period, sc)
                expect[key] = max(s, expect.get(key, s))
        assert sps_sim._last_seen(vid, slot, heard_from, period, first, subchannel,
                                  runs) == expect

        ends = [(run[0] % period, run[1], run[2]) for run in runs if run[3] != vid]
        shared_end += len(ends) > len(set(ends))
        not_started += any(start > slot for start in first)
        cut += len(runs) < len(finished)
    assert min(shared_end, not_started, cut) > 50


# ---------------------------------------------------------------------------
# the reselection-counter lifecycle, on the per-slot reference the episode
# equality tests trust
# ---------------------------------------------------------------------------


def test_step_transmission_schedule():
    # rc=3, T=10, w=0: three transmissions T apart, then a one-slot shift
    params = make_params(rri=0.01, n_sc=1, w=0, rc=(3, 3))
    agent = make_agent(slot=5, rc=3, w=0)
    rng = np.random.default_rng(0)
    slots = []
    for _ in range(7):
        slot = agent.current_prb[0]
        slots.append(slot)
        reference_step([agent], slot, params, rng)
    assert slots == [5, 15, 25, 26, 36, 46, 47]


def test_step_keep_probability_one_never_reselects():
    # SpsParams caps P at 0.8 for the shared pool; the step reads only these
    # fields, so a stand-in pins a lone agent at P=1
    params = SimpleNamespace(slots_per_rri=50, num_subchannels=2,
                             rc_range=(1, 1), keep_probability=1.0,
                             candidate_fraction=0.2)
    agents = [make_agent(slot=3, sc=1, rc=1, w=4)]
    rng = np.random.default_rng(7)
    events = []
    for _ in range(200):
        slot = agents[0].current_prb[0]
        events.extend(reference_step(agents, slot, params, rng))
    assert all(ev.expired for ev in events)        # rc=1 expires every time
    assert not any(ev.reselected for ev in events)
    assert {(ev.slot % 50, ev.subchannel) for ev in events} == {(3, 1)}


def test_step_keep_probability_zero_always_reselects():
    params = make_params(rc=(1, 2), keep=0.0)
    cfg = SimConfig(sps=params, num_vehicles=1, windows=(4,))
    events = replay(cfg, 3_000, seed=8)
    expiries = [ev for ev in events if ev.expired]
    assert expiries and all(ev.reselected for ev in expiries)


def test_step_keep_probability_fraction():
    # every transmission expires (rc=1); reselection should happen 20% of the time
    params = make_params(rri=0.001, n_sc=1, w=0, rc=(1, 1), keep=0.8)
    cfg = SimConfig(sps=params, num_vehicles=1, windows=(0,))
    events = replay(cfg, 100_000, seed=9)
    expiries = sum(ev.expired for ev in events)
    reselections = sum(ev.reselected for ev in events)
    assert expiries > 90_000
    fraction = reselections / expiries
    sigma = np.sqrt(0.2 * 0.8 / expiries)
    assert abs(fraction - 0.2) < 3 * sigma


def test_rc_strictly_decreases_and_redraws_uniformly():
    params = make_params(rc=(2, 5))
    agent = make_agent(rc=4, w=4)
    rng = np.random.default_rng(21)
    redraws = []
    previous = agent.rc
    for _ in range(20_000):
        slot = agent.current_prb[0]
        event = reference_step([agent], slot, params, rng)[0]  # blind: counters only
        if event.expired:
            assert previous == 1  # counted all the way down
            redraws.append(agent.rc)
        else:
            assert agent.rc == previous - 1
        previous = agent.rc
    assert set(redraws) <= {2, 3, 4, 5}
    expect = len(redraws) / 4
    sigma = np.sqrt(len(redraws) * 0.25 * 0.75)
    for value in (2, 3, 4, 5):
        assert abs(redraws.count(value) - expect) < 3 * sigma


# ---------------------------------------------------------------------------
# whole-run properties
# ---------------------------------------------------------------------------


def test_simulate_deterministic_per_seed():
    cfg = SimConfig(sps=make_params(), num_vehicles=3, windows=(2, 4, 6))
    assert replay(cfg, 5_000, seed=13) == replay(cfg, 5_000, seed=13)
    assert replay(cfg, 5_000, seed=13) != replay(cfg, 5_000, seed=14)


def test_simulate_conservation():
    cfg = SimConfig(sps=make_params(), num_vehicles=4, windows=(4, 4, 4, 4))
    events = replay(cfg, 5_000, seed=3)
    seen = set()
    for ev in events:
        key = (ev.slot, ev.vehicle_id)
        assert key not in seen  # one transmission per vehicle per slot
        seen.add(key)
    by_prb = {}
    for ev in events:
        by_prb.setdefault((ev.slot, ev.subchannel), []).append(ev)
    for occupants in by_prb.values():
        expected = len(occupants) > 1
        assert all(ev.collided == expected for ev in occupants)


def test_success_implies_no_collision():
    cfg = SimConfig(sps=make_params(rri=0.02), num_vehicles=3, windows=(4, 4, 4))
    events = replay(cfg, 20_000, seed=5)
    by_slot = {}
    for ev in events:
        by_slot.setdefault(ev.slot, []).append(ev)
    assert any(len(group) > 1 for group in by_slot.values())
    for group in by_slot.values():
        if len(group) == 1:  # delivered to everyone
            assert not group[0].collided


@pytest.mark.parametrize("period", [10, 20, 50])
def test_phase_hits_match_slot_count(period):
    # the blind pair score counts window slots on the neighbour's phase in
    # closed form; compare with walking the slots, for triggers on both
    # sides of a period boundary
    triggers = [0, 1, period - 2, period - 1, period, period + 1,
                3 * period - 1, 3 * period, 7 * period + period // 2]
    for trigger in triggers:
        for window in range(16):
            for phase in range(period):
                walked = sum(1 for s in range(trigger + 1, trigger + 2 + window)
                             if s % period == phase)
                assert _phase_hits(trigger, window, phase, period) == walked


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def test_estimates_are_pinned():
    # every field, exactly as an earlier simulator produced it: blind
    # selection with mixed windows, and sensing where six vehicles share five
    # candidate PRBs so the candidate floor re-admits exclusions
    blind = SimConfig(sps=make_params(rc=(2, 5)), num_vehicles=3, windows=(2, 4, 6))
    aware = SimConfig(sps=make_params(rri=0.02, n_sc=1, w=4, rc=(2, 5)),
                      num_vehicles=6, sensing=True)
    assert estimate_collision_prob(blind, 3000, rng_seed=31, episodes=30) == \
        CollisionEstimate(
            collided_fraction=0.022964899178491413, collided_se=0.0014472783741656576,
            reselection_collision=0.011644444444444449,
            reselection_se=0.0004537740103176266, num_transmissions=10712,
            num_reselections=3000, cluster_se=0.0008673944006512222)
    assert estimate_prr(blind, 3000, rng_seed=32, episodes=30) == PrrEstimate(
        value=0.9482370592648162, std_error=0.002145397966901917,
        num_transmissions=10664, num_reselections=3000,
        cluster_se=0.008199685869693071)
    assert estimate_collision_prob(aware, 3000, rng_seed=31, episodes=30) == \
        CollisionEstimate(
            collided_fraction=0.26139199556336074, collided_se=0.00422434701476478,
            reselection_collision=0.028123958680439855,
            reselection_se=0.0013496639992735498, num_transmissions=10819,
            num_reselections=3001, cluster_se=0.0013851069662368135)
    assert estimate_prr(aware, 3000, rng_seed=32, episodes=30) == PrrEstimate(
        value=0.7257419294818123, std_error=0.0043031529641054354,
        num_transmissions=10749, num_reselections=3002,
        cluster_se=0.01186823621100952)


@pytest.mark.parametrize("keep", [0.0, 0.5, 0.8])
@pytest.mark.parametrize("rc", [(1, 1), (2, 3), (5, 15)])
def test_blind_episodes_match_per_slot_reference(monkeypatch, keep, rc):
    # periods from 1 to 100 slots, windows narrower and wider than the
    # period, one to five vehicles; several episodes per call, so the RNG
    # stream carries from one episode into the next
    for period in (1, 2, 7, 20, 100):
        params = make_params(rri=period / 1000, n_sc=1, w=0, rc=rc, keep=keep)
        for n_sc in (1, 2, 4):
            params = replace(params, num_subchannels=n_sc)
            for num_vehicles in range(1, 6):
                pattern = (0, period + 3, 4, 2 * period + 1, period - 1)
                cfg = SimConfig(sps=params, num_vehicles=num_vehicles,
                                windows=pattern[:num_vehicles])
                seed = period * 100 + n_sc * 10 + num_vehicles
                for estimator in (estimate_collision_prob, estimate_prr):
                    assert_matches_reference(monkeypatch, estimator, cfg, 24,
                                             seed, episodes=3)


def test_blind_episode_guard_matches_per_slot_reference(monkeypatch):
    # with P = 1 no counter expiry ever reselects, so every episode runs to
    # the slot guard and is cut there; SpsParams caps P at 0.8, so a
    # stand-in carries the fields the simulator reads
    for period, num_vehicles, rc in [(1, 2, (1, 3)), (3, 3, (2, 2)), (50, 1, (5, 15))]:
        params = SimpleNamespace(slots_per_rri=period, num_subchannels=2,
                                 rc_range=rc, keep_probability=1.0,
                                 candidate_fraction=0.2, selection_window=1)
        cfg = SimConfig(sps=params, num_vehicles=num_vehicles)
        assert_matches_reference(monkeypatch, estimate_prr, cfg, 4, 5, episodes=2)


# (period, subchannels, windows): free candidates; six vehicles on five
# candidate PRBs, so the floor re-admits; a one-slot period, where every
# vehicle transmits and expires in the same slots; windows past the period
SENSING_CELLS = [
    (50, 2, (9, 9, 9, 9)),
    (20, 1, (4, 4, 4, 4, 4, 4)),
    (1, 2, (0, 2, 5)),
    (3, 1, (0, 4, 2, 7, 1)),
    (7, 4, (0, 15)),
]


@pytest.mark.parametrize("keep", [0.0, 0.5])
@pytest.mark.parametrize("rc", [(1, 1), (2, 3), (5, 15)])
def test_sensing_episodes_match_per_slot_reference(monkeypatch, keep, rc):
    # sensing windows shorter than the period, a few periods long, and the
    # default 1,000 slots; at 24 reselections per episode most episodes span
    # several sensing windows, so the stepwise prune is crossed many times
    for period, n_sc, windows in SENSING_CELLS:
        params = make_params(rri=period / 1000, n_sc=n_sc, w=0, rc=rc, keep=keep)
        for sensing_window in (3.0, 60.0, 1000.0):
            cfg = SimConfig(sps=replace(params, sensing_window=sensing_window),
                            num_vehicles=len(windows), windows=windows, sensing=True)
            seed = period * 100 + n_sc * 10 + len(windows)
            for estimator in (estimate_collision_prob, estimate_prr):
                assert_matches_reference(monkeypatch, estimator, cfg, 48,
                                         seed, episodes=2)


def test_sensing_episode_guard_matches_per_slot_reference(monkeypatch):
    # the stand-in of the blind guard test, with sensing on: P = 1, so every
    # episode runs to the slot guard and is cut there
    for period, num_vehicles, rc in [(1, 2, (1, 3)), (3, 3, (2, 2)), (50, 1, (5, 15))]:
        params = SimpleNamespace(slots_per_rri=period, num_subchannels=2,
                                 rc_range=rc, keep_probability=1.0,
                                 candidate_fraction=0.2, selection_window=1,
                                 sensing_window=5.0, numerology=0)
        cfg = SimConfig(sps=params, num_vehicles=num_vehicles, sensing=True)
        assert_matches_reference(monkeypatch, estimate_prr, cfg, 4, 5, episodes=2)


@pytest.mark.parametrize("cfg", [
    SimConfig(sps=make_params(rc=(2, 5)), num_vehicles=3, windows=(2, 4, 6)),
    SimConfig(sps=make_params(rri=0.02, n_sc=1, w=4, rc=(2, 5)), num_vehicles=6,
              sensing=True),
    SimConfig(sps=make_params(), num_vehicles=1, windows=(4,)),
], ids=["blind", "sensing", "one-vehicle"])
def test_estimate_reads_both_rows_from_one_tally(cfg):
    # one simulation gives exactly what the two estimators give at one seed
    assert estimate(cfg, 600, 9, episodes=6) == (
        estimate_collision_prob(cfg, 600, 9, episodes=6),
        estimate_prr(cfg, 600, 9, episodes=6))
    with pytest.raises(ValueError):
        estimate(cfg, 0, 9)


def test_estimate_single_vehicle():
    cfg = SimConfig(sps=make_params(), num_vehicles=1, windows=(4,))
    col = estimate_collision_prob(cfg, 1_000, rng_seed=0)
    assert col.reselection_collision == 0.0 and col.collided_fraction == 0.0
    assert estimate_prr(cfg, 1_000, rng_seed=0).value == 1.0


def test_estimate_rejects_bad_event_count():
    cfg = SimConfig(sps=make_params(), num_vehicles=2)
    with pytest.raises(ValueError):
        estimate_collision_prob(cfg, 0, rng_seed=0)
    with pytest.raises(ValueError):
        estimate_prr(cfg, -5, rng_seed=0)


def test_estimate_rejects_bad_episode_count():
    cfg = SimConfig(sps=make_params(), num_vehicles=2)
    with pytest.raises(ValueError, match="episodes"):
        estimate_collision_prob(cfg, 100, rng_seed=0, episodes=0)
    with pytest.raises(ValueError, match="episodes"):
        estimate_prr(cfg, 100, rng_seed=0, episodes=-1)


def test_estimate_deterministic():
    cfg = SimConfig(sps=make_params(rc=(2, 5)), num_vehicles=2, windows=(4, 4))
    a = estimate_collision_prob(cfg, 2_000, rng_seed=17)
    b = estimate_collision_prob(cfg, 2_000, rng_seed=17)
    assert a == b


def test_forced_collision():
    # one slot per interval, one subchannel, reselection every transmission:
    # both vehicles land on the same PRB with certainty
    params = make_params(rri=0.001, n_sc=1, w=0, rc=(1, 1))
    cfg = SimConfig(sps=params, num_vehicles=2, windows=(0, 0))
    col = estimate_collision_prob(cfg, 2_000, rng_seed=4)
    assert col.reselection_collision == 1.0
    assert col.collided_fraction == 1.0
    assert estimate_prr(cfg, 2_000, rng_seed=4).value == 0.0


def test_estimator_exercises_keep_path():
    # at the P cap most expiries keep their PRB, so expiries outnumber
    # reselections and the run still terminates at the requested event count
    params = make_params(rc=(1, 1), keep=0.8)
    cfg = SimConfig(sps=params, num_vehicles=2, windows=(4, 4))
    col = estimate_collision_prob(cfg, 1_000, rng_seed=1, episodes=20)
    assert col.num_reselections >= 1_000
    assert col.num_transmissions > 3 * col.num_reselections


def test_standard_error_scales_with_events():
    cfg = SimConfig(sps=make_params(rc=(2, 5)), num_vehicles=2, windows=(4, 4))
    small = estimate_collision_prob(cfg, 2_000, rng_seed=6)
    large = estimate_collision_prob(cfg, 8_000, rng_seed=6)
    ratio = large.reselection_se / small.reselection_se
    assert 0.3 < ratio < 0.7  # expect ~1/2 for a 4x sample
    prr_small = estimate_prr(cfg, 2_000, rng_seed=6)
    prr_large = estimate_prr(cfg, 8_000, rng_seed=6)
    assert 0.3 < prr_large.std_error / prr_small.std_error < 0.7


def test_collision_against_analytic_model():
    # T=20, two subchannels, shared window of 4
    params = make_params(rri=0.02, n_sc=2, w=4)
    cfg = SimConfig(sps=params, num_vehicles=2, windows=(4, 4), sensing=False)
    estimate = estimate_collision_prob(cfg, 20_000, rng_seed=10, episodes=500)
    analytic = collision_probability(params, 4, 4)
    assert analytic == pytest.approx(1.0 / (20 * 2))
    assert estimate.reselection_collision == pytest.approx(analytic, rel=0.15)


def test_prr_against_analytic_model():
    # three vehicles, T=100; packet length set to one slot per interval
    params = SpsParams(
        rri=0.1,
        numerology=0,
        num_subchannels=2,
        selection_window=4,
        window_bounds=(0, 15),
        keep_probability=0.0,
        rc_range=(2, 5),
        packet_rate=10.0,
        sensing_window=1000.0,
        collision_model="uniform-selection",
    )
    cfg = SimConfig(sps=params, num_vehicles=3, windows=(4, 4, 4), sensing=False)
    estimate = estimate_prr(cfg, 100_000, rng_seed=11, episodes=1000)
    analytic = packet_reception_ratio(0, params, windows=[4, 4, 4])
    assert abs(estimate.value - analytic) <= 0.02


def test_sensing_suppresses_collisions():
    params = make_params(rri=0.05, n_sc=2, w=9, rc=(2, 5))
    blind = SimConfig(sps=params, num_vehicles=2, windows=(9, 9), sensing=False)
    aware = SimConfig(sps=params, num_vehicles=2, windows=(9, 9), sensing=True)
    col_blind = estimate_collision_prob(blind, 5_000, rng_seed=8)
    col_aware = estimate_collision_prob(aware, 5_000, rng_seed=8)
    assert col_aware.reselection_collision < 0.5 * col_blind.reselection_collision
    assert col_aware.collided_fraction < col_blind.collided_fraction