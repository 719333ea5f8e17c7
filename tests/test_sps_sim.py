from dataclasses import replace
from types import SimpleNamespace

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
    SpsAgentState,
    _init_agents,
    _phase_hits,
    estimate_collision_prob,
    estimate_prr,
    reselect,
    step,
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


def make_agent(slot=0, sc=0, rc=5, w=4):
    return SpsAgentState(current_prb=(slot, sc), rc=rc, window=w)


def replay(cfg, num_slots, seed):
    """Every transmission of one blind episode over ``num_slots`` slots.

    Agents start on uniform phases, subchannels and counters, then ``step``
    runs slot by slot until the next transmission falls past the horizon.
    """
    params = cfg.sps
    rc_lo, rc_hi = params.rc_range
    rng = np.random.default_rng(seed)
    agents = [
        make_agent(slot=int(rng.integers(0, params.slots_per_rri)),
                   sc=int(rng.integers(0, params.num_subchannels)),
                   rc=int(rng.integers(rc_lo, rc_hi + 1)), w=w)
        for w in cfg.effective_windows
    ]
    events = []
    while (slot := min(agent.current_prb[0] for agent in agents)) < num_slots:
        events.extend(step(agents, slot, params, rng))
    return events


def reference_blind_episode(config, rng, target_reselections, tally):
    """The per-slot sensing-off episode the expiry-to-expiry loop replaced.

    ``step`` runs on every occupied slot; each reselection's pick is scored
    against the reservations every vehicle held before the slot.
    """
    params = config.sps
    period = params.slots_per_rri
    n_sc = params.num_subchannels
    agents = _init_agents(config, rng)

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
        events = step(agents, slot, params, rng)
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
            window = agents[event.vehicle_id].window
            for vid, (phase_j, sc_j) in enumerate(before):
                if vid == event.vehicle_id:
                    continue
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


def assert_matches_reference(monkeypatch, estimator, cfg, num_events, seed, episodes):
    """Same estimate and the same RNG state afterwards on both blind loops."""
    rng = np.random.default_rng(seed)
    fast = estimator(cfg, num_events, rng, episodes=episodes)
    with monkeypatch.context() as patch:
        patch.setattr(sps_sim, "_run_blind_episode", reference_blind_episode)
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
# reselect
# ---------------------------------------------------------------------------


def test_reselect_forced_single_prb():
    agent = make_agent(slot=10, w=0)
    params = make_params(n_sc=1)
    assert reselect(agent, params, np.random.default_rng(0), own_id=0) == (11, 0)


def test_reselect_avoids_sensed_reservations():
    # N_Sc=2, w=1 -> four candidates; three phases observed -> one left
    agent = make_agent(slot=100, w=1)
    history = {
        (51, 0): {7},   # phase 1 = slot 101
        (52, 0): {8},   # phase 2 = slot 102
        (51, 1): {9},   # phase 1, other subchannel
    }
    choice = reselect(agent, make_params(n_sc=2), np.random.default_rng(3),
                      history, own_id=0)
    assert choice == (102, 1)


def test_reselect_ignores_own_history():
    agent = make_agent(slot=10, w=0)
    history = {(11 - 50, 0): {4}}  # own phase, announced by vehicle 4 itself
    choice = reselect(agent, make_params(n_sc=1), np.random.default_rng(0),
                      history, own_id=4)
    assert choice == (11, 0)


def test_reselect_floor_readmits_least_recent():
    # every candidate phase excluded; the floor of one forces the stalest
    # observation back into the pool, so the choice is deterministic
    agent = make_agent(slot=200, w=3)
    history = {
        (151, 0): {1},  # phase 1 -> candidate slot 201, seen longest ago
        (152, 0): {1},
        (153, 0): {1},
        (154, 0): {1},
    }
    params = make_params(n_sc=1, gamma=0.2)
    choice = reselect(agent, params, np.random.default_rng(5), history, own_id=0)
    assert choice == (201, 0)


def test_reselect_uniform_over_candidates():
    agent = make_agent(slot=0, w=4)
    params = make_params(n_sc=2)
    rng = np.random.default_rng(12)
    counts = {}
    trials = 100_000
    for _ in range(trials):
        prb = reselect(agent, params, rng, own_id=0)
        counts[prb] = counts.get(prb, 0) + 1
    assert len(counts) == 10
    expect = trials / 10
    sigma = np.sqrt(trials * 0.1 * 0.9)
    for count in counts.values():
        assert abs(count - expect) < 3 * sigma


@pytest.mark.parametrize("n_sc", [1, 2, 4])
def test_blind_pick_matches_candidate_list(n_sc):
    # with no history (blind, or sensing before anything was heard) the pick
    # is computed from the draw; the same draw indexes the same candidate
    params = make_params(n_sc=n_sc, w=15)
    for trigger in (0, 7, 49, 50, 123):
        for window in (0, 1, 4, 15, 60):
            candidates = [(s, c) for s in range(trigger + 1, trigger + 2 + window)
                          for c in range(n_sc)]
            agent = make_agent(slot=trigger, w=window)
            for seed in range(5):
                k = int(np.random.default_rng(seed).integers(0, len(candidates)))
                for history in (None, {}):
                    pick = reselect(agent, params, np.random.default_rng(seed),
                                    history, own_id=0)
                    assert pick == candidates[k]


# ---------------------------------------------------------------------------
# step and the reselection-counter lifecycle
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
        step([agent], slot, params, rng)
    assert slots == [5, 15, 25, 26, 36, 46, 47]


def test_step_keep_probability_one_never_reselects():
    # SpsParams caps P at 0.8 for the shared pool; step reads only these
    # fields, so a stand-in pins a lone agent at P=1
    params = SimpleNamespace(slots_per_rri=50, num_subchannels=2,
                             rc_range=(1, 1), keep_probability=1.0,
                             candidate_fraction=0.2)
    agents = [make_agent(slot=3, sc=1, rc=1, w=4)]
    rng = np.random.default_rng(7)
    events = []
    for _ in range(200):
        slot = agents[0].current_prb[0]
        events.extend(step(agents, slot, params, rng))
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
        event = step([agent], slot, params, rng)[0]  # blind: counters only
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
            collided_fraction=0.018693353474320242, collided_se=0.0013160033452042515,
            reselection_collision=0.009906349206349207,
            reselection_se=0.00041395206364207586, num_transmissions=10592,
            num_reselections=3000, cluster_se=0.0008484291723757125)
    assert estimate_prr(blind, 3000, rng_seed=32, episodes=30) == PrrEstimate(
        value=0.9429944407801752, std_error=0.0022505781042316533,
        num_transmissions=10613, num_reselections=3000,
        cluster_se=0.004624709868351863)
    assert estimate_collision_prob(aware, 3000, rng_seed=31, episodes=30) == \
        CollisionEstimate(
            collided_fraction=0.2680218332392245, collided_se=0.004296840615610047,
            reselection_collision=0.031389536821059646,
            reselection_se=0.0014234723374373839, num_transmissions=10626,
            num_reselections=3001, cluster_se=0.0010605462363634062)
    assert estimate_prr(aware, 3000, rng_seed=32, episodes=30) == PrrEstimate(
        value=0.7291839557399723, std_error=0.004267180061083595,
        num_transmissions=10845, num_reselections=3004,
        cluster_se=0.011524431109573447)


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


def test_step_runs_only_with_sensing(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("step called")

    monkeypatch.setattr(sps_sim, "step", refuse)
    params = make_params(rc=(2, 5))
    blind = SimConfig(sps=params, num_vehicles=3, windows=(2, 4, 6))
    assert estimate_prr(blind, 200, rng_seed=1, episodes=10).num_reselections >= 200
    aware = SimConfig(sps=params, num_vehicles=3, sensing=True)
    with pytest.raises(RuntimeError, match="step called"):
        estimate_prr(aware, 200, rng_seed=1, episodes=10)


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