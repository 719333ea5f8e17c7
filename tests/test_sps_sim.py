import numpy as np
import pytest

from v2i_fairness.errors import ConfigError, ModelDomainError
from v2i_fairness.sps_analytics import (
    SpsParams,
    collision_probability,
    packet_reception_ratio,
)
from v2i_fairness.sps_sim import (
    ResourceGrid,
    SimConfig,
    SpsAgentState,
    estimate_collision_prob,
    estimate_prr,
    reselect,
    simulate,
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


def make_agent(slot=0, sc=0, rc=5, period=50, w=4, keep=0.0):
    return SpsAgentState(
        current_prb=(slot, sc),
        rc=rc,
        rri_slots=period,
        window=w,
        keep_probability=keep,
    )


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


def test_resource_grid_rejects_degenerate():
    with pytest.raises(ModelDomainError):
        ResourceGrid(0, 100)
    with pytest.raises(ModelDomainError):
        ResourceGrid(2, 0)


# ---------------------------------------------------------------------------
# reselect
# ---------------------------------------------------------------------------


def test_reselect_forced_single_prb():
    agent = make_agent(slot=10, w=0, period=50)
    grid = ResourceGrid(1, 10**6)
    assert reselect(agent, grid, rng=0) == (11, 0)


def test_reselect_avoids_sensed_reservations():
    # N_Sc=2, w=1 -> four candidates; three phases observed -> one left
    agent = make_agent(slot=100, w=1, period=50)
    grid = ResourceGrid(2, 10**6)
    grid.record(51, 0, 7)   # phase 1 = slot 101
    grid.record(52, 0, 8)   # phase 2 = slot 102
    grid.record(51, 1, 9)   # phase 1, other subchannel
    assert reselect(agent, grid, rng=3, own_id=0) == (102, 1)


def test_reselect_ignores_own_history():
    agent = make_agent(slot=10, w=0, period=50)
    grid = ResourceGrid(1, 10**6)
    grid.record(11 - 50, 0, 4)  # own phase, announced by vehicle 4 itself
    assert reselect(agent, grid, rng=0, own_id=4) == (11, 0)


def test_reselect_floor_readmits_least_recent():
    # every candidate phase excluded; the floor of one forces the stalest
    # observation back into the pool, so the choice is deterministic
    agent = make_agent(slot=200, w=3, period=50)
    grid = ResourceGrid(1, 10**6)
    grid.record(151, 0, 1)  # phase 1 -> candidate slot 201, seen longest ago
    grid.record(152, 0, 1)
    grid.record(153, 0, 1)
    grid.record(154, 0, 1)
    choice = reselect(agent, grid, rng=5, own_id=0, candidate_fraction=0.2)
    assert choice == (201, 0)


def test_reselect_uniform_over_candidates():
    agent = make_agent(slot=0, w=4, period=50)
    grid = ResourceGrid(2, 10**6)
    rng = np.random.default_rng(12)
    counts = {}
    trials = 100_000
    for _ in range(trials):
        prb = reselect(agent, grid, rng)
        counts[prb] = counts.get(prb, 0) + 1
    assert len(counts) == 10
    expect = trials / 10
    sigma = np.sqrt(trials * 0.1 * 0.9)
    for count in counts.values():
        assert abs(count - expect) < 3 * sigma


def test_reselect_rejects_degenerate_grid():
    agent = make_agent()
    grid = ResourceGrid(1, 10)
    grid.subchannels = 0
    with pytest.raises(ModelDomainError):
        reselect(agent, grid, rng=0)


# ---------------------------------------------------------------------------
# step and the reselection-counter lifecycle
# ---------------------------------------------------------------------------


def test_step_transmission_schedule():
    # rc=3, T=10, w=0: three transmissions T apart, then a one-slot shift
    params = make_params(rri=0.01, n_sc=1, w=0, rc=(3, 3))
    agent = make_agent(slot=5, rc=3, period=10, w=0)
    grid = ResourceGrid(1, 10**6)
    rng = np.random.default_rng(0)
    slots = []
    for _ in range(7):
        slot = agent.current_prb[0]
        slots.append(slot)
        step([agent], slot, grid, params, rng)
    assert slots == [5, 15, 25, 26, 36, 46, 47]


def test_step_keep_probability_one_never_reselects():
    # the shared-pool cap is 0.8, but a lone agent may be pinned at P=1
    params = make_params(rc=(1, 1))
    agents = [make_agent(slot=3, sc=1, rc=1, period=50, w=4, keep=1.0)]
    grid = ResourceGrid(2, 10**9)
    rng = np.random.default_rng(7)
    events = []
    for _ in range(200):
        slot = agents[0].current_prb[0]
        events.extend(step(agents, slot, grid, params, rng))
    assert all(ev.expired for ev in events)        # rc=1 expires every time
    assert not any(ev.reselected for ev in events)
    assert {(ev.slot % 50, ev.subchannel) for ev in events} == {(3, 1)}


def test_step_keep_probability_zero_always_reselects():
    params = make_params(rc=(1, 2), keep=0.0)
    cfg = SimConfig(sps=params, num_vehicles=1, windows=(4,))
    events = simulate(cfg, 3_000, rng=8)
    expiries = [ev for ev in events if ev.expired]
    assert expiries and all(ev.reselected for ev in expiries)


def test_step_keep_probability_fraction():
    # every transmission expires (rc=1); reselection should happen 20% of the time
    params = make_params(rri=0.001, n_sc=1, w=0, rc=(1, 1), keep=0.8)
    cfg = SimConfig(sps=params, num_vehicles=1, windows=(0,))
    events = simulate(cfg, 100_000, rng=9)
    expiries = sum(ev.expired for ev in events)
    reselections = sum(ev.reselected for ev in events)
    assert expiries > 90_000
    fraction = reselections / expiries
    sigma = np.sqrt(0.2 * 0.8 / expiries)
    assert abs(fraction - 0.2) < 3 * sigma


def test_rc_strictly_decreases_and_redraws_uniformly():
    params = make_params(rc=(2, 5))
    agent = make_agent(rc=4, period=50, w=4)
    grid = ResourceGrid(2, 10**9)
    rng = np.random.default_rng(21)
    redraws = []
    previous = agent.rc
    for _ in range(20_000):
        slot = agent.current_prb[0]
        event = step([agent], slot, grid, params, rng)[0]
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
    assert simulate(cfg, 5_000, rng=13) == simulate(cfg, 5_000, rng=13)
    assert simulate(cfg, 5_000, rng=13) != simulate(cfg, 5_000, rng=14)


def test_simulate_conservation():
    cfg = SimConfig(sps=make_params(), num_vehicles=4, windows=(4, 4, 4, 4))
    events = simulate(cfg, 5_000, rng=3)
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
    events = simulate(cfg, 20_000, rng=5)
    by_slot = {}
    for ev in events:
        by_slot.setdefault(ev.slot, []).append(ev)
    assert any(len(group) > 1 for group in by_slot.values())
    for group in by_slot.values():
        if len(group) == 1:  # delivered to everyone
            assert not group[0].collided


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


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