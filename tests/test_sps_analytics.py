import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import window_grid
from v2i_fairness.channel import ChannelParams
from v2i_fairness.config import DEFAULT_SPS
from v2i_fairness.errors import ConfigError, ModelDomainError
from v2i_fairness.scenario import ScenarioConfig
from v2i_fairness.sps_analytics import (
    COLLISION_MODELS,
    FairnessInputs,
    SpsParams,
    collision_probability,
    fairness_indices,
    objective_batch,
    packet_reception_ratio,
    slots_per_rri,
)

# ---------------------------------------------------------------------------
# independent scalar re-implementation of the Eq. chain, used as cross-check
# ---------------------------------------------------------------------------


def delta_ref(params: SpsParams, wi: float, wj: float) -> float:
    period = 1000.0 * 2 ** params.numerology * params.rri
    p_overlap = (wi + wj + 1.0) / period
    n_sh = (wi + 1.0) * (wj + 1.0) / (wi + wj + 1.0)
    n_sc = params.num_subchannels
    if params.collision_model == "bounded-pool":
        pool = n_sc * (params.window_bounds[1] + 1.0)
        c_ca, n_r, n_ca = n_sc * n_sh, pool, params.candidate_fraction * pool
    else:
        c_ca = n_ca = n_sc * n_sh
        n_r = n_sc * math.sqrt((wi + 1.0) * (wj + 1.0))
    p_shared = (n_sc * n_sh / n_r) ** 2
    return p_overlap * p_shared * c_ca / n_ca ** 2


def kappa_ref(channel: ChannelParams, speed: float, coverage: float, rsu) -> float:
    t = coverage / (2.0 * speed)
    dx, dy, dz = speed * t - rsu[0], -rsu[1], -rsu[2]
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    s = channel.tx_power * d ** (-channel.path_loss_exponent) / channel.noise_power
    return math.log2(1.0 + s)


def objective_ref(w, inputs: FairnessInputs) -> list[float]:
    n = len(w)
    speeds = inputs.speeds
    kappa = [kappa_ref(inputs.channel, speeds[i], inputs.coverage_range,
                       inputs.rsu_position) for i in range(n)]
    k_i = []
    for i in range(n):
        prod = 1.0
        for j in range(n):
            if j != i:
                prod *= 1.0 - delta_ref(inputs.sps, w[i], w[j])
        k_i.append(kappa[i] * prod / speeds[i])
    v_bar = sum(speeds) / n
    w_bar = sum(w) / n
    k_net = (kappa_ref(inputs.channel, v_bar, inputs.coverage_range, inputs.rsu_position)
             * (1.0 - delta_ref(inputs.sps, w_bar, w_bar)) ** (n - 1) / v_bar)
    return [abs(k_net - k) for k in k_i]


# ---------------------------------------------------------------------------
# slot bookkeeping and parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu, rri, expected", [
    (0, 1.0, 1000), (0, 0.1, 100), (0, 0.05, 50), (1, 0.05, 100), (1, 0.0005, 1),
])
def test_slots_per_rri(mu, rri, expected):
    assert slots_per_rri(mu, rri) == expected


def test_slots_per_rri_rejects_fractional():
    with pytest.raises(ConfigError, match="rri"):
        slots_per_rri(0, 0.0505)
    with pytest.raises(ConfigError, match="rri"):
        slots_per_rri(0, 0.0005)


class TestSpsParams:
    def test_defaults_valid(self):
        p = SpsParams()
        assert p.slots_per_rri == 50

    @pytest.mark.parametrize("kwargs, key", [
        (dict(keep_probability=0.9), "keep_probability"),
        (dict(candidate_fraction=0.0), "candidate_fraction"),
        (dict(window_bounds=(5, 3)), "window_bounds"),
        (dict(selection_window=20), "selection_window"),
        (dict(num_subchannels=0), "num_subchannels"),
        (dict(collision_model="other"), "collision_model"),
        (dict(packet_rate=0.0), "packet_rate"),
        (dict(packet_rate=2000.0), "packet_rate"),
        (dict(rc_range=(0, 5)), "rc_range"),
    ])
    def test_rejects_invalid(self, kwargs, key):
        with pytest.raises(ConfigError, match=key):
            SpsParams(**kwargs)


# ---------------------------------------------------------------------------
# composed collision probability under both calibrations
# ---------------------------------------------------------------------------


def test_uniform_selection_collapses_to_grid_probability():
    """With the uniform-selection constants the product must equal
    1/(slots * N_Sc) for every window pair — two independent uniform
    (offset, subchannel) picks."""
    p = SpsParams(rri=0.05, num_subchannels=2, collision_model="uniform-selection")
    for wi in range(0, 16, 3):
        for wj in range(0, 16, 3):
            if wi + wj + 1 > 50:
                continue
            assert collision_probability(p, wi, wj) == pytest.approx(1.0 / (50 * 2))


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 14))
def test_bounded_pool_increasing_in_neighbour_window(wi, wj, wk):
    p = SpsParams(rri=0.05, num_subchannels=2)
    lo, hi = sorted([wj, wk])
    if lo == hi:
        return
    assert collision_probability(p, wi, hi) > collision_probability(p, wi, lo)


@settings(max_examples=200)
@given(st.integers(0, 15), st.integers(0, 15),
       st.sampled_from(["bounded-pool", "uniform-selection"]))
def test_collision_probability_is_probability(wi, wj, model):
    p = SpsParams(rri=0.05, num_subchannels=2, collision_model=model)
    delta = collision_probability(p, wi, wj)
    assert 0.0 <= delta <= 1.0
    assert delta.tobytes() == collision_probability(p, wj, wi).tobytes()


@settings(max_examples=150)
@given(st.integers(0, 15), st.integers(0, 15),
       st.sampled_from(["bounded-pool", "uniform-selection"]),
       st.integers(1, 4), st.sampled_from([0.02, 0.05, 0.1]))
def test_collision_probability_matches_reference(wi, wj, model, n_sc, rri):
    assume(wi + wj + 1 <= 1000 * rri)  # windows must fit one reservation period
    p = SpsParams(rri=rri, num_subchannels=n_sc, collision_model=model)
    assert collision_probability(p, wi, wj) == pytest.approx(
        delta_ref(p, wi, wj), rel=1e-12)


def test_overlap_probability_domain():
    p = SpsParams(rri=0.05, num_subchannels=2)
    with pytest.raises(ModelDomainError, match="exceeds the 50-slot"):
        collision_probability(p, 30, 30)  # span 61 > 50 slots
    with pytest.raises(ValueError, match="windows must be >= 0"):
        collision_probability(p, -1, 0)


@given(st.integers(0, 499), st.integers(0, 499))
def test_shared_resources_symmetric_and_bounded(wi, wj):
    """N_Sh read back from bounded-pool delta_col: with N_Sc = gamma = 1,
    delta = (span / T) * N_Sh^3 / N_r^4 and N_r = w_UB + 1."""
    p = SpsParams(rri=1.0, num_subchannels=1, window_bounds=(0, 1000),
                  candidate_fraction=1.0)
    delta = collision_probability(p, wi, wj)
    assert delta.tobytes() == collision_probability(p, wj, wi).tobytes()
    span, slots, n_r = wi + wj + 1.0, 1000.0, 1001.0
    n_sh = float(np.cbrt(delta * slots / span * n_r ** 4))
    assert n_sh == pytest.approx((wi + 1.0) * (wj + 1.0) / span, rel=1e-9)
    assert n_sh <= (min(wi, wj) + 1) * (1 + 1e-9)
    assert n_sh >= 1.0 - 1e-9


def test_shared_selection_probability_domain():
    # bounded pool N_r = 2 * 16 = 32, but N_Sc * N_Sh = 2 * 41^2 / 81 > 32
    with pytest.raises(ModelDomainError, match="exceed the pool N_r"):
        collision_probability(SpsParams(rri=0.1), 40, 40)
    with pytest.raises(ValueError, match="sps.num_subchannels"):
        SpsParams(num_subchannels=0)


def test_collision_from_factors_rejects_inconsistent():
    # gamma = 0.01 shrinks N_Ca until the product exceeds 1 (about 27)
    p = SpsParams(rri=0.05, num_subchannels=2, candidate_fraction=0.01)
    with pytest.raises(ModelDomainError, match="delta_col outside"):
        collision_probability(p, 15, 15)


# ---------------------------------------------------------------------------
# packet reception ratio
# ---------------------------------------------------------------------------


def test_prr_single_vehicle_is_one():
    assert packet_reception_ratio(0, SpsParams(), [8]) == 1.0


def test_prr_two_neighbours_frozen_value():
    # each neighbour contributes delta_col = 0.01 and delta_hd = 0.01
    p = SpsParams(rri=0.05, num_subchannels=2,
                  collision_model="uniform-selection", packet_rate=10.0)
    assert packet_reception_ratio(0, p, [4, 4, 4]) == pytest.approx(0.99 ** 4)


def test_prr_decreases_as_collisions_grow():
    p = SpsParams(rri=0.05, num_subchannels=2)
    vals = [packet_reception_ratio(0, p, [4, w]) for w in (0, 5, 10, 15)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@given(st.lists(st.integers(0, 15), min_size=1, max_size=5))
def test_prr_in_unit_interval(ws):
    p = SpsParams(rri=0.1, num_subchannels=2)
    assert 0.0 <= packet_reception_ratio(0, p, ws) <= 1.0


def test_prr_matches_reference():
    p = SpsParams(rri=0.05, num_subchannels=2, packet_rate=20.0)
    ws = [3, 7, 11, 15]
    expected = 1.0
    for j in (1, 2, 3):
        expected *= (1.0 - delta_ref(p, ws[0], ws[j])) * (1.0 - 0.02)
    assert packet_reception_ratio(0, p, ws) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# broadcasting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", ["bounded-pool", "uniform-selection"])
def test_collision_probability_broadcasts_over_window_grid(model):
    p = SpsParams(rri=0.05, num_subchannels=2, collision_model=model)
    w = np.arange(16)
    grid = collision_probability(p, w[:, None], w[None, :])
    assert grid.shape == (16, 16)
    expected = np.array([[delta_ref(p, wi, wj) for wj in range(16)]
                         for wi in range(16)])
    np.testing.assert_allclose(grid, expected, rtol=1e-12)


def test_broadcast_domain_checks_cover_every_element():
    """Each check fires at (w, w), alone and as the one pair out of the
    domain in an array that starts in it at (0, 0)."""
    cases = [
        (SpsParams(), -1, ValueError, "windows must be >= 0"),
        (SpsParams(), 30, ModelDomainError, "span 61.0 exceeds the 50-slot"),
        (SpsParams(rri=0.1), 40, ModelDomainError, "exceed the pool N_r"),
        (SpsParams(candidate_fraction=0.01), 15, ModelDomainError,
         "sps.candidate_fraction"),
    ]
    for params, w, error, match in cases:
        with pytest.raises(error, match=match):
            collision_probability(params, w, w)
        pair = np.array([0, w])
        with pytest.raises(error, match=match):
            collision_probability(params, pair, pair)
        assert 0.0 < collision_probability(params, 0, 0) < 1.0
    with pytest.raises(ModelDomainError):
        collision_probability(SpsParams(), np.array([[0], [40]]), np.array([[0, 15]]))


# ---------------------------------------------------------------------------
# fairness indices
# ---------------------------------------------------------------------------


# the scenario's geometry; FairnessInputs has no defaults of its own
GEOMETRY = dict(rsu_position=ScenarioConfig().rsu_position,
                coverage_range=ScenarioConfig().coverage_range)


def unit_snr_channel():
    return ChannelParams(tx_power=1.0, noise_power=1.0, path_loss_exponent=0.0)


def vehicle_index(inputs: FairnessInputs, windows, i: int) -> float:
    return float(fairness_indices([windows], inputs)[1][0, i])


def network_index(inputs: FairnessInputs, windows) -> float:
    return float(fairness_indices([windows], inputs)[0][0])


def test_fairness_single_vehicle_unit_case():
    fi = FairnessInputs(channel=unit_snr_channel(), sps=SpsParams(),
                        speeds=(1.0,), **GEOMETRY)
    assert vehicle_index(fi, (8,), 0) == pytest.approx(1.0)
    assert network_index(fi, (8,)) == pytest.approx(1.0)


def test_fairness_halves_when_speed_doubles():
    p = SpsParams()
    for v in (5.0, 20.0, 25.0):
        a = FairnessInputs(channel=unit_snr_channel(), sps=p, speeds=(v, 24.0),
                           **GEOMETRY)
        b = replace(a, speeds=(2 * v, 24.0))
        assert vehicle_index(b, (8, 8), 0) == pytest.approx(
            vehicle_index(a, (8, 8), 0) / 2.0)


@given(st.floats(20.0, 29.0), st.floats(0.1, 5.0))
def test_fairness_decreasing_in_speed(v, dv):
    a = FairnessInputs(channel=ChannelParams(), sps=SpsParams(),
                       speeds=(v, 24.0), **GEOMETRY)
    b = replace(a, speeds=(v + dv, 24.0))
    assert vehicle_index(b, (8, 8), 0) < vehicle_index(a, (8, 8), 0)


def test_fairness_nonincreasing_in_neighbour_window():
    fi = FairnessInputs(channel=ChannelParams(), sps=SpsParams(),
                        speeds=(24.0, 26.0), **GEOMETRY)
    assert vehicle_index(fi, (8, 14), 0) < vehicle_index(fi, (8, 2), 0)


def test_network_index_matches_homogeneous_vehicles():
    fi = FairnessInputs(channel=ChannelParams(), sps=SpsParams(),
                        speeds=(25.0,) * 4, **GEOMETRY)
    k_net, k_i = fairness_indices([(9,) * 4], fi)
    np.testing.assert_allclose(k_i[0], k_net[0], rtol=1e-12)


def test_network_index_between_homogeneous_substitutions():
    fi = FairnessInputs(channel=ChannelParams(), sps=SpsParams(),
                        speeds=(22.0, 24.0, 26.0, 28.0), **GEOMETRY)
    windows = (3, 7, 11, 15)
    k_net = network_index(fi, windows)
    homogeneous = []
    for v, w in zip(fi.speeds, windows):
        sub = replace(fi, speeds=(v,) * 4)
        homogeneous.append(network_index(sub, (w,) * 4))
    assert min(homogeneous) <= k_net <= max(homogeneous)


def common_numerators(quotients, divisors) -> list[float]:
    """Floats c near quotients[0] * divisors[0] with c / d == q for every pair."""
    c = lo = hi = float(quotients[0] * divisors[0])
    candidates = [c]
    for _ in range(8):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        candidates += [lo, hi]
    return [c for c in candidates
            if all(c / d == q for q, d in zip(quotients, divisors))]


def test_every_lane_reads_one_link_rate_off_centre():
    """With equal windows each index is one numerator over its own speed.

    Equal windows give every lane the same survival product, so with one
    link rate kappa each K_index^i is c / v_i for one float c, bit for bit.
    With two lanes the network term's (1 - delta)^(N-1) is that same
    product, so K_index is c / v_bar too.  The RSU sits off the segment's
    centre and the SNR is near 1 there, where the last bits of a per-lane
    mid-pass distance would reach kappa.
    """
    channel = ChannelParams(noise_power=1e-5)
    geometry = dict(rsu_position=(100.0, 40.0, 12.0), coverage_range=900.0)
    for v_bar in (23.0, 24.0, 25.0, 26.0, 27.0):
        for speeds in ((v_bar - 3, v_bar - 1, v_bar + 1, v_bar + 3),
                       (v_bar - 1, v_bar + 1)):
            fi = FairnessInputs(channel=channel, sps=SpsParams(), speeds=speeds,
                                **geometry)
            windows = np.repeat(np.arange(16)[:, None], len(speeds), axis=1)
            k_net, k_i = fairness_indices(windows, fi)
            for m in range(16):
                quotients, divisors = list(k_i[m]), list(speeds)
                if len(speeds) == 2:
                    quotients.append(k_net[m])
                    divisors.append(v_bar)
                assert common_numerators(quotients, divisors), (speeds, m)


# ---------------------------------------------------------------------------
# objective vector
# ---------------------------------------------------------------------------


def four_lane_inputs(model="bounded-pool"):
    return FairnessInputs(channel=ChannelParams(),
                          sps=SpsParams(collision_model=model),
                          speeds=(22.0, 24.0, 26.0, 28.0), **GEOMETRY)


def objective_row(w, inputs: FairnessInputs) -> np.ndarray:
    return objective_batch([w], inputs)[0]


def test_objective_vector_zero_for_homogeneous_network():
    fi = FairnessInputs(channel=ChannelParams(), sps=SpsParams(),
                        speeds=(25.0,) * 4, **GEOMETRY)
    np.testing.assert_allclose(objective_row([6] * 4, fi), 0.0, atol=1e-15)


def test_objective_vector_permutation_symmetry():
    fi = four_lane_inputs()
    w = [2, 9, 5, 13]
    base = objective_row(w, fi)
    perm = [2, 0, 3, 1]
    fi_p = replace(fi, speeds=tuple(fi.speeds[p] for p in perm))
    permuted = objective_row([w[p] for p in perm], fi_p)
    np.testing.assert_allclose(permuted, base[perm], rtol=1e-12)


def test_objective_vector_nonnegative_finite():
    fi = four_lane_inputs()
    out = objective_row([0, 5, 10, 15], fi)
    assert np.all(out >= 0.0) and np.all(np.isfinite(out))
    assert out.sum() > 0.0


def test_objective_vector_rejects_out_of_bounds():
    fi = four_lane_inputs()
    with pytest.raises(ValueError):
        objective_row([0, 5, 10, 16], fi)
    with pytest.raises(ValueError):
        objective_row([0, 5, 10], fi)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 15), min_size=4, max_size=4),
       st.sampled_from(["bounded-pool", "uniform-selection"]))
def test_objective_vector_matches_reference_implementation(w, model):
    """Cross-check against the plain-loop re-implementation of the Eq. chain."""
    fi = four_lane_inputs(model=model)
    np.testing.assert_allclose(objective_row(w, fi), objective_ref(w, fi),
                               rtol=1e-12, atol=1e-15)


def test_objective_batch_matches_scalar_path():
    batch = np.random.default_rng(7).integers(0, 16, size=(64, 4))
    for model in ("bounded-pool", "uniform-selection"):
        fi = four_lane_inputs(model=model)
        vec = objective_batch(batch, fi)
        scal = np.array([objective_ref(row, fi) for row in batch])
        np.testing.assert_allclose(vec, scal, rtol=1e-12, atol=1e-16)


def reference_fairness_indices(windows, inputs: FairnessInputs):
    """The broadcast chain `fairness_indices` ran before its tables: the
    whole collision chain on (M, N, N) float windows at every call."""
    w = np.asarray(windows).astype(float)
    n = inputs.num_vehicles
    off_diag = 1.0 - collision_probability(inputs.sps, w[:, :, None], w[:, None, :])
    idx = np.arange(n)
    off_diag[:, idx, idx] = 1.0
    k_i = inputs.kappa * off_diag.prod(axis=-1) / np.asarray(inputs.speeds, dtype=float)
    w_bar = w.mean(axis=1)
    delta_net = collision_probability(inputs.sps, w_bar, w_bar)
    k_net = inputs.kappa * (1.0 - delta_net) ** (n - 1) / inputs.mean_speed
    return k_net, k_i


def assert_tables_match_the_chain(windows, inputs: FairnessInputs):
    k_net, k_i = reference_fairness_indices(windows, inputs)
    got_net, got_i = fairness_indices(windows, inputs)
    assert got_net.tobytes() == k_net.tobytes()
    assert got_i.tobytes() == k_i.tobytes()
    assert (objective_batch(windows, inputs).tobytes()
            == np.abs(k_net[:, None] - k_i).tobytes())


@pytest.mark.parametrize("model", COLLISION_MODELS)
@pytest.mark.parametrize("speeds", [(22.0, 24.0, 26.0, 28.0),
                                    (20.0, 30.0, 25.0, 21.5)])
def test_objective_batch_is_the_broadcast_chain_bit_for_bit(model, speeds):
    fi = FairnessInputs(channel=ChannelParams(),
                        sps=SpsParams(collision_model=model), speeds=speeds,
                        **GEOMETRY)
    assert_tables_match_the_chain(window_grid((0, 15), 4), fi)


@pytest.mark.parametrize("speeds, bounds", [((25.0,), (0, 15)),
                                            ((21.0, 25.0, 29.0), (3, 12)),
                                            ((20.0, 22.5, 25.0, 27.5, 30.0), (2, 7))])
@pytest.mark.parametrize("model", COLLISION_MODELS)
def test_tables_match_the_chain_off_the_default_grid(speeds, bounds, model):
    fi = FairnessInputs(channel=ChannelParams(),
                        sps=SpsParams(collision_model=model, window_bounds=bounds,
                                      selection_window=bounds[1]),
                        speeds=speeds, **GEOMETRY)
    assert_tables_match_the_chain(window_grid(bounds, len(speeds)), fi)


def test_tables_are_read_only_and_scoring_leaves_them_unchanged():
    fi = four_lane_inputs()
    survival, network = fi.survival.copy(), fi.network.copy()
    objective_batch(window_grid((0, 15), 4)[::97], fi)
    assert not fi.survival.flags.writeable and not fi.network.flags.writeable
    assert fi.survival.tobytes() == survival.tobytes()
    assert fi.network.tobytes() == network.tobytes()
    assert fi.survival.shape == (16, 16) and fi.network.shape == (61,)
    assert np.all(np.diag(fi.survival) < 1.0)


@pytest.mark.parametrize("sps, digest", [
    (DEFAULT_SPS,
     "43eb5e725ce51b80ca6ba09b4ce5a32d5655e27103a26cfcc4a2964c4bb41902"),
    (replace(DEFAULT_SPS, collision_model="uniform-selection"),
     "032396ffacf0c051290b703eee5b10e3d043f2849c9de9b89ff098c2513e69c2"),
    (replace(DEFAULT_SPS, rri=0.1, num_subchannels=4, window_bounds=(3, 12),
             selection_window=12, candidate_fraction=0.2),
     "0ea09cd3ef1c66058e9944f6e9595d46f2c5f9c9c6d78885e978ab9ab6545f49"),
], ids=["bounded-pool", "uniform-selection", "rri0.1-nsc4-bounds3-12"])
def test_table_bytes_are_pinned(sps, digest):
    """The tables' bytes at the scenario's lane speeds, so a change in the
    collision chain's float order shows at configs the CSVs do not reach."""
    fi = FairnessInputs(channel=ChannelParams(), sps=sps,
                        speeds=ScenarioConfig().lane_speeds, **GEOMETRY)
    assert hashlib.sha256(fi.survival.tobytes()
                          + fi.network.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("windows", [[[8.5, 8.0]], np.array([[8.0, 8.0]])])
def test_fairness_indices_rejects_non_integer_windows(windows):
    fi = FairnessInputs(channel=ChannelParams(), sps=SpsParams(),
                        speeds=(24.0, 26.0), **GEOMETRY)
    with pytest.raises(ValueError, match="integers"):
        fairness_indices(windows, fi)


def test_any_in_bounds_pair_outside_the_model_domain_fails_the_first_call():
    """20 slots per RRI hold windows up to a combined span of 20; bounds
    [0, 15] allow 31, so even an in-domain vector fails when the table is
    built."""
    fi = FairnessInputs(channel=ChannelParams(), sps=SpsParams(rri=0.02),
                        speeds=(24.0, 26.0), **GEOMETRY)
    with pytest.raises(ModelDomainError, match="span 31.0 exceeds the 20-slot"):
        fairness_indices([(3, 3)], fi)


def test_objective_batch_shape_validation():
    fi = four_lane_inputs()
    with pytest.raises(ValueError):
        objective_batch(np.zeros((3, 5), dtype=int), fi)
    with pytest.raises(ValueError):
        objective_batch(np.full((3, 4), 99), fi)


def test_fairness_inputs_validation():
    with pytest.raises(ConfigError, match="speeds"):
        FairnessInputs(channel=ChannelParams(), sps=SpsParams(), speeds=(),
                       **GEOMETRY)
