import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from v2i_fairness.errors import ConfigError
from v2i_fairness.scenario import ScenarioConfig, distance_to_rsu, vehicle_position


@pytest.mark.parametrize("speed, t, expected", [
    (25.0, 0.0, (0.0, 0.0, 0.0)),
    (25.0, 2.0, (50.0, 0.0, 0.0)),
    (20.0, 10.0, (200.0, 0.0, 0.0)),
])
def test_vehicle_position_values(speed, t, expected):
    np.testing.assert_allclose(vehicle_position(speed, t), expected)


def test_vehicle_position_rejects_negative_time():
    with pytest.raises(ValueError):
        vehicle_position(25.0, -0.1)


@pytest.mark.parametrize("a, b, expected", [
    ((0, 0, 0), (0, 0, 0), 0.0),
    ((3, 4, 0), (0, 0, 0), 5.0),
    ((250, 0, 0), (250, 10, 5), np.sqrt(125.0)),
])
def test_distance_to_rsu_values(a, b, expected):
    assert distance_to_rsu(np.array(a, dtype=float), b) == pytest.approx(expected)


coords = st.floats(-1e3, 1e3, allow_nan=False)
points = st.tuples(coords, coords, coords)


@given(points, points)
def test_distance_symmetric_nonnegative(a, b):
    d_ab = distance_to_rsu(np.array(a), b)
    d_ba = distance_to_rsu(np.array(b), a)
    assert d_ab == pytest.approx(d_ba)
    assert d_ab >= 0.0


@given(points, points, points)
def test_distance_triangle_inequality(a, b, c):
    d_ac = distance_to_rsu(np.array(a), c)
    d_ab = distance_to_rsu(np.array(a), b)
    d_bc = distance_to_rsu(np.array(b), c)
    assert d_ac <= d_ab + d_bc + 1e-9


class TestScenarioConfig:
    def test_defaults_valid(self):
        cfg = ScenarioConfig()
        assert cfg.num_lanes == 4
        assert cfg.mean_speed == pytest.approx(25.0)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ConfigError, match="coverage_range"):
            ScenarioConfig(coverage_range=0.0)

    def test_rejects_out_of_band_speed(self):
        with pytest.raises(ConfigError, match="lane_speeds"):
            ScenarioConfig(lane_speeds=(19.0, 22.0, 26.0, 28.0))

    def test_rejects_wide_adjacent_gap(self):
        with pytest.raises(ConfigError, match="adjacent"):
            ScenarioConfig(lane_speeds=(20.0, 25.0, 28.0, 30.0))
