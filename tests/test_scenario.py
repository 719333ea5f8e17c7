import pytest

from v2i_fairness.errors import ConfigError
from v2i_fairness.scenario import ScenarioConfig


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
