from pathlib import Path

import pytest
import yaml

from v2i_fairness.config import (
    ARTIFACT_VERSION,
    MAX_GRID_VECTORS,
    ExperimentConfig,
    effective_dict,
    load_config,
    serialize,
    write_manifest,
)
from v2i_fairness.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_yaml(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def test_defaults_construct_and_validate():
    config = ExperimentConfig()
    assert config.sweep == (23.0, 24.0, 25.0, 26.0, 27.0)
    assert config.sps.candidate_fraction == pytest.approx(0.1)
    assert config.ga.population_size == 300
    assert config.baseline_window == 15


def test_shipped_default_file_matches_builtin_defaults():
    path = REPO_ROOT / "configs" / "default.yaml"
    assert load_config(path) == ExperimentConfig()
    # the file documents every knob: it names exactly the effective keys
    shipped = yaml.safe_load(path.read_text(encoding="utf-8"))
    builtin = effective_dict(ExperimentConfig())
    assert shipped.keys() == builtin.keys()
    for name, section in builtin.items():
        if isinstance(section, dict):
            assert shipped[name].keys() == section.keys(), name


def test_empty_file_yields_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("", encoding="utf-8")
    assert load_config(path) == ExperimentConfig()


def test_load_serialize_load_is_idempotent(tmp_path):
    first = load_config(REPO_ROOT / "configs" / "default.yaml")
    path = tmp_path / "echo.yaml"
    path.write_text(serialize(first), encoding="utf-8")
    assert load_config(path) == first


def test_partial_section_overlays_experiment_defaults(tmp_path):
    path = write_yaml(tmp_path, {"ga": {"max_generations": 7}})
    config = load_config(path)
    assert config.ga.max_generations == 7
    # untouched keys keep the experiment-level defaults, not bare class ones
    assert config.ga.population_size == 300
    assert config.sps.candidate_fraction == pytest.approx(0.1)


def test_partial_top_level_override(tmp_path):
    path = write_yaml(tmp_path, {"seed": 9, "output_dir": "elsewhere"})
    config = load_config(path)
    assert config.seed == 9
    assert config.output_dir == "elsewhere"
    assert config.scenario == ExperimentConfig().scenario


@pytest.mark.parametrize("doc, key_fragment", [
    ({"bogus": 1}, "bogus"),
    ({"sps": {"bogus": 1}}, "sps.bogus"),
    ({"ga": {"rng_seed": 4}}, "ga.rng_seed"),
    ({"sps": {"window_bounds": [9, 3]}}, "window_bounds"),
    ({"baseline_window": 99}, "baseline_window"),
    ({"sweep": []}, "sweep"),
    ({"sweep": [40.0]}, "sweep"),
    ({"sweep": "fast"}, "sweep"),
    ({"scenario": 3}, "scenario"),
    ({"seed": "one"}, "seed"),
    ({"output_dir": ""}, "output_dir"),
    ({"baseline_window": 15.0}, "baseline_window"),
    ({"sps": {"window_bounds": [0, 15.0]}}, "sps.window_bounds"),
    ({"ga": {"population_size": 300.0}}, "ga.population_size"),
    ({"ga": {"max_generations": 2.0}}, "ga.max_generations"),
    ({"seed": -1}, "seed"),
    ({"sps": {"sensing_window": float("nan")}}, "sps.sensing_window"),
    ({"sps": {"sensing_window": float("inf")}}, "sps.sensing_window"),
    ({"sps": {"selection_window": 4.5}}, "sps.selection_window"),
    ({"sps": {"selection_window": True}}, "sps.selection_window"),
    ({"sps": {"rc_range": [1.5, 3]}}, "sps.rc_range"),
    ({"sps": {"rc_range": [1, 3.0]}}, "sps.rc_range"),
    ({"sps": {"rc_range": [True, 3]}}, "sps.rc_range"),
    ({"sps": {"num_subchannels": 2.0}}, "sps.num_subchannels"),
    ({"sps": {"numerology": True}}, "sps.numerology"),
    ({"sps": {"window_bounds": [False, 15]}}, "sps.window_bounds"),
    ({"baseline_window": True}, "baseline_window"),
    ({"ga": {"max_generations": True}}, "ga.max_generations"),
    ({"sps": {"rri": float("inf")}}, "sps.rri"),
    ({"sps": {"rri": float("nan")}}, "sps.rri"),
    ({"ga": {"threshold": float("nan")}}, "ga.threshold"),
    ({"sweep": [float("nan")]}, "sweep"),
    ({"channel": {"tx_power": float("inf")}}, "channel.tx_power"),
    ({"channel": {"noise_power": float("inf")}}, "channel.noise_power"),
    ({"channel": {"path_loss_exponent": float("nan")}},
     "channel.path_loss_exponent"),
    ({"scenario": {"coverage_range": float("inf")}}, "scenario.coverage_range"),
    ({"scenario": {"rsu_position": [250.0, float("nan"), 5.0]}},
     "scenario.rsu_position"),
])
def test_invalid_configs_name_the_offending_key(tmp_path, doc, key_fragment):
    path = write_yaml(tmp_path, doc)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert key_fragment in str(err.value)


def test_a_window_grid_of_exactly_the_limit_loads(tmp_path):
    path = write_yaml(tmp_path, {
        "scenario": {"lane_speeds": [21.0, 23.0, 25.0, 27.0, 29.0]},
        "sweep": [25.0]})
    config = load_config(path)
    assert 16 ** config.scenario.num_lanes == MAX_GRID_VECTORS


def test_sweep_checks_constructed_lane_speeds(tmp_path):
    # 28 m/s average is inside [20, 30] but the +3 lane would sit at 31
    path = write_yaml(tmp_path, {"sweep": [28.0]})
    with pytest.raises(ConfigError, match="sweep"):
        load_config(path)


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="no such file"):
        load_config(tmp_path / "absent.yaml")


def test_unparseable_yaml_raises_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("sps: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError, match="config"):
        load_config(path)


def test_speed_offsets_and_lane_speeds_at():
    config = ExperimentConfig()
    assert config.speed_offsets == (-3.0, -1.0, 1.0, 3.0)
    assert config.lane_speeds_at(24.0) == (21.0, 23.0, 25.0, 27.0)


def test_effective_dict_has_every_key_and_no_tuples():
    doc = effective_dict(ExperimentConfig())
    assert set(doc) == {"scenario", "channel", "sps", "ga",
                        "sweep", "baseline_window", "output_dir", "seed"}
    assert isinstance(doc["sps"]["window_bounds"], list)
    assert "rng_seed" not in doc["ga"]


def test_manifest_round_trip(tmp_path):
    config = ExperimentConfig(seed=5, output_dir=str(tmp_path))
    path = write_manifest(config, tmp_path / "manifest.yaml")
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    assert doc["artifact_version"] == ARTIFACT_VERSION
    assert doc["seed"] == 5
    assert load_config(path) == config


def test_manifest_seed_overrides_embedded_config(tmp_path):
    doc = {
        "artifact_version": ARTIFACT_VERSION,
        "seed": 42,
        "config": effective_dict(ExperimentConfig(seed=5)),
    }
    path = write_yaml(tmp_path, doc, name="manifest.yaml")
    assert load_config(path).seed == 42


def test_manifest_without_config_section_fails(tmp_path):
    path = write_yaml(tmp_path, {"artifact_version": ARTIFACT_VERSION})
    with pytest.raises(ConfigError, match="manifest"):
        load_config(path)


def test_manifest_writes_are_atomic(tmp_path):
    write_manifest(ExperimentConfig(), tmp_path / "m.yaml")
    assert not list(tmp_path.glob("*.tmp"))


def old_manifest_loads_without_the_overrides(tmp_path, version, seed):
    """A manifest of `version` exits on the sps overrides it lists, and
    loads to its configuration once they are dropped: the version stamp
    itself gates nothing."""
    config = ExperimentConfig(seed=seed)
    inner = effective_dict(config)
    inner["sps"].update(c_ca=None, n_r=None, n_ca=None)
    doc = {"artifact_version": version, "seed": seed, "config": inner}
    path = write_yaml(tmp_path, doc, name="manifest.yaml")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "sps.c_ca"
    for key in ("c_ca", "n_r", "n_ca"):
        del inner["sps"][key]
    path = write_yaml(tmp_path, doc, name="manifest.yaml")
    assert load_config(path) == config


def test_0_3_0_manifest_still_loads(tmp_path):
    # 0.4.0 changed fig3's reference front but no configuration key
    old_manifest_loads_without_the_overrides(tmp_path, "0.3.0", 7)


def test_0_4_0_manifest_still_loads(tmp_path):
    # 0.5.0 changed the simulator's random stream but no configuration key
    old_manifest_loads_without_the_overrides(tmp_path, "0.4.0", 3)


def test_0_5_0_manifest_still_loads(tmp_path):
    # 0.6.0 changed the GA's random stream but no configuration key
    old_manifest_loads_without_the_overrides(tmp_path, "0.5.0", 4)


def test_0_6_0_manifest_with_removed_keys_is_rejected(tmp_path):
    # manifests up to 0.6.0 list the collision overrides that 0.7.0 removed
    config = effective_dict(ExperimentConfig())
    config["sps"].update(c_ca=None, n_r=None, n_ca=None)
    doc = {"artifact_version": "0.6.0", "seed": 1, "config": config}
    path = write_yaml(tmp_path, doc, name="manifest.yaml")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "sps.c_ca"


def test_0_2_0_manifest_with_removed_keys_is_rejected(tmp_path):
    # 0.2.0 manifests list the scenario/channel keys that 0.3.0 removed
    config = effective_dict(ExperimentConfig())
    config["scenario"].update(arrival_rate=0.1, lane_offsets=None,
                              lane_directions=None)
    config["channel"].update(bandwidth=1e6, wavelength=0.0508,
                             angle_cos=1.0, step_interval=0.001)
    doc = {"artifact_version": "0.2.0", "seed": 1, "config": config}
    path = write_yaml(tmp_path, doc, name="manifest.yaml")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "scenario.arrival_rate"


@pytest.mark.parametrize("section, key", [
    ("scenario", "arrival_rate"), ("scenario", "lane_offsets"),
    ("scenario", "lane_directions"), ("channel", "bandwidth"),
    ("channel", "wavelength"), ("channel", "angle_cos"),
    ("channel", "step_interval"), ("sps", "c_ca"), ("sps", "n_r"),
    ("sps", "n_ca"),
])
def test_removed_keys_are_unknown(tmp_path, section, key):
    path = write_yaml(tmp_path, {section: {key: 1.0}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == f"{section}.{key}"
