import json

import pytest
import yaml

from v2i_fairness.cli import main

TINY_DOC = {
    "scenario": {"lane_speeds": [24.0, 26.0]},
    "sps": {"window_bounds": [0, 3], "selection_window": 3},
    "ga": {"population_size": 8, "max_generations": 3},
    "sweep": [25.0],
    "baseline_window": 2,
    "seed": 3,
}


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY_DOC), encoding="utf-8")
    return path


def test_validate_config_echoes_and_exits_zero(tiny_file, capsys):
    assert main(["validate-config", "--config", str(tiny_file)]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("config ok")
    effective = yaml.safe_load(out[:out.rindex("config ok")])
    assert effective["ga"]["population_size"] == 8
    assert effective["sps"]["candidate_fraction"] == 0.1   # defaulted


def test_validate_config_without_file_uses_builtin_defaults(capsys):
    assert main(["validate-config"]) == 0
    effective = yaml.safe_load(
        capsys.readouterr().out.replace("config ok", ""))
    assert effective["seed"] == 1


def test_bad_config_exits_2_with_json_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("sps:\n  window_bounds: [9, 3]\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert "window_bounds" in payload["key"]


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["validate-config", "--config", str(tmp_path / "nope.yaml")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert "no such file" in payload["message"]


def test_fig4_writes_csv_and_manifest(tiny_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["fig4", "--config", str(tiny_file), "--out", str(out)]) == 0
    assert (out / "fig4_optimal_windows.csv").exists()
    manifest = yaml.safe_load(
        (out / "fig4_manifest.yaml").read_text(encoding="utf-8"))
    assert manifest["seed"] == 3
    assert manifest["config"]["output_dir"] == str(out)
    assert "wrote" in capsys.readouterr().out


def test_fig4_rerun_from_manifest_is_byte_identical(tiny_file, tmp_path):
    out = tmp_path / "run"
    assert main(["fig4", "--config", str(tiny_file), "--out", str(out)]) == 0
    first = (out / "fig4_optimal_windows.csv").read_bytes()
    assert main(["fig4", "--config", str(out / "fig4_manifest.yaml")]) == 0
    assert (out / "fig4_optimal_windows.csv").read_bytes() == first


def test_seed_override_lands_in_manifest(tiny_file, tmp_path):
    out = tmp_path / "run"
    assert main(["fig4", "--config", str(tiny_file), "--out", str(out),
                 "--seed", "11"]) == 0
    manifest = yaml.safe_load(
        (out / "fig4_manifest.yaml").read_text(encoding="utf-8"))
    assert manifest["seed"] == 11
    assert manifest["config"]["seed"] == 11


def test_fig5_and_fig3_verbs_run(tiny_file, tmp_path):
    out = tmp_path / "run"
    assert main(["fig5", "--config", str(tiny_file), "--out", str(out)]) == 0
    assert main(["fig3", "--config", str(tiny_file), "--out", str(out)]) == 0
    assert (out / "fig5_objective_sums.csv").exists()
    assert (out / "fig3_metrics.csv").exists()
    assert (out / "nsga2_history.csv").exists()


def test_oracle_verb_quick_budget(tiny_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["oracle", "--config", str(tiny_file), "--out", str(out),
                 "--events", "20000", "--episodes", "500"])
    assert code == 0
    assert (out / "oracle_report.csv").exists()
    assert "forced-collision" in capsys.readouterr().out


@pytest.mark.parametrize("flag, key", [("--events", "oracle.events"),
                                       ("--episodes", "oracle.episodes")])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_oracle_rejects_budget_below_one_before_writing(tmp_path, capsys,
                                                       flag, key, value):
    out = tmp_path / "run"
    out.mkdir()
    assert main(["oracle", "--out", str(out), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err.strip())
    assert payload["error"] == "ConfigError"
    assert payload["key"] == key
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("verb", ["validate-config", "fig3", "fig4"])
def test_a_window_grid_past_the_limit_exits_2_before_writing(tmp_path, capsys,
                                                             verb):
    path = tmp_path / "six_lanes.yaml"
    path.write_text(yaml.safe_dump({
        "scenario": {"lane_speeds": [20.0, 22.0, 24.0, 26.0, 28.0, 30.0]},
        "ga": {"population_size": 8, "max_generations": 1},
        "sweep": [25.0],
    }), encoding="utf-8")
    out = tmp_path / "run"
    out.mkdir()
    assert main([verb, "--config", str(path), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["key"] == "sps.window_bounds"
    assert "16777216" in payload["message"]
    assert "6 lanes" in payload["message"]
    assert list(out.iterdir()) == []


def test_fig4_with_a_negative_seed_exits_2_naming_the_seed(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["fig4", "--seed", "-1", "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert payload["key"] == "seed"
    assert not out.exists()


def test_fig4_outside_the_model_domain_exits_1_naming_the_span(tmp_path, capsys):
    """20 slots per RRI cannot hold two windows of 15; the objective's
    tables check every in-bounds pair before the GA starts."""
    path = tmp_path / "short_rri.yaml"
    path.write_text("sps:\n  rri: 0.02\n", encoding="utf-8")
    assert main(["fig4", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {
        "error": "ModelDomainError",
        "message": "combined window span 31.0 exceeds the 20-slot reservation period"}


def test_unknown_verb_raises_system_exit():
    with pytest.raises(SystemExit):
        main(["plot-everything"])


def test_validate_config_rejects_a_0_2_0_manifest(tmp_path, capsys):
    doc = {"artifact_version": "0.2.0", "seed": 1,
           "config": {"scenario": {"arrival_rate": 0.1}}}
    path = tmp_path / "old_manifest.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate-config", "--config", str(path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["key"] == "scenario.arrival_rate"


def test_validate_config_rejects_a_non_integer_window(tmp_path, capsys):
    path = tmp_path / "float_window.yaml"
    path.write_text("baseline_window: 15.0\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["key"] == "baseline_window"


@pytest.mark.parametrize("line, key", [
    ("sps: {sensing_window: .nan}", "sps.sensing_window"),
    ("sps: {selection_window: 4.5}", "sps.selection_window"),
    ("sps: {rc_range: [1.5, 3]}", "sps.rc_range"),
])
def test_validate_config_rejects_an_sps_value_the_simulator_cannot_run(
        tmp_path, capsys, line, key):
    path = tmp_path / "bad_sps.yaml"
    path.write_text(line + "\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["key"] == key
