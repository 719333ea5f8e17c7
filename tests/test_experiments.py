import csv
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import exhaustive_optima, window_grid
from test_moo_metrics import loop_nondominated
from v2i_fairness import experiments
from v2i_fairness.channel import ChannelParams
from v2i_fairness.config import DEFAULT_GA, DEFAULT_SPS, ExperimentConfig
from v2i_fairness.experiments import (
    exact_front,
    fairness_inputs,
    optimize_point,
    point_seed,
    resolve_threshold,
    run_fig3_metrics,
    run_fig4_sweep,
    run_fig5_comparison,
    run_oracle_validation,
)
from v2i_fairness.scenario import ScenarioConfig
from v2i_fairness.sps_analytics import FairnessInputs, fairness_indices, objective_batch


def tiny_config(**overrides) -> ExperimentConfig:
    """Two lanes, tiny GA: full runner paths in well under a second."""
    base = dict(
        scenario=ScenarioConfig(lane_speeds=(24.0, 26.0)),
        sps=replace(DEFAULT_SPS, window_bounds=(0, 3), selection_window=3),
        ga=replace(DEFAULT_GA, population_size=8, max_generations=3),
        sweep=(25.0,),
        baseline_window=2,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_point_seed_deterministic_and_distinct():
    assert point_seed(1, 0) == point_seed(1, 0)
    seeds = {point_seed(1, k) for k in range(20)} | {point_seed(2, 0)}
    assert len(seeds) == 21


def test_fairness_inputs_carry_scenario_geometry():
    scenario = ScenarioConfig(coverage_range=400.0,
                              lane_speeds=(24.0, 26.0),
                              rsu_position=(200.0, 8.0, 4.0))
    config = tiny_config(scenario=scenario)
    inputs = fairness_inputs(config, (24.0, 26.0))
    assert inputs.coverage_range == 400.0
    assert inputs.rsu_position == (200.0, 8.0, 4.0)
    assert inputs.speeds == (24.0, 26.0)


def test_resolve_threshold_anchors_at_mid_bound_window():
    config = tiny_config()
    inputs = fairness_inputs(config, config.lane_speeds_at(25.0))
    mid = sum(config.sps.window_bounds) // 2
    k_net, _ = fairness_indices(
        [(mid,) * 2],
        FairnessInputs(channel=config.channel, sps=config.sps,
                       speeds=inputs.speeds,
                       rsu_position=inputs.rsu_position,
                       coverage_range=inputs.coverage_range))
    assert resolve_threshold(config, inputs) == pytest.approx(
        config.ga.threshold * k_net[0])


def test_channel_and_geometry_keys_leave_the_exact_optimum_unchanged():
    # every lane shares one link rate, so these keys only rescale the objectives
    default = ExperimentConfig()
    variants = {
        "default": default,
        "channel": replace(default, channel=ChannelParams(
            tx_power=0.2, noise_power=0.05, path_loss_exponent=3.5)),
        "geometry": replace(default, scenario=replace(
            default.scenario, coverage_range=900.0,
            rsu_position=(100.0, 40.0, 12.0))),
    }
    expected = [((15, 13, 11, 9), 5437), ((15, 12, 10, 8), 6377),
                ((15, 12, 10, 8), 7381), ((15, 12, 10, 8), 8448),
                ((15, 12, 10, 8), 9531)]
    for name, config in variants.items():
        assert exhaustive_optima(config) == expected, name


def test_optimize_point_returns_consistent_optimum():
    config = tiny_config()
    opt = optimize_point(config, 25.0, 0)
    lb, ub = config.sps.window_bounds
    assert len(opt.windows) == 2
    assert all(lb <= w <= ub for w in opt.windows)
    assert opt.objective_sum == pytest.approx(sum(opt.objectives))
    assert isinstance(opt.feasible, bool)


def test_optimize_point_deterministic():
    config = tiny_config()
    first, second = (optimize_point(config, 25.0, 0) for _ in range(2))
    assert (first.windows, first.objective_sum, first.feasible) == \
        (second.windows, second.objective_sum, second.feasible)
    np.testing.assert_array_equal(first.objectives, second.objectives)


def test_fig4_rows_per_point_and_header(tmp_path):
    path = run_fig4_sweep(tiny_config(), tmp_path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "avg_speed,lane,optimal_window"
    rows = read_csv(path)
    assert len(rows) == 2          # one row per lane for the single point
    assert [r["lane"] for r in rows] == ["0", "1"]
    assert all(r["avg_speed"] == "25" for r in rows)


def test_fig4_rerun_is_byte_identical(tmp_path):
    first = run_fig4_sweep(tiny_config(), tmp_path / "a").read_bytes()
    second = run_fig4_sweep(tiny_config(), tmp_path / "b").read_bytes()
    assert first == second


def test_fig4_leaves_no_temp_files(tmp_path):
    run_fig4_sweep(tiny_config(), tmp_path)
    assert not list(tmp_path.glob("*.tmp"))


def test_fig4_failure_names_the_sweep_point(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise ValueError("boom")
    monkeypatch.setattr(experiments, "run", explode)
    with pytest.raises(RuntimeError, match="avg_speed=25.0"):
        run_fig4_sweep(tiny_config(), tmp_path)


@pytest.mark.parametrize("runner", [run_fig4_sweep, run_fig5_comparison])
def test_empty_threshold_filter_is_reported_per_point(runner, tmp_path, capsys):
    config = tiny_config(sweep=(24.0, 26.0))
    runner(config, tmp_path / "kept")
    assert capsys.readouterr().out == ""
    empty = tiny_config(sweep=(24.0, 26.0),
                        ga=replace(config.ga, threshold=1e-12))
    assert not any(optimize_point(empty, v, i).feasible
                   for i, v in enumerate(empty.sweep))
    path = runner(empty, tmp_path / "empty")
    assert capsys.readouterr().out.splitlines() == [
        f"avg_speed {v}: no individual met the threshold; reported the "
        f"unfiltered sum-minimiser" for v in ("24", "26")]
    assert len(read_csv(path)) == 4


def test_fig5_schema_and_schemes(tmp_path):
    path = run_fig5_comparison(tiny_config(), tmp_path)
    rows = read_csv(path)
    assert [r["scheme"] for r in rows] == ["optimal", "standard"]
    assert path.read_text(encoding="utf-8").splitlines()[0] == \
        "avg_speed,scheme,objective_sum"


def test_fig5_baseline_coinciding_with_optimum_gives_equal_sums(tmp_path):
    # a single-genome search space forces w* == baseline
    config = tiny_config(
        sps=replace(DEFAULT_SPS, window_bounds=(2, 2), selection_window=2),
        baseline_window=2)
    rows = read_csv(run_fig5_comparison(config, tmp_path))
    assert rows[0]["objective_sum"] == rows[1]["objective_sum"]


def test_fig3_emits_both_csvs(tmp_path):
    config = tiny_config()
    path = run_fig3_metrics(config, tmp_path)
    assert path.name == "fig3_metrics.csv"
    rows = read_csv(path)
    assert len(rows) == config.ga.max_generations
    assert list(rows[0]) == ["generation", "HV", "GD", "IGD", "spacing"]
    for row in rows:
        for column in ("HV", "GD", "IGD", "spacing"):
            assert np.isfinite(float(row[column]))

    history = read_csv(tmp_path / "nsga2_history.csv")
    assert list(history[0]) == ["generation", "HV", "IGD", "GD", "spacing",
                                "best_sum", "feasible_count"]
    assert len(history) == config.ga.max_generations


# Recorded at artifact version 0.6.0; the optimizer must keep reaching
# these answers.
PINNED_WINDOWS = [(15, 12, 9, 8), (15, 12, 11, 6), (14, 11, 8, 3),
                  (15, 11, 10, 8), (12, 12, 8, 7)]
PINNED_SUMS = [0.008293492471337302, 0.013533959906351173, 0.011510911499377025,
               0.006709792673384965, 0.01222997267691349]
PINNED_HV = [3.826789616560506e-07, 4.155391985127007e-07,
             4.195405288850924e-07, 4.0735321435204475e-07,
             4.22158590896382e-07]
# against the exact grid front
PINNED_GD = [0.0014063074231971796, 0.0011251357745001877, 0.001122202377624254,
             0.0012450895304385284, 0.0011927943039196102]
PINNED_IGD = [0.0004201292860178554, 0.0003775584953049776,
              0.0003823154217879238, 0.0004086144140281611,
              0.0003931058065402262]


def test_small_config_results_are_pinned(tmp_path, monkeypatch):
    config = ExperimentConfig(
        ga=replace(DEFAULT_GA, population_size=20, max_generations=5), seed=1)
    optima = [optimize_point(config, v, i) for i, v in enumerate(config.sweep)]
    assert [o.windows for o in optima] == PINNED_WINDOWS
    np.testing.assert_allclose([o.objective_sum for o in optima], PINNED_SUMS,
                               rtol=1e-12, atol=0)
    fig5 = read_csv(run_fig5_comparison(config, tmp_path))
    assert [r["objective_sum"] for r in fig5 if r["scheme"] == "optimal"] == \
        [format(x, ".12g") for x in PINNED_SUMS]
    history = []
    monkeypatch.setattr(experiments, "write_history",
                        lambda stats, path: history.extend(stats))
    run_fig3_metrics(config, tmp_path)
    np.testing.assert_allclose([s.hypervolume for s in history], PINNED_HV,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose([s.gd for s in history], PINNED_GD,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose([s.igd for s in history], PINNED_IGD,
                               rtol=1e-12, atol=0)


# Recorded at artifact version 0.6.0 before NSGA-II and the front metrics
# shared one sort-then-scan kernel: a 600-row merge crosses a scan block,
# which the population-20 pins above never reach.
PINNED_DIGESTS_300 = {
    "fig4_optimal_windows.csv":
        "dc2b53829c6f217d97224196c4cff7440f8d9fb48065d347a63bcd6ca81d3690",
    "fig5_objective_sums.csv":
        "c761e36641135a2e6996c3aa65695bb1126c8395e3d0598acbf37f3012cd2b73",
    "fig3_metrics.csv":
        "3ef0e9f528695116949f2096da085627287bd1fbd586e51de479f580df5ad043",
}


def test_population_300_csv_bytes_are_pinned(tmp_path):
    config = ExperimentConfig(
        ga=replace(DEFAULT_GA, population_size=300, max_generations=8), seed=1)
    paths = [verb(config, tmp_path) for verb in
             (run_fig4_sweep, run_fig5_comparison, run_fig3_metrics)]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths} == PINNED_DIGESTS_300


@pytest.mark.parametrize("lanes, stride", [(3, 31), (3, 10**6), (4, 31)])
def test_exact_front_matches_loop_over_the_whole_grid(lanes, stride, monkeypatch):
    """Exact whatever the sample (a stride past the grid samples one row),
    and no evaluator call sees more than one chunk of the grid."""
    monkeypatch.setattr(experiments, "_SAMPLE_STRIDE", stride)
    speeds = (22.0, 24.0, 26.0, 28.0)[:lanes]
    config = tiny_config(
        scenario=ScenarioConfig(lane_speeds=speeds),
        sps=replace(DEFAULT_SPS, window_bounds=(0, 7), selection_window=7))
    inputs = fairness_inputs(config, speeds)
    calls = []

    def evaluator(genomes):
        calls.append(len(genomes))
        return objective_batch(genomes, inputs)

    front = exact_front(evaluator, (0, 7), lanes)
    expected = loop_nondominated(objective_batch(window_grid((0, 7), lanes), inputs))
    np.testing.assert_array_equal(front, expected)
    assert max(calls) <= experiments._GRID_CHUNK
    assert sum(calls) == 8 ** lanes + len(range(0, 8 ** lanes, stride))


@pytest.mark.parametrize("stride", [31, 10**6])
def test_exact_front_keeps_tied_rows_once(stride, monkeypatch):
    """Coarsened to a few integer levels, objective rows tie across window
    vectors, so front rows repeat over the grid and filter points equal
    later chunk rows, which the weak-dominance filter drops."""
    monkeypatch.setattr(experiments, "_SAMPLE_STRIDE", stride)
    speeds = (22.0, 24.0, 26.0, 28.0)
    config = tiny_config(
        scenario=ScenarioConfig(lane_speeds=speeds),
        sps=replace(DEFAULT_SPS, window_bounds=(0, 7), selection_window=7))
    inputs = fairness_inputs(config, speeds)

    def evaluator(genomes):
        return np.floor(np.sqrt(objective_batch(genomes, inputs) / 0.06) * 12)

    grid_objectives = evaluator(window_grid((0, 7), 4))
    expected = loop_nondominated(grid_objectives)
    # a front row sampled at stride 31 recurs in a later chunk
    assert any((grid_objectives[::31] == row).all(axis=1).any()
               and (grid_objectives == row).all(axis=1).sum() > 1
               for row in expected)
    np.testing.assert_array_equal(exact_front(evaluator, (0, 7), 4), expected)


def test_fig3_reference_is_the_exact_front(tmp_path, monkeypatch, capsys):
    config = tiny_config()
    fronts = []
    real_run = experiments.run

    def recording(*args, **kwargs):
        fronts.append(kwargs.get("reference_front"))
        return real_run(*args, **kwargs)

    monkeypatch.setattr(experiments, "run", recording)
    run_fig3_metrics(config, tmp_path)
    inputs = fairness_inputs(config, config.scenario.lane_speeds)
    expected = loop_nondominated(objective_batch(window_grid((0, 3), 2), inputs))
    assert len(fronts) == 1
    np.testing.assert_array_equal(fronts[0], expected)
    assert f"reference front: exact grid, {len(expected)} points" in \
        capsys.readouterr().out


def test_fig3_rerun_is_byte_identical(tmp_path):
    first = run_fig3_metrics(tiny_config(), tmp_path / "a").read_bytes()
    second = run_fig3_metrics(tiny_config(), tmp_path / "b").read_bytes()
    assert first == second


def test_oracle_report_structure(tmp_path, capsys):
    path, ok = run_oracle_validation(tiny_config(), tmp_path,
                                     num_events=1500, episodes=30)
    assert isinstance(ok, bool)
    rows = read_csv(path)
    assert len(rows) == 10          # five cases x (collision, prr)
    assert list(rows[0]) == ["case", "quantity", "analytic", "simulated",
                             "std_error", "cluster_se", "error", "tolerance",
                             "status"]
    by_case = {(r["case"], r["quantity"]): r for r in rows}
    # degenerate cases are exact at any budget
    single = by_case[("single-vehicle", "prr")]
    assert float(single["analytic"]) == 1.0
    assert float(single["simulated"]) == 1.0
    assert single["status"] == "pass"
    forced = by_case[("forced-collision", "delta_col")]
    assert float(forced["analytic"]) == 1.0
    assert float(forced["simulated"]) == 1.0
    assert forced["status"] == "pass"
    assert by_case[("forced-collision", "prr")]["simulated"] == "0"
    out = capsys.readouterr().out
    assert "single-vehicle" in out and "status" in out


def test_oracle_report_deterministic(tmp_path):
    first, _ = run_oracle_validation(tiny_config(), tmp_path / "a",
                                     num_events=1500, episodes=30)
    second, _ = run_oracle_validation(tiny_config(), tmp_path / "b",
                                      num_events=1500, episodes=30)
    assert first.read_bytes() == second.read_bytes()


def test_oracle_report_bytes_are_pinned(tmp_path):
    # recorded from the 0.5.0 simulator (block draws, one simulation per
    # case): any change to the simulator's RNG stream or to the report's
    # formatting moves this digest
    path, ok = run_oracle_validation(tiny_config(), tmp_path,
                                     num_events=2000, episodes=200)
    assert ok
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "5dd46c8860a340cf0561f45a6ad59d0c3ecfafaa3c9dd1e925655497ec3929a2"
