"""End-to-end acceptance checks for the packaged experiment pipeline.

Each test covers one acceptance area and records a single
``[ACCEPTANCE] <name>: PASS/FAIL`` line; conftest echoes the collected lines
after the run so the per-check summary survives pytest's output capture.  The
expensive sweeps run on the shipped default configuration; the whole module
targets a few minutes of wall time.
"""

import csv
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import exhaustive_optima
from test_moo_metrics import mc_hypervolume
from test_nsga2 import (
    brute_force_fronts,
    brute_force_pick,
    brute_force_survivors,
    make_population,
)
from v2i_fairness.cli import main as cli_main
from v2i_fairness.config import ExperimentConfig
from v2i_fairness.experiments import (
    default_oracle_cases,
    fairness_inputs,
    optimize_point,
    run_fig3_metrics,
    run_fig4_sweep,
    run_fig5_comparison,
    run_oracle_validation,
)
from v2i_fairness.moo_metrics import hypervolume, nondominated
from v2i_fairness.nsga2 import (
    crowding_distance,
    non_dominated_sort,
    pick_optimum,
    select_survivors,
)
from v2i_fairness.sps_analytics import objective_batch


RESULTS: list[str] = []   # echoed by conftest's terminal-summary hook


def report(name: str, passed: bool, detail: str) -> None:
    line = f"[ACCEPTANCE] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line, flush=True)
    assert passed, line


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def default_config(tmp_path_factory) -> ExperimentConfig:
    out = tmp_path_factory.mktemp("acceptance")
    return replace(ExperimentConfig(), output_dir=str(out))


@pytest.fixture(scope="module")
def fig4_run(default_config) -> tuple[Path, float]:
    start = time.perf_counter()
    path = run_fig4_sweep(default_config)
    return path, time.perf_counter() - start


# ---------------------------------------------------------------------------
# optimal windows across the speed sweep
# ---------------------------------------------------------------------------


def test_optimal_windows_track_speed(fig4_run, default_config):
    path, elapsed = fig4_run
    by_lane: dict[int, list[tuple[float, int]]] = {}
    for row in read_rows(path):
        by_lane.setdefault(int(row["lane"]), []).append(
            (float(row["avg_speed"]), int(row["optimal_window"])))
    problems = []
    for lane, series in sorted(by_lane.items()):
        series.sort()
        # non-increasing with the sweep, with one slot of optimizer slack
        for (va, wa), (vb, wb) in zip(series, series[1:]):
            if wb > wa + 1:
                problems.append(
                    f"lane {lane}: w*({vb:g})={wb} > w*({va:g})+1={wa + 1}")
    offsets = default_config.speed_offsets
    fastest = int(np.argmax(offsets))
    slowest = int(np.argmin(offsets))
    for (v, w_fast), (_, w_slow) in zip(sorted(by_lane[fastest]),
                                        sorted(by_lane[slowest])):
        if w_fast > w_slow:
            problems.append(
                f"v={v:g}: fastest lane window {w_fast} > slowest {w_slow}")
    if elapsed >= 300.0:
        problems.append(f"sweep took {elapsed:.0f}s (budget 300s)")
    detail = "; ".join(problems) or (
        f"{len(default_config.sweep)} sweep points, {len(by_lane)} lanes, "
        f"windows non-increasing within one slot, fastest<=slowest, "
        f"sweep {elapsed:.0f}s")
    report("optimal windows shrink as speed grows", not problems, detail)


def test_optimal_windows_equal_the_exhaustive_optimum(fig4_run, default_config):
    path, _ = fig4_run
    found: dict[str, list[int]] = {}
    for row in read_rows(path):
        found.setdefault(row["avg_speed"], []).append(int(row["optimal_window"]))
    problems = []
    for v, (exact, _) in zip(default_config.sweep, exhaustive_optima(default_config)):
        got = tuple(found.get(format(v, ".12g"), ()))
        if got != exact:
            problems.append(f"v={v:g}: GA {got} vs exhaustive {exact}")
    lb, ub = default_config.sps.window_bounds
    detail = "; ".join(problems) or (
        f"seed {default_config.seed}: GA windows equal the threshold-filtered "
        f"optimum of all {(ub - lb + 1) ** default_config.scenario.num_lanes} "
        f"window vectors at {len(default_config.sweep)} sweep points")
    report("optimal windows equal the exhaustive optimum", not problems, detail)


MAX_SEED_MISSES = 5   # of 10 seeds x the 5 default sweep points


def test_exhaustive_optimum_is_found_across_seeds(default_config):
    """NSGA-II does not promise the optimum: over seeds 1-10 at every sweep
    point, at most `MAX_SEED_MISSES` runs may pick other windows than the
    exhaustive optimum.  Each miss is named with its relative gap in
    objective sum."""
    exact = exhaustive_optima(default_config)
    misses = []
    for seed in range(1, 11):
        config = replace(default_config, seed=seed)
        for index, (v, (windows, _)) in enumerate(zip(config.sweep, exact)):
            found = optimize_point(config, v, index)
            if found.windows != windows:
                inputs = fairness_inputs(config, config.lane_speeds_at(v))
                best = float(objective_batch([windows], inputs).sum())
                misses.append(f"seed {seed} at {v:g} m/s "
                              f"{found.objective_sum / best - 1:+.1%}")
    runs = 10 * len(default_config.sweep)
    report("the exhaustive optimum is found across seeds",
           len(misses) <= MAX_SEED_MISSES,
           f"{len(misses)} of {runs} runs miss (at most {MAX_SEED_MISSES})"
           + "".join(f"; {miss}" for miss in misses))


# ---------------------------------------------------------------------------
# optimized windows vs the fixed baseline window
# ---------------------------------------------------------------------------


def test_optimized_beats_standard_everywhere(default_config):
    rows = read_rows(run_fig5_comparison(default_config))
    sums: dict[float, dict[str, float]] = {}
    for row in rows:
        sums.setdefault(float(row["avg_speed"]), {})[row["scheme"]] = \
            float(row["objective_sum"])
    problems = []
    for v, schemes in sorted(sums.items()):
        if set(schemes) != {"optimal", "standard"}:
            problems.append(f"v={v:g}: schemes {sorted(schemes)}")
        elif not schemes["optimal"] < schemes["standard"]:
            problems.append(f"v={v:g}: optimal {schemes['optimal']:.3g} not "
                            f"below standard {schemes['standard']:.3g}")
    detail = "; ".join(problems)
    if not problems:
        ratios = [s["standard"] / s["optimal"] for s in sums.values()]
        detail = (f"strictly lower objective sum at all {len(sums)} points "
                  f"(standard/optimal {min(ratios):.1f}x-{max(ratios):.1f}x)")
    report("optimized windows beat the fixed baseline", not problems, detail)


# ---------------------------------------------------------------------------
# front-quality metrics over one recorded optimizer run
# ---------------------------------------------------------------------------


def test_front_metrics_improve_over_generations(default_config):
    rows = read_rows(run_fig3_metrics(default_config))
    gens = [int(r["generation"]) for r in rows]
    series = {name: np.array([float(r[name]) for r in rows])
              for name in ("HV", "GD", "IGD", "spacing")}
    problems = []
    if gens != list(range(gens[0], gens[0] + len(gens))):
        problems.append("generation column is not consecutive")
    if len(gens) < default_config.ga.max_generations:
        problems.append(f"only {len(gens)} generations recorded, expected "
                        f"{default_config.ga.max_generations}")
    for name, values in series.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"{name} has non-finite entries")
    hv0, hv1 = series["HV"][0], series["HV"][-1]
    gd0, gd1 = series["GD"][0], series["GD"][-1]
    if not hv1 >= hv0:
        problems.append(f"HV fell: {hv0:.3e} -> {hv1:.3e}")
    if not gd1 <= 0.5 * gd0:
        problems.append(f"GD final {gd1:.3e} not half of initial {gd0:.3e}")
    detail = "; ".join(problems) or (
        f"HV {hv0:.3e}->{hv1:.3e}, GD {gd0:.3e}->{gd1:.3e}, "
        f"all four series finite over {len(gens)} generations")
    report("front metrics improve over the run", not problems, detail)


# ---------------------------------------------------------------------------
# Monte Carlo simulator vs the analytic collision/PRR model
# ---------------------------------------------------------------------------


def test_simulator_confirms_analytic_model(default_config, capsys):
    path, ok = run_oracle_validation(default_config,
                                     num_events=100_000, episodes=2000)
    table = capsys.readouterr().out
    rows = read_rows(path)
    cases = default_oracle_cases()
    problems = [] if ok else ["simulated values outside tolerance"]
    multi = [c for c in cases if 2 <= c.num_vehicles <= 4]
    if len(multi) < 3:
        problems.append(f"only {len(multi)} small multi-vehicle cases")
    subchannels = {c.sps.num_subchannels for c in cases}
    windows = {c.sps.selection_window for c in cases}
    if not {1, 2, 4} <= subchannels:
        problems.append(f"subchannel coverage {sorted(subchannels)}")
    if not {0, 4, 9} <= windows:
        problems.append(f"window coverage {sorted(windows)}")
    if any(not math.isfinite(float(r["std_error"])) or float(r["std_error"]) < 0
           for r in rows):
        problems.append("std_error column has invalid entries")
    if problems:
        print(table)
    detail = "; ".join(problems) or (
        f"{len(rows)} analytic-vs-simulated rows within tolerance across "
        f"{len(cases)} cases at 1e5 reselection events")
    report("simulator confirms the analytic model", not problems, detail)


# ---------------------------------------------------------------------------
# NSGA-II operators vs direct brute-force evaluation
# ---------------------------------------------------------------------------


def test_nsga2_operators_match_brute_force():
    problems = []

    rng = np.random.default_rng(2025)
    for trial in range(20):
        objs = rng.uniform(0.0, 1.0, size=(200, 3))
        if trial % 2:
            objs = objs.round(1)  # force ties and duplicate points
        fronts = non_dominated_sort(objs)
        expected = brute_force_fronts([tuple(p) for p in objs])
        if len(fronts) != len(expected) or any(
                set(map(int, got)) != want
                for got, want in zip(fronts, expected)):
            problems.append(f"sort trial {trial}: front partition mismatch")
    sort_note = "sort exact on 20x200 points"

    for trial in range(15):
        trial_rng = np.random.default_rng(400 + trial)
        objs = trial_rng.uniform(0.0, 1.0, size=(24, 2)).round(2)
        genomes, objs = make_population(objs.tolist())
        kept = [tuple(g) for g in genomes[select_survivors(genomes, objs, 12)].tolist()]
        if kept != brute_force_survivors(genomes, objs, 12):
            problems.append(f"survivor trial {trial}: selection mismatch")
        for threshold in (0.2, 0.6, 2.0):
            if pick_optimum(genomes, objs, threshold).windows != \
                    brute_force_pick(genomes, objs, threshold):
                problems.append(
                    f"pick trial {trial} threshold {threshold}: mismatch")

    pair = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
    if not np.all(np.isinf(pair)):
        problems.append("two-point front not all infinite crowding")
    if not np.isinf(crowding_distance(np.array([[3.0, 4.0]]))[0]):
        problems.append("single point not infinite crowding")
    triple = crowding_distance(np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
    if not (np.isinf(triple[0]) and np.isinf(triple[2])
            and triple[1] == pytest.approx(2.0)):
        problems.append(f"equidistant triple crowding {triple}")

    detail = "; ".join(problems) or (
        f"{sort_note}; survivors+pick exact on 15 tied populations; "
        f"crowding hand cases match")
    report("optimizer operators match brute force", not problems, detail)


# ---------------------------------------------------------------------------
# numeric kernels vs independent references
# ---------------------------------------------------------------------------


def test_numeric_kernels_match_references():
    problems = []

    front_rng = np.random.default_rng(7)
    hv_notes = []
    for dim, count in ((2, 40), (4, 60)):
        front = nondominated(front_rng.uniform(0.0, 1.0, size=(count, dim)))
        ref = np.full(dim, 1.1)
        hv = hypervolume(front, ref)
        mc = mc_hypervolume(front, ref, samples=1_000_000, seed=dim)
        if abs(hv - mc) > 0.01 * hv:
            problems.append(f"{dim}-objective HV {hv:.5f} vs MC {mc:.5f}")
        hv_notes.append(f"{dim}-obj {abs(hv - mc) / hv:.2%}")

    detail = "; ".join(problems) or f"HV vs 1e6-sample MC {', '.join(hv_notes)}"
    report("numeric kernels match independent references", not problems, detail)


# ---------------------------------------------------------------------------
# byte-identical reruns of every CLI verb from its manifest
# ---------------------------------------------------------------------------

REDUCED_DOC = """\
scenario:
  lane_speeds: [24.0, 26.0]
sps:
  window_bounds: [0, 3]
  selection_window: 3
ga:
  population_size: 8
  max_generations: 3
sweep: [24.5, 25.5]
baseline_window: 2
seed: 3
"""


def test_cli_reruns_reproduce_outputs_exactly(tmp_path, capsys):
    cfg = tmp_path / "small.yaml"
    cfg.write_text(REDUCED_DOC, encoding="utf-8")
    problems = []
    compared = 0
    verbs = [("fig4", []), ("fig5", []), ("fig3", []),
             ("oracle", ["--events", "20000", "--episodes", "500"])]
    for verb, extra in verbs:
        first = tmp_path / f"{verb}-first"
        again = tmp_path / f"{verb}-again"
        if cli_main([verb, "--config", str(cfg),
                     "--out", str(first)] + extra) != 0:
            problems.append(f"{verb}: first run failed")
            continue
        manifest = first / f"{verb}_manifest.yaml"
        if cli_main([verb, "--config", str(manifest),
                     "--out", str(again)] + extra) != 0:
            problems.append(f"{verb}: rerun from manifest failed")
            continue
        outputs = sorted(first.glob("*.csv"))
        if not outputs:
            problems.append(f"{verb}: produced no CSV output")
        for produced in outputs:
            twin = again / produced.name
            if not twin.exists() or twin.read_bytes() != produced.read_bytes():
                problems.append(f"{verb}: {produced.name} differs on rerun")
            else:
                compared += 1
    # validate-config has no CSV artifact; its replay check is a stable echo
    manifest = tmp_path / "fig4-first" / "fig4_manifest.yaml"
    capsys.readouterr()
    cli_main(["validate-config", "--config", str(manifest)])
    first_echo = capsys.readouterr().out
    cli_main(["validate-config", "--config", str(manifest)])
    if capsys.readouterr().out != first_echo or "config ok" not in first_echo:
        problems.append("validate-config: echo not reproducible")
    detail = "; ".join(problems) or (
        f"{compared} CSVs byte-identical across manifest replays of "
        f"fig3/fig4/fig5/oracle; validate-config echo stable")
    report("manifest replays reproduce every artifact", not problems, detail)
