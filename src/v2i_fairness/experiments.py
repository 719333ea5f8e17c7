"""Sweep orchestration: the three figure reproductions and the oracle check.

Each runner takes a validated :class:`~v2i_fairness.config.ExperimentConfig`,
derives one seed per sweep point from the experiment seed (points are
independent, so adding or reordering points never perturbs the others), and
emits a fixed-schema CSV.  Files are written atomically (temp + rename); all
formatting is deterministic so a rerun from the manifest reproduces outputs
byte for byte.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .moo_metrics import nondominated, weakly_dominates
from .nsga2 import Optimum, pick_optimum, run, write_history
from .sps_analytics import (
    FairnessInputs,
    SpsParams,
    collision_probability,
    fairness_indices,
    objective_batch,
    packet_reception_ratio,
)
from .sps_sim import SimConfig, estimate
from .util import atomic_write_text

# spawn-key offsets keep the per-point streams of different runners disjoint
_FIG3_STREAM = 500
_ORACLE_STREAM = 1000

# grid rows per evaluator call: one call on the whole default grid (16^4)
# peaks near 47 MiB, against about 40 MiB for all of fig3
_GRID_CHUNK = 1024
# every 31st grid row seeds exact_front's filter.  Without it (every chunk
# kept, one `nondominated` call on the whole grid) the 16^4 front costs 0.23
# CPU s and 7.8 MiB over the imports, against 0.06 s and 1.9 MiB with it;
# 16^5 costs 17.0 s and 125 MiB, against 3.2 s and 6.1 MiB
_SAMPLE_STRIDE = 31


def point_seed(seed: int, index: int) -> int:
    """Stable per-point seed derived from the experiment seed."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def fairness_inputs(config: ExperimentConfig,
                    speeds: tuple[float, ...]) -> FairnessInputs:
    """Bind the configured channel/SPS/geometry to one set of lane speeds."""
    return FairnessInputs(
        channel=config.channel,
        sps=config.sps,
        speeds=speeds,
        rsu_position=config.scenario.rsu_position,
        coverage_range=config.scenario.coverage_range,
    )


def resolve_threshold(config: ExperimentConfig, inputs: FairnessInputs) -> float:
    """Absolute per-objective feasibility cut for this sweep point.

    The configured ``ga.threshold`` is a relative factor; it is anchored to the
    network fairness index at the homogeneous mid-bound window, which tracks
    the objective scale as speeds change without depending on the optimizer's
    own output.
    """
    w_lb, w_ub = config.sps.window_bounds
    mid = (w_lb + w_ub) // 2
    k_net, _ = fairness_indices([(mid,) * inputs.num_vehicles], inputs)
    return config.ga.threshold * float(k_net[0])


def optimize_point(config: ExperimentConfig, avg_speed: float,
                   index: int) -> Optimum:
    """Run the GA for one average speed and pick the reported optimum."""
    speeds = config.lane_speeds_at(avg_speed)
    inputs = fairness_inputs(config, speeds)

    def evaluator(genomes: np.ndarray) -> np.ndarray:
        return objective_batch(genomes, inputs)

    threshold = resolve_threshold(config, inputs)
    ga = replace(config.ga, rng_seed=point_seed(config.seed, index),
                 threshold=threshold)
    try:
        result = run(ga, config.sps.window_bounds, len(speeds), evaluator)
        return pick_optimum(result.genomes, result.objectives, threshold)
    except Exception as exc:
        raise RuntimeError(
            f"optimizer failed at sweep point avg_speed={avg_speed}: {exc}"
        ) from exc


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _report_fallback(avg_speed: float, optimum: Optimum) -> None:
    """Say on stdout when a point's threshold filter was empty."""
    if not optimum.feasible:
        print(f"avg_speed {_fmt(avg_speed)}: no individual met the "
              f"threshold; reported the unfiltered sum-minimiser")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return atomic_write_text(path, buf.getvalue())


def run_fig4_sweep(config: ExperimentConfig,
                   out_dir: str | Path | None = None) -> Path:
    """Optimal window per lane across the speed sweep.

    CSV schema: ``avg_speed,lane,optimal_window`` with one row per
    (sweep point, lane).  A point whose threshold filter was empty prints
    one line saying so.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    rows: list[list] = []
    for index, avg_speed in enumerate(config.sweep):
        optimum = optimize_point(config, avg_speed, index)
        _report_fallback(avg_speed, optimum)
        for lane, window in enumerate(optimum.windows):
            rows.append([_fmt(avg_speed), lane, window])
    return _write_csv(out / "fig4_optimal_windows.csv",
                      ["avg_speed", "lane", "optimal_window"], rows)


def run_fig5_comparison(config: ExperimentConfig,
                        out_dir: str | Path | None = None) -> Path:
    """Objective sums of the optimized windows vs the fixed baseline window.

    CSV schema: ``avg_speed,scheme,objective_sum`` with scheme in
    {``optimal``, ``standard``}.  Seeds match :func:`run_fig4_sweep`, so both
    figures report the same optimized windows, and the same line for a
    point whose threshold filter was empty.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    rows: list[list] = []
    for index, avg_speed in enumerate(config.sweep):
        optimum = optimize_point(config, avg_speed, index)
        _report_fallback(avg_speed, optimum)
        speeds = config.lane_speeds_at(avg_speed)
        inputs = fairness_inputs(config, speeds)
        baseline = objective_batch(
            [(config.baseline_window,) * len(speeds)], inputs)
        rows.append([_fmt(avg_speed), "optimal", _fmt(optimum.objective_sum)])
        rows.append([_fmt(avg_speed), "standard", _fmt(float(baseline.sum()))])
    return _write_csv(out / "fig5_objective_sums.csv",
                      ["avg_speed", "scheme", "objective_sum"], rows)


def _scored_grid(evaluator, positions: range, bounds: tuple[int, int],
                 num_genes: int):
    """Objectives of the grid rows at flat `positions`, _GRID_CHUNK rows per call.

    Flat position p is the window vector whose base-(w_UB - w_LB + 1) digits,
    first gene most significant, spell p, so the grid is never built.
    """
    lb, ub = bounds
    base = ub - lb + 1
    powers = base ** np.arange(num_genes - 1, -1, -1)
    for start in range(0, len(positions), _GRID_CHUNK):
        chunk = positions[start:start + _GRID_CHUNK]
        index = np.arange(chunk.start, chunk.stop, chunk.step)
        yield np.asarray(evaluator(lb + index[:, None] // powers % base),
                         dtype=float)


def exact_front(evaluator, bounds: tuple[int, int], num_genes: int) -> np.ndarray:
    """Pareto front of `evaluator` over every window vector within `bounds`.

    The front of a strided sample of the grid is the filter.  The grid is
    then walked in chunks, keeping the rows no filter point weakly
    dominates, and `nondominated` of the filter plus those survivors is the
    answer.  That is exact whatever the sample: a grid point weakly
    dominated by a filter point is either dominated or equal to that point,
    which the filter already holds (Kung, Luccio & Preparata 1975).
    """
    size = (bounds[1] - bounds[0] + 1) ** num_genes
    sample = np.concatenate(list(_scored_grid(
        evaluator, range(0, size, _SAMPLE_STRIDE), bounds, num_genes)))
    filt = nondominated(sample)
    survivors = [filt]
    for objectives in _scored_grid(evaluator, range(size), bounds, num_genes):
        survivors.append(objectives[~weakly_dominates(filt, objectives).any(axis=0)])
    return nondominated(np.concatenate(survivors))


def run_fig3_metrics(config: ExperimentConfig,
                     out_dir: str | Path | None = None) -> Path:
    """Per-generation front-quality metrics for one recorded GA run.

    The run optimizes the scenario's own lane speeds.  GD/IGD are measured
    against the exact Pareto front of the whole window grid
    (:func:`exact_front`), the one reference; the config's
    `MAX_GRID_VECTORS` keeps that grid enumerable, and one stdout line
    gives the front's size.  The HV reference point is the initial
    population's per-objective maximum x1.1.  CSV schema:
    ``generation,HV,GD,IGD,spacing``; the full optimizer history (including
    best-sum and feasible counts) goes to ``nsga2_history.csv`` alongside
    it.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    speeds = config.scenario.lane_speeds
    inputs = fairness_inputs(config, speeds)

    def evaluator(genomes: np.ndarray) -> np.ndarray:
        return objective_batch(genomes, inputs)

    threshold = resolve_threshold(config, inputs)
    bounds = config.sps.window_bounds
    seed = point_seed(config.seed, _FIG3_STREAM)
    ga = replace(config.ga, rng_seed=seed, threshold=threshold)
    try:
        reference_front = exact_front(evaluator, bounds, len(speeds))
        print(f"reference front: exact grid, {len(reference_front)} points")
        result = run(ga, bounds, len(speeds), evaluator,
                     reference_front=reference_front)
    except Exception as exc:
        raise RuntimeError(f"optimizer failed in metrics run: {exc}") from exc
    write_history(result.history, out / "nsga2_history.csv")
    rows = [[stats.generation, _fmt(stats.hypervolume), _fmt(stats.gd),
             _fmt(stats.igd), _fmt(stats.spacing)]
            for stats in result.history]
    return _write_csv(out / "fig3_metrics.csv",
                      ["generation", "HV", "GD", "IGD", "spacing"], rows)


# --- analytic vs simulated cross-check ------------------------------------

@dataclass(frozen=True)
class OracleCase:
    """One small configuration compared analytic-vs-simulated."""

    label: str
    sps: SpsParams
    num_vehicles: int


def _oracle_sps(rri: float, n_sc: int, window: int,
                rc_range: tuple[int, int] = (5, 15)) -> SpsParams:
    # uniform-selection calibration is the regime with a closed-form collision
    # probability the simulator can be held to; packet_rate = 1/RRI keeps the
    # half-duplex term consistent with one transmission per reservation period
    return SpsParams(rri=rri, num_subchannels=n_sc, selection_window=window,
                     window_bounds=(0, max(15, window)), keep_probability=0.0,
                     packet_rate=1.0 / rri, rc_range=rc_range,
                     collision_model="uniform-selection")


def default_oracle_cases() -> list[OracleCase]:
    return [
        OracleCase("single-vehicle", _oracle_sps(0.1, 1, 0), 1),
        OracleCase("two-vehicle-w0", _oracle_sps(0.1, 1, 0), 2),
        OracleCase("two-vehicle-w4", _oracle_sps(0.05, 2, 4), 2),
        OracleCase("four-vehicle-w9", _oracle_sps(0.1, 4, 9), 4),
        OracleCase("forced-collision", _oracle_sps(0.001, 1, 0, (1, 1)), 2),
    ]


ASSUMPTION_LEDGER = """\
assumption ledger (collision-model calibration):
  C_Ca  colliding candidate combinations: pairs selecting the same PRB out of
        the shared pool; uniform-selection fixes C_Ca/N_Ca^2 so that the
        pairwise collision probability is exactly 1/(T*N_Sc).
  N_r   resources kept after sensing exclusions: idealized sensing keeps the
        full candidate set (no exclusions) in the analytic model.
  N_Ca  candidate-set size: (w+1)*N_Sc per vehicle before any exclusion.
  The simulator draws uniformly from the same candidate definition; residual
  disagreement beyond tolerance means one side's pool bookkeeping drifted.
"""


def run_oracle_validation(config: ExperimentConfig,
                          out_dir: str | Path | None = None,
                          num_events: int = 100_000,
                          episodes: int = 2000) -> tuple[Path, bool]:
    """Side-by-side analytic vs simulated collision probability and PRR.

    Each case is simulated once, and its collision and PRR rows read the
    same tally (:func:`~v2i_fairness.sps_sim.estimate`).  Collision rows
    check the reselection-instant reading against the pairwise analytic
    value with tolerance max(15% relative, 0.005 absolute); PRR rows use
    +/-0.02 absolute.  Each row carries two standard errors: `std_error`
    treats every reselection (or transmission) as independent, `cluster_se`
    comes from the spread of per-episode rates and is the one to read when
    events within an episode are correlated.  Neither enters the tolerance.
    Returns the report path and overall pass/fail; a failure also prints the
    calibration assumption ledger.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    rows: list[list] = []
    all_pass = True
    print(f"{'case':<18} {'quantity':<10} {'analytic':>10} {'simulated':>10} "
          f"{'+/-95%':>9} {'cluster_se':>10} {'error':>9} {'tol':>9}  status")
    for k, case in enumerate(default_oracle_cases()):
        sps = case.sps
        window = sps.selection_window
        sim_cfg = SimConfig(sps=sps, num_vehicles=case.num_vehicles)
        # case k keeps the even offset its collision estimate had when the
        # PRR ran a second simulation on the odd one
        col, prr = estimate(sim_cfg, num_events,
                            rng_seed=point_seed(config.seed, _ORACLE_STREAM + 2 * k),
                            episodes=episodes)
        if case.num_vehicles == 1:
            delta_ana = 0.0
        else:
            delta_ana = float(collision_probability(sps, window, window))
        prr_ana = packet_reception_ratio(
            0, sps, (window,) * case.num_vehicles)

        checks = [
            ("delta_col", delta_ana, col.reselection_collision,
             col.reselection_se, col.cluster_se, max(0.15 * delta_ana, 0.005)),
            ("prr", prr_ana, prr.value, prr.std_error, prr.cluster_se, 0.02),
        ]
        for quantity, analytic, simulated, se, cluster_se, tol in checks:
            error = abs(simulated - analytic)
            ok = error <= tol
            all_pass &= ok
            ci = 1.96 * se
            status = "pass" if ok else "FAIL"
            print(f"{case.label:<18} {quantity:<10} {analytic:>10.5f} "
                  f"{simulated:>10.5f} {ci:>9.5f} {cluster_se:>10.5f} "
                  f"{error:>9.5f} {tol:>9.5f}  "
                  f"{status}")
            rows.append([case.label, quantity, _fmt(analytic),
                         _fmt(simulated), _fmt(se), _fmt(cluster_se),
                         _fmt(error), _fmt(tol), status])
    if not all_pass:
        print(ASSUMPTION_LEDGER)
    path = _write_csv(out / "oracle_report.csv",
                      ["case", "quantity", "analytic", "simulated",
                       "std_error", "cluster_se", "error", "tolerance",
                       "status"], rows)
    return path, all_pass
