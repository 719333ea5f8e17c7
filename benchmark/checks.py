"""Output checks, computed apart from the code under test.

Each check counts its operations and the ones that failed:

* ``sweep``: one operation per (verb, sweep point).  All 16^4 window vectors
  are scored with ``objective_batch`` and the threshold-filtered minimum is
  taken by exhaustion.
* ``fig3``: one operation per run.  The last front's hypervolume is checked
  against an exact slicing computed here, GD and IGD against brute-force
  nearest distances, and the front against the exact front of the grid.
* ``oracle``: one operation per report row, against the closed forms
  1/(T*N_Sc) and ((1 - 1/(T*N_Sc)) * (1 - 1/T))^(N-1).
* ``sensing``: one operation per estimate, against the blind closed forms.

Every round of a run uses the same seed, so a round whose CSVs differ from
the first round's fails its operations too.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REL = 1e-9          # recomputation of a value printed with 12 digits
SENSING_SIGMAS = 3.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)   # not tied to one operation
    extra: dict[str, float] = field(default_factory=dict)

    def op(self, label: str, failures: list[str]) -> None:
        """Record one operation; it fails if any of its checks failed."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(failures)}")


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-15


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _same_bytes(paths: list[Path], first: dict[str, bytes]) -> list[str]:
    """Compare a round's CSVs with the first round's (filled on first call)."""
    out = []
    for path in paths:
        data = path.read_bytes() if path.exists() else b""
        if first.setdefault(path.name, data) != data:
            out.append(f"{path.name} differs from the first round")
    return out


def dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j]: row i of a Pareto-dominates row j of b (minimisation)."""
    le = np.all(a[:, None, :] <= b[None, :, :], axis=2)
    lt = np.any(a[:, None, :] < b[None, :, :], axis=2)
    return le & lt


def pareto_front(points: np.ndarray, block: int = 1024) -> np.ndarray:
    """Exact non-dominated subset by a sort-then-scan in blocks.

    After sorting on the row sum, no row can be dominated by a later row, so
    each block only needs the front found so far and its own members.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    pts = pts[np.argsort(pts.sum(axis=1), kind="stable")]
    front = np.empty((0, pts.shape[1]))
    for start in range(0, len(pts), block):
        chunk = pts[start:start + block]
        if len(front):
            chunk = chunk[~dominates(front, chunk).any(axis=0)]
        chunk = chunk[~dominates(chunk, chunk).any(axis=0)]
        front = np.vstack([front, chunk])
    return front


def window_grid(bounds: tuple[int, int], lanes: int) -> np.ndarray:
    lb, ub = bounds
    return np.array(list(itertools.product(range(lb, ub + 1), repeat=lanes)))


def grid_index(windows, bounds: tuple[int, int]) -> int:
    lb, ub = bounds
    index = 0
    for w in windows:
        index = index * (ub - lb + 1) + (w - lb)
    return index


# sweep ----------------------------------------------------------------------


class SweepReference:
    """Exhaustive scores of every window vector at every sweep point."""

    def __init__(self, config, objective_batch, resolve_threshold, fairness_inputs):
        self.bounds = config.sps.window_bounds
        self.baseline = grid_index([config.baseline_window] * len(config.scenario.lane_speeds),
                                   self.bounds)
        self.points = {}
        grid = window_grid(self.bounds, len(config.scenario.lane_speeds))
        for speed in config.sweep:
            inputs = fairness_inputs(config, config.lane_speeds_at(speed))
            objectives = objective_batch(grid, inputs)
            threshold = resolve_threshold(config, inputs)
            feasible = np.all(objectives <= threshold, axis=1)
            sums = objectives.sum(axis=1)
            self.points[_key(speed)] = {
                "objectives": objectives, "sums": sums,
                "threshold": threshold,
                "exact": float(sums[feasible].min()),
            }


def _key(speed) -> str:
    return format(float(speed), ".12g")


def check_sweep(rounds: list[dict], ref: SweepReference, tally: Tally) -> None:
    first: dict[str, bytes] = {}
    gap = 0.0
    lo, hi = ref.bounds
    for r, result in enumerate(rounds, start=1):
        out = result["out"]
        fig4, fig5 = out / "fig4_optimal_windows.csv", out / "fig5_objective_sums.csv"
        mismatch = _same_bytes([fig4, fig5], first)
        windows: dict[str, list[int]] = {}
        for row in _read(fig4) if fig4.exists() else []:
            windows.setdefault(row["avg_speed"], []).append(int(row["optimal_window"]))
        sums: dict[tuple[str, str], float] = {}
        for row in _read(fig5) if fig5.exists() else []:
            sums[(row["avg_speed"], row["scheme"])] = float(row["objective_sum"])
        gap = 0.0
        for key, point in ref.points.items():
            fails = list(mismatch) + ([] if result["codes"].get("fig4") == 0
                                      else ["fig4 exit code"])
            optimal = sums.get((key, "optimal"))
            w = windows.get(key)
            if w is None or len(w) != point["objectives"].shape[1]:
                fails.append("windows missing")
            elif not all(lo <= x <= hi for x in w):
                fails.append(f"window out of bounds {w}")
            else:
                k = grid_index(w, ref.bounds)
                if not np.all(point["objectives"][k] <= point["threshold"]):
                    fails.append(f"{tuple(w)} is infeasible and not flagged")
                if optimal is None or not _close(point["sums"][k], optimal):
                    fails.append(f"{tuple(w)} sums to {float(point['sums'][k])!r}, "
                                 f"fig5 optimal is {optimal!r}")
                if point["sums"][k] < point["exact"] * (1 - REL):
                    fails.append("beats the exhaustive minimum")
            tally.op(f"round {r} fig4 {key}", fails)

            fails = list(mismatch) + ([] if result["codes"].get("fig5") == 0
                                      else ["fig5 exit code"])
            standard = sums.get((key, "standard"))
            baseline = float(point["sums"][ref.baseline])
            if optimal is None or standard is None:
                fails.append("rows missing")
            else:
                if not _close(standard, baseline):
                    fails.append(f"standard {standard!r} != baseline sum {baseline!r}")
                if not optimal < standard:
                    fails.append("optimal does not beat standard")
                if optimal < point["exact"] * (1 - REL):
                    fails.append("optimal beats the exhaustive minimum")
                gap += optimal / point["exact"] - 1.0
            tally.op(f"round {r} fig5 {key}", fails)
    tally.extra["nsga2.gap_to_exact"] = gap


# fig3 -----------------------------------------------------------------------


def hypervolume_slicing(points: np.ndarray, ref_point: np.ndarray) -> float:
    """Exact hypervolume by slicing on the last objective (minimisation).

    Sorted on the last objective, the points up to k dominate the slab between
    their k-th and (k+1)-th values with the (d-1)-dimensional volume of their
    projection; two objectives end the recursion in a sweep.
    """
    if points.shape[1] == 2:
        pts = points[np.argsort(points[:, 0], kind="stable")]
        widths = np.diff(np.append(pts[:, 0], ref_point[0]))
        return float(np.sum(widths * (ref_point[1] - np.minimum.accumulate(pts[:, 1]))))
    pts = points[np.argsort(points[:, -1], kind="stable")]
    tops = np.append(pts[1:, -1], ref_point[-1])
    total = 0.0
    for k in range(len(pts)):
        height = tops[k] - pts[k, -1]
        if height > 0:
            total += height * hypervolume_slicing(pts[:k + 1, :-1], ref_point[:-1])
    return float(total)


def nearest_distance_mean(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(sum over a of squared distance to the nearest b) / |a|, by loops."""
    total = 0.0
    for p in a:
        total += min(float(np.sum((q - p) ** 2)) for q in b)
    return math.sqrt(total) / len(a)


class Fig3Reference:
    """Exact Pareto front of the fig3 scenario over the whole window grid."""

    def __init__(self, config, objective_batch, fairness_inputs):
        inputs = fairness_inputs(config, config.scenario.lane_speeds)
        grid = window_grid(config.sps.window_bounds, len(config.scenario.lane_speeds))
        self.front = pareto_front(objective_batch(grid, inputs))
        self.generations = config.ga.max_generations


def check_fig3(rounds: list[dict], ref: Fig3Reference, tally: Tally) -> None:
    first: dict[str, bytes] = {}
    for r, result in enumerate(rounds, start=1):
        out = result["out"]
        metrics = out / "fig3_metrics.csv"
        fails = _same_bytes([metrics, out / "nsga2_history.csv"], first)
        if result["codes"].get("fig3") != 0:
            fails.append("fig3 exit code")
        rows = _read(metrics) if metrics.exists() else []
        if [int(row["generation"]) for row in rows] != list(range(1, ref.generations + 1)):
            fails.append(f"expected generations 1..{ref.generations}")
        if result["last"] is None or not rows:
            fails.append("no MetricContext.evaluate call captured")
        else:
            ref_point, ref_front, front = (np.asarray(x, dtype=float)
                                           for x in result["last"])
            last = {k: float(v) for k, v in rows[-1].items()}
            front = pareto_front(front)
            clipped = np.minimum(front, ref_point)
            hv = hypervolume_slicing(clipped, ref_point)
            if not _close(last["HV"], hv):
                fails.append(f"HV {last['HV']!r} vs slicing {hv!r}")
            gd = nearest_distance_mean(front, ref_front)
            igd = nearest_distance_mean(ref_front, front)
            if not _close(last["GD"], gd):
                fails.append(f"GD {last['GD']!r} vs brute force {gd!r}")
            if not _close(last["IGD"], igd):
                fails.append(f"IGD {last['IGD']!r} vs brute force {igd!r}")
            if dominates(front, ref.front).any():
                fails.append("a front point dominates a point of the exact front")
        tally.op(f"round {r} fig3", fails)


# oracle ---------------------------------------------------------------------


def oracle_expectations(cases) -> dict[str, dict[str, tuple[float, float]]]:
    """Closed-form analytic value and tolerance per (case, quantity).

    Tolerances are the oracle verb's own: max(15% relative, 0.005) for
    collisions and 0.02 absolute for PRR.
    """
    out = {}
    for case in cases:
        sps = case.sps
        period = round(1000 * 2 ** sps.numerology * sps.rri)
        n = case.num_vehicles
        delta = 1.0 / (period * sps.num_subchannels)
        prr = ((1.0 - delta) * (1.0 - 1.0 / period)) ** (n - 1)
        delta = 0.0 if n == 1 else delta
        out[case.label] = {"delta_col": (delta, max(0.15 * delta, 0.005)),
                           "prr": (prr, 0.02)}
    return out


def check_oracle(rounds: list[dict], expected, tally: Tally) -> None:
    first: dict[str, bytes] = {}
    for r, result in enumerate(rounds, start=1):
        report = result["out"] / "oracle_report.csv"
        mismatch = _same_bytes([report], first)
        rows = {(row["case"], row["quantity"]): row
                for row in (_read(report) if report.exists() else [])}
        all_pass = True
        for label, quantities in expected.items():
            for quantity, (analytic, tol) in quantities.items():
                fails = list(mismatch)
                row = rows.get((label, quantity))
                if row is None:
                    tally.op(f"round {r} {label} {quantity}", fails + ["row missing"])
                    all_pass = False
                    continue
                simulated = float(row["simulated"])
                within = abs(simulated - analytic) <= tol
                all_pass &= within
                if not _close(float(row["analytic"]), analytic):
                    fails.append(f"analytic {row['analytic']} vs closed form {analytic!r}")
                if not _close(float(row["tolerance"]), tol):
                    fails.append(f"tolerance {row['tolerance']} vs {tol!r}")
                if not within:
                    fails.append(f"simulated {simulated!r} off {analytic!r} by more than {tol}")
                if row["status"] != ("pass" if within else "FAIL"):
                    fails.append(f"status {row['status']}")
                tally.op(f"round {r} {label} {quantity}", fails)
        if result["codes"].get("oracle") != (0 if all_pass else 1):
            tally.errors.append(f"round {r}: oracle exit code "
                                f"{result['codes'].get('oracle')}")


# sensing --------------------------------------------------------------------


def check_sensing(rounds: list[dict], requested: int, tally: Tally) -> None:
    first = None
    for r, result in enumerate(rounds, start=1):
        estimates = result["estimates"]
        mismatch = [] if first is None or first == estimates else \
            ["estimates differ from the first round"]
        first = first or estimates
        for case, col, prr in estimates:
            fails = list(mismatch)
            if col.num_reselections < requested:
                fails.append(f"{col.num_reselections} reselections < {requested}")
            upper = col.reselection_collision + SENSING_SIGMAS * col.cluster_se
            if not (col.cluster_se > 0 and upper < case.blind_collision):
                fails.append(f"collision {col.reselection_collision:.5f} + "
                             f"{SENSING_SIGMAS:g} x {col.cluster_se:.5f} not below "
                             f"blind {case.blind_collision:.5f}")
            tally.op(f"round {r} {case.label} collision", fails)

            fails = list(mismatch)
            if prr.num_reselections < requested:
                fails.append(f"{prr.num_reselections} reselections < {requested}")
            lower = prr.value - SENSING_SIGMAS * prr.cluster_se
            if not (prr.cluster_se > 0 and prr.value <= 1.0 and lower > case.blind_prr):
                fails.append(f"PRR {prr.value:.5f} - {SENSING_SIGMAS:g} x "
                             f"{prr.cluster_se:.5f} not above blind {case.blind_prr:.5f}")
            tally.op(f"round {r} {case.label} prr", fails)
