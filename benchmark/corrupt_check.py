#!/usr/bin/env python3
"""Show that each workload's checks reject a deliberately corrupted output.

Usage, from the root of a checkout:

  python3 benchmark/corrupt_check.py [--seed N] [workload ...]

For each workload it runs one round, checks the genuine output (no operation
may fail), then checks copies corrupted in one place each (each copy must fail
at least one operation).  Exits 1 if any of these expectations does not hold.
"""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import run  # pins the BLAS threads before numpy loads
import workloads


def _edit_csv(src: Path, dst: Path, name: str, match: dict, column: str, edit) -> None:
    """Copy the round's outputs to dst, applying edit to one cell of one row."""
    shutil.copytree(src, dst)
    path = dst / name
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    hits = [row for row in rows if all(row[k] == v for k, v in match.items())]
    if not hits:
        raise LookupError(f"no row {match} in {name}")
    hits[0][column] = edit(hits[0][column])
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _scale(factor: float):
    return lambda text: format(float(text) * factor, ".12g")


def corruptions(name: str, result: dict, workdir: Path) -> dict[str, dict]:
    """Copies of one round's result, each corrupted in one place."""
    out = {}

    def csv_copy(label, file, match, column, edit):
        dst = workdir / label
        _edit_csv(result["out"], dst, file, match, column, edit)
        out[label] = dict(result, out=dst)

    if name == "sweep":
        csv_copy("fig4-window", "fig4_optimal_windows.csv",
                 {"avg_speed": "23", "lane": "3"}, "optimal_window",
                 lambda w: str(int(w) - 1 if int(w) > 0 else 1))
        csv_copy("fig5-standard", "fig5_objective_sums.csv",
                 {"avg_speed": "25", "scheme": "standard"}, "objective_sum",
                 _scale(1 + 1e-6))
        csv_copy("fig5-optimal", "fig5_objective_sums.csv",
                 {"avg_speed": "27", "scheme": "optimal"}, "objective_sum",
                 _scale(1 - 1e-6))
    elif name == "fig3":
        import checks
        from v2i_fairness import experiments
        from v2i_fairness.config import load_config
        from v2i_fairness.sps_analytics import objective_batch
        config = load_config(workloads.CONFIG)
        generations = str(config.ga.max_generations)
        csv_copy("fig3-hv", "fig3_metrics.csv", {"generation": generations}, "HV",
                 _scale(1 + 1e-6))
        csv_copy("fig3-gd", "fig3_metrics.csv", {"generation": generations}, "GD",
                 _scale(1 - 1e-6))
        csv_copy("fig3-igd", "fig3_metrics.csv", {"generation": generations}, "IGD",
                 _scale(1 + 1e-6))
        ref_point, ref_front, front = result["last"]
        exact = checks.Fig3Reference(config, objective_batch,
                                     experiments.fairness_inputs).front
        bad = front.copy()
        bad[0] = exact[0] * 0.99      # a point that beats the exact front
        out["fig3-front"] = dict(result, last=(ref_point, ref_front, bad))
    elif name == "oracle":
        csv_copy("oracle-analytic", "oracle_report.csv",
                 {"case": "two-vehicle-w4", "quantity": "delta_col"}, "analytic",
                 _scale(1.01))
        csv_copy("oracle-simulated", "oracle_report.csv",
                 {"case": "four-vehicle-w9", "quantity": "prr"}, "simulated",
                 lambda v: format(float(v) - 0.05, ".12g"))
    elif name == "sensing":
        case, col, prr = result["estimates"][1]
        col = replace(col, reselection_collision=case.blind_collision)
        out["sensing-collision"] = {"estimates": [result["estimates"][0], (case, col, prr)]}
        case, col, prr = result["estimates"][0]
        prr = replace(prr, value=case.blind_prr)
        out["sensing-prr"] = {"estimates": [(case, col, prr), result["estimates"][1]]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("names", nargs="*", default=list(workloads.NAMES))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    os.chdir(run.ROOT)
    workdir = run.OUT / "corrupt"
    ok = True
    for name in args.names:
        shutil.rmtree(workdir, ignore_errors=True)
        result, _, _ = run.one_round(name, args.seed, workdir / "genuine")
        tally = run.run_checks(name, [result], args.seed)
        good = tally.failed == 0 and not tally.errors
        ok &= good
        print(f"{name} genuine: {tally.attempted} operations, {tally.failed} failed"
              f" -> {'ok' if good else 'UNEXPECTED'}")
        for label, bad in corruptions(name, result, workdir).items():
            tally = run.run_checks(name, [bad], args.seed)
            caught = tally.failed > 0
            ok &= caught
            reason = tally.problems[0] if tally.problems else "no operation failed"
            print(f"{name} {label}: {tally.failed} of {tally.attempted} failed"
                  f" -> {'rejected' if caught else 'NOT REJECTED'}: {reason}")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
