#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the root of a checkout:

  python3 benchmark/run.py --workload {sweep,fig3,oracle,sensing} \
      --seed N --seconds S --trace {0,1}

The run repeats whole rounds of its workload (see ``workloads.py``) until
``--seconds`` have passed, every round with the same seed, then checks every
round's outputs (see ``checks.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``cpu_s`` and ``wall_s`` (median
per round), ``setup_s`` (median CPU time of fresh interpreters that import the
package and build the inputs, after one untimed start) and ``peak_rss_mb``.
The three times are scaled by the host's speed, measured with a fixed
reference loop in the same run (see ``HostSpeed``); standard error shows them
unscaled.

``--trace 1`` alternates an untraced round with a round traced by
``tracing.py`` and reports the per-layer metrics, including the tracing
overhead.  Outputs go to ``.bench_out/`` and are removed at the end, except
the spans of the traced rounds (``.bench_out/trace-<workload>.npz``, replaced
by the next traced run of the workload).
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in the set-up probes
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = workloads.ROOT
SRC = ROOT / "src"
OUT = Path(".bench_out")
SETUP_STARTS = 7

# The host's speed: a fixed pure-Python loop, timed between probes and rounds.
# On the 2-vCPU machine of the README the loop and every workload slowed and
# sped up together by up to 40 % within an hour, as the host's load changed;
# times are reported scaled to the speed at which the loop takes REF_NOMINAL_S.
REF_ITERATIONS = 400_000
REF_NOMINAL_S = 0.025


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class HostSpeed:
    """Median CPU and wall seconds of the reference loop over a run."""

    def __init__(self) -> None:
        self.cpu: list[float] = []
        self.wall: list[float] = []

    def sample(self, n: int = 5) -> None:
        for _ in range(n):
            cpu, wall = cpu_seconds(), time.perf_counter()
            total = 0
            for i in range(REF_ITERATIONS):
                total += i * i
            self.cpu.append(cpu_seconds() - cpu)
            self.wall.append(time.perf_counter() - wall)

    def scale_cpu(self, seconds: float) -> float:
        return seconds * REF_NOMINAL_S / statistics.median(self.cpu)

    def scale_wall(self, seconds: float) -> float:
        return seconds * REF_NOMINAL_S / statistics.median(self.wall)


def measure_setup(name: str, speed: HostSpeed) -> float:
    """Median CPU seconds of fresh set-up starts, run one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREADS)
    cmd = [sys.executable, str(workloads.HERE / "setup_probe.py"), name]
    times = []
    for k in range(SETUP_STARTS + 1):
        speed.sample(3)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if k:   # the first start only warms the file cache
            times.append(after.ru_utime + after.ru_stime
                         - before.ru_utime - before.ru_stime)
    return statistics.median(times)


def one_round(name: str, seed: int, out: Path):
    cpu, wall = cpu_seconds(), time.perf_counter()
    result = workloads.run_round(name, seed, out)
    return result, cpu_seconds() - cpu, time.perf_counter() - wall


def run_checks(name: str, rounds: list[dict], seed: int):
    """Check every round against computations made apart from the program."""
    import checks
    from v2i_fairness import experiments
    from v2i_fairness.config import load_config
    from v2i_fairness.sps_analytics import objective_batch
    config = load_config(workloads.CONFIG)
    tally = checks.Tally()
    if name == "sweep":
        ref = checks.SweepReference(config, objective_batch,
                                    experiments.resolve_threshold,
                                    experiments.fairness_inputs)
        checks.check_sweep(rounds, ref, tally)
    elif name == "fig3":
        ref = checks.Fig3Reference(config, objective_batch, experiments.fairness_inputs)
        checks.check_fig3(rounds, ref, tally)
    elif name == "oracle":
        expected = checks.oracle_expectations(experiments.default_oracle_cases())
        checks.check_oracle(rounds, expected, tally)
    else:
        checks.check_sensing(rounds, workloads.SENSING_EVENTS, tally)
    return tally


def layer_metrics(summaries, tally, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer metrics: times are medians over traced rounds, counts exact."""
    first = summaries[0]

    def med(fn) -> float:
        return statistics.median(fn(s) for s in summaries)

    counts = first.counts
    rows = counts.get("nsga2.eval_rows", 0)
    estimate_s = med(lambda s: s.group_s("sps_sim.estimate"))
    reselections = counts.get("sps_sim.reselections", 0)
    table = {
        "experiments.optimize_point.calls": (first.n("experiments.optimize_point"), "count"),
        "experiments.optimize_point.s": (med(lambda s: s.s("experiments.optimize_point")), "s"),
        "nsga2.run.self_s": (med(lambda s: s.self_s("nsga2.run")), "s"),
        "nsga2.non_dominated_sort.s": (med(lambda s: s.s("nsga2.non_dominated_sort")), "s"),
        "nsga2.non_dominated_sort.calls": (first.n("nsga2.non_dominated_sort"), "count"),
        "nsga2.select_survivors.self_s": (med(lambda s: s.self_s("nsga2.select_survivors")), "s"),
        "nsga2.operators.s": (med(lambda s: s.group_s("nsga2.operators")), "s"),
        "nsga2.mutate.calls": (first.n("nsga2.mutate"), "count"),
        "nsga2.snapshot.s": (med(lambda s: s.s("nsga2.snapshot")), "s"),
        "nsga2.snapshot.calls": (first.n("nsga2.snapshot"), "count"),
        "nsga2.eval_rows": (rows, "count"),
        "nsga2.eval_distinct_ratio": (counts.get("nsga2.eval_distinct", 0) / rows if rows else 0.0,
                                      "ratio"),
        "nsga2.gap_to_exact": (tally.extra.get("nsga2.gap_to_exact", 0.0), "ratio"),
        "sps_analytics.objective_batch.s": (med(lambda s: s.s("sps_analytics.objective_batch")), "s"),
        "sps_analytics.objective_batch.rows": (counts.get("objective_batch.rows", 0), "count"),
        "sps_analytics.scalar.s": (med(lambda s: s.group_s("sps_analytics.scalar")), "s"),
        "moo_metrics.evaluate.s": (med(lambda s: s.s("moo_metrics.evaluate")), "s"),
        "moo_metrics.evaluate.calls": (first.n("moo_metrics.evaluate"), "count"),
        "moo_metrics.hypervolume.s": (med(lambda s: s.s("moo_metrics.hypervolume")), "s"),
        "moo_metrics.hypervolume.calls": (first.n("moo_metrics.hypervolume"), "count"),
        "moo_metrics.hypervolume.points": (counts.get("hypervolume.points", 0), "count"),
        "moo_metrics.nondominated.s": (med(lambda s: s.s("moo_metrics.nondominated")), "s"),
        "moo_metrics.nondominated.calls": (first.n("moo_metrics.nondominated"), "count"),
        "moo_metrics.distance.s": (med(lambda s: s.group_s("moo_metrics.distance")), "s"),
        "sps_sim.estimate.s": (estimate_s, "s"),
        "sps_sim.step.self_s": (med(lambda s: s.self_s("sps_sim.step")), "s"),
        "sps_sim.step.calls": (first.n("sps_sim.step"), "count"),
        "sps_sim.reselect.s": (med(lambda s: s.s("sps_sim.reselect")), "s"),
        "sps_sim.reselect.calls": (first.n("sps_sim.reselect"), "count"),
        "sps_sim.reselections_per_cpu_s": (reselections / estimate_s if estimate_s else 0.0, "1/s"),
        "sps_sim.reselections": (reselections, "count"),
        "sps_sim.transmissions": (counts.get("sps_sim.transmissions", 0), "count"),
        "config.load_config.s": (med(lambda s: s.s("config.load_config")), "s"),
        "util.atomic_write_text.s": (med(lambda s: s.s("util.atomic_write_text")), "s"),
        "util.atomic_write_text.bytes": (counts.get("atomic_write_text.bytes", 0), "B"),
        "trace.untraced_cpu_s": (statistics.median(untraced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
        "trace.wrapped_self_s": (med(lambda s: s.wrapped_self), "s"),
    }
    for s in summaries[1:]:
        if s.calls != first.calls or s.counts != first.counts:
            tally.errors.append("call counts differ between traced rounds")
    return table


def digest(rounds: list[dict]) -> str:
    """SHA-256 over the first round's CSVs, to compare runs of one seed."""
    h = hashlib.sha256()
    out = rounds[0].get("out")
    if out is None:
        h.update(repr(rounds[0]["estimates"]).encode())
    else:
        for path in sorted(out.glob("*.csv")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "v2i_fairness" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import v2i_fairness
    if not Path(v2i_fairness.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported {v2i_fairness.__file__}, not the checkout's", file=sys.stderr)
        return 2

    name, seed = args.workload, args.seed
    setup_speed, speed = HostSpeed(), HostSpeed()
    setup_raw = None if args.trace else measure_setup(name, setup_speed)
    workloads.build_inputs(name)   # untimed: imports and lazy set-up

    run_dir = OUT / f"{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    rounds, cpus, walls, traced_cpus, summaries, spans = [], [], [], [], [], []
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        speed.sample()
        result, cpu, wall = one_round(name, seed, run_dir / f"round{len(rounds) + 1:02d}")
        rounds.append(result)
        cpus.append(cpu)
        walls.append(wall)
        if tracer is not None:
            tracer.reset()
            saved = tracing.install(tracer)
            try:
                result, cpu, _ = one_round(name, seed, run_dir / f"round{len(rounds) + 1:02d}")
            finally:
                tracing.uninstall(saved)
            rounds.append(result)
            traced_cpus.append(cpu)
            summaries.append(tracer.summary())
            spans.append(tracer.arrays())
    speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tally = run_checks(name, rounds, seed)
    print(f"{name} seed {seed}: {len(rounds)} rounds, outputs sha256 {digest(rounds)}",
          file=sys.stderr)
    print("untraced rounds, unscaled cpu_s: " + " ".join(f"{c:.3f}" for c in cpus)
          + "; reference loop cpu_s: " + f"{statistics.median(speed.cpu):.5f}", file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)

    if tracer is not None:
        import numpy as np
        metrics = layer_metrics(summaries, tally, cpus, traced_cpus)
        np.savez(OUT / f"trace-{name}.npz", seed=seed, names=np.array(tracer.names),
                 **{f"round{k}_{key}": value for k, arrays in enumerate(spans, 1)
                    for key, value in arrays.items()})
    else:
        print(f"unscaled: cpu_s {statistics.median(cpus):.4f} wall_s "
              f"{statistics.median(walls):.4f} setup_s {setup_raw:.4f}", file=sys.stderr)
        metrics = {
            "cpu_s": (speed.scale_cpu(statistics.median(cpus)), "s"),
            "wall_s": (speed.scale_wall(statistics.median(walls)), "s"),
            "setup_s": (setup_speed.scale_cpu(setup_raw), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    for line in (tally.errors + tally.problems)[:20]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
