"""NSGA-II over integer window vectors, plus the threshold-filtered optimum pick.

The population is an (M, N) integer genome array beside an (M, N) float
objective array, row for row, from the first generation to the result.

One generation: pair parents from a seeded shuffle, single-point crossover,
per-gene uniform-redraw mutation, merge parents and offspring, fast
non-dominated sort, crowding distance, then truncate to the population size.
The merge makes the per-objective minima non-increasing across generations
(elitism), which the metric trends in the experiments rely on.

Each parent pair draws, in this order: `rng.random()` for crossover (only
when N >= 2), `rng.integers(1, N)` for the cut (only when crossover fires),
then `rng.random(N)` and `rng.integers(lb, ub + 1, N)` for the first child's
mutation and the same two draws for the second child's.  The tail swaps and
mutations are applied to the whole offspring array afterwards.  Keeping this
per-pair order keeps the random stream, and so every output, unchanged.

The final answer is not the whole front: among individuals whose every
objective clears a threshold, the one with the smallest objective sum wins.
An empty feasible set falls back to the unfiltered sum-minimiser and says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .moo_metrics import MetricContext, dominance_matrix
from .util import as_rng, atomic_write_text

Genome = tuple[int, ...]
Bounds = tuple[int, int]


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 100    # M, even
    max_generations: int = 100    # N_max
    crossover_rate: float = 0.9
    mutation_rate: float | None = None   # None -> 1/num_genes at run time
    threshold: float = 0.1        # per-objective feasibility cut for pick_optimum
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ConfigError("ga.population_size", "must be even and >= 4")
        if self.max_generations < 0:
            raise ConfigError("ga.max_generations", "must be >= 0")
        for key in ("crossover_rate", "mutation_rate"):
            val = getattr(self, key)
            if val is not None and not (0.0 <= val <= 1.0):
                raise ConfigError(f"ga.{key}", "must lie in [0, 1]")
        if self.threshold <= 0:
            raise ConfigError("ga.threshold", "must be positive")


# operators ------------------------------------------------------------------


def initialize(config: GAConfig, bounds: Bounds, num_genes: int,
               rng=None) -> np.ndarray:
    """(M, num_genes) genomes drawn i.i.d. uniform over [w_LB, w_UB]."""
    lb, ub = bounds
    if lb > ub:
        raise ValueError(f"need w_LB <= w_UB, got ({lb}, {ub})")
    if num_genes < 1:
        raise ValueError("need at least one gene")
    rng = as_rng(config.rng_seed if rng is None else rng)
    return rng.integers(lb, ub + 1, size=(config.population_size, num_genes))


def offspring(parents: np.ndarray, crossover_rate: float, mutation_rate: float,
              bounds: Bounds, rng) -> np.ndarray:
    """Children of the parent pairs (rows 2k, 2k + 1), row for row.

    Each pair exchanges the genes from a uniform cut onwards with probability
    `crossover_rate`; each child gene is then redrawn uniform in bounds with
    probability `mutation_rate`.  Draws follow the module's per-pair order.
    """
    parents = np.asarray(parents)
    m, n = parents.shape
    lb, ub = bounds
    rng = as_rng(rng)
    cuts = np.full(m // 2, n)          # n: the pair does not cross
    flips = np.empty((m, n), dtype=bool)
    draws = np.empty((m, n), dtype=parents.dtype)
    for pair in range(m // 2):
        if n >= 2 and rng.random() < crossover_rate:
            cuts[pair] = rng.integers(1, n)
        for child in (2 * pair, 2 * pair + 1):
            flips[child] = rng.random(n) < mutation_rate
            draws[child] = rng.integers(lb, ub + 1, size=n)
    tail = np.arange(n) >= cuts[:, None]
    first, second = parents[0::2], parents[1::2]
    children = np.empty_like(parents)
    children[0::2] = np.where(tail, second, first)
    children[1::2] = np.where(tail, first, second)
    return np.where(flips, draws, children)


# sorting and selection ------------------------------------------------------


def non_dominated_sort(objectives: np.ndarray) -> list[np.ndarray]:
    """Index fronts F1, F2, ... by Pareto dominance (minimisation)."""
    obj = np.asarray(objectives, dtype=float)
    if obj.ndim != 2 or obj.size == 0:
        raise ValueError(f"expected non-empty (M, N) objectives, got {obj.shape}")
    if not np.all(np.isfinite(obj)):
        raise ValueError("objectives contain non-finite values")
    dominates = dominance_matrix(obj)          # [i, j]: i dominates j
    remaining = dominates.sum(axis=0)          # dominators not yet in a front
    fronts: list[np.ndarray] = []
    assigned = np.zeros(len(obj), dtype=bool)
    while not assigned.all():
        current = np.flatnonzero((remaining == 0) & ~assigned)
        fronts.append(current)
        assigned[current] = True
        remaining = remaining - dominates[current].sum(axis=0)
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Deb's crowding distance for one front; <=2 points are all boundary."""
    obj = np.asarray(objectives, dtype=float)
    if obj.ndim != 2 or obj.size == 0:
        raise ValueError("expected a non-empty (m, N) front")
    m = len(obj)
    if m <= 2:
        return np.full(m, np.inf)
    dist = np.zeros(m)
    for k in range(obj.shape[1]):
        vals = obj[:, k]
        span = vals.max() - vals.min()
        if span == 0.0:
            continue  # objective carries no spread: no contribution, no boundary
        order = np.argsort(vals, kind="stable")
        dist[order[0]] = dist[order[-1]] = np.inf
        interior = order[1:-1]
        dist[interior] += (vals[order[2:]] - vals[order[:-2]]) / span
    return dist


def select_survivors(genomes: np.ndarray, objectives: np.ndarray,
                     size: int) -> np.ndarray:
    """Row indices of the top `size` by (front rank, -crowding, genome)."""
    genomes = np.asarray(genomes)
    objectives = np.asarray(objectives, dtype=float)
    if len(genomes) != len(objectives):
        raise ValueError(f"{len(genomes)} genomes but {len(objectives)} "
                         f"objective rows")
    if len(genomes) < size:
        raise ValueError(f"cannot select {size} from {len(genomes)}")
    rank = np.empty(len(genomes), dtype=int)
    crowding = np.empty(len(genomes))
    for r, front in enumerate(non_dominated_sort(objectives)):
        rank[front] = r
        crowding[front] = crowding_distance(objectives[front])
    # np.lexsort sorts by its last key first and is stable
    order = np.lexsort((*genomes.T[::-1], -crowding, rank))
    return order[:size]


# the driver -----------------------------------------------------------------


@dataclass
class GenerationStats:
    generation: int
    hypervolume: float
    gd: float
    igd: float
    spacing: float
    best_sum: float
    feasible_count: int


@dataclass
class RunResult:
    genomes: np.ndarray        # (M, num_genes) final population
    objectives: np.ndarray     # (M, N), row i scores genomes[i]
    history: list[GenerationStats] = field(default_factory=list)


def run(config: GAConfig, bounds: Bounds, num_genes: int,
        evaluator: Callable[[np.ndarray], np.ndarray],
        metric_context: MetricContext | None = None) -> RunResult:
    """Alg.-1 loop: shuffle-pair, crossover, mutate, merge, sort, truncate.

    The population is an (M, num_genes) genome array and its (M, N)
    objective array.  `evaluator` maps an (m, num_genes) genome array to
    (m, N) objectives and must be deterministic; it sees the initial
    population once and then each generation's offspring.  One seeded
    stream draws the initial genomes, then per generation `permutation(M)`
    and the per-pair draws of :func:`offspring` (crossover, cut, then each
    child's flips and redraws).  Given a `metric_context`, every
    generation's first front is scored against it into `history`; without
    one, no per-generation work beyond the GA itself is done.
    """
    def score(genomes: np.ndarray) -> np.ndarray:
        values = np.asarray(evaluator(genomes), dtype=float)
        if values.ndim != 2 or len(values) != len(genomes):
            raise ValueError(f"evaluator returned shape {values.shape} "
                             f"for {len(genomes)} genomes")
        return values

    rng = as_rng(config.rng_seed)
    mutation_rate = (config.mutation_rate if config.mutation_rate is not None
                     else 1.0 / num_genes)
    m = config.population_size
    genomes = initialize(config, bounds, num_genes, rng=rng)
    objectives = score(genomes)
    history: list[GenerationStats] = []
    for gen in range(1, config.max_generations + 1):
        parents = genomes[rng.permutation(m)]
        children = offspring(parents, config.crossover_rate, mutation_rate,
                             bounds, rng)
        genomes = np.concatenate([genomes, children])
        objectives = np.concatenate([objectives, score(children)])
        keep = select_survivors(genomes, objectives, m)
        genomes, objectives = genomes[keep], objectives[keep]

        if metric_context is not None:
            stats = metric_context.evaluate(objectives)
            history.append(GenerationStats(
                generation=gen, hypervolume=stats["hypervolume"],
                gd=stats["gd"], igd=stats["igd"], spacing=stats["spacing"],
                best_sum=float(objectives.sum(axis=1).min()),
                feasible_count=int(np.sum(np.all(objectives <= config.threshold,
                                                 axis=1)))))
    return RunResult(genomes=genomes, objectives=objectives, history=history)


@dataclass(frozen=True)
class Optimum:
    windows: Genome
    objectives: np.ndarray
    objective_sum: float
    feasible: bool    # False: no individual met the threshold; fell back


def pick_optimum(genomes: np.ndarray, objectives: np.ndarray,
                 threshold: float) -> Optimum:
    """Sum-minimiser among rows with every objective <= threshold.

    Falls back to the unfiltered sum-minimiser (flagged via `feasible=False`)
    when nothing clears the threshold; ties break on genome order so equal
    populations always yield the same answer.
    """
    genomes = np.asarray(genomes)
    objectives = np.asarray(objectives, dtype=float)
    if len(genomes) == 0:
        raise ValueError("population is empty")
    if len(objectives) != len(genomes):
        raise ValueError(f"{len(genomes)} genomes but {len(objectives)} "
                         f"objective rows")
    feasible = np.all(objectives <= threshold, axis=1)
    flag = bool(feasible.any())
    pool = np.flatnonzero(feasible) if flag else np.arange(len(genomes))
    sums = objectives[pool].sum(axis=1)
    i = np.lexsort((*genomes[pool].T[::-1], sums))[0]
    return Optimum(windows=tuple(int(g) for g in genomes[pool[i]]),
                   objectives=objectives[pool[i]],
                   objective_sum=float(sums[i]),
                   feasible=flag)


def write_history(history: Sequence[GenerationStats], path) -> None:
    """Emit the per-generation history CSV (one row per generation)."""
    lines = ["generation,HV,IGD,GD,spacing,best_sum,feasible_count"]
    for stats in history:
        lines.append(",".join([
            str(stats.generation),
            format(stats.hypervolume, ".12g"),
            format(stats.igd, ".12g"),
            format(stats.gd, ".12g"),
            format(stats.spacing, ".12g"),
            format(stats.best_sum, ".12g"),
            str(stats.feasible_count),
        ]))
    atomic_write_text(path, "\n".join(lines) + "\n")
