"""NSGA-II over integer window vectors, plus the threshold-filtered optimum pick.

One generation: pair parents from a seeded shuffle, single-point crossover,
per-gene uniform-redraw mutation, merge parents and offspring, fast
non-dominated sort, crowding distance, then truncate to the population size.
The merge makes the per-objective minima non-increasing across generations
(elitism), which the metric trends in the experiments rely on.

The final answer is not the whole front: among individuals whose every
objective clears a threshold, the one with the smallest objective sum wins.
An empty feasible set falls back to the unfiltered sum-minimiser and says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .moo_metrics import MetricContext, dominance_matrix, nondominated
from .util import as_rng, atomic_write_text

Genome = tuple[int, ...]
Bounds = tuple[int, int]


@dataclass
class Individual:
    genome: Genome
    objectives: np.ndarray | None = None
    rank: int | None = None
    crowding: float = 0.0


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
               rng=None) -> list[Individual]:
    """M genomes drawn i.i.d. uniform over [w_LB, w_UB]^num_genes."""
    lb, ub = bounds
    if lb > ub:
        raise ValueError(f"need w_LB <= w_UB, got ({lb}, {ub})")
    if num_genes < 1:
        raise ValueError("need at least one gene")
    rng = as_rng(config.rng_seed if rng is None else rng)
    genomes = rng.integers(lb, ub + 1, size=(config.population_size, num_genes))
    return [Individual(genome=tuple(int(g) for g in row)) for row in genomes]


def crossover(parent_a: Genome, parent_b: Genome, rate: float,
              rng=None) -> tuple[Genome, Genome]:
    """Single-point gene exchange with probability `rate`, else plain copies."""
    if len(parent_a) != len(parent_b):
        raise ValueError("parent genomes differ in length")
    rng = as_rng(rng)
    if len(parent_a) >= 2 and rng.random() < rate:
        cut = int(rng.integers(1, len(parent_a)))
        return (parent_a[:cut] + parent_b[cut:], parent_b[:cut] + parent_a[cut:])
    return parent_a, parent_b


def mutate(genome: Genome, rate: float, bounds: Bounds, rng=None) -> Genome:
    """Each gene independently redrawn uniform in bounds with probability `rate`."""
    lb, ub = bounds
    rng = as_rng(rng)
    flips = rng.random(len(genome)) < rate
    draws = rng.integers(lb, ub + 1, size=len(genome))
    return tuple(int(d) if hit else g for g, hit, d in zip(genome, flips, draws))


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


def _survivor_order(population: Sequence[Individual]) -> list[int]:
    """Indices sorted by (rank, -crowding, genome); ranks/crowding must be set."""
    return sorted(range(len(population)),
                  key=lambda i: (population[i].rank,
                                 -population[i].crowding,
                                 population[i].genome))


def select_survivors(population: Sequence[Individual], size: int) -> list[Individual]:
    """Top `size` individuals by (front rank, crowding, genome) from the merge."""
    if len(population) < size:
        raise ValueError(f"cannot select {size} from {len(population)}")
    objectives = np.array([ind.objectives for ind in population], dtype=float)
    for rank, front in enumerate(non_dominated_sort(objectives)):
        dists = crowding_distance(objectives[front])
        for idx, d in zip(front, dists):
            population[idx].rank = rank
            population[idx].crowding = float(d)
    return [population[i] for i in _survivor_order(population)[:size]]


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
    population: list[Individual]
    history: list[GenerationStats] = field(default_factory=list)
    metric_context: MetricContext | None = None

    @property
    def front(self) -> np.ndarray:
        """Objective vectors of the final non-dominated set."""
        objectives = np.array([ind.objectives for ind in self.population])
        return nondominated(objectives)


def _evaluate(population: list[Individual],
              evaluator: Callable[[np.ndarray], np.ndarray]) -> None:
    pending = [ind for ind in population if ind.objectives is None]
    if not pending:
        return
    genomes = np.array([ind.genome for ind in pending])
    values = np.asarray(evaluator(genomes), dtype=float)
    if values.shape[0] != len(pending) or values.ndim != 2:
        raise ValueError(f"evaluator returned shape {values.shape} "
                         f"for {len(pending)} genomes")
    for ind, row in zip(pending, values):
        ind.objectives = row


def run(config: GAConfig, bounds: Bounds, num_genes: int,
        evaluator: Callable[[np.ndarray], np.ndarray],
        metric_context: MetricContext | None = None,
        record_metrics: bool = True) -> RunResult:
    """Alg.-1 loop: shuffle-pair, crossover, mutate, merge, sort, truncate.

    `evaluator` maps an (m, num_genes) genome array to (m, N) objectives and
    must be deterministic.  With `record_metrics`, per-generation stats are
    computed on each generation's first front; GD/IGD default to the final
    front of this very run as reference when no `metric_context` is supplied.
    """
    rng = as_rng(config.rng_seed)
    mutation_rate = (config.mutation_rate if config.mutation_rate is not None
                     else 1.0 / num_genes)
    population = initialize(config, bounds, num_genes, rng=rng)
    _evaluate(population, evaluator)

    initial_objectives = np.array([ind.objectives for ind in population])
    snapshots: list[np.ndarray] = []
    sums: list[float] = []
    feasibles: list[int] = []

    m = config.population_size
    for _ in range(config.max_generations):
        order = rng.permutation(m)
        offspring: list[Individual] = []
        for k in range(0, m, 2):
            a = population[order[k]].genome
            b = population[order[k + 1]].genome
            child_a, child_b = crossover(a, b, config.crossover_rate, rng)
            offspring.append(Individual(mutate(child_a, mutation_rate, bounds, rng)))
            offspring.append(Individual(mutate(child_b, mutation_rate, bounds, rng)))
        _evaluate(offspring, evaluator)
        population = select_survivors(population + offspring, m)

        if record_metrics:
            objectives = np.array([ind.objectives for ind in population])
            snapshots.append(nondominated(objectives))
            sums.append(float(objectives.sum(axis=1).min()))
            feasibles.append(int(np.sum(np.all(objectives <= config.threshold,
                                               axis=1))))

    context = metric_context
    history: list[GenerationStats] = []
    if snapshots:
        if context is None:
            context = MetricContext.from_initial(initial_objectives, snapshots[-1])
        for gen, front in enumerate(snapshots, start=1):
            stats = context.evaluate(front)
            history.append(GenerationStats(
                generation=gen, hypervolume=stats["hypervolume"],
                gd=stats["gd"], igd=stats["igd"], spacing=stats["spacing"],
                best_sum=sums[gen - 1], feasible_count=feasibles[gen - 1]))
    return RunResult(population=population, history=history, metric_context=context)


@dataclass(frozen=True)
class Optimum:
    windows: Genome
    objectives: np.ndarray
    objective_sum: float
    feasible: bool    # False: no individual met the threshold; fell back


def pick_optimum(population: Sequence[Individual], threshold: float) -> Optimum:
    """Sum-minimiser among individuals with every objective <= threshold.

    Falls back to the unfiltered sum-minimiser (flagged via `feasible=False`)
    when nothing clears the threshold; ties break on genome order so equal
    populations always yield the same answer.
    """
    if not population:
        raise ValueError("population is empty")
    evaluated = [ind for ind in population if ind.objectives is not None]
    if len(evaluated) != len(population):
        raise ValueError("population has unevaluated individuals")
    feasible = [ind for ind in evaluated
                if np.all(np.asarray(ind.objectives) <= threshold)]
    pool, flag = (feasible, True) if feasible else (list(evaluated), False)
    best = min(pool, key=lambda ind: (float(np.sum(ind.objectives)), ind.genome))
    return Optimum(windows=best.genome,
                   objectives=np.asarray(best.objectives, dtype=float),
                   objective_sum=float(np.sum(best.objectives)),
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
