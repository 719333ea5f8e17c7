"""NSGA-II over integer window vectors, plus the threshold-filtered optimum pick.

The population is an (M, N) integer genome array beside an (M, N) float
objective array, row for row, from the first generation to the result.

One generation: pair parents from a seeded shuffle, single-point crossover,
per-gene uniform-redraw mutation, merge parents and offspring, peel the
fronts that can survive (one `scan_order` to merge equal rows, one dominator
bitset per distinct row, then one AND per front), crowding distance, then
truncate to M.
The merge makes the per-objective minima non-increasing across generations
(elitism), which the metric trends in the experiments rely on.

One generation takes its draws as four whole arrays, in this order:
`rng.random(M/2)` crossover coins, `rng.integers(1, N, M/2)` cuts (only when
N >= 2; a pair whose coin misses ignores its cut), `rng.random((M, N))`
mutation flips and `rng.integers(lb, ub + 1, (M, N))` redraws.  So a
generation makes the same few generator calls whatever M is.

The final answer is not the whole front: among individuals whose every
objective clears a threshold, the one with the smallest objective sum wins.
An empty feasible set falls back to the unfiltered sum-minimiser and says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .moo_metrics import MetricContext, scan_order
from .sps_analytics import _is_int
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
        if (not _is_int(self.population_size) or self.population_size < 4
                or self.population_size % 2):
            raise ConfigError("ga.population_size", "must be an even integer >= 4")
        if not _is_int(self.max_generations) or self.max_generations < 0:
            raise ConfigError("ga.max_generations", "must be an integer >= 0")
        for key in ("crossover_rate", "mutation_rate"):
            val = getattr(self, key)
            if val is not None and not (0.0 <= val <= 1.0):
                raise ConfigError(f"ga.{key}", "must lie in [0, 1]")
        if not (0 < self.threshold < math.inf):
            raise ConfigError("ga.threshold", "must be finite and positive")


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
    probability `mutation_rate`.  Coins, cuts, flips and redraws are drawn
    as whole arrays in the module's order.
    """
    parents = np.asarray(parents)
    m, n = parents.shape
    lb, ub = bounds
    rng = as_rng(rng)
    crosses = rng.random(m // 2) < crossover_rate
    cuts = np.full(m // 2, n)          # n: the pair does not cross
    if n >= 2:
        cuts[crosses] = rng.integers(1, n, m // 2)[crosses]
    flips = rng.random((m, n)) < mutation_rate
    draws = rng.integers(lb, ub + 1, (m, n))
    tail = np.arange(n) >= cuts[:, None]
    first, second = parents[0::2], parents[1::2]
    children = np.empty_like(parents)
    children[0::2] = np.where(tail, second, first)
    children[1::2] = np.where(tail, first, second)
    return np.where(flips, draws, children)


# sorting and selection ------------------------------------------------------


def _dominators(pts: np.ndarray) -> np.ndarray:
    """(n, ceil(n/64)) uint64 words: bit i of row j is set when row i is <=
    row j in every objective and i != j.

    Built one column at a time: the rows in argsort order each set their own
    bit, `bitwise_or.accumulate` turns those into "rows sorted so far", and
    each row takes the prefix that ends at the last row of its run of equal
    values, so ties count as <=.  The columns are ANDed and the diagonal
    cleared.  At most three (n, ceil(n/64)) word arrays live at once, 47 KiB
    each at 600 rows; no (n, n) array is made.
    """
    n = len(pts)
    rows = np.arange(n)
    word = rows >> 6
    bit = np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))
    dom = np.full((n, (n + 63) // 64), np.iinfo(np.uint64).max, dtype=np.uint64)
    for column in pts.T:
        order = np.argsort(column)    # any kind: ties are read at run ends
        below = np.zeros_like(dom)
        below[rows, word[order]] = bit[order]
        np.bitwise_or.accumulate(below, axis=0, out=below)
        step = column[order[1:]] != column[order[:-1]]
        run = np.concatenate(([0], np.cumsum(step)))
        at = np.empty(n, dtype=np.intp)
        at[order] = np.append(np.flatnonzero(step), n - 1)[run]
        dom &= below[at]
    dom[rows, word] &= ~bit
    return dom


def non_dominated_sort(objectives: np.ndarray,
                       size: int | None = None) -> list[np.ndarray]:
    """Index fronts F1, F2, ... by Pareto dominance (minimisation).

    Equal rows are merged with `moo_metrics.scan_order`; among the distinct
    rows, weak dominance by another row is strict dominance.  Each distinct
    row's dominators come as one bitset (`_dominators`), and a front is the
    unranked rows with no live dominator bit: one AND and `any` per front,
    with no comparison made twice (after Moreno, Rodriguez, Nebro & Lozano
    2021, merge non-dominated sorting).  Memory is O(n^2 / 64) words for n
    distinct rows: 47 KiB per word array at 600 rows, and a traced peak of
    about 0.23 MiB at 600 rows and 1.7 MiB at 2,000.  Every copy of a row
    joins its front, and fronts list their rows in index order.  With
    `size`, peeling stops once the fronts found hold at least `size` rows:
    the shortest prefix of the full partition that covers `size` rows.
    """
    obj = np.asarray(objectives, dtype=float)
    if obj.ndim != 2 or obj.size == 0:
        raise ValueError(f"expected non-empty (M, N) objectives, got {obj.shape}")
    if not np.all(np.isfinite(obj)):
        raise ValueError("objectives contain non-finite values")
    goal = len(obj) if size is None else min(size, len(obj))
    order, first = scan_order(obj)
    group = np.cumsum(first) - 1               # distinct row of each sorted row
    pts = obj[order[first]]
    copies = np.bincount(group)
    dom = _dominators(pts)
    alive = np.zeros(dom.shape[1] * 64, dtype=bool)
    alive[:len(pts)] = True
    rank = np.full(len(pts), -1)
    rest = np.arange(len(pts))                 # distinct rows not yet ranked
    depth = covered = 0
    while covered < goal:
        live = np.packbits(alive, bitorder="little").view("<u8")
        blocked = (dom[rest] & live).any(axis=1)
        front = rest[~blocked]
        rank[front] = depth
        covered += copies[front].sum()
        alive[front] = False
        rest = rest[blocked]
        depth += 1
    row_rank = np.empty(len(obj), dtype=int)
    row_rank[order] = rank[group]
    return [np.flatnonzero(row_rank == k) for k in range(depth)]


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
    if not 1 <= size <= len(genomes):
        raise ValueError(f"cannot select {size} from {len(genomes)}")
    # fronts past the first `size` rows never survive (Deb et al. 2002)
    fronts = non_dominated_sort(objectives, size)
    ranked = np.concatenate(fronts)
    rank = np.repeat(np.arange(len(fronts)), [len(f) for f in fronts])
    crowding = np.concatenate([crowding_distance(objectives[f]) for f in fronts])
    # np.lexsort sorts by its last key first and is stable
    order = np.lexsort((*genomes[ranked].T[::-1], -crowding, rank))
    return ranked[order[:size]]


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
        reference_front: np.ndarray | None = None) -> RunResult:
    """Alg.-1 loop: shuffle-pair, crossover, mutate, merge, sort, truncate.

    The population is an (M, num_genes) genome array and its (M, N)
    objective array.  `evaluator` maps an (m, num_genes) genome array to
    (m, N) objectives and must be deterministic; it sees the initial
    population once and then each generation's offspring.  One seeded
    stream draws the initial genomes, then per generation `permutation(M)`
    and the array draws of :func:`offspring` (coins, cuts, flips, redraws):
    the same number of generator calls whatever M is.  Given a
    `reference_front`, every generation's first front is scored into
    `history` against it and the HV reference point of the initial
    objectives (`MetricContext.from_initial`); without one, no
    per-generation work beyond the GA itself is done.
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
    context = (None if reference_front is None
               else MetricContext.from_initial(objectives, reference_front))
    history: list[GenerationStats] = []
    for gen in range(1, config.max_generations + 1):
        parents = genomes[rng.permutation(m)]
        children = offspring(parents, config.crossover_rate, mutation_rate,
                             bounds, rng)
        genomes = np.concatenate([genomes, children])
        objectives = np.concatenate([objectives, score(children)])
        keep = select_survivors(genomes, objectives, m)
        genomes, objectives = genomes[keep], objectives[keep]

        if context is not None:
            stats = context.evaluate(objectives)
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
