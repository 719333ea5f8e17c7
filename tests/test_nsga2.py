import numpy as np
import pytest

from v2i_fairness import moo_metrics, nsga2
from v2i_fairness.errors import ConfigError
from v2i_fairness.nsga2 import (
    GAConfig,
    Individual,
    crossover,
    crowding_distance,
    initialize,
    mutate,
    non_dominated_sort,
    pick_optimum,
    run,
    select_survivors,
)

# ---------------------------------------------------------------------------
# brute-force oracles (kept deliberately naive and separate from the library)
# ---------------------------------------------------------------------------


def dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def brute_force_fronts(objectives) -> list[set[int]]:
    """Peel non-dominated layers by direct pairwise comparison."""
    remaining = set(range(len(objectives)))
    fronts = []
    while remaining:
        layer = {i for i in remaining
                 if not any(dominates(objectives[j], objectives[i])
                            for j in remaining if j != i)}
        fronts.append(layer)
        remaining -= layer
    return fronts


def brute_force_crowding(front_objs) -> list[float]:
    m = len(front_objs)
    if m <= 2:
        return [float("inf")] * m
    dist = [0.0] * m
    for k in range(len(front_objs[0])):
        vals = [p[k] for p in front_objs]
        span = max(vals) - min(vals)
        if span == 0:
            continue
        order = sorted(range(m), key=lambda i: vals[i])
        dist[order[0]] = dist[order[-1]] = float("inf")
        for pos in range(1, m - 1):
            if dist[order[pos]] != float("inf"):
                dist[order[pos]] += (vals[order[pos + 1]] - vals[order[pos - 1]]) / span
    return dist


def brute_force_survivors(population, size):
    objs = [tuple(ind.objectives) for ind in population]
    fronts = brute_force_fronts(objs)
    ranked = {}
    for rank, front in enumerate(fronts):
        front = sorted(front)
        dists = brute_force_crowding([objs[i] for i in front])
        for i, d in zip(front, dists):
            ranked[i] = (rank, d)
    order = sorted(range(len(population)),
                   key=lambda i: (ranked[i][0], -ranked[i][1], population[i].genome))
    return [population[i].genome for i in order[:size]]


def brute_force_pick(population, threshold):
    feasible = [ind for ind in population
                if all(o <= threshold for o in ind.objectives)]
    pool = feasible if feasible else list(population)
    return min(pool, key=lambda ind: (sum(ind.objectives), ind.genome)).genome


def toy_evaluator(genomes: np.ndarray) -> np.ndarray:
    g = np.asarray(genomes, dtype=float)
    return np.stack([g.sum(axis=1), ((g - 15.0) ** 2).sum(axis=1)], axis=1)


def make_population(objectives, genomes=None):
    if genomes is None:
        genomes = [(i,) for i in range(len(objectives))]
    return [Individual(genome=tuple(g), objectives=np.asarray(o, dtype=float))
            for g, o in zip(genomes, objectives)]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs, key", [
    (dict(population_size=3), "population_size"),
    (dict(population_size=7), "population_size"),
    (dict(max_generations=-1), "max_generations"),
    (dict(crossover_rate=1.5), "crossover_rate"),
    (dict(mutation_rate=-0.1), "mutation_rate"),
    (dict(threshold=0.0), "threshold"),
])
def test_gaconfig_rejects_invalid(kwargs, key):
    with pytest.raises(ConfigError, match=key):
        GAConfig(**kwargs)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_initialize_degenerate_bounds():
    pop = initialize(GAConfig(population_size=10, rng_seed=3), (7, 7), 4)
    assert all(ind.genome == (7, 7, 7, 7) for ind in pop)


def test_initialize_deterministic():
    a = initialize(GAConfig(rng_seed=11), (0, 15), 4)
    b = initialize(GAConfig(rng_seed=11), (0, 15), 4)
    assert [i.genome for i in a] == [i.genome for i in b]


def test_initialize_uniform_mean():
    pop = initialize(GAConfig(population_size=10_000, rng_seed=0), (0, 15), 4)
    genes = np.array([ind.genome for ind in pop], dtype=float)
    # uniform over 0..15: mean 7.5, var (16^2 - 1)/12
    se = np.sqrt((16.0 ** 2 - 1) / 12.0 / genes.size)
    assert abs(genes.mean() - 7.5) < 3 * se


def test_initialize_rejects_bad_bounds():
    with pytest.raises(ValueError):
        initialize(GAConfig(), (5, 2), 4)


def test_crossover_rate_zero_copies():
    a, b = (1, 2, 3, 4), (5, 6, 7, 8)
    assert crossover(a, b, 0.0, rng=0) == (a, b)


def test_crossover_identical_parents():
    a = (3, 3, 9, 1)
    for seed in range(5):
        assert crossover(a, a, 1.0, rng=seed) == (a, a)


def test_crossover_preserves_locus_multisets():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = tuple(rng.integers(0, 16, 4))
        b = tuple(rng.integers(0, 16, 4))
        c, d = crossover(a, b, 1.0, rng)
        for locus in range(4):
            assert {c[locus], d[locus]} == {a[locus], b[locus]}


def test_crossover_is_single_point():
    a, b = (0, 0, 0, 0), (1, 1, 1, 1)
    child, _ = crossover(a, b, 1.0, rng=2)
    # genes switch source exactly once along the genome
    switches = sum(child[i] != child[i + 1] for i in range(3))
    assert switches == 1


def test_mutate_rate_zero_unchanged():
    g = (4, 9, 0, 15)
    assert mutate(g, 0.0, (0, 15), rng=0) == g


def test_mutate_forced_value_with_degenerate_bounds():
    g = (5, 5, 5)
    assert mutate(g, 1.0, (5, 5), rng=1) == g


def test_mutate_stays_in_bounds():
    rng = np.random.default_rng(4)
    for _ in range(100):
        out = mutate((0, 15, 7, 3), 1.0, (0, 15), rng)
        assert all(0 <= g <= 15 for g in out)


def test_mutate_change_fraction():
    # a redraw can re-hit the old value, so the observable change rate is
    # rate * (1 - 1/(span+1))
    rng = np.random.default_rng(8)
    genome = tuple([7] * 10_000)
    out = mutate(genome, 0.1, (0, 15), rng)
    changed = sum(a != b for a, b in zip(genome, out))
    expect = 0.1 * (1 - 1 / 16.0)
    se = np.sqrt(expect * (1 - expect) / len(genome))
    assert abs(changed / len(genome) - expect) < 3 * se


# ---------------------------------------------------------------------------
# non-dominated sorting and crowding
# ---------------------------------------------------------------------------


def test_sort_strict_dominance():
    fronts = non_dominated_sort(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert [set(f) for f in fronts] == [{0}, {1}]


def test_sort_mutual_nondominance():
    fronts = non_dominated_sort(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert [set(f) for f in fronts] == [{0, 1}]


def test_sort_rejects_nonfinite():
    with pytest.raises(ValueError):
        non_dominated_sort(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("seed", range(20))
def test_sort_matches_brute_force_200_points(seed):
    rng = np.random.default_rng(seed)
    objs = rng.uniform(0, 1, size=(200, 3))
    fronts = non_dominated_sort(objs)
    expected = brute_force_fronts([tuple(row) for row in objs])
    assert len(fronts) == len(expected)
    for got, want in zip(fronts, expected):
        assert set(got) == want


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("seed", range(10))
def test_sort_matches_brute_force_in_index_order_with_ties(dim, seed):
    """Integers in 0..3 give duplicate rows and per-objective ties."""
    rng = np.random.default_rng(seed)
    objs = rng.integers(0, 4, size=(int(rng.integers(2, 80)), dim)).astype(float)
    fronts = non_dominated_sort(objs)
    expected = brute_force_fronts([tuple(row) for row in objs])
    assert [f.tolist() for f in fronts] == [sorted(layer) for layer in expected]


def test_sort_single_row_and_all_equal_rows():
    assert [f.tolist() for f in non_dominated_sort(np.array([[1.0, 2.0]]))] == [[0]]
    fronts = non_dominated_sort(np.full((6, 4), 3.0))
    assert [f.tolist() for f in fronts] == [[0, 1, 2, 3, 4, 5]]


def test_sort_partitions_population():
    rng = np.random.default_rng(123)
    objs = rng.uniform(0, 1, size=(64, 4))
    fronts = non_dominated_sort(objs)
    flat = np.concatenate(fronts)
    assert sorted(flat) == list(range(64))


def test_crowding_small_fronts_all_infinite():
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]))))
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))))


def test_crowding_equidistant_triple():
    front = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    dist = crowding_distance(front)
    assert np.isinf(dist[0]) and np.isinf(dist[2])
    assert dist[1] == pytest.approx(2.0)


def test_crowding_duplicates_no_blowup():
    front = np.array([[1.0, 1.0]] * 5)
    dist = crowding_distance(front)
    assert np.all(np.isfinite(dist)) and np.all(dist >= 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_crowding_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    front = rng.uniform(0, 1, size=(30, 3))
    got = crowding_distance(front)
    want = brute_force_crowding([tuple(r) for r in front])
    np.testing.assert_allclose(got, want)


# ---------------------------------------------------------------------------
# survivor selection
# ---------------------------------------------------------------------------


def test_select_survivors_first_front_exact_fit():
    pop = make_population([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0],
                           [5.0, 5.0], [6.0, 6.0]])
    out = select_survivors(pop, 4)
    assert {ind.genome for ind in out} == {(0,), (1,), (2,), (3,)}
    assert all(ind.rank == 0 for ind in out)


def test_select_survivors_single_slot():
    pop = make_population([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [4.0, 4.0]])
    out = select_survivors(pop, 1)
    assert len(out) == 1
    assert out[0].rank == 0
    assert np.isinf(out[0].crowding)


def test_select_survivors_rejects_undersized():
    with pytest.raises(ValueError):
        select_survivors(make_population([[1.0, 1.0]]), 2)


@pytest.mark.parametrize("seed", range(15))
def test_select_survivors_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    objs = rng.uniform(0, 1, size=(40, 3)).round(2)   # rounding forces ties
    genomes = [tuple(g) for g in rng.integers(0, 16, size=(40, 4))]
    pop = make_population(objs, genomes)
    got = [ind.genome for ind in select_survivors(pop, 20)]
    assert got == brute_force_survivors(pop, 20)


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------


def test_run_zero_generations_returns_initial():
    cfg = GAConfig(population_size=12, max_generations=0, rng_seed=5)
    out = run(cfg, (0, 15), 4, toy_evaluator)
    init = initialize(cfg, (0, 15), 4)
    assert [i.genome for i in out.population] == [i.genome for i in init]
    assert out.history == []


def test_run_deterministic():
    cfg = GAConfig(population_size=20, max_generations=10, rng_seed=21)
    a = run(cfg, (0, 15), 4, toy_evaluator)
    b = run(cfg, (0, 15), 4, toy_evaluator)
    assert [i.genome for i in a.population] == [i.genome for i in b.population]
    assert [(s.hypervolume, s.gd, s.best_sum) for s in a.history] == \
           [(s.hypervolume, s.gd, s.best_sum) for s in b.history]


def test_run_seed_changes_outcome():
    cfg = GAConfig(population_size=20, max_generations=5, rng_seed=1)
    other = GAConfig(population_size=20, max_generations=5, rng_seed=2)
    a = run(cfg, (0, 15), 4, toy_evaluator)
    b = run(other, (0, 15), 4, toy_evaluator)
    assert [i.genome for i in a.population] != [i.genome for i in b.population]


def test_run_single_objective_elitism():
    def single(genomes):
        return np.asarray(genomes, dtype=float).sum(axis=1, keepdims=True)

    cfg = GAConfig(population_size=16, max_generations=15, rng_seed=2)
    out = run(cfg, (0, 15), 3, single, record_metrics=False)
    init = initialize(cfg, (0, 15), 3)
    best_init = min(sum(i.genome) for i in init)
    best_final = min(sum(i.genome) for i in out.population)
    assert best_final <= best_init


def test_run_best_sum_never_increases():
    cfg = GAConfig(population_size=20, max_generations=25, rng_seed=7)
    out = run(cfg, (0, 15), 4, toy_evaluator, record_metrics=True)
    sums = [s.best_sum for s in out.history]
    assert all(b <= a + 1e-12 for a, b in zip(sums, sums[1:]))


def test_run_per_objective_minima_nonincreasing():
    """Merge-then-truncate keeps each objective's incumbent best."""
    cfg = GAConfig(population_size=20, max_generations=12, rng_seed=13)
    # track generation-wise minima through a recording evaluator
    seen = []

    def recording(genomes):
        vals = toy_evaluator(genomes)
        seen.append(vals)
        return vals

    out = run(cfg, (0, 15), 4, recording, record_metrics=False)
    final = np.array([ind.objectives for ind in out.population])
    all_evaluated = np.vstack(seen)
    np.testing.assert_allclose(final.min(axis=0), all_evaluated.min(axis=0))


def test_run_without_metrics_takes_no_front_snapshots(monkeypatch):
    calls = []
    original = moo_metrics.nondominated

    def counting(points):
        calls.append(len(points))
        return original(points)

    monkeypatch.setattr(nsga2, "nondominated", counting)
    monkeypatch.setattr(moo_metrics, "nondominated", counting)
    cfg = GAConfig(population_size=20, max_generations=6, rng_seed=4)
    out = run(cfg, (0, 15), 4, toy_evaluator, record_metrics=False)
    assert calls == []
    assert out.history == []
    run(cfg, (0, 15), 4, toy_evaluator, record_metrics=True)
    assert len(calls) >= cfg.max_generations     # the counter does see snapshots


def test_run_emits_one_record_per_generation():
    cfg = GAConfig(population_size=12, max_generations=8, rng_seed=0)
    out = run(cfg, (0, 15), 4, toy_evaluator)
    assert [s.generation for s in out.history] == list(range(1, 9))
    for s in out.history:
        assert np.isfinite([s.hypervolume, s.gd, s.igd, s.spacing]).all()


def test_run_bounds_closure():
    cfg = GAConfig(population_size=16, max_generations=10, rng_seed=3)
    out = run(cfg, (2, 9), 4, toy_evaluator, record_metrics=False)
    for ind in out.population:
        assert all(2 <= g <= 9 for g in ind.genome)


# ---------------------------------------------------------------------------
# pick_optimum
# ---------------------------------------------------------------------------


def test_pick_optimum_single_feasible():
    pop = make_population([[0.05, 0.05], [0.5, 0.01], [0.3, 0.3]])
    out = pick_optimum(pop, threshold=0.1)
    assert out.windows == (0,)
    assert out.feasible


def test_pick_optimum_infinite_threshold_global_minimum():
    pop = make_population([[0.4, 0.4], [0.1, 0.6], [0.3, 0.3]])
    out = pick_optimum(pop, threshold=np.inf)
    assert out.windows == (2,)
    assert out.objective_sum == pytest.approx(0.6)


def test_pick_optimum_flags_fallback():
    pop = make_population([[0.4, 0.4], [0.2, 0.5]])
    out = pick_optimum(pop, threshold=0.01)
    assert not out.feasible
    assert out.windows == (1,)   # smaller sum even though infeasible


def test_pick_optimum_empty_population_raises():
    with pytest.raises(ValueError):
        pick_optimum([], threshold=0.1)


@pytest.mark.parametrize("seed", range(12))
def test_pick_optimum_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    objs = rng.uniform(0, 1, size=(50, 4)).round(1)
    genomes = [tuple(g) for g in rng.integers(0, 16, size=(50, 4))]
    pop = make_population(objs, genomes)
    threshold = float(np.median(objs.max(axis=1)))
    assert pick_optimum(pop, threshold).windows == brute_force_pick(pop, threshold)
