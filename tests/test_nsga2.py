from dataclasses import replace

import numpy as np
import pytest

from test_moo_metrics import tied_sum_rows
from v2i_fairness import experiments, moo_metrics, nsga2
from v2i_fairness.config import ExperimentConfig
from v2i_fairness.errors import ConfigError
from v2i_fairness.nsga2 import (
    GAConfig,
    crowding_distance,
    initialize,
    non_dominated_sort,
    offspring,
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


def brute_force_survivors(genomes, objectives, size):
    genomes = [tuple(int(g) for g in row) for row in genomes]
    objs = [tuple(row) for row in objectives]
    fronts = brute_force_fronts(objs)
    ranked = {}
    for rank, front in enumerate(fronts):
        front = sorted(front)
        dists = brute_force_crowding([objs[i] for i in front])
        for i, d in zip(front, dists):
            ranked[i] = (rank, d)
    order = sorted(range(len(genomes)),
                   key=lambda i: (ranked[i][0], -ranked[i][1], genomes[i]))
    return [genomes[i] for i in order[:size]]


def brute_force_pick(genomes, objectives, threshold):
    rows = [(tuple(int(g) for g in genome), tuple(obj))
            for genome, obj in zip(genomes, objectives)]
    feasible = [row for row in rows if all(o <= threshold for o in row[1])]
    pool = feasible if feasible else rows
    return min(pool, key=lambda row: (sum(row[1]), row[0]))[0]


def reference_offspring(parents, crossover_rate, mutation_rate, bounds, rng):
    """Per-pair crossover/mutate tuple loop over ``offspring``'s four arrays.

    The arrays are drawn in the module's order (coins, cuts only when N >= 2,
    flips, redraws); the loop then reads them pair by pair and gene by gene.
    """
    lb, ub = bounds
    m, n = len(parents), len(parents[0])
    coins = rng.random(m // 2)
    cuts = rng.integers(1, n, m // 2) if n >= 2 else None
    flips = rng.random((m, n))
    draws = rng.integers(lb, ub + 1, (m, n))

    def crossover(pair, parent_a, parent_b):
        if n >= 2 and coins[pair] < crossover_rate:
            cut = int(cuts[pair])
            return (parent_a[:cut] + parent_b[cut:], parent_b[:cut] + parent_a[cut:])
        return parent_a, parent_b

    def mutate(row, genome):
        return tuple(int(draws[row][k]) if flips[row][k] < mutation_rate else g
                     for k, g in enumerate(genome))

    children = []
    for k in range(0, m, 2):
        child_a, child_b = crossover(k // 2, tuple(int(g) for g in parents[k]),
                                     tuple(int(g) for g in parents[k + 1]))
        children += [mutate(k, child_a), mutate(k + 1, child_b)]
    return children


class CountingGenerator:
    """A numpy Generator that counts the calls made to it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def toy_evaluator(genomes: np.ndarray) -> np.ndarray:
    g = np.asarray(genomes, dtype=float)
    return np.stack([g.sum(axis=1), ((g - 15.0) ** 2).sum(axis=1)], axis=1)


# the toy problem's Pareto front: equal genes trade the sum against the
# squared distance to 15
TOY_FRONT = toy_evaluator(np.repeat(np.arange(16)[:, None], 4, axis=1))


def make_population(objectives, genomes=None):
    """(genomes, objectives) arrays; genome i defaults to (i,)."""
    if genomes is None:
        genomes = [(i,) for i in range(len(objectives))]
    return np.array(genomes), np.asarray(objectives, dtype=float)


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
    assert pop.shape == (10, 4)
    assert np.all(pop == 7)


def test_initialize_deterministic():
    a = initialize(GAConfig(rng_seed=11), (0, 15), 4)
    b = initialize(GAConfig(rng_seed=11), (0, 15), 4)
    np.testing.assert_array_equal(a, b)


def test_initialize_uniform_mean():
    pop = initialize(GAConfig(population_size=10_000, rng_seed=0), (0, 15), 4)
    genes = pop.astype(float)
    # uniform over 0..15: mean 7.5, var (16^2 - 1)/12
    se = np.sqrt((16.0 ** 2 - 1) / 12.0 / genes.size)
    assert abs(genes.mean() - 7.5) < 3 * se


def test_initialize_rejects_bad_bounds():
    with pytest.raises(ValueError):
        initialize(GAConfig(), (5, 2), 4)


@pytest.mark.parametrize("num_genes", [1, 4])
@pytest.mark.parametrize("bounds", [(0, 15), (5, 5)])
@pytest.mark.parametrize("mutation_rate", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("crossover_rate", [0.0, 0.9, 1.0])
def test_offspring_matches_per_pair_reference(crossover_rate, mutation_rate,
                                              bounds, num_genes):
    """Same children and the same random stream as the per-pair tuple loop
    fed the same arrays."""
    for seed in range(3):
        parents = np.random.default_rng(100 + seed).integers(
            bounds[0], bounds[1] + 1, size=(40, num_genes))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = offspring(parents, crossover_rate, mutation_rate, bounds, rng)
        want = reference_offspring(parents, crossover_rate, mutation_rate,
                                   bounds, ref_rng)
        assert [tuple(row) for row in got.tolist()] == want
        assert rng.random() == ref_rng.random()   # stream left in the same state


@pytest.mark.parametrize("num_genes", [1, 4])
def test_a_generation_makes_a_fixed_number_of_generator_calls(monkeypatch,
                                                              num_genes):
    """One permutation plus offspring's array draws, whatever M is."""
    per_generation = []
    for population_size in (4, 20, 300):
        calls = []
        for generations in (1, 3):
            rng = CountingGenerator(0)
            monkeypatch.setattr(nsga2, "as_rng", lambda seed: rng)
            run(GAConfig(population_size=population_size,
                         max_generations=generations),
                (0, 15), num_genes, toy_evaluator)
            calls.append(rng.calls)
        per_generation.append((calls[1] - calls[0]) / 2)
    assert per_generation == [5 if num_genes >= 2 else 4] * 3


def test_crossover_rate_zero_copies():
    parents = np.array([(1, 2, 3, 4), (5, 6, 7, 8)])
    np.testing.assert_array_equal(
        offspring(parents, 0.0, 0.0, (0, 15), 0), parents)


def test_crossover_identical_parents():
    parents = np.array([(3, 3, 9, 1)] * 2)
    for seed in range(5):
        np.testing.assert_array_equal(
            offspring(parents, 1.0, 0.0, (0, 15), seed), parents)


def test_crossover_preserves_locus_multisets():
    rng = np.random.default_rng(9)
    parents = rng.integers(0, 16, size=(400, 4))
    children = offspring(parents, 1.0, 0.0, (0, 15), rng)
    for k in range(0, 400, 2):
        for locus in range(4):
            assert ({children[k, locus], children[k + 1, locus]}
                    == {parents[k, locus], parents[k + 1, locus]})


def test_crossover_is_single_point():
    parents = np.array([(0, 0, 0, 0), (1, 1, 1, 1)] * 50)
    children = offspring(parents, 1.0, 0.0, (0, 15), 2)
    # genes switch source exactly once along every genome
    switches = (children[:, 1:] != children[:, :-1]).sum(axis=1)
    assert np.all(switches == 1)


def test_mutate_rate_zero_unchanged():
    parents = np.array([(4, 9, 0, 15), (2, 2, 7, 1)])
    np.testing.assert_array_equal(
        offspring(parents, 0.0, 0.0, (0, 15), 0), parents)


def test_mutate_forced_value_with_degenerate_bounds():
    parents = np.full((2, 3), 5)
    np.testing.assert_array_equal(
        offspring(parents, 1.0, 1.0, (5, 5), 1), parents)


def test_mutate_stays_in_bounds():
    rng = np.random.default_rng(4)
    parents = np.array([(0, 15, 7, 3)] * 200)
    out = offspring(parents, 0.9, 1.0, (0, 15), rng)
    assert np.all((out >= 0) & (out <= 15))


def test_mutate_change_fraction():
    # a redraw can re-hit the old value, so the observable change rate is
    # rate * (1 - 1/(span+1))
    rng = np.random.default_rng(8)
    parents = np.full((2, 5_000), 7)
    out = offspring(parents, 0.0, 0.1, (0, 15), rng)
    changed = int(np.sum(out != parents))
    expect = 0.1 * (1 - 1 / 16.0)
    se = np.sqrt(expect * (1 - expect) / parents.size)
    assert abs(changed / parents.size - expect) < 3 * se


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


@pytest.mark.parametrize("objs", [
    *(np.random.default_rng(rows).integers(0, 10, size=(rows, 4)).astype(float)
      for rows in (300, 600)),
    # the float sums tie (1e16 + 1 rounds to 1e16); the dominator comes last
    np.array([[1e16, 1.0]] * 299 + [[1e16, 0.0]]),
], ids=["int-300", "int-600", "float-sum-tie"])
def test_sort_matches_brute_force_in_index_order_across_scan_blocks(objs):
    """Above `moo_metrics.NONDOMINATED_BLOCK` rows `front_mask` scans in
    blocks and the sort's dominator bitsets span several 64-row words;
    600 rows is the merge of a default population."""
    assert len(objs) > moo_metrics.NONDOMINATED_BLOCK
    fronts = non_dominated_sort(objs)
    expected = brute_force_fronts([tuple(row) for row in objs])
    assert [f.tolist() for f in fronts] == [sorted(layer) for layer in expected]


@pytest.mark.parametrize("seed", range(10))
def test_sort_with_size_is_the_shortest_covering_prefix(seed):
    rng = np.random.default_rng(seed)
    random_objs = rng.uniform(0, 1, size=(60, 3))
    tied = rng.integers(0, 4, size=(60, 2)).astype(float)
    for objs in (random_objs, tied):
        full = non_dominated_sort(objs)
        covered = np.cumsum([len(f) for f in full])
        for size in (1, len(full[0]), len(full[0]) + 1, 30, len(objs)):
            shortest = int(np.searchsorted(covered, size)) + 1
            assert ([f.tolist() for f in non_dominated_sort(objs, size)]
                    == [f.tolist() for f in full[:shortest]])


@pytest.mark.parametrize("seed", range(5))
def test_sort_with_size_counts_every_copy(seed):
    """Nine distinct rows among 40, so most covering boundaries fall inside
    a run of copies: the front holding them comes back whole, every copy in
    index order, and the fronts are the shortest covering prefix."""
    objs = np.random.default_rng(seed).integers(0, 3, size=(40, 2)).astype(float)
    expected = [sorted(layer)
                for layer in brute_force_fronts([tuple(row) for row in objs])]
    covered = np.cumsum([len(layer) for layer in expected])
    assert len(np.unique(objs, axis=0)) < len(objs)
    for size in range(1, len(objs) + 1):
        shortest = int(np.searchsorted(covered, size)) + 1
        assert ([f.tolist() for f in non_dominated_sort(objs, size)]
                == expected[:shortest])


@pytest.mark.parametrize("count", [8, 299], ids=["one-block", "two-blocks"])
@pytest.mark.parametrize("dominator_first", [True, False])
def test_sort_float_sum_ties_in_either_row_order(count, dominator_first):
    """Distinct rows whose float sums tie, within one 64-row dominator word
    and across five: the dominator is ranked alone first wherever it sits."""
    objs = tied_sum_rows(count, dominator_first)
    fronts = non_dominated_sort(objs)
    expected = brute_force_fronts([tuple(row) for row in objs])
    assert [f.tolist() for f in fronts] == [sorted(layer) for layer in expected]
    assert [len(f) for f in fronts] == [1, count]


def assert_sort_matches_brute_force_with_every_size(objs):
    expected = [sorted(layer)
                for layer in brute_force_fronts([tuple(row) for row in objs])]
    assert [f.tolist() for f in non_dominated_sort(objs)] == expected
    covered = np.cumsum([len(layer) for layer in expected])
    for size in range(1, len(objs) + 1):
        shortest = int(np.searchsorted(covered, size)) + 1
        assert ([f.tolist() for f in non_dominated_sort(objs, size)]
                == expected[:shortest])
    return expected


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("rows", [63, 64, 65, 127, 128, 129])
def test_sort_matches_brute_force_at_word_edges(rows, dim):
    """The dominators of a row are bits in 64-row words: integers in 0..3
    put duplicates and per-objective ties on both sides of a word edge, and
    every `size` gives the shortest covering prefix."""
    objs = np.random.default_rng([rows, dim]).integers(
        0, 4, size=(rows, dim)).astype(float)
    expected = assert_sort_matches_brute_force_with_every_size(objs)
    if dim == 1:
        assert all(len(np.unique(objs[layer])) == 1 for layer in expected)


@pytest.mark.parametrize("distinct", [63, 64, 65, 127, 128, 129])
def test_sort_matches_brute_force_with_distinct_rows_at_word_edges(distinct):
    """Bits count distinct rows, so here the distinct rows themselves number
    63 to 129: drawn without replacement from the 4^5 integer grid in 0..3,
    then 20 copies of drawn rows are shuffled in."""
    rng = np.random.default_rng(distinct)
    cells = rng.choice(4 ** 5, size=distinct, replace=False)
    rows = (cells[:, None] // 4 ** np.arange(5)) % 4
    objs = rng.permutation(np.concatenate(
        [rows, rows[rng.integers(0, distinct, 20)]])).astype(float)
    assert len(np.unique(objs, axis=0)) == distinct
    assert_sort_matches_brute_force_with_every_size(objs)


@pytest.mark.parametrize("seed", range(5))
def test_dominator_bits_are_the_weak_dominance_relation(seed):
    """Bit i of row j is set exactly when row i is <= row j in every
    objective and i != j, across three words with ties in every column."""
    pts = np.random.default_rng(seed).integers(0, 3, size=(150, 3)).astype(float)
    dom = nsga2._dominators(pts)
    assert dom.shape == (150, 3) and dom.dtype == np.uint64
    bits = np.unpackbits(dom.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little").astype(bool)
    want = moo_metrics.weakly_dominates(pts, pts).T
    np.fill_diagonal(want, False)
    assert np.array_equal(bits[:, :150], want)
    assert not bits[:, 150:].any()


def reference_sort(objectives, size=None):
    """The sort as it was before the dominator bitsets: one `scan_order`,
    then `moo_metrics.front_mask` of the distinct rows not yet ranked for
    each front."""
    obj = np.asarray(objectives, dtype=float)
    goal = len(obj) if size is None else min(size, len(obj))
    order, first = moo_metrics.scan_order(obj)
    group = np.cumsum(first) - 1
    pts = obj[order[first]]
    copies = np.bincount(group)
    rank = np.full(len(pts), -1)
    rest = np.arange(len(pts))
    depth = covered = 0
    while covered < goal:
        current = moo_metrics.front_mask(pts[rest])
        rank[rest[current]] = depth
        covered += copies[rest[current]].sum()
        rest = rest[~current]
        depth += 1
    row_rank = np.empty(len(obj), dtype=int)
    row_rank[order] = rank[group]
    return [np.flatnonzero(row_rank == k) for k in range(depth)]


@pytest.mark.parametrize("generations", [8, 100])
def test_sort_matches_the_block_scan_on_every_merge_of_a_ga_point(
        monkeypatch, generations):
    """Every merge `select_survivors` sees in one population-300 GA point
    at 25 m/s is ranked as the per-front `front_mask` peel ranked it."""
    merges = []
    select = nsga2.select_survivors

    def capture(genomes, objectives, size):
        merges.append((objectives.copy(), size))
        return select(genomes, objectives, size)

    monkeypatch.setattr(nsga2, "select_survivors", capture)
    config = ExperimentConfig()
    experiments.optimize_point(
        replace(config, ga=replace(config.ga, max_generations=generations)),
        25.0, 2)
    assert len(merges) == generations
    assert {len(obj) for obj, _ in merges} == {600}
    for obj, size in merges:
        got = non_dominated_sort(obj, size)
        want = reference_sort(obj, size)
        assert [f.tolist() for f in got] == [f.tolist() for f in want]


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
    genomes, objs = make_population([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0],
                                     [3.0, 0.0], [5.0, 5.0], [6.0, 6.0]])
    keep = select_survivors(genomes, objs, 4)
    assert {tuple(g) for g in genomes[keep].tolist()} == {(0,), (1,), (2,), (3,)}
    assert set(keep.tolist()) == set(non_dominated_sort(objs)[0].tolist())


def test_select_survivors_single_slot():
    genomes, objs = make_population([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0],
                                     [4.0, 4.0]])
    keep = select_survivors(genomes, objs, 1)
    assert len(keep) == 1
    front = non_dominated_sort(objs)[0].tolist()
    assert keep[0] in front
    assert np.isinf(crowding_distance(objs[front])[front.index(keep[0])])


def test_select_survivors_rejects_undersized():
    with pytest.raises(ValueError):
        select_survivors(*make_population([[1.0, 1.0]]), 2)
    with pytest.raises(ValueError, match="cannot select 0"):
        select_survivors(*make_population([[1.0, 1.0]]), 0)


def test_select_survivors_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        select_survivors(np.zeros((3, 2), dtype=int), np.zeros((2, 2)), 1)


@pytest.mark.parametrize("seed", range(15))
def test_select_survivors_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    objs = rng.uniform(0, 1, size=(40, 3)).round(2)   # rounding forces ties
    genomes = rng.integers(0, 16, size=(40, 4))
    got = [tuple(g) for g in genomes[select_survivors(genomes, objs, 20)].tolist()]
    assert got == brute_force_survivors(genomes, objs, 20)


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------


def test_run_zero_generations_returns_initial():
    cfg = GAConfig(population_size=12, max_generations=0, rng_seed=5)
    out = run(cfg, (0, 15), 4, toy_evaluator, reference_front=TOY_FRONT)
    init = initialize(cfg, (0, 15), 4)
    np.testing.assert_array_equal(out.genomes, init)
    np.testing.assert_array_equal(out.objectives, toy_evaluator(init))
    assert out.history == []


def test_run_deterministic():
    cfg = GAConfig(population_size=20, max_generations=10, rng_seed=21)
    a = run(cfg, (0, 15), 4, toy_evaluator, reference_front=TOY_FRONT)
    b = run(cfg, (0, 15), 4, toy_evaluator, reference_front=TOY_FRONT)
    np.testing.assert_array_equal(a.genomes, b.genomes)
    assert [(s.hypervolume, s.gd, s.best_sum) for s in a.history] == \
           [(s.hypervolume, s.gd, s.best_sum) for s in b.history]


def test_run_seed_changes_outcome():
    cfg = GAConfig(population_size=20, max_generations=5, rng_seed=1)
    other = GAConfig(population_size=20, max_generations=5, rng_seed=2)
    a = run(cfg, (0, 15), 4, toy_evaluator)
    b = run(other, (0, 15), 4, toy_evaluator)
    assert not np.array_equal(a.genomes, b.genomes)


def test_run_objectives_score_their_genomes():
    cfg = GAConfig(population_size=20, max_generations=6, rng_seed=9)
    out = run(cfg, (0, 15), 4, toy_evaluator)
    np.testing.assert_array_equal(out.objectives, toy_evaluator(out.genomes))


def test_run_rejects_misshapen_evaluator_output():
    cfg = GAConfig(population_size=8, max_generations=1, rng_seed=0)
    with pytest.raises(ValueError, match="evaluator returned"):
        run(cfg, (0, 15), 4, lambda g: toy_evaluator(g)[:-1])


def test_run_single_objective_elitism():
    def single(genomes):
        return np.asarray(genomes, dtype=float).sum(axis=1, keepdims=True)

    cfg = GAConfig(population_size=16, max_generations=15, rng_seed=2)
    out = run(cfg, (0, 15), 3, single)
    init = initialize(cfg, (0, 15), 3)
    assert out.genomes.sum(axis=1).min() <= init.sum(axis=1).min()


def test_run_best_sum_never_increases():
    cfg = GAConfig(population_size=20, max_generations=25, rng_seed=7)
    out = run(cfg, (0, 15), 4, toy_evaluator, reference_front=TOY_FRONT)
    sums = [s.best_sum for s in out.history]
    assert len(sums) == cfg.max_generations
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

    out = run(cfg, (0, 15), 4, recording)
    all_evaluated = np.vstack(seen)
    np.testing.assert_allclose(out.objectives.min(axis=0),
                               all_evaluated.min(axis=0))


def test_run_without_metrics_takes_no_front_snapshots(monkeypatch):
    calls = []
    original = moo_metrics.nondominated

    def counting(points):
        calls.append(len(points))
        return original(points)

    # nsga2 reaches the filter through MetricContext.evaluate; its own name is
    # patched too, so a direct import of the filter would still be counted
    monkeypatch.setattr(nsga2, "nondominated", counting, raising=False)
    monkeypatch.setattr(moo_metrics, "nondominated", counting)
    cfg = GAConfig(population_size=20, max_generations=6, rng_seed=4)
    out = run(cfg, (0, 15), 4, toy_evaluator)
    assert calls == []
    assert out.history == []
    run(cfg, (0, 15), 4, toy_evaluator, reference_front=TOY_FRONT)
    assert len(calls) >= cfg.max_generations     # the counter does see snapshots


def test_run_emits_one_record_per_generation():
    cfg = GAConfig(population_size=12, max_generations=8, rng_seed=0)
    out = run(cfg, (0, 15), 4, toy_evaluator, reference_front=TOY_FRONT)
    assert [s.generation for s in out.history] == list(range(1, 9))
    for s in out.history:
        assert np.isfinite([s.hypervolume, s.gd, s.igd, s.spacing]).all()


def test_run_bounds_closure():
    cfg = GAConfig(population_size=16, max_generations=10, rng_seed=3)
    out = run(cfg, (2, 9), 4, toy_evaluator)
    assert np.all((out.genomes >= 2) & (out.genomes <= 9))


# ---------------------------------------------------------------------------
# pick_optimum
# ---------------------------------------------------------------------------


def test_pick_optimum_single_feasible():
    out = pick_optimum(*make_population([[0.05, 0.05], [0.5, 0.01], [0.3, 0.3]]),
                       threshold=0.1)
    assert out.windows == (0,)
    assert out.feasible


def test_pick_optimum_infinite_threshold_global_minimum():
    out = pick_optimum(*make_population([[0.4, 0.4], [0.1, 0.6], [0.3, 0.3]]),
                       threshold=np.inf)
    assert out.windows == (2,)
    assert out.objective_sum == pytest.approx(0.6)


def test_pick_optimum_flags_fallback():
    out = pick_optimum(*make_population([[0.4, 0.4], [0.2, 0.5]]), threshold=0.01)
    assert not out.feasible
    assert out.windows == (1,)   # smaller sum even though infeasible


def test_pick_optimum_empty_population_raises():
    with pytest.raises(ValueError):
        pick_optimum(np.zeros((0, 4), dtype=int), np.zeros((0, 4)), threshold=0.1)
    with pytest.raises(ValueError):
        pick_optimum(np.zeros((3, 4), dtype=int), np.zeros((2, 4)), threshold=0.1)


@pytest.mark.parametrize("seed", range(12))
def test_pick_optimum_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    objs = rng.uniform(0, 1, size=(50, 4)).round(1)
    genomes = rng.integers(0, 16, size=(50, 4))
    threshold = float(np.median(objs.max(axis=1)))
    assert pick_optimum(genomes, objs, threshold).windows == \
        brute_force_pick(genomes, objs, threshold)
