import numpy as np
import pytest

from v2i_fairness.moo_metrics import (
    NONDOMINATED_BLOCK,
    MetricContext,
    generational_distance,
    hypervolume,
    inverted_generational_distance,
    nondominated,
    scan_order,
    spacing,
    weakly_dominates,
)


def mc_hypervolume(front, reference_point, samples=1_000_000, seed=0):
    """Monte Carlo volume of the dominated region inside [0, ref]^d."""
    front = np.asarray(front, dtype=float)
    ref = np.asarray(reference_point, dtype=float)
    lo = np.minimum(front.min(axis=0), 0.0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, ref, size=(samples, ref.size))
    dominated = np.zeros(samples, dtype=bool)
    for p in front:
        dominated |= np.all(pts >= p, axis=1)
    box = np.prod(ref - lo)
    return box * dominated.mean()


# ---------------------------------------------------------------------------
# nondominated filtering
# ---------------------------------------------------------------------------


def test_nondominated_drops_dominated_and_duplicates():
    pts = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])
    out = nondominated(pts)
    assert sorted(map(tuple, out)) == [(1.0, 2.0), (2.0, 1.0)]


def test_nondominated_single_point():
    out = nondominated(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [[3.0, 4.0]])


def loop_nondominated(points) -> np.ndarray:
    """The row-by-row filter `nondominated` used before the dominance matrix
    and the sort-then-scan."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    keep = np.ones(len(pts), dtype=bool)
    for i, p in enumerate(pts):
        if not keep[i]:
            continue
        dominated = np.all(pts <= p, axis=1) & np.any(pts < p, axis=1)
        if np.any(dominated & keep):
            keep[i] = False
    return pts[keep]


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("seed", range(10))
def test_nondominated_matches_loop_on_tied_integers(dim, seed):
    """Integers in 0..3 give duplicate rows and per-objective ties."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, size=(int(rng.integers(2, 80)), dim)).astype(float)
    np.testing.assert_array_equal(nondominated(pts), loop_nondominated(pts))


@pytest.mark.parametrize("size", [300, 1000])
@pytest.mark.parametrize("seed", range(3))
def test_nondominated_matches_loop_across_scan_blocks(size, seed):
    """More distinct rows than one scan block, with ties and equal row sums
    (4 objectives in 0..9) falling on both sides of the block edges."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 10, size=(size, 4)).astype(float)
    assert len(np.unique(pts, axis=0)) > NONDOMINATED_BLOCK
    np.testing.assert_array_equal(nondominated(pts), loop_nondominated(pts))


def test_nondominated_all_equal_rows_collapse_to_one():
    out = nondominated(np.full((5, 4), 2.0))
    np.testing.assert_array_equal(out, [[2.0, 2.0, 2.0, 2.0]])


def test_nondominated_matches_loop_with_copies_across_scan_blocks():
    """Copies of a front row that run past a scan-block edge in the scan
    order of the raw rows (row sum, then columns) give one front row."""
    rng = np.random.default_rng(11)
    pts = rng.integers(0, 10, size=(600, 4)).astype(float)
    least = pts[np.argmin(pts.sum(axis=1))]     # no row dominates it
    pts = np.concatenate([pts, np.repeat(least[None], NONDOMINATED_BLOCK, 0)])
    copies = np.flatnonzero((pts == least).all(axis=1))
    position = np.empty(len(pts), dtype=int)
    position[np.lexsort((*pts.T[::-1], pts.sum(axis=1)))] = np.arange(len(pts))
    assert position[copies].min() < NONDOMINATED_BLOCK <= position[copies].max()
    np.testing.assert_array_equal(nondominated(pts), loop_nondominated(pts))


def tied_sum_rows(count: int, dominator_first: bool) -> np.ndarray:
    """[1e20, 0, 0] and `count` mutually non-dominated rows [1e20, k, 300 - k]
    that it dominates: every float row sum rounds to 1e20, so only the
    column tie-break puts the dominator first in scan order."""
    rows = np.array([[1e20, k, 300 - k] for k in range(1, count + 1)])
    dominator = np.array([[1e20, 0.0, 0.0]])
    pts = np.concatenate([dominator, rows] if dominator_first else [rows, dominator])
    assert np.all(pts.sum(axis=1) == 1e20)
    return pts


@pytest.mark.parametrize("count", [8, 299], ids=["one-block", "two-blocks"])
@pytest.mark.parametrize("dominator_first", [True, False])
def test_float_sum_ties_scan_the_dominator_first(count, dominator_first):
    pts = tied_sum_rows(count, dominator_first)
    order, first = scan_order(pts)
    np.testing.assert_array_equal(pts[order[0]], [1e20, 0.0, 0.0])
    assert first.all()
    np.testing.assert_array_equal(nondominated(pts), [[1e20, 0.0, 0.0]])
    np.testing.assert_array_equal(nondominated(pts), loop_nondominated(pts))


@pytest.mark.parametrize("seed", range(5))
def test_weakly_dominates_matches_pairwise(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=(20, 3)).astype(float)
    b = rng.integers(0, 4, size=(30, 3)).astype(float)
    for x, y in ((a, b), (a, a)):
        expected = [[bool(np.all(p <= q)) for q in y] for p in x]
        np.testing.assert_array_equal(weakly_dominates(x, y), expected)


def distinct_grid_rows(seed: int) -> np.ndarray:
    """The 64 rows of {0, 1, 2, 3}^3 in a seeded order: all distinct."""
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), -1)
    return np.random.default_rng(seed).permutation(grid.reshape(-1, 3))


@pytest.mark.parametrize("seed", range(3))
def test_dominates_matches_pairwise(seed):
    """Between two sets with no row in common, weak dominance is dominance:
    `front_mask` tests each block against the front so far this way."""
    rows = distinct_grid_rows(seed)
    a, b = rows[:20], rows[20:50]
    expected = [[bool(np.all(p <= q) and np.any(p < q)) for q in b] for p in a]
    np.testing.assert_array_equal(weakly_dominates(a, b), expected)


@pytest.mark.parametrize("seed", range(5))
def test_dominance_matrix_matches_pairwise(seed):
    """Among distinct rows, weak dominance with the diagonal cleared is the
    dominance matrix: `front_mask` tests each block against itself this way."""
    pts = distinct_grid_rows(seed)[:30]
    expected = [[bool(np.all(a <= b) and np.any(a < b)) for b in pts] for a in pts]
    le = weakly_dominates(pts, pts)
    np.fill_diagonal(le, False)
    np.testing.assert_array_equal(le, expected)


# ---------------------------------------------------------------------------
# hypervolume
# ---------------------------------------------------------------------------


def test_hv_unit_box():
    assert hypervolume(np.array([[0.0, 0.0]]), [1.0, 1.0]) == pytest.approx(1.0)


def test_hv_two_boxes():
    front = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert hypervolume(front, [1.0, 1.0]) == pytest.approx(0.75)


def test_hv_one_dimensional():
    assert hypervolume(np.array([[2.0], [3.0]]), [5.0]) == pytest.approx(3.0)


def test_hv_dominated_points_ignored():
    front = np.array([[0.0, 0.0], [0.5, 0.5]])
    assert hypervolume(front, [1.0, 1.0]) == pytest.approx(1.0)


def test_hv_point_beyond_reference_rejected():
    with pytest.raises(ValueError):
        hypervolume(np.array([[2.0, 0.0]]), [1.0, 1.0])


def test_hv_three_dimensional_hand_case():
    # vol(a) + vol(b) - vol(max(a, b)) = 1*1*0.5 + 0.5*0.5*1 - 0.5*0.5*0.5
    front = np.array([[0.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
    assert hypervolume(front, [1.0, 1.0, 1.0]) == pytest.approx(0.5 + 0.25 - 0.125)


def test_hv_adding_nondominated_point_increases():
    rng = np.random.default_rng(5)
    front = np.array([[0.2, 0.8], [0.8, 0.2]])
    before = hypervolume(front, [1.0, 1.0])
    grown = np.vstack([front, [0.4, 0.4]])
    assert hypervolume(grown, [1.0, 1.0]) > before


def test_hv_translation_invariance():
    front = np.random.default_rng(3).uniform(0, 1, size=(12, 3))
    ref = np.array([1.5, 1.5, 1.5])
    base = hypervolume(front, ref)
    shift = np.array([10.0, -4.0, 2.5])
    assert hypervolume(front + shift, ref + shift) == pytest.approx(base)


@pytest.mark.parametrize("dim, npts, seed",
                         [(2, 20, 1), (2, 50, 2), (3, 20, 5), (4, 15, 3), (4, 30, 4)])
def test_hv_matches_monte_carlo(dim, npts, seed):
    rng = np.random.default_rng(seed)
    front = rng.uniform(0, 1, size=(npts, dim))
    ref = np.full(dim, 1.1)
    exact = hypervolume(front, ref)
    estimate = mc_hypervolume(front, ref, seed=seed + 100)
    assert exact == pytest.approx(estimate, rel=0.01)


def wfg_reference(pts, ref) -> float:
    """The inclusion-exclusion recursion (While, Bradstreet & Barone 2012)
    `hypervolume` used for three or more objectives before the slab sweep;
    `nondominated` returns its rows sorted, the order the recursion ran in."""
    pts = nondominated(pts)
    total = 0.0
    for k in range(len(pts)):
        total += np.prod(ref - pts[k])
        rest = pts[k + 1:]
        if len(rest):
            total -= wfg_reference(np.maximum(pts[k], rest), ref)
    return float(total)


@pytest.mark.parametrize("dim, npts", [(3, 200), (4, 40), (4, 120), (5, 30)])
@pytest.mark.parametrize("seed", range(3))
def test_hv_matches_wfg_on_continuous_fronts(dim, npts, seed):
    """Points on the unit sphere's positive orthant are mutually non-dominated."""
    rng = np.random.default_rng(seed)
    pts = np.abs(rng.normal(size=(npts, dim)))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    ref = np.full(dim, 1.1)
    assert hypervolume(pts, ref) == pytest.approx(wfg_reference(pts, ref), rel=1e-12)


@pytest.mark.parametrize("dim", [3, 4, 5])
@pytest.mark.parametrize("seed", range(5))
def test_hv_matches_wfg_on_tied_integers(dim, seed):
    """Integers in 0..3 against a reference of 3 give duplicate rows, ties and
    points on the reference plane, so some slabs have zero height."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, size=(int(rng.integers(2, 200)), dim)).astype(float)
    ref = np.full(dim, 3.0)
    assert hypervolume(pts, ref) == pytest.approx(wfg_reference(pts, ref), rel=1e-12)


def test_hv_permutation_invariance():
    rng = np.random.default_rng(7)
    front = rng.uniform(0, 1, size=(10, 3))
    ref = [1.2, 1.2, 1.2]
    base = hypervolume(front, ref)
    perm = rng.permutation(10)
    assert hypervolume(front[perm], ref) == pytest.approx(base)


# ---------------------------------------------------------------------------
# GD / IGD
# ---------------------------------------------------------------------------


def test_gd_unit_offset():
    front = np.array([[1.0, 1.0]])
    reference = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert generational_distance(front, reference) == pytest.approx(1.0)


def test_gd_zero_on_subset():
    reference = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    assert generational_distance(reference[:2], reference) == pytest.approx(0.0)


def test_gd_brute_force_recompute():
    rng = np.random.default_rng(11)
    front = rng.uniform(0, 1, size=(17, 3))
    reference = rng.uniform(0, 1, size=(23, 3))
    want = np.sqrt(sum(min(np.sum((p - q) ** 2) for q in reference) for p in front))
    want /= len(front)
    assert generational_distance(front, reference) == pytest.approx(want)


def test_igd_swaps_arguments():
    rng = np.random.default_rng(13)
    a = rng.uniform(0, 1, size=(9, 2))
    b = rng.uniform(0, 1, size=(14, 2))
    assert inverted_generational_distance(a, b) == \
        pytest.approx(generational_distance(b, a))


def test_igd_unit_case():
    front = np.array([[0.0, 0.0]])
    reference = np.array([[1.0, 0.0], [0.0, 1.0]])
    # each reference point sits at distance 1: sqrt(1+1)/2
    assert inverted_generational_distance(front, reference) == \
        pytest.approx(np.sqrt(2.0) / 2.0)


# ---------------------------------------------------------------------------
# spacing
# ---------------------------------------------------------------------------


def test_spacing_equally_spaced_is_zero():
    front = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    assert spacing(front) == pytest.approx(0.0)


def test_spacing_two_points_zero():
    assert spacing(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(0.0)


def test_spacing_rejects_singleton():
    with pytest.raises(ValueError):
        spacing(np.array([[1.0, 1.0]]))


def test_spacing_brute_force_recompute():
    rng = np.random.default_rng(17)
    front = rng.uniform(0, 1, size=(12, 3))
    dists = []
    for i, p in enumerate(front):
        others = np.delete(front, i, axis=0)
        dists.append(np.abs(others - p).sum(axis=1).min())
    assert spacing(front) == pytest.approx(np.std(dists))


def test_spacing_nonnegative():
    rng = np.random.default_rng(19)
    for _ in range(10):
        front = rng.uniform(0, 1, size=(rng.integers(2, 20), 2))
        assert spacing(front) >= 0.0


# ---------------------------------------------------------------------------
# MetricContext
# ---------------------------------------------------------------------------


def test_context_from_initial_reference_point():
    initial = np.array([[1.0, 2.0], [3.0, 0.5]])
    ctx = MetricContext.from_initial(initial, reference_front=initial)
    np.testing.assert_allclose(ctx.reference_point, [3.3, 2.2])


def test_context_from_initial_zero_column_nudged():
    initial = np.array([[0.0, 2.0], [0.0, 1.0]])
    ctx = MetricContext.from_initial(initial, reference_front=initial)
    assert ctx.reference_point[0] == pytest.approx(1e-9)


def test_context_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        MetricContext(reference_point=np.array([1.0, 1.0]),
                      reference_front=np.array([[1.0, 1.0, 1.0]]))


def test_context_evaluate_keys_and_values():
    reference = np.array([[0.0, 1.0], [1.0, 0.0]])
    ctx = MetricContext(reference_point=np.array([2.0, 2.0]),
                        reference_front=reference)
    out = ctx.evaluate(np.array([[0.5, 0.5]]))
    assert set(out) == {"hypervolume", "gd", "igd", "spacing"}
    assert out["hypervolume"] == pytest.approx(2.25)
    assert out["spacing"] == 0.0


def test_context_evaluate_clips_outliers():
    ctx = MetricContext(reference_point=np.array([1.0, 1.0]),
                        reference_front=np.array([[0.0, 0.0]]))
    # a point past the reference must not crash the volume computation
    out = ctx.evaluate(np.array([[0.5, 0.5], [5.0, 0.2]]))
    assert np.isfinite(out["hypervolume"])
