"""Pareto-front quality metrics: hypervolume, GD, IGD, spacing.

All metrics assume minimisation.  A front comes from one `scan_order` and a
weak-dominance block scan (`front_mask`), which finds one front among many
rows with small temporaries; NSGA-II's survivor sort shares `scan_order` and
ranks every front from dominator bitsets instead.  Hypervolume is exact: a
slab sweep on the last objective (after HV3D, Beume et al. 2009),
O(n^(d-1)) time for n points and d >= 3 objectives with (n, n) temporaries
(the fairness problem has one objective per lane, so four).  GD uses the
classical p=2 definition sqrt(sum of squared nearest distances) / |front|;
IGD is GD with the arguments swapped; spacing is the standard deviation of
nearest-neighbour L1 distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# rows per scan block of `front_mask`, which only `nondominated` runs
NONDOMINATED_BLOCK = 256


def _as_points(front) -> np.ndarray:
    pts = np.asarray(front, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError(f"expected a non-empty 2-D point set, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point set contains non-finite values")
    return pts


def weakly_dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) booleans: [i, j] is True when row i of `a` is <= row
    j of `b` in every objective (minimisation), equal rows included.  Built
    one objective at a time, so only (len(a), len(b)) arrays are allocated."""
    le = np.less_equal.outer(a[:, 0], b[:, 0])
    for k in range(1, a.shape[1]):
        le &= np.less_equal.outer(a[:, k], b[:, k])
    return le


def scan_order(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scan order of `points` (row sum, then columns) and, in that order, a
    mask of the first row of each run of equal rows.

    Among distinct rows in scan order an earlier row that weakly dominates a
    later one dominates it, and no later row weakly dominates an earlier
    one: a dominator's float sum is no larger, and on a tie its columns sort
    first (Kung, Luccio & Preparata 1975).
    """
    pts = np.asarray(points, dtype=float)
    order = np.lexsort((*pts.T[::-1], pts.sum(axis=1)))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(pts[order], axis=0) != 0).any(axis=1)
    return order, first


def front_mask(pts: np.ndarray) -> np.ndarray:
    """Mask of the rows no row dominates, given distinct rows in scan order.

    Each block of `NONDOMINATED_BLOCK` rows is tested for weak dominance by
    the front found so far, then by itself with the diagonal cleared; no
    (n, n) temporaries.  Any subsequence of a scan order is in scan order.
    """
    mask = np.zeros(len(pts), dtype=bool)
    for start in range(0, len(pts), NONDOMINATED_BLOCK):
        block = np.arange(start, min(start + NONDOMINATED_BLOCK, len(pts)))
        block = block[~weakly_dominates(pts[mask], pts[block]).any(axis=0)]
        le = weakly_dominates(pts[block], pts[block])
        np.fill_diagonal(le, False)
        mask[block[~le.any(axis=0)]] = True
    return mask


def nondominated(points: np.ndarray) -> np.ndarray:
    """Distinct rows of `points` that no other row dominates, sorted by row."""
    pts = _as_points(points)
    order, first = scan_order(pts)
    pts = pts[order[first]]
    pts = pts[front_mask(pts)]
    return pts[np.lexsort(pts.T[::-1])]


def hypervolume(front, reference_point) -> float:
    """Lebesgue measure of the region dominated by `front` up to the reference."""
    pts = _as_points(front)
    ref = np.asarray(reference_point, dtype=float)
    if ref.shape != (pts.shape[1],):
        raise ValueError(f"reference point shape {ref.shape} does not match "
                         f"{pts.shape[1]} objectives")
    if np.any(pts > ref):
        raise ValueError("some point lies beyond the reference point")
    pts = nondominated(pts)
    if pts.shape[1] == 1:
        return float(ref[0] - pts.min())
    return _hv_slabs(pts, ref)


def _hv_slabs(pts: np.ndarray, ref: np.ndarray) -> float:
    """Sorted on the last objective, the slab from row k up to the next row
    (the reference after the last) is dominated by exactly rows 0..k: sum
    each height times their (d-1)-volume.  At three objectives, row k of `ys`
    holds the objective-2 values of rows 0..k in objective-1 order and the
    reference elsewhere; its running minimum is that prefix's staircase."""
    pts = pts[np.argsort(pts[:, -1], kind="stable")]
    heights = np.diff(pts[:, -1], append=ref[-1])
    if pts.shape[1] == 2:
        sections = ref[0] - np.minimum.accumulate(pts[:, 0])
    elif pts.shape[1] == 3:
        by_x = np.argsort(pts[:, 0], kind="stable")
        ys = np.where(by_x <= np.arange(len(pts))[:, None], pts[by_x, 1], ref[1])
        widths = np.diff(pts[by_x, 0], append=ref[0])
        sections = (ref[1] - np.minimum.accumulate(ys, axis=1)) @ widths
    else:
        sections = np.array([_hv_slabs(pts[:k + 1, :-1], ref[:-1])
                             for k in range(len(pts))])
    return float(heights @ sections)


def generational_distance(front, reference_front) -> float:
    """sqrt(sum of squared nearest-reference distances) / |front|."""
    pts = _as_points(front)
    ref = _as_points(reference_front)
    diff = pts[:, None, :] - ref[None, :, :]
    nearest_sq = np.min(np.einsum("ijk,ijk->ij", diff, diff), axis=1)
    return float(np.sqrt(nearest_sq.sum()) / len(pts))


def inverted_generational_distance(front, reference_front) -> float:
    """GD with the arguments swapped: reference measured against the front."""
    return generational_distance(reference_front, front)


def spacing(front) -> float:
    """Standard deviation of nearest-neighbour L1 distances across the front."""
    pts = _as_points(front)
    if len(pts) < 2:
        raise ValueError("spacing needs at least two points")
    l1 = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    np.fill_diagonal(l1, np.inf)
    return float(np.std(l1.min(axis=1)))


@dataclass(frozen=True)
class MetricContext:
    """Fixed reference data so per-generation metrics are comparable.

    The reference point must be weakly dominated by no evaluated point; the
    conventional choice (see `from_initial`) is the per-objective maximum of
    the initial population scaled by 1.1, which later generations can only
    move away from.
    """

    reference_point: np.ndarray
    reference_front: np.ndarray

    def __post_init__(self):
        if _as_points(self.reference_front).shape[1] != len(self.reference_point):
            raise ValueError("reference front/point dimensionality mismatch")

    @classmethod
    def from_initial(cls, initial_objectives, reference_front) -> "MetricContext":
        init = _as_points(initial_objectives)
        ref_point = init.max(axis=0) * 1.1
        # a degenerate all-zero objective leaves no volume; nudge the point off
        ref_point = np.where(ref_point > 0, ref_point, 1e-9)
        return cls(reference_point=ref_point,
                   reference_front=_as_points(reference_front))

    def evaluate(self, front) -> dict[str, float]:
        pts = nondominated(_as_points(front))
        clipped = np.minimum(pts, self.reference_point)
        return {
            "hypervolume": hypervolume(clipped, self.reference_point),
            "gd": generational_distance(pts, self.reference_front),
            "igd": inverted_generational_distance(pts, self.reference_front),
            "spacing": spacing(pts) if len(pts) >= 2 else 0.0,
        }
