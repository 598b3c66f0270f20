"""Greedy cell decompositions and the lift from cell counts back to points.

A decomposition groups a point set into cells around greedily chosen centers:
points are scanned in ascending index order, the first unassigned point
becomes a center, and it absorbs every still-unassigned point within its
admitted radius.  Fixed mode admits a constant radius; variable mode admits
``delta * max(base, d(v, z) / 2)`` for each candidate v, so cells grow with
distance from the anchor z.

The partition is kept in array form: ``points`` lists the decomposed ids in
ascending order, and ``label`` gives each one's cell as an index into
``centers``.  Every solver rounds points to ``centers[label]``, scores count
vectors over the cells, and maps its best vector back to points with
:func:`lift`, which keeps the lowest-index members of each cell.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import MetricInstance, check_indices, tol_leq


@dataclass
class CellDecomposition:
    centers: list[int]     # cell centers in creation order
    points: np.ndarray     # decomposed ids, ascending
    label: np.ndarray      # cell of points[i], as an index into centers
    allowance: np.ndarray  # radius admitted for points[i]

    def check(self, inst: MetricInstance) -> None:
        """Assert the net property: members within their admitted radius,
        centers pairwise farther apart than the radius admitted for them."""
        centers = np.asarray(self.centers, dtype=np.int64)
        center_allowance = self.allowance[np.searchsorted(self.points, centers)]
        for j, c in enumerate(self.centers):
            mine = self.label == j
            assert tol_leq(inst.dists_from(c, self.points[mine]), self.allowance[mine]).all(), c
            # later centers were not absorbed by c, so each lies beyond its allowance
            assert (inst.dists_from(c, centers[j + 1:]) > center_allowance[j + 1:]).all(), c


# Relative margin added to the bin width, far above both the REL_TOL slack of
# tol_leq and the rounding of first-coordinate differences.
BIN_MARGIN = 1e-6
# Below this many points a scan of every unassigned point costs less than the
# sweep's sort and its extra array operations per center.  On uniform points
# in the plane the sweep is 1.1-1.7x slower than the scan at every radius up
# to 128 points, and first breaks even near 200-256 points, at radii that give
# more than half as many cells as points.
SWEEP_MIN_POINTS = 256


def _bins(x: np.ndarray, reach: float) -> np.ndarray:
    """Bin of each first coordinate in ``x``: any two points within ``reach``
    of each other, as ``tol_leq`` judges their distance, land in equal or
    adjacent bins.

    Bins are at least ``2**-24`` of the coordinate span wide, so the rounding
    of ``(x - min) / width`` stays far below the margin, and at least
    ``2**-500``, so the squared gaps an l2 distance sums never underflow below
    the gap between bins.  An infinite reach puts every point in one bin.
    """
    low = x.min()
    width = max(reach * (1.0 + BIN_MARGIN), float(x.max() - low) * 2.0 ** -24, 2.0 ** -500)
    if width == np.inf:
        return np.zeros(x.size, dtype=np.int64)
    return ((x - low) / width).astype(np.int64)


def _next_free(free: np.ndarray, p: int) -> int:
    """First position at or after ``p`` where ``free`` is set, else its size;
    scanned in doubling chunks."""
    if p < free.size and free[p]:
        return p
    step = 4096
    while p < free.size:
        i = int(free[p:p + step].argmax())
        if free[p + i]:
            return p + i
        p += step
        step *= 2
    return free.size


def _greedy(inst: MetricInstance, order: np.ndarray,
            allowance: np.ndarray) -> CellDecomposition:
    """The greedy decomposition of ``order``, swept by first coordinate.

    Centers are taken in index order, as the first unassigned position.  In
    l1, l2 and linf, ``|x_0 - y_0| <= d(x, y)``, so a center can only absorb
    points whose first coordinate lies within the largest allowance of its
    own.  The points are sorted once into bins that wide, and each center
    tests only the unassigned points of its own bin and the two adjacent
    ones, with the same ``tol_leq`` on the same distances as a scan of every
    unassigned point.  Once more than half of the swept points are assigned,
    they are dropped from the sweep.  A matrix instance has no coordinates to
    sweep, so each of its centers scans every unassigned point, as do the
    centers of fewer than ``SWEEP_MIN_POINTS`` points.
    """
    n = order.size
    centers: list[int] = []
    label = np.empty(n, dtype=np.int64)
    if inst.points is None or n < SWEEP_MIN_POINTS:
        remaining = np.arange(n)  # unassigned positions, ascending
        while remaining.size:
            c = int(order[remaining[0]])
            taken = tol_leq(inst.dists_from(c, order[remaining]), allowance[remaining])
            label[remaining[taken]] = len(centers)
            centers.append(c)
            remaining = remaining[~taken]
        return CellDecomposition(centers, order, label, allowance)

    reach = float(allowance.max())
    if max(inst.points.max(), -inst.points.min()) >= 2.0 ** 500:
        # a distance may overflow to inf, which tol_leq admits at any radius
        reach = np.inf
    key = _bins(inst.points[order, 0], reach)
    perm = np.argsort(key, kind="stable")  # sweep index -> position
    key, allow = key[perm], allowance[perm]
    swept = MetricInstance(n=n, q=inst.q, points=inst.points[order[perm]], norm=inst.norm)
    rank = np.empty(n, dtype=np.int64)  # position -> sweep index
    rank[perm] = np.arange(n)
    free = np.ones(n, dtype=bool)  # by position, to find the next center
    swept_free = np.ones(n, dtype=bool)
    swept_taken = 0
    p = -1
    while (p := _next_free(free, p + 1)) < n:
        if 2 * swept_taken > perm.size:
            perm, key, allow = perm[swept_free], key[swept_free], allow[swept_free]
            swept = MetricInstance(n=perm.size, q=inst.q, points=swept.points[swept_free],
                                   norm=inst.norm)
            rank[perm] = np.arange(perm.size)
            swept_free = np.ones(perm.size, dtype=bool)
            swept_taken = 0
        s = int(rank[p])
        a = int(key.searchsorted(key[s] - 1))
        e = int(key.searchsorted(key[s] + 1, side="right"))
        take = tol_leq(swept.dists_from(s, slice(a, e)), allow[a:e]) & swept_free[a:e]
        swept_free[a:e][take] = False
        hit = perm[a:e][take]
        swept_taken += hit.size
        free[hit] = False
        label[hit] = len(centers)
        centers.append(int(order[p]))
    return CellDecomposition(centers, order, label, allowance)


def _subset_order(inst: MetricInstance, subset) -> np.ndarray:
    if subset is None:
        return np.arange(inst.n, dtype=np.int64)
    order = np.asarray(sorted({int(i) for i in subset}), dtype=np.int64)
    check_indices(inst, order)
    return order


def decompose_fixed(inst: MetricInstance, subset, delta: float) -> CellDecomposition:
    """Greedy decomposition where every cell admits the constant radius ``delta``."""
    if not delta >= 0:
        raise ValueError(f"cell radius must be nonnegative, got {delta}")
    order = _subset_order(inst, subset)
    return _greedy(inst, order, np.full(order.shape, float(delta)))


def decompose_variable(inst: MetricInstance, subset, z: int, base: float,
                       delta: float) -> CellDecomposition:
    """Greedy decomposition whose admitted radius grows with distance from ``z``.

    Point v may join a cell whose center is within
    ``delta * max(base, d(v, z) / 2)`` of it.
    """
    if not base > 0:
        raise ValueError(f"base radius must be positive, got {base}")
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    order = _subset_order(inst, subset)
    if not (order == int(z)).any():
        raise ValueError(f"anchor {z} must belong to the decomposed subset")
    dz = inst.dists_from(int(z), order)
    return _greedy(inst, order, delta * np.maximum(base, dz / 2.0))


def lift(items, label, counts) -> np.ndarray:
    """The ``counts[j]`` lowest-index items of each cell j, in ascending order.

    ``items`` is ascending and ``label[i]`` is the cell of ``items[i]``.  A
    count above its cell's size takes the whole cell.
    """
    items = np.asarray(items)
    label = np.asarray(label, dtype=np.int64)
    by_cell = np.argsort(label, kind="stable")
    grouped = label[by_cell]
    rank = np.empty(label.size, dtype=np.int64)
    rank[by_cell] = np.arange(label.size) - np.searchsorted(grouped, grouped)
    return items[rank < np.asarray(counts, dtype=np.int64)[label]]
