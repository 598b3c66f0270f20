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


def _greedy(inst: MetricInstance, order: np.ndarray,
            allowance: np.ndarray) -> CellDecomposition:
    centers: list[int] = []
    label = np.empty(order.shape, dtype=np.int64)
    remaining = np.arange(order.size)  # positions into order
    while remaining.size:
        c = int(order[remaining[0]])
        taken = tol_leq(inst.dists_from(c, order[remaining]), allowance[remaining])
        label[remaining[taken]] = len(centers)
        centers.append(c)
        remaining = remaining[~taken]
    return CellDecomposition(centers, order, label, allowance)


def _subset_order(inst: MetricInstance, subset) -> np.ndarray:
    if subset is None:
        return np.arange(inst.n, dtype=np.int64)
    order = np.asarray(sorted({int(i) for i in subset}), dtype=np.int64)
    check_indices(inst, order)
    return order


def decompose_fixed(inst: MetricInstance, subset, delta: float) -> CellDecomposition:
    """Greedy decomposition where every cell admits the constant radius ``delta``."""
    if delta < 0:
        raise ValueError(f"cell radius must be nonnegative, got {delta}")
    order = _subset_order(inst, subset)
    return _greedy(inst, order, np.full(order.shape, float(delta)))


def decompose_variable(inst: MetricInstance, subset, z: int, base: float,
                       delta: float) -> CellDecomposition:
    """Greedy decomposition whose admitted radius grows with distance from ``z``.

    Point v may join a cell whose center is within
    ``delta * max(base, d(v, z) / 2)`` of it.
    """
    if base <= 0:
        raise ValueError(f"base radius must be positive, got {base}")
    if delta < 0:
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
