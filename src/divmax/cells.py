"""Greedy cell decompositions and the lift from cell counts back to points.

A decomposition groups a point set into cells around greedily chosen centers:
points are scanned in ascending index order, the first unassigned point
becomes a center, and it absorbs every still-unassigned point within its
admitted radius.  Fixed mode admits a constant radius; variable mode admits
``delta * max(base, d(v, z) / 2)`` for each candidate v, so cells grow with
distance from the anchor z.

The greedy is resolved ``BATCH`` unassigned positions at a time: a candidate
is a center unless an earlier center of its batch reaches it, and the centers
then absorb the unassigned points, each joining the first center reaching it.
In l1, l2 and linf no coordinate gap exceeds the distance, so a center tests
only the points in the 3 x 3 bins around its own, bins of the first two
coordinates as wide as the largest admitted radius.  Every test is a scan's:
the same ``tol_leq`` on the same distance, so the cells match bit for bit.

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
# tol_leq and the rounding of coordinate differences.
BIN_MARGIN = 1e-6
# Unassigned positions whose centers are chosen together (64 bits of a uint64).
BATCH = 64
# Distance entries read at once as centers absorb points; a bigger window is read alone.
CHUNK = 1 << 12
# Each pair (i, j), i < j, of a batch's candidates, in lexicographic order.
_PAIRS = np.triu_indices(BATCH, 1)


def _bins(x: np.ndarray, reach: float) -> np.ndarray:
    """Bin of each coordinate in ``x``: any two points within ``reach`` of
    each other, as ``tol_leq`` judges their distance, land in equal or
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


def _greedy(inst: MetricInstance, order: np.ndarray,
            allowance: np.ndarray) -> CellDecomposition:
    """The greedy decomposition of ``order`` (see the module docstring).  The
    points are swept in bin order, so a center's 3 x 3 bins are three runs of
    the sweep; a matrix, or coordinates whose distances may overflow, has
    one bin.  Assigned points leave the sweep once they outnumber the rest."""
    n = order.size
    centers: list[int] = []
    label = np.full(n, n, dtype=np.int64)  # by position; n until assigned
    key, shifts = np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
    if inst.points is not None and n:
        reach = float(allowance.max())
        if inst.wide:
            reach = np.inf  # a distance may overflow to inf, which tol_leq admits
        xy = [x if n == inst.n else np.take(x, order) for x in inst.points.T[:2]]
        key = _bins(xy[0], reach)
        if len(xy) > 1:
            y = _bins(xy[1], reach)
            stride = int(y.max()) + 2  # keeps a center's y-neighbours in its own row
            key = key * stride + y
            shifts = np.array([-stride, 0, stride])
    perm = np.argsort(key, kind="stable")  # sweep order of the unassigned positions
    swept = key[perm]
    p = 0  # every position below p is assigned
    while (free := np.flatnonzero(label[p:] == n)).size:
        if 2 * free.size < perm.size:
            perm = perm[label[perm] == n]
            swept = key[perm]
        cand = free[:BATCH] + p
        p = int(cand[-1]) + 1

        # bit j of absorbs[i] is set when candidate i reaches candidate j > i;
        # j is a center unless an earlier center of the batch reaches it
        i, j = (a[_PAIRS[1] < cand.size] for a in _PAIRS)
        hit = tol_leq(inst.dists(order[cand[i]], order[cand[j]]), allowance[cand[j]])
        absorbs = np.zeros(cand.size, dtype=np.uint64)
        np.add.at(absorbs, i[hit], np.uint64(1) << j[hit].astype(np.uint64))
        taken, pick = 0, []
        for c, bits in enumerate(absorbs.tolist()):
            if not taken >> c & 1:
                pick.append(c)
                taken |= bits
        first, cand = len(centers), cand[pick]
        label[cand] = np.arange(first, first + cand.size)
        centers.extend(order[cand].tolist())

        # the centers absorb the other unassigned points of their runs, about
        # CHUNK entries at a time; the first center reaching a point wins
        runs = key[cand][:, None] + shifts
        lo, hi = swept.searchsorted(runs - 1), swept.searchsorted(runs + 1, side="right")
        size = (hi - lo).sum(axis=1)
        ends = np.concatenate([[0], np.cumsum(size)])
        a = 0
        while a < cand.size:
            b = max(a + 1, int(ends.searchsorted(ends[a] + CHUNK, side="right")) - 1)
            span = (hi[a:b] - lo[a:b]).ravel()
            at = perm[np.arange(ends[b] - ends[a])
                      + np.repeat(lo[a:b].ravel() - np.cumsum(span) + span, span)]
            by = np.repeat(np.arange(a, b), size[a:b])
            keep = label[at] == n
            at, by = at[keep], by[keep]
            take = tol_leq(inst.dists(order[cand[by]], order[at]), allowance[at])
            np.minimum.at(label, at[take], first + by[take])
            a = b
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
    ``delta * max(base, d(v, z) / 2)`` of it; a zero ``delta`` admits 0, even
    where d(v, z) overflows to inf.
    """
    if not base > 0:
        raise ValueError(f"base radius must be positive, got {base}")
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    order = _subset_order(inst, subset)
    if not (order == int(z)).any():
        raise ValueError(f"anchor {z} must belong to the decomposed subset")
    if not delta:
        return _greedy(inst, order, np.zeros(order.shape))
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
