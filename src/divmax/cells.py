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

Every pass over the points works ``metric.BLOCK`` entries at a time: the
sweep keys are computed a block of positions at a time, each batch scans one
block of labels for its unassigned positions, and the absorb windows are
cut into blocks even inside one center's runs.  Beside the result's
``points`` and ``label``, a decomposition holds the sweep order and the
keys in that order, two more arrays of n integers (three while the keys are
put in order), and scratch arrays of at most ``BLOCK`` entries; dropping
the assigned points from the sweep adds one byte per swept point.  A fixed
radius is one read-only value broadcast over the points.

The partition is kept in array form: ``points`` lists the decomposed ids in
ascending order, and ``label`` gives each one's cell as an index into
``centers``.  Every solver rounds points to ``centers[label]``, scores count
vectors over the cells, and maps its best vector back to points with
:func:`lift`, which keeps the lowest-index members of each cell.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metric
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
# Each pair (i, j), i < j, of a batch's candidates, in lexicographic order.
_PAIRS = np.triu_indices(BATCH, 1)


def _binning(x: np.ndarray, reach: float) -> tuple[np.ndarray, float, float]:
    """``(x, low, width)``: the bins of the coordinates ``x`` such that any
    two points within ``reach`` of each other, as ``tol_leq`` judges their
    distance, land in equal or adjacent bins.

    Bins are at least ``2**-24`` of the coordinate span wide, so the rounding
    of ``(x - low) / width`` stays far below the margin, and at least
    ``2**-500``, so the squared gaps an l2 distance sums never underflow below
    the gap between bins.  An infinite reach puts every point in bin 0.
    """
    low = x.min()
    return x, low, max(reach * (1.0 + BIN_MARGIN), float(x.max() - low) * 2.0 ** -24,
                       2.0 ** -500)


def _bins(binning, part) -> np.ndarray:
    """Bin of each coordinate ``x[part]`` of a ``_binning``."""
    x, low, width = binning
    if width == np.inf:
        return np.zeros(np.shape(x[part]), dtype=np.int64)
    return ((x[part] - low) / width).astype(np.int64)


def _greedy(inst: MetricInstance, order: np.ndarray,
            allowance: np.ndarray) -> CellDecomposition:
    """The greedy decomposition of ``order`` (see the module docstring).  The
    points are swept in bin order, so a center's 3 x 3 bins are three runs of
    the sweep; a matrix, or coordinates whose distances may overflow, has
    one bin.  Assigned points leave the sweep once they outnumber the rest."""
    n, block = order.size, metric.BLOCK
    centers: list[int] = []
    label = np.full(n, n, dtype=np.int64)  # by position; n until assigned
    grid, shifts = [], np.zeros(1, dtype=np.int64)
    if inst.points is not None and n:
        # a distance may overflow to inf, which tol_leq admits
        reach = np.inf if inst.wide else float(allowance.max())
        grid = [_binning(x if n == inst.n else x.take(order), reach)
                for x in inst.points.T[:2]]
    if len(grid) > 1:
        # the largest bin is that of the largest coordinate; the stride keeps
        # a center's y-neighbours in its own row
        stride = int(_bins(grid[1], grid[1][0].argmax())) + 2
        shifts = np.array([-stride, 0, stride])

    def key_of(part) -> np.ndarray:
        """Sweep key of the positions ``part``: x bin * stride + y bin."""
        if not grid:
            return np.zeros(np.shape(order[part]), dtype=np.int64)
        key = _bins(grid[0], part)
        if len(grid) > 1:
            key *= shifts[-1]
            key += _bins(grid[1], part)
        return key

    swept = np.empty(n, dtype=np.int64)
    for lo in range(0, n, block):
        swept[lo:lo + block] = key_of(slice(lo, lo + block))
    perm = np.argsort(swept, kind="stable")  # sweep order of the unassigned positions
    swept = swept[perm]  # the key of each position of the sweep
    p = 0  # every position below p is assigned
    left = n  # unassigned positions, or fewer: a point two centers reach counts twice
    while p < n:
        if 2 * left < perm.size:
            keep = np.empty(perm.size, dtype=bool)
            for lo in range(0, perm.size, block):
                np.equal(label[perm[lo:lo + block]], n, out=keep[lo:lo + block])
            perm, swept, left = perm[keep], swept[keep], int(keep.sum())
        free = np.flatnonzero(label[p:p + block] == n)
        if not free.size:
            p += block
            continue
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
        left -= cand.size

        # the centers absorb the other unassigned points of their runs, read
        # one after another, center by center, BLOCK entries at a time; the
        # first center reaching a point wins
        runs = key_of(cand)[:, None] + shifts
        stop = swept.searchsorted(runs + 1, side="right").ravel()
        span = stop - swept.searchsorted(runs - 1).ravel()
        ends = np.cumsum(span)
        starts, owner = ends - span, np.repeat(np.arange(cand.size), shifts.size)
        for lo in range(0, int(ends[-1]), block):
            hi = min(lo + block, int(ends[-1]))
            count = np.minimum(ends, hi) - np.maximum(starts, lo)  # entries in this block
            np.maximum(count, 0, out=count)
            at = perm[np.arange(lo, hi) + (stop - ends).repeat(count)]
            by = owner.repeat(count)
            keep = label[at] == n
            at, by = at[keep], by[keep]
            take = tol_leq(inst.dists(order[cand[by]], order[at]), allowance[at])
            np.minimum.at(label, at[take], first + by[take])
            left -= np.count_nonzero(take)
    return CellDecomposition(centers, order, label, allowance)


def _subset_order(inst: MetricInstance, subset) -> np.ndarray:
    if subset is None:
        return np.arange(inst.n, dtype=np.int64)
    # not np.unique: its first call in a process imports numpy.ma (about 17 ms)
    return np.asarray(sorted(set(check_indices(inst, subset).tolist())), dtype=np.int64)


def decompose_fixed(inst: MetricInstance, subset, delta: float) -> CellDecomposition:
    """Greedy decomposition where every cell admits the constant radius ``delta``."""
    if not delta >= 0:
        raise ValueError(f"cell radius must be nonnegative, got {delta}")
    order = _subset_order(inst, subset)
    return _greedy(inst, order, np.broadcast_to(float(delta), order.shape))


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
    count above its cell's size takes the whole cell.  Each cell with a
    positive count (at most k of them in every solver) scans ``label``
    ``metric.BLOCK`` entries at a time until it has its members.
    """
    label = np.asarray(label, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    picks = [np.empty(0, dtype=np.int64)]
    for j in np.flatnonzero(counts > 0).tolist():
        need = int(counts[j])
        for lo in range(0, label.size, metric.BLOCK):
            hit = np.flatnonzero(label[lo:lo + metric.BLOCK] == j)[:need]
            picks.append(hit + lo)
            need -= hit.size
            if not need:
                break
    return np.asarray(items)[np.sort(np.concatenate(picks))]
