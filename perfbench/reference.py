"""Reference values computed apart from divmax: numpy only, no divmax import.

Every function takes plain coordinate arrays (l2 metric) and the exponent q.
Distances are powered as ``d ** q``; the optima are exhaustive, so they are
exact up to float rounding.
"""
from __future__ import annotations

import math
from itertools import chain, combinations, islice

import numpy as np

_CHUNK = 100_000  # subset rows evaluated at once


def pow_dists(a: np.ndarray, b: np.ndarray, q: float) -> np.ndarray:
    """q-th powers of the l2 distances between rows of ``a`` and rows of ``b``."""
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    return d if q == 1.0 else d ** q


def _subset_rows(n: int, k: int):
    """Every k-subset of range(n) as rows of an int array, in chunks."""
    it = combinations(range(n), k)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(it, _CHUNK)), dtype=np.int64)
        if flat.size == 0:
            return
        yield flat.reshape(-1, k)


def _splits(k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Balanced splits of k positions, position 0 always on the left."""
    out = []
    for rest in combinations(range(1, k), k // 2 - 1):
        left = (0,) + rest
        out.append((left, tuple(i for i in range(k) if i not in left)))
    return out


def _row_values(kind: str, dq: np.ndarray, rows: np.ndarray) -> np.ndarray:
    k = rows.shape[1]
    pair = {}
    for i, j in combinations(range(k), 2):
        pair[i, j] = pair[j, i] = dq[rows[:, i], rows[:, j]]
    if kind == "clique":
        return np.sum([pair[i, j] for i, j in combinations(range(k), 2)], axis=0)
    if kind == "star":
        spokes = [np.sum([pair[i, j] for j in range(k) if j != i], axis=0)
                  for i in range(k)]
        return np.min(spokes, axis=0)
    if kind == "bipartition":
        cuts = [np.sum([pair[i, j] for i in left for j in right], axis=0)
                for left, right in _splits(k)]
        return np.min(cuts, axis=0)
    raise ValueError(f"unknown objective {kind!r}")


def subset_value(kind: str, points: np.ndarray, q: float, subset) -> float:
    """Objective value of one subset of distinct point indices."""
    idx = np.asarray(sorted(subset), dtype=np.int64)
    dq = pow_dists(points[idx], points[idx], q)
    return float(_row_values(kind, dq, np.arange(idx.size)[None, :])[0])


def exact_optimum(kind: str, points: np.ndarray, q: float, k: int) -> float:
    """Largest objective value over every k-subset of the points."""
    dq = pow_dists(points, points, q)
    return max(float(_row_values(kind, dq, rows).max())
               for rows in _subset_rows(points.shape[0], k))


def _left_counts(caps: np.ndarray, half: int) -> np.ndarray:
    """Every count vector 0 <= l <= caps with sum(l) == half, built column-wise."""
    rows = np.zeros((1, 0), dtype=np.int32)
    sums = np.zeros(1, dtype=np.int64)
    rest = int(caps.sum())
    for cap in caps:
        rest -= int(cap)
        vals = np.arange(int(cap) + 1)
        new_sums = (sums[:, None] + vals[None, :]).reshape(-1)
        keep = (new_sums <= half) & (new_sums + rest >= half)
        src = np.repeat(np.arange(rows.shape[0]), vals.size)[keep]
        rows = np.hstack([rows[src], np.tile(vals, rows.shape[0])[keep][:, None]])
        sums = new_sums[keep]
    return rows


def _support(multiset) -> tuple[np.ndarray, np.ndarray]:
    return np.unique(np.asarray(multiset, dtype=np.int64), return_counts=True)


def min_bisection(points: np.ndarray, q: float, multiset) -> float:
    """Exact minimum cross weight over balanced splits of a multiset of indices.

    Copies of one point sit at distance zero from each other, so a split is
    fully described by how many copies of each distinct point go left.
    """
    support, counts = _support(multiset)
    dq = pow_dists(points[support], points[support], q)
    best = math.inf
    lefts = _left_counts(counts, int(counts.sum()) // 2).astype(np.float64)
    for lo in range(0, lefts.shape[0], _CHUNK):
        left = lefts[lo:lo + _CHUNK]
        cross = (((counts[None, :] - left) @ dq) * left).sum(axis=1)
        best = min(best, float(cross.min()))
    return best


def cross_weight(points: np.ndarray, q: float, multiset, left) -> float:
    """Cross weight of the split sending ``left`` to one side and the rest of
    ``multiset`` to the other; ``left`` must be a sub-multiset."""
    support, counts = _support(multiset)
    pos = {int(u): i for i, u in enumerate(support)}
    lcount = np.zeros(support.size)
    for u in left:
        lcount[pos[int(u)]] += 1
    dq = pow_dists(points[support], points[support], q)
    return float(lcount @ dq @ (counts - lcount))


def diameter(points: np.ndarray) -> float:
    """Exact largest l2 distance between two of the points (d = 2).

    Points strictly inside the polygon spanned by the extreme points in 64
    directions cannot be an end of a farthest pair, so only the rest are
    compared pairwise.
    """
    n = points.shape[0]
    ang = 2.0 * np.pi * np.arange(64) / 64
    ext = []
    for c, s in zip(np.cos(ang), np.sin(ang)):
        i = int((points[:, 0] * c + points[:, 1] * s).argmax())
        if not ext or ext[-1] != i:
            ext.append(i)
    if len(ext) > 1 and ext[0] == ext[-1]:
        ext.pop()
    keep = np.ones(n, dtype=bool)
    if len(set(ext)) >= 3:
        poly = points[ext]
        scale = float(np.abs(points).max()) or 1.0
        inside = np.ones(n, dtype=bool)
        for a, b in zip(poly, np.roll(poly, -1, axis=0)):
            cross = ((b[0] - a[0]) * (points[:, 1] - a[1])
                     - (b[1] - a[1]) * (points[:, 0] - a[0]))
            inside &= cross > 1e-9 * scale * scale
        keep = ~inside
    cand = points[keep]
    best = 0.0
    step = max(1, 4_000_000 // max(1, cand.shape[0]))
    for lo in range(0, cand.shape[0], step):
        diff = cand[lo:lo + step, None, :] - cand[None, :, :]
        best = max(best, float((diff * diff).sum(axis=-1).max()))
    return math.sqrt(best)


def greedy_clique_value(points: np.ndarray, k: int) -> float:
    """Clique value (q = 1) of the farthest-point greedy: start from a far
    pair found by two scans, then add the point with the largest distance sum."""
    def dists(i: int) -> np.ndarray:
        diff = points - points[i]
        return np.sqrt((diff * diff).sum(axis=1))

    a = int(dists(0).argmax())
    b = int(dists(a).argmax())
    chosen = [a, b]
    score = dists(a) + dists(b)
    score[chosen] = -np.inf
    while len(chosen) < k:
        u = int(score.argmax())
        chosen.append(u)
        score += dists(u)
        score[chosen] = -np.inf
    return subset_value("clique", points, 1.0, chosen)
