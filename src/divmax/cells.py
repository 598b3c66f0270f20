"""Greedy cell decompositions and multiset projection.

A decomposition groups a point set into cells around greedily chosen centers:
points are scanned in ascending index order, the first unassigned point
becomes a center, and it absorbs every still-unassigned point within its
admitted radius.  Fixed mode admits a constant radius; variable mode admits
``delta * max(base, d(v, z) / 2)`` for each candidate v, so cells grow with
distance from the anchor z.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diversity import MultiplicityVector
from .metric import MetricInstance, tol_leq


@dataclass
class CellDecomposition:
    centers: list[int]
    assign: dict[int, int]
    radius_of: dict[int, float]
    members: dict[int, list[int]]

    def cell_size(self, center: int) -> int:
        return len(self.members[center])

    def check(self, inst: MetricInstance) -> None:
        """Assert the net property: members within their admitted radius,
        centers pairwise farther apart than the radius admitted for them."""
        for v, c in self.assign.items():
            assert tol_leq(inst.dist(v, c), self.radius_of[v]), (v, c)
        for i, c in enumerate(self.centers):
            for c2 in self.centers[i + 1:]:
                # c2 was not absorbed by c, so their distance exceeds c2's allowance
                assert inst.dist(c, c2) > self.radius_of[c2], (c, c2)


def _greedy(inst: MetricInstance, order: np.ndarray,
            allowance: np.ndarray) -> tuple[list[int], dict, dict, dict]:
    centers: list[int] = []
    assign: dict[int, int] = {}
    radius_of: dict[int, float] = {}
    members: dict[int, list[int]] = {}
    remaining = order
    remaining_allow = allowance
    while remaining.size:
        c = int(remaining[0])
        centers.append(c)
        taken = tol_leq(inst.dists_from(c, remaining), remaining_allow)
        got = members[c] = remaining[taken].tolist()
        assign.update(dict.fromkeys(got, c))
        radius_of.update(zip(got, remaining_allow[taken].tolist()))
        left = ~taken
        remaining = remaining[left]
        remaining_allow = remaining_allow[left]
    return centers, assign, radius_of, members


def _subset_order(inst: MetricInstance, subset) -> np.ndarray:
    if subset is None:
        return np.arange(inst.n, dtype=np.int64)
    order = np.asarray(sorted({int(i) for i in subset}), dtype=np.int64)
    if order.size == 0:
        return order
    if order[0] < 0 or order[-1] >= inst.n:
        raise IndexError(f"subset index out of range [0, {inst.n})")
    return order


def decompose_fixed(inst: MetricInstance, subset, delta: float) -> CellDecomposition:
    """Greedy decomposition where every cell admits the constant radius ``delta``."""
    if delta < 0:
        raise ValueError(f"cell radius must be nonnegative, got {delta}")
    order = _subset_order(inst, subset)
    allowance = np.full(order.shape, float(delta))
    return CellDecomposition(*_greedy(inst, order, allowance))


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
    allowance = delta * np.maximum(base, dz / 2.0)
    return CellDecomposition(*_greedy(inst, order, allowance))


def project_multiset(decomp: CellDecomposition, subset) -> MultiplicityVector:
    """Multiplicity of each cell center over ``subset`` (repetition respected).

    Centers appear in creation order; centers missing from ``subset`` are
    dropped.  Every element of ``subset`` must lie in the decomposed set.
    """
    counts: dict[int, int] = {}
    for s in subset:
        s = int(s)
        try:
            c = decomp.assign[s]
        except KeyError:
            raise ValueError(f"point {s} is not in the decomposition") from None
        counts[c] = counts.get(c, 0) + 1
    centers = [c for c in decomp.centers if counts.get(c, 0) > 0]
    return MultiplicityVector(tuple(centers), tuple(counts[c] for c in centers))
