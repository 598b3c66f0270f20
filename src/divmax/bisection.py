"""Approximation scheme for the minimum balanced bisection of a k-set.

Given a (multi)set T of k points, the task is to split T into halves L and R
minimizing f(L, R), the sum of q-power distances across the split.  The
scheme anchors a variable-radius cell decomposition at the star center of T,
rounds T onto the cell centers, and searches per-center multiplicity grids
whose step is a small fraction of each cell's population.  Any grid choice is
completed to exactly k/2 elements by bounded raises; when every step is 1 the
grid is instead the set of vectors summing to k/2, one of each split and its
complement.  The best completed vector's pre-image is returned together with
its exact split value, which is within (1 + eps) of the optimal bisection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import decompose_variable, lift
from .compositions import (count_compositions, enumerate_compositions, first_best,
                           raise_to_total)
from .diversity import check_args, cross_values, values
from .errors import BudgetExceededError
from .metric import MetricInstance, check_indices

DEFAULT_BUDGET = 10_000_000


@dataclass
class BisectionResult:
    left: tuple[int, ...]
    value: float
    cells_used: int
    provenance: dict


def star_center(inst: MetricInstance, T) -> tuple[int, float]:
    """Center of the minimum-weight spanning star of the multiset T, and its
    weight.  Ties go to the lowest point index."""
    elems = [int(t) for t in T]
    check_indices(inst, elems)
    if len(elems) < 2:
        raise ValueError(f"need at least 2 elements, got {len(elems)}")
    support = sorted(set(elems))
    mult = np.array([elems.count(u) for u in support], dtype=np.float64)
    return _star(support, inst.pow_submatrix(support), mult)


def _star(support: list[int], dq: np.ndarray, mult: np.ndarray) -> tuple[int, float]:
    """``star_center`` of ``mult[i]`` copies of each ``support[i]``; d^q block ``dq``."""
    weights = dq @ mult
    i = int(weights.argmin())
    return support[i], float(weights[i])


def min_bisection(inst: MetricInstance, T, eps: float,
                  *, budget: int = DEFAULT_BUDGET) -> BisectionResult:
    """Balanced bisection of the multiset T with value <= (1 + eps) * optimum.

    T is a sequence of point indices, repetition allowed.  The reported value
    is the exact cross weight of the returned split, so it always upper
    bounds the optimum.
    """
    check_args(inst, eps=eps, budget=budget)
    elems = sorted(int(t) for t in T)
    check_indices(inst, elems)
    k = len(elems)
    if k < 2 or k % 2:
        raise ValueError(f"need an even multiset size >= 2, got {k}")
    q = inst.q
    if k == 2:
        return BisectionResult((elems[0],), inst.dist_pow(elems[0], elems[1]), 0,
                               {"z": elems[0], "delta_prime": None})

    support = sorted(set(elems))
    mult_full = np.array([elems.count(u) for u in support], dtype=np.float64)
    dq_sup = inst.pow_submatrix(support)
    cl = float(values("clique", dq_sup, mult_full[None, :])[0])
    if cl == 0.0:
        return BisectionResult(tuple(elems[: k // 2]), 0.0, 0,
                               {"z": elems[0], "delta_prime": 0.0})

    z, _ = _star(support, dq_sup, mult_full)
    delta_prime = (4.0 * cl / (k * k)) / (2.0 ** q + 1.0)
    base = delta_prime ** (1.0 / q)
    delta = eps / 2.0 ** (q + 4.0)
    grid_frac = eps / (8.0 * (2.0 ** q + 1.0))

    decomp = decompose_variable(inst, support, z, base, delta)
    # cell of each element of the sorted multiset
    label = decomp.label[np.searchsorted(decomp.points, elems)]
    caps = np.bincount(label)
    steps = np.maximum(np.floor(grid_frac * caps).astype(np.int64), 1)
    half = k // 2

    grid = [range(0, int(c) + 1, int(st)) for c, st in zip(caps, steps)]
    # With unit steps the grid holds every count vector in [0, caps] that sums
    # to k/2, so raises are skipped, and lexicographic order makes the first
    # best the smallest; a split's complement flips coordinate 0 to
    # caps[0] - x, so keeping x <= caps[0] // 2 scores one of each pair.
    # Other grids are raised to k/2; the first best in grid order wins.
    at_most = bool((steps > 1).any())
    if not at_most:
        grid[0] = range(0, int(caps[0]) // 2 + 1)
    counted = count_compositions(grid, half, at_most=at_most)
    if counted > budget:
        raise BudgetExceededError(
            f"grid budget exceeded: {counted} predicted candidate vectors > budget {budget}")
    dq_c = inst.pow_submatrix(decomp.centers)
    m_full = caps.astype(np.float64)
    blocks = enumerate_compositions(grid, half, at_most=at_most)
    if at_most:
        blocks = (raise_to_total(block, caps, steps, half) for block in blocks)
    pick, _ = first_best(blocks, lambda b: -cross_values(dq_c, b.astype(np.float64), m_full - b))

    # a split and its complement tie exactly; choose between them by order,
    # not by the last bit of their computed values
    pick = min(tuple(pick.tolist()), tuple((caps - pick).tolist()))
    in_left = np.zeros(k, dtype=bool)
    in_left[lift(np.arange(k), label, pick)] = True
    left, right = np.asarray(elems)[in_left], np.asarray(elems)[~in_left]
    value = float(inst.pow_submatrix(left, right).sum())
    return BisectionResult(tuple(left.tolist()), value, len(decomp.centers),
                           {"z": z, "delta_prime": delta_prime, "delta": delta,
                            "grid_frac": grid_frac, "candidates": counted})
