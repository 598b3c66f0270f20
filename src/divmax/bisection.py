"""Approximation scheme for the minimum balanced bisection of a k-set.

Given a (multi)set T of k points, the task is to split T into halves L and R
minimizing f(L, R), the sum of q-power distances across the split.  The
scheme anchors a variable-radius cell decomposition at the star center of T,
rounds T onto the cell centers, and searches per-center multiplicity grids
whose step is a small fraction of each cell's population.  Any grid choice is
completed to exactly k/2 elements by bounded raises; when every step is 1 the
grid is instead the set of vectors summing to k/2, one of each split and its
complement, and when every cell also holds one element its splits are
searched as subsets, by the bounded exact subset search of ``baselines``.
The best completed vector's pre-image is returned together with its exact
split value, which is within (1 + eps) of the optimal bisection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import _best_subset
from .cells import decompose_variable, lift
from .compositions import (BLOCK_ENTRIES, count_compositions, enumerate_compositions,
                           first_best, raise_to_total)
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
    elems = check_indices(inst, T).tolist()
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


def least_split(dq: np.ndarray, caps: np.ndarray, steps: np.ndarray, *, budget: int):
    """The grid's count vector ``pick`` in ``[0, caps]``, raised to half of ``caps``'
    total, whose split against ``caps - pick`` has the least cross weight over the
    d^q block ``dq``; that weight; the number of grid vectors, counted before
    any is built (more than ``budget`` raise ``BudgetExceededError``); and which
    search ran, ``{"search": "grid"}`` or ``{"search": "subset", "bounded": ...,
    "rescored": ...}``.  Grid coordinate i runs through the multiples of
    ``steps[i]`` up to ``caps[i]``.

    When every cap is 1 and ``dq`` is exactly symmetric with a zero diagonal,
    the splits are searched as subsets while ``_best_subset``'s prefix table,
    (h - 3) C(c - 3, h - 3) entries for c cells and h = c - c // 2, fits
    ``BLOCK_ENTRIES`` (up to c = 20).  They are the right halves W = {cell 0}
    + R, R an (h - 1)-subset of the other cells.  With s the row sums of
    ``dq``, M = 2 (h - 1) dq - (s_i + s_j), off its diagonal and shifted to a
    least entry of 0, sums over the pairs of W to C(h, 2) times the shift
    less (h - 1) times W's cross weight.  So the first best h-clique of M,
    cell 0 last as the search's one fixed position, is the least split, and
    its rows run in the grid's order.  ``bounded`` counts the splits the
    search's bound drops unscored.  Where d^q is exact, so is M, and exact
    ties go to the first split in grid order; splits that tie only within
    rounding may come out either way.
    """
    half = int(caps.sum()) // 2
    grid = [range(0, int(c) + 1, int(st)) for c, st in zip(caps, steps)]
    # With unit steps the grid holds every count vector in [0, caps] that sums
    # to half, so raises are skipped, and lexicographic order makes the first
    # best the smallest; a split's complement flips coordinate 0 to
    # caps[0] - x, so keeping x <= caps[0] // 2 scores one of each pair.
    # Other grids are raised to half; the first best in grid order wins.
    at_most = bool((steps > 1).any())
    if not at_most:
        grid[0] = range(0, int(caps[0]) // 2 + 1)
    counted = count_compositions(grid, half, at_most=at_most)
    if counted > budget:
        raise BudgetExceededError(
            f"grid budget exceeded: {counted} predicted candidate vectors > budget {budget}")
    c = len(caps)
    h = c - half
    if (not at_most and (caps == 1).all()
            and (h <= 3 or (h - 3) * math.comb(c - 3, h - 3) <= BLOCK_ENTRIES)
            and np.array_equal(dq, dq.T) and not np.diagonal(dq).any()):
        s = dq.sum(axis=1)
        m = 2.0 * (h - 1) * dq - (s[:, None] + s[None, :])
        np.fill_diagonal(m, 0.0)
        m -= m.min()  # nonnegative, so that the search's screen and bound are on
        np.fill_diagonal(m, 0.0)
        last = np.roll(np.arange(c), -1)  # cells 1..c-1, then cell 0
        row, _, rescored, bounded = _best_subset("clique", m[np.ix_(last, last)], h, fixed=1)
        pick = np.ones(c, np.int64)
        pick[last[row]] = 0
        weight = cross_values(dq, pick[None].astype(np.float64), caps - pick)[0]
        return (tuple(pick.tolist()), float(weight), counted,
                {"search": "subset", "bounded": bounded, "rescored": rescored})
    blocks = enumerate_compositions(grid, half, at_most=at_most)
    if at_most:
        blocks = (raise_to_total(block, caps, steps, half) for block in blocks)
    # negation is exact, so the best negated weight is the least weight's bits
    pick, best = first_best(blocks, lambda b: -cross_values(dq, b.astype(np.float64), caps - b))
    # a split and its complement tie exactly; choose between them by order,
    # not by the last bit of their computed values
    return (min(tuple(pick.tolist()), tuple((caps - pick).tolist())), -float(best), counted,
            {"search": "grid"})


def min_bisection(inst: MetricInstance, T, eps: float,
                  *, budget: int = DEFAULT_BUDGET) -> BisectionResult:
    """Balanced bisection of the multiset T with value <= (1 + eps) * optimum.

    T is a sequence of point indices, repetition allowed.  The reported value
    is the exact cross weight of the returned split, so it always upper
    bounds the optimum.
    """
    check_args(inst, eps=eps, budget=budget)
    elems = sorted(check_indices(inst, T).tolist())
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
    pick, _, counted, search = least_split(inst.pow_submatrix(decomp.centers), caps, steps,
                                           budget=budget)
    in_left = np.zeros(k, dtype=bool)
    in_left[lift(np.arange(k), label, pick)] = True
    left, right = np.asarray(elems)[in_left], np.asarray(elems)[~in_left]
    value = float(inst.pow_submatrix(left, right).sum())
    return BisectionResult(tuple(left.tolist()), value, len(decomp.centers),
                           {"z": z, "delta_prime": delta_prime, "delta": delta,
                            "grid_frac": grid_frac, "candidates": counted, **search})
