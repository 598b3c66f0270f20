"""Near-linear remote-clique scheme for plain distances (q = 1).

The whole point set is decomposed once into cells whose radius is a small
fraction of the greedy estimate of the average optimal distance.  A center
z0' whose moderate ball excludes fewer than k/2 points anchors the search:
cells fully outside an enlarged ball are forced into the solution at full
multiplicity, and multiplicities inside the ball are drawn from short
geometric ladders rather than full ranges.  Candidate vectors are completed
to exactly k points and scored as count rows over the inside cells, with the
outside cells appended at full multiplicity.

The ladder grid is counted before anything is built.  A grid of at most
``budget`` rows is searched whole, which backs the 1 - 8 eps guarantee.  A
larger grid is not searched at all: the greedy solution, improved by 1-swap
local search, is returned instead, with no guarantee beyond greedy's and
``meta['search_complete']`` false.
"""
from __future__ import annotations

import math

import numpy as np

from .baselines import greedy_clique
from .cells import CellDecomposition, decompose_fixed, lift
from .compositions import (count_compositions, enumerate_compositions, first_best,
                           raise_to_total)
from .diversity import Objective, Solution, check_args, evaluate, values
from .metric import REL_TOL, MetricInstance, tol_leq

CELL_FRACTION = 8.0        # cell radius = (eps / 8) * estimated average
CENTER_BALL_COEFF = 5.0    # z0' must exclude < k/2 points at this radius
KEEP_BALL_COEFF = 13.0     # cells meeting this ball stay searchable
APPROX_FACTOR = 8.0        # value >= (1 - 8 * eps) * OPT on complete searches

DEFAULT_CANDIDATE_BUDGET = 100_000


def multiplicity_ladder(cap: int, eps: float) -> list[int]:
    """Descending multiplicities from ``cap`` to 0, thinning by 1 - eps/2.

    Every target t in [0, cap] has a ladder value v with (1 - eps/2) t <= v <= t.
    """
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    vals = []
    m = cap
    while m > 0:
        vals.append(m)
        m = min(math.ceil((1.0 - eps / 2.0) * m), m - 1)
    vals.append(0)
    return vals


def _find_center_row(inst: MetricInstance, decomp: CellDecomposition, radius: float,
                     k: int) -> tuple[int, np.ndarray]:
    """First cell center whose ball of ``radius`` excludes fewer than k/2
    points, with the center's distances to every point."""
    for c in decomp.centers:
        row = inst.dists_from(c)
        if int((~tol_leq(row, radius)).sum()) < k / 2.0:
            return c, row
        del row  # so that the next row is not computed beside this one
    raise RuntimeError(
        "no cell center excludes fewer than k/2 points; the scale estimate is off")


def _local_search(inst: MetricInstance, subset) -> tuple[tuple[int, ...], int]:
    """1-swap local search for remote-clique (q = 1) from ``subset``.

    Each step makes the swap with the largest gain, the first one in
    (point, position) order among equal gains, while the gain exceeds
    ``REL_TOL`` of the current value.  Returns the subset and the swap count.
    """
    chosen = np.array(subset, dtype=np.int64)
    cols = np.empty((inst.n, chosen.size))  # d(v, chosen[j])
    for j, c in enumerate(chosen.tolist()):
        cols[:, j] = inst.dists_from(c)
    sums = cols.sum(axis=1)  # total distance from v to the set
    value = float(sums[chosen].sum()) / 2.0
    gain = np.empty_like(cols)
    swaps = 0
    while True:
        # gain of putting v in place of chosen[j]
        np.subtract(sums[:, None], cols, out=gain)
        gain -= sums[chosen]
        gain[chosen] = -np.inf
        v, j = np.unravel_index(int(gain.argmax()), gain.shape)
        if not gain[v, j] > REL_TOL * value:
            return tuple(sorted(int(c) for c in chosen)), swaps
        value += float(gain[v, j])
        col = inst.dists_from(int(v))
        sums += col - cols[:, j]
        cols[:, j] = col
        chosen[j] = v
        swaps += 1


def solve_fast(inst: MetricInstance, k: int, eps: float,
               *, budget: int = DEFAULT_CANDIDATE_BUDGET) -> Solution:
    """Near-linear remote-clique scheme at q = 1.

    The ladder grid is counted first.  When it has at most ``budget`` rows it
    is searched whole, and the value is at least (1 - 8 eps) of the optimum
    and never below greedy's.  Otherwise the search is skipped and the greedy
    subset improved by 1-swap local search is returned.  ``meta`` records
    ``search_complete``, ``candidates`` (rows searched),
    ``predicted_candidates``, ``budget``, ``swaps`` and ``greedy_floor_used``.
    """
    if inst.q != 1.0:
        raise ValueError(f"the fast clique scheme requires q = 1, got q = {inst.q}")
    check_args(inst, k=k, eps=eps, budget=budget)

    greedy = greedy_clique(inst, k)
    delta_prime = greedy.value / math.comb(k, 2)
    if delta_prime == 0.0:
        # a half-approximate zero forces the optimum to zero as well
        return Solution(greedy.subset, greedy.value, "fast-clique",
                        meta={"search_complete": True, "candidates": 0,
                              "predicted_candidates": 0, "budget": budget, "swaps": 0,
                              "cells": 0, "greedy_floor_used": True})

    decomp = decompose_fixed(inst, None, (eps / CELL_FRACTION) * delta_prime)
    z0p, row = _find_center_row(inst, decomp, CENTER_BALL_COEFF * delta_prime, k)

    near = tol_leq(row, KEEP_BALL_COEFF * delta_prime)
    # a cell is searched when any of its members lies in the keep ball
    sizes = np.bincount(decomp.label)
    inside = np.bincount(decomp.label[near[decomp.points]], minlength=sizes.size) > 0
    centers = np.asarray(decomp.centers, dtype=np.int64)
    out_mult = sizes[~inside]
    fixed = int(out_mult.sum())
    free_k = k - fixed
    assert free_k > 0 or fixed == k

    caps = np.minimum(sizes[inside], k).tolist()
    ladder_of = {c: multiplicity_ladder(c, eps) for c in set(caps)}  # caps <= k: k + 1 at most
    ladders = [ladder_of[c] for c in caps]
    predicted = count_compositions(ladders, free_k, at_most=True)
    meta = {"search_complete": predicted <= budget, "candidates": 0,
            "predicted_candidates": predicted, "budget": budget, "swaps": 0,
            "cells": len(decomp.centers), "cells_searched": len(caps),
            "fixed_points": fixed, "greedy_floor_used": True}
    subset, value = greedy.subset, greedy.value

    if not meta["search_complete"]:
        subset, meta["swaps"] = _local_search(inst, greedy.subset)
        if meta["swaps"]:
            value = evaluate(inst, Objective("clique", inst.q), subset)
            meta["greedy_floor_used"] = False
        return Solution(subset, value, "fast-clique", guess=(z0p, delta_prime), meta=meta)

    # the outside cells are extra columns, at full multiplicity in every row
    table = inst.pow_submatrix(np.concatenate([centers[inside], centers[~inside]]))
    meta["candidates"] = predicted
    rows = (raise_to_total(block, caps, caps, free_k)
            for block in enumerate_compositions(ladders, free_k, at_most=True))
    best, _ = first_best(rows, lambda r: values(
        "clique", table, np.hstack([r, np.tile(out_mult, (len(r), 1))])))
    if best is not None:
        counts = sizes.copy()
        counts[inside] = best
        cand = tuple(lift(decomp.points, decomp.label, counts).tolist())
        cand_value = evaluate(inst, Objective("clique", inst.q), cand)
        if cand_value > value:
            subset, value = cand, cand_value
            meta["greedy_floor_used"] = False
    return Solution(subset, value, "fast-clique", guess=(z0p, delta_prime), meta=meta)
