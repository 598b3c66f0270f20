"""Near-linear remote-clique scheme for plain distances (q = 1).

The whole point set is decomposed once into cells whose radius is a small
fraction of the greedy estimate of the average optimal distance.  A center
z0' whose moderate ball excludes fewer than k/2 points anchors the search:
cells fully outside an enlarged ball are forced into the solution at full
multiplicity, and multiplicities inside the ball are drawn from short
geometric ladders rather than full ranges.  Candidate vectors are completed
to exactly k points and scored by an O(k)-support clique formula with the
outside contribution cached.

The ladder search is capped by a candidate budget; when the cap is hit the
search keeps its best find and the greedy solution acts as a floor, with
``meta['search_complete']`` recording the truncation.
"""
from __future__ import annotations

import math

import numpy as np

from .baselines import greedy_clique
from .cells import CellDecomposition, decompose_fixed
from .diversity import batch_evaluate, clique_value, values
from .metric import MetricInstance, tol_leq
from .ptas import Solution

CELL_FRACTION = 8.0        # cell radius = (eps / 8) * estimated average
CENTER_BALL_COEFF = 5.0    # z0' must exclude < k/2 points at this radius
KEEP_BALL_COEFF = 13.0     # cells meeting this ball stay searchable
APPROX_FACTOR = 8.0        # value >= (1 - 8 * eps) * OPT on complete searches

DEFAULT_CANDIDATE_BUDGET = 100_000
_EVAL_CHUNK = 4096


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


def find_center(inst: MetricInstance, decomp: CellDecomposition, radius: float,
                k: int) -> int:
    """First cell center whose ball of ``radius`` excludes fewer than k/2 points."""
    for c in decomp.centers:
        excluded = int((~tol_leq(inst.dists_from(c), radius)).sum())
        if excluded < k / 2.0:
            return c
    raise RuntimeError(
        "no cell center excludes fewer than k/2 points; the scale estimate is off")


def solve_fast(inst: MetricInstance, k: int, eps: float,
               *, budget: int = DEFAULT_CANDIDATE_BUDGET) -> Solution:
    """Near-linear remote-clique search; on complete searches the value is at
    least (1 - 8 eps) of the optimum, and it never falls below the greedy value."""
    if inst.q != 1.0:
        raise ValueError(f"the fast clique scheme requires q = 1, got q = {inst.q}")
    if not 2 <= k <= inst.n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={inst.n}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")

    greedy = greedy_clique(inst, k)
    delta_prime = greedy.value / math.comb(k, 2)
    if delta_prime == 0.0:
        # a half-approximate zero forces the optimum to zero as well
        return Solution(greedy.subset, greedy.value, "fast-clique",
                        meta={"search_complete": True, "candidates": 0, "cells": 0,
                              "greedy_floor_used": True})

    decomp = decompose_fixed(inst, None, (eps / CELL_FRACTION) * delta_prime)
    z0p = find_center(inst, decomp, CENTER_BALL_COEFF * delta_prime, k)

    near = tol_leq(inst.dists_from(z0p), KEEP_BALL_COEFF * delta_prime)
    inside_cells = [c for c in decomp.centers if any(near[v] for v in decomp.members[c])]
    inside_set = set(inside_cells)
    outside_cells = [c for c in decomp.centers if c not in inside_set]

    out_mult = np.array([len(decomp.members[c]) for c in outside_cells], dtype=np.float64)
    fixed = int(out_mult.sum())
    free_k = k - fixed
    assert free_k > 0 or fixed == k

    table_in = inst.pow_submatrix(inside_cells)
    if outside_cells:
        cross_sums = inst.pow_submatrix(inside_cells, outside_cells) @ out_mult
        const_out = float(values("clique", inst.pow_submatrix(outside_cells),
                                 out_mult[None, :])[0])
    else:
        cross_sums = np.zeros(len(inside_cells))
        const_out = 0.0

    caps = [min(len(decomp.members[c]), k) for c in inside_cells]
    ladders = [multiplicity_ladder(c, eps) for c in caps]
    ncell = len(inside_cells)

    complete = True
    counted = 0
    seen: set[tuple[bytes, bytes]] = set()
    sparse: list[tuple[np.ndarray, np.ndarray]] = []  # (cell positions, values)
    vec = np.zeros(ncell, dtype=np.int64)

    def finish(v: np.ndarray) -> None:
        out = v.copy()
        deficit = free_k - int(out.sum())
        for i in range(ncell):
            if deficit == 0:
                break
            add = min(caps[i] - int(out[i]), deficit)
            if add > 0:
                out[i] += add
                deficit -= add
        if deficit:
            return
        # keyed on the sparse form: a dense key costs 8 bytes per searched cell
        pos = np.flatnonzero(out)
        key = (pos.tobytes(), out[pos].tobytes())
        if key not in seen:
            seen.add(key)
            sparse.append((pos, out[pos]))

    def walk() -> None:
        """Finish the ladder leaves in lexicographic order until the budget."""
        nonlocal counted, complete
        rungs = [iter(ladders[0])]  # untried rungs of each cell on the current path
        sums = [0]                  # prefix sum before each of those cells
        while rungs:
            i = len(rungs) - 1
            v = next((v for v in rungs[i] if sums[i] + v <= free_k), None)
            if v is None:
                rungs.pop()
                sums.pop()
            elif i + 1 < ncell and sums[i] + v < free_k:
                vec[i] = v
                rungs.append(iter(ladders[i + 1]))
                sums.append(sums[i] + v)
            else:
                # a leaf: every later cell can only take its last rung, 0
                vec[i] = v
                vec[i + 1:] = 0
                counted += 1
                finish(vec)
                if counted >= budget:
                    complete = False
                    return

    if free_k > 0 and ncell:
        walk()
    elif free_k == 0:
        sparse.append((np.array([], dtype=np.int64), np.array([], dtype=np.int64)))

    best_val = -np.inf
    best_counts: tuple[np.ndarray, np.ndarray] | None = None
    for lo in range(0, len(sparse), _EVAL_CHUNK):
        chunk = sparse[lo:lo + _EVAL_CHUNK]
        # each leaf as an index row of width free_k over the inside cells
        rows = np.repeat(np.concatenate([p for p, _ in chunk]),
                         np.concatenate([v for _, v in chunk])).reshape(len(chunk), free_k)
        totals = (batch_evaluate("clique", table_in, rows) + cross_sums[rows].sum(axis=1)
                  + const_out)
        i = int(totals.argmax())
        if totals[i] > best_val:
            best_val = float(totals[i])
            best_counts = chunk[i]

    meta = {"search_complete": complete, "candidates": counted,
            "cells": len(decomp.centers), "cells_searched": ncell,
            "fixed_points": fixed, "greedy_floor_used": False}
    subset = greedy.subset
    value = greedy.value
    if best_counts is not None:
        chosen: list[int] = []
        pos, valv = best_counts
        for p, m in zip(pos, valv):
            chosen.extend(decomp.members[inside_cells[int(p)]][: int(m)])
        for c in outside_cells:
            chosen.extend(decomp.members[c])
        cand = tuple(sorted(chosen))
        cand_value = clique_value(inst, cand)
        if cand_value > value:
            subset, value = cand, cand_value
        else:
            meta["greedy_floor_used"] = True
    else:
        meta["greedy_floor_used"] = True
    return Solution(subset, value, "fast-clique", guess=(z0p, delta_prime), meta=meta)
