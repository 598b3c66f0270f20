"""Grid-rounding approximation scheme for all three diversity objectives.

The scheme guesses two quantities: a scale for the average optimal distance
and the center z0 of the optimal solution's spanning star.  For each guess it
keeps every point far from z0 as a forced outlier (far points provably belong
to an optimal set), decomposes the remaining ball into small cells, and
enumerates multiplicity vectors over the cell centers.  Each candidate
multiset is scored after rounding every point to its cell center, and the
best candidate's pre-image is returned.  With cell radius eps / 2^(q+3) times
the guessed scale, rounding changes any candidate's value by at most an eps
fraction of the optimum, which yields the (1 - eps) guarantee.  Once every
cell is a singleton, rounding is the identity, and the guess is searched by
the brute-force oracle's screened subset engine (its k-subsets that hold the
outliers), not as count rows with one column per cell.  Each rounded problem
is scored once, and a plan of more rows than C(n, k) gives way to the
engine's search of all k-subsets; bipartition count rows are scored exactly
only where the engine's screen finds them near-best.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .baselines import _best_subset, _Screen
from .cells import CellDecomposition, decompose_fixed, lift
from .compositions import count_compositions, enumerate_compositions, first_best
from .diversity import (EXACT_BIPARTITION_CAP, Objective, Solution, _expand_rows,
                        evaluate, values)
from .errors import BudgetExceededError
from .metric import REL_TOL, MetricInstance, diameter_estimate, tol_leq

# Multipliers bounding how far a non-solution point can sit from the optimal
# star center, in units of the q-th root of the average optimal value.
OUTLIER_RADIUS_COEFF = {"clique": 2.0, "star": 4.0, "bipartition": 6.0}

# The guessed scale is only known within a factor 2, so the containment ball
# is enlarged by the same factor.
GUESS_SLACK = 2.0

DEFAULT_BUDGET = 10_000_000


def build_guess_grid(inst: MetricInstance, k: int) -> list[float]:
    """Geometric grid of scale guesses covering [diam_est / k^2, 2 * diam_est],
    descending with ratio one half.

    One extra candidate is kept beyond each end of the required range.
    Candidates are q-th roots of guessed average values.  Every point is a
    star-center candidate for every scale.
    """
    rhat = diameter_estimate(inst)
    if rhat <= 0:
        return []
    top, bottom = 2.0 * rhat, rhat / (k * k)
    cands, s = [top * 2.0], top  # one extra above
    while s >= bottom * (1.0 - REL_TOL):
        cands.append(s)
        s /= 2.0
    cands.append(s)  # one extra below
    return cands


def _rounded_values(inst: MetricInstance, obj: Objective, ext: list[int], dq: np.ndarray,
                    counts: np.ndarray, eps: float) -> np.ndarray:
    """Rounded values of count rows over ``ext`` = centers + outliers (d^q block ``dq``);
    exact bipartition rows, one prefix each, go through the oracle's ``_Screen``, whose
    -inf for rows below the block's best keeps ``first_best``'s row and value bits."""
    full = np.hstack([counts, np.ones((len(counts), len(ext) - counts.shape[1]), np.int64)])
    k = int(full[0].sum())
    if obj.kind != "bipartition":
        return values(obj.kind, dq, full)
    if k > EXACT_BIPARTITION_CAP:
        return np.array([evaluate(inst, obj, np.repeat(ext, row), eps=eps) for row in full])
    rows = _expand_rows(full).T
    return _Screen("bipartition", dq, k).score(rows[:-1], np.arange(len(full)), rows[-1],
                                               -np.inf)[0]


def _plan(inst: MetricInstance, obj: Objective, k: int, eps: float, scales: list[float]):
    """Guesses ``(s, z0, decomp, outliers, choices, total)`` posing distinct problems, in
    (scale, center) order, and the number of guesses; a center makes none at a scale
    where it has more than k outliers or the same ones as an earlier center."""
    radii = GUESS_SLACK * OUTLIER_RADIUS_COEFF[obj.kind] * np.asarray(scales)
    all_idx = np.arange(inst.n, dtype=np.int64)
    found: list[dict] = [{} for _ in scales]  # outlier mask -> (its first z0, outliers)
    for z0 in range(inst.n):
        out = ~tol_leq(inst.dists_from(z0), radii[:, None])
        for si in np.flatnonzero(out.sum(axis=1) <= k).tolist():
            found[si].setdefault(out[si].tobytes(), (z0, all_idx[out[si]]))
    problems: dict = {}  # (labels, outliers) -> the first guess posing that problem
    for s, first in zip(scales, found):
        for z0, outliers in first.values():
            decomp = decompose_fixed(inst, np.delete(all_idx, outliers),
                                     eps / 2.0 ** (inst.q + 3) * s)
            # the points are the non-outliers and each center is its cell's
            # lowest-index member, so this key fixes all but the cell radius
            problems.setdefault((decomp.label.tobytes(), outliers.tobytes()),
                                (s, z0, decomp, outliers))
    plan = [(s, z0, d, o, [range(min(size, k), -1, -1) for size in np.bincount(d.label).tolist()],
             k - o.size) for s, z0, d, o in problems.values()]
    return plan, sum(map(len, found))


def solve(inst: MetricInstance, obj: Objective, k: int, eps: float,
          *, budget: int = DEFAULT_BUDGET) -> Solution:
    """Best k-subset found by the guess-and-round scheme; value >= (1 - eps) * OPT.

    Guesses run over descending scales and ascending centers; equal values keep
    the first.  A guess with an earlier one's outliers and cell labels poses the
    same problem and is dropped.  A guess whose cells are all singletons rounds
    nothing, so it scores every k-subset holding its outliers exactly with the
    oracle's bounded search (``meta["exact"]`` counts these, ``meta["bounded"]``
    and ``meta["rescored"]`` the subsets they drop by a bound and rescore).  Any
    other guess whose outliers contain those lifts only to such subsets, so it is
    dominated and dropped without changing the best value; only a bit-exact tie
    between distinct subsets could change the one returned.  Bipartitions above
    ``EXACT_BIPARTITION_CAP`` score rows by a ``1 + eps`` estimate, so there only
    repeats are dropped.  The kept guesses' rows are counted exactly before any
    is enumerated (``meta["planned"]``); past C(n, k) they give way to one exact
    search of every k-subset, which dominates them all, as center 0 at the top
    scale, whose ball holds every point.  The solve raises at the first guess
    whose running total exceeds ``budget``.
    """
    if obj.q != inst.q:
        raise ValueError(f"objective exponent {obj.q} != instance exponent {inst.q}")
    if not 2 <= k <= inst.n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={inst.n}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if obj.kind == "bipartition" and k % 2:
        raise ValueError(f"bipartition needs even k, got {k}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    scales = build_guess_grid(inst, k)
    if not scales:
        return Solution(tuple(range(k)), 0.0, "ptas", guess=(0, 0.0),
                        meta=dict.fromkeys(("guesses repeats dominated scored exact "
                                            "bounded rescored candidates max_cells").split(), 0))
    plan, guesses = _plan(inst, obj, k, eps, scales)
    # a repeat has its problem's labels, so its cell count too
    repeats, max_cells = guesses - len(plan), max(len(g[2].centers) for g in plan)
    exact_ok = obj.kind != "bipartition" or k <= EXACT_BIPARTITION_CAP
    if exact_ok:
        floors = [(i, set(g[3].tolist())) for i, g in enumerate(plan)
                  if len(g[2].centers) == g[2].points.size]
        plan = [g for i, g in enumerate(plan)
                if not any(j != i and f.issubset(g[3].tolist()) for j, f in floors)]
    sizes = [count_compositions(choices, total) for *_, choices, total in plan]
    planned = sum(sizes)
    if exact_ok and math.comb(inst.n, k) < planned:  # every point its own cell
        idx = np.arange(inst.n)
        whole = CellDecomposition(idx.tolist(), idx, idx, np.zeros(inst.n))
        plan, sizes = [(scales[0], 0, whole, idx[:0], None, k)], [math.comb(inst.n, k)]

    for (s, z0, *_), evaluated in zip(plan, itertools.accumulate(sizes)):
        if evaluated > budget:
            raise BudgetExceededError(
                f"candidate budget exceeded: {evaluated} predicted candidates > "
                f"budget {budget} (scale {s!r}, center {z0})")

    best: Solution | None = None
    exact = rescored = bounded = 0
    for s, z0, decomp, outliers, choices, total in plan:
        ext = list(decomp.centers) + outliers.tolist()
        dq = inst.pow_submatrix(ext)
        if exact_ok and len(decomp.centers) == decomp.points.size:
            # rounding is the identity: search the k-subsets holding the outliers
            exact += 1
            row, _, row_rescored, row_bounded = _best_subset(obj.kind, dq, k, fixed=outliers.size)
            rescored += row_rescored
            bounded += row_bounded
            pre = tuple(sorted(ext[i] for i in row.tolist()))
        else:
            # Called through the module global, so a wrapper installed on
            # ``ptas.enumerate_compositions`` sees every block.
            best_counts, _ = first_best(
                enumerate_compositions(choices, total),
                lambda counts: _rounded_values(inst, obj, ext, dq, counts, eps))
            lifted = lift(decomp.points, decomp.label, best_counts)
            pre = tuple(np.sort(np.concatenate([lifted, outliers])).tolist())
        val = evaluate(inst, obj, pre, eps=eps)
        if best is None or val > best.value:
            best = Solution(pre, val, "ptas", guess=(z0, float(s) ** inst.q))
    assert best is not None
    best.meta.update(guesses=guesses, repeats=repeats, dominated=guesses - repeats - len(plan),
                     scored=len(plan), exact=exact, bounded=bounded, rescored=rescored,
                     candidates=sum(sizes), planned=planned, max_cells=max_cells)
    return best
