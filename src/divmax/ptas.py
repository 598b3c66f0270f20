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
cell is a singleton, rounding is the identity and such guesses pose one
exact problem, so each rounded problem is scored once: a run whose cells are
all singletons costs one search of C(n, k) subsets.  Such a guess is
searched by the brute-force oracle's screened subset engine (its k-subsets
that hold the outliers), not as count rows with one column per cell.
"""
from __future__ import annotations

import numpy as np

from .baselines import _best_subset
from .cells import decompose_fixed, lift
from .compositions import count_compositions, enumerate_compositions, first_best
from .diversity import EXACT_BIPARTITION_CAP, Objective, Solution, evaluate, values
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
    top = 2.0 * rhat
    bottom = rhat / (k * k)
    cands = [top * 2.0]  # one extra above
    s = top
    while s >= bottom * (1.0 - REL_TOL):
        cands.append(s)
        s /= 2.0
    cands.append(s)  # one extra below
    return cands


def _rounded_values(inst: MetricInstance, obj: Objective, ext: list[int], dq: np.ndarray,
                    counts: np.ndarray, eps: float) -> np.ndarray:
    """Rounded values of count rows over ``ext`` = centers + outliers (d^q block ``dq``)."""
    full = np.hstack([counts, np.ones((len(counts), len(ext) - counts.shape[1]), np.int64)])
    if obj.kind == "bipartition" and int(full[0].sum()) > EXACT_BIPARTITION_CAP:
        return np.array([evaluate(inst, obj, np.repeat(ext, row), eps=eps) for row in full])
    return values(obj.kind, dq, full)


def solve(inst: MetricInstance, obj: Objective, k: int, eps: float,
          *, budget: int = DEFAULT_BUDGET) -> Solution:
    """Best k-subset found by the guess-and-round scheme; value >= (1 - eps) * OPT.

    Guesses run over descending scale candidates and ascending center
    candidates; equal-value solutions keep the first one encountered.  A guess
    with the same outliers and cell labels as an earlier one poses the same
    problem and is dropped.  A guess whose cells are all singletons rounds
    nothing, so it scores every k-subset that contains its outliers exactly,
    with the oracle's screened search (``meta["exact"]`` counts these and
    ``meta["rescored"]`` the subsets they rescore exactly).
    Any other guess whose outliers contain those lifts only to such subsets,
    so it is dominated and dropped without changing the best value; only a
    bit-exact tie between distinct subsets could change the one returned.
    Bipartitions above ``EXACT_BIPARTITION_CAP`` score rows by a ``1 + eps``
    estimate, so there only repeats are dropped.  The kept guesses' candidates
    are counted exactly before any is enumerated, and the solve raises at the
    first guess whose running total exceeds ``budget``.
    """
    if obj.q != inst.q:
        raise ValueError(f"objective exponent {obj.q} != instance exponent {inst.q}")
    if not 2 <= k <= inst.n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={inst.n}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if obj.kind == "bipartition" and k % 2:
        raise ValueError(f"bipartition needs even k, got {k}")

    scales = build_guess_grid(inst, k)
    if not scales:
        return Solution(tuple(range(k)), 0.0, "ptas", guess=(0, 0.0),
                        meta=dict.fromkeys(("guesses repeats dominated scored exact "
                                            "rescored candidates max_cells").split(), 0))
    q = inst.q
    cell_scale = eps / 2.0 ** (q + 3)
    ball_coeff = GUESS_SLACK * OUTLIER_RADIUS_COEFF[obj.kind]

    plan, guesses, max_cells = [], 0, 0
    seen: set[tuple[int, bytes]] = set()
    problems: set[tuple[bytes, bytes]] = set()
    all_idx = np.arange(inst.n, dtype=np.int64)
    for si, s in enumerate(scales):
        for z0 in range(inst.n):
            inside = tol_leq(inst.dists_from(z0), ball_coeff * s)
            outliers = all_idx[~inside]
            if outliers.size > k or (si, outliers.tobytes()) in seen:
                continue
            seen.add((si, outliers.tobytes()))
            guesses += 1
            decomp = decompose_fixed(inst, all_idx[inside], cell_scale * s)
            max_cells = max(max_cells, len(decomp.centers))
            # the points are the non-outliers and each center is its cell's
            # lowest-index member, so this key fixes all but the cell radius
            problem = (decomp.label.tobytes(), outliers.tobytes())
            if problem not in problems:
                problems.add(problem)
                choices = [range(min(size, k), -1, -1)
                           for size in np.bincount(decomp.label).tolist()]
                plan.append((s, z0, decomp, outliers, choices, k - int(outliers.size)))
    repeats = guesses - len(plan)
    exact_ok = obj.kind != "bipartition" or k <= EXACT_BIPARTITION_CAP
    if exact_ok:
        floors = [(i, set(g[3].tolist())) for i, g in enumerate(plan)
                  if len(g[2].centers) == g[2].points.size]
        plan = [g for i, g in enumerate(plan)
                if not any(j != i and f.issubset(g[3].tolist()) for j, f in floors)]
    dominated = guesses - repeats - len(plan)

    evaluated = 0
    for s, z0, _, _, choices, total in plan:
        evaluated += count_compositions(choices, total)
        if evaluated > budget:
            raise BudgetExceededError(
                f"candidate budget exceeded: {evaluated} predicted candidates > "
                f"budget {budget} (scale {s!r}, center {z0})")

    best: Solution | None = None
    exact = rescored = 0
    for s, z0, decomp, outliers, choices, total in plan:
        ext = list(decomp.centers) + outliers.tolist()
        dq = inst.pow_submatrix(ext)
        if exact_ok and len(decomp.centers) == decomp.points.size:
            # rounding is the identity: search the k-subsets holding the outliers
            exact += 1
            row, _, row_rescores = _best_subset(obj.kind, dq, k, fixed=outliers.size)
            rescored += row_rescores
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
            best = Solution(pre, val, "ptas", guess=(z0, float(s) ** q))
    assert best is not None
    best.meta.update(guesses=guesses, repeats=repeats, dominated=dominated,
                     scored=len(plan), exact=exact, rescored=rescored, candidates=evaluated,
                     max_cells=max_cells)
    return best
