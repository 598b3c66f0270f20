"""Exact brute-force oracle, screened in bounded blocks, and the greedy clique baseline."""
from __future__ import annotations

import math

import numpy as np

from .diversity import (EXACT_BIPARTITION_CAP, Objective, balanced_split_masks,
                        batch_evaluate, evaluate)
from .errors import EnumerationCapError
from .metric import MetricInstance
from .ptas import Solution

DEFAULT_ENUM_CAP = 2_000_000

# Entries per block: subsets screened, or prefixes times bipartition splits.
_BLOCK = 1 << 16
SCREEN_TOL = 1e-9


def _extend(last: np.ndarray, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Each ``(r, j)`` with ``last[r] < j <= hi``, in lexicographic order."""
    c = hi - last
    r = np.repeat(np.arange(last.size, dtype=np.int32), c)
    return r, np.arange(r.size, dtype=np.int32) + (last + 1 - np.cumsum(c) + c).astype(np.int32)[r]


def brute_force_opt(inst: MetricInstance, obj: Objective, k: int,
                    *, enum_cap: int = DEFAULT_ENUM_CAP) -> Solution:
    """Exact optimum over all k-subsets; ties keep the lexicographically smallest.

    A subset is a (k-1)-prefix plus a larger index j: each block of prefixes
    gathers its distance blocks once, and each subset adds d^q(j, prefix) to
    get a screening value.  Subsets within ``SCREEN_TOL`` of the running best
    are rescored by ``batch_evaluate`` and the first maximum is kept, which
    gives the subset and value bits of rescoring every subset: on an exactly
    symmetric, nonnegative d^q with zero diagonal, both values sum (or take
    the minimum of sums of) the same at most k^2 nonnegative terms, so each is
    within k^2 ulps of the true value and every exact maximum passes.  Other
    matrices are rescored in full.  ``meta`` counts ``subsets`` and
    ``rescored``.  Refuses more than ``enum_cap`` subsets.
    """
    if obj.q != inst.q:
        raise ValueError(f"objective exponent {obj.q} != instance exponent {inst.q}")
    if not 2 <= k <= inst.n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={inst.n}")
    if obj.kind == "bipartition":
        if k % 2:
            raise ValueError(f"bipartition needs even k, got {k}")
        if k > EXACT_BIPARTITION_CAP:
            raise EnumerationCapError(
                f"bipartition oracle supports k up to {EXACT_BIPARTITION_CAP}, got {k}")
    n, count = inst.n, math.comb(inst.n, k)
    if count > enum_cap:
        raise EnumerationCapError(
            f"{count} subsets exceed the enumeration cap {enum_cap}")
    dq = inst.pow_matrix()
    screen = np.array_equal(dq, dq.T) and not np.diagonal(dq).any() and dq.min() >= 0
    floor = 1.0 - SCREEN_TOL - 4 * k * k * np.finfo(np.float64).eps
    size = max(1, _BLOCK // n)
    if obj.kind == "bipartition":  # split sums: prefix-prefix terms, then prefix-j terms
        masks = balanced_split_masks(k)
        w_pre = (masks[:, :-1, None] * (1.0 - masks[:, None, :-1])).reshape(len(masks), -1).T
        w_new = (masks[:, :-1] != masks[:, -1:]).T.astype(np.float64)
        size = max(1, _BLOCK // max(n, len(masks)))
    # (k-1)-subsets of [0, n-1) in lexicographic order, one column at a time
    pre = np.arange(n - k + 1, dtype=np.int32)[None, :]
    for t in range(1, k - 1):
        r, col = _extend(pre[-1], n - k + t)
        nxt = np.empty((t + 1, r.size), np.int32)
        np.take(pre, r, axis=1, out=nxt[:t], mode="clip")  # "raise" would buffer
        nxt[t] = col
        pre = nxt
    best, best_row, rescored = -np.inf, None, 0
    for b in range(0, pre.shape[1], size):
        p = pre[:, b:b + size].T
        r, j = _extend(p[:, -1], n - 1)
        g = dq[p[:, :, None], p[:, None, :]]
        cross = dq[j[:, None], p[r]]
        if obj.kind == "clique":
            vals = g.sum(axis=(1, 2))[r] / 2.0 + cross.sum(axis=1)
        elif obj.kind == "star":
            vals = np.minimum((g.sum(axis=2)[r] + cross).min(axis=1), cross.sum(axis=1))
        else:
            vals = ((g.reshape(len(p), -1) @ w_pre)[r] + cross @ w_new).min(axis=1)
        keep = np.flatnonzero((vals >= max(best, vals.max()) * floor) | (not screen))
        if keep.size:
            rows = np.column_stack((p[r[keep]], j[keep]))
            # the module global, so a wrapper installed on it sees every rescore
            exact = batch_evaluate(obj.kind, dq, rows)
            rescored += keep.size
            i = int(exact.argmax())
            if best_row is None or exact[i] > best:
                best, best_row = exact[i], rows[i]
    return Solution(tuple(best_row.tolist()), float(best), "brute",
                    meta={"subsets": count, "rescored": rescored})


def greedy_clique(inst: MetricInstance, k: int) -> Solution:
    """Greedy remote-clique baseline.

    Starts from a far pair: a double scan takes the point farthest from index
    0, then the point farthest from that one.  Each step adds the point with
    the largest total q-power distance to the chosen set, breaking ties toward
    the lowest index.
    """
    if not 2 <= k <= inst.n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={inst.n}")
    q = inst.q
    a = int(inst.dists_from(0).argmax())
    da = inst.dists_from(a)
    b = int(da.argmax())
    if a == b:  # all points coincide with point 0
        a, b = 0, 1
        da = inst.dists_from(0)
    chosen = [min(a, b), max(a, b)]
    db = inst.dists_from(b)
    score = (da if q == 1.0 else da ** q) + (db if q == 1.0 else db ** q)
    taken = np.zeros(inst.n, dtype=bool)
    taken[[a, b]] = True
    while len(chosen) < k:
        masked = np.where(taken, -np.inf, score)
        u = int(masked.argmax())
        chosen.append(u)
        taken[u] = True
        if len(chosen) < k:  # the last pick's row would go unread
            du = inst.dists_from(u)
            score += du if q == 1.0 else du ** q
    subset = tuple(sorted(chosen))
    return Solution(subset, evaluate(inst, Objective("clique", q), subset), "greedy")

