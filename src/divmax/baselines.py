"""Exact brute-force oracle, screened in bounded blocks, and the greedy clique baseline."""
from __future__ import annotations

import math

import numpy as np

from .diversity import (EXACT_BIPARTITION_CAP, Objective, Solution,
                        balanced_split_masks, batch_evaluate, evaluate)
from .errors import EnumerationCapError
from .metric import MetricInstance

DEFAULT_ENUM_CAP = 2_000_000

# Entries per block: prefixes x pool or splits, rows x slots or splits, weights.
_BLOCK = 1 << 16
SCREEN_TOL = 1e-9


def _extend(pre: np.ndarray, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Each ``(r, j)`` with ``pre[-1, r] < j <= hi`` (any j if prefixes are
    empty), in lexicographic order; prefixes are held as columns."""
    last = pre[-1] if len(pre) else np.full(pre.shape[1], -1, np.int32)
    c = hi - last
    r = np.repeat(np.arange(last.size, dtype=np.int32), c)
    return r, np.arange(r.size) + np.repeat(last + 1 - np.cumsum(c) + c, c)


def _prefix_blocks(m: int, t: int, size: int):
    """The t-subsets of ``range(m - 1)`` in lexicographic order, as columns in
    blocks of at most ``size``.  Only the (t-1)-subsets, C(m-2, t-1) of them,
    are held whole; each block of ``size`` of them gets its last row here."""
    if t == 0:
        yield np.empty((0, 1), np.int32)
        return
    pre = np.empty((0, 1), np.int32)
    for c in range(t - 1):
        r, col = _extend(pre, m - t - 1 + c)
        nxt = np.empty((c + 1, r.size), np.int32)
        np.take(pre, r, axis=1, out=nxt[:c], mode="clip")  # "raise" would buffer
        nxt[c] = col
        pre = nxt
    for b in range(0, pre.shape[1], size):
        short = pre[:, b:b + size]
        r, col = _extend(short, m - 2)
        full = np.empty((t, r.size), np.int32)
        np.take(short, r, axis=1, out=full[:-1], mode="clip")
        full[-1] = col
        for c in range(0, r.size, size):
            yield full[:, c:c + size]


def _screen_weights(kind: str, k: int, width: int):
    """Chunks of at most ``width`` weight rows ``(w_pair, w_new)``; a row screens as the
    minimum over them of w_pair @ its prefix's pair terms + w_new @ its prefix-j terms."""
    ia, ib = np.triu_indices(k - 1, 1)
    if kind == "clique":
        yield np.ones((1, ia.size)), np.ones((1, k - 1))
    elif kind == "star":  # centered at each prefix slot, then at j
        slot = np.arange(k)[:, None]
        yield 1.0 * ((slot == ia) | (slot == ib)), np.eye(k, k - 1) + (slot == k - 1)
    else:  # a term counts when its two slots lie on opposite sides
        left = balanced_split_masks(k).astype(bool)  # gathers 8x faster than float
        for w in (left[c:c + width] for c in range(0, len(left), width)):
            yield 1.0 * (w[:, ia] != w[:, ib]), 1.0 * (w[:, :-1] != w[:, -1:])


def _best_subset(kind: str, dq: np.ndarray, k: int, fixed: int = 0):
    """First best row of k positions of ``dq`` that holds its last ``fixed``.

    The other m = len(dq) - fixed positions form the pool.  A row lists the
    fixed positions, then k - fixed pool positions ascending; rows run in
    lexicographic order of their pool part, and the first maximum wins.
    Returns ``(row, value, rescored)``.

    A row is a (k-1)-prefix plus a larger pool position j.  Arrays are laid
    out slots x rows and reduced over axis 0: a block of prefixes gathers its
    pair terms once, each chunk of rows its terms d^q(prefix, j), and
    ``_screen_weights`` weighs both; no rows x slots or rows x weight rows
    array exceeds ``_BLOCK`` entries.  Rows within ``SCREEN_TOL`` of the
    running best are rescored by ``batch_evaluate``, which gives the row and
    value bits of rescoring every row: on an exactly symmetric, nonnegative
    d^q with zero diagonal, both values sum (or take the minimum of sums of)
    the same at most k^2 nonnegative terms, so each is within k^2 ulps of the
    true value and every exact maximum passes.  Other matrices are rescored
    in full.
    """
    m, free = len(dq) - fixed, k - fixed
    fix = np.arange(m, m + fixed, dtype=np.int32)
    if free == 0:
        return fix, batch_evaluate(kind, dq, fix[None, :])[0], 1
    screen = np.array_equal(dq, dq.T) and not np.diagonal(dq).any() and dq.min() >= 0
    floor = 1.0 - SCREEN_TOL - 4 * k * k * np.finfo(np.float64).eps
    flat, (ia, ib) = dq.ravel(), np.triu_indices(k - 1, 1)
    width = max(1, _BLOCK // max(1, ia.size))
    splits = math.comb(k - 1, k // 2) if kind == "bipartition" else 1
    weights = list(_screen_weights(kind, k, width)) if splits <= width else None
    size, step = (max(1, _BLOCK // max(x, min(splits, width))) for x in (m, k))
    best, best_row, rescored = -np.inf, None, 0
    for p in _prefix_blocks(m, free - 1, size):
        r, j = _extend(p, m - 1)
        p = np.vstack((np.broadcast_to(fix[:, None], (fixed, p.shape[1])), p))
        base = p * np.int64(len(dq))  # flat offsets of each prefix slot's row
        pairs = np.take(flat, base[ia] + p[ib])
        vals = np.full(r.size, np.inf)
        for w_pair, w_new in weights or _screen_weights(kind, k, width):
            pre = w_pair @ pairs
            for c in range(0, r.size, step):
                off = np.take(base, r[c:c + step], axis=1)
                off += j[c:c + step]
                near = np.take(pre, r[c:c + step], axis=1)
                near += w_new @ np.take(flat, off)
                np.minimum(vals[c:c + step], near.min(axis=0), out=vals[c:c + step])
        keep = np.flatnonzero((vals >= max(best, vals.max()) * floor) | (not screen))
        if keep.size:
            rows = np.vstack((p[:, r[keep]], j[keep])).T
            # the module global, so a wrapper installed on it sees every rescore
            exact = batch_evaluate(kind, dq, rows)
            rescored += keep.size
            i = int(exact.argmax())
            if best_row is None or exact[i] > best:
                best, best_row = exact[i], rows[i].copy()
    return best_row, best, rescored


def brute_force_opt(inst: MetricInstance, obj: Objective, k: int,
                    *, enum_cap: int = DEFAULT_ENUM_CAP) -> Solution:
    """Exact optimum over all k-subsets; ties keep the lexicographically smallest.

    Searched by ``_best_subset`` on the whole d^q matrix, which screens
    subsets in bounded blocks and rescores the near-best exactly.  ``meta``
    counts ``subsets`` and ``rescored``.  Refuses more than ``enum_cap``
    subsets.
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
    count = math.comb(inst.n, k)
    if count > enum_cap:
        raise EnumerationCapError(
            f"{count} subsets exceed the enumeration cap {enum_cap}")
    row, value, rescored = _best_subset(obj.kind, inst.pow_matrix(), k)
    return Solution(tuple(row.tolist()), float(value), "brute",
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
        u = int(np.where(taken, -np.inf, score).argmax())
        chosen.append(u)
        taken[u] = True
        if len(chosen) < k:  # the last pick's row would go unread
            du = inst.dists_from(u)
            score += du if q == 1.0 else du ** q
    subset = tuple(sorted(chosen))
    return Solution(subset, evaluate(inst, Objective("clique", q), subset), "greedy")

