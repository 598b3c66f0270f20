"""Exact brute-force oracle, screened in bounded blocks, and the greedy clique baseline."""
from __future__ import annotations

import math

import numpy as np

from .diversity import (EXACT_BIPARTITION_CAP, Objective, Solution,
                        balanced_split_masks, batch_evaluate, evaluate)
from .errors import EnumerationCapError
from .metric import MetricInstance

DEFAULT_ENUM_CAP = 2_000_000

# Entries per block: subsets screened, prefixes times bipartition splits, or
# split weights.
_BLOCK = 1 << 16
SCREEN_TOL = 1e-9


def _extend(last: np.ndarray, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Each ``(r, j)`` with ``last[r] < j <= hi``, in lexicographic order."""
    c = hi - last
    r = np.repeat(np.arange(last.size, dtype=np.int32), c)
    return r, np.arange(r.size, dtype=np.int32) + (last + 1 - np.cumsum(c) + c).astype(np.int32)[r]


def _last(pre: np.ndarray) -> np.ndarray:
    """The last column of prefixes held as columns, or -1 for empty prefixes."""
    return pre[-1] if len(pre) else np.full(pre.shape[1], -1, np.int32)


def _prefix_blocks(m: int, t: int, size: int):
    """The t-subsets of ``range(m - 1)`` in lexicographic order, as blocks of
    at most ``size`` rows.  Only the (t-1)-subsets, C(m-2, t-1) of them, are
    held whole; each block of ``size`` of them gets its last column here."""
    if t == 0:
        yield np.empty((1, 0), np.int32)
        return
    pre = np.empty((0, 1), np.int32)
    for c in range(t - 1):
        r, col = _extend(_last(pre), m - t - 1 + c)
        nxt = np.empty((c + 1, r.size), np.int32)
        np.take(pre, r, axis=1, out=nxt[:c], mode="clip")  # "raise" would buffer
        nxt[c] = col
        pre = nxt
    for b in range(0, pre.shape[1], size):
        short = pre[:, b:b + size]
        r, col = _extend(_last(short), m - 2)
        full = np.empty((t, r.size), np.int32)
        np.take(short, r, axis=1, out=full[:-1], mode="clip")
        full[-1] = col
        for c in range(0, r.size, size):
            yield full[:, c:c + size].T


def _split_weights(left: np.ndarray, ia: np.ndarray, ib: np.ndarray):
    """Per split column: weights of the prefix pairs ``(ia, ib)`` and of the
    prefix-last terms; a term counts when its two slots lie on opposite
    sides.  ``left`` holds boolean split rows (gathers 8x faster than float)."""
    return ((left[:, ia] != left[:, ib]).T.astype(np.float64),
            (left[:, :-1] != left[:, -1:]).T.astype(np.float64))


def _best_subset(kind: str, dq: np.ndarray, k: int, fixed: int = 0):
    """First best row of k positions of ``dq`` that holds its last ``fixed``.

    The other m = len(dq) - fixed positions form the pool.  A row lists the
    fixed positions, then k - fixed pool positions ascending; rows run in
    lexicographic order of their pool part, and the first maximum wins.
    Returns ``(row, value, rescored)``.

    A row is a (k-1)-prefix plus a larger pool position j: each block of
    prefixes gathers its distance blocks once, and each row adds d^q(j,
    prefix) to get a screening value.  Rows within ``SCREEN_TOL`` of the
    running best are rescored by ``batch_evaluate`` and the first maximum is
    kept, which gives the row and value bits of rescoring every row: on an
    exactly symmetric, nonnegative d^q with zero diagonal, both values sum
    (or take the minimum of sums of) the same at most k^2 nonnegative terms,
    so each is within k^2 ulps of the true value and every exact maximum
    passes.  Other matrices are rescored in full.  Bipartition split weights
    are taken ``_BLOCK`` entries at a time under a running minimum.
    """
    m, free = len(dq) - fixed, k - fixed
    fix = np.arange(m, m + fixed, dtype=np.int32)
    if free == 0:
        return fix, batch_evaluate(kind, dq, fix[None, :])[0], 1
    screen = np.array_equal(dq, dq.T) and not np.diagonal(dq).any() and dq.min() >= 0
    floor = 1.0 - SCREEN_TOL - 4 * k * k * np.finfo(np.float64).eps
    size = max(1, _BLOCK // m)
    if kind == "bipartition":  # split sums: prefix pair terms, then prefix-j terms
        left = balanced_split_masks(k).astype(bool)
        ia, ib = np.triu_indices(k - 1, 1)
        width = max(1, _BLOCK // max(1, ia.size))
        weights = _split_weights(left, ia, ib) if len(left) <= width else None
        size = max(1, _BLOCK // max(m, min(len(left), width)))
    best, best_row, rescored = -np.inf, None, 0
    for p in _prefix_blocks(m, free - 1, size):
        r, j = _extend(_last(p.T), m - 1)
        if fixed:
            p = np.hstack((np.broadcast_to(fix, (len(p), fixed)), p))
        cross = dq[j[:, None], p[r]]
        if kind == "bipartition":
            pairs, vals = dq[p[:, ia], p[:, ib]], np.full(r.size, np.inf)
            for c in range(0, len(left), width):
                w_pair, w_new = weights or _split_weights(left[c:c + width], ia, ib)
                np.minimum(vals, ((pairs @ w_pair)[r] + cross @ w_new).min(axis=1), out=vals)
        else:
            g = dq[p[:, :, None], p[:, None, :]]
            if kind == "clique":
                vals = g.sum(axis=(1, 2))[r] / 2.0 + cross.sum(axis=1)
            else:
                vals = np.minimum((g.sum(axis=2)[r] + cross).min(axis=1), cross.sum(axis=1))
        keep = np.flatnonzero((vals >= max(best, vals.max()) * floor) | (not screen))
        if keep.size:
            rows = np.column_stack((p[r[keep]], j[keep]))
            # the module global, so a wrapper installed on it sees every rescore
            exact = batch_evaluate(kind, dq, rows)
            rescored += keep.size
            i = int(exact.argmax())
            if best_row is None or exact[i] > best:
                best, best_row = exact[i], rows[i]
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
        masked = np.where(taken, -np.inf, score)
        u = int(masked.argmax())
        chosen.append(u)
        taken[u] = True
        if len(chosen) < k:  # the last pick's row would go unread
            du = inst.dists_from(u)
            score += du if q == 1.0 else du ** q
    subset = tuple(sorted(chosen))
    return Solution(subset, evaluate(inst, Objective("clique", q), subset), "greedy")

