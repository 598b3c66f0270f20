"""Exact brute-force oracle, screened in bounded blocks, and the greedy clique baseline."""
from __future__ import annotations

import math

import numpy as np

from .diversity import (EXACT_BIPARTITION_CAP, Objective, Solution,
                        balanced_split_masks, batch_evaluate, check_args, evaluate)
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


def _grow(below, hi: int, size: int):
    """The prefixes of the blocks ``below``, each extended by every later
    position up to ``hi``, in order, in blocks of ``size`` (the last may be
    short).  One block below is extended at a time."""
    rest = None  # the columns short of a block
    for pre in below:
        r, col = _extend(pre, hi)
        nxt = np.empty((len(pre) + 1, r.size), np.int32)
        np.take(pre, r, axis=1, out=nxt[:-1], mode="clip")  # "raise" would buffer
        nxt[-1] = col
        del r, col  # not held while the blocks are used
        if rest is not None:  # complete the held columns first
            a = size - rest.shape[1]
            rest, nxt = np.hstack((rest, nxt[:, :a])), nxt[:, a:]
            if rest.shape[1] < size:
                continue
            yield rest
        cut = nxt.shape[1] - nxt.shape[1] % size
        yield from (nxt[:, a:a + size] for a in range(0, cut, size))
        rest = nxt[:, cut:] if cut < nxt.shape[1] else None
    if rest is not None:
        yield rest


def _prefix_blocks(m: int, t: int, size: int):
    """The t-subsets of ``range(m - 1)``, t >= 1, in lexicographic order, as
    ``(short, r, col)``: subset i is column ``r[i]`` of ``short``, then
    ``col[i]``.  Each ``short`` is the next ``size`` (t-1)-subsets (fewer at
    the end), and comes with the subsets that extend it.  Each level of
    prefixes is grown from one block of the level below at a time and re-cut
    into blocks of ``size``, so no level is held whole: each holds at most
    the growths of two blocks below (the one being cut, and the one its
    block in use came from), each of at most m times ``size`` columns."""
    blocks = [np.empty((0, 1), np.int32)]
    for c in range(t - 1):
        blocks = _grow(blocks, m - t - 1 + c, size)
    for short in blocks:
        yield (short, *_extend(short, m - 2))


def _screen_weights(k: int, width: int):
    """Chunks of at most ``width`` balanced-split weight rows ``(w_pair, w_new)``: a term
    counts when its two slots lie on opposite sides.  A row's split screen is the minimum
    over them of w_pair @ its prefix's pair terms + w_new @ its prefix-j terms."""
    ia, ib = np.triu_indices(k - 1, 1)
    left = balanced_split_masks(k).astype(bool)  # gathers 8x faster than float
    for w in (left[c:c + width] for c in range(0, len(left), width)):
        yield 1.0 * (w[:, ia] != w[:, ib]), 1.0 * (w[:, :-1] != w[:, -1:])


class _Screen:
    """Screens blocks of rows of k positions of ``dq``, set up once per search.

    A row is a prefix, held as a column of ``p``, plus a last position ``j``;
    ``r`` maps rows to prefixes and is nondecreasing.  Arrays are laid out
    slots x rows and reduced over axis 0.  ``sums`` gives each prefix its pair
    sum and, for star, each slot's sum to the other slots; ``extend`` gives
    those of the rows from their prefix's by adding the terms d^q(prefix, j),
    as plain sums.  A row's clique screen is its pair sum, and its star screen
    its least slot sum.  A bipartition row takes its split screen, a GEMM over
    ``_screen_weights``, only when its pair sum times k/(2(k-1)) reaches
    ``best`` or, while that is -inf, the split screen of the block's top row
    by that measure: that multiple is the mean of the cross sums over all
    balanced splits, since each pair lies across that share of them, and
    bounds their minimum.  No rows x slots or rows x weight rows array
    exceeds ``_BLOCK`` entries.

    Rows within ``SCREEN_TOL`` of the larger of ``best`` and the block's best
    screen are rescored by ``batch_evaluate``, which gives the row and value
    bits of rescoring every row: on an exactly symmetric, nonnegative d^q with
    zero diagonal (``on``), screens and bounds sum (or take the minimum of
    sums of) at most k^2 nonnegative terms, so each is within k^2 ulps of its
    true value, and ``floor`` lets every exact maximum pass.  Other matrices
    are rescored in full.

    Where rows extend a prefix by later ones of the first ``pool`` positions,
    as in ``_best_subset``, ``bound`` bounds all rows of a prefix before they
    are built.  ``tail[a, c]`` is the largest d^q from position a to a pool
    position at or after c, so the tail terms t_s = tail[p_s, c] bound the
    terms from slot s to any later position; ``pair[c]`` is the largest d^q
    between two of them.  ``tail`` is one array of ``dq``'s shape plus a row
    when rows hold three or more pool positions.  With at most two, a pool
    position is read only at the next column, so ``tail`` keeps the fixed
    positions' rows and that one row, built ``_BLOCK`` entries at a time.
    For one more position j, the clique value is at most S + sum t_s, S
    being the prefix's pair sum, and the bipartition value at most
    k/(2(k-1)) times that.  A star is at most its sum at any point: at j that
    is at most sum t_s, at slot s its slot sum plus t_s, and at the mean
    point 2/k times the clique value; its bound is the least of these.  For ``need`` more
    positions, each adds at most sum t_s and each pair of them at most
    ``pair[c]``; a slot's sum grows by at most ``need`` t_s.
    """

    def __init__(self, kind: str, dq: np.ndarray, k: int, pool: int = 0):
        self.kind, self.dq, self.k, self.n, self.flat = kind, dq, k, np.int64(len(dq)), dq.ravel()
        self.on = np.array_equal(dq, dq.T) and not np.diagonal(dq).any() and dq.min() >= 0
        self.floor = 1.0 - SCREEN_TOL - 4 * k * k * np.finfo(np.float64).eps
        self.ia, self.ib = np.triu_indices(k - 1, 1)
        self.width = max(1, _BLOCK // max(1, self.ia.size))
        splits = math.comb(k - 1, k // 2) if kind == "bipartition" else 1
        self.weights = (list(_screen_weights(k, self.width))
                        if kind == "bipartition" and splits <= self.width else None)
        self.size, self.split_step = (max(1, _BLOCK // max(x, min(splits, self.width)))
                                      for x in (max(pool, 1), k))
        self.step = max(1, _BLOCK // (k + 1))  # star rows hold k + 1 sums
        self.scale = {"clique": 1.0, "star": 2.0 / k, "bipartition": k / (2.0 * (k - 1))}[kind]
        if self.on and pool:
            # With at most two pool positions to a row, a pool position a is only
            # read as a prefix's last slot, at column a + 1: all map to one last
            # row nxt, and only the fixed positions keep rows of their own.
            lo = 0 if k - (len(dq) - pool) > 2 else pool
            tail = np.empty((len(dq) - lo + 1, pool))
            np.maximum.accumulate(dq[lo:, pool - 1::-1], axis=1, out=tail[:-1, ::-1])
            nxt, h = tail[-1], max(1, _BLOCK // pool)
            nxt[0] = np.inf  # no pool position precedes column 0
            for a in range(0, pool - 1, h):  # nxt[a + 1] = max of dq[a, a + 1:pool]
                b = min(a + h, pool - 1)
                nxt[a + 1:b + 1] = np.triu(dq[a:b, :pool], a + 1).max(axis=1)
            self.row = np.full(len(dq), len(dq) - lo, np.int64)
            self.row[lo:] = np.arange(len(dq) - lo)
            self.pool, self.tail = np.int64(pool), tail.ravel()
            self.pair = np.append(np.maximum.accumulate(nxt[:0:-1])[::-1], 0.0)

    def extend(self, q: np.ndarray, pre: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``sums`` of the rows ``q`` then ``j``, from ``pre`` = ``sums(q)``."""
        t = np.take(self.flat, q * self.n + j)
        new = t.sum(axis=0)
        if self.kind != "star":
            new += pre[0]
            return new[None]
        out = np.empty((len(pre) + 1, new.size))
        np.add(pre[0], new, out=out[0])
        np.add(pre[1:], t, out=out[1:-1])
        out[-1] = new
        return out

    def sums(self, p: np.ndarray) -> np.ndarray:
        """Row 0: each prefix's pair sum; for star, rows 1.. : each slot's sum."""
        pre = np.zeros((1, p.shape[1]))
        for s in range(len(p)):
            pre = self.extend(p[:s], pre, p[s])
        return pre

    def bound(self, p: np.ndarray, col: np.ndarray, pre: np.ndarray, need: int = 1) -> np.ndarray:
        """Upper bound on the rows that add ``need`` pool positions >= ``col`` to each prefix."""
        t = np.take(self.tail, np.take(self.row, p) * self.pool + col)
        new = t.sum(axis=0)
        pair = self.pair[col] * (need - 1) if need > 1 else 0.0
        out = (pre[0] + need * (new + pair / 2)) * self.scale
        if self.kind == "star":
            np.minimum(out, new + pair, out=out)
            t *= need
            t += pre[1:]
            np.minimum(out, t.min(axis=0, initial=np.inf), out=out)
        return out

    def _split(self, p: np.ndarray, r: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Split screen of rows ``p[:, r]`` then ``j``, over the prefixes they use only."""
        new = np.diff(r, prepend=-1) != 0  # r is nondecreasing: number its distinct prefixes
        p, r, vals = p[:, r[new]], np.cumsum(new) - 1, np.full(r.size, np.inf)
        ia, ib, size, step = self.ia, self.ib, self.size, self.split_step
        for w_pair, w_new in self.weights or _screen_weights(self.k, self.width):
            for a in range(0, p.shape[1], size):
                base = p[:, a:a + size] * self.n  # flat offsets of each slot's row
                pre = w_pair @ np.take(self.flat, base[ia] + p[ib, a:a + size])
                lo, hi = np.searchsorted(r, (a, a + size))
                for c in range(lo, hi, step):
                    rows = slice(c, min(c + step, hi))
                    at = r[rows] - a
                    off = np.take(base, at, axis=1)
                    off += j[rows]
                    near = np.take(pre, at, axis=1)
                    near += w_new @ np.take(self.flat, off)
                    np.minimum(vals[rows], near.min(axis=0), out=vals[rows])
        return vals

    def score(self, p: np.ndarray, r: np.ndarray, j: np.ndarray, best: float,
              pre: np.ndarray | None = None):
        """``batch_evaluate`` values of the rows kept, -inf for the others, and
        the number kept.  ``pre`` is ``sums(p)``; if it is not given, each row's
        prefix is summed with the row, as for rows of one prefix each."""
        out = np.full(r.size, -np.inf)
        if not self.on:
            keep = np.arange(r.size)
        else:
            vals = np.empty(r.size)
            for c in range(0, r.size, self.step):
                rows = slice(c, c + self.step)
                q = p[:, r[rows]]
                e = self.extend(q, self.sums(q) if pre is None else pre[:, r[rows]], j[rows])
                vals[rows] = e[1:].min(axis=0) if self.kind == "star" else e[0]
            if self.kind == "bipartition":
                vals *= self.scale
                top = int(vals.argmax())
                ref = best if best > -np.inf else self._split(p, r[top:top + 1], j[top:top + 1])[0]
                live = np.flatnonzero(vals >= ref * self.floor)
                vals.fill(-np.inf)
                vals[live] = self._split(p, r[live], j[live])
            keep = np.flatnonzero(vals >= max(best, vals.max()) * self.floor)
        if keep.size:  # the module global, so a wrapper installed on it sees every rescore
            out[keep] = batch_evaluate(self.kind, self.dq, np.vstack((p[:, r[keep]], j[keep])).T)
        return out, keep.size


def _greedy_row(dq: np.ndarray, k: int, fixed: int) -> np.ndarray:
    """A row of ``_best_subset``: the fixed positions, then pool positions taken one
    at a time by the largest d^q sum to those taken (the lowest on ties), ascending."""
    m = len(dq) - fixed
    gain, rest = dq[:m, m:].sum(axis=1), np.ones(m, bool)
    for _ in range(k - fixed):
        u = int(np.flatnonzero(rest)[gain[rest].argmax()])
        rest[u] = False
        gain += dq[:m, u]
    return np.concatenate((np.arange(m, len(dq)), np.flatnonzero(~rest)))


def _best_subset(kind: str, dq: np.ndarray, k: int, fixed: int = 0):
    """First best row of k positions of ``dq`` that holds its last ``fixed``.

    The other m = len(dq) - fixed positions form the pool.  A row lists the
    fixed positions, then k - fixed pool positions ascending; rows run in
    lexicographic order of their pool part, and the first maximum wins.
    Returns ``(row, value, rescored, bounded)``.  A row is a (k-1)-prefix plus
    a larger pool position j, each (k-1)-prefix a (k-2)-prefix plus a larger
    one, and each block of prefixes is screened by ``_Screen``.  Where the
    screen is on, the search first scores one row exactly, ``_greedy_row``,
    and keeps its value as the incumbent.  A (k-2)- or (k-1)-prefix whose
    ``_Screen.bound`` falls below the larger of that and the running best,
    times ``floor``^2, is dropped before its rows are built, and the other
    rows are screened against the same value in the blocks they would have
    without any bound.  ``bounded`` counts the rows dropped unscreened; with
    the rows screened they make every row.  Neither can drop a row within the
    floor of the best, so the row and value bits are those of rescoring every
    row, and ``rescored`` only falls as the incumbent rises.
    """
    m, free = len(dq) - fixed, k - fixed
    fix = np.arange(m, m + fixed, dtype=np.int32)
    if free == 0:
        return fix, batch_evaluate(kind, dq, fix[None, :])[0], 1, 0
    screen = _Screen(kind, dq, k, m)
    incumbent = (batch_evaluate(kind, dq, _greedy_row(dq, k, fixed)[None])[0]
                 if screen.on else -np.inf)

    def live(p, col, pre, need=1):  # prefixes whose bound reaches the incumbent
        return screen.bound(p, col, pre, need) >= max(best, incumbent) * screen.floor ** 2

    def blocks():  # prefixes, the last pool position of each (-1 if none), their sums
        nonlocal bounded
        if free == 1:
            yield fix[:, None], np.full(1, -1), screen.sums(fix[:, None])
            return
        for short, r, col in _prefix_blocks(m, free - 1, screen.size):
            q = np.vstack((np.broadcast_to(fix[:, None], (fixed, short.shape[1])), short))
            pre = screen.sums(q)
            if screen.on:  # a short plus two later pool positions
                after = short[-1] + 1 if len(short) else np.zeros(short.shape[1], np.int32)
                ok = live(q, after, pre, 2)
            for c in range(0, r.size, screen.size):  # the chunks do not depend on the bound
                at, last = r[c:c + screen.size], col[c:c + screen.size]
                if screen.on and not ok[at].all():
                    bounded += int((m - 1 - last[~ok[at]]).sum())
                    at, last = at[ok[at]], last[ok[at]]
                    if not at.size:
                        continue
                p = np.vstack((q[:, at], last))
                yield p, last, screen.extend(p[:-1], pre[:, at], last)

    best, best_row, rescored, bounded, screened = -np.inf, None, 0, 0, 0
    for p, last, pre in blocks():
        if screen.on and not (ok := live(p, last + 1, pre)).all():
            bounded += int((m - 1 - last[~ok]).sum())
            p, last, pre = p[:, ok], last[ok], pre[:, ok]
        r, j = _extend(last[None], m - 1)
        screened += r.size
        if r.size == 0:
            continue
        exact, kept = screen.score(p, r, j, max(best, incumbent), pre)
        rescored += kept
        i = int(exact.argmax())
        if best_row is None or exact[i] > best:
            best, best_row = exact[i], np.append(p[:, r[i]], j[i])
    assert screened + bounded == math.comb(m, free), (screened, bounded)
    return best_row, best, rescored, bounded


def brute_force_opt(inst: MetricInstance, obj: Objective, k: int,
                    *, enum_cap: int = DEFAULT_ENUM_CAP) -> Solution:
    """Exact optimum over all k-subsets; ties keep the lexicographically smallest.

    Searched by ``_best_subset`` on the whole d^q matrix: one greedy subset
    scored exactly is the incumbent, prefixes whose bound falls below the
    incumbent or the running best are dropped with their subsets, and the
    rest are screened in bounded blocks and the near-best rescored exactly.
    ``meta`` counts ``subsets``, ``bounded`` (dropped unscreened) and
    ``rescored``.  Refuses more than ``enum_cap`` subsets.
    """
    check_args(inst, obj, k)
    if obj.kind == "bipartition" and k > EXACT_BIPARTITION_CAP:
        raise EnumerationCapError(
            f"bipartition oracle supports k up to {EXACT_BIPARTITION_CAP}, got {k}")
    count = math.comb(inst.n, k)
    if count > enum_cap:
        raise EnumerationCapError(
            f"{count} subsets exceed the enumeration cap {enum_cap}")
    row, value, rescored, bounded = _best_subset(obj.kind, inst.pow_matrix(), k)
    return Solution(tuple(row.tolist()), float(value), "brute",
                    meta={"subsets": count, "bounded": bounded, "rescored": rescored})


def _pow_row(inst: MetricInstance, u: int) -> np.ndarray:
    """q-th-power distances from ``u`` to every point, in a new array."""
    row = inst.dists_from(u)
    if inst.q != 1.0:
        row **= inst.q
    return row


def greedy_clique(inst: MetricInstance, k: int) -> Solution:
    """Greedy remote-clique baseline.

    Starts from a far pair: a double scan takes the point farthest from index
    0, then the point farthest from that one.  Each step adds the point with
    the largest total q-power distance to the chosen set, breaking ties toward
    the lowest index.
    """
    check_args(inst, k=k)
    q = inst.q
    a = int(inst.dists_from(0).argmax())
    score = inst.dists_from(a)  # one array, updated in place
    b = int(score.argmax())
    if a == b:  # all points coincide with point 0
        a, b = 0, 1
        score = inst.dists_from(0)
    if q != 1.0:
        score **= q
    chosen = [min(a, b), max(a, b)]
    score += _pow_row(inst, b)
    while len(chosen) < k:
        # the chosen entries are set aside, not left at -inf: -inf + inf is nan
        held = score[chosen]
        score[chosen] = -np.inf
        u = int(score.argmax())
        score[chosen] = held
        chosen.append(u)
        if len(chosen) < k:  # the last pick's row would go unread
            score += _pow_row(inst, u)
    subset = tuple(sorted(chosen))
    return Solution(subset, evaluate(inst, Objective("clique", q), subset), "greedy")

