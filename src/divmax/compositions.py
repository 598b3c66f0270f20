"""Vectors whose i-th entry comes from ``values[i]`` and whose entries sum to
``total`` (or to at most ``total``), counted exactly and enumerated in blocks.

Rows follow the lexicographic order of value-list positions: the first
coordinate varies slowest and runs through ``values[0]`` in its given order.
Each block unranks a range of row numbers against exact completion counts.
``count_compositions`` gives the number of rows before anything is allocated,
from a product of one polynomial per distinct value list.
``raise_to_total`` completes a block of such rows to an exact sum, and
``first_best`` finds the first row of best score over any such blocks.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

BLOCK_ROWS = 16384
BLOCK_ENTRIES = 1 << 19  # rows times coordinates in one block, for wide vectors


def _value_arrays(values, total: int) -> list[np.ndarray]:
    vals = [np.asarray(v, dtype=np.int64) for v in values]
    if total < 0 or any(v.ndim != 1 or (v < 0).any() for v in vals):
        raise ValueError("compositions need a nonnegative total and one-dimensional "
                         "lists of nonnegative values")
    return vals


def _completion_tables(values, total: int, at_most: bool):
    """Value arrays and, per coordinate i, the exact table ``cum[s, j]``: the
    number of ways to finish coordinates i.. from remaining sum s with a value
    of position < j at coordinate i.  Entries are Python ints."""
    vals = _value_arrays(values, total)
    after = np.full(total + 1, 1 if at_most else 0, dtype=object)
    after[0] = 1
    cums = []
    for v in reversed(vals):
        cum = np.zeros((total + 1, v.size + 1), dtype=object)
        for j, x in enumerate(v.tolist()):
            if x <= total:
                cum[x:, j + 1] = after[:total + 1 - x]
        cum = cum.cumsum(axis=1)
        cums.append(cum)
        after = cum[:, -1]
    return vals, cums[::-1], after


def _times(a: list[int], b: list[int], total: int) -> list[int]:
    """Product of two polynomials given as ``total + 1`` coefficients, cut at
    degree ``total``."""
    out = [0] * (total + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[:total + 1 - i]):
                out[i + j] += x * y
    return out


def count_compositions(values, total: int, *, at_most: bool = False) -> int:
    """Exact number of rows ``enumerate_compositions(values, total)`` yields.

    The count is the coefficient of x^total (or the sum of those up to it) in
    the product over coordinates of sum_{v in values[i]} x^v.  The product
    does not depend on coordinate order, so each distinct value list is
    raised to its multiplicity by repeated squaring."""
    try:  # group first, so that only distinct lists are converted and checked
        lists = Counter(map(tuple, values))
    except TypeError:  # a value or an entry that is no sequence or not hashable
        lists = Counter(tuple(v.tolist()) for v in _value_arrays(values, total))
    prod = [1] + [0] * total
    for v, times in zip(_value_arrays(lists, total), lists.values()):
        poly = [0] * (total + 1)
        for x in v.tolist():
            if x <= total:
                poly[x] += 1
        while times:
            if times & 1:
                prod = _times(prod, poly, total)
            times >>= 1
            if times:
                poly = _times(poly, poly, total)
    return sum(prod) if at_most else prod[total]


def enumerate_compositions(values, total: int, *, at_most: bool = False):
    """Yield the vectors as int64 blocks of at most ``BLOCK_ROWS`` rows and,
    when that allows a row, at most ``BLOCK_ENTRIES`` entries."""
    vals, cums, after = _completion_tables(values, total, at_most)
    rows = int(after[total])
    step = max(1, min(BLOCK_ROWS, BLOCK_ENTRIES // max(1, len(vals))))
    # Entries past int64 belong to unreachable states; reachable ones are <= rows.
    flats = [np.minimum(c, np.iinfo(np.int64).max).astype(np.int64).ravel() for c in cums]
    for start in range(0, rows, step):
        rank = np.arange(start, min(start + step, rows), dtype=np.int64)
        rest = np.full(rank.size, total, dtype=np.int64)
        block = np.empty((rank.size, len(vals)), dtype=np.int64)
        for i, (v, flat) in enumerate(zip(vals, flats)):
            base = rest * (v.size + 1)
            # the last column, the state's whole count, always exceeds rank
            j = np.zeros(rank.size, dtype=np.int64)
            for col in range(1, v.size):
                j += flat[base + col] <= rank
            rank -= flat[base + j]
            block[:, i] = v[j]
            rest -= block[:, i]
        yield block


def raise_to_total(block: np.ndarray, caps, raises, total: int) -> np.ndarray:
    """Raise rows summing to at most ``total`` toward ``total``, left to right:
    coordinate i gains at most ``raises[i]`` and never passes ``caps[i]``.
    The block is raised in place; the rows that reach ``total`` are returned,
    the rest dropped."""
    deficit = total - block.sum(axis=1)
    for i in range(block.shape[1]):
        add = np.minimum(np.minimum(raises[i], caps[i] - block[:, i]), deficit)
        block[:, i] += add
        deficit -= add
    return block[deficit == 0]


def first_best(blocks, score):
    """The first row with the largest ``score`` over an iterable of row blocks,
    and that score; ``score`` maps a nonempty block to one value per row.
    Empty blocks are skipped; ``(None, -inf)`` when no block holds a row.
    The row is a copy, so no block outlives its turn."""
    best, best_row = -np.inf, None
    for block in blocks:
        if len(block):
            vals = score(block)
            i = int(vals.argmax())
            if best_row is None or vals[i] > best:
                best, best_row = vals[i], block[i].copy()
    return best_row, best
