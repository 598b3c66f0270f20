"""Exact brute-force oracle and the greedy remote-clique baseline."""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np

from .diversity import (EXACT_BIPARTITION_CAP, Objective, batch_evaluate,
                        clique_value)
from .errors import EnumerationCapError
from .metric import MetricInstance
from .ptas import Solution

DEFAULT_ENUM_CAP = 2_000_000

# Chunk size for subset evaluation; fixed so results do not depend on the
# worker count.
_CHUNK = 65536


def brute_force_opt(inst: MetricInstance, obj: Objective, k: int,
                    *, enum_cap: int = DEFAULT_ENUM_CAP, threads: int = 1) -> Solution:
    """Exact optimum by enumerating every k-subset in lexicographic order.

    Ties keep the lexicographically smallest subset.  Refuses to enumerate
    more than ``enum_cap`` subsets.
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
    subsets = np.fromiter(
        (i for tup in combinations(range(inst.n), k) for i in tup),
        dtype=np.int64, count=count * k).reshape(count, k)
    dq = inst.pow_matrix()
    chunks = [(i, subsets[i:i + _CHUNK]) for i in range(0, count, _CHUNK)]

    def run(chunk):
        return batch_evaluate(obj.kind, dq, chunk)

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, (c for _, c in chunks)))
    else:
        parts = [run(c) for _, c in chunks]
    vals = np.concatenate(parts)
    i = int(vals.argmax())
    return Solution(tuple(int(x) for x in subsets[i]), float(vals[i]), "brute")


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
    b = int(inst.dists_from(a).argmax())
    if a == b:  # all points coincide with point 0
        a, b = 0, 1
    chosen = [min(a, b), max(a, b)]
    da = inst.dists_from(a)
    db = inst.dists_from(b)
    score = (da if q == 1.0 else da ** q) + (db if q == 1.0 else db ** q)
    taken = np.zeros(inst.n, dtype=bool)
    taken[[a, b]] = True
    while len(chosen) < k:
        masked = np.where(taken, -np.inf, score)
        u = int(masked.argmax())
        chosen.append(u)
        taken[u] = True
        du = inst.dists_from(u)
        score += du if q == 1.0 else du ** q
    subset = tuple(sorted(chosen))
    return Solution(subset, clique_value(inst, subset), "greedy")

