"""Seeded instance generators and the subset-sum hardness gadget.

The subset-sum gadget maps a list M of integers bounded by t to 2|M| unit
vectors in R^3 such that some K numbers of M sum to zero exactly when the
squared-distance clique value of the best 2K points hits its ceiling of
(2K)^2; otherwise every 2K-subset's centroid keeps norm at least
1 / (2 t K^(3/2)), leaving a quantifiable gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .baselines import brute_force_opt
from .diversity import Objective
from .metric import MetricInstance


def gen_uniform(n: int, d: int, seed: int, q: float = 1.0) -> MetricInstance:
    """n points drawn uniformly from the unit cube [0, 1]^d, l2 metric."""
    if n < 2 or d < 1:
        raise ValueError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    return MetricInstance.from_points(rng.uniform(0.0, 1.0, size=(n, d)), q=q)


def gen_clustered(n_cluster: int, cluster_radius: float, outliers, seed: int,
                  d: int | None = None, q: float = 1.0) -> MetricInstance:
    """A dense cluster around the origin followed by the listed outlier points.

    Cluster points are uniform in the ball of ``cluster_radius``; outliers are
    appended verbatim, so indices n_cluster .. n_cluster + len(outliers) - 1
    are the outliers.
    """
    out = [tuple(float(x) for x in p) for p in outliers]
    if out:
        dims = {len(p) for p in out}
        if len(dims) != 1:
            raise ValueError("outliers must share one dimension")
        if d is not None and d != dims.pop():
            raise ValueError("outlier dimension disagrees with d")
        d = len(out[0])
    elif d is None:
        d = 2
    if n_cluster < 1 or cluster_radius < 0:
        raise ValueError("need n_cluster >= 1 and a nonnegative radius")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal(size=(n_cluster, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = cluster_radius * rng.uniform(0.0, 1.0, size=(n_cluster, 1)) ** (1.0 / d)
    pts = np.vstack([dirs * radii] + ([np.array(out)] if out else []))
    if pts.shape[0] < 2:
        raise ValueError("need at least 2 points in total")
    return MetricInstance.from_points(pts, q=q)


def gen_graph_12metric(adjacency, validate: bool = True, q: float = 1.0) -> MetricInstance:
    """Distance 2 between adjacent vertices, 1 between distinct non-adjacent ones.

    Edges mark the far pairs, so a graph clique is exactly a maximally spread
    subset of the metric.
    """
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if validate:
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("adjacency must have an empty diagonal")
    m = np.where(adj, 2.0, 1.0)
    np.fill_diagonal(m, 0.0)
    return MetricInstance.from_matrix(m, q=q)


@dataclass(frozen=True)
class KSumInstance:
    """Integers ``values`` bounded by ``t`` in absolute value; asks for a
    zero-sum subset of exactly ``k`` of them."""

    values: tuple[int, ...]
    k: int
    t: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.t < 1:
            raise ValueError(f"t must be positive, got {self.t}")
        if len(self.values) < self.k:
            raise ValueError(f"need at least k={self.k} values, got {len(self.values)}")
        bad = [m for m in self.values if abs(m) > self.t]
        if bad:
            raise ValueError(f"values {bad} exceed the bound t={self.t}")


def gen_ksum_reduction(ks: KSumInstance) -> MetricInstance:
    """Unit vectors for the zero-sum gadget, all left points before all right ones.

    Each integer m maps to m' = m / (t sqrt(K)) and to the pair
    left  = (-sqrt(1 - m'^2), m', 0)
    right = ( sqrt(1 - m'^2), 0, m').
    The squared ratio m'^2 is formed as an exact rational before the root.
    The instance uses the l2 metric with q = 2.
    """
    scale = ks.t * math.sqrt(ks.k)
    mp2 = [Fraction(m * m, ks.t * ks.t * ks.k) for m in ks.values]
    pairs = [(math.sqrt(1.0 - float(f)), m / scale) for f, m in zip(mp2, ks.values)]
    rows = [(-x, mp, 0.0) for x, mp in pairs] + [(x, 0.0, mp) for x, mp in pairs]
    return MetricInstance.from_points(np.array(rows), q=2.0)


def zero_sum_subset_exists(values, k: int) -> bool:
    """Whether some k of the values (by index) sum to zero, by enumeration."""
    vals = list(values)
    return any(sum(c) == 0 for c in combinations(vals, k))


@dataclass(frozen=True)
class ReductionVerdict:
    zero_sum_exists: bool
    max_clique_sq: float
    k: int
    equivalence_ok: bool
    gap_ok: bool

    @property
    def passed(self) -> bool:
        return self.equivalence_ok and self.gap_ok


def verify_reduction(ks: KSumInstance, inst: MetricInstance | None = None) -> ReductionVerdict:
    """Cross-check the gadget: zero-sum existence vs the brute-force ceiling.

    Confirms that a zero-sum k-subset exists exactly when the maximum
    squared-distance clique value over 2k points equals (2k)^2 within 1e-9,
    and that otherwise the maximum respects the gap
    (2k)^2 * (1 - 1 / (4 t^2 k^3)).
    """
    if inst is None:
        inst = gen_ksum_reduction(ks)
    exists = zero_sum_subset_exists(ks.values, ks.k)
    k2 = 2 * ks.k
    opt = brute_force_opt(inst, Objective("clique", 2.0), k2)
    ceiling = float(k2 * k2)
    hit = abs(opt.value - ceiling) <= 1e-9 * ceiling
    equivalence_ok = exists == hit
    if exists:
        gap_ok = True
    else:
        bound = ceiling * (1.0 - 1.0 / (4.0 * ks.t ** 2 * ks.k ** 3))
        gap_ok = opt.value <= bound + 1e-9 * ceiling
    return ReductionVerdict(exists, opt.value, k2, equivalence_ok, gap_ok)
