"""Diversity objectives on subsets and on multisets of cell centers.

For a k-subset T and exponent q:

    clique       sum of d^q over all unordered pairs of T
    star         min over z in T of sum_u d^q(z, u)
    bipartition  min over balanced splits T = L | R of sum_{L x R} d^q

All three extend to multisets (a multiplicity per center) by treating each
copy as a distinct point at pairwise distance zero from its siblings.

``evaluate`` scores one subset or multiset, given as an index list.
Batches of candidates come in two row forms over a d^q block ``dq``, and
each has one evaluator.  Index rows (``batch_evaluate``) list a candidate's
points as positions into ``dq``, repeats being coincident copies; the
brute-force oracle uses them.  Count rows (``values``, clique and star only)
give a multiplicity for every position of ``dq``; the solvers' multiplicity
vectors over cell centers are scored through ``values`` and searched by
``first_best``.  Bipartition count rows are scored as expanded index rows.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .compositions import BLOCK_ENTRIES, enumerate_compositions
from .errors import EnumerationCapError
from .metric import MetricInstance, check_indices

OBJECTIVE_KINDS = ("clique", "star", "bipartition")

# Largest bipartition whose balanced splits are enumerated one by one.
EXACT_BIPARTITION_CAP = 16
# Largest number of distinct points on which a larger bipartition is still
# enumerated exactly, by per-point left counts; above this the
# approximation scheme takes over.
MULTISET_SPLIT_CAP = 10


@dataclass(frozen=True)
class Objective:
    """A diversity function paired with the exponent it is evaluated at."""

    kind: str
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective {self.kind!r}; expected one of {OBJECTIVE_KINDS}")
        if not self.q >= 1.0:
            raise ValueError(f"exponent q must be >= 1, got {self.q}")


@dataclass
class Solution:
    """A k-subset with its re-checked objective value and solver provenance."""

    subset: tuple[int, ...]
    value: float
    algo: str
    guess: tuple[int, float] | None = None  # (z0 candidate, guessed average value)
    meta: dict = field(default_factory=dict)


_UNCHECKED = object()


def check_args(inst: MetricInstance, obj: Objective | None = None, k=_UNCHECKED, *,
               eps=_UNCHECKED, budget=_UNCHECKED) -> None:
    """Raise ``ValueError`` on an ``obj`` whose exponent is not the instance's,
    a ``k`` that is not an integer in [2, n] (even for bipartition), an
    ``eps`` outside (0, 1) or a negative ``budget``; skip what is not given."""
    if obj is not None and obj.q != inst.q:
        raise ValueError(f"objective exponent {obj.q} != instance exponent {inst.q}")
    if k is not _UNCHECKED:
        try:
            operator.index(k)
        except TypeError:
            raise ValueError(f"k must be an integer, got {k!r}") from None
        if not 2 <= k <= inst.n:
            raise ValueError(f"need 2 <= k <= n, got k={k}, n={inst.n}")
        if obj is not None and obj.kind == "bipartition" and k % 2:
            raise ValueError(f"bipartition needs even k, got {k}")
    if eps is not _UNCHECKED and not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if budget is not _UNCHECKED and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")


@lru_cache(maxsize=64)
def balanced_split_masks(k: int) -> np.ndarray:
    """Indicator rows for every balanced split of k slots with slot 0 pinned left.

    Rows follow lexicographic order of the left-hand position tuples, so the
    first row attaining a minimum corresponds to the lexicographically
    smallest left half.  The cached array is read-only.
    """
    if k < 2 or k % 2:
        raise ValueError(f"balanced splits need even k >= 2, got {k}")
    masks = np.vstack(list(enumerate_compositions([[1]] + [[1, 0]] * (k - 1), k // 2)),
                      dtype=np.float64)
    masks.flags.writeable = False
    return masks


def evaluate(inst: MetricInstance, obj: Objective, subset, *, eps: float | None = None) -> float:
    """Value of ``obj`` on ``subset``, an index list in which a repeated index
    is a coincident copy; the one scorer of a single subset or multiset.

    Clique, star, and bipartitions of at most ``EXACT_BIPARTITION_CAP``
    elements score one ``batch_evaluate`` row.  A larger bipartition on at
    most ``MULTISET_SPLIT_CAP`` distinct points is split exactly by
    ``bisection.least_split``, which refuses more than ``DEFAULT_BUDGET`` left
    count vectors.  On more distinct points it needs ``eps`` and is estimated
    by the balanced-bisection scheme (an upper estimate within 1 + eps).
    """
    check_args(inst, obj)
    idx = np.sort(check_indices(inst, subset))
    k = idx.size
    if k < 2:
        raise ValueError(f"subset too small: need at least 2 points, got {k}")
    if obj.kind == "bipartition" and k % 2:
        raise ValueError(f"bipartition needs an even subset size, got {k}")
    if obj.kind != "bipartition" or k <= EXACT_BIPARTITION_CAP:
        return float(batch_evaluate(obj.kind, inst.pow_submatrix(idx), np.arange(k)[None, :])[0])
    from .bisection import DEFAULT_BUDGET, least_split, min_bisection

    support, mult = np.unique(idx, return_counts=True)
    if support.size <= MULTISET_SPLIT_CAP:
        return least_split(inst.pow_submatrix(support), mult, np.ones_like(mult),
                           budget=DEFAULT_BUDGET)[1]
    if eps is None:
        raise EnumerationCapError(
            f"bipartition of {k} elements on {support.size} distinct points exceeds the "
            f"exact caps ({EXACT_BIPARTITION_CAP} elements, {MULTISET_SPLIT_CAP} points); "
            "pass eps to evaluate approximately")
    return min_bisection(inst, idx, eps).value


def centroid_clique_identity(inst: MetricInstance, subset) -> tuple[float, float]:
    """Squared-distance clique value of unit vectors vs its centroid form.

    For unit vectors the clique value at q = 2 equals k^2 * (1 - |z|^2) where
    z is the centroid of the subset.  Returns (clique value, centroid form).
    """
    if inst.points is None or inst.norm != "l2":
        raise ValueError("centroid identity needs a coordinate backend with the l2 norm")
    if inst.q != 2.0:
        raise ValueError(f"centroid identity holds at q = 2, instance has q = {inst.q}")
    idx = np.sort(check_indices(inst, subset))
    value = evaluate(inst, Objective("clique", inst.q), idx)  # checks size and range
    pts = inst.points[idx]
    norms = np.sqrt((pts * pts).sum(axis=1))
    off = float(np.abs(norms - 1.0).max())
    if off > 1e-9:
        raise ValueError(f"subset contains a point with norm deviating from 1 by {off:.3e}")
    k = idx.size
    z = pts.mean(axis=0)
    rhs = k * k * (1.0 - float(z @ z))
    return value, rhs


# Vectorized evaluators over batches of rows; see the module docstring.


def batch_evaluate(kind: str, dq: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Objective value of each index row of positions into ``dq``; rows are
    scored in chunks of at most ``BLOCK_ENTRIES`` gathered or split entries."""
    k = rows.shape[1]
    width = k * k
    if kind == "bipartition":
        masks = balanced_split_masks(k)
        width += masks.shape[0]
    elif kind not in OBJECTIVE_KINDS:
        raise ValueError(f"unknown objective {kind!r}")
    step = max(1, BLOCK_ENTRIES // max(1, width))
    out = np.empty(rows.shape[0])
    for i in range(0, rows.shape[0], step):
        r = rows[i:i + step]
        g = dq[r[:, :, None], r[:, None, :]]
        if kind == "clique":
            out[i:i + step] = g.sum(axis=(1, 2)) / 2.0
        elif kind == "star":
            out[i:i + step] = g.sum(axis=2).min(axis=1)
        else:
            out[i:i + step] = np.einsum("mi,bij,mj->bm", masks, g, 1.0 - masks).min(axis=1)
    return out


def cross_values(dq: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Split form sum_ij a[r, i] dq[i, j] b[r, j] of each pair of count rows."""
    out = a @ dq
    out *= b  # in place: one row block fewer held at once
    return out.sum(axis=1)


def _expand_rows(counts: np.ndarray) -> np.ndarray:
    """Turn count rows (all with the same sum) into index rows of that width."""
    b, ncol = counts.shape
    flat = np.repeat(np.tile(np.arange(ncol, dtype=np.int64), b), counts.reshape(-1))
    return flat.reshape(b, -1)


def values(kind: str, dq: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Clique or star value of each count row: entry j is the multiplicity of
    position j of ``dq``."""
    f = counts.astype(np.float64)
    if kind == "clique":
        return cross_values(dq, f, f) / 2.0
    if kind == "star":
        sums = f @ dq
        sums[counts == 0] = np.inf
        return sums.min(axis=1)
    raise ValueError(f"count rows score clique and star, not {kind!r}")
