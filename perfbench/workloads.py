"""Seeded inputs for the four workloads and the operation each input feeds.

Every operation draws its points from ``default_rng([seed, salt])`` where the
salt is fixed per operation, so one seed always gives the same files.  The one
operation that fails today, ``fast-search``'s ``uniform-2000-eps0.1``, uses a
fixed seed instead: its failure must not depend on ``--seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Ladder-search leaf budget for fast-clique operations.  The search on uniform
# inputs exhausts any budget, so a smaller one keeps the same regime (budget
# hit, greedy floor returned) at a tenth of the default's time per op.
FAST_BUDGET = 10_000
FAILING_OP_SEED = 1809


@dataclass
class Op:
    """One solver call: its input points and how the program is invoked."""

    name: str
    points: np.ndarray
    algo: str          # "ptas", "fast-clique" or "bisection"
    k: int
    q: float
    eps: float
    objective: str = "clique"
    multiset: list[int] | None = None  # bisection: indices of T, repeats allowed

    def spec(self, inst_path: str, set_path: str, threads: int) -> dict:
        """Worker spec: a CLI argument list, or a library bisection call."""
        if self.algo == "bisection":
            return {"instance": inst_path, "set": set_path, "q": self.q, "eps": self.eps}
        argv = ["solve", "--in", inst_path, "--objective", self.objective,
                "--q", repr(self.q), "--k", str(self.k), "--algo", self.algo,
                "--eps", repr(self.eps), "--threads", str(threads)]
        if self.algo == "ptas":
            argv.append("--oracle")
        else:
            argv += ["--budget", str(FAST_BUDGET)]
        return {"argv": argv}


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def uniform(rng, n: int) -> np.ndarray:
    """n points uniform in the unit square."""
    return rng.uniform(0.0, 1.0, size=(n, 2))


def spaced(rng, n: int, gap: float = 0.05) -> np.ndarray:
    """n points uniform in the unit square, each redrawn until it lies at least
    ``gap`` from the earlier ones.  At q = 2 and eps = 0.25 no PTAS cell
    radius exceeds 0.045 and every cell is centered on a point, so every cell
    at every guess is a singleton."""
    pts: list[np.ndarray] = []
    while len(pts) < n:
        p = rng.uniform(0.0, 1.0, size=2)
        if all(np.hypot(*(p - o)) >= gap for o in pts):
            pts.append(p)
    return np.array(pts)


def cluster_far(rng, n_cluster: int, radius: float, n_far: int) -> np.ndarray:
    """A disc of ``n_cluster`` points with ``n_far`` points about 1 away, spread
    evenly in angle: the far points are forced into every optimum, and cells
    inside the disc hold several members."""
    ang = rng.uniform(0.0, 2.0 * np.pi, n_cluster)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n_cluster))
    disc = np.c_[r * np.cos(ang), r * np.sin(ang)]
    far_ang = 2.0 * np.pi * (np.arange(n_far) + rng.uniform(0.0, 0.5, n_far)) / n_far
    far_r = rng.uniform(0.9, 1.1, n_far)
    return np.vstack([disc, np.c_[far_r * np.cos(far_ang), far_r * np.sin(far_ang)]])


def four_corners(rng, n: int) -> np.ndarray:
    """The layout of ``divmax bench --suite scaling``: four clusters of radius
    0.01 at the unit-square corners, so the search has four cells."""
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    sizes = [n // 4] * 3 + [n - 3 * (n // 4)]
    parts = []
    for c, size in zip(corners, sizes):
        dirs = rng.standard_normal(size=(size, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        parts.append(c + dirs * 0.01 * rng.uniform(0.0, 1.0, size=(size, 1)) ** 0.5)
    return np.vstack(parts)


def _ptas(seed: int) -> list[Op]:
    def c(salt, n_cluster, radius, n_far):
        return cluster_far(_rng(seed, salt), n_cluster, radius, n_far)

    return [
        Op("spaced-22-star", spaced(_rng(seed, 1), 22), "ptas", 6, 2.0, 0.25, "star"),
        Op("uniform-20-clique", uniform(_rng(seed, 2), 20), "ptas", 6, 1.0, 0.5, "clique"),
        Op("uniform-20-bipartition", uniform(_rng(seed, 3), 20), "ptas", 6, 1.0, 0.5,
           "bipartition"),
        Op("cluster-22-clique", c(4, 19, 0.02, 3), "ptas", 6, 2.0, 0.25, "clique"),
        Op("cluster-22-star", c(5, 19, 0.01, 3), "ptas", 7, 1.0, 0.5, "star"),
        Op("cluster-20-bipartition", c(6, 16, 0.01, 4), "ptas", 8, 1.0, 0.5, "bipartition"),
    ]


def _fast_search(seed: int) -> list[Op]:
    return [
        Op("uniform-500-eps0.2", uniform(_rng(seed, 11), 500), "fast-clique", 8, 1.0, 0.2),
        Op("uniform-4000-eps0.3", uniform(_rng(seed, 12), 4000), "fast-clique", 8, 1.0, 0.3),
        Op("uniform-20000-eps0.3", uniform(_rng(seed, 13), 20000), "fast-clique", 8, 1.0, 0.3),
        # Known fault: about 1300 searched cells, one recursion level each.
        Op("uniform-2000-eps0.1", uniform(_rng(FAILING_OP_SEED, 14), 2000),
           "fast-clique", 8, 1.0, 0.1),
    ]


def _fast_scaling(seed: int) -> list[Op]:
    return [Op(f"corners-{n // 1000}k", four_corners(_rng(seed, 20 + i), n),
               "fast-clique", 8, 1.0, 0.5)
            for i, n in enumerate((40_000, 80_000, 160_000, 320_000))]


def _bisection(seed: int) -> list[Op]:
    def pick(salt, pts, k):
        return sorted(int(i) for i in _rng(seed, salt).choice(pts.shape[0], k, replace=False))

    uni12 = uniform(_rng(seed, 31), 200)
    clu = cluster_far(_rng(seed, 32), 190, 0.05, 10)
    uni18 = uniform(_rng(seed, 33), 200)
    pts = uniform(_rng(seed, 34), 200)
    three = _rng(seed, 44).choice(200, 3, replace=False)
    return [
        Op("uniform-200-k12", uni12, "bisection", 12, 1.0, 0.5, multiset=pick(41, uni12, 12)),
        Op("cluster-200-k16", clu, "bisection", 16, 2.0, 0.25, multiset=pick(42, clu, 16)),
        Op("uniform-200-k18", uni18, "bisection", 18, 1.0, 0.5, multiset=pick(43, uni18, 18)),
        Op("multiset-3x60", pts, "bisection", 180, 2.0, 0.5,
           multiset=sorted(int(i) for i in three for _ in range(60))),
    ]


WORKLOADS = {
    "ptas": _ptas,
    "fast-search": _fast_search,
    "fast-scaling": _fast_scaling,
    "bisection": _bisection,
}


def build(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](seed)


def write_inputs(ops: list[Op], workdir) -> list[tuple[str, str]]:
    """Write each op's instance file (and set file) in divmax's text format."""
    paths = []
    for op in ops:
        inst = f"{workdir}/{op.name}.txt"
        rows = "\n".join(f"{a!r} {b!r}" for a, b in op.points.tolist())
        with open(inst, "w") as fh:
            fh.write(f"points 2 {op.points.shape[0]} l2\n{rows}\n")
        setp = ""
        if op.multiset is not None:
            setp = f"{workdir}/{op.name}.set"
            with open(setp, "w") as fh:
                fh.write(" ".join(map(str, op.multiset)) + "\n")
        paths.append((inst, setp))
    return paths
