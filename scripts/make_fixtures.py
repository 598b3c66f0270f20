"""Write a directory of instance files for benchmarking and CLI experiments.

    $ python scripts/make_fixtures.py --out fixtures/

Produces a mix of uniform boxes, tight clusters with planted far points, a
couple of (1,2)-metrics from random graphs, and one subset-sum gadget, all
seeded so reruns are byte-identical.
"""
import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import divmax as dm  # noqa: E402
from divmax.instances import gen_ksum_reduction, KSumInstance  # noqa: E402


def er_adjacency(n: int, p: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return upper | upper.T


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="fixtures", help="target directory")
    args = ap.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    written = []

    def put(name, inst):
        path = out / name
        dm.save_instance(inst, path)
        written.append((path, inst.n))

    for d in (1, 2, 3):
        for seed in (1, 2):
            put(f"uniform_d{d}_s{seed}.txt", dm.gen_uniform(24, d, seed=100 * d + seed))
    put("cluster_pair.txt",
        dm.gen_clustered(20, 0.05, [[3.0, 0.0], [0.0, 3.0]], seed=11))
    put("cluster_triplet.txt",
        dm.gen_clustered(18, 0.02, [[2.5, 0.0], [-2.5, 0.5], [0.0, -3.0]], seed=12))
    for seed, p in ((21, 0.3), (22, 0.6)):
        put(f"graph12_p{int(10 * p)}_s{seed}.txt",
            dm.gen_graph_12metric(er_adjacency(20, p, seed)))
    put("ksum_gadget.txt",
        gen_ksum_reduction(KSumInstance((-3, -1, 2, 4, -2, 1), k=3, t=4)))

    for path, n in written:
        print(f"wrote {path} (n={n})")


if __name__ == "__main__":
    main()
