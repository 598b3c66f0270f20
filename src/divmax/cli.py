"""Command-line front end: solve, gen, and bench subcommands.

Every run prints a single machine-readable line starting with ``RESULT``
holding key=value pairs (floats at 9 significant digits, no timing, so equal
seeds and flags reproduce the line byte for byte), followed by human-readable
lines prefixed with ``#`` that carry timings and context.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import brute_force_opt, greedy_clique
from .diversity import Objective, evaluate
from .errors import (BudgetExceededError, EnumerationCapError,
                     InstanceParseError, MetricValidationError)
from .fast_clique import APPROX_FACTOR, solve_fast
from .instances import (KSumInstance, gen_clustered, gen_graph_12metric,
                        gen_ksum_reduction, gen_uniform)
from .metric import MetricInstance, load_instance, save_instance
from .ptas import solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

ALGOS = ("brute", "greedy", "ptas", "fast-clique")
SUBCOMMANDS = ("solve", "gen", "bench")


def fmt9(x: float) -> str:
    return f"{float(x):.9g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with code 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunReport:
    """One solver run, re-verified before emission."""

    algo: str
    objective: str
    q: float
    k: int
    n: int
    instance: str
    value: float
    subset: tuple[int, ...]
    eps: float | None = None
    seed: int | None = None
    threads: int | None = None
    oracle: float | None = None
    ratio: float | None = None
    wall_ms: float = 0.0
    counters: dict = field(default_factory=dict)

    def machine_line(self) -> str:
        parts = [f"algo={self.algo}", f"objective={self.objective}",
                 f"q={fmt9(self.q)}", f"k={self.k}"]
        if self.eps is not None:
            parts.append(f"eps={fmt9(self.eps)}")
        parts += [f"n={self.n}", f"instance={self.instance}"]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        parts.append(f"value={fmt9(self.value)}")
        if self.oracle is not None:
            parts += [f"oracle={fmt9(self.oracle)}", f"ratio={fmt9(self.ratio)}"]
        for key in sorted(self.counters):
            parts.append(f"{key}={self.counters[key]}")
        parts.append("subset=" + ",".join(str(i) for i in self.subset))
        return "RESULT " + " ".join(parts)

    def human_lines(self) -> list[str]:
        # threads and wall time live here, off the machine line, so identical
        # seeds and flags reproduce the RESULT line byte for byte
        threads = "" if self.threads is None else f" (threads={self.threads})"
        lines = [f"# {self.algo} on {self.instance}: {self.objective} q={fmt9(self.q)} "
                 f"k={self.k} -> value {fmt9(self.value)} in {self.wall_ms:.1f} ms{threads}"]
        if self.oracle is not None:
            lines.append(f"# oracle {fmt9(self.oracle)}, ratio {fmt9(self.ratio)}")
        return lines


def build_parser(only: str | None = None) -> _Parser:
    """The divmax parser; the subcommands other than ``only``, if set, get no arguments."""
    p = _Parser(prog="divmax", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    ps = sub.add_parser("solve", help="run one solver on an instance file")
    pg = sub.add_parser("gen", help="write a generated instance file")
    pb = sub.add_parser("bench", help="run a benchmark suite")
    if only in (None, "solve"):
        ps.add_argument("--in", dest="infile", required=True)
        ps.add_argument("--objective", required=True,
                        choices=("clique", "star", "bipartition"))
        ps.add_argument("--q", type=float, default=1.0)
        ps.add_argument("--k", type=int, required=True)
        ps.add_argument("--algo", required=True, choices=ALGOS)
        ps.add_argument("--eps", type=float)
        ps.add_argument("--seed", type=int)
        ps.add_argument("--budget", type=int)
        ps.add_argument("--oracle", action="store_true",
                        help="also run the brute-force oracle and report the ratio")
        ps.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="recorded on the '#' line only; no solver reads it")
    if only in (None, "gen"):
        gsub = pg.add_subparsers(dest="kind", required=True)
        gu = gsub.add_parser("uniform")
        gu.add_argument("--n", type=int, required=True)
        gu.add_argument("--d", type=int, default=2)
        gu.add_argument("--seed", type=int, required=True)
        gu.add_argument("--out", required=True)
        gc = gsub.add_parser("clustered")
        gc.add_argument("--n", type=int, required=True, help="cluster point count")
        gc.add_argument("--radius", type=float, required=True)
        gc.add_argument("--outliers", default="",
                        help="semicolon-separated points, e.g. '1,0;0,1'")
        gc.add_argument("--d", type=int)
        gc.add_argument("--seed", type=int, required=True)
        gc.add_argument("--out", required=True)
        gk = gsub.add_parser("ksum")
        gk.add_argument("--m", required=True, help="comma-separated integers")
        gk.add_argument("--k", type=int, required=True)
        gk.add_argument("--t", type=int, required=True)
        gk.add_argument("--out", required=True)
        gg = gsub.add_parser("graph12")
        gg.add_argument("--n", type=int, required=True)
        gg.add_argument("--p", type=float, required=True, help="edge probability")
        gg.add_argument("--seed", type=int, required=True)
        gg.add_argument("--out", required=True)
    if only in (None, "bench"):
        pb.add_argument("--suite", required=True, choices=("scaling", "ratios"))
        pb.add_argument("--out", required=True)
        pb.add_argument("--fixtures", help="directory of instance files for the ratios suite")
        pb.add_argument("--eps", type=float, default=0.3)
    return p


def cmd_solve(args) -> int:
    if args.algo in ("ptas", "fast-clique") and args.eps is None:
        print("error: --eps is required for approximation algorithms", file=sys.stderr)
        return EXIT_USAGE
    if args.algo == "fast-clique" and (args.objective != "clique" or args.q != 1.0):
        print("error: fast-clique supports only --objective clique with --q 1", file=sys.stderr)
        return EXIT_USAGE
    if args.algo == "greedy" and args.objective != "clique":
        print("error: greedy supports only --objective clique", file=sys.stderr)
        return EXIT_USAGE
    if args.budget is not None and args.budget < 0:
        print(f"error: --budget must be >= 0, got {args.budget}", file=sys.stderr)
        return EXIT_USAGE

    t_load = time.perf_counter()
    inst = load_instance(args.infile, q=args.q)
    load_ms = (time.perf_counter() - t_load) * 1000.0
    obj = Objective(args.objective, args.q)
    kw = {} if args.budget is None else {"budget": args.budget}
    t0 = time.perf_counter()
    if args.algo == "brute":
        sol = brute_force_opt(inst, obj, args.k)
    elif args.algo == "greedy":
        sol = greedy_clique(inst, args.k)
    elif args.algo == "ptas":
        sol = solve(inst, obj, args.k, args.eps, **kw)
    else:
        sol = solve_fast(inst, args.k, args.eps, **kw)
    wall = (time.perf_counter() - t0) * 1000.0

    check = evaluate(inst, obj, sol.subset, eps=args.eps)
    if abs(check - sol.value) > 1e-9 * max(1.0, abs(check), abs(sol.value)):
        print(f"error: reported value {sol.value!r} does not match "
              f"re-evaluation {check!r}", file=sys.stderr)
        return EXIT_VERIFY

    oracle = ratio = None
    opt = sol if args.algo == "brute" else None
    if args.oracle:
        if opt is None:
            opt = brute_force_opt(inst, obj, args.k)
        oracle = opt.value
        ratio = sol.value / oracle if oracle else 1.0
        if ratio > 1.0 + 1e-9:
            print(f"error: solver value {sol.value!r} exceeds the oracle "
                  f"{oracle!r}", file=sys.stderr)
            return EXIT_VERIFY

    counters = {key: sol.meta[key] for key in (
        "candidates", "guesses", "max_cells", "cells", "search_complete") if key in sol.meta}
    rep = RunReport(algo=args.algo, objective=args.objective, q=args.q, k=args.k,
                    n=inst.n, instance=args.infile, value=sol.value,
                    subset=sol.subset, eps=args.eps, seed=args.seed,
                    threads=args.threads, oracle=oracle, ratio=ratio,
                    wall_ms=wall, counters=counters)
    print(rep.machine_line())
    for line in rep.human_lines():
        print(line)
    backend = "matrix" if inst.points is None else f"points, D={inst.dim}, {inst.norm}"
    print(f"# load: {inst.n} points ({backend}) in {load_ms:.1f} ms")
    if opt is not None:
        print(f"# brute force: {opt.meta['subsets']} subsets, {opt.meta['rescored']} rescored")
    if args.algo == "fast-clique":
        print(_search_line(sol.meta, args.eps))
    elif args.algo == "ptas":
        m, subsets, c = sol.meta, math.comb(inst.n, args.k), f"C({inst.n},{args.k})"
        route = m["candidates"] < m.get("planned", 0)  # one search of every k-subset
        print(f"# guesses: {m['guesses']} planned, {m['repeats']} repeats, "
              f"{m['dominated']} dominated, {m['scored']} scored ({m['exact']} exact); "
              f"{m['candidates']} candidates = {m['candidates'] / subsets:.2f} x {c}"
              + (f"; exact search of {c} = {subsets} < {m['planned']} rows planned"
                 if route else ""))
    return EXIT_OK


def _search_line(meta: dict, eps: float) -> str:
    """What the fast-clique search covered and the bound it backs at ``eps``."""
    line = (f"# search: {meta['candidates']} leaves searched, "
            f"{meta['predicted_candidates']} predicted, budget {meta['budget']}; ")
    if not meta["search_complete"]:
        return line + f"search skipped, greedy + {meta['swaps']} swaps, no 1 - 8 eps guarantee"
    factor = 1.0 - APPROX_FACTOR * eps
    bound = f"value >= (1 - 8*eps) * OPT = {fmt9(factor)} * OPT"
    if factor <= 0.0:
        return line + f"complete, but {bound} is vacuous since 8*eps >= 1"
    return line + f"complete, so {bound} holds"


def _parse_points(text: str) -> list[tuple[float, ...]]:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            out.append(tuple(float(x) for x in part.split(",")))
    return out


def cmd_gen(args) -> int:
    if args.kind == "uniform":
        inst = gen_uniform(args.n, args.d, args.seed)
        desc = f"uniform n={args.n} d={args.d} seed={args.seed}"
    elif args.kind == "clustered":
        outliers = _parse_points(args.outliers)
        inst = gen_clustered(args.n, args.radius, outliers, args.seed, d=args.d)
        desc = (f"clustered n={args.n} radius={fmt9(args.radius)} "
                f"outliers={len(outliers)} seed={args.seed}")
    elif args.kind == "ksum":
        values = tuple(int(x) for x in args.m.split(","))
        ks = KSumInstance(values, args.k, args.t)
        inst = gen_ksum_reduction(ks)
        desc = f"ksum m={args.m} k={args.k} t={args.t}"
    else:
        inst = _random_graph12(args.n, args.p, args.seed)
        desc = f"graph12 n={args.n} p={fmt9(args.p)} seed={args.seed}"
    save_instance(inst, args.out)
    print(f"RESULT cmd=gen kind={args.kind} n={inst.n} out={args.out}")
    print(f"# wrote {args.out}: {desc}")
    return EXIT_OK


def _random_graph12(n: int, p: float, seed: int) -> MetricInstance:
    """The 1-2 metric of a seeded random graph with edge probability p."""
    adj = np.triu(np.random.default_rng(seed).uniform(size=(n, n)) < p, 1)
    return gen_graph_12metric(adj | adj.T)


def _scaling_instance(n: int, seed: int) -> MetricInstance:
    """Four tight clusters at the unit-square corners; cells stay few, so the
    multiplicity search is tiny and runtime tracks the linear passes."""
    rng = np.random.default_rng(seed)
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    sizes = [n // 4] * 3 + [n - 3 * (n // 4)]
    parts = []
    for c, size in zip(corners, sizes):
        dirs = rng.standard_normal(size=(size, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = 0.01 * rng.uniform(0.0, 1.0, size=(size, 1)) ** 0.5
        parts.append(c + dirs * radii)
    return MetricInstance.from_points(np.vstack(parts))


def cmd_bench(args) -> int:
    if args.suite == "scaling":
        return _bench_scaling(args)
    return _bench_ratios(args)


def _bench_scaling(args) -> int:
    ns = [10_000, 20_000, 40_000, 80_000]
    k, eps = 8, 0.5
    layouts = (("corners", _scaling_instance),
               ("uniform", lambda n, seed: gen_uniform(n, 2, seed)))
    rows = ["layout\tn\tcells\tcandidates\tcomplete\ttime_ms\tratio_to_prev"]
    for layout, make in layouts:
        prev = None
        for i, n in enumerate(ns):
            inst = make(n, seed=1234 + i)
            t0 = time.perf_counter()
            sol = solve_fast(inst, k, eps)
            ms = (time.perf_counter() - t0) * 1000.0
            ratio = "" if prev is None else f"{ms / prev:.2f}"
            prev = ms
            rows.append(f"{layout}\t{n}\t{sol.meta['cells']}\t{sol.meta['candidates']}\t"
                        f"{sol.meta['search_complete']}\t{ms:.1f}\t{ratio}")
    body = "\n".join(rows) + "\n"
    with open(args.out, "w") as fh:
        fh.write(f"# fast-clique scaling, k={k} eps={eps}, doubling n; four corner "
                 "clusters (4 cells) and uniform points in the unit square; "
                 "soft gate: ratios stay near 2\n")
        fh.write(body)
    print(f"# wrote {args.out}")
    print(body, end="")
    return EXIT_OK


def _ratio_fixtures(args) -> list[tuple[str, MetricInstance]]:
    if args.fixtures:
        names = sorted(f for f in os.listdir(args.fixtures) if f.endswith(".txt"))
        if not names:
            raise ValueError(
                f"fixture directory {args.fixtures!r} holds no .txt instance files")
        return [(name, load_instance(os.path.join(args.fixtures, name)))
                for name in names]
    return [
        ("uniform-12-a", gen_uniform(12, 2, seed=41)),
        ("uniform-12-b", gen_uniform(12, 3, seed=42)),
        ("clustered-12", gen_clustered(9, 0.02, [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], seed=43)),
        ("graph12-10", _random_graph12(10, 0.4, seed=44)),
    ]


def _bench_ratios(args) -> int:
    fixtures = _ratio_fixtures(args)
    eps = args.eps
    k = 4
    rows = ["fixture\talgo\tobjective\tvalue\toracle\tratio"]
    bad = []
    for name, inst in fixtures:
        for kind in ("clique", "star", "bipartition"):
            obj = Objective(kind, inst.q)
            opt = brute_force_opt(inst, obj, k)
            runs = [("ptas", solve(inst, obj, k, eps))]
            if kind == "clique":
                runs.append(("greedy", greedy_clique(inst, k)))
                if inst.q == 1.0:
                    runs.append(("fast-clique", solve_fast(inst, k, eps)))
            for algo, sol in runs:
                ratio = sol.value / opt.value if opt.value else 1.0
                rows.append(f"{name}\t{algo}\t{kind}\t{fmt9(sol.value)}\t"
                            f"{fmt9(opt.value)}\t{fmt9(ratio)}")
                if algo == "ptas" and ratio < (1.0 - eps) * (1.0 - 1e-9):
                    bad.append(rows[-1])
    body = "\n".join(rows) + "\n"
    with open(args.out, "w") as fh:
        fh.write(f"# solver-vs-oracle ratios, k={k} eps={eps}\n")
        fh.write(body)
    print(f"# wrote {args.out}")
    print(body, end="")
    if bad:
        print("error: approximation rows fell below their guarantee:", file=sys.stderr)
        for row in bad:
            print(f"  {row}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.cmd == "solve":
            return cmd_solve(args)
        if args.cmd == "gen":
            return cmd_gen(args)
        return cmd_bench(args)
    except (InstanceParseError, MetricValidationError, EnumerationCapError,
            BudgetExceededError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
