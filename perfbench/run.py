"""divmax benchmark: seeded workloads over solve, solve_fast and min_bisection.

    python3 perfbench/run.py --workload ptas --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

A run repeats whole rounds of its workload's operations until ``--seconds``
have passed.  Every round regenerates the seeded input files and runs each
operation in its own child process (``worker.py``), one at a time.  Each
output is checked against references computed by ``reference.py``, which
does not use divmax.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Times
are in reference seconds, scaled by the speed probe of ``speed.py``.  A
traced run alternates untraced and traced rounds, checks that their RESULT
lines agree byte for byte, and writes its spans to
``perfbench/.out/trace-<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import collections
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import reference as ref
import speed
from tracing import self_times
from workloads import WORKLOADS, Op, build, write_inputs

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / ".out"
OP_TIMEOUT_S = 150
REL = 1e-9   # tolerance for values passed as exact floats
REL9 = 1e-8  # tolerance for values printed at 9 significant digits

END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"),
              ("value_ratio", "ratio")]

# Per-layer metric -> (unit, how it is read from a traced round).
#   ("total", span)  summed duration of the outermost spans of that name
#   ("self", span)   summed self time of those spans
#   ("busy", span)   summed accrued busy time (generator spans)
#   ("calls", span)  number of spans of that name (calls made)
#   ("count", name)  summed counter
PER_LAYER = {
    "ptas.solve_s": ("s", ("total", "ptas.solve")),
    "ptas.self_s": ("s", ("self", "ptas.solve")),
    "ptas.enumerate_s": ("s", ("busy", "ptas.enumerate")),
    "ptas.enumerate_rows": ("count", ("count", "ptas.enumerate_rows")),
    "ptas.guesses": ("count", ("count", "ptas.guesses")),
    "ptas.candidates": ("count", ("count", "ptas.candidates")),
    "ptas.candidates_per_subset": ("ratio", ("ratio", "ptas.candidates", "ptas.subsets")),
    "cli.load_s": ("s", ("total", "cli.load")),
    "cli.verify_s": ("s", ("total", "cli.verify")),
    "cli.oracle_s": ("s", ("total", "cli.oracle")),
    "baselines.brute_s": ("s", ("total", "baselines.brute")),
    "baselines.brute_subsets": ("count", ("count", "baselines.brute_subsets")),
    "diversity.batch_evaluate_s": ("s", ("total", "diversity.batch_evaluate")),
    "baselines.greedy_s": ("s", ("total", "baselines.greedy")),
    "diversity.evaluate_calls": ("count", ("calls", "diversity.evaluate")),
    "diversity.evaluate_s": ("s", ("total", "diversity.evaluate")),
    "cells.decompose_calls": ("count", ("calls", "cells.decompose")),
    "cells.decompose_s": ("s", ("total", "cells.decompose")),
    "cells.centers": ("count", ("count", "cells.centers")),
    "metric.dists_from_calls": ("count", ("calls", "metric.dists_from")),
    "metric.dists_from_s": ("s", ("total", "metric.dists_from")),
    "metric.pow_submatrix_calls": ("count", ("calls", "metric.pow_submatrix")),
    "metric.pow_submatrix_s": ("s", ("total", "metric.pow_submatrix")),
    "fast_clique.solve_s": ("s", ("total", "fast_clique.solve")),
    "fast_clique.self_s": ("s", ("self", "fast_clique.solve")),
    "fast_clique.leaves": ("count", ("count", "fast_clique.leaves")),
    "fast_clique.cells_searched": ("count", ("count", "fast_clique.cells_searched")),
    "fast_clique.complete_searches": ("count", ("count", "fast_clique.complete_searches")),
    "fast_clique.greedy_floor_used": ("count", ("count", "fast_clique.greedy_floor_used")),
    "bisection.solve_s": ("s", ("total", "bisection.solve")),
    "bisection.self_s": ("s", ("self", "bisection.solve")),
    "bisection.candidates": ("count", ("count", "bisection.candidates")),
    "bisection.cells_used": ("count", ("count", "bisection.cells_used")),
    "trace.overhead_s": ("s", None),
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


class WrongOutput(Exception):
    """An operation succeeded but its output fails a reference check."""


def _threads() -> int:
    return len(os.sched_getaffinity(0))


def run_op(spec: dict) -> dict:
    """Run one operation in a fresh worker process."""
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"operation exceeded {OP_TIMEOUT_S} s: {spec}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(lines[-1])
    res["start_s"] = res["ready"] - t_spawn
    res["wall_s"] = res["t1"] - res["t0"]
    return res


def run_round(workload: str, seed: int, workdir: str, traced: bool) -> dict:
    """One pass over the workload's operations; times in reference seconds."""
    t0 = time.perf_counter()
    ops = build(workload, seed)
    paths = write_inputs(ops, workdir)
    gen_s = time.perf_counter() - t0
    probes = [speed.probe_time()]
    results = []
    for op, (inst, setp) in zip(ops, paths):
        spec = op.spec(inst, setp, _threads())
        spec["trace"] = traced
        results.append(run_op(spec))
    probes += [r["probe_s"] for r in results]
    scale = speed.REFERENCE_S / statistics.median(probes)
    for r in results:
        r["setup_s"] = r["start_s"] * scale
        r["solve_s"] = r["wall_s"] * scale
    return {"traced": traced, "results": results, "scale": scale,
            "setup_s": gen_s * scale + sum(r["setup_s"] for r in results),
            "solve_s": sum(r["solve_s"] for r in results)}


def _result_fields(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.split()[1:])


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Checker:
    """References per operation, computed once per run and apart from divmax."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.refs: dict[str, dict] = {}

    def _ref(self, op: Op) -> dict:
        if op.name not in self.refs:
            if op.algo == "ptas":
                r = {"opt": ref.exact_optimum(op.objective, op.points, op.q, op.k)}
            elif op.algo == "fast-clique":
                # no k points have a larger clique value than C(k, 2) * diameter
                r = {"bound": math.comb(op.k, 2) * ref.diameter(op.points),
                     "greedy": ref.greedy_clique_value(op.points, op.k)}
            else:
                r = {"opt": ref.min_bisection(op.points, op.q, op.multiset)}
            self.refs[op.name] = r
        return self.refs[op.name]

    def check(self, op: Op, res: dict) -> float:
        """Check one successful operation; return its value ratio or raise WrongOutput."""
        r = self._ref(op)
        if op.algo == "bisection":
            return self._check_bisection(op, res, r)
        if len(res["result_lines"]) != 1:
            raise WrongOutput(f"expected one RESULT line, got {res['result_lines']}")
        f = _result_fields(res["result_lines"][0])
        subset = [int(i) for i in f["subset"].split(",")]
        n = op.points.shape[0]
        if len(subset) != op.k or len(set(subset)) != op.k or not all(0 <= i < n for i in subset):
            raise WrongOutput(f"subset is not {op.k} distinct indices in range: {subset}")
        value = ref.subset_value(op.objective, op.points, op.q, subset)
        if not _close(float(f["value"]), value, REL9):
            raise WrongOutput(f"value {f['value']} != recomputed {value!r}")
        if op.algo == "ptas":
            opt = r["opt"]
            if not _close(float(f["oracle"]), opt, REL9):
                raise WrongOutput(f"oracle {f['oracle']} != exact optimum {opt!r}")
            if value < (1.0 - op.eps) * opt * (1.0 - REL):
                raise WrongOutput(f"value {value!r} < (1 - {op.eps}) * {opt!r}")
            return value / opt
        if value > r["bound"] * (1.0 + REL):
            raise WrongOutput(f"value {value!r} exceeds C(k,2)*D = {r['bound']!r}")
        if value < 0.5 * r["greedy"] * (1.0 - REL):
            raise WrongOutput(f"value {value!r} < half the greedy value {r['greedy']!r}")
        return value / r["bound"]

    def _check_bisection(self, op: Op, res: dict, r: dict) -> float:
        left = res["left"]
        have = collections.Counter(op.multiset)
        need = collections.Counter(left)
        if len(left) != op.k // 2 or any(need[u] > have[u] for u in need):
            raise WrongOutput(f"left half is not k/2 elements of T: {left}")
        value = res["value"]
        cross = ref.cross_weight(op.points, op.q, op.multiset, left)
        if not _close(value, cross, REL):
            raise WrongOutput(f"value {value!r} != recomputed cross weight {cross!r}")
        opt = r["opt"]
        if value < opt * (1.0 - REL) or value > (1.0 + op.eps) * opt * (1.0 + REL):
            raise WrongOutput(f"value {value!r} outside [opt, (1 + eps) opt], opt={opt!r}")
        return opt / value if value else 1.0


def _output_key(res: dict):
    """What must repeat byte for byte between rounds, traced or not."""
    if res["error"] is not None:
        return ("error", res["error"].split(":")[0])
    if "left" in res:
        return (tuple(res["left"]), repr(res["value"]))
    return tuple(res["result_lines"])


def layer_metrics(rnd: dict) -> dict[str, float]:
    totals: dict[str, float] = collections.defaultdict(float)
    selfs: dict[str, float] = collections.defaultdict(float)
    busy: dict[str, float] = collections.defaultdict(float)
    counts: dict[str, float] = collections.defaultdict(float)
    calls: dict[str, int] = collections.defaultdict(int)
    for res in rnd["results"]:
        spans = res["trace"]["spans"]
        own = self_times(spans)
        k = rnd["scale"]
        for i, s in enumerate(spans):
            calls[s["name"]] += 1
            # a span nested in one of the same name is already inside its total
            p = s["parent"]
            while p is not None and spans[p]["name"] != s["name"]:
                p = spans[p]["parent"]
            if p is not None:
                continue
            totals[s["name"]] += (s["end"] - s["start"]) * k
            selfs[s["name"]] += own[i] * k
            busy[s["name"]] += s.get("busy", 0.0) * k
        for key, v in res["trace"]["counts"].items():
            counts[key] += v
    out = {}
    for name, (_, how) in PER_LAYER.items():
        if how is None:
            continue
        kind, key = how[0], how[1]
        if kind == "ratio":
            out[name] = counts[key] / counts[how[2]] if counts[how[2]] else 0.0
        else:
            out[name] = {"total": totals, "self": selfs, "busy": busy,
                         "calls": calls, "count": counts}[kind][key]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    checker = Checker(build(workload, seed))
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    rounds: list[dict] = []
    start = time.perf_counter()
    try:
        while True:
            rounds.append(run_round(workload, seed, workdir, traced=trace and len(rounds) % 2 == 1))
            # stop before a round that would end past --seconds; a traced run
            # ends on a traced round so that each has its untraced partner
            next_end = (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds)
            if next_end > seconds and not (trace and len(rounds) % 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = True
    ratios = []
    attempted = failed = 0
    first = [_output_key(r) for r in rounds[0]["results"]]
    for i, rnd in enumerate(rounds):
        if [_output_key(r) for r in rnd["results"]] != first:
            correct = False
            print(f"# round {i}: outputs differ from round 0", file=sys.stderr)
        for op, res in zip(checker.ops, rnd["results"]):
            attempted += 1
            if res["error"] is not None:
                failed += 1
                if i == 0:
                    print(f"# {workload}/{op.name} failed: {res['error'][:200]}")
                continue
            try:
                ratio = checker.check(op, res)
            except WrongOutput as exc:
                correct = False
                print(f"# {workload}/{op.name} wrong: {exc}", file=sys.stderr)
                continue
            if i == 0:
                ratios.append(ratio)
        print(f"# round {i}{' traced' if rnd['traced'] else ''}: speed scale "
              f"{rnd['scale']:.3f}, setup {rnd['setup_s']:.3f} s, solve {rnd['solve_s']:.3f} s; "
              "per op wall s, peak MB: "
              + ", ".join(f"{op.name} {r['wall_s']:.3f} {r['maxrss_kb'] / 1024:.0f}"
                          for op, r in zip(checker.ops, rnd["results"])))

    if trace:
        plain = [r for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        per_round = [layer_metrics(r) for r in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_round), "unit": unit}
                   for name, (unit, how) in PER_LAYER.items() if how is not None}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["solve_s"] for r in traced)
            - statistics.median(r["solve_s"] for r in plain), "unit": "s"}
        path = OUT / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"workload": workload, "seed": seed, "ops": [
            {"round": i, "op": op.name, "spans": res["trace"]["spans"],
             "counts": res["trace"]["counts"]}
            for i, rnd in enumerate(rounds) if rnd["traced"]
            for op, res in zip(checker.ops, rnd["results"])]}))
        print(f"# wrote {path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "solve_s": statistics.median(r["solve_s"] for r in rounds),
            "peak_rss_mb": max(res["maxrss_kb"] for r in rounds for res in r["results"]) / 1024.0,
            "value_ratio": float(np.mean(ratios)) if ratios else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"# {workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {workload}: {len(rounds)} rounds, {attempted} ops attempted, {failed} failed")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "divmax" / "__init__.py").is_file():
        print(f"error: divmax sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for w, r in results.items():
        print(json.dumps({"workload": w, **r}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
