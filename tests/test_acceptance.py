"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single machine-greppable
``ACCEPTANCE <n> <name>: PASS|FAIL`` line with trial counts, and fails only
on genuine violations of the stated tolerance.
"""
import math
import os
import pathlib
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

import divmax as dm
from divmax.baselines import brute_force_opt, greedy_clique
from divmax.bisection import min_bisection, star_center
from divmax.cells import decompose_fixed, decompose_variable
from divmax.cli import _scaling_instance
from divmax.diversity import (balanced_split_masks, batch_evaluate,
                              centroid_clique_identity)
from divmax.fast_clique import solve_fast
from divmax.instances import KSumInstance, verify_reduction
from divmax.ptas import OUTLIER_RADIUS_COEFF, solve

from conftest import random_subsets, term_count

QS = (1.0, 1.5, 2.0, 3.0)
KINDS = ("clique", "star", "bipartition")


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _tol_leq(lhs, rhs):
    """Vectorized one-sided comparison at 1e-9 relative tolerance."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    return lhs <= rhs + 1e-9 * np.maximum(np.abs(lhs), np.abs(rhs))


# The shared desk-scale fixture family: every dimension/exponent/size cross,
# three seeds each, alternating uniform and cluster-plus-far-points layouts.

def _family_entries():
    entries = []
    for D in (1, 2, 3):
        for q in (1.0, 2.0):
            for k in (4, 6):
                n = 12 if k == 4 else 14
                for s in range(3):
                    seed = 1000 * D + 100 * int(q) + 10 * k + s
                    if s % 2 == 0:
                        inst = dm.gen_uniform(n, D, seed=seed, q=q)
                    else:
                        far = [[2.5] + [0.0] * (D - 1), [-2.0] + [0.6] * (D - 1)]
                        inst = dm.gen_clustered(n - 2, 0.05, far, seed=seed, d=D, q=q)
                    entries.append((f"D{D}-q{q:g}-k{k}-s{s}", inst, k))
    return entries


@pytest.fixture(scope="module")
def family():
    return _family_entries()


@pytest.fixture(scope="module")
def oracles(family):
    out = {}
    for i, (_, inst, k) in enumerate(family):
        for kind in KINDS:
            out[i, kind] = brute_force_opt(inst, dm.Objective(kind, inst.q), k)
    return out


def test_c1_ptas_guarantee(family, oracles, capsys):
    t0 = time.perf_counter()
    trials = failures = 0
    worst = 1.0
    for i, (name, inst, k) in enumerate(family):
        for kind in KINDS:
            obj = dm.Objective(kind, inst.q)
            opt = oracles[i, kind].value
            for eps in (0.2, 0.5):
                sol = solve(inst, obj, k, eps)
                trials += 1
                ratio = sol.value / opt if opt else 1.0
                worst = min(worst, ratio)
                if sol.value < (1.0 - eps) * opt * (1 - 1e-9):
                    failures += 1
    secs = time.perf_counter() - t0
    ok = failures == 0 and trials >= 200 and secs <= 300.0
    _report(capsys, 1, "ptas-guarantee", ok,
            f"{trials} trials, {failures} failures, worst ratio {worst:.4f}, {secs:.1f}s")


def test_c2_fast_clique_guarantee(family, oracles, capsys):
    trials = failures = 0
    worst = 1.0
    for i, (name, inst, k) in enumerate(family):
        if inst.q != 1.0:
            continue
        opt = oracles[i, "clique"].value
        for eps in (0.05, 0.1):
            sol = solve_fast(inst, k, eps)
            trials += 1
            ratio = sol.value / opt if opt else 1.0
            worst = min(worst, ratio)
            if sol.value < (1.0 - 8.0 * eps) * opt * (1 - 1e-9):
                failures += 1
    # scaling probe, soft gate: doubling n should roughly double the runtime
    times = []
    for j, n in enumerate((10_000, 20_000, 40_000, 80_000)):
        inst = _scaling_instance(n, seed=1234 + j)
        t0 = time.perf_counter()
        solve_fast(inst, 8, 0.5)
        times.append(time.perf_counter() - t0)
    ratios = [f"{b / a:.2f}" for a, b in zip(times, times[1:])]
    ok = failures == 0 and trials >= 36
    _report(capsys, 2, "fast-clique-guarantee", ok,
            f"{trials} trials, {failures} failures, worst ratio {worst:.4f}; "
            f"scaling time ratios {ratios} soft gate <= 2.5")


def test_c3_bisection_guarantee(capsys):
    trials = failures = 0
    for q in (1.0, 2.0):
        for k in (4, 6, 8, 10, 12, 14):
            inst = dm.gen_uniform(18, 2, seed=7000 + k + int(10 * q), q=q)
            rng = np.random.default_rng(k + int(10 * q))
            for eps in (0.25, 0.5):
                for _ in range(5):
                    T = sorted(int(x) for x in rng.choice(18, size=k, replace=False))
                    exact = dm.evaluate(inst, dm.Objective("bipartition", q), T)
                    res = min_bisection(inst, T, eps)
                    trials += 1
                    if not (exact * (1 - 1e-9) <= res.value
                            <= (1.0 + eps) * exact * (1 + 1e-9)):
                        failures += 1
    ok = failures == 0 and trials >= 100
    _report(capsys, 3, "bisection-guarantee", ok, f"{trials} trials, {failures} failures")


def test_c4_far_points_in_optimum(family, oracles, capsys):
    checks = violations = 0
    for i, (name, inst, k) in enumerate(family):
        for kind in KINDS:
            opt = oracles[i, kind]
            z0 = star_center(inst, opt.subset)[0]
            avg = opt.value / term_count(kind, k)
            radius = OUTLIER_RADIUS_COEFF[kind] * avg ** (1.0 / inst.q)
            d = inst.dists_from(z0)
            for u in range(inst.n):
                checks += 1
                if d[u] > radius * (1 + 1e-9) and u not in opt.subset:
                    violations += 1
    ok = violations == 0
    _report(capsys, 4, "far-points-in-optimum", ok,
            f"{checks} point checks over {len(family) * len(KINDS)} optima, "
            f"{violations} violations")


# ---------------------------------------------------------------------------
# Criterion 5: the inequality suite behind every guarantee, 1e5 randomized
# trials per inequality group across q in {1, 1.5, 2, 3}.

def _check_power_triangle():
    trials = viol = 0
    for qi, q in enumerate(QS):
        rng = np.random.default_rng(510 + qi)
        B = 25_000
        pts = rng.standard_normal((B, 3, 3)) * rng.uniform(0.2, 5.0, (B, 1, 1))
        duv = np.linalg.norm(pts[:, 0] - pts[:, 1], axis=1) ** q
        dvw = np.linalg.norm(pts[:, 1] - pts[:, 2], axis=1) ** q
        duw = np.linalg.norm(pts[:, 0] - pts[:, 2], axis=1) ** q
        viol += int((~_tol_leq(duw, 2.0 ** (q - 1.0) * (duv + dvw))).sum())
        trials += B
        x = rng.uniform(0.0, 4.0, B)
        y = rng.uniform(0.0, 4.0, B)
        e = rng.uniform(0.0, 1.0, B)
        lhs = (x + e * y) ** q
        rhs = x ** q + 2.0 ** q * e * np.maximum(x ** q, y ** q)
        viol += int((~_tol_leq(lhs, rhs)).sum())
        trials += B
    return trials, viol


def _check_objective_sandwich():
    trials = viol = 0
    for qi, q in enumerate(QS):
        inst = dm.gen_uniform(30, 3, seed=520 + qi, q=q)
        dq = inst.pow_matrix()
        rng = np.random.default_rng(530 + qi)
        for k in (4, 6, 8):
            rows = random_subsets(rng, 30, k, 8400)
            cl = batch_evaluate("clique", dq, rows)
            st = batch_evaluate("star", dq, rows)
            bp = batch_evaluate("bipartition", dq, rows)
            bad = ~(_tol_leq(k / 2.0 * st, cl)
                    & _tol_leq(cl, 2.0 ** (q - 1.0) * k * st)
                    & _tol_leq(2.0 * (k - 1) / k * bp, cl)
                    & _tol_leq(cl, (2.0 ** q + 1.0) * bp))
            viol += int(bad.sum())
            trials += rows.shape[0]
    return trials, viol


def _check_rounding_maps():
    """Pairwise and whole-set error bounds for center projections whose cells
    have radius delta * (average optimal value)^(1/q)."""
    t_pair = v_pair = t_set = v_set = 0
    for qi, q in enumerate(QS):
        for si in range(3):
            inst = dm.gen_uniform(40, 2, seed=540 + 10 * qi + si, q=q)
            dqm = inst.pow_matrix()
            rng = np.random.default_rng(560 + 10 * qi + si)
            for kind in KINDS:
                opt = brute_force_opt(inst, dm.Objective(kind, q), 4)
                delta_avg = opt.value / term_count(kind, 4)
                for dlt in (0.05, 0.15, 0.4):
                    dec = decompose_fixed(inst, None, dlt * delta_avg ** (1.0 / q))
                    pi = np.asarray(dec.centers)[dec.label]
                    rounded = dqm[np.ix_(pi, pi)]
                    gap = np.abs(dqm - rounded)
                    bound = 2.0 ** (q + 1.0) * dlt * (delta_avg + np.minimum(dqm, rounded))
                    v_pair += int((~_tol_leq(gap, bound)).sum())
                    t_pair += dqm.size
                    rows = random_subsets(rng, inst.n, 4, 1000)
                    dv_t = batch_evaluate(kind, dqm, rows)
                    dv_pt = batch_evaluate(kind, dqm, pi[rows])
                    set_gap = np.abs(dv_t - dv_pt)
                    mid = 2.0 ** (q + 1.0) * dlt * (opt.value + dv_t)
                    top = 2.0 ** (q + 2.0) * dlt * opt.value
                    bad = ~(_tol_leq(set_gap, mid) & _tol_leq(mid, top))
                    v_set += int(bad.sum())
                    t_set += rows.shape[0]
    return t_pair, v_pair, t_set, v_set


def _check_cluster_ball():
    """Plain-distance clique optima: fewer than k/2 points escape the ball of
    twice the average around the optimal star center, and every other ball
    missing fewer than k/2 points sits within 2 * average + r of it."""
    trials = viol = 0
    k = 4
    rgrid_f = np.array([0.3, 0.8, 1.5, 2.2, 3.0, 4.0])
    for i in range(1050):
        n = (12, 16, 20)[i % 3]
        inst = dm.gen_uniform(n, 2, seed=57000 + i)
        opt = brute_force_opt(inst, dm.Objective("clique"), k)
        z0 = star_center(inst, opt.subset)[0]
        avg = opt.value / math.comb(k, 2)
        dmat = inst.pow_matrix()
        dz = dmat[z0]
        trials += 1
        if int((dz > 2.0 * avg * (1 + 1e-9)).sum()) >= k / 2.0:
            viol += 1
        rgrid = avg * rgrid_f
        excluded = (dmat[:, :, None] > rgrid[None, None, :]).sum(axis=1)
        premise = excluded < k / 2.0
        conclusion = _tol_leq(dz[:, None], 2.0 * avg + rgrid[None, :])
        viol += int((premise & ~conclusion).sum())
        trials += premise.size
    return trials, viol


def _check_variable_rounding():
    """Growing-radius projections anchored at a set's star center: pairwise
    error bound and the (1 +- 2^(q+3) delta) cross-split bound."""
    trials = viol = 0
    ks = (6, 8, 10, 12, 14)
    for qi, q in enumerate(QS):
        inst = dm.gen_uniform(24, 2, seed=580 + qi, q=q)
        dqm = inst.pow_matrix()
        rng = np.random.default_rng(590 + qi)
        for t in range(25):
            k = ks[t % len(ks)]
            T = np.array(sorted(int(x) for x in rng.choice(24, size=k, replace=False)),
                         dtype=np.int64)
            bp = dm.evaluate(inst, dm.Objective("bipartition", q), T)
            delta_avg = 4.0 * bp / (k * k)
            z = star_center(inst, T)[0]
            for dlt in (0.1, 0.3):
                dec = decompose_variable(inst, T, z, delta_avg ** (1.0 / q), dlt)
                pi = np.asarray(dec.centers)[dec.label]  # T is sorted and distinct
                orig = dqm[np.ix_(T, T)]
                rounded = dqm[np.ix_(pi, pi)]
                dz = dqm[z][T]
                gap = np.abs(orig - rounded)
                bound = 2.0 ** (q + 1.0) * dlt * (
                    delta_avg + orig + (dz[:, None] + dz[None, :]) / 2.0 ** q)
                viol += int((~_tol_leq(gap, bound)).sum())
                trials += orig.size
                masks = balanced_split_masks(k)
                f0 = np.einsum("mi,ij,mj->m", masks, orig, 1.0 - masks)
                fr = np.einsum("mi,ij,mj->m", masks, rounded, 1.0 - masks)
                bad = ~_tol_leq(np.abs(f0 - fr), 2.0 ** (q + 3.0) * dlt * f0)
                viol += int(bad.sum())
                trials += masks.shape[0]
    return trials, viol


def test_c5_inequality_suite(capsys):
    t21, v21 = _check_power_triangle()
    t22, v22 = _check_objective_sandwich()
    tp, vp, ts, vs = _check_rounding_maps()
    t42, v42 = _check_cluster_ball()
    t52, v52 = _check_variable_rounding()
    counts = {"power-triangle": (t21, v21), "objective-sandwich": (t22, v22),
              "pairwise-rounding": (tp, vp), "set-rounding": (ts, vs),
              "cluster-ball": (t42, v42), "variable-rounding": (t52, v52)}
    ok = all(t >= 100_000 and v == 0 for t, v in counts.values())
    detail = ", ".join(f"{name} {t}/{v}" for name, (t, v) in counts.items())
    _report(capsys, 5, "inequality-suite", ok, f"trials/violations: {detail}")


def test_c6_greedy_floor(family, oracles, capsys):
    trials = failures = 0
    worst = 1.0
    for i, (name, inst, k) in enumerate(family):
        opt = oracles[i, "clique"].value
        g = greedy_clique(inst, k)
        trials += 1
        ratio = g.value / opt if opt else 1.0
        worst = min(worst, ratio)
        if g.value < 0.49 * opt * (1 - 1e-9):
            failures += 1
    ok = failures == 0
    _report(capsys, 6, "greedy-floor", ok,
            f"{trials} fixtures, {failures} below 0.49, worst ratio {worst:.4f}")


def test_c7_centroid_identity(capsys):
    rng = np.random.default_rng(7777)
    pts = rng.standard_normal((200, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    inst = dm.MetricInstance.from_points(pts, q=2.0)
    dq = inst.pow_matrix()
    trials = viol = 0
    for k in range(2, 13):
        rows = random_subsets(rng, 200, k, 910)
        lhs = batch_evaluate("clique", dq, rows)
        z = pts[rows].mean(axis=1)
        rhs = k * k * (1.0 - (z * z).sum(axis=1))
        viol += int((np.abs(lhs - rhs) > 1e-9 * k * k).sum())
        trials += rows.shape[0]
    for _ in range(300):
        k = int(rng.integers(2, 13))
        sub = sorted(int(x) for x in rng.choice(200, size=k, replace=False))
        lhs, rhs = centroid_clique_identity(inst, sub)
        viol += int(abs(lhs - rhs) > 1e-9 * k * k)
        trials += 1
    ok = trials >= 10_000 and viol == 0
    _report(capsys, 7, "centroid-identity", ok, f"{trials} subsets, {viol} violations")


def test_c8_hardness_gadget(capsys):
    cases = []
    pool = (-2, -1, 0, 1, 2)
    for size in range(2, 6):
        for combo in combinations(pool, size):
            for K in range(2, min(4, size) + 1):
                cases.append((combo, K, 2))
    cases += [
        ((-1, 1), 2, 1), ((1, 2), 2, 2), ((-2, -1, 3), 3, 3), ((1, 2, 3), 2, 3),
        ((-4, 1, 3), 2, 4), ((-4, -3, 2, 4), 4, 4),
        ((-4, -3, -1, 0, 1, 2, 3, 4), 4, 4),
        ((1, 2, 3, 4, -1, -2, -3, -4), 4, 4),
        ((4, 4, 4, 4, 3, 3, 3, 3), 4, 4),
    ]
    rng = np.random.default_rng(88)
    for _ in range(100):
        size = int(rng.integers(4, 9))
        t = int(rng.integers(2, 5))
        vals = tuple(int(v) for v in rng.integers(-t, t + 1, size=size))
        K = int(rng.integers(2, min(4, size) + 1))
        cases.append((vals, K, t))
    trials = failures = 0
    for vals, K, t in cases:
        verdict = verify_reduction(KSumInstance(vals, K, t))
        trials += 1
        if not verdict.passed:
            failures += 1
    ok = failures == 0 and trials >= 148
    _report(capsys, 8, "hardness-gadget", ok, f"{trials} gadgets, {failures} failures")


def test_c9_determinism(tmp_path, capsys):
    # the subprocess runs in tmp_path, where a relative PYTHONPATH would not resolve
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(dm.__file__).resolve().parents[1])}
    # BLAS picks its own thread count unless these are set
    blas_default = {k: v for k, v in env.items()
                    if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    one_thread = {**blas_default, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

    def run(args, env=env):
        r = subprocess.run([sys.executable, "-m", "divmax.cli", *args],
                           capture_output=True, text=True, cwd=str(tmp_path), env=env)
        assert r.returncode == 0, r.stderr
        return [l for l in r.stdout.splitlines() if l.startswith("RESULT ")]

    checks = failures = 0

    gen = ["gen", "uniform", "--n", "40", "--seed", "11", "--out", "a.txt"]
    first = run(gen)
    bytes_first = (tmp_path / "a.txt").read_bytes()
    second = run(gen)
    checks += 1
    failures += first != second or bytes_first != (tmp_path / "a.txt").read_bytes()

    solve_argv = ["solve", "--in", "a.txt", "--objective", "clique", "--k", "4",
                  "--algo", "brute", "--seed", "7", "--oracle"]
    one = run(solve_argv + ["--threads", "1"])
    checks += 1
    failures += run(solve_argv + ["--threads", "1"]) != one
    checks += 1
    failures += run(solve_argv + ["--threads", "8"]) != one

    for extra in (["--algo", "ptas", "--eps", "0.3"],
                  ["--algo", "fast-clique", "--eps", "0.1"]):
        argv = ["solve", "--in", "a.txt", "--objective", "clique", "--k", "4",
                "--seed", "7"] + extra
        checks += 1
        failures += run(argv) != run(argv)

    # the subset screens run GEMMs whose bits may follow the BLAS thread
    # count; only exact rescores reach an answer, so RESULT lines must not
    run(["gen", "clustered", "--n", "16", "--radius", "0.01", "--outliers",
         "1,0;0,1;-1,0;0,-1", "--seed", "3", "--out", "b.txt"])
    for argv in (["--in", "a.txt", "--objective", "star", "--k", "4", "--oracle"],
                 ["--in", "b.txt", "--objective", "bipartition", "--k", "8"]):
        argv = ["solve", "--algo", "ptas", "--eps", "0.3"] + argv
        checks += 1
        failures += run(argv, blas_default) != run(argv, one_thread)

    ok = failures == 0
    _report(capsys, 9, "determinism", ok,
            f"{checks} byte-identity checks (reruns, thread counts, BLAS threads, "
            f"file bytes), {failures} mismatches")
