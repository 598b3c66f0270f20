"""Objective evaluation on subsets and multisets, plus the centroid identity."""
import math
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import divmax as dm
from divmax.bisection import star_center
from divmax.diversity import _expand_rows, balanced_split_masks, batch_evaluate, values
from divmax.errors import EnumerationCapError
from divmax.metric import tol_leq

from conftest import random_subsets

ROOT2 = math.sqrt(2.0)
SQUARE_CLIQUE = 4.0 + 2.0 * ROOT2        # six pairs: four sides + two diagonals
SQUARE_STAR = 2.0 + ROOT2                # any corner: two sides + one diagonal
SQUARE_BP = 4.0                          # diagonal pairs kept on the same side
CLIQUE, STAR, BIPARTITION = (dm.Objective(kind) for kind in ("clique", "star", "bipartition"))


# ------------------------------------------------------------- subset values

def test_clique_examples(square):
    pair = dm.MetricInstance.from_matrix([[0.0, 3.0], [3.0, 0.0]])
    assert dm.evaluate(pair, CLIQUE, [0, 1]) == pytest.approx(3.0)
    assert dm.evaluate(square, CLIQUE, range(4)) == pytest.approx(SQUARE_CLIQUE)
    sphere = dm.MetricInstance.from_points([[1.0, 0.0], [-1.0, 0.0]], q=2.0)
    assert dm.evaluate(sphere, dm.Objective("clique", 2.0), [0, 1]) == pytest.approx(4.0)


def test_star_examples(square, line013):
    pair = dm.MetricInstance.from_matrix([[0.0, 3.0], [3.0, 0.0]])
    assert dm.evaluate(pair, STAR, [0, 1]) == pytest.approx(3.0)
    assert star_center(pair, [0, 1])[0] == 0
    assert dm.evaluate(line013, STAR, [0, 1, 2]) == pytest.approx(3.0)
    assert star_center(line013, [0, 1, 2])[0] == 1
    assert dm.evaluate(square, STAR, range(4)) == pytest.approx(SQUARE_STAR)
    assert star_center(square, range(4))[0] == 0  # four-way tie resolved to the lowest index


def test_bipartition_examples(square, line4):
    pair = dm.MetricInstance.from_matrix([[0.0, 3.0], [3.0, 0.0]])
    assert dm.evaluate(pair, BIPARTITION, [0, 1]) == pytest.approx(3.0)
    assert dm.evaluate(square, BIPARTITION, range(4)) == pytest.approx(SQUARE_BP)
    assert dm.evaluate(line4, BIPARTITION, range(4)) == pytest.approx(6.0)


def test_bipartition_allows_repetition(line4):
    # two coincident copies at 0 and two at 1: best split pairs the copies
    assert dm.evaluate(line4, BIPARTITION, [0, 0, 1, 1]) == pytest.approx(2.0)
    assert dm.evaluate(line4, BIPARTITION, [1, 0, 1, 0]) == pytest.approx(2.0)


def test_bipartition_rejects_odd_and_oversize(square):
    with pytest.raises(ValueError, match="even"):
        dm.evaluate(square, BIPARTITION, [0, 1, 2])
    big = dm.gen_uniform(18, 2, seed=0)
    with pytest.raises(EnumerationCapError, match="18 elements on 18 distinct points"):
        dm.evaluate(big, BIPARTITION, range(18))


def test_bipartition_minimum_over_reenumerated_splits(square):
    rng = np.random.default_rng(2)
    inst = dm.gen_uniform(10, 2, seed=9, q=1.5)
    obj = dm.Objective("bipartition", 1.5)
    for k in (4, 6):
        sub = sorted(rng.choice(10, size=k, replace=False))
        best = dm.evaluate(inst, obj, sub)
        crosses = []
        for rest in combinations(sub[1:], k // 2 - 1):
            L = [sub[0], *rest]
            R = [u for u in sub if u not in L]
            crosses.append(sum(inst.dist_pow(a, b) for a in L for b in R))
        assert best == pytest.approx(min(crosses), rel=1e-12)


def test_subset_too_small(square):
    with pytest.raises(ValueError, match="too small"):
        dm.evaluate(square, CLIQUE, [0])
    with pytest.raises(IndexError):
        dm.evaluate(square, STAR, [0, 9])


def test_bipartition_and_multiset_reject_out_of_range_indices():
    # numpy would wrap -1 to the last point instead of failing
    inst = dm.gen_uniform(10, 2, seed=1)
    msg = r"subset index out of range \[0, 10\)"
    with pytest.raises(IndexError, match=msg):
        dm.evaluate(inst, BIPARTITION, [-1, 0, 3, 4])
    for kind in ("clique", "star", "bipartition"):
        for bad in ([-1, -1, 0, 0], [0, 0, 10, 10], [10] * 18):
            with pytest.raises(IndexError, match=msg):
                dm.evaluate(inst, dm.Objective(kind), bad)


def test_balanced_split_masks():
    masks = balanced_split_masks(4)
    np.testing.assert_array_equal(
        masks, [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
    assert balanced_split_masks(8).shape == (math.comb(7, 3), 8)
    with pytest.raises(ValueError):
        balanced_split_masks(5)


def test_balanced_split_masks_are_read_only():
    # the array is cached, so a caller's write would reach every later
    # bipartition score with the same k
    with pytest.raises(ValueError, match="read-only"):
        balanced_split_masks(4)[0, 0] = 7
    np.testing.assert_array_equal(balanced_split_masks(4)[0], [1, 1, 0, 0])


def test_objective_validation():
    with pytest.raises(ValueError, match="unknown objective"):
        dm.Objective("tree")
    with pytest.raises(ValueError, match="q must be >= 1"):
        dm.Objective("clique", 0.9)


@pytest.mark.parametrize("k", [4.5, 4.0, None, "4"])
def test_solvers_refuse_a_k_that_is_not_an_integer(k):
    # greedy_clique returned 5 points for k = 4.5; the others failed deep inside
    inst = dm.gen_uniform(20, 2, seed=1)
    for solver in (lambda: dm.greedy_clique(inst, k), lambda: dm.solve(inst, CLIQUE, k, 0.5),
                   lambda: dm.brute_force_opt(inst, CLIQUE, k),
                   lambda: dm.solve_fast(inst, k, 0.5)):
        with pytest.raises(ValueError, match=rf"^k must be an integer, got {k!r}$"):
            solver()
    assert len(dm.greedy_clique(inst, np.int64(4)).subset) == 4


def test_evaluate_dispatch(square):
    assert dm.evaluate(square, dm.Objective("clique"), range(4)) == pytest.approx(SQUARE_CLIQUE)
    assert dm.evaluate(square, dm.Objective("star"), range(4)) == pytest.approx(SQUARE_STAR)
    assert dm.evaluate(square, dm.Objective("bipartition"), range(4)) == pytest.approx(SQUARE_BP)
    with pytest.raises(ValueError, match="exponent"):
        dm.evaluate(square, dm.Objective("clique", 2.0), range(4))


@pytest.mark.parametrize("kind", ("clique", "star", "bipartition"))
def test_evaluate_reads_an_iterator_once(kind):
    inst = dm.gen_uniform(10, 2, seed=1)
    obj = dm.Objective(kind)
    assert dm.evaluate(inst, obj, iter([0, 1, 2, 3])) == dm.evaluate(inst, obj, [0, 1, 2, 3])


def test_evaluate_large_bipartition_needs_eps():
    inst = dm.gen_uniform(18, 2, seed=4)
    obj = dm.Objective("bipartition")
    with pytest.raises(EnumerationCapError, match="pass eps"):
        dm.evaluate(inst, obj, range(18))
    approx = dm.evaluate(inst, obj, range(18), eps=0.5)
    # independent split enumeration as the oracle (cap does not bind tests)
    dq = inst.pow_matrix()
    exact = np.inf
    for rest in combinations(range(1, 18), 8):
        mask = np.zeros(18)
        mask[[0, *rest]] = 1.0
        exact = min(exact, float(mask @ dq @ (1.0 - mask)))
    assert exact * (1 - 1e-9) <= approx <= exact * 1.5 * (1 + 1e-9)


# ---------------------------------------------------------------- multisets

def test_multiset_single_center_is_zero(square):
    for sub in ([2] * 4, [2] * 2, [2] * 18):
        for kind in ("clique", "star", "bipartition"):
            assert dm.evaluate(square, dm.Objective(kind), sub) == 0.0


def test_multiset_two_center_examples():
    pair = dm.MetricInstance.from_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert dm.evaluate(pair, CLIQUE, [0, 0, 1, 1]) == pytest.approx(4.0)
    assert dm.evaluate(pair, STAR, [0, 0, 1, 1]) == pytest.approx(2.0)
    assert dm.evaluate(pair, BIPARTITION, [0, 0, 1, 1]) == pytest.approx(2.0)
    assert dm.evaluate(pair, CLIQUE, [0, 0, 1, 1, 1]) == pytest.approx(6.0)
    assert dm.evaluate(pair, CLIQUE, [0, 1]) == pytest.approx(1.0)
    # a doubled cell center plus a forced outlier at distance 1
    cell = dm.MetricInstance.from_points([[0.0], [0.0], [1.0]])
    assert dm.evaluate(cell, CLIQUE, [0, 0, 2]) == pytest.approx(2.0)
    assert dm.evaluate(cell, STAR, [0, 0, 2]) == pytest.approx(1.0)
    # above the exact cap: 10 copies of each point split five and five
    assert dm.evaluate(pair, BIPARTITION, [0] * 10 + [1] * 10) == pytest.approx(50.0)


def test_multiset_validation(square):
    with pytest.raises(ValueError, match="too small"):
        dm.evaluate(square, CLIQUE, [0])
    with pytest.raises(ValueError, match="even"):
        dm.evaluate(square, BIPARTITION, [0, 0, 1])
    with pytest.raises(ValueError, match="even"):
        dm.evaluate(square, BIPARTITION, [0] * 10 + [1] * 9)
    with pytest.raises(ValueError, match="exponent"):
        dm.evaluate(square, dm.Objective("clique", 3.0), [0, 0, 1])


@pytest.mark.parametrize("kind", ("clique", "star", "bipartition"))
@pytest.mark.parametrize("seed", range(4))
def test_all_ones_multiset_equals_subset(kind, seed):
    # an all-ones count row scores the same as the plain subset
    rng = np.random.default_rng(seed)
    inst = dm.gen_uniform(12, 2, seed=seed + 20, q=1.0 + seed)
    k = 4 if kind == "bipartition" else 5
    sub = sorted(int(i) for i in rng.choice(12, size=k, replace=False))
    obj = dm.Objective(kind, inst.q)
    ones = np.ones((1, k), dtype=np.int64)
    assert values(kind, inst.pow_submatrix(sub), ones)[0] == pytest.approx(
        dm.evaluate(inst, obj, sub), rel=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
def test_multiset_matches_expansion(seed):
    # a shuffled index list with repeats scores as its expanded index row
    rng = np.random.default_rng(seed)
    inst = dm.gen_uniform(8, 2, seed=int(rng.integers(1 << 30)), q=float(rng.choice([1.0, 2.0])))
    ncent = int(rng.integers(2, 5))
    centers = rng.choice(8, size=ncent, replace=False)
    expanded = np.repeat(centers, rng.integers(1, 4, size=ncent))
    rows = expanded[None, :]
    dq = inst.pow_matrix()
    for kind in ("clique", "star", "bipartition"):
        if kind == "bipartition" and expanded.size % 2:
            continue
        got = dm.evaluate(inst, dm.Objective(kind, inst.q), rng.permutation(expanded))
        want = float(batch_evaluate(kind, dq, rows)[0])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
def test_multiset_matches_count_row(seed):
    # evaluate on a random multiset, up to 20 elements on at most 8 distinct
    # points (so bipartitions reach past the exact cap), against the count
    # row of its multiplicities over the support
    rng = np.random.default_rng(seed)
    inst = dm.gen_uniform(10, 2, seed=int(rng.integers(1 << 30)), q=float(rng.choice([1.0, 2.0])))
    support = np.sort(rng.choice(10, size=int(rng.integers(1, 9)), replace=False))
    mult = rng.multinomial(2 * int(rng.integers(1, 11)), [1.0 / support.size] * support.size)
    support, mult = support[mult > 0], mult[mult > 0]
    multiset = rng.permutation(np.repeat(support, mult))
    dq = inst.pow_submatrix(support)
    for kind in ("clique", "star", "bipartition"):
        got = dm.evaluate(inst, dm.Objective(kind, inst.q), multiset)
        want = float(values(kind, dq, mult[None])[0])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_multiset_split_delegation_beyond_cap():
    # 18 elements exceed the exact cap, and 11 distinct points the split cap
    inst = dm.gen_uniform(14, 2, seed=31)
    obj = dm.Objective("bipartition")
    multiset = [0] * 8 + list(range(1, 11))
    with pytest.raises(EnumerationCapError, match="pass eps"):
        dm.evaluate(inst, obj, multiset)
    approx = dm.evaluate(inst, obj, multiset, eps=0.25)
    exact = float(values("bipartition", inst.pow_submatrix(range(11)),
                         np.array([[8] + [1] * 10]))[0])
    assert exact * (1 - 1e-9) <= approx <= exact * 1.25 * (1 + 1e-9)


def test_multiset_all_ones_beyond_split_cap_stays_exact():
    # twelve distinct points exceed the split cap, but twelve elements stay
    # within the exact cap, so no eps is needed
    inst = dm.gen_uniform(14, 2, seed=31)
    obj = dm.Objective("bipartition")
    dq = inst.pow_submatrix(range(12))
    masks = balanced_split_masks(12)
    want = min(float(m @ dq @ (1.0 - m)) for m in masks)
    assert dm.evaluate(inst, obj, range(12)) == pytest.approx(want, rel=1e-12)


def test_bipartition_above_cap_on_few_points_is_exact():
    # 18 elements on 9 distinct points: the per-point split counts are
    # enumerated exactly, so no eps is needed
    inst = dm.gen_uniform(12, 2, seed=8, q=1.5)
    obj = dm.Objective("bipartition", 1.5)
    multiset = [3] * 8 + [0, 0, 1, 4, 5, 7, 9, 10, 11, 11]
    got = dm.evaluate(inst, obj, multiset)
    dq = inst.pow_submatrix(multiset)
    exact = np.inf
    for rest in combinations(range(1, 18), 8):
        mask = np.zeros(18)
        mask[[0, *rest]] = 1.0
        exact = min(exact, float(mask @ dq @ (1.0 - mask)))
    assert got == pytest.approx(exact, rel=1e-12)


# ------------------------------------------------------ objective relations

@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [4, 6, 8])
def test_star_and_bipartition_sandwich_clique(q, k):
    # (k/2) st <= cl <= 2^(q-1) k st   and   (2(k-1)/k) bp <= cl <= (2^q+1) bp
    rng = np.random.default_rng(100 * k + int(q * 10))
    inst = dm.gen_uniform(16, 3, seed=k, q=q)
    for _ in range(25):
        sub = sorted(int(i) for i in rng.choice(16, size=k, replace=False))
        cl, st_, bp = (dm.evaluate(inst, dm.Objective(kind, q), sub)
                       for kind in ("clique", "star", "bipartition"))
        assert tol_leq(k / 2.0 * st_, cl)
        assert tol_leq(cl, 2.0 ** (q - 1.0) * k * st_)
        assert tol_leq(2.0 * (k - 1) / k * bp, cl)
        assert tol_leq(cl, (2.0 ** q + 1.0) * bp)


# ------------------------------------------------------------ batch kernels

@pytest.mark.parametrize("kind", ("clique", "star", "bipartition"))
def test_batch_matches_scalar_evaluation(kind):
    rng = np.random.default_rng(7)
    inst = dm.gen_uniform(15, 2, seed=77, q=2.0)
    rows = random_subsets(rng, 15, 6, 40)
    vals = batch_evaluate(kind, inst.pow_matrix(), rows)
    obj = dm.Objective(kind, 2.0)
    for row, v in zip(rows, vals):
        assert v == pytest.approx(dm.evaluate(inst, obj, row), rel=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
def test_count_rows_match_index_rows(seed):
    # count rows over cell centers plus forced outliers (count 1), as the
    # solvers build them, against their expanded index rows and, for an
    # all-ones row, the subset evaluator
    rng = np.random.default_rng(seed)
    q = float(rng.choice([1.0, 2.0]))
    inst = dm.gen_uniform(9, 2, seed=int(rng.integers(1 << 30)), q=q)
    k = 2 * int(rng.integers(1, 5))
    ncent, nout = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    ext = [int(i) for i in rng.permutation(9)[:ncent + nout]]
    dq = inst.pow_submatrix(ext)
    counts = np.hstack([rng.multinomial(k - nout, [1.0 / ncent] * ncent, size=6),
                        np.ones((6, nout), dtype=np.int64)])
    for kind in ("clique", "star", "bipartition"):
        np.testing.assert_allclose(values(kind, dq, counts),
                                   batch_evaluate(kind, dq, _expand_rows(counts)),
                                   rtol=1e-12, atol=1e-12)
        if len(ext) >= 2 and (kind != "bipartition" or len(ext) % 2 == 0):
            ones = np.ones((1, len(ext)), dtype=np.int64)
            assert values(kind, dq, ones)[0] == pytest.approx(
                dm.evaluate(inst, dm.Objective(kind, q), ext), rel=1e-12, abs=1e-12)


def test_batch_handles_repeats():
    inst = dm.gen_uniform(6, 2, seed=5)
    rows = np.array([[0, 0, 1, 1], [2, 2, 2, 3]], dtype=np.int64)
    dq = inst.pow_matrix()
    cl = batch_evaluate("clique", dq, rows)
    d01, d23 = inst.dist(0, 1), inst.dist(2, 3)
    np.testing.assert_allclose(cl, [4.0 * d01, 3.0 * d23])
    bp = batch_evaluate("bipartition", dq, rows)
    np.testing.assert_allclose(bp, [2.0 * d01, 2.0 * d23])


# --------------------------------------------------------- centroid identity

def test_centroid_identity_examples():
    anti = dm.MetricInstance.from_points([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], q=2.0)
    assert dm.centroid_clique_identity(anti, [0, 1]) == (pytest.approx(4.0), pytest.approx(4.0))
    dup = dm.MetricInstance.from_points([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]], q=2.0)
    lhs, rhs = dm.centroid_clique_identity(dup, [0, 1])
    assert lhs == pytest.approx(0.0) and rhs == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_centroid_identity_random_subsets(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((20, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    inst = dm.MetricInstance.from_points(pts, q=2.0)
    sub = sorted(int(i) for i in rng.choice(20, size=5, replace=False))
    lhs, rhs = dm.centroid_clique_identity(inst, sub)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)


def test_centroid_identity_preconditions():
    off = dm.MetricInstance.from_points([[2.0, 0.0], [0.0, 1.0]], q=2.0)
    with pytest.raises(ValueError, match="norm deviating"):
        dm.centroid_clique_identity(off, [0, 1])
    q1 = dm.MetricInstance.from_points([[1.0, 0.0], [0.0, 1.0]], q=1.0)
    with pytest.raises(ValueError, match="q = 2"):
        dm.centroid_clique_identity(q1, [0, 1])
    l1 = dm.MetricInstance.from_points([[1.0, 0.0], [0.0, 1.0]], norm="l1", q=2.0)
    with pytest.raises(ValueError, match="l2"):
        dm.centroid_clique_identity(l1, [0, 1])
    mat = dm.MetricInstance.from_matrix([[0.0, 2.0], [2.0, 0.0]], q=2.0)
    with pytest.raises(ValueError, match="coordinate backend"):
        dm.centroid_clique_identity(mat, [0, 1])


# ------------------------------------------------------------------ imports

PACKAGE_DIR = Path(dm.__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE_DIR.glob("*.py")
                                        if p.stem != "__init__"))
def test_each_module_imports_first(name):
    # a fresh interpreter imports this module before any other divmax module;
    # the package __init__ is bypassed, since its fixed order hides cycles
    code = ("import importlib, sys, types\n"
            "pkg = types.ModuleType('divmax')\n"
            f"pkg.__path__ = [{str(PACKAGE_DIR)!r}]\n"
            "sys.modules['divmax'] = pkg\n"
            f"importlib.import_module('divmax.{name}')\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
