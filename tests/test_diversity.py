"""Objective evaluation on subsets and multisets, plus the centroid identity."""
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import divmax as dm
from divmax.diversity import _expand_rows, balanced_split_masks, batch_evaluate, values
from divmax.errors import EnumerationCapError
from divmax.metric import tol_leq

from conftest import random_subsets

ROOT2 = math.sqrt(2.0)
SQUARE_CLIQUE = 4.0 + 2.0 * ROOT2        # six pairs: four sides + two diagonals
SQUARE_STAR = 2.0 + ROOT2                # any corner: two sides + one diagonal
SQUARE_BP = 4.0                          # diagonal pairs kept on the same side


# ------------------------------------------------------------- subset values

def test_clique_examples(square):
    pair = dm.MetricInstance.from_matrix([[0.0, 3.0], [3.0, 0.0]])
    assert dm.clique_value(pair, [0, 1]) == pytest.approx(3.0)
    assert dm.clique_value(square, range(4)) == pytest.approx(SQUARE_CLIQUE)
    sphere = dm.MetricInstance.from_points([[1.0, 0.0], [-1.0, 0.0]], q=2.0)
    assert dm.clique_value(sphere, [0, 1]) == pytest.approx(4.0)


def test_star_examples(square, line013):
    pair = dm.MetricInstance.from_matrix([[0.0, 3.0], [3.0, 0.0]])
    assert dm.star_value(pair, [0, 1]) == (pytest.approx(3.0), 0)
    value, center = dm.star_value(line013, [0, 1, 2])
    assert value == pytest.approx(3.0) and center == 1
    value, center = dm.star_value(square, range(4))
    assert value == pytest.approx(SQUARE_STAR)
    assert center == 0  # four-way tie resolved to the lowest index


def test_bipartition_examples(square, line4):
    pair = dm.MetricInstance.from_matrix([[0.0, 3.0], [3.0, 0.0]])
    assert dm.bipartition_value_exact(pair, [0, 1]) == (pytest.approx(3.0), (0,))
    value, left = dm.bipartition_value_exact(square, range(4))
    assert value == pytest.approx(SQUARE_BP) and left == (0, 3)
    value, left = dm.bipartition_value_exact(line4, range(4))
    assert value == pytest.approx(6.0) and left == (0, 2)


def test_bipartition_allows_repetition(line4):
    # two coincident copies at 0 and two at 1: best split pairs the copies
    value, left = dm.bipartition_value_exact(line4, [0, 0, 1, 1])
    assert value == pytest.approx(2.0) and left == (0, 1)


def test_bipartition_rejects_odd_and_oversize(square):
    with pytest.raises(ValueError, match="even"):
        dm.bipartition_value_exact(square, [0, 1, 2])
    big = dm.gen_uniform(18, 2, seed=0)
    with pytest.raises(EnumerationCapError, match="up to 16"):
        dm.bipartition_value_exact(big, range(18))


def test_bipartition_minimum_over_reenumerated_splits(square):
    rng = np.random.default_rng(2)
    inst = dm.gen_uniform(10, 2, seed=9, q=1.5)
    for k in (4, 6):
        sub = sorted(rng.choice(10, size=k, replace=False))
        best, left = dm.bipartition_value_exact(inst, sub)
        for rest in combinations(sub[1:], k // 2 - 1):
            L = [sub[0], *rest]
            R = [u for u in sub if u not in L]
            cross = sum(inst.dist_pow(a, b) for a in L for b in R)
            assert best <= cross * (1 + 1e-12)
        assert set(left) <= set(sub) and len(left) == k // 2


def test_subset_too_small(square):
    with pytest.raises(ValueError, match="too small"):
        dm.clique_value(square, [0])
    with pytest.raises(IndexError):
        dm.star_value(square, [0, 9])


def test_bipartition_and_multiset_reject_out_of_range_indices():
    # numpy would wrap -1 to the last point; clique and star already raise
    inst = dm.gen_uniform(10, 2, seed=1)
    msg = r"subset index out of range \[0, 10\)"
    with pytest.raises(IndexError, match=msg):
        dm.evaluate(inst, dm.Objective("bipartition"), [-1, 0, 3, 4])
    with pytest.raises(IndexError, match=msg):
        dm.bipartition_value_exact(inst, [0, 3, 4, 10])
    for kind in ("clique", "star", "bipartition"):
        for centers in ((-1, 0), (0, 10)):
            with pytest.raises(IndexError, match=msg):
                dm.value_on_multiset(inst, dm.Objective(kind),
                                     dm.MultiplicityVector(centers, (2, 2)))


def test_balanced_split_masks():
    masks = balanced_split_masks(4)
    np.testing.assert_array_equal(
        masks, [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
    assert balanced_split_masks(8).shape == (math.comb(7, 3), 8)
    with pytest.raises(ValueError):
        balanced_split_masks(5)


def test_objective_and_term_count():
    with pytest.raises(ValueError, match="unknown objective"):
        dm.Objective("tree")
    with pytest.raises(ValueError, match="q must be >= 1"):
        dm.Objective("clique", 0.9)
    assert dm.term_count("clique", 6) == 15
    assert dm.term_count("star", 6) == 5
    assert dm.term_count("bipartition", 6) == 9
    with pytest.raises(ValueError):
        dm.term_count("edge", 4)


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

def test_multiplicity_vector_validation():
    mv = dm.MultiplicityVector((3, 5), (2, 1))
    assert mv.size == 3 and mv.expand() == [3, 3, 5]
    with pytest.raises(ValueError, match="equal length"):
        dm.MultiplicityVector((1,), (1, 2))
    with pytest.raises(ValueError, match="distinct"):
        dm.MultiplicityVector((1, 1), (1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        dm.MultiplicityVector((1, 2), (1, -2))


def test_multiset_single_center_is_zero(square):
    for mv in (dm.MultiplicityVector((2,), (4,)), dm.MultiplicityVector((2,), (2,))):
        for kind in ("clique", "star", "bipartition"):
            assert dm.value_on_multiset(square, dm.Objective(kind), mv) == 0.0


def test_multiset_two_center_examples():
    pair = dm.MetricInstance.from_matrix([[0.0, 1.0], [1.0, 0.0]])
    mv = dm.MultiplicityVector((0, 1), (2, 2))
    assert dm.value_on_multiset(pair, dm.Objective("clique"), mv) == pytest.approx(4.0)
    assert dm.value_on_multiset(pair, dm.Objective("star"), mv) == pytest.approx(2.0)
    assert dm.value_on_multiset(pair, dm.Objective("bipartition"), mv) == pytest.approx(2.0)
    mv = dm.MultiplicityVector((0, 1), (2, 3))
    assert dm.value_on_multiset(pair, dm.Objective("clique"), mv) == pytest.approx(6.0)
    mv = dm.MultiplicityVector((0, 1), (1, 1))
    assert dm.value_on_multiset(pair, dm.Objective("clique"), mv) == pytest.approx(1.0)
    # a doubled cell center plus a forced outlier at distance 1
    cell = dm.MetricInstance.from_points([[0.0], [0.0], [1.0]])
    mv = dm.MultiplicityVector((0, 2), (2, 1))
    assert dm.value_on_multiset(cell, dm.Objective("clique"), mv) == pytest.approx(2.0)
    assert dm.value_on_multiset(cell, dm.Objective("star"), mv) == pytest.approx(1.0)


def test_multiset_validation(square):
    obj = dm.Objective("clique")
    with pytest.raises(ValueError, match="too small"):
        dm.value_on_multiset(square, obj, dm.MultiplicityVector((0,), (1,)))
    odd = dm.MultiplicityVector((0, 1), (2, 1))
    with pytest.raises(ValueError, match="even"):
        dm.value_on_multiset(square, dm.Objective("bipartition"), odd)
    with pytest.raises(ValueError, match="exponent"):
        dm.value_on_multiset(square, dm.Objective("clique", 3.0), odd)


@pytest.mark.parametrize("kind", ("clique", "star", "bipartition"))
@pytest.mark.parametrize("seed", range(4))
def test_all_ones_multiset_equals_subset(kind, seed):
    rng = np.random.default_rng(seed)
    inst = dm.gen_uniform(12, 2, seed=seed + 20, q=1.0 + seed)
    k = 4 if kind == "bipartition" else 5
    sub = sorted(int(i) for i in rng.choice(12, size=k, replace=False))
    obj = dm.Objective(kind, inst.q)
    mv = dm.MultiplicityVector(tuple(sub), (1,) * k)
    assert dm.value_on_multiset(inst, obj, mv) == dm.evaluate(inst, obj, sub)


@given(st.integers(0, 2 ** 32 - 1))
def test_multiset_matches_expansion(seed):
    # multiset value == subset-style value of the expanded list (clique/star,
    # where expansion is directly expressible through batch evaluation)
    rng = np.random.default_rng(seed)
    inst = dm.gen_uniform(8, 2, seed=int(rng.integers(1 << 30)), q=float(rng.choice([1.0, 2.0])))
    ncent = int(rng.integers(2, 5))
    centers = tuple(int(i) for i in rng.choice(8, size=ncent, replace=False))
    mult = tuple(int(m) for m in rng.integers(1, 4, size=ncent))
    mv = dm.MultiplicityVector(centers, mult)
    rows = np.array([mv.expand()], dtype=np.int64)
    dq = inst.pow_matrix()
    for kind in ("clique", "star"):
        got = dm.value_on_multiset(inst, dm.Objective(kind, inst.q), mv)
        want = float(batch_evaluate(kind, dq, rows)[0])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    if mv.size % 2 == 0:
        got = dm.value_on_multiset(inst, dm.Objective("bipartition", inst.q), mv)
        want = dm.bipartition_value_exact(inst, mv.expand())[0]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_multiset_split_delegation_beyond_cap():
    inst = dm.gen_uniform(14, 2, seed=31)
    obj = dm.Objective("bipartition")
    mv = dm.MultiplicityVector(tuple(range(11)), (2,) + (1,) * 10)  # 11 > split cap
    with pytest.raises(EnumerationCapError, match="pass eps"):
        dm.value_on_multiset(inst, obj, mv)
    approx = dm.value_on_multiset(inst, obj, mv, eps=0.25)
    exact = dm.bipartition_value_exact(inst, mv.expand())[0]
    assert exact * (1 - 1e-9) <= approx <= exact * 1.25 * (1 + 1e-9)


def test_multiset_all_ones_beyond_split_cap_stays_exact():
    # twelve occupied centers exceed the split cap, but an all-ones vector is
    # just a subset and keeps the exact small-k oracle
    inst = dm.gen_uniform(14, 2, seed=31)
    obj = dm.Objective("bipartition")
    mv = dm.MultiplicityVector(tuple(range(12)), (1,) * 12)
    got = dm.value_on_multiset(inst, obj, mv)
    assert got == dm.bipartition_value_exact(inst, range(12))[0]


# ------------------------------------------------------ objective relations

@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [4, 6, 8])
def test_star_and_bipartition_sandwich_clique(q, k):
    # (k/2) st <= cl <= 2^(q-1) k st   and   (2(k-1)/k) bp <= cl <= (2^q+1) bp
    rng = np.random.default_rng(100 * k + int(q * 10))
    inst = dm.gen_uniform(16, 3, seed=k, q=q)
    for _ in range(25):
        sub = sorted(int(i) for i in rng.choice(16, size=k, replace=False))
        cl = dm.clique_value(inst, sub)
        st_ = dm.star_value(inst, sub)[0]
        bp = dm.bipartition_value_exact(inst, sub)[0]
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
