"""Balanced-bisection scheme: star center, grid search, quality guarantees."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import divmax as dm
from divmax import bisection
from divmax.bisection import BisectionResult, min_bisection, star_center
from divmax.cells import decompose_variable, lift
from divmax.compositions import enumerate_compositions, raise_to_total
from divmax.diversity import balanced_split_masks, cross_values
from divmax.errors import BudgetExceededError

ROOT2 = math.sqrt(2.0)


# -------------------------------------------------------------- star center

def test_star_center_examples(line013, square):
    pair = dm.MetricInstance.from_matrix([[0.0, 3.0], [3.0, 0.0]])
    assert star_center(pair, [0, 1]) == (0, pytest.approx(3.0))
    assert star_center(line013, [0, 1, 2]) == (1, pytest.approx(3.0))
    c, w = star_center(square, [0, 1, 2, 3])
    assert c == 0 and w == pytest.approx(2.0 + ROOT2)


def test_star_center_multiset():
    pair = dm.MetricInstance.from_points([[0.0], [1.0]])
    assert star_center(pair, [0, 0, 1]) == (0, pytest.approx(1.0))
    assert star_center(pair, [0, 1, 1]) == (1, pytest.approx(1.0))


def test_star_center_validation(square):
    with pytest.raises(ValueError, match="at least 2"):
        star_center(square, [0])
    # the instance exponent is used
    assert star_center(square.with_q(2.0), [0, 1])[1] == pytest.approx(1.0)


def test_star_center_agrees_with_star_value():
    inst = dm.gen_uniform(12, 2, seed=3, q=2.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        sub = sorted(int(i) for i in rng.choice(12, size=5, replace=False))
        # the star value of each member is its row sum over the subset
        rows = inst.pow_submatrix(sub).sum(axis=1)
        i = int(rows.argmin())
        assert star_center(inst, sub) == (sub[i], pytest.approx(rows[i]))
        assert star_center(inst, sub)[1] == pytest.approx(
            dm.evaluate(inst, dm.Objective("star", 2.0), sub))


# ------------------------------------------------------------ min_bisection

def test_bisection_pair_is_trivial(line013):
    res = min_bisection(line013, [0, 2], 0.5)
    assert res.left == (0,) and res.value == pytest.approx(3.0)
    assert res.cells_used == 0


def test_bisection_coincident_multiset():
    inst = dm.MetricInstance.from_points([[1.0, 1.0]] * 4)
    res = min_bisection(inst, [0, 1, 2, 3], 0.3)
    assert res.left == (0, 1) and res.value == 0.0
    assert res.provenance["delta_prime"] == 0.0


def test_bisection_square(square):
    res = min_bisection(square, [0, 1, 2, 3], 0.5)
    assert 4.0 * (1 - 1e-9) <= res.value <= 4.0 * 1.5 * (1 + 1e-9)
    assert len(res.left) == 2 and set(res.left) <= {0, 1, 2, 3}


def test_bisection_line(line4):
    res = min_bisection(line4, [0, 1, 2, 3], 0.25)
    assert 6.0 * (1 - 1e-9) <= res.value <= 6.0 * 1.25 * (1 + 1e-9)


def test_bisection_multiset_exact_on_unit_pair():
    inst = dm.MetricInstance.from_points([[0.0], [1.0]])
    res = min_bisection(inst, [0, 0, 1, 1], 0.5)
    assert res.value == pytest.approx(2.0)
    assert sorted(res.left) == [0, 1]


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_bisection_within_eps_of_exact(q, eps):
    rng = np.random.default_rng(int(10 * q + 100 * eps))
    inst = dm.gen_uniform(12, 2, seed=71, q=q)
    for k in (4, 6, 8):
        for _ in range(5):
            T = sorted(int(i) for i in rng.choice(12, size=k, replace=False))
            exact = dm.evaluate(inst, dm.Objective("bipartition", q), T)
            res = min_bisection(inst, T, eps)
            assert exact * (1 - 1e-9) <= res.value, (q, eps, k, T)
            assert res.value <= (1 + eps) * exact * (1 + 1e-9), (q, eps, k, T)
            assert len(res.left) == k // 2
            assert set(res.left) <= set(T)


def test_bisection_large_k_against_local_oracle():
    # k = 18 exceeds the exact split cap; enumerate the 24310 splits here
    inst = dm.gen_uniform(24, 2, seed=13)
    rng = np.random.default_rng(5)
    T = sorted(int(i) for i in rng.choice(24, size=18, replace=False))
    dq = inst.pow_submatrix(T)
    masks = balanced_split_masks(18)
    exact = float(np.einsum("mi,ij,mj->m", masks, dq, 1.0 - masks).min())
    res = min_bisection(inst, T, 0.5)
    assert exact * (1 - 1e-9) <= res.value <= (1 + 0.5) * exact * (1 + 1e-9)
    # every cell is a singleton: the search scores each split once, with
    # coordinate 0 pinned to 0, i.e. C(17, 9) of the C(18, 9) vectors
    assert res.cells_used == 18
    assert res.provenance["candidates"] == math.comb(17, 9) == 24310
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_bisection_singleton_cells_recover_exact():
    # with distinct far-apart points every cell is a singleton and the grid
    # walks all balanced splits, so the result matches the oracle exactly
    inst = dm.gen_uniform(10, 2, seed=29)
    T = list(range(8))
    exact = dm.evaluate(inst, dm.Objective("bipartition"), T)
    res = min_bisection(inst, T, 0.9)
    assert res.value == pytest.approx(exact, rel=1e-12)


def _tie_toward(larger: bool):
    """``cross_values`` that breaks each split's tie with its complement toward
    the lexicographically larger (or smaller) of the two count vectors."""
    def cross(dq, a, b):
        v = cross_values(dq, a, b)
        loses = np.array([(tuple(x) > tuple(y)) != larger for x, y in zip(a, b)])
        return np.where(loses, v * (1.0 + 1e-12), v)
    return cross


def test_bisection_tie_with_complement_is_canonical():
    # a split and its complement have the same value; which one comes back
    # must not depend on how the evaluator rounds them
    inst = dm.gen_uniform(10, 2, seed=29)
    T = list(range(8))
    plain = min_bisection(inst, T, 0.9)
    for larger in (False, True):
        with mock.patch.object(bisection, "cross_values", _tie_toward(larger)):
            res = min_bisection(inst, T, 0.9)
        assert res.left == plain.left and res.value == plain.value


def test_bisection_validation(square):
    with pytest.raises(ValueError, match="eps"):
        min_bisection(square, [0, 1], 0.0)
    with pytest.raises(ValueError, match="even"):
        min_bisection(square, [0, 1, 2], 0.5)
    with pytest.raises(ValueError, match="even"):
        min_bisection(square, [], 0.5)


def test_bisection_rejects_negative_budget(square):
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        min_bisection(square, [0, 1, 2, 3], 0.5, budget=-1)



def test_indices_outside_the_instance_rejected():
    # numpy would wrap -1 to the last point instead of failing
    inst = dm.gen_uniform(10, 2, seed=1)
    with pytest.raises(IndexError, match=r"subset index out of range \[0, 10\)"):
        star_center(inst, [-1, 0, 3])
    with pytest.raises(IndexError, match=r"subset index out of range \[0, 10\)"):
        min_bisection(inst, [-1, -1, -1, -1], 0.5)
    with pytest.raises(IndexError, match="out of range"):
        min_bisection(inst, [0, 1, 2, 10], 0.5)


def test_non_integer_indices_rejected():
    # int() would truncate 0.5 .. 3.5 to the points 0 .. 3
    inst = dm.gen_uniform(10, 2, seed=1)
    msg = "^subset indices must be integers, got float64 values$"
    with pytest.raises(ValueError, match=msg):
        star_center(inst, [0.5, 1.5, 2.5])
    with pytest.raises(ValueError, match=msg):
        min_bisection(inst, [0.5, 1.5, 2.5, 3.5], 0.5)
    assert star_center(inst, np.array([0, 1, 2], dtype=np.int32)) == star_center(inst, [0, 1, 2])


def test_bisection_budget():
    inst = dm.gen_uniform(12, 2, seed=41)
    with pytest.raises(BudgetExceededError, match="budget"):
        min_bisection(inst, list(range(8)), 0.3, budget=1)
    # the grid is counted before it is enumerated; 24 points in singleton
    # cells give one grid vector per 12-subset of them without the first
    inst = dm.gen_uniform(200, 2, seed=24)
    want = math.comb(23, 12)
    with pytest.raises(BudgetExceededError, match=f"^grid budget exceeded: {want} predicted "
                                                  "candidate vectors > budget 100000$"):
        min_bisection(inst, list(range(24)), 0.5, budget=100_000)


def test_bisection_deterministic():
    inst = dm.gen_uniform(14, 3, seed=53, q=2.0)
    T = [1, 2, 5, 7, 8, 11]
    a = min_bisection(inst, T, 0.4)
    b = min_bisection(inst, T, 0.4)
    assert a.left == b.left and a.value == b.value
    assert a.provenance == b.provenance


def test_bisection_value_is_symmetric_cross_weight():
    inst = dm.gen_uniform(10, 2, seed=61, q=1.5)
    T = [0, 2, 3, 5, 7, 9]
    res = min_bisection(inst, T, 0.5)
    right = sorted(set(T) - set(res.left))
    want = sum(inst.dist_pow(a, b) for a in res.left for b in right)
    assert res.value == pytest.approx(want, rel=1e-12)


# -------------------------------------------- provenance-backed structure

@pytest.mark.parametrize("q", [1.0, 2.0])
def test_bisection_scale_sandwich(q):
    # the search scale D' = (4 cl / k^2) / (2^q + 1) sits within a constant
    # factor of the true average D = 4 bp / k^2
    rng = np.random.default_rng(int(q))
    inst = dm.gen_uniform(12, 2, seed=83, q=q)
    for k in (4, 6, 8):
        T = sorted(int(i) for i in rng.choice(12, size=k, replace=False))
        res = min_bisection(inst, T, 0.5)
        dp = res.provenance["delta_prime"]
        bp = dm.evaluate(inst, dm.Objective("bipartition", q), T)
        avg = 4.0 * bp / (k * k)
        assert dp <= avg * (1 + 1e-9)
        assert avg <= dp * (2.0 ** q + 1.0) * k / (2.0 * (k - 1)) * (1 + 1e-9)


def _rebuilt_grid(inst, T, prov):
    """The decomposition, the cell of each element of the sorted T, the cell
    sizes and the grid steps of a ``min_bisection`` run, from its provenance."""
    base = prov["delta_prime"] ** (1.0 / inst.q)
    decomp = decompose_variable(inst, sorted(set(T)), prov["z"], base, prov["delta"])
    label = decomp.label[np.searchsorted(decomp.points, T)]
    caps = np.bincount(label, minlength=len(decomp.centers))
    steps = np.maximum(np.floor(prov["grid_frac"] * caps).astype(np.int64), 1)
    return decomp, label, caps, steps


@pytest.mark.parametrize("seed,k,q,eps", [
    (1, 6, 1.0, 0.25), (2, 8, 1.0, 0.5), (3, 6, 2.0, 0.25),
    (4, 10, 1.0, 0.5), (5, 8, 2.0, 0.5),
])
def test_bisection_grid_covers_exact_optimum(seed, k, q, eps):
    # rebuild the decomposition from provenance and verify the exact optimal
    # left half has a grid point just below it that the raises can complete
    inst = dm.gen_uniform(14, 2, seed=300 + seed, q=q)
    rng = np.random.default_rng(seed)
    T = sorted(int(i) for i in rng.choice(14, size=k, replace=False))
    res = min_bisection(inst, T, eps)
    decomp, _, caps, steps = _rebuilt_grid(inst, T, res.provenance)
    cells = len(decomp.centers)

    # the lexicographically smallest optimal left half
    masks = balanced_split_masks(k)
    dq = inst.pow_submatrix(T)
    best = int(np.einsum("mi,ij,mj->m", masks, dq, 1.0 - masks).argmin())
    exact_left = np.asarray(T)[masks[best] > 0.5]
    mstar = np.bincount(decomp.label[np.searchsorted(decomp.points, exact_left)],
                        minlength=cells)
    g = (mstar // steps) * steps
    assert ((mstar - steps < g) & (g <= mstar)).all()
    deficit = k // 2 - int(g.sum())
    assert int(np.minimum(steps, caps - g).sum()) >= deficit >= 0


# ------------------------------------------- the grid each search scores

def _at_most_search(inst, T, prov):
    """Reference search over the whole at-most grid, every row completed by
    raises and scored, split and complement alike: (left, value, rows, steps)."""
    elems = sorted(T)
    half = len(elems) // 2
    decomp, label, caps, steps = _rebuilt_grid(inst, elems, prov)
    grid = [range(0, c + 1, s) for c, s in zip(caps.tolist(), steps.tolist())]
    dq = inst.pow_submatrix(decomp.centers)
    best, rows = None, 0
    for block in enumerate_compositions(grid, half, at_most=True):
        rows += block.shape[0]
        arr = raise_to_total(block, caps, steps, half).astype(np.float64)
        for v, row in zip(cross_values(dq, arr, caps - arr).tolist(), arr.tolist()):
            cand = (v, tuple(int(x) for x in row))  # value, then lexicographic order
            best = cand if best is None else min(best, cand)
    pick = min(best[1], tuple(int(c - x) for c, x in zip(caps, best[1])))
    in_left = np.zeros(len(elems), dtype=bool)
    in_left[lift(np.arange(len(elems)), label, pick)] = True
    left, right = np.asarray(elems)[in_left], np.asarray(elems)[~in_left]
    return tuple(left.tolist()), float(inst.pow_submatrix(left, right).sum()), rows, steps


@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 4), min_size=2, max_size=8),
       st.sampled_from([1.0, 2.0]), st.sampled_from([0.25, 0.5]))
def test_exact_sum_grid_matches_at_most_search(seed, mult, q, eps):
    # unit steps: scoring one of each split pair on the exact-sum grid picks
    # the same split as raising and scoring the whole at-most grid.  Random
    # points are in general position, so only a split and its complement tie;
    # between two different splits that tie to the last bit, either may win.
    k = sum(mult)
    assume(4 <= k <= 12 and k % 2 == 0 and sum(m > 0 for m in mult) >= 2)
    inst = dm.gen_uniform(len(mult), 2, seed=seed, q=q)
    T = [i for i, m in enumerate(mult) for _ in range(m)]
    res = min_bisection(inst, T, eps)
    left, value, rows, steps = _at_most_search(inst, T, res.provenance)
    assert (steps == 1).all()
    assert res.left == left and res.value == value
    assert res.provenance["candidates"] <= rows


def test_heavy_cell_keeps_the_at_most_grid():
    # at q = 1 and eps = 0.5 a cell of 96 copies gets step floor(96 / 48) = 2;
    # the search then counts and scores the raised at-most grid as before
    inst = dm.gen_uniform(6, 2, seed=7)
    T = [0] * 96 + [1, 2, 3, 4, 5, 5]
    res = min_bisection(inst, T, 0.5)
    left, value, rows, steps = _at_most_search(inst, T, res.provenance)
    assert steps.max() == 2
    assert res.provenance["candidates"] == rows
    assert res.left == left and res.value == value
