"""Near-linear remote-clique scheme: ladders, center finding, end-to-end search."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divmax as dm
from divmax import cli, fast_clique
from divmax.cells import decompose_fixed
from divmax.diversity import Objective, values
from divmax.fast_clique import _find_center_row, multiplicity_ladder, solve_fast
from divmax.metric import REL_TOL, tol_leq

CLIQUE = Objective("clique")


# ---------------------------------------------------------------- ladders

def test_ladder_frozen_example():
    assert multiplicity_ladder(4, 0.5) == [4, 3, 2, 1, 0]
    assert multiplicity_ladder(0, 0.5) == [0]
    assert multiplicity_ladder(1, 0.9) == [1, 0]


def test_ladder_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        multiplicity_ladder(-1, 0.5)
    with pytest.raises(ValueError, match="eps"):
        multiplicity_ladder(3, 0.0)
    with pytest.raises(ValueError, match="eps"):
        multiplicity_ladder(3, 1.0)


@settings(max_examples=100)
@given(st.integers(0, 2000), st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9]))
def test_ladder_covers_every_target(cap, eps):
    # strictly decreasing; endpoints present; every t in [0, cap] has a ladder
    # value inside [(1 - eps/2) t, t]
    vals = multiplicity_ladder(cap, eps)
    assert vals[0] == cap and vals[-1] == 0
    assert all(a > b for a, b in zip(vals, vals[1:]))
    arr = np.array(sorted(vals))
    targets = np.arange(cap + 1)
    # the largest ladder value <= t
    pick = arr[np.searchsorted(arr, targets, side="right") - 1]
    assert (pick <= targets).all()
    assert (pick >= np.ceil((1.0 - eps / 2.0) * targets) - 1e-9).all()


def test_ladder_length_logarithmic():
    vals = multiplicity_ladder(10 ** 4, 0.1)
    # thinning by 1 - eps/2 keeps the ladder around log(cap) / eps long
    assert len(vals) <= int(math.log(10 ** 4) / 0.05) + 3


# ------------------------------------------------------ multiplicity clique

def test_cl_of_multiplicities_examples():
    # cl(m), the clique value of multiplicities m over a center table, as
    # solve_fast scores its forced-in cells
    table = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = values("clique", table, np.array([[2, 3], [5, 0]]))
    assert got[0] == pytest.approx(6.0)
    assert got[1] == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_cl_of_multiplicities_matches_multiset_value(seed):
    rng = np.random.default_rng(seed)
    inst = dm.gen_uniform(9, 2, seed=seed + 60)
    centers = sorted(int(i) for i in rng.choice(9, size=4, replace=False))
    mult = [int(m) for m in rng.integers(0, 4, size=4)]
    if sum(mult) < 2:
        mult[0] += 2
    table = np.array([[inst.dist(a, b) for b in centers] for a in centers])
    got = values("clique", table, np.array([mult]))[0]
    want = dm.evaluate(inst, CLIQUE, np.repeat(centers, mult))
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------- center finding

def test_find_center_prefers_populous_side():
    # 3 points near x=0, 10 points near x=10; k=8 means the small side's
    # centers exclude 10 > k/2 points, so the first valid center is on the
    # big side
    pts = [[0.0 + 0.01 * i] for i in range(3)] + [[10.0 + 0.01 * i] for i in range(10)]
    inst = dm.MetricInstance.from_points(pts)
    decomp = decompose_fixed(inst, None, 0.05)
    c, row = _find_center_row(inst, decomp, 1.0, 8)
    assert c >= 3  # a center in the large cluster
    # solve_fast reuses the distance row computed for the center it finds
    assert row.tolist() == inst.dists_from(c).tolist()


def test_find_center_balanced_clusters_fail():
    pts = [[0.0 + 0.001 * i] for i in range(5)] + [[10.0 + 0.001 * i] for i in range(5)]
    inst = dm.MetricInstance.from_points(pts)
    decomp = decompose_fixed(inst, None, 0.05)
    with pytest.raises(RuntimeError, match="k/2"):
        _find_center_row(inst, decomp, 1.0, 8)


# -------------------------------------------------------------- solve_fast

def test_solve_fast_searches_cells_with_any_member_in_the_keep_ball(monkeypatch):
    # a keep ball of 1.2 delta' cuts one cell of this instance: its center lies
    # outside and another member inside, and the cell must still be searched
    monkeypatch.setattr(fast_clique, "KEEP_BALL_COEFF", 1.2)
    inst, k, eps = dm.gen_uniform(40, 2, 9), 8, 0.9
    sol = solve_fast(inst, k, eps)
    z, delta_prime = sol.guess
    decomp = decompose_fixed(inst, None, eps / 8 * delta_prime)
    near = tol_leq(inst.dists_from(z), 1.2 * delta_prime)
    by_member = len(set(decomp.label[near].tolist()))
    by_center = sum(bool(near[c]) for c in decomp.centers)
    assert by_member == by_center + 1
    assert sol.meta["cells_searched"] == by_member


def test_solve_fast_matches_oracle_on_clusters():
    inst = dm.gen_clustered(9, 0.02, [[5.0, 0.0], [0.0, 5.0], [-5.0, -1.0]], seed=3)
    opt = dm.brute_force_opt(inst, dm.Objective("clique"), 5)
    sol = solve_fast(inst, 5, 0.1)
    assert sol.algo == "fast-clique"
    assert sol.meta["search_complete"]
    assert tol_leq(sol.value, opt.value)
    assert sol.value >= (1 - 8 * 0.1) * opt.value * (1 - 1e-9)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_solve_fast_ratio_uniform(seed, eps):
    inst = dm.gen_uniform(12, 2, seed=200 + seed)
    k = 4 + 2 * (seed % 2)
    opt = dm.brute_force_opt(inst, dm.Objective("clique"), k)
    sol = solve_fast(inst, k, eps)
    assert sol.value >= (1 - 8 * eps) * opt.value * (1 - 1e-9)
    assert tol_leq(sol.value, opt.value)


def test_solve_fast_never_below_greedy():
    inst = dm.gen_uniform(30, 3, seed=9)
    g = dm.greedy_clique(inst, 6)
    sol = solve_fast(inst, 6, 0.4)
    assert sol.value >= g.value * (1 - 1e-12)


def test_solve_fast_budget_truncation():
    inst = dm.gen_uniform(40, 2, seed=17)
    g = dm.greedy_clique(inst, 8)
    sol = solve_fast(inst, 8, 0.3, budget=1)
    assert sol.meta["search_complete"] is False
    assert sol.value >= g.value * (1 - 1e-12)


def test_solve_fast_deep_ladder_search():
    # more searched cells than Python's recursion limit allows levels; the
    # grid is counted first and, being far over budget, not searched at all
    inst = dm.gen_uniform(2000, 2, seed=1)
    g = dm.greedy_clique(inst, 8)
    sol = solve_fast(inst, 8, 0.1, budget=200)
    assert sol.meta["cells_searched"] > 1000
    assert sol.meta["predicted_candidates"] > 200
    assert sol.meta["candidates"] == 0 and sol.meta["search_complete"] is False
    assert sol.value >= g.value * (1 - 1e-12)


def test_solve_fast_budget_is_the_largest_grid_searched():
    inst = dm.gen_uniform(12, 2, seed=1002)
    whole = solve_fast(inst, 4, 0.2)
    grid = whole.meta["predicted_candidates"]
    assert whole.meta["candidates"] == grid == 794 and whole.meta["search_complete"]
    exact = solve_fast(inst, 4, 0.2, budget=grid)
    assert exact.meta["search_complete"] and exact.meta["candidates"] == grid
    assert (exact.subset, exact.value) == (whole.subset, whole.value)
    over = solve_fast(inst, 4, 0.2, budget=grid - 1)
    assert not over.meta["search_complete"]
    assert over.meta["candidates"] == 0 and over.meta["predicted_candidates"] == grid


def _far_outlier():
    # the outlier's cell lies outside the keep ball and is forced in whole
    return dm.gen_clustered(60, 0.1, [[1000.0, 0.0]], seed=4)


# instance, k, eps -> subset, value and leaf count, recorded from the ladder
# walk that preceded the composition engine; every search is complete
FROZEN = [
    (lambda: dm.gen_uniform(15, 2, seed=1001), 5, 0.3, (0, 2, 5, 12, 14),
     7.545212906592142, 3851),
    (lambda: dm.gen_uniform(12, 2, seed=1002), 4, 0.2, (5, 6, 7, 8), 4.807591941412982, 794),
    (lambda: dm.gen_uniform(18, 2, seed=1007), 4, 0.25, (0, 4, 13, 17),
     4.819437057936174, 4048),
    (lambda: dm.gen_uniform(25, 2, seed=5), 5, 0.25, (3, 4, 7, 14, 24),
     8.577598725598161, 68406),
    (lambda: dm.gen_uniform(60, 2, seed=4), 3, 0.2, (1, 8, 58), 2.993763107993291, 31085),
    (lambda: dm.gen_uniform(16, 3, seed=77), 6, 0.3, (4, 5, 8, 10, 13, 14),
     12.901101943107307, 14893),
    (_far_outlier, 30, 0.5, (5, 6, 7, 9, 10, 12, 14, 16, 18, 19, 20, 21, 22, 24, 26, 27, 29,
                             31, 35, 37, 43, 44, 46, 47, 52, 53, 55, 57, 59, 60),
     29048.745688189672, 13),
]


@pytest.mark.parametrize("make,k,eps,subset,value,leaves", FROZEN)
def test_solve_fast_frozen_complete_searches(make, k, eps, subset, value, leaves):
    sol = solve_fast(make(), k, eps)
    assert sol.subset == subset and sol.value == value
    assert sol.meta["candidates"] == leaves and sol.meta["search_complete"] is True


def _best_swap_gain(inst, subset):
    base = dm.evaluate(inst, CLIQUE, subset)
    rest = [v for v in range(inst.n) if v not in subset]
    best = max(dm.evaluate(inst, CLIQUE, [w for w in subset if w != u] + [v])
               for u in subset for v in rest)
    return best - base, base


@pytest.mark.parametrize("seed", range(6))
def test_solve_fast_over_budget_is_swap_optimal(seed):
    inst = dm.gen_uniform(14 + seed, 2, seed=300 + seed)
    k = 3 + seed % 3
    g = dm.greedy_clique(inst, k)
    sol = solve_fast(inst, k, 0.3, budget=1)
    assert not sol.meta["search_complete"] and sol.meta["candidates"] == 0
    assert sol.value >= g.value
    assert sol.value == dm.evaluate(inst, CLIQUE, sol.subset)
    gain, base = _best_swap_gain(inst, sol.subset)
    assert gain <= REL_TOL * base
    assert sol.meta["greedy_floor_used"] == (sol.meta["swaps"] == 0)
    if sol.meta["swaps"] == 0:
        assert sol.subset == g.subset


def test_solve_fast_local_search_improves_greedy():
    inst = dm.gen_uniform(40, 2, seed=17)
    g = dm.greedy_clique(inst, 8)
    sol = solve_fast(inst, 8, 0.3)
    assert sol.meta["predicted_candidates"] > sol.meta["budget"] == 100_000
    assert sol.meta["swaps"] >= 1 and not sol.meta["greedy_floor_used"]
    assert sol.value > g.value


def test_solve_fast_all_coincident():
    inst = dm.MetricInstance.from_points([[2.0, 2.0]] * 5)
    sol = solve_fast(inst, 3, 0.2)
    assert sol.value == 0.0 and sol.meta["greedy_floor_used"]
    assert sol.meta["search_complete"] and sol.meta["candidates"] == 0


def test_solve_fast_validation(square):
    with pytest.raises(ValueError, match="q = 1"):
        solve_fast(square.with_q(2.0), 2, 0.2)
    with pytest.raises(ValueError, match="2 <= k <= n"):
        solve_fast(square, 1, 0.2)
    with pytest.raises(ValueError, match="eps"):
        solve_fast(square, 2, 0.0)


def test_solve_fast_rejects_negative_budget(square):
    # a negative budget would skip the search as if the grid were too large
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        solve_fast(square, 2, 0.2, budget=-1)
    assert solve_fast(square, 2, 0.2, budget=0).meta["search_complete"] is False


def test_solve_fast_deterministic():
    inst = dm.gen_uniform(50, 2, seed=23)
    a = solve_fast(inst, 6, 0.2)
    b = solve_fast(inst, 6, 0.2)
    assert a.subset == b.subset and a.value == b.value and a.meta == b.meta


def test_solve_fast_guess_is_center_and_scale():
    inst = dm.gen_uniform(20, 2, seed=31)
    sol = solve_fast(inst, 5, 0.2)
    z0p, delta_prime = sol.guess
    assert 0 <= z0p < inst.n
    assert delta_prime == pytest.approx(dm.greedy_clique(inst, 5).value / math.comb(5, 2))


def test_solve_fast_meta_counters():
    inst = dm.gen_uniform(25, 2, seed=5)
    sol = solve_fast(inst, 5, 0.25)
    m = sol.meta
    assert m["cells"] >= m["cells_searched"] >= 1
    assert m["candidates"] >= 1
    assert m["fixed_points"] >= 0
    assert len(sol.subset) == 5


def test_solve_fast_peak_memory_is_a_few_rows():
    # every linear pass works in fixed blocks beside the arrays it must hold
    # (a decomposition's points and labels, its sweep order and keys, the
    # greedy score and one distance row): the traced peak stays within 7
    # arrays of n floats, where whole-array temporaries took 10.8
    inst = cli._scaling_instance(200_000, 1234)
    solve_fast(inst, 8, 0.5)  # first-call allocations are not the solve's
    tracemalloc.start()
    try:
        sol = solve_fast(inst, 8, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.meta["search_complete"] and peak <= 7 * 8 * inst.n
