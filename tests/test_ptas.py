"""Guess-and-round approximation scheme: guess grid, compositions, solve."""
import math
import pathlib
import runpy
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import divmax as dm
from divmax import baselines, compositions, diversity, ptas
from divmax.compositions import count_compositions, first_best, raise_to_total
from divmax.errors import BudgetExceededError
from divmax.metric import diameter_estimate, tol_leq
from divmax.diversity import _expand_rows, batch_evaluate, values
from divmax.ptas import (GUESS_SLACK, OUTLIER_RADIUS_COEFF, build_guess_grid,
                         enumerate_compositions, solve)


# --------------------------------------------------------------- guess grid

def test_guess_grid_geometry():
    inst = dm.gen_uniform(10, 2, seed=1)
    k = 4
    cands = build_guess_grid(inst, k)
    rhat = diameter_estimate(inst)
    assert cands[0] == pytest.approx(4.0 * rhat)   # one spare above 2 * rhat
    assert cands[1] == pytest.approx(2.0 * rhat)
    for a, b in zip(cands, cands[1:]):
        assert a / b == pytest.approx(2.0)
    # the in-range part must reach down to rhat / k^2, plus one spare below
    assert cands[-2] >= rhat / k ** 2 * (1 - 1e-9)
    assert cands[-1] < rhat / k ** 2


def test_guess_grid_degenerate_instance():
    inst = dm.MetricInstance.from_points([[2.0, 2.0]] * 5)
    assert build_guess_grid(inst, 3) == []


# ------------------------------------------------------------- compositions

def _rows(values, total, **kw):
    """Every row the engine yields, its blocks concatenated."""
    return [tuple(int(x) for x in row)
            for block in enumerate_compositions(values, total, **kw) for row in block]


def _down(caps):
    return [range(c, -1, -1) for c in caps]


def test_compositions_frozen_examples():
    assert _rows(_down((1, 1, 1)), 2) == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert _rows(_down((2, 2)), 3) == [(2, 1), (1, 2)]
    assert _rows([], 0) == [()]
    assert _rows([], 1) == []
    assert _rows(_down((3, 3)), 0) == [(0, 0)]
    assert _rows(_down((1, 2)), 5) == []
    assert _rows([range(0, 5, 2), range(3)], 2, at_most=True) == [
        (0, 0), (0, 1), (0, 2), (2, 0)]


def test_compositions_negative_cap():
    with pytest.raises(ValueError, match="nonnegative values"):
        list(enumerate_compositions([[2, 1, 0], [0, -1]], 1))
    with pytest.raises(ValueError, match="one-dimensional"):
        list(enumerate_compositions((1, 1, 1), 2))  # caps, not value lists
    with pytest.raises(ValueError, match="nonnegative total"):
        count_compositions(_down((1, 1)), -1)


_value_list = st.one_of(
    st.integers(0, 4).map(lambda c: list(range(c, -1, -1))),          # descending range
    st.tuples(st.integers(0, 6), st.integers(1, 3)).map(
        lambda cs: list(range(0, cs[0] + 1, cs[1]))),                # ascending step grid
    st.lists(st.integers(0, 5), max_size=3))                          # any list


@settings(max_examples=200)
@given(st.lists(_value_list, max_size=5), st.integers(0, 12), st.booleans())
def test_compositions_against_product_filter(values, total, at_most):
    want = [v for v in product(*values)
            if (sum(v) <= total if at_most else sum(v) == total)]
    with mock.patch.object(compositions, "BLOCK_ROWS", 3), \
            mock.patch.object(compositions, "BLOCK_ENTRIES", 7):
        blocks = list(enumerate_compositions(values, total, at_most=at_most))
    most = max(1, min(3, 7 // max(1, len(values))))
    assert all(b.dtype == np.int64 and b.shape == (b.shape[0], len(values))
               and 1 <= b.shape[0] <= most for b in blocks)
    # product() runs in the same first-coordinate-major order
    assert [tuple(int(x) for x in r) for b in blocks for r in b] == want
    assert count_compositions(values, total, at_most=at_most) == len(want)


@settings(max_examples=200)
@given(st.data())
def test_raise_to_total_matches_row_loop(data):
    ncol = data.draw(st.integers(0, 5))
    caps = data.draw(st.lists(st.integers(0, 6), min_size=ncol, max_size=ncol))
    raises = data.draw(st.lists(st.integers(0, 6), min_size=ncol, max_size=ncol))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, c) for c in caps]), max_size=8))
    total = data.draw(st.integers(0, 20))
    rows = [r for r in rows if sum(r) <= total]
    want = []
    for row in rows:
        out = list(row)
        deficit = total - sum(out)
        for i in range(ncol):
            add = min(raises[i], caps[i] - out[i], deficit)
            out[i] += add
            deficit -= add
        if deficit == 0:
            want.append(tuple(out))
    block = np.array(rows, dtype=np.int64).reshape(len(rows), ncol)
    got = raise_to_total(block, np.array(caps, dtype=np.int64),
                         np.array(raises, dtype=np.int64), total)
    assert got.dtype == np.int64 and got.shape == (len(want), ncol)
    assert [tuple(int(x) for x in r) for r in got] == want


@settings(max_examples=200)
@given(st.lists(st.tuples(_value_list, st.integers(1, 4)), max_size=3),
       st.integers(0, 8), st.booleans(), st.randoms(use_true_random=False))
def test_count_equals_rows_enumerated_with_repeated_lists(lists, total, at_most, rnd):
    # the count raises each distinct value list to its multiplicity, so draw
    # lists that repeat, in shuffled coordinate order
    values = [v for v, times in lists for _ in range(times)]
    rnd.shuffle(values)
    rows = sum(b.shape[0] for b in enumerate_compositions(values, total, at_most=at_most))
    assert count_compositions(values, total, at_most=at_most) == rows


def test_count_compositions_is_exact_past_int64():
    # 100 split over 60 parts, each part up to 100: stars and bars
    assert count_compositions([range(101)] * 60, 100) == math.comb(159, 59) > 2 ** 63
    rows = sum(b.shape[0] for b in enumerate_compositions(_down((1,) * 20), 10))
    assert rows == math.comb(20, 10) > compositions.BLOCK_ROWS


@settings(max_examples=300)
@given(st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=8))
def test_first_best_is_the_first_argmax_of_the_concatenation(scores):
    # row r of the concatenation is (r, its score): few distinct scores tie
    # within and across blocks, and empty blocks come in runs
    flat = [x for block in scores for x in block]
    bounds = np.cumsum([0] + [len(block) for block in scores])
    blocks = [np.array([[r, flat[r]] for r in range(a, b)], dtype=np.int64).reshape(-1, 2)
              for a, b in zip(bounds[:-1], bounds[1:])]

    def score(block):
        assert len(block)
        return block[:, 1]

    row, best = first_best(iter(blocks), score)
    if not flat:
        assert row is None and best == -np.inf
    else:
        r = flat.index(max(flat))
        assert row.tolist() == [r, flat[r]] and best == flat[r]


# -------------------------------------------------------------------- solve

_C3 = [[3.0, 0.0], [0.0, 3.0], [-2.5, -2.5]]


def test_solve_square_all_objectives(square_center):
    for kind in ("clique", "star", "bipartition"):
        obj = dm.Objective(kind)
        sol = solve(square_center, obj, 4, 0.3)
        opt = dm.brute_force_opt(square_center, obj, 4)
        assert sol.value >= (1 - 0.3) * opt.value * (1 - 1e-9)
        assert tol_leq(sol.value, opt.value)
        assert sol.algo == "ptas" and len(sol.subset) == 4
        assert sol.value == pytest.approx(dm.evaluate(square_center, obj, sol.subset, eps=0.3))


def test_solve_k_equals_n(square):
    sol = solve(square, dm.Objective("clique"), 4, 0.5)
    assert sol.subset == (0, 1, 2, 3)
    assert sol.value == pytest.approx(4.0 + 2.0 * math.sqrt(2.0))


def test_solve_clustered_with_outliers():
    inst = dm.gen_clustered(10, 0.05, [[3.0, 0.0], [0.0, 3.0], [-2.5, -2.5]], seed=2)
    obj = dm.Objective("clique")
    opt = dm.brute_force_opt(inst, obj, 4)
    sol = solve(inst, obj, 4, 0.25)
    assert sol.value >= (1 - 0.25) * opt.value * (1 - 1e-9)
    assert tol_leq(sol.value, opt.value)



def test_solve_bipartition_above_exact_cap_scores_rows_one_by_one():
    # k = 18 > EXACT_BIPARTITION_CAP, so every candidate row is scored by its
    # own evaluate call; on 18 distinct points each is one min_bisection call.
    # Those scores are 1 + eps estimates, so exact repeats are the only
    # guesses dropped: 24 guesses, one row each, 14 of them repeats
    assert dm.EXACT_BIPARTITION_CAP < 18
    inst = dm.gen_clustered(16, 0.01, [(1.0, 0.0), (0.0, 1.0)], seed=3)
    obj = dm.Objective("bipartition")
    calls = mock.Mock(wraps=ptas.evaluate)
    with mock.patch.object(ptas, "evaluate", calls):
        sol = solve(inst, obj, 18, 0.5)
    assert sol.subset == tuple(range(18))
    assert sol.value == dm.evaluate(inst, obj, sol.subset, eps=0.5)
    assert {key: sol.meta[key] for key in ("guesses", "repeats", "dominated", "scored")} == {
        "guesses": 24, "repeats": 14, "dominated": 0, "scored": 10}
    # one call per row, then one re-evaluation of each scored guess's pre-image
    assert sol.meta["candidates"] == 10 and calls.call_count == 10 + 10
    assert all(call.kwargs == {"eps": 0.5} for call in calls.call_args_list)
    # with rows scored exactly, C(18, 18) = 1 subset is fewer rows than the
    # plan's, so one search of it replaces every guess
    with mock.patch.object(ptas, "EXACT_BIPARTITION_CAP", 18):
        routed = solve(inst, obj, 18, 0.5)
        assert routed.subset == sol.subset
        assert {key: routed.meta[key] for key in ("guesses", "repeats", "dominated", "scored",
                                                  "exact", "candidates", "planned")} == {
            "guesses": 24, "repeats": 14, "dominated": 9, "scored": 1, "exact": 1,
            "candidates": 1, "planned": 7}
        # on 21 points C(21, 18) = 1330 exceeds the plan, and three guesses
        # are dominated by all-singleton ones
        wide = solve(dm.gen_clustered(19, 0.01, [(1.0, 0.0), (0.0, 1.0)], seed=1), obj, 18, 0.5)
        assert {key: wide.meta[key] for key in ("dominated", "scored", "exact", "planned")} == {
            "dominated": 3, "scored": 4, "exact": 1, "planned": 1216}
        assert wide.meta["candidates"] == 1216 < math.comb(21, 18)


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("kind", ("clique", "star", "bipartition"))
def test_solve_ratio_small_grid(q, kind):
    for seed in (0, 1):
        inst = dm.gen_uniform(11, 2, seed=40 + seed, q=q)
        obj = dm.Objective(kind, q)
        opt = dm.brute_force_opt(inst, obj, 4)
        sol = solve(inst, obj, 4, 0.2)
        assert sol.value >= (1 - 0.2) * opt.value * (1 - 1e-9), (kind, q, seed)
        assert tol_leq(sol.value, opt.value)


def test_solve_validation(square):
    with pytest.raises(ValueError, match="exponent"):
        solve(square, dm.Objective("clique", 2.0), 2, 0.5)
    with pytest.raises(ValueError, match="2 <= k <= n"):
        solve(square, dm.Objective("clique"), 1, 0.5)
    with pytest.raises(ValueError, match="eps"):
        solve(square, dm.Objective("clique"), 2, 0.0)
    with pytest.raises(ValueError, match="eps"):
        solve(square, dm.Objective("clique"), 2, 1.0)
    with pytest.raises(ValueError, match="even"):
        solve(square, dm.Objective("bipartition"), 3, 0.5)


def test_solve_rejects_negative_budget(square):
    with pytest.raises(ValueError, match="budget must be >= 0, got -5"):
        solve(square, dm.Objective("clique"), 2, 0.5, budget=-5)
    with pytest.raises(BudgetExceededError, match="> budget 0 "):
        solve(square, dm.Objective("clique"), 2, 0.5, budget=0)


def test_solve_budget_exhaustion():
    inst = dm.gen_uniform(10, 2, seed=5)
    with pytest.raises(BudgetExceededError, match="predicted candidates > budget 1 "):
        solve(inst, dm.Objective("clique"), 4, 0.4, budget=1)


def test_solve_budget_checked_before_any_enumeration():
    # a budget one short of the full count fails at the last guess, and no
    # earlier guess may be enumerated first
    inst = dm.gen_uniform(10, 2, seed=5)
    obj = dm.Objective("clique")
    need = solve(inst, obj, 4, 0.4).meta["candidates"]
    enum = mock.Mock(side_effect=AssertionError("enumerated before the budget check"))
    with mock.patch.object(ptas, "enumerate_compositions", enum):
        with pytest.raises(BudgetExceededError,
                           match=f"{need} predicted candidates > budget {need - 1} "):
            solve(inst, obj, 4, 0.4, budget=need - 1)
    enum.assert_not_called()


def test_solve_budget_is_the_deduplicated_count():
    # the budget bounds the rows actually scored: exactly that many passes.
    # Count-row guesses enumerate their rows; each all-singleton guess
    # searches the C(cells, k - outliers) subsets that hold its outliers.
    # The uniform run has only the second kind, the clustered run both
    best_subset = ptas._best_subset
    for inst, k, eps in ((dm.gen_uniform(10, 2, seed=5), 4, 0.4),
                         (dm.gen_clustered(10, 0.05, _C3, seed=2), 4, 0.25)):
        obj = dm.Objective("clique")
        sol = solve(inst, obj, k, eps)
        need = sol.meta["candidates"]
        assert sol.meta["repeats"] + sol.meta["dominated"] > 0
        rows, searched = [], []

        def counting(*args, **kwargs):
            for block in compositions.enumerate_compositions(*args, **kwargs):
                rows.append(block.shape[0])
                yield block

        def searching(kind, dq, k, fixed=0):
            searched.append(math.comb(len(dq) - fixed, k - fixed))
            return best_subset(kind, dq, k, fixed)

        with mock.patch.object(ptas, "enumerate_compositions", counting), \
                mock.patch.object(ptas, "_best_subset", searching):
            again = solve(inst, obj, k, eps, budget=need)
        assert len(searched) == sol.meta["exact"] > 0
        assert bool(rows) == (sol.meta["exact"] < sol.meta["scored"])
        assert sum(rows) + sum(searched) == need
        assert (again.subset, again.value, again.meta) == (sol.subset, sol.value, sol.meta)


def test_solve_rescored_sums_the_exact_searches():
    # meta["rescored"] is the total the subset engine reports over the
    # exact guesses; count-row guesses add nothing to it
    best_subset = ptas._best_subset
    for inst, k, eps in ((dm.gen_uniform(20, 2, seed=5), 6, 0.4),
                         (dm.gen_clustered(10, 0.05, _C3, seed=2), 4, 0.25)):
        reported = []

        def searching(kind, dq, k, fixed=0):
            reported.append(best_subset(kind, dq, k, fixed))
            return reported[-1]

        with mock.patch.object(ptas, "_best_subset", searching):
            sol = solve(inst, dm.Objective("clique"), k, eps)
        assert len(reported) == sol.meta["exact"] > 0
        assert sol.meta["rescored"] == sum(r[2] for r in reported) >= len(reported)


def test_solve_fetches_each_scored_distance_block_once():
    # the uniform run's one singleton guess rescores the near-best of its
    # C(20, 6) = 38760 subsets in several blocks; the clustered run adds
    # count-row guesses.  Every block of a guess is scored on the one d^q
    # block fetched for it
    pow_submatrix, values = dm.MetricInstance.pow_submatrix, ptas.values
    batch_evaluate = baselines.batch_evaluate
    for inst, q, k, several in (
            (dm.gen_uniform(20, 2, seed=2), 1.0, 6, True),
            (dm.gen_clustered(14, 0.1, [[2.0, 0.0]], seed=5, q=2.0), 2.0, 5, False)):
        fetched, scored_on = [], []

        def fetch(self, *args):
            fetched.append(pow_submatrix(self, *args))
            return fetched[-1]

        def score(kind, dq, counts):
            scored_on.append(dq)
            return values(kind, dq, counts)

        def rescore(kind, dq, rows):
            scored_on.append(dq)
            return batch_evaluate(kind, dq, rows)

        with mock.patch.object(dm.MetricInstance, "pow_submatrix", fetch), \
                mock.patch.object(ptas, "values", score), \
                mock.patch.object(baselines, "batch_evaluate", rescore):
            sol = solve(inst, dm.Objective("clique", q), k, 0.5)
        blocks = {id(dq) for dq in scored_on}  # all kept alive, so ids are distinct
        assert 0 < sol.meta["exact"] and (len(scored_on) > sol.meta["scored"] or not several)
        assert len(blocks) == sol.meta["scored"]
        assert blocks <= {id(dq) for dq in fetched}


def _spaced(seed: int, n: int, gap: float) -> dm.MetricInstance:
    rng = np.random.default_rng(seed)
    pts: list[np.ndarray] = []
    while len(pts) < n:
        p = rng.uniform(0.0, 1.0, size=2)
        if all(np.hypot(*(p - o)) >= gap for o in pts):
            pts.append(p)
    return dm.MetricInstance.from_points(pts, q=2.0)


@pytest.mark.parametrize("kind", ("clique", "star", "bipartition"))
def test_solve_singleton_cells_cost_one_enumeration(kind):
    # no cell radius reaches the 0.1 gap, so every guess has singleton cells
    # and the one without outliers dominates the rest: C(n, k) rows in all
    inst = _spaced(3, 14, 0.1)
    obj = dm.Objective(kind, 2.0)
    sol = solve(inst, obj, 6, 0.25)
    assert sol.meta["candidates"] == math.comb(14, 6)
    assert sol.meta["scored"] == 1
    assert sol.meta["guesses"] == 1 + sol.meta["repeats"] + sol.meta["dominated"]
    opt = dm.brute_force_opt(inst, obj, 6)
    assert sol.value == opt.value and sol.subset == opt.subset



def _count_row_search(kind, dq, k, fixed=0):
    """The count-row search of an all-singleton guess: every 0/1 row over the
    pool with the ``fixed`` last positions appended, scored by ``values`` or,
    for bipartition, as index rows; the first maximum wins."""
    m = len(dq) - fixed
    best, best_row = -np.inf, None
    for counts in enumerate_compositions([[1, 0]] * m, k - fixed):
        full = np.hstack([counts, np.ones((len(counts), fixed), np.int64)])
        vals = (batch_evaluate(kind, dq, _expand_rows(full)) if kind == "bipartition"
                else values(kind, dq, full))
        i = int(vals.argmax())
        if best_row is None or vals[i] > best:
            best, best_row = vals[i], np.flatnonzero(full[i])
    return best_row, best, 0, 0


@pytest.mark.parametrize("far", range(4))
@pytest.mark.parametrize("kind", ("clique", "star", "bipartition"))
def test_solve_singleton_guesses_match_count_rows(kind, far):
    # points 400 away are outliers of every guess small enough to leave the
    # 0.1-spaced points in singleton cells, so the subset search of such a
    # guess holds `far` fixed positions; it must pick what count rows pick
    ang = 2.0 * np.pi * np.arange(far) / 4
    pts = np.vstack([_spaced(far, 12, 0.1).points, 400.0 * np.c_[np.cos(ang), np.sin(ang)]])
    inst = dm.MetricInstance.from_points(pts, q=2.0)
    obj, k = dm.Objective(kind, 2.0), 6 if kind == "bipartition" else 5
    best_subset, held = ptas._best_subset, []

    def search(kind, dq, k, fixed=0):
        held.append(fixed)
        got, want = best_subset(kind, dq, k, fixed), _count_row_search(kind, dq, k, fixed)
        assert sorted(got[0].tolist()) == want[0].tolist()
        return got

    with mock.patch.object(ptas, "_best_subset", search):
        sol = solve(inst, obj, k, 0.25)
    with mock.patch.object(ptas, "_best_subset", _count_row_search):
        ref = solve(inst, obj, k, 0.25)
    assert held == [far] and sol.meta["exact"] == 1
    # the count-row stand-in rescores and bounds nothing; every other count agrees
    assert sol.meta["rescored"] >= 1 and ref.meta["rescored"] == ref.meta["bounded"] == 0
    assert (sol.subset, sol.value.hex(), {**sol.meta, "rescored": 0, "bounded": 0}) == \
        (ref.subset, ref.value.hex(), ref.meta)


@pytest.mark.parametrize("kind, ks", [("clique", (5, 6)), ("star", (4, 5)),
                                      ("bipartition", (4, 6))])
def test_solve_route_is_the_brute_force_search(kind, ks):
    # a plan predicting more than C(n, k) rows is replaced by one search of
    # every k-subset: the oracle's subset and value bits at C(n, k) rows.
    # Other plans score their predicted rows, at most C(n, k)
    routes = plans = 0
    for k, q, radius, seed in product(ks, (1.0, 2.0), (0.005, 0.01, 0.02), range(3)):
        far = [(np.cos(a), np.sin(a)) for a in 2 * np.pi * np.arange(3) / 3 + seed]
        inst = dm.gen_clustered(11, radius, far, seed=seed, q=q)
        obj, subsets = dm.Objective(kind, q), math.comb(14, k)
        sol = solve(inst, obj, k, 0.5)
        if sol.meta["planned"] > subsets:
            routes += 1
            opt = dm.brute_force_opt(inst, obj, k)
            assert (sol.subset, sol.value.hex()) == (opt.subset, opt.value.hex())
            assert sol.meta["candidates"] == subsets
            assert sol.meta["scored"] == sol.meta["exact"] == 1
            assert sol.guess == (0, build_guess_grid(inst, k)[0] ** q)
        else:
            plans += 1
            assert sol.meta["candidates"] == sol.meta["planned"] <= subsets
    assert routes > 1 and plans > 1


def test_solve_candidates_never_exceed_the_subsets_on_benchmark_inputs():
    # the benchmark's ptas inputs once scored up to 2.17 x C(n, k) rows
    build = runpy.run_path(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"
                               / "workloads.py"))["build"]
    worst = 0.0
    for seed in range(301, 311):
        for op in build("ptas", seed):
            inst = dm.MetricInstance.from_points(op.points, q=op.q)
            sol = solve(inst, dm.Objective(op.objective, op.q), op.k, op.eps)
            worst = max(worst, sol.meta["candidates"] / math.comb(inst.n, op.k))
    assert worst <= 1.0


def test_plan_reads_one_distance_row_per_center():
    # every scale is tested against a center's one row; the plan is the one
    # the scale-major loop below, which reads a row per scale and center, makes
    inst = dm.gen_clustered(19, 0.01, [(1.0, 0.0), (-0.5, 0.9), (-0.5, -0.9)], seed=4)
    for kind, k, eps in (("clique", 6, 0.25), ("star", 7, 0.5), ("bipartition", 8, 0.5)):
        obj, scales = dm.Objective(kind), build_guess_grid(inst, k)
        dists_from, rows = dm.MetricInstance.dists_from, []

        def spy(self, u, targets=None):
            if targets is None:
                rows.append(u)
            return dists_from(self, u, targets)

        with mock.patch.object(dm.MetricInstance, "dists_from", spy):
            plan, guesses = ptas._plan(inst, obj, k, eps, scales)
        assert rows == list(range(inst.n))

        want, made = [], 0
        seen, problems = set(), set()
        all_idx = np.arange(inst.n, dtype=np.int64)
        for si, s in enumerate(scales):
            for z0 in range(inst.n):
                inside = tol_leq(inst.dists_from(z0),
                                 GUESS_SLACK * OUTLIER_RADIUS_COEFF[kind] * s)
                outliers = all_idx[~inside]
                if outliers.size > k or (si, outliers.tobytes()) in seen:
                    continue
                seen.add((si, outliers.tobytes()))
                made += 1
                decomp = ptas.decompose_fixed(inst, all_idx[inside], eps / 2.0 ** 4 * s)
                problem = (decomp.label.tobytes(), outliers.tobytes())
                if problem not in problems:
                    problems.add(problem)
                    want.append((s, z0, decomp.centers, decomp.label.tolist(),
                                 outliers.tolist(), [list(c) for c in (
                                     range(min(size, k), -1, -1)
                                     for size in np.bincount(decomp.label).tolist())],
                                 k - int(outliers.size)))
        got = [(s, z0, d.centers, d.label.tolist(), o.tolist(), [list(c) for c in ch], t)
               for s, z0, d, o, ch, t in plan]
        assert (got, guesses) == (want, made)
        assert len(plan) < made


@st.composite
def bipartition_count_rows(draw):
    """A d^q block over cell centers plus outlier columns, and the count-row
    grid of one guess on it.  Integer coordinates tie often, repeated points
    are coincident centers, and an asymmetric block switches the screen off.
    Large k draws few rows, so that each example stays quick."""
    k = 2 * draw(st.integers(1, 8))
    fixed = draw(st.integers(0, min(k - 1, 3)))
    cols = draw(st.integers(1 if fixed else 2, 5 if k <= 8 else 3 if k <= 10 else 2))
    n = cols + fixed
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pts = rng.integers(0, 3, size=(n, 2)).astype(np.float64)
    else:
        pts = rng.uniform(size=(n, 2))
    if draw(st.booleans()):  # repeated columns: coincident copies of one center
        pts[rng.integers(0, n, size=n // 2)] = pts[0]
    inst = dm.MetricInstance.from_points(pts, norm=draw(st.sampled_from(("l1", "l2"))),
                                         q=draw(st.sampled_from((1.0, 2.0))))
    dq = inst.pow_matrix()
    if draw(st.booleans()):
        dq = dq + np.triu(rng.uniform(size=(n, n)), 1)
    caps = draw(st.lists(st.integers(0, k - fixed), min_size=cols, max_size=cols))
    caps[-1] = max(caps[-1], k - fixed - sum(caps[:-1]))  # at least one row
    choices = [range(c, -1, -1) for c in caps]
    rows = count_compositions(choices, k - fixed)
    limit = 400 if k <= 8 else 40
    block = draw(st.sampled_from((1, 5, 64, 1 << 16) if k <= 8 else (2048, 1 << 16)))
    return inst, dq, fixed, choices, k - fixed, rows, limit, block


@settings(max_examples=300)
@given(bipartition_count_rows())
def test_screened_bipartition_rows_pick_the_unscreened_row(case):
    # the screen only replaces rows below the block's best by -inf, so the
    # first best row and its value bits are those of scoring every row
    inst, dq, fixed, choices, total, rows, limit, block = case
    assume(0 < rows <= limit)
    obj, scored = dm.Objective("bipartition", inst.q), []

    def full(counts):
        return np.hstack([counts, np.ones((len(counts), fixed), np.int64)])

    def screened(counts):
        scored.append(ptas._rounded_values(inst, obj, list(range(len(dq))), dq, counts, 0.5))
        return scored[-1]

    with mock.patch.object(compositions, "BLOCK_ROWS", 7):
        want = first_best(enumerate_compositions(choices, total),
                          lambda c: batch_evaluate("bipartition", dq, _expand_rows(full(c))))
        with mock.patch.object(baselines, "_BLOCK", block):
            got = first_best(enumerate_compositions(choices, total), screened)
    assert (got[0].tolist(), got[1].hex()) == (want[0].tolist(), want[1].hex())
    if not np.array_equal(dq, dq.T):
        assert all(np.isfinite(v).all() for v in scored)


def test_screen_keeps_rows_a_few_ulps_below_the_block_best():
    # points 0 and 2 coincide, so equal rows sum their terms in different
    # orders: the first best row's screen falls ulps below the block's best
    # screen, and only the floor keeps it rescored
    inst = dm.MetricInstance.from_points([[0.1, 0.1], [0.1, 0.2], [0.1, 0.1]], q=2.0)
    dq, obj = inst.pow_matrix(), dm.Objective("bipartition", 2.0)
    choices = [range(6, -1, -1), range(4, -1, -1), range(1, -1, -1)]
    want = first_best(enumerate_compositions(choices, 10),
                      lambda c: batch_evaluate("bipartition", dq, _expand_rows(c)))
    got = first_best(enumerate_compositions(choices, 10),
                     lambda c: ptas._rounded_values(inst, obj, [0, 1, 2], dq, c, 0.5))
    assert (got[0].tolist(), got[1].hex()) == (want[0].tolist(), want[1].hex())


def _ring_of_8() -> dm.MetricInstance:
    adj = np.zeros((8, 8), bool)
    adj[np.arange(8), np.arange(1, 9) % 8] = True
    return dm.gen_graph_12metric(adj | adj.T)


def test_rounded_values_rescore_frozen_row_counts():
    # rows of a fixed block that the screen keeps and rescores, counted on
    # both names they may be rescored through; a keep rule applied per
    # chunk of rows rather than against the whole block's best screen
    # rescores more.  The ring's many equal distances tie many rows
    obj, rescored = dm.Objective("bipartition"), []

    def spy(batch_evaluate):
        def rescore(kind, dq, rows):
            rescored.append(len(rows))
            return batch_evaluate(kind, dq, rows)
        return rescore

    got = {}
    for name, inst in (("uniform", dm.gen_uniform(8, 2, seed=3)), ("ring", _ring_of_8())):
        for k in (6, 8, 16):
            counts = next(enumerate_compositions([range(k, -1, -1)] * 8, k))[:2048]
            with mock.patch.object(diversity, "batch_evaluate", spy(diversity.batch_evaluate)), \
                    mock.patch.object(baselines, "batch_evaluate", spy(baselines.batch_evaluate)):
                ptas._rounded_values(inst, obj, list(range(8)), inst.pow_matrix(), counts, 0.5)
            got[name, k] = sum(rescored)
            rescored.clear()
    assert got == {("uniform", 6): 1, ("uniform", 8): 1, ("uniform", 16): 1,
                   ("ring", 6): 56, ("ring", 8): 40, ("ring", 16): 2}


@pytest.mark.parametrize("k", (4, 6, 8))
def test_rounded_values_rows_that_repeat_their_last_position(k):
    # a count row whose last nonzero count is at least 2 ends on a position
    # its prefix already holds, so no bound that assumes a later position may
    # touch it: every kept row carries batch_evaluate's bits over every row,
    # and the first best row is the one scoring every row picks
    obj = dm.Objective("bipartition")
    for inst in (dm.gen_uniform(8, 2, seed=3), _ring_of_8()):
        dq = inst.pow_matrix()
        counts = next(enumerate_compositions([range(k, -1, -1)] * 8, k))[:2048]
        last = counts[np.arange(len(counts)), 7 - (counts[:, ::-1] > 0).argmax(axis=1)]
        counts = counts[last >= 2]
        got = ptas._rounded_values(inst, obj, list(range(8)), dq, counts, 0.5)
        want = diversity.batch_evaluate("bipartition", dq, diversity._expand_rows(counts))
        i, kept = int(want.argmax()), np.isfinite(got)
        assert (int(got.argmax()), got[i].hex()) == (i, want[i].hex())
        assert len(counts) > 100 and np.array_equal(got[kept], want[kept])


def test_rounded_values_peak_memory_stays_bounded():
    # k = 16 screens 6435 balanced splits 624 weight rows at a time, over
    # chunks of 105 rows: weight rows held for all 2048 rows at once would
    # alone take 10.2 MB
    inst = dm.gen_uniform(8, 2, seed=3)
    dq = inst.pow_matrix()
    counts = next(enumerate_compositions([range(16, -1, -1)] * 8, 16))[:2048]
    tracemalloc.start()
    try:
        ptas._rounded_values(inst, dm.Objective("bipartition"), list(range(8)), dq, counts, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0e6


# subset and value as returned before repeats and dominated guesses were
# dropped; candidates are the rows scored now, with the former counts after #.
# The last row's plan predicts 4844 rows, more than C(15, 5) = 3003, so one
# exact search of every 5-subset replaces it
FROZEN = [
    ("uniform", (12, 2, 1), "clique", 1.0, 4, 0.3,
     (1, 3, 4, 11), 4.313561933338017, 495),                   # 2354
    ("uniform", (12, 2, 2), "star", 2.0, 5, 0.5,
     (1, 3, 4, 8, 11), 1.8504730075404505, 792),               # 4995
    ("uniform", (14, 2, 3), "bipartition", 1.0, 6, 0.25,
     (0, 2, 4, 7, 10, 12), 5.953398615848756, 3003),           # 25291
    ("uniform", (10, 3, 4), "clique", 2.0, 5, 0.4,
     (1, 2, 5, 7, 9), 7.628512014839793, 252),                 # 1518
    ("clustered", (10, 0.05, _C3, 2), "clique", 1.0, 4, 0.25,
     (6, 10, 11, 12), 25.87457480536549, 500),                 # 527
    ("clustered", (12, 0.02, [[4.0, 0.0], [0.0, 4.5]], 7), "star", 1.0, 4, 0.3,
     (1, 10, 12, 13), 8.534863832454697, 219),                 # 235
    ("clustered", (12, 0.01, [[1.0, 0.0], [0.0, 1.0]], 3), "bipartition", 1.0, 6, 0.5,
     (2, 3, 5, 9, 12, 13), 5.4591005916058455, 770),           # 1408
    ("clustered", (14, 0.1, [[2.0, 0.0]], 5), "clique", 2.0, 5, 0.5,
     (0, 9, 10, 13, 14), 16.89768657355916, 3003),             # 7452, then 4844
]


@pytest.mark.parametrize("gen, args, kind, q, k, eps, subset, value, candidates", FROZEN)
def test_solve_frozen_answers(gen, args, kind, q, k, eps, subset, value, candidates):
    if gen == "uniform":
        inst = dm.gen_uniform(*args[:2], seed=args[2], q=q)
    else:
        inst = dm.gen_clustered(*args[:3], seed=args[3], q=q)
    sol = solve(inst, dm.Objective(kind, q), k, eps)
    assert (sol.subset, sol.value, sol.meta["candidates"]) == (subset, value, candidates)


def test_solve_meta_counters(square_center):
    sol = solve(square_center, dm.Objective("clique"), 3, 0.5)
    assert sol.meta["guesses"] > 0
    assert sol.meta["candidates"] > 0
    assert sol.meta["max_cells"] > 0


def test_solve_guess_reconstructs_forced_outliers():
    # every point outside the containment ball of the winning guess must have
    # been carried into the returned subset
    inst = dm.gen_clustered(8, 0.02, [[4.0, 0.0], [0.0, 4.5]], seed=7)
    for kind in ("clique", "star"):
        sol = solve(inst, dm.Objective(kind), 4, 0.3)
        z0, g = sol.guess
        radius = GUESS_SLACK * OUTLIER_RADIUS_COEFF[kind] * g ** (1.0 / inst.q)
        for u in range(inst.n):
            if inst.dist(z0, u) > radius * (1 + 1e-9):
                assert u in sol.subset


def test_solve_deterministic():
    inst = dm.gen_uniform(10, 3, seed=77, q=2.0)
    a = solve(inst, dm.Objective("star", 2.0), 5, 0.4)
    b = solve(inst, dm.Objective("star", 2.0), 5, 0.4)
    assert a.subset == b.subset and a.value == b.value and a.meta == b.meta
    assert a.guess == b.guess


def test_solve_all_coincident():
    inst = dm.MetricInstance.from_points([[1.0, 2.0]] * 6)
    sol = solve(inst, dm.Objective("clique"), 3, 0.5)
    assert sol.subset == (0, 1, 2) and sol.value == 0.0
    assert sol.meta == {"guesses": 0, "repeats": 0, "dominated": 0, "scored": 0,
                        "exact": 0, "bounded": 0, "rescored": 0, "candidates": 0,
                        "max_cells": 0}
