"""Brute-force oracle and greedy clique baseline, plus the ball structure of optima."""
import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divmax as dm
from divmax import baselines
from divmax.baselines import _best_subset, brute_force_opt, greedy_clique
from divmax.bisection import star_center
from divmax.diversity import batch_evaluate
from divmax.errors import EnumerationCapError
from divmax.metric import tol_leq
from divmax.ptas import OUTLIER_RADIUS_COEFF

from conftest import term_count

ROOT2 = math.sqrt(2.0)


# ------------------------------------------------------------------- oracle

def test_brute_square_center_clique(square_center):
    sol = brute_force_opt(square_center, dm.Objective("clique"), 4)
    assert sol.subset == (0, 1, 2, 3)
    assert sol.value == pytest.approx(4.0 + 2.0 * ROOT2)
    assert sol.algo == "brute"


def test_brute_pair_on_line(line013):
    sol = brute_force_opt(line013, dm.Objective("clique"), 2)
    assert sol.subset == (0, 2) and sol.value == pytest.approx(3.0)


def test_brute_tie_prefers_lex_smallest(square):
    # diagonals (0, 3) and (1, 2) both have length sqrt(2)
    sol = brute_force_opt(square, dm.Objective("clique"), 2)
    assert sol.subset == (0, 3) and sol.value == pytest.approx(ROOT2)


def test_brute_star_and_bipartition(square):
    st_ = brute_force_opt(square, dm.Objective("star"), 4)
    assert st_.value == pytest.approx(2.0 + ROOT2)
    bp = brute_force_opt(square, dm.Objective("bipartition"), 4)
    assert bp.value == pytest.approx(4.0)


def test_brute_q_power(square):
    inst = square.with_q(2.0)
    sol = brute_force_opt(inst, dm.Objective("clique", 2.0), 2)
    assert sol.subset == (0, 3) and sol.value == pytest.approx(2.0)


def test_brute_validation(square):
    with pytest.raises(ValueError, match="exponent"):
        brute_force_opt(square, dm.Objective("clique", 2.0), 2)
    with pytest.raises(ValueError, match="2 <= k <= n"):
        brute_force_opt(square, dm.Objective("clique"), 1)
    with pytest.raises(ValueError, match="2 <= k <= n"):
        brute_force_opt(square, dm.Objective("clique"), 5)
    with pytest.raises(ValueError, match="even"):
        brute_force_opt(square, dm.Objective("bipartition"), 3)


def test_brute_caps():
    inst = dm.gen_uniform(12, 2, seed=1)
    with pytest.raises(EnumerationCapError, match="enumeration cap"):
        brute_force_opt(inst, dm.Objective("clique"), 4, enum_cap=10)
    big = dm.gen_uniform(20, 2, seed=1)
    with pytest.raises(EnumerationCapError, match="up to 16"):
        brute_force_opt(big, dm.Objective("bipartition"), 18)


def reference_opt(inst, kind, k):
    """Every k-subset scored by batch_evaluate; the first maximum wins."""
    rows = np.array(list(combinations(range(inst.n), k)), dtype=np.int64)
    vals = batch_evaluate(kind, inst.pow_matrix(), rows)
    i = int(vals.argmax())
    return tuple(int(x) for x in rows[i]), float(vals[i])


def graph12(n, seed):
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.uniform(size=(n, n)) < 0.5, 1)
    return dm.gen_graph_12metric(adj | adj.T)


def tie_heavy(family, seed):
    rng = np.random.default_rng(seed)
    if family == "graph12":
        return graph12(8 + seed, seed)
    if family == "grid-l1":  # small integer coordinates: many equal distances
        return dm.MetricInstance.from_points(rng.integers(0, 3, size=(8 + seed, 2)), norm="l1")
    if family == "coincident":
        return dm.MetricInstance.from_points(np.ones((7 + seed, 2)), q=2.0)
    # nonnegative but neither symmetric nor zero on the diagonal: no screen
    return dm.MetricInstance.from_matrix(rng.integers(0, 4, size=(7 + seed, 7 + seed)))


@pytest.mark.parametrize("kind", ("clique", "star", "bipartition"))
@pytest.mark.parametrize("family", ("graph12", "grid-l1", "coincident", "asymmetric"))
def test_brute_matches_reference_on_ties(family, kind):
    for seed in range(3):
        inst = tie_heavy(family, seed)
        for k in range(2, inst.n + 1, 2 if kind == "bipartition" else 1):
            sol = brute_force_opt(inst, dm.Objective(kind, inst.q), k)
            subset, value = reference_opt(inst, kind, k)
            assert (sol.subset, sol.value.hex()) == (subset, value.hex()), (seed, k)
            assert sol.meta["subsets"] == math.comb(inst.n, k)
            if family in ("coincident", "asymmetric"):  # every subset ties, or no screen
                assert sol.meta["rescored"] == math.comb(inst.n, k)


@pytest.mark.parametrize("kind", ("clique", "star", "bipartition"))
def test_brute_matches_reference_across_blocks(kind):
    # C(22, 6) = 74613 subsets span seven screening blocks.  Uniform distances
    # leave one subset to rescore; graph12 and coincident points tie across
    # blocks, and the first maximum must win.
    coincident = dm.MetricInstance.from_points(np.zeros((22, 2)))
    for inst, most in ((dm.gen_uniform(22, 2, seed=8), 1), (graph12(22, 5), 200),
                       (coincident, 74613)):
        sol = brute_force_opt(inst, dm.Objective(kind), 6)
        subset, value = reference_opt(inst, kind, 6)
        assert (sol.subset, sol.value.hex()) == (subset, value.hex())
        assert sol.meta["subsets"] == 74613 and 1 <= sol.meta["rescored"] <= most


def test_brute_memory_does_not_grow_with_subset_count():
    # C(26, 8) = 1562275 subsets: as one int64 row array with its k x k
    # gathers they took 119 MB of traced memory
    inst = dm.gen_uniform(26, 2, seed=1)
    inst.pow_matrix()
    tracemalloc.start()
    try:
        sol = brute_force_opt(inst, dm.Objective("clique"), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.meta["subsets"] == 1562275
    assert peak < 40e6


def test_brute_bipartition_split_weights_stay_bounded():
    # C(20, 16) = 4845 subsets over C(15, 7) = 6435 balanced splits: a whole
    # (15^2, 6435) split table would take 11.6 MB (a 15.5 MB peak); weights
    # taken _BLOCK entries at a time keep the peak under the 5.8 MB that
    # scoring every subset with batch_evaluate took, plus slack
    inst = dm.gen_uniform(20, 2, seed=1)
    obj = dm.Objective("bipartition")
    inst.pow_matrix()
    tracemalloc.start()
    try:
        sol = brute_force_opt(inst, obj, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.8e6 + 1e6
    with mock.patch.object(baselines, "_BLOCK", 1 << 22):  # one chunk of splits
        whole = brute_force_opt(inst, obj, 16)
    assert (sol.subset, sol.value.hex()) == (whole.subset, whole.value.hex())
    assert sol.subset == (0, 1, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15, 17, 18, 19)


def test_brute_bipartition_screen_stays_near_the_clique_peak():
    # C(26, 8) over 35 splits: each block's split sums are taken a row chunk
    # at a time, not as one (rows x splits) table, which peaked at 10.8 MB
    # against clique's 6.8 MB, 6.6 MB of which was the whole prefix table.
    # Grown a block at a time, the table leaves clique at 1.7 MB and
    # bipartition, with its split sums, at 2.6 MB.  Subset and value bits are
    # the ones the unchunked screen gave; it rescored 4 subsets, and the bound
    # leaves 2
    inst = dm.gen_uniform(26, 2, seed=1)
    inst.pow_matrix()
    peaks, sols = {}, {}
    for kind in ("clique", "bipartition"):
        tracemalloc.start()
        try:
            sols[kind] = brute_force_opt(inst, dm.Objective(kind), 8)
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["clique"] <= 2.5e6 and peaks["bipartition"] <= 3.5e6
    sol = sols["bipartition"]
    assert sol.subset == (1, 3, 4, 11, 12, 14, 18, 19)
    assert sol.value.hex() == "0x1.3872a48e3da21p+3"
    assert sol.meta == {"subsets": 1562275, "bounded": 1277672, "rescored": 2}


@st.composite
def subset_searches(draw):
    kind = draw(st.sampled_from(("clique", "star", "bipartition")))
    k = draw(st.integers(1, 4)) * 2 if kind == "bipartition" else draw(st.integers(2, 8))
    n = k + draw(st.integers(0, 10))  # n == k: the pool is the whole free part
    fixed = draw(st.integers(0, k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):  # small integer coordinates: many ties
        pts = rng.integers(0, 3, size=(n, 2)).astype(np.float64)
    else:
        pts = rng.uniform(size=(n, 2))
    norm = draw(st.sampled_from(("l1", "l2", "linf")))
    dq = dm.MetricInstance.from_points(pts, norm=norm, q=draw(st.sampled_from((1.0, 2.0))))
    dq = dq.pow_matrix()
    if draw(st.booleans()):  # asymmetric: nothing screened, every row rescored
        dq = dq + np.triu(rng.uniform(size=(n, n)), 1)
    return kind, dq, k, fixed, draw(st.sampled_from((1, 5, 64, 1 << 16))), \
        draw(st.integers(0, 2 ** 16))


@settings(max_examples=300)
@given(subset_searches())
def test_best_subset_matches_combinations(case):
    # rows list the fixed positions, then a combination of the pool; the
    # first maximum of batch_evaluate over all of them, in that order, wins,
    # whichever row the search scores first as its incumbent: the greedy one,
    # the optimum or a random row.  Small blocks split the prefix lists and the
    # bipartition split weights.  Every row is bounded or screened, and the
    # optimum as incumbent never rescores more than another row does
    kind, dq, k, fixed, block, pick = case
    m = len(dq) - fixed
    rows = np.array([tuple(range(m, len(dq))) + c for c in combinations(range(m), k - fixed)],
                    dtype=np.int64).reshape(-1, k)
    want = batch_evaluate(kind, dq, rows)
    i = int(want.argmax())
    score, greedy_row, rescored = baselines._Screen.score, baselines._greedy_row, {}
    for name, first in (("greedy", None), ("optimum", rows[i]), ("random", rows[pick % len(rows)])):
        screened = []

        def spy(self, p, r, j, best, pre=None):
            screened.append(r.size)
            return score(self, p, r, j, best, pre)

        with mock.patch.object(baselines, "_BLOCK", block), \
                mock.patch.object(baselines._Screen, "score", spy), \
                mock.patch.object(baselines, "_greedy_row",
                                  greedy_row if first is None else lambda *_: first):
            row, value, rescored[name], bounded = _best_subset(kind, dq, k, fixed)
        assert (row.tolist(), value.hex()) == (rows[i].tolist(), want[i].hex()), name
        assert bounded + sum(screened) == (len(rows) if fixed < k else 0)
        assert 1 <= rescored[name] <= len(rows)
        if not np.array_equal(dq, dq.T):
            assert rescored[name] == len(rows) and bounded == 0
    assert rescored["optimum"] <= min(rescored["greedy"], rescored["random"])


def _whole_table_blocks(m, t, size):
    """Reference ``_prefix_blocks``: every level of prefixes built whole,
    breadth first, and the last one cut into blocks of ``size``."""
    pre = np.empty((0, 1), np.int32)
    for c in range(t - 1):
        r, col = baselines._extend(pre, m - t - 1 + c)
        pre = np.vstack((pre[:, r], col[None].astype(np.int32)))
    for b in range(0, pre.shape[1], size):
        short = pre[:, b:b + size]
        yield (short, *baselines._extend(short, m - 2))


@pytest.mark.parametrize("m,t,size", [
    (5, 1, 1), (5, 4, 1), (8, 7, 5), (8, 3, 1), (8, 3, 2), (9, 2, 1), (10, 5, 7),
    (12, 6, 3), (22, 10, 100), (25, 11, 2621), (30, 4, 1000), (2000, 2, 32),
])
def test_prefix_blocks_match_the_whole_table(m, t, size):
    # each level is grown one block at a time and re-cut, which gives the
    # blocks, and so the chunks of _best_subset, of the whole table
    got, want = list(baselines._prefix_blocks(m, t, size)), list(_whole_table_blocks(m, t, size))
    assert len(got) == len(want) == -(-math.comb(m - 2, t - 1) // size)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_bound_drops_subsets_of_a_uniform_clique_search():
    # C(22, 6) = 74613 subsets: a search whose bound never fires screens them
    # all.  The greedy incumbent lets the bound drop 74515 of them
    sol = brute_force_opt(dm.gen_uniform(22, 2, seed=8), dm.Objective("clique"), 6)
    assert sol.meta["subsets"] == 74613 and sol.meta["bounded"] > 74613 // 2


def test_brute_pair_search_keeps_its_bound_tables_small():
    # C(2000, 2) = 1999000 subsets.  A pair search reads each suffix-max only
    # at the next index, so it keeps one row of them: a whole 2000 x 2000
    # table next to d^q peaked at 33.7 MB, against 4.1 MB without a bound
    inst = dm.gen_uniform(2000, 2, seed=1)
    inst.pow_matrix()
    tracemalloc.start()
    try:
        sol = brute_force_opt(inst, dm.Objective("clique"), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.meta["subsets"] == 1999000 and sol.meta["bounded"] > 1999000 // 2
    assert peak < 8e6


@pytest.mark.parametrize("kind", ("clique", "star", "bipartition"))
def test_brute_dominates_random_subsets(kind):
    rng = np.random.default_rng(11)
    inst = dm.gen_uniform(10, 3, seed=55, q=2.0)
    obj = dm.Objective(kind, 2.0)
    sol = brute_force_opt(inst, obj, 4)
    for _ in range(50):
        sub = sorted(int(i) for i in rng.choice(10, size=4, replace=False))
        assert tol_leq(dm.evaluate(inst, obj, sub), sol.value)


# ------------------------------------------------------------------- greedy

def test_greedy_square_with_center(square_center):
    sol = greedy_clique(square_center, 4)
    assert sol.subset == (0, 1, 2, 3)
    assert sol.value == pytest.approx(4.0 + 2.0 * ROOT2)
    assert sol.algo == "greedy"


def test_greedy_square_three(square):
    # double scan lands on the 0-3 diagonal, then the tie at score 2 goes to 1
    sol = greedy_clique(square, 3)
    assert sol.subset == (0, 1, 3)
    assert sol.value == pytest.approx(2.0 + ROOT2)


def test_greedy_coincident_fallback():
    inst = dm.MetricInstance.from_points([[1.0, 1.0]] * 4)
    sol = greedy_clique(inst, 2)
    assert sol.subset == (0, 1) and sol.value == 0.0


def test_greedy_exact_pair_beats_double_scan():
    # the double scan from 0 climbs to the apex and finds the 1.45 pair (1, 2);
    # the true farthest pair is the base (2, 3) at distance 2
    pts = [[0.0, 0.0], [0.0, 1.05], [-1.0, 0.0], [1.0, 0.0]]
    inst = dm.MetricInstance.from_points(pts)
    scan = greedy_clique(inst, 2)
    exact = brute_force_opt(inst, dm.Objective("clique"), 2)
    assert scan.subset == (1, 2)
    assert exact.subset == (2, 3)
    assert exact.value > scan.value


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("seed", range(3))
def test_greedy_reads_one_row_per_pick(monkeypatch, seed, q):
    # rows of point 0, the double scan's far pair, then each pick but the last
    inst = dm.gen_uniform(60, 3, seed=seed, q=q)
    rows = []
    dists_from = dm.MetricInstance.dists_from

    def spy(self, u, targets=None):
        rows.append(u)
        return dists_from(self, u, targets)

    monkeypatch.setattr(dm.MetricInstance, "dists_from", spy)
    for k in (2, 3, 8):
        rows.clear()
        got = greedy_clique(inst, k).subset
        assert len(rows) == max(k, 3)
        # the same picks as scoring every chosen point's full row at each step
        a = int(inst.dists_from(0).argmax())
        chosen = [a, int(inst.dists_from(a).argmax())]
        while len(chosen) < k:
            score = sum(inst.dists_from(c) ** q for c in chosen)
            score[chosen] = -np.inf
            chosen.append(int(score.argmax()))
        assert got == tuple(sorted(chosen))


def masked_copy_greedy(inst, k):
    """The greedy loop that scored a copy of the totals with the chosen
    points at -inf at every step."""
    q = inst.q
    a = int(inst.dists_from(0).argmax())
    da = inst.dists_from(a)
    b = int(da.argmax())
    if a == b:
        a, b = 0, 1
        da = inst.dists_from(0)
    chosen = [min(a, b), max(a, b)]
    db = inst.dists_from(b)
    score = (da if q == 1.0 else da ** q) + (db if q == 1.0 else db ** q)
    taken = np.zeros(inst.n, dtype=bool)
    taken[[a, b]] = True
    while len(chosen) < k:
        u = int(np.where(taken, -np.inf, score).argmax())
        chosen.append(u)
        taken[u] = True
        if len(chosen) < k:
            du = inst.dists_from(u)
            score += du if q == 1.0 else du ** q
    return tuple(sorted(chosen))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("layout", ["grid", "coincident", "wide"])
def test_greedy_matches_the_masked_copy_loop(layout, q):
    # integer grids and repeated points tie at every step; on the wide layout
    # totals are inf, where a chosen entry left at -inf would turn nan with a
    # RuntimeWarning
    rng = np.random.default_rng(11)
    for seed in range(4):
        if layout == "grid":
            pts = rng.integers(0, 3, size=(40, 2)).astype(float)
        elif layout == "coincident":
            pts = rng.random((5, 2))[rng.integers(0, 5, 40)]
        else:
            pts = rng.choice([-1.7e308, 1.7e308], size=(40, 2))
        inst = dm.MetricInstance.from_points(pts, norm=("l1", "l2", "linf")[seed % 3], q=q)
        if layout == "wide":
            assert np.isinf(inst.dists_from(0)).any()
        for k in (2, 3, 6, 12, 40):
            got = greedy_clique(inst, k)
            assert got.subset == masked_copy_greedy(inst, k), (seed, k)
            assert len(set(got.subset)) == k


def test_greedy_validation(square):
    with pytest.raises(ValueError, match="2 <= k <= n"):
        greedy_clique(square, 1)
    with pytest.raises(ValueError, match="2 <= k <= n"):
        greedy_clique(square, 9)


@pytest.mark.parametrize("seed", range(8))
def test_greedy_half_approximation_q1(seed):
    inst = dm.gen_uniform(14, 2, seed=seed)
    k = 4 + 2 * (seed % 3)
    opt = brute_force_opt(inst, dm.Objective("clique"), k)
    g = greedy_clique(inst, k)
    assert g.value >= 0.5 * opt.value * (1 - 1e-9)
    assert tol_leq(g.value, opt.value)


def test_estimate_delta_sandwich():
    # the greedy average distance, solve_fast's scale estimate, lies within
    # [opt / 2, opt] of the optimal average
    inst = dm.gen_uniform(14, 2, seed=3)
    k = 5
    opt = brute_force_opt(inst, dm.Objective("clique"), k)
    est = greedy_clique(inst, k).value / math.comb(k, 2)
    avg_opt = opt.value / math.comb(k, 2)
    assert avg_opt / 2.0 * (1 - 1e-9) <= est <= avg_opt * (1 + 1e-9)


# --------------------------------------------- ball structure of the optimum

@pytest.mark.parametrize("kind,coeff", sorted(OUTLIER_RADIUS_COEFF.items()))
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_far_points_belong_to_optimum(kind, coeff, q):
    # let z0 be the q-power star center of an optimal T and D the average
    # distance term of its value; every point farther than coeff * D^(1/q)
    # from z0 must be inside T
    rng = np.random.default_rng(hash((kind, q)) % (2 ** 32))
    for trial in range(6):
        n = 12
        inst = dm.gen_uniform(n, 2, seed=trial * 17 + 5, q=q)
        k = 4
        opt = brute_force_opt(inst, dm.Objective(kind, q), k)
        z0 = star_center(inst, opt.subset)[0]
        avg = opt.value / term_count(kind, k)
        radius = coeff * avg ** (1.0 / q)
        for u in range(n):
            if inst.dist(z0, u) > radius * (1 + 1e-9):
                assert u in opt.subset, (kind, q, trial, u)


@pytest.mark.parametrize("seed", range(6))
def test_outlier_count_and_ball_anchor_q1(seed):
    # q = 1 clique: strictly fewer than k/2 points escape B(z0, 2 * D); and any
    # ball B(u, r) missing fewer than k/2 points has d(z0, u) <= 2 * D + r
    inst = dm.gen_uniform(16, 2, seed=100 + seed)
    k = 6
    opt = brute_force_opt(inst, dm.Objective("clique"), k)
    z0 = star_center(inst, opt.subset)[0]
    avg = opt.value / math.comb(k, 2)
    dz = inst.dists_from(z0)
    assert int((dz > 2.0 * avg * (1 + 1e-9)).sum()) < k / 2
    rng = np.random.default_rng(seed)
    for _ in range(40):
        u = int(rng.integers(16))
        r = float(rng.random()) * 2.0 * avg
        if int((inst.dists_from(u) > r).sum()) < k / 2:
            assert tol_leq(inst.dist(z0, u), 2.0 * avg + r)
