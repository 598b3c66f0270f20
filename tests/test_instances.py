"""Instance generators: uniform, clustered, graph metric, subset-sum gadget."""
import math

import numpy as np
import pytest

import divmax as dm
from divmax.instances import (KSumInstance, gen_graph_12metric, gen_ksum_reduction,
                              verify_reduction, zero_sum_subset_exists)


# --------------------------------------------------------------- generators

def test_gen_uniform_shape_and_bounds():
    inst = dm.gen_uniform(20, 3, seed=1)
    assert inst.n == 20 and inst.dim == 3 and inst.q == 1.0
    assert (inst.points >= 0.0).all() and (inst.points <= 1.0).all()
    assert dm.gen_uniform(5, 2, seed=9, q=2.5).q == 2.5


def test_gen_uniform_seeded():
    a = dm.gen_uniform(10, 2, seed=4)
    b = dm.gen_uniform(10, 2, seed=4)
    c = dm.gen_uniform(10, 2, seed=5)
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_gen_uniform_validation():
    with pytest.raises(ValueError):
        dm.gen_uniform(1, 2, seed=0)
    with pytest.raises(ValueError):
        dm.gen_uniform(5, 0, seed=0)


def test_gen_clustered_layout():
    outs = [[5.0, 0.0], [0.0, 6.0]]
    inst = dm.gen_clustered(8, 0.1, outs, seed=2)
    assert inst.n == 10
    assert (np.linalg.norm(inst.points[:8], axis=1) <= 0.1 + 1e-12).all()
    np.testing.assert_array_equal(inst.points[8:], np.array(outs))


def test_gen_clustered_outliers_dominate_clique():
    inst = dm.gen_clustered(8, 0.01, [[4.0, 0.0], [0.0, 4.0], [-4.0, -4.0]], seed=7)
    opt = dm.brute_force_opt(inst, dm.Objective("clique"), 4)
    assert {8, 9, 10} <= set(opt.subset)


def test_gen_clustered_validation():
    with pytest.raises(ValueError, match="dimension"):
        dm.gen_clustered(4, 0.1, [[1.0], [1.0, 2.0]], seed=0)
    with pytest.raises(ValueError, match="disagrees"):
        dm.gen_clustered(4, 0.1, [[1.0]], seed=0, d=2)
    with pytest.raises(ValueError, match="radius"):
        dm.gen_clustered(4, -0.5, [], seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        dm.gen_clustered(1, 0.1, [], seed=0)


# ------------------------------------------------------------- graph metric

def test_graph12_complete_graph():
    n = 4
    adj = ~np.eye(n, dtype=bool)
    inst = gen_graph_12metric(adj)
    # all pairs adjacent -> all distances 2 -> any 3-set has clique value 6
    assert dm.evaluate(inst, dm.Objective("clique"), [0, 1, 2]) == pytest.approx(6.0)
    assert inst.dist(0, 3) == 2.0


def test_graph12_empty_graph():
    inst = gen_graph_12metric(np.zeros((5, 5), dtype=bool))
    d = inst.matrix
    assert (d[~np.eye(5, dtype=bool)] == 1.0).all()
    assert (np.diag(d) == 0.0).all()


def test_graph12_edges_are_far_pairs():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    inst = gen_graph_12metric(adj)
    assert inst.dist(0, 1) == 2.0
    assert inst.dist(0, 2) == 1.0
    # a triangle-free graph metric still satisfies the triangle inequality
    dm.MetricInstance.from_matrix(inst.matrix, validate=True)


def test_graph12_max_clique_detection():
    # path 0-1-2 plus isolated 3: the largest spread 3-set needs 2 edges
    adj = np.zeros((4, 4), dtype=bool)
    for a, b in ((0, 1), (1, 2)):
        adj[a, b] = adj[b, a] = True
    inst = gen_graph_12metric(adj)
    opt = dm.brute_force_opt(inst, dm.Objective("clique"), 3)
    # {0,1,2} has edges 01, 12 -> value 2+2+1 = 5; no triangle exists
    assert opt.value == pytest.approx(5.0) and opt.subset == (0, 1, 2)


def test_graph12_validation():
    with pytest.raises(ValueError, match="square"):
        gen_graph_12metric(np.zeros((2, 3), dtype=bool))
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True
    with pytest.raises(ValueError, match="symmetric"):
        gen_graph_12metric(bad)
    loop = np.zeros((3, 3), dtype=bool)
    loop[1, 1] = True
    with pytest.raises(ValueError, match="diagonal"):
        gen_graph_12metric(loop)
    # validate=False skips the checks and symmetrizes nothing
    gen_graph_12metric(np.zeros((3, 3), dtype=bool), validate=False)


# ----------------------------------------------------------- subset-sum gadget

def test_ksum_instance_validation():
    with pytest.raises(ValueError, match="k must be positive"):
        KSumInstance((1, 2), 0, 2)
    with pytest.raises(ValueError, match="t must be positive"):
        KSumInstance((1, 2), 2, 0)
    with pytest.raises(ValueError, match="at least k"):
        KSumInstance((1,), 2, 2)
    with pytest.raises(ValueError, match="exceed the bound"):
        KSumInstance((1, 5), 2, 2)


def test_ksum_gadget_geometry():
    ks = KSumInstance((-2, 1, 3), 2, 3)
    inst = gen_ksum_reduction(ks)
    assert inst.n == 6 and inst.q == 2.0
    norms = np.linalg.norm(inst.points, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # left block first (negative x), right block second (positive x)
    assert (inst.points[:3, 0] < 0).all() and (inst.points[3:, 0] > 0).all()
    # left carries the scaled value in y, right in z
    scale = 3 * math.sqrt(2)
    np.testing.assert_allclose(inst.points[:3, 1], np.array([-2, 1, 3]) / scale)
    np.testing.assert_allclose(inst.points[:3, 2], 0.0)
    np.testing.assert_allclose(inst.points[3:, 1], 0.0)
    np.testing.assert_allclose(inst.points[3:, 2], np.array([-2, 1, 3]) / scale)


def test_ksum_x_components_large():
    # |m| <= t forces m'^2 <= 1/K, so every x component is at least sqrt(1-1/K)
    ks = KSumInstance((-3, -1, 2, 3), 3, 3)
    inst = gen_ksum_reduction(ks)
    assert (np.abs(inst.points[:, 0]) >= math.sqrt(1 - 1 / 3) - 1e-12).all()


def test_zero_sum_subset_exists():
    assert zero_sum_subset_exists([-1, 1], 2)
    assert not zero_sum_subset_exists([1, 2], 2)
    assert zero_sum_subset_exists([-2, -1, 3], 3)
    assert not zero_sum_subset_exists([-2, -1, 3], 2)
    # repetition across indices counts
    assert zero_sum_subset_exists([1, -1, 1], 2)
    assert zero_sum_subset_exists([0, 5], 1)


def test_verify_reduction_positive_cases():
    v = verify_reduction(KSumInstance((-1, 1), 2, 1))
    assert v.zero_sum_exists and v.k == 4
    assert v.max_clique_sq == pytest.approx(16.0)
    assert v.equivalence_ok and v.gap_ok and v.passed

    v = verify_reduction(KSumInstance((-2, -1, 3), 3, 3))
    assert v.zero_sum_exists and v.k == 6
    assert v.max_clique_sq == pytest.approx(36.0)
    assert v.passed


def test_verify_reduction_negative_cases():
    v = verify_reduction(KSumInstance((1, 2), 2, 2))
    assert not v.zero_sum_exists
    assert v.max_clique_sq < 16.0
    assert v.equivalence_ok and v.gap_ok

    v = verify_reduction(KSumInstance((1, 2, 3), 2, 3))
    assert not v.zero_sum_exists and v.passed


def test_verify_reduction_duplicate_values():
    v = verify_reduction(KSumInstance((1, -1, 1), 2, 1))
    assert v.zero_sum_exists and v.passed


def test_verify_reduction_accepts_prebuilt_instance():
    ks = KSumInstance((-1, 1), 2, 1)
    inst = gen_ksum_reduction(ks)
    v = verify_reduction(ks, inst)
    assert v.passed


def test_verify_reduction_detects_tampering():
    # shrink one coordinate so the ceiling becomes unreachable although a
    # zero-sum subset exists; the verdict must flag the mismatch
    ks = KSumInstance((-1, 1), 2, 1)
    inst = gen_ksum_reduction(ks)
    pts = inst.points.copy()
    pts[0] *= 0.9
    broken = dm.MetricInstance.from_points(pts, q=2.0)
    v = verify_reduction(ks, broken)
    assert not v.equivalence_ok and not v.passed


@pytest.mark.parametrize("seed", range(5))
def test_verify_reduction_random(seed):
    rng = np.random.default_rng(seed)
    t = 4
    vals = tuple(int(v) for v in rng.integers(-t, t + 1, size=7))
    k = int(rng.integers(2, 4))
    v = verify_reduction(KSumInstance(vals, k, t))
    assert v.passed
