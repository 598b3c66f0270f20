"""Greedy cell decompositions (fixed and variable radius) and multiset projection."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divmax as dm
from divmax.cells import decompose_fixed, decompose_variable, project_multiset
from divmax.metric import tol_leq


def line_inst(*xs, q=1.0):
    return dm.MetricInstance.from_points([[float(x)] for x in xs], q=q)


# ------------------------------------------------------------- fixed radius

def test_fixed_line_example():
    inst = line_inst(0.0, 0.4, 1.0)
    dec = decompose_fixed(inst, [0, 1, 2], 0.5)
    assert dec.centers == [0, 2]
    assert dec.assign == {0: 0, 1: 0, 2: 2}
    assert dec.members == {0: [0, 1], 2: [2]}
    assert dec.radius_of[0] == dec.radius_of[1] == dec.radius_of[2] == 0.5
    assert dec.cell_size(0) == 2 and dec.cell_size(2) == 1


def test_fixed_everything_one_cell():
    inst = line_inst(0.0, 0.1, 0.2)
    dec = decompose_fixed(inst, [0, 1, 2], 1.0)
    assert dec.centers == [0] and dec.cell_size(0) == 3


def test_fixed_zero_radius_singletons():
    inst = line_inst(0.0, 1.0, 2.0)
    dec = decompose_fixed(inst, [0, 1, 2], 0.0)
    assert dec.centers == [0, 1, 2]
    assert all(dec.cell_size(c) == 1 for c in dec.centers)


def test_fixed_zero_radius_merges_coincident():
    inst = dm.MetricInstance.from_points([[0.0], [0.0], [1.0]])
    dec = decompose_fixed(inst, [0, 1, 2], 0.0)
    assert dec.centers == [0, 2] and dec.members[0] == [0, 1]


def test_fixed_subset_order_independent_of_listing():
    inst = line_inst(0.0, 0.4, 1.0)
    a = decompose_fixed(inst, [2, 0, 1], 0.5)
    b = decompose_fixed(inst, [0, 1, 2], 0.5)
    assert a.centers == b.centers and a.assign == b.assign


def test_fixed_negative_radius_rejected(square):
    with pytest.raises(ValueError, match="radius"):
        decompose_fixed(square, range(4), -0.1)


def test_fixed_check_validates_net(square):
    dec = decompose_fixed(square, range(4), 1.2)
    dec.check(square)
    assert dec.centers == [0, 3]  # 0 grabs 1 and 2; the far corner remains


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 2.0))
def test_fixed_is_a_net(seed, delta):
    # every point within delta of its center; centers pairwise > delta apart
    rng = np.random.default_rng(seed)
    inst = dm.MetricInstance.from_points(rng.random((18, 2)))
    dec = decompose_fixed(inst, range(18), delta)
    dec.check(inst)
    for u, c in dec.assign.items():
        assert inst.dist(u, c) <= delta * (1 + 1e-12)
    cs = dec.centers
    for i, a in enumerate(cs):
        for b in cs[i + 1:]:
            assert inst.dist(a, b) > delta * (1 - 1e-12)


def test_fixed_interval_packing_bound():
    # on a segment of length L a greedy delta-net has at most L/delta + 1 cells
    rng = np.random.default_rng(3)
    xs = np.sort(rng.random(60)) * 4.0
    inst = dm.MetricInstance.from_points(xs[:, None])
    for delta in (0.25, 0.5, 1.0):
        dec = decompose_fixed(inst, range(60), delta)
        assert len(dec.centers) <= math.ceil(4.0 / delta) + 1


def reference_greedy(inst, order, allowance):
    """The decomposition built one point at a time, as a per-point loop."""
    centers, assign, radius_of, members = [], {}, {}, {}
    remaining = list(zip(order, allowance))
    while remaining:
        c = remaining[0][0]
        centers.append(c)
        members[c] = []
        row = inst.dists_from(c)
        rest = []
        for v, r in remaining:
            if tol_leq(row[v], r):
                assign[v] = c
                radius_of[v] = r
                members[c].append(v)
            else:
                rest.append((v, r))
        remaining = rest
    return centers, assign, radius_of, members


def assert_same_decomposition(dec, ref):
    centers, assign, radius_of, members = ref
    assert dec.centers == centers
    assert list(dec.assign.items()) == list(assign.items())
    assert list(dec.radius_of.items()) == list(radius_of.items())
    assert list(dec.members.items()) == list(members.items())
    assert all(type(v) is int for m in dec.members.values() for v in m)
    assert all(type(r) is float for r in dec.radius_of.values())


@pytest.mark.parametrize("layout", ["uniform", "clustered"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompositions_match_per_point_loop(layout, seed):
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        inst = dm.gen_uniform(300, 2, seed)
    else:
        inst = dm.gen_clustered(280, 0.05, rng.uniform(-1, 1, (20, 2)).tolist(), seed)
    n = inst.n
    sub = sorted(int(i) for i in rng.choice(n, size=n // 2, replace=False))
    for subset, order in ((None, list(range(n))), (sub, sub)):
        for delta in (0.02, 0.1, 0.4):
            dec = decompose_fixed(inst, subset, delta)
            assert_same_decomposition(dec, reference_greedy(inst, order, [delta] * len(order)))
            dec.check(inst)
        z = order[len(order) // 3]
        dz = inst.dists_from(z)
        for delta in (0.05, 0.3):
            dec = decompose_variable(inst, subset, z, 0.02, delta)
            allow = [delta * max(0.02, float(dz[v]) / 2.0) for v in order]
            assert_same_decomposition(dec, reference_greedy(inst, order, allow))
            dec.check(inst)


# ---------------------------------------------------------- variable radius

def test_variable_two_points_far_apart():
    # allowance at v is delta * max(base, d(z, v) / 2); with base 1, delta 0.1
    # the point at 10 gets allowance 0.5 < 10, so it opens its own cell
    inst = line_inst(0.0, 10.0)
    dec = decompose_variable(inst, [0, 1], z=0, base=1.0, delta=0.1)
    assert dec.centers == [0, 1]
    assert dec.radius_of[0] == pytest.approx(0.1)
    assert dec.radius_of[1] == pytest.approx(0.5)


def test_variable_growing_allowance_merges_far_points():
    # same layout, delta 3: the far point's allowance 15 covers distance 10
    inst = line_inst(0.0, 10.0)
    dec = decompose_variable(inst, [0, 1], z=0, base=1.0, delta=3.0)
    assert dec.centers == [0] and dec.cell_size(0) == 2


def test_variable_allowance_formula():
    inst = line_inst(0.0, 1.0, 6.0)
    dec = decompose_variable(inst, [0, 1, 2], z=0, base=2.0, delta=0.5)
    assert dec.radius_of[0] == pytest.approx(1.0)        # 0.5 * max(2, 0)
    assert dec.radius_of[1] == pytest.approx(1.0)        # 0.5 * max(2, 0.5)
    assert dec.radius_of[2] == pytest.approx(1.5)        # 0.5 * max(2, 3)
    assert dec.assign[1] == 0  # allowance 1.0 >= d(0,1)


def test_variable_z_must_be_inside():
    inst = line_inst(0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="anchor"):
        decompose_variable(inst, [0, 1], z=2, base=1.0, delta=0.1)
    with pytest.raises(ValueError, match="base"):
        decompose_variable(inst, [0, 1], z=0, base=0.0, delta=0.1)


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 1.0))
def test_variable_membership_within_allowance(seed, delta):
    rng = np.random.default_rng(seed)
    inst = dm.MetricInstance.from_points(rng.random((14, 2)) * 3.0)
    sub = sorted(int(i) for i in rng.choice(14, size=8, replace=False))
    z = sub[0]
    dec = decompose_variable(inst, sub, z=z, base=0.3, delta=delta)
    dec.check(inst)
    for u, c in dec.assign.items():
        allowance = delta * max(0.3, inst.dist(z, u) / 2.0)
        assert inst.dist(u, c) <= allowance * (1 + 1e-12)
    assert set(dec.assign) == set(sub)


def test_decomposition_determinism(square):
    a = decompose_fixed(square, range(4), 0.7)
    b = decompose_fixed(square, range(4), 0.7)
    assert a.centers == b.centers and a.assign == b.assign and a.members == b.members


# --------------------------------------------------------------- projection

def test_project_full_cell_single_center():
    inst = line_inst(0.0, 0.1, 0.2)
    dec = decompose_fixed(inst, [0, 1, 2], 1.0)
    mv = project_multiset(dec, [0, 1, 2])
    assert mv.centers == (0,) and mv.mult == (3,)


def test_project_spec_shape():
    inst = line_inst(0.0, 0.4, 1.0)
    dec = decompose_fixed(inst, [0, 1, 2], 0.5)
    mv = project_multiset(dec, [1, 2])
    assert mv.centers == (0, 2) and mv.mult == (1, 1)
    mv = project_multiset(dec, [0, 1])
    assert mv.centers == (0,) and mv.mult == (2,)


def test_project_empty_subset():
    inst = line_inst(0.0, 1.0)
    dec = decompose_fixed(inst, [0, 1], 0.1)
    mv = project_multiset(dec, [])
    assert mv.centers == () and mv.mult == () and mv.size == 0


def test_project_respects_repetition():
    inst = line_inst(0.0, 0.4, 1.0)
    dec = decompose_fixed(inst, [0, 1, 2], 0.5)
    mv = project_multiset(dec, [1, 1, 2])
    assert mv.centers == (0, 2) and mv.mult == (2, 1)
    assert mv.size == 3 and mv.expand() == [0, 0, 2]


def test_project_outside_point_rejected():
    inst = line_inst(0.0, 0.4, 1.0)
    dec = decompose_fixed(inst, [0, 1], 0.5)
    with pytest.raises(ValueError, match="point 2 is not in the decomposition"):
        project_multiset(dec, [2])


def test_project_preserves_creation_order():
    # centers appear in decomposition creation order, not index order
    inst = dm.MetricInstance.from_points([[0.0], [5.0], [4.9]])
    dec = decompose_fixed(inst, [1, 2, 0], 0.5)
    assert dec.centers[0] == 0  # lowest index scanned first regardless of listing
    mv = project_multiset(dec, [0, 1, 2])
    assert list(mv.centers) == dec.centers
    assert sum(mv.mult) == 3
