"""Greedy cell decompositions (fixed and variable radius) and the lift to points."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divmax as dm
from divmax import cells, cli, metric
from divmax.cells import decompose_fixed, decompose_variable, lift
from divmax.metric import tol_leq


def line_inst(*xs, q=1.0):
    return dm.MetricInstance.from_points([[float(x)] for x in xs], q=q)


# ------------------------------------------------------------- fixed radius

def test_fixed_line_example():
    inst = line_inst(0.0, 0.4, 1.0)
    dec = decompose_fixed(inst, [0, 1, 2], 0.5)
    assert dec.centers == [0, 2]
    assert dec.points.tolist() == [0, 1, 2]
    assert dec.label.tolist() == [0, 0, 1]
    assert dec.allowance.tolist() == [0.5, 0.5, 0.5]
    assert np.bincount(dec.label).tolist() == [2, 1]


def test_fixed_everything_one_cell():
    inst = line_inst(0.0, 0.1, 0.2)
    dec = decompose_fixed(inst, [0, 1, 2], 1.0)
    assert dec.centers == [0] and dec.label.tolist() == [0, 0, 0]


def test_fixed_zero_radius_singletons():
    inst = line_inst(0.0, 1.0, 2.0)
    dec = decompose_fixed(inst, [0, 1, 2], 0.0)
    assert dec.centers == [0, 1, 2]
    assert dec.label.tolist() == [0, 1, 2]


def test_fixed_zero_radius_merges_coincident():
    inst = dm.MetricInstance.from_points([[0.0], [0.0], [1.0]])
    dec = decompose_fixed(inst, [0, 1, 2], 0.0)
    assert dec.centers == [0, 2] and dec.label.tolist() == [0, 0, 1]


def test_fixed_subset_order_independent_of_listing():
    inst = line_inst(0.0, 0.4, 1.0)
    a = decompose_fixed(inst, [2, 0, 1], 0.5)
    b = decompose_fixed(inst, [0, 1, 2], 0.5)
    assert a.centers == b.centers and a.label.tolist() == b.label.tolist()


def test_non_integer_subset_rejected(square):
    with pytest.raises(ValueError, match="^subset indices must be integers, got float64 values$"):
        decompose_fixed(square, [0.5, 1.5, 2.5], 0.5)
    with pytest.raises(ValueError, match="^subset indices must be integers, got float64 values$"):
        decompose_variable(square, [0.0, 1.0, 2.0], 0, 1.0, 0.5)


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
    for u, j in zip(dec.points.tolist(), dec.label.tolist()):
        assert inst.dist(u, dec.centers[j]) <= delta * (1 + 1e-12)
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
    """The decomposition built one point at a time, as a per-point loop:
    centers, and each point's cell index and admitted radius in ``order``."""
    centers, label, radius_of = [], {}, dict(zip(order, allowance))
    remaining = list(order)
    while remaining:
        c = remaining[0]
        row = inst.dists_from(c)
        rest = []
        for v in remaining:
            if tol_leq(row[v], radius_of[v]):
                label[v] = len(centers)
            else:
                rest.append(v)
        centers.append(c)
        remaining = rest
    return centers, [label[v] for v in order], [radius_of[v] for v in order]


def assert_same_decomposition(dec, order, ref):
    centers, label, allowance = ref
    assert dec.centers == centers
    assert all(type(c) is int for c in dec.centers)
    assert dec.points.tolist() == order
    assert dec.label.tolist() == label
    assert dec.allowance.tolist() == allowance


def layout_case(layout, seed):
    """An instance, fixed radii and the generator its subset is drawn from,
    for one layout.  Integer grids put many distances exactly on the radius;
    scaled layouts have squared gaps that underflow (1e-200) or overflow to
    inf (1e200), or a large common offset."""
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        return dm.gen_uniform(300, 2, seed), (0.02, 0.1, 0.4), rng
    if layout == "clustered":
        inst = dm.gen_clustered(280, 0.05, rng.uniform(-1, 1, (20, 2)).tolist(), seed)
        return inst, (0.02, 0.1, 0.4), rng
    if layout.startswith("grid"):
        _, norm, dim = layout.split("-")
        pts = rng.integers(0, 5, size=(150, int(dim))).astype(float)
        inst = dm.MetricInstance.from_points(pts, norm=norm)
        return inst, (0.0, 1.0, 2.0, 2 ** 0.5, 5 ** 0.5), rng
    if layout == "coincident":
        pts = rng.random((12, 3))[rng.integers(0, 12, 90)]
        return dm.MetricInstance.from_points(pts), (0.0, 0.3), rng
    if layout.startswith("scaled"):
        scale = float(layout.split("-", 1)[1])
        inst = dm.MetricInstance.from_points(rng.random((120, 2)) * scale)
        return inst, (0.0, 0.05 * scale, 0.3 * scale), rng
    if layout == "offset":
        return dm.MetricInstance.from_points(rng.random((120, 2)) + 1e12), (0.0, 0.05, 0.3), rng
    adj = rng.uniform(size=(60, 60)) < 0.4
    adj = np.triu(adj, 1)
    return dm.gen_graph_12metric(adj | adj.T), (0.0, 0.5, 1.0, 2.0), rng


LAYOUTS = (["uniform", "clustered", "coincident", "scaled-1e-200", "scaled-1e200", "offset",
            "graph12"]
           + [f"grid-{norm}-{dim}" for norm in ("l1", "l2", "linf") for dim in range(1, 6)])


# Batch and block sizes under test: batches of 1 and 5 cut through cells, and
# blocks of 1 and 7 cut through the bin keys, the unassigned-point scans, the
# absorb windows of a batch's centers and each center's own runs.  A scan of
# one position makes batches of one, so block 1 runs with batch 1 only.
BATCH_BLOCK = [(batch, block) for batch in (1, 5, cells.BATCH) for block in (1, 7, metric.BLOCK)
               if batch == 1 or block > 1]


def decompositions(monkeypatch, decompose, *args):
    """``decompose(*args)`` at every size in ``BATCH_BLOCK``."""
    for batch, block in BATCH_BLOCK:
        monkeypatch.setattr(cells, "BATCH", batch)
        monkeypatch.setattr(metric, "BLOCK", block)
        yield decompose(*args)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompositions_match_per_point_loop(layout, seed, monkeypatch):
    inst, radii, rng = layout_case(layout, seed)
    n = inst.n
    sub = sorted(int(i) for i in rng.choice(n, size=n // 2, replace=False))
    for subset, order in ((None, list(range(n))), (sub, sub)):
        for delta in radii:
            ref = reference_greedy(inst, order, [delta] * len(order))
            for dec in decompositions(monkeypatch, decompose_fixed, inst, subset, delta):
                assert_same_decomposition(dec, order, ref)
            if layout != "scaled-1e200":  # distances overflow to inf there
                dec.check(inst)
        z = order[len(order) // 3]
        dz = inst.dists_from(z)
        for base in (0.02, radii[1]):
            for delta in (0.05, 0.3, 1.0):
                allow = [delta * max(base, float(dz[v]) / 2.0) for v in order]
                ref = reference_greedy(inst, order, allow)
                for dec in decompositions(monkeypatch, decompose_variable, inst, subset, z,
                                          base, delta):
                    assert_same_decomposition(dec, order, ref)
                if layout != "scaled-1e200":
                    dec.check(inst)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from(["l1", "l2", "linf"]),
       st.sampled_from(["points", "coincident", "graph12"]), st.booleans(),
       st.sampled_from(BATCH_BLOCK))
def test_batched_greedy_matches_reference(seed, dim, norm, layout, variable, sizes):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 90))
    if layout == "graph12":
        adj = np.triu(rng.uniform(size=(n, n)) < rng.uniform(0.1, 0.9), 1)
        inst = dm.gen_graph_12metric(adj | adj.T)
        radii = (0.0, 1.0, 1.5, 2.0)
    else:
        pts = rng.random((n, dim))
        if layout == "coincident":
            pts = pts[rng.integers(0, max(1, n // 6), n)]
        inst = dm.MetricInstance.from_points(pts, norm=norm)
        radii = (0.0, 0.05, 0.2, 0.6)
    subset = sorted(int(i) for i in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                               replace=False))
    delta = radii[int(rng.integers(len(radii)))]
    cells.BATCH, metric.BLOCK = sizes
    try:
        if variable:
            z = subset[int(rng.integers(len(subset)))]
            dz = inst.dists_from(z)
            dec = decompose_variable(inst, subset, z, 0.1, delta)
            allow = [delta * max(0.1, float(dz[v]) / 2.0) for v in subset]
        else:
            dec = decompose_fixed(inst, subset, delta)
            allow = [delta] * len(subset)
    finally:
        cells.BATCH, metric.BLOCK = BATCH_BLOCK[-1]
    assert_same_decomposition(dec, subset, reference_greedy(inst, subset, allow))


def test_sweep_reaches_points_admitted_by_the_tolerance(monkeypatch):
    # the center sits 1e-10 below a bin edge at width 1, and the third point
    # lies 1 + 5e-10 from it, inside tol_leq's slack but beyond the next bin;
    # in the plane the same holds along the second coordinate
    line = line_inst(1.0 - 1e-10, 2.0 + 4e-10, 0.0)
    plane = dm.MetricInstance.from_points([[0.0, 1.0 - 1e-10], [0.0, 2.0 + 4e-10],
                                           [0.0, 0.0]])
    for inst in (line, plane):
        for dec in decompositions(monkeypatch, decompose_fixed, inst, None, 1.0):
            assert dec.centers == [0] and dec.label.tolist() == [0, 0, 0]


def test_sweep_scans_a_small_share_of_the_unassigned_points(monkeypatch):
    # a scan of every unassigned point would read, for each center, all the
    # points of its own and all later cells
    inst = dm.gen_uniform(20000, 2, seed=0)
    read = []
    dists = dm.MetricInstance.dists

    def spy(self, *args):
        d = dists(self, *args)
        read.append(d.size)
        return d

    monkeypatch.setattr(dm.MetricInstance, "dists", spy)
    dec = decompose_fixed(inst, None, 0.02)
    sizes = np.bincount(dec.label)
    rescans = int((inst.n - np.cumsum(sizes) + sizes).sum())
    assert len(dec.centers) > 100 and len(read) < len(dec.centers) / 10
    assert sum(read) < 0.03 * rescans


def test_decomposition_peak_memory_stays_below_the_sweeps():
    # the blocked passes peak at 4189214 bytes on this instance and radius
    # (numpy 2.4): four arrays of n integers (points, labels, the sweep order
    # and its keys) and block-sized scratch.  Whole-array temporaries took
    # 6939394, and the single-coordinate sweep before them 7402448
    inst = cli._scaling_instance(80_000, 1237)
    decompose_fixed(inst, None, 0.06)  # first-call allocations are not the loop's
    tracemalloc.start()
    try:
        dec = decompose_fixed(inst, None, 0.06)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dec.centers) == 4 and peak <= 4_300_000


def test_nan_allowance_makes_its_own_center():
    # a nan allowance admits nothing, not even the point itself; such a point
    # still opens its own cell rather than being scanned forever
    inst = dm.MetricInstance.from_points([[0.0, 0.0], [1e200, 1e200], [1e200, 2e200]])
    order = np.arange(3)
    dec = cells._greedy(inst, order, np.array([0.0, np.nan, np.nan]))
    assert dec.centers == [0, 1, 2] and dec.label.tolist() == [0, 1, 2]


def test_zero_delta_admits_radius_zero():
    # delta 0 admits radius 0 even where the anchor distance overflows to
    # inf; 0 * inf would be a nan allowance that check rejects
    inst = dm.MetricInstance.from_points([[0.0, 0.0], [1e200, 1e200], [1e200, 2e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dec = decompose_variable(inst, None, 0, 1.0, 0.0)
        dec.check(inst)
    assert dec.allowance.tolist() == [0.0, 0.0, 0.0]
    fixed = decompose_fixed(inst, None, 0.0)
    assert dec.centers == fixed.centers and dec.label.tolist() == fixed.label.tolist()


def test_radius_must_be_a_number(square):
    with pytest.raises(ValueError, match="radius"):
        decompose_fixed(square, range(4), float("nan"))
    with pytest.raises(ValueError, match="base"):
        decompose_variable(square, range(4), 0, float("nan"), 0.5)
    with pytest.raises(ValueError, match="delta"):
        decompose_variable(square, range(4), 0, 1.0, float("nan"))


# ---------------------------------------------------------- variable radius

def test_variable_two_points_far_apart():
    # allowance at v is delta * max(base, d(z, v) / 2); with base 1, delta 0.1
    # the point at 10 gets allowance 0.5 < 10, so it opens its own cell
    inst = line_inst(0.0, 10.0)
    dec = decompose_variable(inst, [0, 1], z=0, base=1.0, delta=0.1)
    assert dec.centers == [0, 1]
    assert dec.allowance.tolist() == pytest.approx([0.1, 0.5])


def test_variable_growing_allowance_merges_far_points():
    # same layout, delta 3: the far point's allowance 15 covers distance 10
    inst = line_inst(0.0, 10.0)
    dec = decompose_variable(inst, [0, 1], z=0, base=1.0, delta=3.0)
    assert dec.centers == [0] and dec.label.tolist() == [0, 0]


def test_variable_allowance_formula():
    inst = line_inst(0.0, 1.0, 6.0)
    dec = decompose_variable(inst, [0, 1, 2], z=0, base=2.0, delta=0.5)
    # 0.5 * max(2, 0), 0.5 * max(2, 0.5), 0.5 * max(2, 3)
    assert dec.allowance.tolist() == pytest.approx([1.0, 1.0, 1.5])
    assert dec.label[1] == 0  # allowance 1.0 >= d(0,1)


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
    for u, j in zip(dec.points.tolist(), dec.label.tolist()):
        allowance = delta * max(0.3, inst.dist(z, u) / 2.0)
        assert inst.dist(u, dec.centers[j]) <= allowance * (1 + 1e-12)
    assert dec.points.tolist() == sub


def test_decomposition_determinism(square):
    a = decompose_fixed(square, range(4), 0.7)
    b = decompose_fixed(square, range(4), 0.7)
    assert a.centers == b.centers and a.label.tolist() == b.label.tolist()


# ------------------------------------------------- projection and the lift

def centers_of(dec):
    """Each decomposed point's cell center, the rounding map of the solvers."""
    return np.asarray(dec.centers)[dec.label].tolist()


def test_project_full_cell_single_center():
    inst = line_inst(0.0, 0.1, 0.2)
    dec = decompose_fixed(inst, [0, 1, 2], 1.0)
    assert centers_of(dec) == [0, 0, 0]
    assert lift(dec.points, dec.label, [3]).tolist() == [0, 1, 2]
    # a count above the cell size takes the whole cell
    assert lift(dec.points, dec.label, [5]).tolist() == [0, 1, 2]


def test_project_spec_shape():
    inst = line_inst(0.0, 0.4, 1.0)
    dec = decompose_fixed(inst, [0, 1, 2], 0.5)
    assert centers_of(dec) == [0, 0, 2]
    assert lift(dec.points, dec.label, [1, 1]).tolist() == [0, 2]
    assert lift(dec.points, dec.label, [2, 0]).tolist() == [0, 1]
    assert lift(dec.points, dec.label, [0, 0]).tolist() == []


def test_project_preserves_creation_order():
    # labels index centers in creation order, and the lowest index is
    # scanned first regardless of listing
    inst = dm.MetricInstance.from_points([[0.0], [5.0], [4.9], [0.1]])
    dec = decompose_fixed(inst, [1, 2, 3, 0], 0.5)
    assert dec.centers == [0, 1]
    assert centers_of(dec) == [0, 1, 1, 0]
    assert lift(dec.points, dec.label, [1, 2]).tolist() == [0, 1, 2]
    assert lift(dec.points, dec.label, [2, 1]).tolist() == [0, 1, 3]


@settings(max_examples=80)
@given(st.lists(st.integers(0, 5), max_size=40), st.data())
def test_lift_matches_per_cell_loop(labels, data):
    cells = max(labels, default=-1) + 1
    sizes = [labels.count(j) for j in range(cells)]
    counts = [data.draw(st.integers(0, s)) for s in sizes]
    items = sorted(data.draw(st.sets(st.integers(0, 1000), min_size=len(labels),
                                     max_size=len(labels))))
    expected = []
    for j, m in enumerate(counts):
        expected.extend([v for v, c in zip(items, labels) if c == j][:m])
    got = lift(np.array(items, dtype=np.int64), np.array(labels, dtype=np.int64), counts)
    assert got.tolist() == sorted(expected)
