"""Distance backends, power distances, diameter estimate, balls, and file I/O."""
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import divmax as dm
from divmax import metric
from divmax.errors import InstanceParseError, MetricValidationError
from divmax.metric import NORMS, REL_TOL, tol_leq

from conftest import exact_diameter

ROOT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- distances

def test_dist_pythagorean():
    inst = dm.MetricInstance.from_points([[0.0, 0.0], [3.0, 4.0]])
    assert inst.dist(0, 1) == pytest.approx(5.0)
    assert inst.dist(1, 0) == pytest.approx(5.0)


def test_dist_self_is_zero(square):
    for u in range(square.n):
        assert square.dist(u, u) == 0.0


def test_matrix_lookup():
    inst = dm.MetricInstance.from_matrix([[0.0, 2.0], [2.0, 0.0]])
    assert inst.dist(0, 1) == 2.0


def test_dist_pow_values():
    inst = dm.MetricInstance.from_matrix([[0.0, 3.0], [3.0, 0.0]], q=2.0)
    assert inst.dist_pow(0, 1) == pytest.approx(9.0)
    assert inst.with_q(1.0).dist_pow(0, 1) == pytest.approx(3.0)
    two = dm.MetricInstance.from_matrix([[0.0, 2.0], [2.0, 0.0]], q=1.5)
    assert two.dist_pow(0, 1) == pytest.approx(2.8284271247461903)


def test_l1_and_linf_norms():
    pts = [[0.0, 0.0], [3.0, 4.0]]
    assert dm.MetricInstance.from_points(pts, norm="l1").dist(0, 1) == pytest.approx(7.0)
    assert dm.MetricInstance.from_points(pts, norm="linf").dist(0, 1) == pytest.approx(4.0)
    with pytest.raises(ValueError, match="unknown norm"):
        dm.MetricInstance.from_points(pts, norm="cosine")


def test_index_out_of_range(square):
    with pytest.raises(IndexError):
        square.dist(0, 4)
    with pytest.raises(IndexError):
        square.dists_from(-1)


def test_check_indices_returns_int64_and_refuses_non_integers(square):
    got = metric.check_indices(square, (i for i in [3, 0, 3]))  # read once
    assert got.dtype == np.int64 and got.tolist() == [3, 0, 3]
    assert metric.check_indices(square, np.array([1, 2], dtype=np.uint8)).dtype == np.int64
    assert metric.check_indices(square, []).dtype == np.int64
    for bad in ([0.9, 1.7], np.array([1.0, 2.0]), ["1"], [True, False]):
        with pytest.raises(ValueError, match="^subset indices must be integers"):
            metric.check_indices(square, bad)


@given(st.lists(st.integers(0, 9), max_size=40))
def test_sorted_support_matches_unique(idx):
    support, mult = metric.sorted_support(np.array(idx, dtype=np.int64))
    want = np.unique(np.array(idx, dtype=np.int64), return_counts=True)
    assert support.dtype == np.int64 and mult.dtype == want[1].dtype
    assert (support.tolist(), mult.tolist()) == (want[0].tolist(), want[1].tolist())


def test_construction_validation():
    with pytest.raises(ValueError, match="at least 2"):
        dm.MetricInstance.from_points([[0.0, 0.0]])
    with pytest.raises(ValueError, match="q must be >= 1"):
        dm.MetricInstance.from_points([[0.0], [1.0]], q=0.5)
    with pytest.raises(ValueError, match="square"):
        dm.MetricInstance.from_matrix([[0.0, 1.0]])
    with pytest.raises(ValueError, match="2-d"):
        dm.MetricInstance.from_points([0.0, 1.0])
    with pytest.raises(ValueError, match="D >= 1"):
        dm.MetricInstance.from_points(np.zeros((3, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError, match=r"coordinate values must be finite, got .* at \(1, 0\)"):
        dm.MetricInstance.from_points([[0.0, 0.0], [bad, 1.0]])
    with pytest.raises(ValueError, match=r"distance values must be finite, got .* at \(0, 1\)"):
        dm.MetricInstance.from_matrix([[0.0, bad], [1.0, 0.0]])


def test_with_q_shares_backend(square):
    q2 = square.with_q(2.0)
    assert q2.q == 2.0 and q2.points is square.points
    assert q2.dist_pow(0, 3) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        square.with_q(0.0)


def test_pow_submatrix_matches_dist_pow():
    rng = np.random.default_rng(5)
    inst = dm.MetricInstance.from_points(rng.uniform(size=(7, 3)), q=1.5)
    idx = [1, 3, 6]
    sub = inst.pow_submatrix(idx)
    for a, u in enumerate(idx):
        for b, v in enumerate(idx):
            assert sub[a, b] == pytest.approx(inst.dist_pow(u, v), rel=1e-12)
    full = inst.pow_matrix()
    assert full is inst.pow_matrix()  # cached
    assert full[1, 3] == pytest.approx(inst.dist_pow(1, 3), rel=1e-12)


@pytest.mark.parametrize("backend", ("points", "matrix"))
@pytest.mark.parametrize("q", (1.0, 2.0))
def test_rectangular_pow_submatrix_is_a_slice(backend, q):
    rng = np.random.default_rng(int(q))
    pts = dm.MetricInstance.from_points(rng.uniform(size=(12, 3)), q=q)
    inst = pts if backend == "points" else dm.MetricInstance.from_matrix(
        pts.with_q(1.0).pow_matrix(), q=q)
    square = inst.pow_submatrix(np.arange(12))
    for _ in range(10):
        rows = rng.choice(12, size=int(rng.integers(1, 8)))
        cols = rng.choice(12, size=int(rng.integers(1, 8)))
        np.testing.assert_array_equal(inst.pow_submatrix(rows, cols),
                                      square[np.ix_(rows, cols)])


@pytest.mark.parametrize("norm", NORMS)
def test_overflowing_differences_give_inf_silently(norm):
    # a difference or its square past the largest float is an inf distance,
    # and the kernel raises no RuntimeWarning for it
    huge = [[-1.7e308, 0.0], [1.7e308, 0.0], [1.7e308, 1e200]]
    inst = dm.MetricInstance.from_points(huge, norm=norm)
    assert inst.wide
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isinf(inst.dists_from(0)[1:]).all()
        assert np.isinf(inst.pow_submatrix([0], [1, 2])).all()
        assert (inst.dists(np.array([0, 2]), np.array([1, 0])) == np.inf).all()
        assert inst.dist(1, 2) == (np.inf if norm == "l2" else 1e200)  # 1e200 squared
    # below 2**500 no distance overflows, so the kernel needs no errstate
    tame = dm.MetricInstance.from_points([[-(2.0 ** 499), 2.0 ** 499], [2.0 ** 499, -(2.0 ** 499)]],
                                         norm=norm)
    assert not tame.wide and np.isfinite(tame.pow_matrix()).all()


def blocked_rows(inst, block, monkeypatch):
    """Each point's ``dists_from`` row, all points and a shuffled target list,
    and its ``tol_leq`` mask, computed with ``metric.BLOCK`` set to ``block``."""
    monkeypatch.setattr(metric, "BLOCK", block)
    targets = np.random.default_rng(inst.n).permutation(inst.n)
    rows = []
    for u in (0, inst.n // 2, inst.n - 1):
        row = inst.dists_from(u)
        rows += [row, inst.dists_from(u, targets), tol_leq(row, np.sort(row)[inst.n // 2])]
    return [r.tobytes() for r in rows]


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("wide", [False, True])
def test_blocked_rows_keep_the_bits(monkeypatch, norm, wide):
    # a row of one point against more than BLOCK others is filled BLOCK
    # entries at a time through the same kernel, so its bits are those of one
    # call; on a wide instance the overflowing entries stay inf and silent
    rng = np.random.default_rng(7)
    for block, sizes in ((5, (4, 5, 6, 11)), (metric.BLOCK, (metric.BLOCK - 1, metric.BLOCK,
                                                           metric.BLOCK + 1))):
        for n in sizes:
            pts = rng.uniform(-1.0, 1.0, (n, 3)) * (1.7e308 if wide else 1.0)
            inst = dm.MetricInstance.from_points(pts, norm=norm)
            assert inst.wide == wide
            whole = blocked_rows(inst, n + 1, monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert blocked_rows(inst, block, monkeypatch) == whole
            assert not wide or np.isinf(inst.dists_from(0)).any()


def test_dists_from_targets(line4):
    np.testing.assert_allclose(line4.dists_from(0, [3, 1]), [3.0, 1.0])


def test_dists_pairs_rows_with_cols(line4, square):
    # dists pairs its index arrays elementwise with the bits of dist and
    # dists_from; a full matrix row comes back as a copy, not a view
    matrix = dm.MetricInstance.from_matrix(square.pow_matrix())
    for inst in (line4, square, matrix):
        rows, cols = np.array([0, 3, 1, 2]), np.array([3, 0, 1, 0])
        d = inst.dists(rows, cols)
        assert d.tolist() == [inst.dist(int(r), int(c)) for r, c in zip(rows, cols)]
        assert d.tolist() == [float(inst.dists_from(int(r), [c])[0]) for r, c in zip(rows, cols)]
    row = matrix.dists_from(1)
    row[:] = -1.0
    assert matrix.dist(1, 0) == 1.0


# ------------------------------------------------- diameter estimate, balls

def test_diameter_estimate_examples(square):
    line = dm.MetricInstance.from_points([[0.0], [1.0], [2.0]])
    assert dm.diameter_estimate(line) == pytest.approx(2.0)
    two = dm.MetricInstance.from_matrix([[0.0, 5.0], [5.0, 0.0]])
    assert dm.diameter_estimate(two) == pytest.approx(5.0)
    assert dm.diameter_estimate(square) == pytest.approx(ROOT2)


@pytest.mark.parametrize("seed", range(8))
def test_diameter_estimate_brackets_true_diameter(seed):
    inst = dm.gen_uniform(30, (seed % 3) + 1, seed)
    rhat = dm.diameter_estimate(inst)
    diam = exact_diameter(inst)
    assert rhat <= diam * (1 + REL_TOL)
    assert diam <= 2.0 * rhat * (1 + REL_TOL)


def _ball(inst, center, radius):
    return np.flatnonzero(tol_leq(inst.dists_from(center), radius)).tolist()


def test_ball_members(square):
    line = dm.MetricInstance.from_points([[0.0], [1.0], [2.0]])
    assert _ball(line, 1, 1.0) == [0, 1, 2]
    assert _ball(square, 0, 10.0) == [0, 1, 2, 3]
    coincident = dm.MetricInstance.from_points([[0.0], [0.0], [1.0]])
    assert _ball(coincident, 0, 0.0) == [0, 1]


def test_ball_membership_tolerant_at_boundary(square):
    # sqrt(2) recomputed from coordinates lands within REL_TOL of the radius
    assert 3 in _ball(square, 0, ROOT2)


# ------------------------------------------------------- matrix validation

def test_validation_accepts_true_metric():
    rng = np.random.default_rng(11)
    pts = rng.uniform(size=(12, 2))
    d = dm.MetricInstance.from_points(pts).pow_matrix()
    dm.MetricInstance.from_matrix(d, validate=True)


def test_validation_rejects_asymmetry():
    m = [[0.0, 1.0], [1.5, 0.0]]
    with pytest.raises(MetricValidationError, match=r"not symmetric at \(0, 1\)"):
        dm.MetricInstance.from_matrix(m, validate=True)


def test_validation_rejects_nonzero_diagonal():
    m = [[0.0, 1.0], [1.0, 0.3]]
    with pytest.raises(MetricValidationError, match=r"diagonal entry at \(1, 1\)"):
        dm.MetricInstance.from_matrix(m, validate=True)


def test_validation_rejects_negative():
    m = [[0.0, -1.0], [-1.0, 0.0]]
    with pytest.raises(MetricValidationError, match="negative distance"):
        dm.MetricInstance.from_matrix(m, validate=True)


def test_validation_rejects_triangle_violation():
    m = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    with pytest.raises(MetricValidationError, match="triangle inequality"):
        dm.MetricInstance.from_matrix(m, validate=True)


def test_validation_skipped_without_flag():
    dm.MetricInstance.from_matrix([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])


# ------------------------------------------------------------------ file IO

def test_roundtrip_points(tmp_path):
    rng = np.random.default_rng(3)
    inst = dm.MetricInstance.from_points(rng.standard_normal((9, 3)) * 1e3,
                                         norm="linf")
    path = tmp_path / "pts.txt"
    dm.save_instance(inst, path)
    back = dm.load_instance(path, q=2.5)
    assert back.n == 9 and back.norm == "linf" and back.q == 2.5
    np.testing.assert_array_equal(back.points, inst.points)


def test_roundtrip_matrix(tmp_path):
    inst = dm.MetricInstance.from_matrix([[0.0, 0.1 + 0.2], [0.1 + 0.2, 0.0]])
    path = tmp_path / "mat.txt"
    dm.save_instance(inst, path)
    back = dm.load_instance(path, validate=True)
    np.testing.assert_array_equal(back.matrix, inst.matrix)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=64), min_size=2, max_size=6))
def test_roundtrip_preserves_any_float(tmp_path_factory, xs):
    inst = dm.MetricInstance.from_points(np.array(xs).reshape(-1, 1))
    path = tmp_path_factory.mktemp("rt") / "f.txt"
    dm.save_instance(inst, path)
    np.testing.assert_array_equal(dm.load_instance(path).points, inst.points)


PARSE_ERRORS = [
    ("", 1),
    ("triangles 3\n", 1),
    ("points 2 3\n", 1),                       # missing norm token
    ("points 2 x l2\n0 0\n0 1\n", 1),
    ("points 2 2 cosine\n0 0\n0 1\n", 1),
    ("points 2 2 l2\n0 0\n", 2),               # one row short
    ("points 2 2 l2\n0 0\n1\n", 3),            # wrong width
    ("points 2 2 l2\n0 0\n1 oops\n", 3),       # bad float
    ("matrix 2\n0 1\n1 0\n0 0\n", 4),          # extra row
    ("matrix 1\n0\n", 1),                      # n too small
    ("points 2 3 l2\n0 0\n\n2 2\n", 3),       # blank line inside the body
    ("points 2 3 l2\n0 0\n1 #\n2 2\n", 3),    # '#' is a bad float, not a comment
    ("points 1 3 l2\n0\n# 1\n2\n", 3),
    ("points 2 2 l2\n0 0\n1 2 # note\n", 3),
    ("matrix 3\n0 1 1\n1 0 1\n1 1\n", 4),     # matrix row of the wrong width
    ("points 2 2 l2\n0 0\n1_0 1\n", 3),       # float() accepts underscores
    ("points 2 2 l2\n0 0\n1 \u0661\n", 3),    # and non-ASCII digits
    ("points 2 1000000000000 l2\n0 0\n", 2),  # n too large to allocate
    ("matrix 3000000\n0 1\n", 2),
]


@pytest.mark.parametrize("dim", [0, -1])
def test_dimension_below_one_is_a_header_error(tmp_path, dim):
    path = tmp_path / "bad.txt"
    path.write_text(f"points {dim} 3 l2\n0 0\n1 1\n2 2\n")
    with pytest.raises(InstanceParseError, match=rf"^line 1: need dimension D >= 1, got D={dim}$"):
        dm.load_instance(path)


@pytest.mark.parametrize("text,lineno", PARSE_ERRORS)
def test_parse_errors_carry_line_numbers(tmp_path, text, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InstanceParseError, match=rf"line {lineno}"):
        dm.load_instance(path)


BAD_LINES = [
    ("7", "expected 2 values, found 1"),
    ("", "expected 2 values, found 0"),
    ("7 oops", "could not convert string to float: 'oops'"),
]


@pytest.mark.parametrize("bad,message", BAD_LINES)
def test_first_bad_line_is_reported_wherever_it_is(tmp_path, bad, message):
    # one bad line at every position, alone or followed by a second bad line
    rows = [f"{i} {i}.5" for i in range(37)]
    path = tmp_path / "bad.txt"
    for at in range(36 if bad == "" else 37):  # a blank last line is trailing
        for later in {None, min(at + 1, 36), 36} - {at}:
            body = list(rows)
            body[at] = bad
            if later is not None:
                body[later] = "1 2 3"
            path.write_text("points 2 37 l2\n" + "\n".join(body) + "\n")
            with pytest.raises(InstanceParseError, match=rf"^line {at + 2}: {message}$"):
                dm.load_instance(path)


NON_FINITE = [
    ("points 2 3 l2\n0 0\n1 nan\n2 2\n", 3, "nan"),
    ("points 2 3 l2\n0 0\n1 1\n-Infinity 2\n", 4, "-Infinity"),
    ("matrix 3\n0 1 2\n1 0 NaN\n2 1 0\n", 3, "NaN"),
    ("matrix 2\n0 inf\ninf 0\n", 2, "inf"),
]


@pytest.mark.parametrize("text,lineno,token", NON_FINITE)
def test_non_finite_values_name_their_line(tmp_path, text, lineno, token):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InstanceParseError,
                       match=rf"^line {lineno}: \w+ values must be finite, got '{token}'$"):
        dm.load_instance(path)


def test_load_matches_per_token_float(tmp_path):
    # the bulk parse must give the same bits as float() on each written token
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, size=9000, dtype=np.uint64).view(np.float64)
    special = [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2]
    xs = np.concatenate([special, bits[np.isfinite(bits)]])
    xs = xs[: xs.size // 3 * 3].reshape(-1, 3)
    path = tmp_path / "bits.txt"
    dm.save_instance(dm.MetricInstance.from_points(xs), path)
    lines = path.read_text().splitlines()[1:]
    expect = np.array([[float(t) for t in line.split()] for line in lines])
    got = dm.load_instance(path).points
    assert got.shape == xs.shape
    np.testing.assert_array_equal(got.view(np.int64), expect.view(np.int64))
    np.testing.assert_array_equal(got.view(np.int64), xs.view(np.int64))


def test_trailing_blank_lines_are_fine(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("points 1 2 l2\n0.0\n1.0\n\n\n")
    assert dm.load_instance(path).n == 2


@pytest.mark.parametrize("chunk", [metric.LOAD_CHUNK_CHARS, 2])
def test_last_row_without_a_newline(tmp_path, chunk):
    # a one-part load holds the unterminated last row back until the reader
    # runs dry, then parses it alone
    path = tmp_path / "f.txt"
    with mock.patch.object(metric, "LOAD_CHUNK_CHARS", chunk), \
            mock.patch.object(metric, "_read_parts", side_effect=AssertionError("split")):
        path.write_bytes(b"points 2 3 l2\n0 0\n1 1\n2 2.5")
        np.testing.assert_array_equal(dm.load_instance(path).points, [[0, 0], [1, 1], [2, 2.5]])
        path.write_bytes(b"matrix 2\n0 1\n1 0")
        np.testing.assert_array_equal(dm.load_instance(path, validate=True).matrix,
                                      [[0, 1], [1, 0]])
        path.write_bytes(b"points 2 3 l2\n0 0\n1 1\n2 oops")
        with pytest.raises(InstanceParseError,
                           match=r"^line 4: could not convert string to float: 'oops'$"):
            dm.load_instance(path)


def test_loader_cases_in_two_character_chunks(tmp_path):
    # each read of 2 characters is completed to one line, so every line is a
    # chunk of its own: rows, counts and errors must not depend on chunking
    with mock.patch.object(metric, "LOAD_CHUNK_CHARS", 2):
        test_roundtrip_points(tmp_path)
        test_roundtrip_matrix(tmp_path)
        for case in PARSE_ERRORS:
            test_parse_errors_carry_line_numbers(tmp_path, *case)
        for case in BAD_LINES:
            test_first_bad_line_is_reported_wherever_it_is(tmp_path, *case)
        for case in NON_FINITE:
            test_non_finite_values_name_their_line(tmp_path, *case)
        test_load_matches_per_token_float(tmp_path)
        test_trailing_blank_lines_are_fine(tmp_path)


def test_load_from_a_pipe():
    # a pipe has no file size to bound n by, so its rows are read as usual
    r, w = os.pipe()
    os.write(w, b"points 1 3 l2\n0\n1\n2\n")
    os.close(w)
    np.testing.assert_array_equal(dm.load_instance(r).points, [[0.0], [1.0], [2.0]])


@pytest.mark.parametrize("newline", (b"\r", b"\r\n"))
def test_header_ends_at_a_carriage_return_on_a_pipe(newline):
    # the header is read up to its first break and no further, even where
    # that is a "\r" whose "\n" comes in a later write
    r, w = os.pipe()
    os.write(w, b"points 1 3 l2\r")
    os.write(w, newline[1:] + newline.join([b"0", b"1", b"2"]) + newline)
    os.close(w)
    np.testing.assert_array_equal(dm.load_instance(r).points, [[0.0], [1.0], [2.0]])


def _traced_load(path) -> tuple[np.ndarray, int]:
    """The points of a one-part load of ``path`` and its traced peak bytes."""
    tracemalloc.start()
    try:
        with mock.patch.object(metric, "PART_BYTES", 1 << 40):
            points = dm.load_instance(path).points
        return points, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_file_broken_only_by_carriage_returns_is_read_in_chunks(tmp_path):
    # with no "\n" to cut after, chunks are cut after a "\r", so the text is
    # never held whole: the peak is that of the same file with "\n" endings
    inst = dm.MetricInstance.from_points(np.random.default_rng(3).random((40_000, 2)))
    path = tmp_path / "lf.txt"
    dm.save_instance(inst, path)
    lf, lf_peak = _traced_load(path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    cr, cr_peak = _traced_load(path)
    np.testing.assert_array_equal(cr, lf)
    assert cr_peak <= 1.1 * lf_peak, (cr_peak, lf_peak)


def test_a_body_without_newlines_is_parsed_once_in_one_part(tmp_path):
    # no newline to cut the parts after: the first part takes the whole body,
    # so no process is started and each row is parsed once
    path = tmp_path / "cr.txt"
    inst = dm.MetricInstance.from_points(np.arange(400.0).reshape(200, 2) / 7.0)
    dm.save_instance(inst, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    with mock.patch.object(metric, "PART_BYTES", 16), \
            mock.patch.object(metric.os, "sched_getaffinity", return_value={0, 1, 2, 3},
                              create=True), \
            mock.patch.object(metric.os, "fork", side_effect=AssertionError("forked")), \
            mock.patch.object(metric, "_parse_rows", wraps=metric._parse_rows) as parse:
        np.testing.assert_array_equal(dm.load_instance(path).points, inst.points)
    assert sum(len(c.args[0]) for c in parse.call_args_list) == 200


# A body is parsed in parts only where this process may run on two CPUs.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_parts = pytest.mark.skipif(CPUS < 2 or not hasattr(os, "fork"),
                                 reason="a body is parsed in parts only on two or more CPUs")


def _load_both_ways(path, part_bytes):
    """(one-part result, result in parts of about ``part_bytes``, whether the
    parts were parsed again as one part): each result an instance or the
    ``InstanceParseError`` message.  The parts load forks once per part after
    the first, at most CPUs - 1 times and at least once, and no child
    outlives a load.  The second ``_scan`` call here, after the first part's,
    is the one-part parse."""
    out = []
    for size in (1 << 40, part_bytes):
        with mock.patch.object(metric, "PART_BYTES", size), \
                mock.patch.object(metric.os, "fork", wraps=os.fork) as fork, \
                mock.patch.object(metric, "_scan", wraps=metric._scan) as scan:
            try:
                out.append(dm.load_instance(path))
            except InstanceParseError as exc:
                out.append(str(exc))
        assert 1 <= fork.call_count <= CPUS - 1 if size == part_bytes else not fork.called
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return out + [scan.call_count == 2]


@needs_parts
@pytest.mark.parametrize("chunk", (2, 1 << 16))
@pytest.mark.parametrize("newline", ("\n", "\r\n", "\r", "\x0c"))
def test_parts_give_the_bits_of_one_part(tmp_path, chunk, newline):
    # many cut positions of a points and a matrix body, in CPU-many parts.
    # A "\r" or "\x0c" breaks a line that the newline count misses, so the
    # first part ends past its count and the body is parsed again as one
    # part; the trailing blank lines would hide the shifted later parts.
    rng = np.random.default_rng(7)
    pts = dm.MetricInstance.from_points(rng.standard_normal((60, 3)) * 1e3)
    mat = dm.MetricInstance.from_matrix(pts.pow_matrix()[:12, :12])
    path = tmp_path / "in.txt"
    with mock.patch.object(metric, "LOAD_CHUNK_CHARS", chunk):
        for inst in (pts, mat):
            dm.save_instance(inst, path)
            header, body = path.read_bytes().split(b"\n", 1)
            count = -1 if newline == "\r\n" else 1
            body = body.replace(b"\n", newline.encode(), count) + b"\n\n"
            path.write_bytes(header + b"\n" + body)
            size = os.path.getsize(path)
            for part_bytes in sorted({max(1, size // CPUS - i) for i in range(0, 400, 7)}):
                one, parts, again = _load_both_ways(path, part_bytes)
                assert again == (newline in ("\r", "\x0c"))
                backend = "points" if inst is pts else "matrix"
                got, want = getattr(parts, backend), getattr(one, backend)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
                assert got.flags.f_contiguous if inst is pts else got.flags.c_contiguous


SPLIT_FAULTS = [
    ("7.5 oops", 0),          # a bad token
    ("7.5", 0),               # the wrong width
    ("", 0),                  # a blank line inside the body
    ("7.5 nan", 0),
    ("-inf 7.5", 0),
    ("7 7\r8 8", 0),          # a row too many, behind a break the newline count misses
    (None, -1),               # one row too few
    (None, 1),                # one row too many
    (None, 0),                # trailing blank lines only
]


@needs_parts
@pytest.mark.parametrize("line,extra", SPLIT_FAULTS)
def test_parts_report_the_one_part_error(tmp_path, line, extra):
    # the fault sits in the last part, the middle one or the first; a body
    # with a part at fault is parsed again as one part, so the messages are
    # the same
    n = 300
    rows = [f"{i} {i}.25" for i in range(n + max(extra, 0))]
    path = tmp_path / "bad.txt"
    for at in (n - 3, n // 2, 2) if line is not None else (None,):
        body = list(rows)
        if at is not None:
            body[at] = line
        tail = "\n\n" if line is None and extra == 0 else ""
        text = f"points 2 {n - min(extra, 0)} l2\n" + "\n".join(body) + "\n" + tail
        path.write_text(text)
        one, parts, again = _load_both_ways(path, len(text) // CPUS)
        if tail:
            assert not again
            np.testing.assert_array_equal(parts.points, one.points)
        else:
            assert again and isinstance(one, str) and parts == one, (parts, one)


def test_one_cpu_or_a_small_body_starts_no_process(tmp_path):
    path = tmp_path / "in.txt"
    dm.save_instance(dm.MetricInstance.from_points(np.arange(400.0).reshape(200, 2)), path)
    size = os.path.getsize(path)
    with mock.patch.object(metric.os, "fork", side_effect=AssertionError("forked")):
        with mock.patch.object(metric, "PART_BYTES", size):
            assert dm.load_instance(path).n == 200
        with mock.patch.object(metric, "PART_BYTES", 16), \
                mock.patch.object(metric.os, "sched_getaffinity", return_value={0}, create=True):
            assert dm.load_instance(path).n == 200


@needs_parts
def test_a_failed_fork_leaves_one_part(tmp_path):
    # with no process to spare, the parts already started are reaped and the
    # body is parsed as one part
    path = tmp_path / "in.txt"
    inst = dm.MetricInstance.from_points(np.arange(400.0).reshape(200, 2) / 7.0)
    dm.save_instance(inst, path)
    with mock.patch.object(metric, "PART_BYTES", 16), \
            mock.patch.object(metric.os, "fork", side_effect=OSError("no process")):
        np.testing.assert_array_equal(dm.load_instance(path).points, inst.points)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Loads each path in a process whose locale encoding is ASCII, with
# PART_BYTES set to the first argument, and prints that encoding, the forks,
# and each load's points as hex bits or its InstanceParseError message.
ASCII_LOAD = """
import codecs, json, locale, os, sys
from unittest import mock
from divmax import metric
from divmax.errors import InstanceParseError
out = [codecs.lookup(locale.getpreferredencoding(False)).name]
with mock.patch.object(metric, "PART_BYTES", int(sys.argv[1])), \\
        mock.patch.object(metric.os, "fork", wraps=os.fork) as fork:
    for path in sys.argv[2:]:
        try:
            out.append(metric.load_instance(path).points.tobytes().hex())
        except InstanceParseError as exc:
            out.append(str(exc))
print(json.dumps(out + [fork.call_count]))
"""


def _load_in_ascii_locale(part_bytes, *paths):
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   os.path.dirname(os.path.dirname(dm.__file__)), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONIOENCODING", None)
    done = subprocess.run([sys.executable, "-c", ASCII_LOAD, str(part_bytes), *map(str, paths)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    encoding, *loads, forks = json.loads(done.stdout)
    assert encoding == "ascii"
    return loads, forks


def test_ascii_locale_reads_utf8_and_names_the_bad_line(tmp_path):
    # the file means the same characters under any locale: a non-ASCII digit
    # and a byte that is not UTF-8 are both bad values on their line
    digit, byte = tmp_path / "digit.txt", tmp_path / "byte.txt"
    digit.write_bytes("points 2 2 l2\n0 0\n1 \u0661\n".encode("utf-8"))
    byte.write_bytes(b"points 2 2 l2\n0 0\n1 \xff\n")
    loads, _ = _load_in_ascii_locale(1 << 40, digit, byte)
    assert loads == ["line 3: could not convert string to float: '\u0661'",
                     "line 3: could not convert string to float: '\ufffd'"]


@needs_parts
def test_ascii_locale_parses_in_parts(tmp_path):
    path = tmp_path / "in.txt"
    inst = dm.MetricInstance.from_points(np.arange(600.0).reshape(300, 2) / 7.0)
    dm.save_instance(inst, path)
    loads, forks = _load_in_ascii_locale(os.path.getsize(path) // CPUS, path)
    assert forks >= 1 and loads == [dm.load_instance(path).points.tobytes().hex()]


# ------------------------------------------- power-distance inequalities

@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_relaxed_triangle_inequality(seed, q):
    # d^q(u,w) <= 2^(q-1) [d^q(u,v) + d^q(v,w)] for coordinate triples
    rng = np.random.default_rng(seed)
    u, v, w = rng.uniform(-5.0, 5.0, size=(3, 3))
    duw = float(np.linalg.norm(u - w)) ** q
    duv = float(np.linalg.norm(u - v)) ** q
    dvw = float(np.linalg.norm(v - w)) ** q
    assert tol_leq(duw, 2.0 ** (q - 1.0) * (duv + dvw))


@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.0, 1.0),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_perturbed_power_inequality(x, y, eps, q):
    # (x + eps*y)^q <= x^q + 2^q eps max(x^q, y^q)
    lhs = (x + eps * y) ** q
    rhs = x ** q + 2.0 ** q * eps * max(x ** q, y ** q)
    assert tol_leq(lhs, rhs)


def test_tol_leq_behaviour():
    assert tol_leq(1.0, 1.0)
    assert tol_leq(1.0 + 1e-12, 1.0)
    assert not tol_leq(1.0 + 1e-6, 1.0)
    assert tol_leq(0.0, 0.0)
    np.testing.assert_array_equal(
        tol_leq(np.array([1.0, 1.0 + 1e-12, 1.0 + 1e-6]), 1.0), [True, True, False])
