"""Finite metric spaces with coordinate or matrix backends and q-th-power distances.

An instance is a set of n points together with a metric d and an exponent
q >= 1.  All algorithms in this package work on d^q through ``dist_pow`` and
``MetricInstance.pow_submatrix``, the one accessor for square and rectangular
distance blocks, so the backend (raw coordinates under an lp norm, or an
explicit distance matrix) is invisible to them.
"""
from __future__ import annotations

import os
import stat
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceParseError, MetricValidationError

# Relative slack used for every comparison against a geometric threshold.
REL_TOL = 1e-9

NORMS = ("l1", "l2", "linf")

# Characters of an instance file read and parsed at a time.
LOAD_CHUNK_CHARS = 1 << 16


def tol_leq(a, b, tol: float = REL_TOL):
    """Tolerant ``a <= b`` with slack relative to the larger magnitude;
    elementwise on arrays."""
    return a <= b + tol * np.maximum(np.abs(a), np.abs(b))


def _norm_of(diff: np.ndarray, norm: str) -> np.ndarray:
    if norm == "l2":
        return np.sqrt(np.einsum("...i,...i->...", diff, diff))
    if norm == "l1":
        return np.abs(diff).sum(axis=-1)
    if norm == "linf":
        return np.abs(diff).max(axis=-1)
    raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")


def pairwise_distances(a: np.ndarray, b: np.ndarray, norm: str) -> np.ndarray:
    """All distances between rows of ``a`` and rows of ``b``."""
    return _norm_of(a[:, None, :] - b[None, :, :], norm)


@dataclass
class MetricInstance:
    """n points, a metric d, and the exponent q used by power distances.

    Exactly one of ``points`` (coordinate backend) or ``matrix`` (explicit
    distances) is set.  Instances are treated as immutable; ``with_q`` returns
    a cheap copy sharing the backing arrays.
    """

    n: int
    q: float
    points: np.ndarray | None = None
    norm: str = "l2"
    matrix: np.ndarray | None = None
    _pow: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_points(cls, points, norm: str = "l2", q: float = 1.0) -> "MetricInstance":
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array of shape (n, D)")
        if pts.shape[0] < 2:
            raise ValueError("need at least 2 points")
        if norm not in NORMS:
            raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")
        if not q >= 1.0:
            raise ValueError(f"exponent q must be >= 1, got {q}")
        _check_finite(pts, "coordinate")
        return cls(n=pts.shape[0], q=float(q), points=pts, norm=norm)

    @classmethod
    def from_matrix(cls, entries, q: float = 1.0, validate: bool = False) -> "MetricInstance":
        m = np.asarray(entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("distance matrix must be square")
        if m.shape[0] < 2:
            raise ValueError("need at least 2 points")
        if not q >= 1.0:
            raise ValueError(f"exponent q must be >= 1, got {q}")
        _check_finite(m, "distance")
        if validate:
            _validate_matrix(m)
        return cls(n=m.shape[0], q=float(q), matrix=m)

    def with_q(self, q: float) -> "MetricInstance":
        if not q >= 1.0:
            raise ValueError(f"exponent q must be >= 1, got {q}")
        return MetricInstance(n=self.n, q=float(q), points=self.points,
                              norm=self.norm, matrix=self.matrix)

    @property
    def dim(self) -> int | None:
        return None if self.points is None else self.points.shape[1]

    def _check_index(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise IndexError(f"point index {u} out of range [0, {self.n})")

    def dist(self, u: int, v: int) -> float:
        self._check_index(u)
        self._check_index(v)
        return float(self.dists(u, v))

    def dist_pow(self, u: int, v: int) -> float:
        d = self.dist(u, v)
        return d if self.q == 1.0 else d ** self.q

    def dists_from(self, u: int, targets=None) -> np.ndarray:
        """Plain (unpowered) distances from ``u`` to ``targets``, an index
        array; all points by default."""
        self._check_index(u)
        return self.dists(u, None if targets is None else np.asarray(targets, dtype=np.int64))

    def dists(self, rows, cols=None) -> np.ndarray:
        """Plain distances from ``rows`` to ``cols`` (default: every point),
        index arrays paired elementwise; ``rows`` may be one index."""
        if self.matrix is not None:
            return self.matrix[rows].copy() if cols is None else self.matrix[rows, cols]
        at = self.points if cols is None else np.take(self.points, cols, axis=0)
        return _norm_of(at - np.take(self.points, rows, axis=0), self.norm)

    def pow_submatrix(self, rows, cols=None) -> np.ndarray:
        """q-th-power distances from ``rows`` to ``cols`` (default: ``rows``),
        as a dense block."""
        ri = np.asarray(rows, dtype=np.int64)
        ci = ri if cols is None else np.asarray(cols, dtype=np.int64)
        if self.matrix is not None:
            d = self.matrix[np.ix_(ri, ci)]
        else:
            d = pairwise_distances(self.points[ri], self.points[ci], self.norm)
        return d if self.q == 1.0 else d ** self.q

    def pow_matrix(self) -> np.ndarray:
        """Full n x n matrix of q-th-power distances (cached; intended for small n)."""
        if self._pow is None:
            self._pow = self.pow_submatrix(np.arange(self.n))
        return self._pow


def _first_non_finite(a: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first non-finite entry of a 2-d array, or None."""
    # min and max propagate nan, and need no array as large as ``a``
    if not a.size or (np.isfinite(a.min()) and np.isfinite(a.max())):
        return None
    i, j = np.unravel_index(int((~np.isfinite(a)).argmax()), a.shape)
    return int(i), int(j)


def _check_finite(a: np.ndarray, what: str) -> None:
    at = _first_non_finite(a)
    if at is not None:
        raise ValueError(f"{what} values must be finite, got {float(a[at])!r} at {at}")


def check_indices(inst: MetricInstance, idx) -> None:
    """Raise ``IndexError`` unless every index lies in ``[0, inst.n)``."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= inst.n):
        raise IndexError(f"subset index out of range [0, {inst.n})")


def diameter_estimate(inst: MetricInstance) -> float:
    """Largest distance from point 0; the true diameter lies in [estimate, 2*estimate]."""
    return float(inst.dists_from(0).max())


def _validate_matrix(m: np.ndarray) -> None:
    n = m.shape[0]
    scale = float(np.abs(m).max()) if m.size else 0.0
    asym = np.abs(m - m.T)
    if asym.max() > REL_TOL * max(scale, 1.0):
        u, v = np.unravel_index(int(asym.argmax()), asym.shape)
        raise MetricValidationError(
            f"matrix is not symmetric at ({u}, {v}): {m[u, v]!r} vs {m[v, u]!r}")
    diag = np.abs(np.diag(m))
    if diag.max() > REL_TOL * max(scale, 1.0):
        u = int(diag.argmax())
        raise MetricValidationError(f"nonzero diagonal entry at ({u}, {u}): {m[u, u]!r}")
    if m.min() < 0:
        u, v = np.unravel_index(int(m.argmin()), m.shape)
        raise MetricValidationError(f"negative distance at ({u}, {v}): {m[u, v]!r}")
    # min over w of m[u,w] + m[w,v], accumulated one w at a time to bound memory
    best = np.full((n, n), np.inf)
    for w in range(n):
        np.minimum(best, m[:, [w]] + m[[w], :], out=best)
    bad = m > best + REL_TOL * np.maximum(m, best)
    if bad.any():
        u, v = np.unravel_index(int(bad.argmax()), bad.shape)
        raise MetricValidationError(
            f"triangle inequality violated for pair ({u}, {v}): "
            f"d={m[u, v]!r} exceeds best two-hop {best[u, v]!r}")


def _fmt(x: float) -> str:
    return repr(float(x))


def save_instance(inst: MetricInstance, path) -> None:
    """Write an instance file; floats use shortest round-trip formatting."""
    lines = []
    if inst.points is not None:
        d = inst.points.shape[1]
        lines.append(f"points {d} {inst.n} {inst.norm}")
        for row in inst.points:
            lines.append(" ".join(_fmt(x) for x in row))
    else:
        lines.append(f"matrix {inst.n}")
        for row in inst.matrix:
            lines.append(" ".join(_fmt(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path, q: float = 1.0, validate: bool = False) -> MetricInstance:
    """Read an instance file.

    Format, one record per line:

        points <D> <n> <norm>      followed by n lines of D coordinates
        matrix <n>                 followed by n lines of n distances

    Values are separated by whitespace.  Each is a finite decimal or
    exponent float in ASCII (``1``, ``-0.5``, ``2.5e-300``), optionally
    signed; ``inf``, ``nan``, underscores and non-ASCII digits are rejected.
    Blank lines may follow the last row and nowhere else.  The body is read
    from the file in chunks of about ``LOAD_CHUNK_CHARS`` characters, each
    parsed by one ``numpy.loadtxt`` call into a preallocated array; only in a
    chunk that fails are the lines searched for the first one that does not
    parse, whose number the ``InstanceParseError`` carries.  A wrong number
    of rows is reported before any bad line.  A body that parses but holds a
    non-finite value is refused with the number of its first such line.  The
    exponent q is not stored in the file; it is supplied by the caller.
    """
    with open(path) as fh:
        first = fh.readline().splitlines()
        if not first or not first[0].strip():
            raise InstanceParseError("line 1: empty file, expected a header line")
        header = first[0]
        head = header.split()
        if head[0] == "points":
            if len(head) != 4:
                raise InstanceParseError(
                    f"line 1: expected 'points <D> <n> <norm>', got {header!r}")
            try:
                d, n = int(head[1]), int(head[2])
            except ValueError:
                raise InstanceParseError(
                    f"line 1: non-integer dimensions in {header!r}") from None
            norm = head[3]
            if norm not in NORMS:
                raise InstanceParseError(
                    f"line 1: unknown norm {norm!r}; expected one of {NORMS}")
            rows = _read_rows(fh, first[1:], n, d, what="coordinate")
            return MetricInstance.from_points(rows, norm=norm, q=q)
        if head[0] == "matrix":
            if len(head) != 2:
                raise InstanceParseError(f"line 1: expected 'matrix <n>', got {header!r}")
            try:
                n = int(head[1])
            except ValueError:
                raise InstanceParseError(f"line 1: non-integer size in {header!r}") from None
            rows = _read_rows(fh, first[1:], n, n, what="distance")
            return MetricInstance.from_matrix(rows, q=q, validate=validate)
    raise InstanceParseError(
        f"line 1: unknown header {head[0]!r}; expected 'points' or 'matrix'")


def _parse_rows(lines: list[str], width: int) -> np.ndarray | None:
    """``lines`` as an array of shape (len(lines), width), or None if any line
    is not ``width`` floats (``loadtxt`` skips blank lines, so those fail the
    shape test)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a chunk of blank lines warns "no data"
        try:
            rows = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return None
    return rows if rows.shape == (len(lines), width) else None


def _line_chunks(fh, lines: list[str]):
    """``lines``, then the rest of the file in lists of lines of about
    ``LOAD_CHUNK_CHARS`` characters.  Each read is completed to a newline,
    so the lines are those ``str.splitlines`` gives on the whole text."""
    yield lines
    while text := fh.read(LOAD_CHUNK_CHARS):
        yield (text + fh.readline()).splitlines()


def _read_rows(fh, lines: list[str], n: int, width: int, what: str) -> np.ndarray:
    """The n body rows of ``width`` values that follow the header: ``lines``,
    then the rest of ``fh``."""
    if n < 2:
        raise InstanceParseError(f"line 1: need at least 2 points, got n={n}")
    # A valid body spends at least 2 bytes per value, so a header whose n
    # cannot fit in the file allocates nothing; the checks below then fail.
    info = os.fstat(fh.fileno())
    fits = not stat.S_ISREG(info.st_mode) or 2 * n * width <= info.st_size
    rows = np.empty((n, width)) if fits else None
    read = body = 0  # lines read after the header; lines up to the last non-blank one
    bad = non_finite = None
    for chunk in _line_chunks(fh, lines):
        at, read = read, read + len(chunk)
        last = len(chunk)
        while last and not chunk[last - 1].strip():
            last -= 1
        if last:
            body = at + last
        part = chunk[:max(0, n - at)]
        if bad is not None or not part:
            continue
        got = _parse_rows(part, width)
        if got is None:
            bad = at, part  # the first chunk holding a line that does not parse
            continue
        if rows is not None:
            rows[at:at + len(part)] = got
        cell = _first_non_finite(got) if non_finite is None else None
        if cell is not None:
            non_finite = at + cell[0], part[cell[0]].split()[cell[1]]
    if body != n:
        raise InstanceParseError(
            f"line {read + 1}: expected {n} {what} rows, found {body}")
    if bad is None:
        if non_finite is not None:
            raise InstanceParseError(f"line {non_finite[0] + 2}: {what} values must be "
                                     f"finite, got {non_finite[1]!r}")
        return rows
    # Bisect the failing chunk for its first bad line: part[:lo] parses and
    # part[lo:hi] holds a bad line, so at most len(part) lines are parsed again.
    at, part = bad
    lo, hi = 0, len(part)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse_rows(part[lo:mid], width) is None:
            hi = mid
        else:
            lo = mid
    toks = part[lo].split()
    if len(toks) != width:
        raise InstanceParseError(
            f"line {at + lo + 2}: expected {width} values, found {len(toks)}")
    token = next((t for t in toks if _parse_rows([t], 1) is None), part[lo])
    raise InstanceParseError(
        f"line {at + lo + 2}: could not convert string to float: {token!r}")
