"""Finite metric spaces with coordinate or matrix backends and q-th-power distances.

An instance is a set of n points together with a metric d and an exponent
q >= 1.  All algorithms in this package read distances through
``MetricInstance.dists`` (index arrays paired elementwise, or broadcast into a
block as ``pow_submatrix`` does) and the accessors built on it, so the backend
(raw coordinates under an lp norm, or an explicit distance matrix) is
invisible to them.

Coordinates are stored column-major, one contiguous length-n array per
coordinate, and every coordinate distance comes from one kernel,
``_norm_of``, which accumulates the norm one coordinate column at a time.
"""
from __future__ import annotations

import itertools
import os
import stat
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InstanceParseError, MetricValidationError

# Relative slack used for every comparison against a geometric threshold.
REL_TOL = 1e-9

NORMS = ("l1", "l2", "linf")

# Entries computed at a time by every linear pass over the points: a long
# distance row, a cell decomposition's bin keys, unassigned-point scan and
# absorb windows, and a lift's label scan.  Each pass then holds a few
# arrays of this length beside its output, whatever n is.
BLOCK = 1 << 14

# Bytes of an instance file read and parsed at a time.
LOAD_CHUNK_CHARS = 1 << 16
# Body bytes per part: a larger body is parsed in ceil(body / PART_BYTES)
# parts, at most one per CPU, each in its own process.  On 2 shared vCPUs two
# parts of about 190 KB took as long as one part of 380 KB.
PART_BYTES = 1 << 19


def tol_leq(a, b):
    """Tolerant ``a <= b`` with ``REL_TOL`` slack relative to the larger
    magnitude; elementwise on arrays.  A row ``a`` longer than ``BLOCK``
    against one bound ``b`` is compared ``BLOCK`` entries at a time."""
    if np.ndim(a) == 1 and np.ndim(b) == 0 and len(a) > BLOCK:
        out = np.empty(len(a), dtype=bool)
        for lo in range(0, len(a), BLOCK):
            out[lo:lo + BLOCK] = tol_leq(a[lo:lo + BLOCK], b)
        return out
    return a <= b + REL_TOL * np.maximum(np.abs(a), np.abs(b))


def _norm_of(pairs, norm: str, wide: bool) -> np.ndarray:
    """The ``norm`` of the differences ``x - y`` over ``pairs``, one pair of
    broadcastable arrays per coordinate, summed one coordinate at a time.
    Each difference is squared or made absolute in place; the sum is not
    (an in-place sum left more of glibc's heap resident, about 1 MB at n =
    20000).  Where ``wide`` says a difference may be too large for a float,
    it gives an infinite distance without a warning."""
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")
    if wide:
        with np.errstate(over="ignore"):
            return _norm_of(pairs, norm, wide=False)
    acc = None
    for x, y in pairs:
        d = np.subtract(x, y)
        if norm == "l2":
            np.multiply(d, d, out=d)
        else:
            np.abs(d, out=d)
        if acc is None:
            acc = d
        elif norm == "linf":
            acc = np.maximum(acc, d)
        else:
            acc = acc + d
    return np.sqrt(acc, out=acc) if norm == "l2" else acc


@dataclass
class MetricInstance:
    """n points, a metric d, and the exponent q used by power distances.

    Exactly one of ``points`` (coordinate backend) or ``matrix`` (explicit
    distances) is set.  ``points`` is column-major: ``points.T`` holds one
    contiguous array per coordinate.  Instances are treated as immutable;
    ``with_q`` returns a cheap copy sharing the backing arrays.
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
        if pts.ndim != 2 or not pts.shape[1]:
            raise ValueError("points must be a 2-d array of shape (n, D), D >= 1")
        if pts.shape[0] < 2:
            raise ValueError("need at least 2 points")
        if norm not in NORMS:
            raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")
        if not q >= 1.0:
            raise ValueError(f"exponent q must be >= 1, got {q}")
        _check_finite(pts, "coordinate")
        return cls(n=pts.shape[0], q=float(q), points=np.asfortranarray(pts), norm=norm)

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

    @cached_property
    def wide(self) -> bool:
        """Whether some coordinate reaches 2**500 in magnitude, so that a
        distance may overflow to inf; below that every distance over fewer
        than 2**21 coordinates stays below 2**1023."""
        return self.points is not None and bool(max(self.points.max(), -self.points.min()) >= 2.0 ** 500)

    def _check_index(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise IndexError(f"point index {u} out of range [0, {self.n})")

    def dist(self, u: int, v: int) -> float:
        self._check_index(u)
        self._check_index(v)
        return float(self.dists(u, [v])[0])

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
        index arrays broadcast against each other: paired elementwise, or a
        block when ``rows`` is a column; ``rows`` may be one index.  One
        index against more than ``BLOCK`` columns fills its row ``BLOCK``
        entries at a time."""
        if self.matrix is not None:
            return self.matrix[rows].copy() if cols is None else self.matrix[rows, cols]
        size = self.n if cols is None else np.size(cols)
        if np.ndim(rows) or size <= BLOCK or np.ndim(cols) > 1:
            return _norm_of([(x if cols is None else x.take(cols), x.take(rows))
                             for x in self.points.T], self.norm, self.wide)
        out = np.empty(size)
        for lo in range(0, size, BLOCK):
            part = slice(lo, lo + BLOCK)
            out[part] = _norm_of([(x[part] if cols is None else x.take(cols[part]), x[rows])
                                  for x in self.points.T], self.norm, self.wide)
        return out

    def pow_submatrix(self, rows, cols=None) -> np.ndarray:
        """q-th-power distances from ``rows`` to ``cols`` (default: ``rows``),
        as a dense block."""
        ri = np.asarray(rows, dtype=np.int64)
        d = self.dists(ri[:, None], ri if cols is None else np.asarray(cols, dtype=np.int64))
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


def check_indices(inst: MetricInstance, idx) -> np.ndarray:
    """The indices ``idx`` (read once) as an int64 array; ``ValueError`` on a
    non-integer, ``IndexError`` on an index outside ``[0, inst.n)``."""
    idx = np.asarray(idx if isinstance(idx, np.ndarray) else list(idx))
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"subset indices must be integers, got {idx.dtype} values")
    if idx.size and (idx.min() < 0 or idx.max() >= inst.n):
        raise IndexError(f"subset index out of range [0, {inst.n})")
    return idx.astype(np.int64, copy=False)


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
    Blank lines may follow the last row and nowhere else.  The file is read
    as UTF-8 whatever the locale, a byte that is not UTF-8 as U+FFFD, a bad
    value like any other.  The body is read in chunks of about
    ``LOAD_CHUNK_CHARS`` bytes cut after a newline, each parsed by one
    ``numpy.loadtxt`` call into a preallocated array (for points,
    column-major: one contiguous array per coordinate); only in a chunk that
    fails are the lines searched for the first one that does not parse,
    whose number the ``InstanceParseError`` carries.  A wrong number of rows
    is reported before any bad line.  A body that parses but holds a
    non-finite value is refused with the number of its first such line.  The
    exponent q is not stored in the file; it is supplied by the caller.

    A regular file whose body exceeds ``PART_BYTES`` is parsed in parts on
    Linux: min(CPUs this process may run on, body / ``PART_BYTES`` rounded
    up) byte ranges cut after a newline, the first parsed here and each
    other by a forked child into one shared buffer.  A body that any part
    finds at fault is parsed again here as one part, so every error and
    its line number are those of the one-part parse.
    """
    with open(path, "rb") as fh:
        first = fh.readline().decode("utf-8", "replace").splitlines()
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
            if d < 1:
                raise InstanceParseError(f"line 1: need dimension D >= 1, got D={d}")
            norm = head[3]
            if norm not in NORMS:
                raise InstanceParseError(
                    f"line 1: unknown norm {norm!r}; expected one of {NORMS}")
            rows = _read_rows(fh, first[1:], n, d, what="coordinate", order="F")
            return MetricInstance.from_points(rows, norm=norm, q=q)
        if head[0] == "matrix":
            if len(head) != 2:
                raise InstanceParseError(f"line 1: expected 'matrix <n>', got {header!r}")
            try:
                n = int(head[1])
            except ValueError:
                raise InstanceParseError(f"line 1: non-integer size in {header!r}") from None
            rows = _read_rows(fh, first[1:], n, n, what="distance", order="C")
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


def _chunks(read):
    """The lines ``str.splitlines`` gives on the bytes ``read(size)`` returns,
    decoded as UTF-8 with each undecodable byte replaced, in lists of about
    ``LOAD_CHUNK_CHARS`` bytes cut after a newline byte (longer where one
    line is, as in a file broken only by carriage returns)."""
    held = []
    while block := read(LOAD_CHUNK_CHARS):
        cut = block.rfind(b"\n") + 1
        if cut:  # the pieces are freed before the joined bytes are decoded
            lines = b"".join([*held, block[:cut]]).decode("utf-8", "replace").splitlines()
            held = [block[cut:]]
            yield lines
        else:
            held.append(block)
    if rest := b"".join(held):
        yield rest.decode("utf-8", "replace").splitlines()


def _scan(chunks, rows: np.ndarray | None, read: int, n: int, width: int):
    """Parse the first n body rows among the lines of ``chunks`` into ``rows``;
    ``read`` is the body line number of the first line.  Returns the line
    number after the last line, the one after the last non-blank line (0 if
    none), the first chunk holding a line that does not parse as
    ``(line, lines)``, and the first non-finite value as ``(line, token)``."""
    body = 0
    bad = non_finite = None
    for chunk in chunks:
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
    return read, body, bad, non_finite


def _part_holds(fd: int, lo: int, hi: int, rows: np.ndarray, at: int, end: int | None,
                n: int, width: int) -> bool:
    """Parse bytes ``[lo, hi)``, whose first line is body line ``at``, into
    ``rows``.  True when each of its lines below n parses and is finite, each
    line from n on is blank, and it ends at body line ``end`` (the last part,
    ``end`` None, must reach line n): exactly when a one-part parse of the
    whole body would accept this part's lines."""
    def pread(size: int) -> bytes:  # leaves the file offset, which parts share, alone
        nonlocal lo
        block = os.pread(fd, min(size, hi - lo), lo)
        lo += len(block)
        return block

    read, body, bad, non_finite = _scan(_chunks(pread), rows, at, n, width)
    return (bad is None and non_finite is None and body <= n
            and (read >= n if end is None else read == end))


def _read_parts(fd: int, start: int, size: int, parts: int, n: int, width: int,
                order: str) -> tuple[np.ndarray, bool]:
    """The n body rows in bytes ``[start, size)`` of ``fd``, parsed in
    ``parts`` parts, the first here and each other in a forked child, into a
    shared buffer; and whether every part held (see ``_part_holds``)."""
    import mmap  # only a split parse needs it

    # cut after the first newline at or past each equal share of the bytes,
    # counting the newlines before each cut: the part's first line number
    cuts, firsts, pos, lines = [start], [0], start, 0
    for i in range(1, parts):
        target = start + (size - start) * i // parts
        while block := os.pread(fd, LOAD_CHUNK_CHARS, pos):
            j = block.find(b"\n", max(0, target - pos)) + 1
            lines += block.count(b"\n", 0, j or len(block))
            pos += j or len(block)
            if j:
                break
        cuts.append(pos)
        firsts.append(lines)
    cuts.append(size)
    ends = firsts[1:] + [None]

    rows = np.ndarray((n, width), buffer=mmap.mmap(-1, 8 * n * width), order=order)
    children = []
    held = False
    try:
        for i in range(1, parts):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: parse the body as one part
                return rows, False
            if pid == 0:  # the child parses its part, exits 0 if it held, and never returns
                code = 1
                try:
                    code = 0 if _part_holds(fd, cuts[i], cuts[i + 1], rows, firsts[i],
                                            ends[i], n, width) else 1
                finally:
                    os._exit(code)
            children.append(pid)
        held = _part_holds(fd, cuts[0], cuts[1], rows, 0, ends[0], n, width)
    finally:
        for pid in children:
            held = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 and held
    return rows, held


def _read_rows(fh, lines: list[str], n: int, width: int, what: str,
               order: str) -> np.ndarray:
    """The n body rows of ``width`` values that follow the header: ``lines``,
    then the rest of ``fh``; stored in ``order`` ("F" column-major, "C" row-major)."""
    if n < 2:
        raise InstanceParseError(f"line 1: need at least 2 points, got n={n}")
    # A valid body spends at least 2 bytes per value, so a header whose n
    # cannot fit in the file allocates nothing; the checks below then fail.
    info = os.fstat(fh.fileno())
    regular = stat.S_ISREG(info.st_mode)
    start = fh.tell() if regular else info.st_size
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = min(cpus, -(-(info.st_size - start) // PART_BYTES))
    if regular and 2 * n * width > info.st_size:
        rows = None
    elif parts > 1 and width > 0 and not lines and hasattr(os, "fork"):
        rows, held = _read_parts(fh.fileno(), start, info.st_size, parts, n, width, order)
        if held:
            return rows
    else:
        rows = np.empty((n, width), order=order)
    read, body, bad, non_finite = _scan(itertools.chain([lines], _chunks(fh.read)),
                                        rows, 0, n, width)
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
